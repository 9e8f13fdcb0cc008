package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// hardEasyBatch is the streaming fixture: one hard load case (full
// traction) plus several near-zero ones that converge almost immediately
// under the absolute ‖u^{k+1}−u^k‖_∞ tolerance — so per-case results must
// surface long before the hard column finishes.
func hardEasyBatch(easy int) SolveRequest {
	tr := make([]float64, 1+easy)
	tr[0] = 1
	for i := 1; i < len(tr); i++ {
		tr[i] = 1e-9
	}
	return SolveRequest{
		Plate:        &PlateSpec{Rows: 40, Cols: 40, Tractions: tr},
		Solver:       SolverSpec{M: 0, Tol: 1e-9},
		OmitSolution: true,
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses events off an SSE stream until the stream closes.
func readSSE(t *testing.T, r *bufio.Reader, events chan<- sseEvent) {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			close(events)
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && ev.name != "":
			events <- ev
			ev = sseEvent{}
		}
	}
}

// TestSSEStreamsEarlyCases is the end-to-end acceptance test: a batched
// solve with one slow and N fast load cases must deliver at least one
// per-case result over SSE before the job completes, and the finished
// job's recorded plan must match the planner's offline decision for the
// same request.
func TestSSEStreamsEarlyCases(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const easy = 5
	req := hardEasyBatch(easy)
	resp, body := postJSON(t, srv, "/v1/solve", solveHTTPRequest{SolveRequest: req, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var accepted JobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	hreq, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+accepted.ID, nil)
	hreq.Header.Set("Accept", "text/event-stream")
	sresp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	events := make(chan sseEvent, 64)
	go readSSE(t, bufio.NewReader(sresp.Body), events)

	var caseEvents []CaseEvent
	var done *JobView
	sawCaseBeforeDone := false
	deadline := time.After(60 * time.Second)
	for done == nil {
		select {
		case ev, open := <-events:
			if !open {
				t.Fatal("stream closed without a done event")
			}
			switch ev.name {
			case "case":
				var ce CaseEvent
				if err := json.Unmarshal(ev.data, &ce); err != nil {
					t.Fatalf("bad case event %s: %v", ev.data, err)
				}
				caseEvents = append(caseEvents, ce)
			case "done":
				var v JobView
				if err := json.Unmarshal(ev.data, &v); err != nil {
					t.Fatalf("bad done event %s: %v", ev.data, err)
				}
				done = &v
				sawCaseBeforeDone = len(caseEvents) > 0
			}
		case <-deadline:
			t.Fatalf("no done event after 60s (got %d case events)", len(caseEvents))
		}
	}

	if !sawCaseBeforeDone {
		t.Fatal("no per-case result arrived before the job completed")
	}
	if len(caseEvents) != 1+easy {
		t.Fatalf("streamed %d case events, want %d", len(caseEvents), 1+easy)
	}
	// The first streamed case must be one of the easy columns, surfaced in
	// fewer iterations than the hard column took in total.
	first := caseEvents[0]
	if first.Case == 0 {
		t.Fatalf("hard case streamed first")
	}
	hard := done.Result.Cases[0]
	if !hard.Converged {
		t.Fatalf("hard case did not converge: %+v", hard)
	}
	if first.Result.Iterations >= hard.Iterations {
		t.Fatalf("first streamed case took %d iterations, not fewer than the hard case's %d",
			first.Result.Iterations, hard.Iterations)
	}
	if done.State != JobDone || done.CasesDone != 1+easy {
		t.Fatalf("done view: state=%s cases_done=%d", done.State, done.CasesDone)
	}

	// Acceptance: the job's recorded plan equals the planner's offline
	// decision for the same request.
	if done.Result.Plan == nil {
		t.Fatal("JobResult.Plan missing")
	}
	offline, err := s.PlanRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*done.Result.Plan, offline) {
		t.Fatalf("executed plan %+v != offline plan %+v", *done.Result.Plan, offline)
	}

	st := s.Stats()
	if st.TilesExecuted == 0 {
		t.Fatal("stats: no tiles recorded")
	}
}

// TestWatchChunkedJSONFallback: ?watch=1 streams the same events as JSON
// lines for clients without SSE plumbing, including the full replay when
// the watcher attaches after completion.
func TestWatchChunkedJSONFallback(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := hardEasyBatch(3)
	resp, body := postJSON(t, srv, "/v1/solve", solveHTTPRequest{SolveRequest: req})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	// The job is already finished: the watch stream must replay all four
	// cases and then the terminal view.
	wresp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + v.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	sc := bufio.NewScanner(wresp.Body)
	var cases, dones int
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad watch line %s: %v", line, err)
		}
		if _, ok := probe["done"]; ok {
			dones++
			continue
		}
		cases++
	}
	if cases != 4 || dones != 1 {
		t.Fatalf("watch replay: %d case lines + %d done lines, want 4 + 1", cases, dones)
	}
}

// TestPlanEndpointAndTiling: POST /v1/plan reports the tiling a wide batch
// will run with, and the executed job both matches it and solves every
// case correctly across tile boundaries.
func TestPlanEndpointAndTiling(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// More cases than plan.DefaultMaxTile, so the 20×20 plate's batch runs
	// as two tiles.
	const cases = 40
	tr := make([]float64, cases)
	for i := range tr {
		tr[i] = float64(i+1) / 4
	}
	req := SolveRequest{
		Plate:  &PlateSpec{Rows: 20, Cols: 20, Tractions: tr},
		Solver: SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-8},
	}

	resp, body := postJSON(t, srv, "/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp.StatusCode, body)
	}
	var info PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Tiles) < 2 {
		t.Fatalf("expected a multi-tile plan for s=%d, got tiles %v", cases, info.Tiles)
	}
	covered := 0
	for _, tile := range info.Tiles {
		covered += len(tile)
	}
	if covered != cases {
		t.Fatalf("plan tiles cover %d of %d cases", covered, cases)
	}

	resp, body = postJSON(t, srv, "/v1/solve", solveHTTPRequest{SolveRequest: req})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Result == nil || v.Result.Plan == nil {
		t.Fatal("result missing plan")
	}
	if !reflect.DeepEqual(*v.Result.Plan, info) {
		t.Fatalf("executed plan %+v != /v1/plan %+v", *v.Result.Plan, info)
	}
	if len(v.Result.Cases) != cases {
		t.Fatalf("%d case results, want %d", len(v.Result.Cases), cases)
	}
	// Tractions scale the one plate RHS linearly, so every case's solution
	// is the first case's scaled; converging across tile boundaries must
	// not perturb that.
	base := v.Result.Cases[0]
	if !base.Converged {
		t.Fatal("case 0 did not converge")
	}
	for j, c := range v.Result.Cases {
		if !c.Converged {
			t.Fatalf("case %d did not converge: %+v", j, c)
		}
		scale := tr[j] / tr[0]
		for i := range c.U {
			want := scale * base.U[i]
			if diff := c.U[i] - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("case %d: u[%d] = %g, want %g (scaled case 0)", j, i, c.U[i], want)
			}
		}
	}
	if got := s.Stats().TilesExecuted; got != int64(len(info.Tiles)) {
		t.Fatalf("stats tiles_executed = %d, want %d", got, len(info.Tiles))
	}
}

// TestCancelHTTP: DELETE /v1/jobs/{id} aborts a running job; the job
// finishes as failed with a cancellation error instead of running to
// completion.
func TestCancelHTTP(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A hard job: plain CG, tight tolerance, big plate.
	req := SolveRequest{
		Plate:  &PlateSpec{Rows: 60, Cols: 60},
		Solver: SolverSpec{M: 0, Tol: 1e-14},
	}
	resp, body := postJSON(t, srv, "/v1/solve", solveHTTPRequest{SolveRequest: req, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	dreq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := srv.Client().Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		view, ok := s.Job(v.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if view.State == JobDone {
			t.Fatal("canceled job completed successfully")
		}
		if view.State == JobFailed {
			if !strings.Contains(view.Error, "canceled") {
				t.Fatalf("failed with %q, want a cancellation error", view.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after cancel", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSyncDisconnectCancelsJob: a synchronous /v1/solve whose client
// disconnects mid-solve must not leak the running job — the request
// context propagates into the solve loop and the job fails as canceled.
func TestSyncDisconnectCancelsJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := SolveRequest{
		Plate:  &PlateSpec{Rows: 60, Cols: 60},
		Solver: SolverSpec{M: 0, Tol: 1e-14},
	}
	b, err := json.Marshal(solveHTTPRequest{SolveRequest: req})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, _ := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/solve", bytes.NewReader(b))
	hreq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Client().Do(hreq)
		errc <- err
	}()

	// Wait until the solve is actually running, then drop the client.
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the canceled request to error")
	}

	// The running job must terminate promptly as failed, not run to
	// completion or leak.
	deadline = time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.JobsFailed >= 1 && st.Running == 0 {
			break
		}
		if st.JobsDone >= 1 {
			t.Fatal("disconnected sync job ran to completion")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job leaked: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
