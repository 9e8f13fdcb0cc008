package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/service"
)

// keyedSystem is a small keyed SPD system (tridiagonal, diagonally
// dominant) as a full body.
func keyedSystem(key string) repro.Request {
	const n = 16
	sys := &repro.SystemSpec{N: n, Key: key, F: make([]float64, n)}
	for k := 0; k < n; k++ {
		sys.I, sys.J, sys.V = append(sys.I, k), append(sys.J, k), append(sys.V, 4)
		if k > 0 {
			sys.I, sys.J, sys.V = append(sys.I, k, k-1), append(sys.J, k-1, k), append(sys.V, -1, -1)
		}
		sys.F[k] = float64(k%3) - 1
	}
	return repro.Request{System: sys, Solver: repro.SolverSpec{M: 1, RelResidualTol: 1e-10}}
}

// recorder is an http.RoundTripper that keeps every request body.
type recorder struct {
	mu     sync.Mutex
	next   http.RoundTripper
	bodies []string
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		r.mu.Lock()
		r.bodies = append(r.bodies, string(b))
		r.mu.Unlock()
		req.Body = io.NopCloser(strings.NewReader(string(b)))
	}
	return r.next.RoundTrip(req)
}

// hasTriplets reports whether a recorded body's system carries "i".
func hasTriplets(t *testing.T, body string) bool {
	t.Helper()
	var m struct {
		System map[string]json.RawMessage `json:"system"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("recorded body %q: %v", body, err)
	}
	_, ok := m.System["i"]
	return ok
}

// TestSecondSolveSendsByReference: against a real node, the first solve of
// a keyed system carries its triplets and the second does not, with the
// same answer bit for bit.
func TestSecondSolveSendsByReference(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	rec := &recorder{next: http.DefaultTransport}
	cl := New(srv.URL, WithHTTPClient(&http.Client{Transport: rec}))
	ctx := context.Background()
	req := keyedSystem("tri16")

	first, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.bodies) != 2 || !hasTriplets(t, rec.bodies[0]) || hasTriplets(t, rec.bodies[1]) {
		t.Fatalf("bodies %d; want the first full and the second without \"i\"", len(rec.bodies))
	}
	if second.Iterations != first.Iterations || second.FinalRelRes != first.FinalRelRes {
		t.Fatalf("by-reference result %d iterations relres %v, full %d %v", second.Iterations, second.FinalRelRes, first.Iterations, first.FinalRelRes)
	}
	for i := range first.U {
		if math.Float64bits(second.U[i]) != math.Float64bits(first.U[i]) {
			t.Fatalf("u[%d] differs: %v vs %v", i, second.U[i], first.U[i])
		}
	}
	if st, _ := cl.Stats(); st.ByRefSolves != 1 {
		t.Fatalf("node counted %d by-reference solves, want 1", st.ByRefSolves)
	}
	if _, err := cl.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	if hasTriplets(t, rec.bodies[len(rec.bodies)-1]) {
		t.Fatal("plan of a remembered key sent its triplets")
	}
}

// conflictServer answers full-body solves with a done job and by-reference
// ones with 409 while conflict is set, counting both.
type conflictServer struct {
	mu             sync.Mutex
	conflict       bool
	full, byRef    int
	fullAfterByRef int // full bodies that directly followed a by-reference one
	lastByRef      bool
}

func (s *conflictServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(r.Body)
	var body struct {
		System map[string]json.RawMessage `json:"system"`
	}
	json.Unmarshal(b, &body) //nolint:errcheck // the SDK's own marshaling
	_, full := body.System["i"]
	s.mu.Lock()
	defer s.mu.Unlock()
	if full {
		s.full++
		if s.lastByRef {
			s.fullAfterByRef++
		}
	} else {
		s.byRef++
	}
	s.lastByRef = !full
	w.Header().Set("Content-Type", "application/json")
	if !full && s.conflict {
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, `{"error":"engine: by-reference system not cached: no entry for sys/x"}`)
		return
	}
	json.NewEncoder(w).Encode(repro.JobView{ID: "j-000001", State: repro.JobDone, Result: &repro.JobResult{Converged: true}})
}

func (s *conflictServer) setConflict(on bool) {
	s.mu.Lock()
	s.conflict = on
	s.mu.Unlock()
}

// counts returns the full bodies, by-reference bodies and full resends seen.
func (s *conflictServer) counts() (full, byRef, resends int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.full, s.byRef, s.fullAfterByRef
}

// TestConflictResendsFullBodyOnce: a 409 to a by-reference solve leads to
// exactly one full resend, after which the key is remembered again; a
// caller who sent the by-reference body itself gets the 409 back.
func TestConflictResendsFullBodyOnce(t *testing.T) {
	fake := &conflictServer{}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	cl := New(srv.URL, WithRetry(3, 1))
	ctx := context.Background()
	req := keyedSystem("x")

	if _, err := cl.Solve(ctx, req); err != nil { // full: remembered
		t.Fatal(err)
	}
	fake.setConflict(true)
	if _, err := cl.Solve(ctx, req); err != nil { // by reference → 409 → full
		t.Fatalf("solve after a 409: %v", err)
	}
	if full, byRef, resends := fake.counts(); full != 2 || byRef != 1 || resends != 1 {
		t.Fatalf("server saw %d full, %d by-reference bodies (%d resends); want 2, 1, 1", full, byRef, resends)
	}
	fake.setConflict(false)
	if _, err := cl.Solve(ctx, req); err != nil { // remembered again
		t.Fatal(err)
	}
	if full, byRef, _ := fake.counts(); full != 2 || byRef != 2 {
		t.Fatalf("after the resend the key was not remembered: %d full, %d by-reference", full, byRef)
	}

	fake.setConflict(true)
	own := req
	sys := *req.System
	sys.Key, sys.I, sys.J, sys.V = "own", nil, nil, nil
	own.System = &sys
	_, err := cl.Solve(ctx, own)
	if StatusCode(err) != http.StatusConflict {
		t.Fatalf("caller's own by-reference body: err %v (status %d), want the 409", err, StatusCode(err))
	}
	if full, _, _ := fake.counts(); full != 2 {
		t.Fatal("the client resent a body it had no triplets for")
	}
}

func TestRefKeysBounded(t *testing.T) {
	k := newRefKeys()
	k.add("hot")
	for i := 0; i < maxRefKeys+10; i++ {
		k.add(fmt.Sprint("key-", i))
		k.has("hot") // recently used keys survive
	}
	if n := k.order.Len(); n != maxRefKeys || len(k.index) != maxRefKeys {
		t.Fatalf("key set holds %d (index %d), bound %d", n, len(k.index), maxRefKeys)
	}
	if !k.has("hot") || k.has("key-0") || !k.has(fmt.Sprint("key-", maxRefKeys+9)) {
		t.Fatal("eviction is not least recently used first")
	}
}
