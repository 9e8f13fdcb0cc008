package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/fleet"
	"repro/internal/service"
)

// fleetNode is one in-process solverd participating in a fleet test.
type fleetNode struct {
	name string
	svc  *service.Service
	srv  *httptest.Server
}

// kill simulates the node's process dying: sever every connection, stop
// the listener, abort whatever its engine was running.
func (n *fleetNode) kill() {
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.svc.Abort()
}

// startFleetSolver assembles the third repro.Solver implementation: n
// solverd nodes behind a consistent-hash router, driven through the Go
// SDK pointed at the router.
func startFleetSolver(t testing.TB, n int) (*fleet.Router, []*fleetNode, *client.Client) {
	t.Helper()
	var members []fleet.Member
	var nodes []*fleetNode
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("n%d", i)
		svc := service.New(service.Config{NodeID: name, Workers: 2, WorkerBudget: 1})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(func() { svc.Close() })
		nodes = append(nodes, &fleetNode{name: name, svc: svc, srv: srv})
		members = append(members, fleet.Member{Name: name, URL: srv.URL})
	}
	router, err := fleet.New(fleet.Config{
		Members:       members,
		CheckInterval: -1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	rsrv := httptest.NewServer(router.Handler())
	t.Cleanup(rsrv.Close)
	return router, nodes, client.New(rsrv.URL, client.WithRetry(4, 20*time.Millisecond))
}

// fleetOwnerOf resolves which node a request routes to, via the same
// exported key derivation the router applies to wire bodies.
func fleetOwnerOf(t testing.TB, router *fleet.Router, req repro.Request) string {
	t.Helper()
	wire, err := req.Wire()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return router.Owner(fleet.RoutingKey(body))
}

// TestFleetStreamParity runs the streaming conformance shape through the
// fleet router: every case exactly once, easy columns early, one terminal
// done — the same contract the local and single-node solvers satisfy.
func TestFleetStreamParity(t *testing.T) {
	_, _, cl := startFleetSolver(t, 3)
	defer cl.Close()
	const easy = 4
	req := hardEasyRequest(easy)

	var events []repro.CaseEvent
	var done *repro.JobView
	err := cl.SolveStream(context.Background(), req, func(ev repro.CaseEvent) {
		if ev.Done != nil {
			done = ev.Done
			return
		}
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done == nil || done.State != repro.JobDone {
		t.Fatalf("terminal view %+v", done)
	}
	if len(events) != 1+easy {
		t.Fatalf("streamed %d case events, want %d", len(events), 1+easy)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if seen[ev.Case] {
			t.Fatalf("case %d delivered twice", ev.Case)
		}
		seen[ev.Case] = true
	}
	if events[0].Case == 0 {
		t.Fatal("hard case streamed first — easy columns did not surface early")
	}
}

// TestFleetKillNodeMidBatch is the resilience acceptance test: the node
// streaming a batch dies after the first case arrives, and the batch still
// completes — the SDK reattaches, learns the job is gone (404 through the
// re-sharded router), resubmits, and dedupes the surviving node's replay
// so the caller sees every case exactly once and one done event.
func TestFleetKillNodeMidBatch(t *testing.T) {
	router, nodes, cl := startFleetSolver(t, 3)
	defer cl.Close()

	// One very hard case (near-machine tolerance: thousands of plain-CG
	// iterations) plus easies that stream within milliseconds: the kill
	// lands while the hard column is far from converged.
	const easy = 4
	req := repro.Request{
		Plate:        &repro.PlateSpec{Rows: 60, Cols: 60, Tractions: []float64{1, 1e-9, 1e-9, 1e-9, 1e-9}},
		Solver:       repro.SolverSpec{M: 0, Tol: 1e-12},
		OmitSolution: true,
	}

	owner := fleetOwnerOf(t, router, req)
	var victim *fleetNode
	for _, n := range nodes {
		if n.name == owner {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("owner %q is not a fleet node", owner)
	}

	var events []repro.CaseEvent
	var done *repro.JobView
	killed := false
	err := cl.SolveStream(context.Background(), req, func(ev repro.CaseEvent) {
		if ev.Done != nil {
			done = ev.Done
			return
		}
		events = append(events, ev)
		if !killed {
			killed = true
			victim.kill()
		}
	})
	if err != nil {
		t.Fatalf("batch failed after node death: %v", err)
	}
	if done == nil || done.State != repro.JobDone {
		t.Fatalf("terminal view %+v", done)
	}
	if len(events) != 1+easy {
		t.Fatalf("delivered %d case events, want %d (dedupe across resubmit broken?)", len(events), 1+easy)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if seen[ev.Case] {
			t.Fatalf("case %d delivered twice across the resubmit", ev.Case)
		}
		seen[ev.Case] = true
	}

	// The router noticed the death along the way: the victim is out of the
	// ring and the fleet is still serving.
	h := router.Health()
	if h.Healthy != 2 || h.Status != "ok" {
		t.Fatalf("fleet health after node death: %+v", h)
	}
	for _, nh := range h.Nodes {
		if nh.Name == victim.name && nh.Up {
			t.Fatalf("victim %s still marked up", victim.name)
		}
	}

	// The done view came from a survivor: its job ID is not the victim's.
	if done.ID == "" || owner == "" {
		t.Fatalf("missing ids: done %q owner %q", done.ID, owner)
	}
	if got := done.ID[:len(victim.name)+1]; got == victim.name+"-" {
		t.Fatalf("done view %s still attributed to the dead node", done.ID)
	}
}

// keyedPlateSystem is the rows×cols plate's stiffness matrix as a keyed COO
// system (a full body), with the plate's load scaled per case in fs.
func keyedPlateSystem(t testing.TB, rows, cols int, key string, scales ...float64) *repro.SystemSpec {
	t.Helper()
	plate, _, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := plate.K
	sys := &repro.SystemSpec{N: k.Rows, Key: key}
	for i := 0; i < k.Rows; i++ {
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			sys.I, sys.J, sys.V = append(sys.I, i), append(sys.J, k.ColIdx[p]), append(sys.V, k.Val[p])
		}
	}
	for _, s := range scales {
		f := make([]float64, k.Rows)
		for i, v := range plate.F {
			f[i] = s * v
		}
		sys.Fs = append(sys.Fs, f)
	}
	return sys
}

// nodeNamed returns the fleet node a job ID or owner name designates.
func nodeNamed(t testing.TB, nodes []*fleetNode, id string) *fleetNode {
	t.Helper()
	for _, n := range nodes {
		if id == n.name || strings.HasPrefix(id, n.name+"-") {
			return n
		}
	}
	t.Fatalf("no fleet node for %q", id)
	return nil
}

// TestFleetByReferenceMatchesFullBody: the SDK solves a keyed system through
// the fleet with its triplets, then by reference; the owner node resolves
// the second from its cache and the answers are bitwise equal.
func TestFleetByReferenceMatchesFullBody(t *testing.T) {
	router, nodes, cl := startFleetSolver(t, 3)
	defer cl.Close()
	req := repro.Request{
		System: keyedPlateSystem(t, 12, 12, "plate-12", 1, 0.5),
		Solver: repro.SolverSpec{M: 3, RelResidualTol: 1e-10},
	}
	ctx := context.Background()
	full, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cl.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodeNamed(t, nodes, fleetOwnerOf(t, router, req))
	if st := owner.svc.Stats(); st.ByRefSolves != 1 || st.CacheMisses != 1 {
		t.Fatalf("owner %s: %d by-reference solves, %d cache misses; want 1, 1", owner.name, st.ByRefSolves, st.CacheMisses)
	}
	if len(ref.Cases) != len(full.Cases) || len(full.Cases) != 2 {
		t.Fatalf("cases: by reference %d, full %d", len(ref.Cases), len(full.Cases))
	}
	for c := range full.Cases {
		fc, rc := full.Cases[c], ref.Cases[c]
		if rc.Iterations != fc.Iterations || math.Float64bits(rc.FinalRelRes) != math.Float64bits(fc.FinalRelRes) {
			t.Fatalf("case %d: by reference %d iterations relres %v, full %d %v", c, rc.Iterations, rc.FinalRelRes, fc.Iterations, fc.FinalRelRes)
		}
		for i := range fc.U {
			if math.Float64bits(rc.U[i]) != math.Float64bits(fc.U[i]) {
				t.Fatalf("case %d: u[%d] = %v by reference, %v full", c, i, rc.U[i], fc.U[i])
			}
		}
	}
	if ref.Iterations != full.Iterations || math.Float64bits(ref.FinalRelRes) != math.Float64bits(full.FinalRelRes) {
		t.Fatalf("job: by reference %d iterations relres %v, full %d %v", ref.Iterations, ref.FinalRelRes, full.Iterations, full.FinalRelRes)
	}
}

// TestFleetKillNodeMidBatchByReference is TestFleetKillNodeMidBatch for a
// keyed system the SDK sends by reference: the owner dies mid-batch, the
// resubmitted by-reference job reaches a survivor that has never seen the
// key and answers 409, the SDK resends the matrix, and the caller still
// sees every case exactly once and one done event.
func TestFleetKillNodeMidBatchByReference(t *testing.T) {
	router, nodes, cl := startFleetSolver(t, 3)
	defer cl.Close()
	const easy = 4
	scales := []float64{1}
	for i := 0; i < easy; i++ {
		scales = append(scales, 1e-9)
	}
	solver := repro.SolverSpec{M: 0, Tol: 1e-12}
	req := repro.Request{System: keyedPlateSystem(t, 60, 60, "plate-60", scales...), Solver: solver, OmitSolution: true}
	ctx := context.Background()

	// Warm the key with one easy case: the SDK now sends it by reference.
	warm := req
	warmSys := *req.System
	warmSys.Fs = warmSys.Fs[1:2]
	warm.System = &warmSys
	if _, err := cl.Solve(ctx, warm); err != nil {
		t.Fatal(err)
	}
	victim := nodeNamed(t, nodes, fleetOwnerOf(t, router, req))

	var events []repro.CaseEvent
	var done *repro.JobView
	killed := false
	err := cl.SolveStream(ctx, req, func(ev repro.CaseEvent) {
		if ev.Done != nil {
			done = ev.Done
			return
		}
		events = append(events, ev)
		if !killed {
			killed = true
			victim.kill()
		}
	})
	if err != nil {
		t.Fatalf("batch failed after node death: %v", err)
	}
	if st := victim.svc.Stats(); st.ByRefSolves != 1 {
		t.Fatalf("victim ran %d by-reference solves, want 1", st.ByRefSolves)
	}
	if done == nil || done.State != repro.JobDone {
		t.Fatalf("terminal view %+v", done)
	}
	if len(events) != 1+easy {
		t.Fatalf("delivered %d case events, want %d", len(events), 1+easy)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if seen[ev.Case] {
			t.Fatalf("case %d delivered twice across the resubmit", ev.Case)
		}
		seen[ev.Case] = true
	}
	heir := nodeNamed(t, nodes, done.ID)
	if heir == victim {
		t.Fatalf("done view %s still attributed to the dead node", done.ID)
	}
	if st := heir.svc.Stats(); st.ByRefMisses != 1 || st.CacheMisses != 1 || st.ByRefSolves != 0 {
		t.Fatalf("new owner %s: %d by-reference misses, %d cache misses, %d by-reference solves; want 1, 1, 0",
			heir.name, st.ByRefMisses, st.CacheMisses, st.ByRefSolves)
	}
}
