package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// spansByName indexes a trace's spans for assertion convenience; a name can
// appear more than once (tiles).
func spansByName(ti TraceInfo) map[string][]int {
	m := map[string][]int{}
	for i, sp := range ti.Spans {
		m[sp.Name] = append(m[sp.Name], i)
	}
	return m
}

// checkIntervalSource asserts that a built job's trace opens
// spectral_estimate exactly when the interval came from an estimate, and
// that precond_build names the source and the interval the job reports.
func checkIntervalSource(t *testing.T, ti TraceInfo, want string, res *JobResult) {
	t.Helper()
	byName := spansByName(ti)
	if estimated := len(byName["spectral_estimate"]) > 0; estimated != (want == "estimate") {
		t.Errorf("%s job: spectral_estimate span present = %v (have %v)", want, estimated, stageNames(ti))
	}
	if len(byName["precond_build"]) != 1 {
		t.Fatalf("%s job: no precond_build span (have %v)", want, stageNames(ti))
	}
	attrs := ti.Spans[byName["precond_build"][0]].Attrs
	if attrs["interval_source"] != want || attrs["interval_lo"] != res.IntervalLo || attrs["interval_hi"] != res.IntervalHi {
		t.Errorf("precond_build attrs %v, want interval_source %q on the job's [%g, %g]", attrs, want, res.IntervalLo, res.IntervalHi)
	}
}

// TestTraceTiledJobTimeline is the observability acceptance test: a solved
// batch job exposes its complete stage timeline — queue wait, assembly,
// preconditioner build phases, planning, per-tile solves, emit — with span
// durations that sum to within the measured job latency, plus a sampled
// convergence curve covering the batch's cases. Its least-squares
// coefficients fit on the SSOR bound, so no spectral_estimate span opens
// and precond_build names the source; a Chebyshev job of the same plate
// estimates, and traces the estimate.
func TestTraceTiledJobTimeline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// More cases than plan.DefaultMaxTile, so the 20×20 plate's batch runs
	// as two tiles.
	const cases = 40
	tr := make([]float64, cases)
	for i := range tr {
		tr[i] = float64(i+1) / 4
	}
	req := Request{
		Plate:  &PlateSpec{Rows: 20, Cols: 20, Tractions: tr},
		Solver: SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-8},
	}

	before := time.Now()
	v, err := s.Solve(context.Background(), req)
	elapsed := time.Since(before).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobDone || v.Result == nil || v.Result.Plan == nil {
		t.Fatalf("job did not complete: %+v", v)
	}

	ti, ok := s.Trace(v.ID)
	if !ok {
		t.Fatalf("no trace for finished job %s", v.ID)
	}
	if ti.JobID != v.ID || ti.State != JobDone {
		t.Fatalf("trace header = %s/%s, want %s/done", ti.JobID, ti.State, v.ID)
	}

	// Every pipeline stage appears, in pipeline order.
	byName := spansByName(ti)
	for _, name := range []string{"queue", "assemble", "splitting_build", "precond_build", "plan", "emit"} {
		if len(byName[name]) == 0 {
			t.Errorf("trace missing stage %q (have %v)", name, stageNames(ti))
		}
	}
	checkIntervalSource(t, ti, "ssor-bound", v.Result)
	if got := len(byName["tile"]); got != len(v.Result.Plan.Tiles) {
		t.Errorf("trace has %d tile spans, plan has %d tiles", got, len(v.Result.Plan.Tiles))
	}
	if v.Result.Backend == "dia" && len(byName["dia_convert"]) == 0 {
		t.Error("DIA job traced no dia_convert span")
	}
	if ti.Spans[0].Name != "queue" {
		t.Errorf("first span = %q, want queue", ti.Spans[0].Name)
	}

	// Timeline invariants: start-ordered, closed, and worker-attributed.
	for i, sp := range ti.Spans {
		if sp.StartSeconds < 0 || sp.DurationSeconds < 0 {
			t.Errorf("span %q has negative timing: %+v", sp.Name, sp)
		}
		if i > 0 && sp.StartSeconds < ti.Spans[i-1].StartSeconds {
			t.Errorf("span %q starts before its predecessor", sp.Name)
		}
		if sp.Name != "queue" && sp.Worker < 0 {
			t.Errorf("span %q not attributed to a worker: %+v", sp.Name, sp)
		}
	}
	for _, i := range byName["tile"] {
		sp := ti.Spans[i]
		if sp.Iterations <= 0 {
			t.Errorf("tile span without iterations: %+v", sp)
		}
		if _, ok := sp.Attrs["tile"]; !ok {
			t.Errorf("tile span without tile attr: %+v", sp)
		}
	}

	// Spans are non-overlapping leaves, so their durations sum to at most
	// the job's total latency, which in turn sits inside the measured
	// wall-clock interval around Solve.
	var sum float64
	for _, sp := range ti.Spans {
		sum += sp.DurationSeconds
	}
	if sum > ti.TotalSeconds*(1+1e-9) {
		t.Errorf("span durations sum to %gs > job total %gs", sum, ti.TotalSeconds)
	}
	// The last span stays open until transition finishes the trace, so
	// publishing the result leaves no gap: it ends where the job does.
	last := ti.Spans[len(ti.Spans)-1]
	if end := last.StartSeconds + last.DurationSeconds; math.Abs(end-ti.TotalSeconds) > 1e-9 {
		t.Errorf("last span %q ends at %gs, job total %gs", last.Name, end, ti.TotalSeconds)
	}
	if ti.TotalSeconds > elapsed {
		t.Errorf("job total %gs exceeds measured wall time %gs", ti.TotalSeconds, elapsed)
	}

	// The plan span carries the planner's decision as attributes.
	planSp := ti.Spans[byName["plan"][0]]
	if planSp.Attrs["backend"] != v.Result.Backend {
		t.Errorf("plan span backend = %v, result backend = %s", planSp.Attrs["backend"], v.Result.Backend)
	}
	if _, ok := planSp.Attrs["probe"]; !ok {
		t.Error("plan span missing probe attributes")
	}

	// Convergence telemetry: samples present, case-indexed into the batch.
	if len(ti.Convergence) == 0 || ti.ConvergenceStride < 1 {
		t.Fatalf("no convergence samples (stride %d)", ti.ConvergenceStride)
	}
	for _, smp := range ti.Convergence {
		if smp.Case < 0 || smp.Case >= cases || smp.Iter < 1 {
			t.Fatalf("out-of-range convergence sample %+v", smp)
		}
	}

	// A finished trace replays: a later snapshot is identical.
	again, _ := s.Trace(v.ID)
	if again.TotalSeconds != ti.TotalSeconds || len(again.Spans) != len(ti.Spans) {
		t.Error("finished trace drifted between snapshots")
	}

	// Chebyshev coefficients depend on λmin, so they estimate the interval.
	cheb := req
	cheb.Solver.Coeffs = "chebyshev"
	cv, err := s.Solve(context.Background(), cheb)
	if err != nil {
		t.Fatal(err)
	}
	cti, _ := s.Trace(cv.ID)
	checkIntervalSource(t, cti, "estimate", cv.Result)
}

func stageNames(ti TraceInfo) []string {
	names := make([]string, len(ti.Spans))
	for i, sp := range ti.Spans {
		names[i] = sp.Name
	}
	return names
}

// TestTraceCachedJob: a warm cache hit's trace records the checkout as a
// cache_wait span (hit=true) with no build stages, while the cold miss that
// populated the entry traced the build stages itself.
func TestTraceCachedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	cold, err := s.Solve(context.Background(), plateReq(12, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(context.Background(), plateReq(12, 12, 3))
	if err != nil {
		t.Fatal(err)
	}

	cti, _ := s.Trace(cold.ID)
	cb := spansByName(cti)
	if len(cb["cache_wait"]) != 1 || len(cb["assemble"]) != 1 {
		t.Fatalf("cold trace stages: %v", stageNames(cti))
	}
	wait := cti.Spans[cb["cache_wait"][0]]
	if wait.Attrs["hit"] != false || wait.Attrs["built"] != true {
		t.Fatalf("cold cache_wait attrs: %v", wait.Attrs)
	}

	wti, ok := s.Trace(warm.ID)
	if !ok {
		t.Fatalf("no trace for %s", warm.ID)
	}
	wb := spansByName(wti)
	if len(wb["cache_wait"]) != 1 {
		t.Fatalf("warm trace has no cache_wait span: %v", stageNames(wti))
	}
	if wti.Spans[wb["cache_wait"][0]].Attrs["hit"] != true {
		t.Fatalf("warm cache_wait attrs: %v", wti.Spans[wb["cache_wait"][0]].Attrs)
	}
	for _, stage := range []string{"assemble", "splitting_build", "spectral_estimate", "precond_build"} {
		if len(wb[stage]) != 0 {
			t.Errorf("cache hit re-traced build stage %q", stage)
		}
	}
}

// TestTraceCancelledJob: a cancelled job's trace stays retrievable and ends
// with a terminal cancelled span marking where the solve was cut off.
func TestTraceCancelledJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	job, err := s.Submit(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	// Let it start, then cancel mid-solve.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v, _ := s.Job(job.ID()); v.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !s.Cancel(job.ID()) {
		t.Fatal("cancel refused")
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not finish")
	}

	ti, ok := s.Trace(job.ID())
	if !ok {
		t.Fatal("cancelled job has no trace")
	}
	if ti.State != JobFailed {
		t.Fatalf("state = %s, want failed", ti.State)
	}
	last := ti.Spans[len(ti.Spans)-1]
	if last.Name != "cancelled" {
		t.Fatalf("terminal span = %q, want cancelled (stages %v)", last.Name, stageNames(ti))
	}
	if last.Attrs["reason"] == nil || last.Attrs["reason"] == "" {
		t.Fatalf("cancelled span missing reason: %v", last.Attrs)
	}
}

// TestStatsPerBackendLatency: forcing the two matvec backends records each
// job's latency once, in its backend's repro_job_duration_seconds series,
// and the overall quantiles cover both.
func TestStatsPerBackendLatency(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	for _, backend := range []string{"csr", "dia"} {
		req := plateReq(10, 10, 2)
		req.Solver.Backend = backend
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if v.Result.Backend != backend {
			t.Fatalf("forced backend %q resolved to %q", backend, v.Result.Backend)
		}
	}

	for backend, want := range map[string]int64{"csr": 1, "dia": 1, "decomposed": 0} {
		if got := s.hJobDuration[backend].Count(); got != want {
			t.Errorf("repro_job_duration_seconds{backend=%q} counts %d jobs, want %d", backend, got, want)
		}
	}
	st := s.Stats()
	if st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50 {
		t.Fatalf("overall quantiles p50=%g p99=%g", st.LatencyP50, st.LatencyP99)
	}
}

// TestEngineMetricsExposition: after a hit/miss pair and solves on both
// backends, the rendered exposition carries the cache counters, per-backend
// solve counters, and the iteration/duration histograms the ISSUE names.
func TestEngineMetricsExposition(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	csrReq := plateReq(10, 10, 2)
	csrReq.Solver.Backend = "csr"
	if _, err := s.Solve(context.Background(), csrReq); err != nil {
		t.Fatal(err)
	}
	// Identical request again → a cache hit.
	if _, err := s.Solve(context.Background(), csrReq); err != nil {
		t.Fatal(err)
	}
	diaReq := plateReq(14, 10, 2)
	diaReq.Solver.Backend = "dia"
	if _, err := s.Solve(context.Background(), diaReq); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE repro_jobs_total counter",
		`repro_jobs_total{state="done"} 3`,
		"repro_cache_hits_total 1",
		"repro_cache_misses_total 2",
		`repro_solves_total{backend="csr"} 2`,
		`repro_solves_total{backend="dia"} 1`,
		"# TYPE repro_case_iterations histogram",
		"repro_case_iterations_count 3",
		`repro_job_duration_seconds_bucket{backend="csr",le="+Inf"} 2`,
		`repro_job_duration_seconds_bucket{backend="dia",le="+Inf"} 1`,
		"repro_queue_wait_seconds_count 3",
		"repro_workers 1",
		"repro_jobs_running 0",
		"repro_stream_subscribers 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
