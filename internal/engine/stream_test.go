package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestAbortUnblocksClose: Abort cancels the backlog so a daemon's
// post-deadline shutdown doesn't sit solving every queued job.
func TestAbortUnblocksClose(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	hard := Request{
		Plate:        &PlateSpec{Rows: 60, Cols: 60},
		Solver:       SolverSpec{M: 0, Tol: 1e-14},
		OmitSolution: true,
	}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		job, err := s.Submit(hard)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	s.Abort()
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Close did not return after Abort")
	}
	st := s.Stats()
	if st.JobsFailed == 0 {
		t.Fatalf("no jobs failed after Abort: %+v", st)
	}
	for i, job := range jobs {
		v := s.ViewOf(job)
		if v.State != JobFailed && v.State != JobDone {
			t.Fatalf("job %d still %s after Close", i, v.State)
		}
	}
}

// TestPlanRequestLeavesCacheUntouched: planning an uncached keyed request
// must not create a cache entry or perturb hit/miss counters.
func TestPlanRequestLeavesCacheUntouched(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := plateReq(12, 12, 2)
	if _, err := s.PlanRequest(req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("planning touched the cache: %+v", st)
	}
	// After a real solve, planning again must reuse the entry's probe and
	// still agree with the executed plan.
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.PlanRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*v.Result.Plan, info) {
		t.Fatalf("warm plan %+v != executed %+v", info, *v.Result.Plan)
	}
}

// TestScalarSolveStreamsItsCase: even a single-RHS job emits one case
// event, so streaming clients need no special path for s=1.
func TestScalarSolveStreamsItsCase(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	job, err := s.Submit(plateReq(10, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	replay, ch, stop := s.Watch(job)
	defer stop()
	if len(replay) != 1 || replay[0].Case != 0 || !replay[0].Result.Converged {
		t.Fatalf("replay = %+v, want one converged case 0", replay)
	}
	if _, open := <-ch; open {
		t.Fatal("finished job's subscription channel not closed")
	}
}

// TestWatchTracksSubscriberGauge: the StreamSubscribers gauge counts open
// watches and a stop function is idempotent.
func TestWatchTracksSubscriberGauge(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	job, err := s.Submit(plateReq(8, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	_, _, stop1 := s.Watch(job)
	_, _, stop2 := s.Watch(job)
	if got := s.Stats().StreamSubscribers; got != 2 {
		t.Fatalf("gauge = %d with two watches, want 2", got)
	}
	stop1()
	stop1() // idempotent
	stop2()
	if got := s.Stats().StreamSubscribers; got != 0 {
		t.Fatalf("gauge = %d after stops, want 0", got)
	}
}

func ExampleEngine_PlanRequest() {
	s := New(Config{Workers: 1, WorkerBudget: 1})
	defer s.Close()
	tr := make([]float64, 40)
	for i := range tr {
		tr[i] = 1
	}
	info, err := s.PlanRequest(Request{
		Plate:  &PlateSpec{Rows: 20, Cols: 20, Tractions: tr},
		Solver: SolverSpec{M: 3},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(info.Backend, len(info.Tiles), info.Workers, info.M)
	// Output: csr 2 1 3
}
