package obs

import (
	"sync"
	"testing"
	"time"
)

// TestTraceTimeline: spans snapshot in start order with non-negative
// offsets and durations, worker ids and attributes intact, and the whole
// view is stable after Finish (a finished trace replays forever).
func TestTraceTimeline(t *testing.T) {
	tr := NewTrace("j-000001")
	if tr.ID() != "j-000001" {
		t.Fatalf("id = %q", tr.ID())
	}

	q := tr.Start("queue")
	q.End()
	s1 := tr.Start("assemble").SetWorker(2)
	s1.End()
	s2 := tr.Start("tile").SetWorker(2).SetIterations(37).SetAttr("tile", 0)
	s2.End()
	tr.Finish()

	v1 := tr.View()
	if len(v1.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(v1.Spans))
	}
	names := []string{"queue", "assemble", "tile"}
	for i, sp := range v1.Spans {
		if sp.Name != names[i] {
			t.Errorf("span[%d] = %q, want %q", i, sp.Name, names[i])
		}
		if sp.StartSeconds < 0 || sp.DurationSeconds < 0 {
			t.Errorf("span %q has negative timing: %+v", sp.Name, sp)
		}
		if i > 0 && sp.StartSeconds < v1.Spans[i-1].StartSeconds {
			t.Errorf("span %q starts before its predecessor", sp.Name)
		}
	}
	if v1.Spans[0].Worker != -1 {
		t.Errorf("queue span worker = %d, want -1 (outside the pool)", v1.Spans[0].Worker)
	}
	if v1.Spans[2].Worker != 2 || v1.Spans[2].Iterations != 37 {
		t.Errorf("tile span lost worker/iterations: %+v", v1.Spans[2])
	}
	if v1.Spans[2].Attrs["tile"] != 0 {
		t.Errorf("tile span attrs = %v", v1.Spans[2].Attrs)
	}

	// Replay: a finished trace's view does not drift with the clock.
	time.Sleep(5 * time.Millisecond)
	v2 := tr.View()
	if v1.TotalSeconds != v2.TotalSeconds {
		t.Errorf("finished trace total drifted: %g != %g", v1.TotalSeconds, v2.TotalSeconds)
	}
	if v1.Spans[2].DurationSeconds != v2.Spans[2].DurationSeconds {
		t.Error("finished span duration drifted between views")
	}
}

// TestTraceOpenSpanProvisional: snapshotting a running trace reports open
// spans with "now" as the provisional end, and the durations grow between
// snapshots.
func TestTraceOpenSpanProvisional(t *testing.T) {
	tr := NewTrace("j")
	tr.Start("solve")
	v1 := tr.View()
	time.Sleep(2 * time.Millisecond)
	v2 := tr.View()
	if v2.Spans[0].DurationSeconds <= v1.Spans[0].DurationSeconds {
		t.Errorf("open span did not grow: %g then %g",
			v1.Spans[0].DurationSeconds, v2.Spans[0].DurationSeconds)
	}
	if v2.TotalSeconds <= v1.TotalSeconds {
		t.Error("running trace total did not grow")
	}
}

// TestTraceConcurrent: concurrent span recording and snapshotting is the
// trace endpoint's steady state (workers write, HTTP readers view). Run
// with -race.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("j")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("stage").SetWorker(g).SetIterations(i)
				sp.SetAttr("i", i)
				sp.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tr.View()
		}
	}()
	wg.Wait()
	tr.Finish()
	if got := len(tr.View().Spans); got != 800 {
		t.Fatalf("spans = %d, want 800", got)
	}
}

// TestFinishClosesOpenSpans: a span still open when the trace finishes ends
// where the trace does, and its duration stops drifting; a closed span
// keeps its own end.
func TestFinishClosesOpenSpans(t *testing.T) {
	tr := NewTrace("j")
	tr.Start("closed").End()
	tr.Start("open")
	time.Sleep(time.Millisecond)
	tr.Finish()
	v := tr.View()
	open := v.Spans[1]
	if end := open.StartSeconds + open.DurationSeconds; end < v.TotalSeconds-1e-9 || end > v.TotalSeconds+1e-9 {
		t.Fatalf("open span ends at %gs, trace total %gs", end, v.TotalSeconds)
	}
	if closed := v.Spans[0]; closed.StartSeconds+closed.DurationSeconds >= open.StartSeconds+open.DurationSeconds {
		t.Fatalf("Finish moved the closed span's end: %+v", closed)
	}
	time.Sleep(2 * time.Millisecond)
	if d := tr.View().Spans[1].DurationSeconds; d != open.DurationSeconds {
		t.Fatalf("finished span drifted: %g != %g", d, open.DurationSeconds)
	}
}

// TestSpanEndIdempotent: End twice keeps the first timestamp.
func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace("j")
	sp := tr.Start("s")
	sp.End()
	d1 := tr.View().Spans[0].DurationSeconds
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := tr.View().Spans[0].DurationSeconds; d2 != d1 {
		t.Fatalf("second End moved the duration: %g != %g", d2, d1)
	}
}
