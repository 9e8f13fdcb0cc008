package obs

import (
	"testing"
)

// TestConvergenceLogRecordsAll: under capacity, every sample is kept at
// stride 1 in observation order.
func TestConvergenceLogRecordsAll(t *testing.T) {
	l := NewConvergenceLog()
	for i := 1; i <= 10; i++ {
		l.ObserveIteration(0, i, 1.0/float64(i), 0.5/float64(i))
	}
	s := l.Samples()
	if len(s) != 10 {
		t.Fatalf("samples = %d, want 10", len(s))
	}
	if l.Stride() != 1 {
		t.Fatalf("stride = %d, want 1", l.Stride())
	}
	for i, smp := range s {
		if smp.Iter != i+1 || smp.Case != 0 {
			t.Fatalf("sample[%d] = %+v", i, smp)
		}
	}
}

// TestConvergenceLogDecimates: a run longer than the bound doubles the
// stride and stays within ConvergenceSamples while keeping the curve's
// span — first iterations thin out, the tail keeps arriving.
func TestConvergenceLogDecimates(t *testing.T) {
	l := NewConvergenceLog()
	const iters = 5000
	for i := 1; i <= iters; i++ {
		l.ObserveIteration(0, i, 0, 0)
	}
	s := l.Samples()
	if len(s) > ConvergenceSamples || cap(l.samples) != ConvergenceSamples {
		t.Fatalf("log holds %d samples in a buffer of %d, bound %d", len(s), cap(l.samples), ConvergenceSamples)
	}
	stride := l.Stride()
	if stride < 2 {
		t.Fatalf("stride = %d, expected decimation", stride)
	}
	for _, smp := range s {
		if smp.Iter%stride != 0 {
			t.Fatalf("sample iter %d off stride %d", smp.Iter, stride)
		}
	}
	// The tail of the run survived decimation.
	last := s[len(s)-1]
	if last.Iter < iters-stride {
		t.Fatalf("last kept iter %d too far from %d (stride %d)", last.Iter, iters, stride)
	}
}

// TestConvergenceLogGrowsOnDemand: a new log holds no sample buffer, so a
// job that never iterates costs none; the buffer grows with the samples
// and the log first decimates when sample 1025 arrives, as a log
// allocated whole at 1024 did.
func TestConvergenceLogGrowsOnDemand(t *testing.T) {
	l := NewConvergenceLog()
	if l.samples != nil {
		t.Fatalf("new log holds a buffer of %d samples", cap(l.samples))
	}
	l.ObserveIteration(0, 1, 0, 0)
	if c := cap(l.samples); c == 0 || c >= ConvergenceSamples {
		t.Fatalf("buffer after one sample holds %d, want a small one", c)
	}
	for i := 2; i <= ConvergenceSamples; i++ {
		l.ObserveIteration(0, i, 0, 0)
	}
	if n, c := len(l.Samples()), cap(l.samples); n != ConvergenceSamples || c != ConvergenceSamples || l.Stride() != 1 {
		t.Fatalf("after %d samples: %d kept in a buffer of %d, stride %d", ConvergenceSamples, n, c, l.Stride())
	}
	l.ObserveIteration(0, ConvergenceSamples+1, 0, 0)
	s := l.Samples()
	if l.Stride() != 2 || len(s) != ConvergenceSamples/2 || s[0].Iter != 2 || s[len(s)-1].Iter != ConvergenceSamples {
		t.Fatalf("after sample %d: stride %d, %d kept (iterations %d…%d), want stride 2 and the %d even ones",
			ConvergenceSamples+1, l.Stride(), len(s), s[0].Iter, s[len(s)-1].Iter, ConvergenceSamples/2)
	}
}

// TestConvergenceLogConcurrentGrowth: a trace reader snapshots a job's
// log while the solve goroutine grows and decimates it (run under -race).
func TestConvergenceLogConcurrentGrowth(t *testing.T) {
	l := NewConvergenceLog()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 4*ConvergenceSamples; i++ {
			l.ObserveIteration(0, i, 0, 0)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := l.Samples()
		if len(s) > ConvergenceSamples {
			t.Fatalf("snapshot of %d samples, bound %d", len(s), ConvergenceSamples)
		}
		for i := 1; i < len(s); i++ {
			if s[i].Iter <= s[i-1].Iter {
				t.Fatalf("snapshot out of order at %d: iterations %d, %d", i, s[i-1].Iter, s[i].Iter)
			}
		}
	}
	if last := l.Samples(); last[len(last)-1].Iter != 4*ConvergenceSamples {
		t.Fatalf("last sample at iteration %d, want %d", last[len(last)-1].Iter, 4*ConvergenceSamples)
	}
}

// TestConvergenceLogMultiCase: block solves interleave cases; each case's
// samples keep their own iteration sequence.
func TestConvergenceLogMultiCase(t *testing.T) {
	l := NewConvergenceLog()
	for iter := 1; iter <= 20; iter++ {
		for c := 0; c < 4; c++ {
			l.ObserveIteration(c, iter, 0, 0)
		}
	}
	perCase := map[int][]int{}
	for _, smp := range l.Samples() {
		perCase[smp.Case] = append(perCase[smp.Case], smp.Iter)
	}
	if len(perCase) != 4 {
		t.Fatalf("cases = %d, want 4", len(perCase))
	}
	for c, iters := range perCase {
		if len(iters) != 20 {
			t.Fatalf("case %d samples = %d, want 20", c, len(iters))
		}
		for i, it := range iters {
			if it != i+1 {
				t.Fatalf("case %d iteration order broken: %v", c, iters)
			}
		}
	}
}

// TestObserveIterationZeroAlloc is the telemetry-tap contract: the solve
// hot loop calls ObserveIteration every iteration, so once the log has
// grown to its bound it must never allocate — including when the buffer is
// full and decimation compacts in place.
func TestObserveIterationZeroAlloc(t *testing.T) {
	l := NewConvergenceLog()
	iter := 0
	for ; iter < ConvergenceSamples; iter++ {
		l.ObserveIteration(0, iter+1, 1e-3, 1e-4)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		iter++
		l.ObserveIteration(0, iter, 1e-3, 1e-4)
	})
	if allocs != 0 {
		t.Fatalf("ObserveIteration allocates %g per call, want 0", allocs)
	}
}
