package obs

import "sync"

// Sample is one per-iteration convergence observation: right-hand side
// Case was at iteration Iter with the paper's stopping quantity UDiff
// (‖u^{k+1}−u^k‖_∞) and relative residual RelRes (‖r‖₂/‖f‖₂).
type Sample struct {
	Case   int     `json:"case"`
	Iter   int     `json:"iter"`
	UDiff  float64 `json:"udiff"`
	RelRes float64 `json:"relres"`
}

// ConvergenceLog records per-iteration convergence samples in bounded
// memory: the sample buffer grows as samples arrive, up to
// ConvergenceSamples, and when it is full the log decimates in place —
// keeping only samples whose iteration is a multiple of a doubled stride —
// so a run of any length fits the bound while preserving the overall
// curve shape (early iterations thin out first; the per-case terminal
// values live in the job result regardless).
//
// It implements the solver's per-iteration observer contract
// (cg.Options.Observer): ObserveIteration is called from the solve hot
// loop. It allocates only while the buffer grows to its bound; after that
// it is one uncontended mutex and an in-capacity append.
type ConvergenceLog struct {
	mu      sync.Mutex
	samples []Sample
	stride  int
}

// ConvergenceSamples bounds the samples one log holds.
const ConvergenceSamples = 1024

// NewConvergenceLog returns an empty log. It allocates no sample buffer
// until the first sample arrives.
func NewConvergenceLog() *ConvergenceLog {
	return &ConvergenceLog{stride: 1}
}

// ObserveIteration records one sample (dropping iterations off the current
// stride). Safe for concurrent use with Samples; allocation-free once the
// buffer has reached ConvergenceSamples.
func (l *ConvergenceLog) ObserveIteration(col, iter int, udiff, relres float64) {
	l.mu.Lock()
	if iter%l.stride != 0 {
		l.mu.Unlock()
		return
	}
	for len(l.samples) == ConvergenceSamples {
		l.decimate()
	}
	if iter%l.stride != 0 {
		l.mu.Unlock()
		return
	}
	if len(l.samples) == cap(l.samples) {
		// Double the buffer, never past the bound.
		grown := make([]Sample, len(l.samples), min(max(2*cap(l.samples), 16), ConvergenceSamples))
		copy(grown, l.samples)
		l.samples = grown
	}
	l.samples = append(l.samples, Sample{Case: col, Iter: iter, UDiff: udiff, RelRes: relres})
	l.mu.Unlock()
}

// decimate doubles the stride and compacts the buffer in place, keeping
// only samples on the new stride; if that drops nothing (a caller feeding
// non-consecutive iterations), it falls back to keeping every other sample
// by position so the buffer always shrinks. Caller holds the mutex.
func (l *ConvergenceLog) decimate() {
	l.stride *= 2
	kept := l.samples[:0]
	for _, s := range l.samples {
		if s.Iter%l.stride == 0 {
			kept = append(kept, s)
		}
	}
	if len(kept) == len(l.samples) {
		kept = l.samples[:0]
		for i := 0; i < len(l.samples); i += 2 {
			kept = append(kept, l.samples[i])
		}
	}
	l.samples = kept
}

// Stride reports the current sampling stride (1 until the first
// decimation).
func (l *ConvergenceLog) Stride() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stride
}

// Samples returns a copy of the recorded curve, in observation order
// (per-case samples interleave as the block solve advances columns in
// lockstep).
func (l *ConvergenceLog) Samples() []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Sample, len(l.samples))
	copy(out, l.samples)
	return out
}
