package vec

import (
	"runtime"
	"sync"
)

// MinParallelLen is the vector length below which the parallel kernels fall
// back to the serial ones; goroutine fan-out is pure overhead for short
// vectors, the same observation the paper makes about CYBER vector startup.
// The planner records a fan-out of 1 below it.
const MinParallelLen = 4096

// Workers returns the worker count used by the parallel kernels when the
// caller passes workers <= 0.
func Workers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunks partitions [0, n) into at most w nearly equal ranges.
func chunks(n, w int) [][2]int {
	if w > n {
		w = n
	}
	out := make([][2]int, 0, w)
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// ParDot computes Dot(x, y) using up to `workers` goroutines.
// Partial sums are combined in chunk-index order, so the result is
// deterministic for a fixed worker count.
func ParDot(x, y []float64, workers int) float64 {
	checkLen("ParDot", len(x), len(y))
	n := len(x)
	w := Workers(workers)
	if n < MinParallelLen || w <= 1 {
		return Dot(x, y)
	}
	cs := chunks(n, w)
	partial := make([]float64, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci, lo, hi int) {
			defer wg.Done()
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i] * y[i]
			}
			partial[ci] = s
		}(ci, c[0], c[1])
	}
	wg.Wait()
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}

// ParAxpy computes y += a*x using up to `workers` goroutines.
func ParAxpy(a float64, x, y []float64, workers int) {
	checkLen("ParAxpy", len(x), len(y))
	n := len(x)
	w := Workers(workers)
	if n < MinParallelLen || w <= 1 {
		Axpy(a, x, y)
		return
	}
	var wg sync.WaitGroup
	for _, c := range chunks(n, w) {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				y[i] += a * x[i]
			}
		}(c[0], c[1])
	}
	wg.Wait()
}

// ParRange runs fn over [0, n) split into contiguous chunks across up to
// `workers` goroutines. It is the generic building block for the parallel
// SpMV kernels in internal/sparse.
func ParRange(n, workers int, fn func(lo, hi int)) {
	w := Workers(workers)
	if n < MinParallelLen || w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for _, c := range chunks(n, w) {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(c[0], c[1])
	}
	wg.Wait()
}
