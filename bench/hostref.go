package main

import (
	"strconv"
	"sync"
	"time"
)

// Host speed. The hosts this benchmark runs on are shared: for seconds to
// tens of minutes at a time, another tenant's load on the same cores slows
// throughput-bound code (sparse gathers, branchy integer code) by about 2×,
// while a dependent chain of arithmetic, bound by latency, slows by 10% at
// most. The solver slows by 1.3–1.8×, depending on the workload. A slowdown
// that lasts a whole run moves every wall-clock number, so the benchmark
// reads the host's speed between timed operations with two kernels of its
// own, one of each kind, and reports each time divided by the host index
// measured around it: how much slower than its fast state the host ran the
// workload's kind of code just then.
//
// The kernels share no code with the solver, so a change to the solver
// cannot move them.

// hostRef holds the inputs of the throughput-bound kernel: a few CG-like
// sweeps over a 5-point stencil in CSR form (about 1.7 MB, most of the 2 MiB
// L2 cache) and the formatting and parsing of a slice of floats, the bulk of
// the JSON work in the fleet workload. The latency-bound kernel is a
// dependent multiply-add chain.
type hostRef struct {
	rowPtr, col []int32
	val, x, y   []float64
	buf         []byte
}

// refGrid is the stencil's side, refSweeps the sweeps per run, refFloats the
// floats formatted per run and refChain the length of the dependent chain.
const (
	refGrid   = 150
	refSweeps = 4
	refFloats = 2500
	refChain  = 300_000
)

// refFastA and refFastB are the two kernels' times in seconds with the host
// in its fast state: the 5th percentile of about 2,200 readings on a 2-vCPU
// KVM guest (Xeon at 2.1 GHz). With them, the host index is about 1 when the
// host is fast, and reported times read as seconds on the fast host.
const refFastA, refFastB = 0.00118, 0.00072

func newHostRef() *hostRef {
	n := refGrid * refGrid
	h := &hostRef{rowPtr: make([]int32, 1, n+1), x: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < refGrid; i++ {
		for j := 0; j < refGrid; j++ {
			r := i*refGrid + j
			add := func(c int, v float64) {
				h.col = append(h.col, int32(c))
				h.val = append(h.val, v)
			}
			if i > 0 {
				add(r-refGrid, -1)
			}
			if j > 0 {
				add(r-1, -1)
			}
			add(r, 4.01)
			if j < refGrid-1 {
				add(r+1, -1)
			}
			if i < refGrid-1 {
				add(r+refGrid, -1)
			}
			h.rowPtr = append(h.rowPtr, int32(len(h.col)))
			h.x[r] = 1 / float64(1+r%17)
		}
	}
	return h
}

// reading is one measurement of the host: the seconds the throughput-bound
// kernel (a) and the latency-bound kernel (b) took.
type reading struct{ a, b float64 }

// index is the host index for a workload whose slowdowns follow the
// throughput-bound kernel's by share and the latency-bound kernel's by
// 1 − share.
func (r reading) index(share float64) float64 {
	return share*r.a/refFastA + (1-share)*r.b/refFastB
}

// read runs each kernel once.
func (h *hostRef) read() reading {
	start := time.Now()
	// x never changes, so every run does the same arithmetic on the same
	// values.
	for s := 0; s < refSweeps; s++ {
		dot := 0.0
		for r := range h.y {
			sum := 0.0
			for p := h.rowPtr[r]; p < h.rowPtr[r+1]; p++ {
				sum += h.val[p] * h.x[h.col[p]]
			}
			h.y[r] = sum
			dot += sum * h.x[r]
		}
		a := 1 / dot
		for r := range h.y {
			h.y[r] = h.x[r] - a*h.y[r]
		}
		sink += h.y[s]
	}
	for i := 0; i < refFloats; i++ {
		h.buf = strconv.AppendFloat(h.buf[:0], h.x[i*7%len(h.x)]*float64(i+1), 'g', -1, 64)
		v, _ := strconv.ParseFloat(string(h.buf), 64)
		sink += v
	}
	var r reading
	r.a = time.Since(start).Seconds()
	start = time.Now()
	x := 1.0
	for i := 0; i < refChain; i++ {
		x = x*1.0000001 + 1e-9
	}
	sink += x
	r.b = time.Since(start).Seconds()
	return r
}

// hostProbe reads the host on several cores at once: one goroutine per
// lane, each with its own kernel inputs. Two vCPUs of a shared host can be
// in different states, and a solve can run on either or on both.
type hostProbe struct{ lanes []*hostRef }

func newHostProbe(lanes int) *hostProbe {
	p := &hostProbe{}
	for range max(lanes, 1) {
		p.lanes = append(p.lanes, newHostRef())
	}
	return p
}

// gap reads the host n times in a pause between timed operations. Each
// time every lane runs the kernels at once and the lanes' times are
// averaged; of the n readings, each kernel's median is kept, so a run hit
// by a garbage collection or a preemption does not count.
func (p *hostProbe) gap(n int) reading {
	as, bs := make([]float64, n), make([]float64, n)
	rs := make([]reading, len(p.lanes))
	for i := range as {
		var wg sync.WaitGroup
		for l, h := range p.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs[l] = h.read()
			}()
		}
		wg.Wait()
		for _, r := range rs {
			as[i] += r.a / float64(len(rs))
			bs[i] += r.b / float64(len(rs))
		}
	}
	return reading{median(as), median(bs)}
}

// around returns the reading for the operation timed between gap readings
// b and b+1: each kernel's median over the window readings on either side.
func around(gaps []reading, b, window int) reading {
	w := gaps[max(0, b+1-window):min(len(gaps), b+1+window)]
	as, bs := make([]float64, len(w)), make([]float64, len(w))
	for i, r := range w {
		as[i], bs[i] = r.a, r.b
	}
	return reading{median(as), median(bs)}
}
