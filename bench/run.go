package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts configures one workload run.
type runOpts struct {
	seconds     float64
	maxRequests int // > 0 caps the request count instead of the clock
	traced      bool
	// The workload is set up at least setupReps times, and again while
	// the set-ups so far took less than setupSeconds, up to maxSetupReps.
	setupReps    int
	setupSeconds float64
	scale        scale
	traceOut     string
}

// outcome is one workload run's result line plus the details printed
// before it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	detail    detail
}

// detail is what a run reports beside its metrics: sample counts, the
// host calibration reading, and every failed request.
type detail struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Requests    int       `json:"requests"`
	P90Beyond   int       `json:"p90_samples_beyond"`
	HostCalibS  float64   `json:"host_calib_s"`
	VerifyShare float64   `json:"verify_share"`
	SetupRunsS  []float64 `json:"setup_runs_s"`
	// HostIndex is the median host index over the run's requests: about
	// 1 on a fast host, 2 where the host runs throughput-bound code at
	// half speed (see hostref.go).
	HostIndex float64 `json:"host_index"`
	// Ungated holds what an untraced run measures beside its end-to-end
	// metrics, with no bound: the host-adjusted p90, and the timing metrics
	// as the wall clock read them (throughput of the whole loop, pooled
	// latency percentiles, the median set-up). See README.md for why they
	// carry none.
	Ungated map[string]metric `json:"ungated,omitempty"`
	checked
	Failures []string `json:"failures,omitempty"`
}

// sample is one measured request.
type sample struct {
	latency    float64
	class      string
	rhs        int
	iterations int    // summed over the request's right-hand sides
	backend    string // resolved matvec storage
	interleave bool
	node       string // job-id prefix: which fleet node served it
	traced     bool
	norm       float64 // latency ÷ the host index read around the request
}

// loop is what the measured closed loop observed.
type loop struct {
	samples   []sample
	attempted int
	failures  []string
	wall      float64
	verify    float64 // seconds spent checking answers, summed over clients
	worst     checked
	traced    []*tracedReq
}

// measure runs the closed loop: each client sends its next request only
// after the previous one returned and was checked, and the host was read.
// Requests are numbered from one shared counter, so request i is the same
// for every client count and run length. With opts.traced, half the
// requests are traced: after its answer is checked, and outside its timing,
// the engine's job trace is fetched.
func measure(ctx context.Context, w *workload, t *target, rec *recorder, o runOpts) *loop {
	var (
		mu   sync.Mutex
		out  = &loop{}
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := time.Duration(o.seconds * float64(time.Second))
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []float64
			var worst checked
			// The host is read before the client's first request and after
			// each one; mine[k] ran between readings at[k] and at[k]+1.
			host := newHostProbe(runtime.GOMAXPROCS(0) / w.clients)
			gaps := []reading{host.gap(requestGapReads)}
			var mine []sample
			var at []int
			defer func() {
				for k := range mine {
					mine[k].norm = mine[k].latency / around(gaps, at[k], requestWindow).index(w.hostShare)
				}
				mu.Lock()
				out.worst.merge(worst)
				out.samples = append(out.samples, mine...)
				mu.Unlock()
			}()
			for {
				i := int(next.Add(1) - 1)
				if o.maxRequests > 0 && i >= o.maxRequests || o.maxRequests == 0 && time.Since(start) >= deadline {
					return
				}
				j := w.next(i)
				traced := o.traced && tracedCoin(i)
				cctx, id := ctx, ""
				if traced {
					id = fmt.Sprintf("%s%06d", benchIDPrefix, i)
					cctx = context.WithValue(ctx, reqIDKey{}, id)
				}
				t0 := time.Now()
				res, err := t.solver.Solve(cctx, j.req)
				t1 := time.Now()
				if err == nil {
					err = w.verify(j, res, &scratch, &worst)
				}
				checkS := time.Since(t1).Seconds()
				var tr *tracedReq
				if traced && err == nil {
					tr = &tracedReq{id: id, call: interval{t0, t1}, res: res, j: j}
					tr.ti, err = t.solver.Trace(ctx, res.JobID)
					tr.boundary = rec.take(id)
				}
				if err == nil {
					s := summarize(t1.Sub(t0).Seconds(), j, res)
					s.traced = traced
					mine, at = append(mine, s), append(at, len(gaps)-1)
				}
				gaps = append(gaps, host.gap(requestGapReads))
				mu.Lock()
				out.attempted++
				out.verify += checkS
				if err != nil {
					out.failures = append(out.failures, fmt.Sprintf("request %d: %v", i, err))
				} else if tr != nil {
					out.traced = append(out.traced, tr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	return out
}

// A request's host reading is the median of the requestWindow gap readings
// on either side of it, each the median of requestGapReads runs of the
// kernels: about 6 ms per request.
const (
	requestGapReads = 3
	requestWindow   = 3
)

// tracedCoin picks the traced half of a traced run's requests by a fixed
// coin flip per request number, independent of the seeded request mix, so
// traced and untraced requests see the same mix.
func tracedCoin(i int) bool { return rand.New(rand.NewPCG(0x7ace, uint64(i))).IntN(2) == 0 }

func summarize(latency float64, j job, res repro.JobResult) sample {
	s := sample{latency: latency, class: j.class, rhs: j.rhs(), backend: res.Backend}
	if len(res.Cases) > 0 {
		for _, c := range res.Cases {
			s.iterations += c.Iterations
		}
	} else {
		s.iterations = res.Iterations
	}
	if res.Plan != nil {
		s.interleave = res.Plan.Interleave
	}
	if k := strings.LastIndex(res.JobID, "-j-"); k > 0 {
		s.node = res.JobID[:k]
	}
	return s
}

// maxSetupReps caps the set-ups of one run.
const maxSetupReps = 25

// setupGapReads is how many times the host is read between the steps of a
// set-up.
const setupGapReads = 3

// runWorkload sets the workload up several times (each on a fresh session,
// keeping the last), runs the measured loop, and computes the end-to-end
// metrics, or with opts.traced the per-layer ones. A short set-up is
// repeated until the set-ups took setupSeconds, so that the median does not
// hang on one slow moment.
func runWorkload(ctx context.Context, name string, seed int64, o runOpts) (*outcome, error) {
	w, err := newWorkload(name, seed, o.scale)
	if err != nil {
		return nil, err
	}
	d := detail{Workload: name, Seed: seed, HostCalibS: hostCalib()}
	var rec *recorder
	if o.traced && w.fleet {
		rec = newRecorder()
	}
	var (
		t       *target
		warmIDs []string
		spent   float64
		setups  []float64
	)
	host := newHostProbe(runtime.GOMAXPROCS(0))
	for r := 0; r < max(o.setupReps, 1) || spent < o.setupSeconds && r < maxSetupReps; r++ {
		if t != nil {
			t.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		var wall, adj float64
		if t, warmIDs, wall, adj, err = w.setUp(ctx, rec, host); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		d.SetupRunsS = append(d.SetupRunsS, wall)
		setups = append(setups, adj)
		spent += wall
	}
	defer t.close()
	var warm []repro.TraceInfo
	if o.traced {
		for _, id := range warmIDs {
			ti, err := t.solver.Trace(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("warm-up trace %s: %w", id, err)
			}
			warm = append(warm, ti)
		}
	}

	var ms0, ms1 runtime.MemStats
	if o.traced {
		runtime.ReadMemStats(&ms0)
	}
	lp := measure(ctx, w, t, rec, o)
	if o.traced {
		runtime.ReadMemStats(&ms1)
	}
	rss := peakRSSMiB()

	out := &outcome{Attempted: lp.attempted, Failed: len(lp.failures), detail: d}
	out.detail.Failures = lp.failures
	out.detail.checked = lp.worst
	out.detail.Requests = len(lp.samples)
	out.detail.P90Beyond = len(lp.samples) - int(math.Ceil(0.9*float64(len(lp.samples))))
	out.detail.VerifyShare = lp.verify / (float64(w.clients) * lp.wall)
	if len(lp.samples) == 0 {
		return out, fmt.Errorf("%s: no request succeeded", name)
	}
	lat := make([]float64, len(lp.samples))
	index := make([]float64, len(lp.samples))
	rhs, busy := 0, 0.0
	for i, s := range lp.samples {
		lat[i] = s.latency
		index[i] = s.latency / s.norm
		rhs += s.rhs
		busy += s.norm
	}
	out.detail.HostIndex = median(index)
	if !o.traced {
		out.Metrics = map[string]metric{
			"throughput_rhs_per_s": {float64(w.clients*rhs) / busy, "1/s"},
			"latency_p50_s":        {classPercentile(lp.samples, 50), "s"},
			"setup_s":              {median(setups), "s"},
			"peak_rss_mb":          {rss, "MiB"},
		}
		out.detail.Ungated = map[string]metric{
			"latency_p90_s":             {classPercentile(lp.samples, 90), "s"},
			"wall_throughput_rhs_per_s": {float64(rhs) / lp.wall, "1/s"},
			"wall_latency_p50_s":        {nearestRank(lat, 50), "s"},
			"wall_latency_p90_s":        {nearestRank(lat, 90), "s"},
			"wall_setup_s":              {median(d.SetupRunsS), "s"},
		}
	} else {
		var spans []span
		if out.Metrics, spans, err = perLayer(w, lp, warm, o, out.detail, ms0, ms1); err != nil {
			return out, err
		}
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, name, seed, spans); err != nil {
				return out, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// classPercentile is the p-th percentile (nearest rank) of each request
// class's host-adjusted latency, averaged over the requests. Classes differ
// in size by up to 5×, so a percentile over the pooled requests would jump
// between classes as the mix of a short run shifts; per class it does not.
func classPercentile(samples []sample, p float64) float64 {
	byClass := map[string][]float64{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s.norm)
	}
	sum := 0.0
	for _, lat := range byClass {
		sum += float64(len(lat)) * nearestRank(lat, p)
	}
	return sum / float64(len(samples))
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM). Where
// /proc is missing it falls back to the memory the Go runtime obtained.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
