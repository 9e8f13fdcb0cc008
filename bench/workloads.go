package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sparse"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"plate-batch-warm", "plate-cold", "system-fleet-http", "plate-decomposed"}

// scale holds every problem size a workload uses, so the smoke test can run
// the same workloads at toy sizes.
type scale struct {
	warmPlates  [3]int // plate-batch-warm working set (square plates)
	tractions   int    // load cases per plate-batch-warm request
	coldSides   []int  // plate-cold: the row and column counts plates use
	coldCalib   []int  // plate-cold warm-up plates, outside that range
	poisson     []int  // system-fleet-http Poisson grids (side length)
	random      []int  // system-fleet-http random SPD orders
	decompPlate int    // plate-decomposed plate (square)
}

var fullScale = scale{
	warmPlates: [3]int{40, 52, 64}, tractions: 8,
	coldSides: []int{10, 16, 22}, coldCalib: []int{9, 23, 24},
	poisson: []int{48, 80, 112}, random: []int{2000, 5000, 10000},
	decompPlate: 72,
}

var toyScale = scale{
	warmPlates: [3]int{12, 14, 16}, tractions: 4,
	coldSides: []int{6, 9}, coldCalib: []int{5, 10, 11},
	poisson: []int{10, 14, 18}, random: []int{100, 200, 300},
	decompPlate: 12,
}

// workload is one closed-loop traffic mix: a working set solved once during
// set-up, a deterministic request stream for the measured loop, and the
// bounds every answer must meet.
type workload struct {
	clients int
	fleet   bool
	warm    []repro.Request
	next    func(i int) job
	// relBound caps the true relative residual ‖f − K·u‖/‖f‖ of every
	// answer; gapBound caps its distance from the solver's reported
	// final_relres. Both are ten times the worst value seen in ten or more
	// seeded full-size runs.
	relBound, gapBound float64
	// hostShare is the share of the throughput-bound kernel in the host
	// index (see hostref.go): the one that, over runs in the host's fast
	// and slow states, left the workload's adjusted latencies the least
	// spread.
	hostShare float64
	// probe is one of the workload's problems, used where a layer is timed
	// by calling its functions directly, the eq. (4.1) cost model included.
	probe problem
}

// problem is the benchmark's own copy of a system: the matrix, the base
// right-hand side, and the multicolor groups (nil for general systems).
type problem struct {
	k          *sparse.CSR
	f          []float64
	groupStart []int
	plate      *fem.Plate
}

// job is one measured request plus what the benchmark needs to check it:
// the truth matrix and, per right-hand side, either a scale of the base
// load (plates) or the vector itself (systems).
type job struct {
	req repro.Request
	// class names the requests that do the same work: the same problem
	// size and solver settings, differing only in load values.
	class string
	truth func() problem
	// kScale, when set, multiplies the truth matrix (plate-cold's modulus).
	kScale float64
	scales []float64
	fs     [][]float64
}

func (j job) rhs() int { return max(len(j.scales), len(j.fs)) }

// plateProblem assembles a plate the way the engine does for a PlateSpec.
func plateProblem(rows, cols int, mat fem.Material) (problem, error) {
	sys, plate, err := core.PlateSystem(rows, cols, fem.Options{Mat: mat})
	if err != nil {
		return problem{}, err
	}
	return problem{k: sys.K, f: sys.F, groupStart: sys.GroupStart, plate: plate}, nil
}

// pick returns which of n items request i uses for one property of the
// request (named by salt). Every block of n consecutive requests covers
// each item once, in a seeded order, so the mix hardly depends on the seed
// or on how many requests a run gets through.
func pick(seed int64, salt, i, n int) int {
	perm := rand.New(rand.NewPCG(uint64(seed), 1<<63|uint64(salt)<<40|uint64(i/n))).Perm(n)
	return perm[i%n]
}

// stream returns the seeded generator for request i's values.
func stream(seed int64, kind, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(kind)<<40|uint64(i)))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	switch name {
	case "plate-batch-warm":
		return plateBatchWarm(seed, sc)
	case "plate-cold":
		return plateCold(seed, sc)
	case "system-fleet-http":
		return systemFleet(seed, sc)
	case "plate-decomposed":
		return plateDecomposed(seed, sc)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func plateBatchWarm(seed int64, sc scale) (*workload, error) {
	solver := repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-5, Tuning: "off"}
	probs := make([]problem, len(sc.warmPlates))
	w := &workload{clients: 1, relBound: 1.8e-3, gapBound: 2.5e-13, hostShare: 0.5}
	for p, sz := range sc.warmPlates {
		pr, err := plateProblem(sz, sz, fem.Material{})
		if err != nil {
			return nil, err
		}
		probs[p] = pr
		w.warm = append(w.warm, repro.Request{
			Plate:  &repro.PlateSpec{Rows: sz, Cols: sz, Tractions: slices.Repeat([]float64{1}, sc.tractions)},
			Solver: solver,
		})
	}
	w.probe = probs[1]
	w.next = func(i int) job {
		p := pick(seed, 0, i, len(probs))
		r := stream(seed, 1, i)
		tr := make([]float64, sc.tractions)
		for c := range tr {
			tr[c] = uniform(r, 0.5, 2)
		}
		sz := sc.warmPlates[p]
		return job{
			req:    repro.Request{Plate: &repro.PlateSpec{Rows: sz, Cols: sz, Tractions: tr}, Solver: solver},
			class:  fmt.Sprintf("%dx%d", sz, sz),
			truth:  func() problem { return probs[p] },
			scales: tr,
		}
	}
	return w, nil
}

func plateCold(seed int64, sc scale) (*workload, error) {
	solver := repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6, Tuning: "off"}
	w := &workload{clients: 1, relBound: 7e-5, gapBound: 7.5e-14, hostShare: 1}
	for _, sz := range sc.coldCalib {
		w.warm = append(w.warm, repro.Request{Plate: &repro.PlateSpec{Rows: sz, Cols: sz}, Solver: solver})
	}
	// The plate's stiffness is linear in Young's modulus (at fixed ν and
	// thickness), so the truth for modulus E is E times the unit-modulus
	// matrix, assembled once per size before anything is timed.
	sides := sc.coldSides
	unit := map[[2]int]problem{}
	for _, r := range sides {
		for _, c := range sides {
			p, err := plateProblem(r, c, fem.Material{E: 1, Nu: 0.3, T: 1})
			if err != nil {
				return nil, err
			}
			unit[[2]int{r, c}] = p
		}
	}
	w.probe = unit[[2]int{sides[0], sides[0]}]
	w.next = func(i int) job {
		// Every block of len(sides)² requests uses each rows × cols shape
		// once, so each shape is a request class with enough samples.
		k := pick(seed, 1, i, len(sides)*len(sides))
		rc := [2]int{sides[k/len(sides)], sides[k%len(sides)]}
		// A fresh Young's modulus per request gives every request its own
		// cache key, so each one pays the full set-up.
		e := uniform(stream(seed, 2, i), 0.5, 2)
		return job{
			req: repro.Request{
				Plate:  &repro.PlateSpec{Rows: rc[0], Cols: rc[1], E: e, Nu: 0.3, T: 1},
				Solver: solver,
			},
			class:  fmt.Sprintf("%dx%d", rc[0], rc[1]),
			truth:  func() problem { return unit[rc] },
			kScale: e,
			scales: []float64{1},
		}
	}
	return w, nil
}

func systemFleet(seed int64, sc scale) (*workload, error) {
	type system struct {
		spec repro.SystemSpec // triplets and key; right-hand sides are per request
		prob problem
	}
	var systems []system
	add := func(key string, k *sparse.CSR) {
		s := repro.SystemSpec{N: k.Rows, Key: key}
		for i := 0; i < k.Rows; i++ {
			for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
				s.I = append(s.I, i)
				s.J = append(s.J, k.ColIdx[p])
				s.V = append(s.V, k.Val[p])
			}
		}
		systems = append(systems, system{spec: s, prob: problem{k: k}})
	}
	for _, g := range sc.poisson {
		add(fmt.Sprintf("poisson-%d", g), model.Poisson2D(g, g))
	}
	// The matrices are the same for every seed, so iteration counts do not
	// vary between runs; the seed draws the right-hand sides and the mix.
	for _, n := range sc.random {
		add(fmt.Sprintf("random-%d", n), model.RandomSPD(mrand.New(mrand.NewSource(int64(n))), n, 8))
	}
	steps := []int{0, 2}
	widths := []int{1, 2, 3}
	solver := func(m int) repro.SolverSpec {
		return repro.SolverSpec{M: m, RelResidualTol: 1e-6, Tuning: "off"}
	}
	randomRHS := func(r *rand.Rand, s, n int) [][]float64 {
		fs := make([][]float64, s)
		for c := range fs {
			fs[c] = make([]float64, n)
			for i := range fs[c] {
				fs[c][i] = r.NormFloat64()
			}
		}
		return fs
	}
	w := &workload{clients: 2, fleet: true, relBound: 1e-5, gapBound: 1.2e-14, hostShare: 0.7, probe: systems[0].prob}
	for si, sys := range systems {
		for mi, m := range steps {
			spec := sys.spec
			spec.Fs = randomRHS(stream(seed, 4, si*len(steps)+mi), 1, spec.N)
			w.warm = append(w.warm, repro.Request{System: &spec, Solver: solver(m)})
		}
	}
	w.next = func(i int) job {
		sys := systems[pick(seed, 3, i, len(systems))]
		m := steps[pick(seed, 4, i, len(steps))]
		s := widths[pick(seed, 5, i, len(widths))]
		spec := sys.spec
		spec.Fs = randomRHS(stream(seed, 3, i), s, spec.N)
		return job{
			req:   repro.Request{System: &spec, Solver: solver(m)},
			class: fmt.Sprintf("%s/m%d/s%d", spec.Key, m, s),
			truth: func() problem { return sys.prob },
			fs:    spec.Fs,
		}
	}
	return w, nil
}

func plateDecomposed(seed int64, sc scale) (*workload, error) {
	solver := repro.SolverSpec{M: 2, Tol: 1e-5, Backend: "decomposed", Subdomains: 2, Tuning: "off"}
	sz := sc.decompPlate
	prob, err := plateProblem(sz, sz, fem.Material{})
	if err != nil {
		return nil, err
	}
	w := &workload{clients: 1, relBound: 4.5e-3, gapBound: 3.7e-13, hostShare: 0.4, probe: prob}
	w.warm = []repro.Request{{Plate: &repro.PlateSpec{Rows: sz, Cols: sz, Tractions: []float64{1}}, Solver: solver}}
	w.next = func(i int) job {
		t := uniform(stream(seed, 5, i), 0.5, 2)
		return job{
			req:    repro.Request{Plate: &repro.PlateSpec{Rows: sz, Cols: sz, Tractions: []float64{t}}, Solver: solver},
			class:  fmt.Sprintf("%dx%d", sz, sz),
			truth:  func() problem { return prob },
			scales: []float64{t},
		}
	}
	return w, nil
}

// historyLimit is how many finished jobs a session keeps. Each job keeps its
// request and solution, so with the default of 512 memory would grow with
// the number of requests a run completes, and a faster commit would read
// as using more memory. Traces are fetched right after each request, so a
// short history is enough.
const historyLimit = 16

// cacheSize is how many problems a session's cache keeps. It holds every
// workload's working set; on plate-cold, where every request adds an entry,
// the cache is full a few seconds into the loop, so memory stops growing
// there too instead of growing until the default of 64 entries is reached.
const cacheSize = 16

// target is one system under test: a solver session plus what it takes to
// shut it down.
type target struct {
	solver repro.Solver
	close  func()
}

// newTarget builds the workload's system under test: an in-process session,
// or two solverd nodes behind a fleet router driven through the client SDK.
// rec, when non-nil, records the HTTP boundary spans of traced requests.
func (w *workload) newTarget(rec *recorder) (*target, error) {
	if !w.fleet {
		l := repro.NewLocal(repro.LocalConfig{Workers: 1, HistoryLimit: historyLimit, CacheSize: cacheSize})
		return &target{solver: l, close: func() { l.Close() }}, nil
	}
	var closers []func()
	shutdown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var members []fleet.Member
	for _, name := range []string{"n1", "n2"} {
		svc := service.New(service.Config{NodeID: name, Workers: 1, WorkerBudget: 1, HistoryLimit: historyLimit, CacheSize: cacheSize})
		srv := httptest.NewServer(rec.wrap("node", svc.Handler()))
		closers = append(closers, func() { svc.Close() }, srv.Close)
		members = append(members, fleet.Member{Name: name, URL: srv.URL})
	}
	router, err := fleet.New(fleet.Config{
		Members:       members,
		CheckInterval: -1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		shutdown()
		return nil, err
	}
	rsrv := httptest.NewServer(rec.wrap("router", router.Handler()))
	closers = append(closers, func() { router.Close() }, rsrv.Close)
	hc := &http.Client{Transport: rec.transport(http.DefaultTransport)}
	cl := client.New(rsrv.URL, client.WithHTTPClient(hc))
	closers = append(closers, func() { cl.Close() })
	return &target{solver: cl, close: shutdown}, nil
}

// setUp builds a fresh target and solves the working set once, returning
// the job IDs of the warm-up solves. Each step (building the target, each
// warm-up solve) is timed between two readings of the host; wall is the
// steps' total time and adj the sum of each step's time divided by the mean
// host index of the readings before and after it.
func (w *workload) setUp(ctx context.Context, rec *recorder, host *hostProbe) (t *target, ids []string, wall, adj float64, err error) {
	before := host.gap(setupGapReads).index(w.hostShare)
	step := func(f func() error) error {
		start := time.Now()
		err := f()
		d := time.Since(start).Seconds()
		after := host.gap(setupGapReads).index(w.hostShare)
		wall, adj, before = wall+d, adj+d/((before+after)/2), after
		return err
	}
	if err = step(func() (err error) { t, err = w.newTarget(rec); return err }); err != nil {
		return nil, nil, 0, 0, err
	}
	for _, req := range w.warm {
		err = step(func() error {
			res, err := t.solver.Solve(ctx, req)
			if err == nil && !res.Converged {
				err = fmt.Errorf("did not converge")
			}
			ids = append(ids, res.JobID)
			return err
		})
		if err != nil {
			t.close()
			return nil, nil, 0, 0, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return t, ids, wall, adj, nil
}

// checked is the worst of what the checks measured: the largest true
// relative residual and the largest distance from the reported one.
type checked struct {
	TrueRelres float64 `json:"worst_true_relres"`
	Gap        float64 `json:"worst_relres_gap"`
}

func (c *checked) merge(o checked) {
	c.TrueRelres, c.Gap = max(c.TrueRelres, o.TrueRelres), max(c.Gap, o.Gap)
}

// verify checks every right-hand side of res against the benchmark's own
// copy of the system: the solve must report convergence, the true relative
// residual must be under relBound, and it must agree with the reported
// final_relres within gapBound. scratch is reused across calls; worst
// collects the largest values seen.
func (w *workload) verify(j job, res repro.JobResult, scratch *[]float64, worst *checked) error {
	type column struct {
		converged bool
		relres    float64
		u         []float64
	}
	var cols []column
	if len(res.Cases) > 0 {
		for _, c := range res.Cases {
			cols = append(cols, column{c.Converged, c.FinalRelRes, c.U})
		}
	} else {
		cols = []column{{res.Converged, res.FinalRelRes, res.U}}
	}
	if len(cols) != j.rhs() {
		return fmt.Errorf("%d results for %d right-hand sides", len(cols), j.rhs())
	}
	p := j.truth()
	n := p.k.Rows
	if len(*scratch) < n {
		*scratch = make([]float64, n)
	}
	ku := (*scratch)[:n]
	for c, col := range cols {
		if !col.converged {
			return fmt.Errorf("rhs %d did not converge", c)
		}
		if len(col.u) != n {
			return fmt.Errorf("rhs %d: solution has %d entries, want %d", c, len(col.u), n)
		}
		p.k.MulVecTo(ku, col.u)
		if j.kScale != 0 {
			for i := range ku {
				ku[i] *= j.kScale
			}
		}
		var rr, ff float64
		for i := range ku {
			f := 0.0
			if j.fs != nil {
				f = j.fs[c][i]
			} else {
				f = j.scales[c] * p.f[i]
			}
			rr += (f - ku[i]) * (f - ku[i])
			ff += f * f
		}
		trueRel := math.Sqrt(rr / ff)
		gap := math.Abs(trueRel - col.relres)
		worst.merge(checked{trueRel, gap})
		if !(trueRel <= w.relBound) {
			return fmt.Errorf("rhs %d: true relative residual %.3g over bound %.3g", c, trueRel, w.relBound)
		}
		if !(gap <= w.gapBound) {
			return fmt.Errorf("rhs %d: true relative residual %.6g vs reported %.6g (gap %.3g over %.3g)", c, trueRel, col.relres, gap, w.gapBound)
		}
	}
	return nil
}
