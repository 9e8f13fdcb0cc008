// Benchmark harness: one benchmark per paper table/figure plus ablations
// of the design decisions DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Wall-clock numbers measure this machine, not the 1983 hardware; the
// simulated seconds and iteration counts reported via b.ReportMetric are
// the reproduction targets.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fem"
	"repro/internal/femachine"
	"repro/internal/kernel"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
	"repro/internal/vectorsim"
)

// --- Host reference ----------------------------------------------------

// BenchmarkHostRef does fixed work that shares no code with the solver:
// sweeps of a CG-like update over a 5-point stencil in CSR form (about
// 1.7 MB, most of a 2 MiB L2 cache) and the formatting and parsing of
// floats. A change to the solver cannot move it, so its ns/op in two
// reports says how fast their hosts ran. `cmd/benchjson -diff` does not
// scale the other benchmarks by it: on one 2-vCPU host their 1x samples
// did not move with it. One op takes 20–45 ms there, long enough for a
// single 1x sample.
func BenchmarkHostRef(b *testing.B) {
	const grid, sweeps, floats = 150, 64, 40000
	n := grid * grid
	rowPtr := make([]int32, 1, n+1)
	var col []int32
	var val []float64
	x, y := make([]float64, n), make([]float64, n)
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			r := i*grid + j
			add := func(c int, v float64) {
				col = append(col, int32(c))
				val = append(val, v)
			}
			if i > 0 {
				add(r-grid, -1)
			}
			if j > 0 {
				add(r-1, -1)
			}
			add(r, 4.01)
			if j < grid-1 {
				add(r+1, -1)
			}
			if i < grid-1 {
				add(r+grid, -1)
			}
			rowPtr = append(rowPtr, int32(len(col)))
			x[r] = 1 / float64(1+r%17)
		}
	}
	var buf []byte
	sink := 0.0
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		// x never changes, so every op does the same arithmetic.
		for s := 0; s < sweeps; s++ {
			dot := 0.0
			for r := range y {
				sum := 0.0
				for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
					sum += val[p] * x[col[p]]
				}
				y[r] = sum
				dot += sum * x[r]
			}
			a := 1 / dot
			for r := range y {
				y[r] = x[r] - a*y[r]
			}
			sink += y[s]
		}
		for i := 0; i < floats; i++ {
			buf = strconv.AppendFloat(buf[:0], x[i*7%n]*float64(i+1), 'g', -1, 64)
			v, err := strconv.ParseFloat(string(buf), 64)
			if err != nil {
				b.Fatal(err)
			}
			sink += v
		}
	}
	if math.IsNaN(sink) {
		b.Fatal("host reference produced NaN")
	}
}

// --- Table 1: parametrized coefficient computation --------------------

func BenchmarkTable1Coefficients(b *testing.B) {
	for _, m := range []int{2, 3, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := poly.LeastSquares(m, 0.01, 1.02); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: CYBER 203 sweep -----------------------------------------

func BenchmarkTable2CyberSweep(b *testing.B) {
	specs := []experiments.MSpec{{M: 0}, {M: 1}, {M: 2}, {M: 2, Param: true}, {M: 4, Param: true}, {M: 6, Param: true}}
	for _, a := range []int{10, 20} {
		for _, s := range specs {
			b.Run(fmt.Sprintf("a=%d/m=%s", a, s.Label()), func(b *testing.B) {
				var iters int
				var secs float64
				for i := 0; i < b.N; i++ {
					run, err := vectorsim.SimulatePlate(vectorsim.Cyber203(), a, a, s.M, s.Param, 1e-6)
					if err != nil {
						b.Fatal(err)
					}
					iters, secs = run.Iterations, run.Seconds
				}
				b.ReportMetric(float64(iters), "iterations")
				b.ReportMetric(secs, "simulated-s")
			})
		}
	}
}

// --- Table 3: Finite Element Machine ------------------------------------

func BenchmarkTable3FEMachine(b *testing.B) {
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []struct {
		p     int
		m     int
		strat mesh.Strategy
	}{
		{1, 0, mesh.RowStrips}, {2, 0, mesh.RowStrips}, {5, 0, mesh.ColStrips},
		{1, 2, mesh.RowStrips}, {2, 2, mesh.RowStrips}, {5, 2, mesh.ColStrips},
	} {
		b.Run(fmt.Sprintf("P=%d/m=%d", spec.p, spec.m), func(b *testing.B) {
			cfg := femachine.Config{
				P: spec.p, Strategy: spec.strat, M: spec.m,
				Tol: 1e-6, MaxIter: 100000, Time: femachine.DefaultTimeModel(),
			}
			if spec.m > 0 {
				cfg.Alphas = poly.Ones(spec.m).Coeffs
			}
			var res femachine.Result
			for i := 0; i < b.N; i++ {
				mach, err := femachine.New(plate, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = mach.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Iterations), "iterations")
			b.ReportMetric(res.SimTime, "simulated-s")
		})
	}
}

// --- §2.1 condition study ------------------------------------------------

func BenchmarkConditionEstimate(b *testing.B) {
	sys, _, err := core.PlateSystem(12, 12, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{M: 2, RelResidualTol: 1e-10, MaxIter: 10000}
	for i := 0; i < b.N; i++ {
		res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := repro.EstimateCondition(res[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures: renderers ----------------------------------------------------

func BenchmarkFigureRenderers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver benchmarks (real wall clock) --------------------------------

func BenchmarkSolvePlate(b *testing.B) {
	for _, size := range []int{16, 32} {
		sys, _, err := core.PlateSystem(size, size, fem.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			label string
			c     core.Config
		}{
			{"cg", core.Config{M: 0}},
			{"ssor-m1", core.Config{M: 1}},
			{"ssor-m4-ls", core.Config{M: 4, Coeffs: core.LeastSquaresCoeffs}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", sys.K.Rows, cfg.label), func(b *testing.B) {
				c := cfg.c
				c.Tol = 1e-6
				c.MaxIter = 100000
				var iters int
				for i := 0; i < b.N; i++ {
					res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: c})
					if err != nil {
						b.Fatal(err)
					}
					iters = res[0].Stats.Iterations
				}
				b.ReportMetric(float64(iters), "iterations")
			})
		}
	}
}

// BenchmarkPlateAssembly times the set-up a cold request pays before any
// solving: fem.NewPlate (element kernel, COO→CSR conversion, 6-color
// permutation) on one set of the cold workload's square shapes and on the
// 64² and 72² plates, and the engine's intake of a general system's
// triplets (validation, COO→CSR, symmetry check, structure probe) through
// PlanRequest on the benchmark's keyless RandomSPD n = 10000.
func BenchmarkPlateAssembly(b *testing.B) {
	plates := func(sizes ...int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, n := range sizes {
					if _, err := fem.NewPlate(n, n, fem.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("cold=10,16,22", plates(10, 16, 22))
	b.Run("plate=64", plates(64))
	b.Run("plate=72", plates(72))
	b.Run("intake=randomspd-10000", func(b *testing.B) {
		k := model.RandomSPD(rand.New(rand.NewSource(10000)), 10000, 8)
		sy := &engine.SystemSpec{N: k.Rows, F: make([]float64, k.Rows)}
		for i := 0; i < k.Rows; i++ {
			for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
				sy.I, sy.J, sy.V = append(sy.I, i), append(sy.J, k.ColIdx[p]), append(sy.V, k.Val[p])
			}
		}
		s := engine.New(engine.Config{Workers: 1})
		defer s.Close()
		req := engine.Request{System: sy, Solver: engine.SolverSpec{Splitting: "jacobi"}}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.PlanRequest(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingSplitting counts the symmetrized products a spectral estimate
// takes: one per Lanczos iteration.
type countingSplitting struct {
	splitting.Splitting
	products int
}

func (c *countingSplitting) MulSymmetrized(dst, x, work []float64) {
	c.products++
	c.Splitting.MulSymmetrized(dst, x, work)
}

// BenchmarkSpectralEstimate times eigen.EstimateInterval, the settled
// Lanczos run on the symmetrized operator that fits every cold plate's
// least-squares coefficients, on the multicolor SSOR splitting of the cold
// workload's 10², 16², 22² and 10×22 plates and of the 64² plate, and
// reports the iterations each estimate takes.
func BenchmarkSpectralEstimate(b *testing.B) {
	for _, sz := range [][2]int{{10, 10}, {16, 16}, {22, 22}, {10, 22}, {64, 64}} {
		b.Run(fmt.Sprintf("plate=%dx%d", sz[0], sz[1]), func(b *testing.B) {
			p, err := fem.NewPlate(sz[0], sz[1], fem.Options{})
			if err != nil {
				b.Fatal(err)
			}
			mc, err := splitting.NewSixColorSSOR(p.KColored, p.Ordering.GroupStart[:])
			if err != nil {
				b.Fatal(err)
			}
			sp := &countingSplitting{Splitting: mc}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := eigen.EstimateInterval(sp, 0.02, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sp.products)/float64(b.N), "iterations/op")
		})
	}
}

// --- Ablation: Conrad–Wallach fused sweeps vs naive m-step ---------------

func BenchmarkAblationConradWallach(b *testing.B) {
	sys, _, err := core.PlateSystem(24, 24, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(sys.K, sys.GroupStart)
	if err != nil {
		b.Fatal(err)
	}
	alphas := poly.Ones(4).Coeffs
	rhat := make([]float64, sys.K.Rows)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc.ApplyMStep(rhat, sys.F, alphas)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.Zero(rhat)
			for s := 1; s <= 4; s++ {
				mc.Step(rhat, sys.F, alphas[4-s])
			}
		}
	})
}

// --- Ablation: SpMV formats (CSR vs DIA vs parallel CSR) -----------------

func BenchmarkAblationSpMV(b *testing.B) {
	sys, _, err := core.PlateSystem(40, 40, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := sys.K
	dia := sparse.MustDIAFromCSR(k)
	x := make([]float64, k.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, k.Rows)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.MulVecTo(y, x)
		}
	})
	b.Run("dia", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dia.MulVecTo(y, x)
		}
	})
	b.Run("csr-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ParMulVecTo(y, x, 0)
		}
	})
}

// --- Ablation: multicolor vs natural ordering SSOR PCG -------------------

func BenchmarkAblationOrdering(b *testing.B) {
	sys, _, err := core.PlateSystem(20, 20, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		label string
		c     core.Config
	}{
		{"multicolor", core.Config{M: 2, Splitting: core.SSORMulticolor}},
		{"natural", core.Config{M: 2, Splitting: core.SSORNatural}},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			c := cfg.c
			c.Tol = 1e-6
			c.MaxIter = 100000
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: c})
				if err != nil {
					b.Fatal(err)
				}
				iters = res[0].Stats.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// --- Ablation: sum/max circuit vs software ring reduction ----------------

func BenchmarkAblationReduction(b *testing.B) {
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, software := range []bool{false, true} {
		label := "tree"
		if software {
			label = "ring"
		}
		b.Run(label, func(b *testing.B) {
			tm := femachine.DefaultTimeModel()
			tm.SoftwareReduce = software
			var sim float64
			for i := 0; i < b.N; i++ {
				mach, err := femachine.New(plate, femachine.Config{
					P: 5, Strategy: mesh.ColStrips, M: 0,
					Tol: 1e-6, MaxIter: 100000, Time: tm,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := mach.Run()
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimTime
			}
			b.ReportMetric(sim, "simulated-s")
		})
	}
}

// --- Ablation: preconditioner application cost vs m ----------------------

func BenchmarkPrecondApply(b *testing.B) {
	sys, _, err := core.PlateSystem(24, 24, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(sys.K, sys.GroupStart)
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, sys.K.Rows)
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			p, err := precond.NewMStep(mc, poly.Ones(m))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				p.Apply(z, sys.F)
			}
		})
	}
}

// --- Baseline: CG on general SPD systems (Poisson substrate) -------------

func BenchmarkPoissonCG(b *testing.B) {
	k := model.Poisson2D(40, 40)
	f := make([]float64, k.Rows)
	f[k.Rows/2] = 1
	j, err := splitting.NewJacobi(k)
	if err != nil {
		b.Fatal(err)
	}
	p3, err := precond.NewMStep(j, poly.Ones(3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cg.Solve(k, f, nil, cg.Options{RelResidualTol: 1e-8, MaxIter: 10000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("neumann-m3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cg.Solve(k, f, p3, cg.Options{RelResidualTol: 1e-8, MaxIter: 10000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Service: solves/sec at increasing concurrency ------------------------

// --- Batched multi-RHS block solves -----------------------------------

// BenchmarkBatchedSolve compares s sequential SolveInto runs against one
// block solve of the same s right-hand sides on a cached plate (system and
// preconditioner prebuilt, workspaces warm — the solver service's steady
// state). The block solve shares one SpMM and one block preconditioner
// sweep per iteration across the batch; the acceptance target is ≥1.3×
// throughput at s=8 (compare the rhs/s metrics).
func BenchmarkBatchedSolve(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{M: 3, Splitting: core.SSORMulticolor, Coeffs: core.LeastSquaresCoeffs}
	pc, _, _, err := core.BuildPreconditioner(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := cg.Options{Tol: 1e-7, MaxIter: 5000}
	n := sys.K.Rows
	for _, s := range []int{2, 8} {
		f := vec.NewMulti(n, s)
		for j := 0; j < s; j++ {
			scale := float64(j+1) / 4
			for i, v := range sys.F {
				f.Col(j)[i] = scale * v
			}
		}
		b.Run(fmt.Sprintf("sequential/s=%d", s), func(b *testing.B) {
			ws := cg.NewWorkspace(n)
			u := make([]float64, n)
			var iters int
			for i := 0; i < b.N; i++ {
				iters = 0
				for j := 0; j < s; j++ {
					st, err := cg.SolveInto(u, sys.K, f.Col(j), pc, opt, ws)
					if err != nil {
						b.Fatal(err)
					}
					iters += st.Iterations
				}
			}
			b.ReportMetric(float64(iters), "col-iters")
			b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		})
		b.Run(fmt.Sprintf("block/s=%d", s), func(b *testing.B) {
			bws := cg.NewWorkspace(n)
			u := vec.NewMulti(n, s)
			var spmms int
			for i := 0; i < b.N; i++ {
				st, err := cg.SolveBlockInto(u, sys.K, f, pc, opt, bws)
				if err != nil {
					b.Fatal(err)
				}
				spmms = st.SpMMs
			}
			b.ReportMetric(float64(spmms), "spmms")
			b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		})
	}
}

// BenchmarkTiledBlockSolve compares an untiled s=32 block solve against the
// planner's tiled execution of the same batch on the cached 100×100 plate
// (system and preconditioner prebuilt, workspace warm). Untiled, the four
// CG scratch multivectors plus iterate and RHS hold 32 columns of n≈19800
// — a ~30 MB working set re-streamed every iteration; the default planner
// budget tiles it into 8-column solves (~7.6 MB) executed sequentially,
// trading extra matrix traversals (one SpMM per tile iteration instead of
// one per batch iteration) for multivector cache residency. Compare the
// rhs/s metrics.
func BenchmarkTiledBlockSolve(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{M: 3, Splitting: core.SSORMulticolor, Coeffs: core.LeastSquaresCoeffs}
	pc, _, _, err := core.BuildPreconditioner(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := cg.Options{Tol: 1e-7, MaxIter: 5000}
	n := sys.K.Rows
	const s = 32
	f := vec.NewMulti(n, s)
	for j := 0; j < s; j++ {
		scale := float64(j+1) / 4
		for i, v := range sys.F {
			f.Col(j)[i] = scale * v
		}
	}
	probe := plan.NewProbe(sys.K)
	pl := plan.Static(plan.Inputs{Probe: &probe, Policy: plan.BackendCSR, RHS: s, M: cfg.M})
	b.Run("untiled/s=32", func(b *testing.B) {
		bws := cg.NewWorkspace(n)
		u := vec.NewMulti(n, s)
		for i := 0; i < b.N; i++ {
			if _, err := cg.SolveBlockInto(u, sys.K, f, pc, opt, bws); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
	})
	b.Run(fmt.Sprintf("planner-tiled/s=32/tiles=%d", len(pl.Tiles)), func(b *testing.B) {
		width := len(pl.Tiles[0])
		bws := cg.NewWorkspace(n)
		u := vec.NewMulti(n, width)
		for i := 0; i < b.N; i++ {
			for _, tileCols := range pl.Tiles {
				cols := make([][]float64, len(tileCols))
				for t, c := range tileCols {
					cols[t] = f.Col(c)
				}
				ut := &vec.Multi{N: n, S: len(tileCols), Data: u.Data[:n*len(tileCols)]}
				if _, err := cg.SolveBlockInto(ut, sys.K, vec.MultiFromCols(cols), pc, opt, bws); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
	})
}

// BenchmarkSpMM measures the matrix–multivector kernels against s repeated
// SpMVs over the paper's plate matrix in CSR and DIA storage.
func BenchmarkSpMM(b *testing.B) {
	sys, _, err := core.PlateSystem(40, 40, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := sys.K
	dia := sparse.MustDIAFromCSR(k)
	n := k.Rows
	const s = 8
	x := vec.NewMulti(n, s)
	for i := range x.Data {
		x.Data[i] = float64(i%13) - 6
	}
	dst := vec.NewMulti(n, s)
	b.Run("csr/spmv-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < s; j++ {
				k.MulVecTo(dst.Col(j), x.Col(j))
			}
		}
	})
	b.Run("csr/spmm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.MulMatTo(dst, x)
		}
	})
	b.Run("dia/spmv-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < s; j++ {
				dia.MulVecTo(dst.Col(j), x.Col(j))
			}
		}
	})
	b.Run("dia/spmm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dia.MulMatTo(dst, x)
		}
	})
}

// BenchmarkKernelSpMM is the layout ablation behind the interleaved panel
// path: the same 8-column SpMM over the cached 100×100 plate matrix, run
// column-contiguous (MulMatTo) in CSR and DIA storage and row-interleaved
// (MulMatITo) in CSR under both kernel sets. In the interleaved layout one
// gathered row index feeds all eight columns from one cache line; the
// interleaved/active CSR variant is the one the planner schedules for wide
// tiles, and CSR is the only storage with a panel product. The poisson112/
// rows repeat the ablation on the 112×112 5-point stencil (fill ≈ 1, where
// DIA's SpMV wins), the matrix on which Auto plans DIA for columns and CSR
// panels for wide tiles.
func BenchmarkKernelSpMM(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		prefix string
		k      *sparse.CSR
	}{{"", sys.K}, {"poisson112/", model.Poisson2D(112, 112)}} {
		k := tc.k
		n := k.Rows
		const s = 8
		x := vec.NewMulti(n, s)
		for i := range x.Data {
			x.Data[i] = float64(i%13) - 6
		}
		dst := vec.NewMulti(n, s)
		ix := x.Interleaved()
		idst := vec.NewIMulti(n, s)
		dia := sparse.MustDIAFromCSR(k)
		for _, set := range []struct {
			name string
			impl *kernel.Impl
		}{{"portable", kernel.Portable()}, {"active", kernel.Active()}} {
			// MulMatTo runs the active set, so only its rows time the
			// column path.
			columnSkip := set.impl != kernel.Active()
			b.Run(tc.prefix+"csr/column/s=8/"+set.name, func(b *testing.B) {
				if columnSkip {
					b.Skip("column path always runs the active set")
				}
				for i := 0; i < b.N; i++ {
					k.MulMatTo(dst, x)
				}
				b.ReportMetric(float64(k.NNZ())*s*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop-pairs/s")
			})
			b.Run(tc.prefix+"dia/column/s=8/"+set.name, func(b *testing.B) {
				if columnSkip {
					b.Skip("column path always runs the active set")
				}
				for i := 0; i < b.N; i++ {
					dia.MulMatTo(dst, x)
				}
			})
			b.Run(tc.prefix+"csr/interleaved/s=8/"+set.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.MulMatITo(idst, ix, set.impl)
				}
				b.ReportMetric(float64(k.NNZ())*s*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop-pairs/s")
			})
		}
	}
}

// BenchmarkKernelSweep times the m-step preconditioner sweep, the largest
// phase of a warm plate batch iteration: m = 3 Conrad–Wallach multicolor
// SSOR steps on the 100×100 plate at s = 8, run on row-interleaved panels
// (ApplyMStepInterleaved → SweepCSRI) under both kernel sets and on the
// column layout the planner uses with interleave off: eight scalar
// ApplyMStep sweeps, one per column. The column row keeps measured the
// panel-versus-column gap plan.DefaultWideBlockThreshold weighs.
func BenchmarkKernelSweep(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(sys.K, sys.GroupStart)
	if err != nil {
		b.Fatal(err)
	}
	n := sys.K.Rows
	const s = 8
	alphas := poly.Ones(3).Coeffs
	r := vec.NewMulti(n, s)
	for i := range r.Data {
		r.Data[i] = float64(i%13) - 6
	}
	rhat := vec.NewMulti(n, s)
	ir := r.Interleaved()
	irhat := vec.NewIMulti(n, s)
	b.Run("column/s=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < s; j++ {
				mc.ApplyMStep(rhat.Col(j), r.Col(j), alphas)
			}
		}
	})
	for _, set := range []struct {
		name string
		impl *kernel.Impl
	}{{"portable", kernel.Portable()}, {"active", kernel.Active()}} {
		b.Run("interleaved/s=8/"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mc.ApplyMStepInterleaved(irhat, ir, alphas, set.impl)
			}
		})
	}
}

// BenchmarkSpMVBackends measures the CSR-vs-DIA matvec gap on the two
// structure regimes the Auto backend policy distinguishes: the banded
// multicolor plate (a fixed ~47-diagonal family at every size, DIA fill
// ≈ 0.25) and the 5-point Poisson stencil (5 dense diagonals, fill ≈ 1 —
// the ideal vector-triad regime). Reported per backend for the scalar
// SpMV and the 8-column SpMM.
func BenchmarkSpMVBackends(b *testing.B) {
	sys, _, err := core.PlateSystem(40, 40, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
	}{
		{"plate40", sys.K},
		{"poisson100", model.Poisson2D(100, 100)},
	} {
		dia, err := sparse.NewDIAFromCSR(tc.k)
		if err != nil {
			b.Fatal(err)
		}
		n := tc.k.Rows
		probe := plan.NewProbe(tc.k)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		y := make([]float64, n)
		const s = 8
		xm := vec.NewMulti(n, s)
		for i := range xm.Data {
			xm.Data[i] = float64(i%13) - 6
		}
		dst := vec.NewMulti(n, s)
		for _, run := range []struct {
			name string
			fn   func()
		}{
			{"csr/spmv", func() { tc.k.MulVecTo(y, x) }},
			{"dia/spmv", func() { dia.MulVecTo(y, x) }},
			{"csr/spmm8", func() { tc.k.MulMatTo(dst, xm) }},
			{"dia/spmm8", func() { dia.MulMatTo(dst, xm) }},
		} {
			b.Run(tc.name+"/"+run.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run.fn()
				}
				b.ReportMetric(float64(probe.NumDiags), "diags")
				b.ReportMetric(probe.Fill, "fill")
			})
		}
	}
}

func BenchmarkServiceThroughput(b *testing.B) {
	req := repro.SolveRequest{
		Plate:        &repro.PlateSpec{Rows: 20, Cols: 20},
		Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
		OmitSolution: true,
	}
	concurrencies := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		concurrencies = append(concurrencies, g)
	}
	for _, jobs := range concurrencies {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			svc := repro.NewService(repro.ServiceConfig{Workers: jobs, QueueDepth: 4 * jobs})
			defer svc.Close()
			// Populate the cache so the benchmark measures served solves,
			// not one-time assembly.
			if _, err := svc.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < jobs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := svc.Solve(context.Background(), req); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			total := float64(jobs) * float64(b.N)
			b.ReportMetric(total/time.Since(start).Seconds(), "solves/s")
		})
	}
}

// BenchmarkLocalSolverThroughput is the in-process counterpart of
// BenchmarkServiceThroughput: the same warm-cache serving loop through
// repro.NewLocal — no HTTP, no daemon — proving embedders reach the same
// amortized throughput (assembly, structure probe and interval estimation
// all paid once, outside the timed loop).
func BenchmarkLocalSolverThroughput(b *testing.B) {
	problem, err := repro.NewPlateProblem(20, 20)
	if err != nil {
		b.Fatal(err)
	}
	req := repro.Request{
		Problem:      problem,
		Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
		OmitSolution: true,
	}
	concurrencies := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		concurrencies = append(concurrencies, g)
	}
	for _, jobs := range concurrencies {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			l := repro.NewLocal(repro.LocalConfig{Workers: jobs, QueueDepth: 4 * jobs})
			defer l.Close()
			// Populate the session cache so the benchmark measures served
			// solves, not one-time setup.
			if _, err := l.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			if st, _ := l.Stats(); st.CacheMisses != 1 {
				b.Fatalf("expected one cold miss, got %d", st.CacheMisses)
			}
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < jobs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := l.Solve(context.Background(), req); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if st, _ := l.Stats(); st.CacheMisses != 1 {
				b.Fatalf("timed loop missed the cache %d times", st.CacheMisses-1)
			}
			total := float64(jobs) * float64(b.N)
			b.ReportMetric(total/time.Since(start).Seconds(), "solves/s")
		})
	}
}

// BenchmarkAdaptivePlan measures what the self-tuning planner buys on a
// warm-cached 100×100 plate batch whose requested m = 1 is deliberately
// suboptimal (the paper's point: the best m is machine-dependent, so a
// static request pins the wrong one). The static row executes the request
// as written (tuning off); the adaptive row warms the tuner until it has
// measured every step count its decisions listed and chose on measured
// throughput, so the measured rhs/s is the steady state of the plan the
// feedback loop converged to — compare the rhs/s metrics; the m it settled
// on and the warm-up solves it took are reported metrics.
func BenchmarkAdaptivePlan(b *testing.B) {
	tractions := make([]float64, 8)
	for i := range tractions {
		tractions[i] = float64(i + 1)
	}
	mkReq := func(tuning string) repro.Request {
		return repro.Request{
			Plate:        &repro.PlateSpec{Rows: 100, Cols: 100, Tractions: tractions},
			Solver:       repro.SolverSpec{M: 1, Coeffs: "least-squares", Tol: 1e-5, Tuning: tuning},
			OmitSolution: true,
		}
	}
	rhs := float64(len(tractions))
	b.Run("static/m=1", func(b *testing.B) {
		l := repro.NewLocal(repro.LocalConfig{Workers: 1})
		defer l.Close()
		req := mkReq("off")
		if _, err := l.Solve(context.Background(), req); err != nil {
			b.Fatal(err) // cold solve pays assembly + interval estimation
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(rhs*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		b.ReportMetric(1, "executed-m")
	})
	b.Run("adaptive", func(b *testing.B) {
		l := repro.NewLocal(repro.LocalConfig{Workers: 1})
		defer l.Close()
		req := mkReq("adapt")
		// Warm-up: past the observation gate, until every step count any
		// warm-up decision listed has been measured and the last decision
		// chose on measured throughput, so the timed loop runs the settled
		// plan, not the exploration. Candidates follow the incumbent, so a
		// count can leave the list unmeasured and return later; measured
		// remembers every count listed so far. Untimed by design — the
		// benchmark measures the converged steady state, matching the
		// static row's warm-cache footing.
		const maxWarmup = 60
		measured := map[int]bool{}
		var settled repro.JobResult
		warmup := 0
		for ; !warmedUp(settled.Plan, measured, warmup == maxWarmup); warmup++ {
			if warmup == maxWarmup {
				b.Fatalf("tuner still exploring after %d warm-up solves: %+v", warmup, settled.Plan)
			}
			res, err := l.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			settled = res
			for _, c := range res.Plan.Candidates {
				measured[c.M] = measured[c.M] || c.Observations > 0
			}
			measured[res.Plan.M] = true // this solve measured the count it ran
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := l.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			settled = res
		}
		b.StopTimer()
		b.ReportMetric(rhs*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		b.ReportMetric(float64(settled.Plan.M), "executed-m")
		b.ReportMetric(float64(warmup), "warmup-solves")
	})
}

// warmedUp reports whether the adaptive warm-up may stop: pl is a tuner
// decision chosen on measured throughput (so every candidate it lists is
// measured: an unmeasured one always outscores it), and every step count
// in measured (each count a warm-up decision listed) has been measured. A
// count that left the list unmeasured returns only if the incumbent moves
// back next to it, which may never happen; at the warm-up cap the measured
// decision alone suffices, and warmup-solves reads the cap.
func warmedUp(pl *repro.PlanInfo, measured map[int]bool, capped bool) bool {
	if pl == nil || pl.Source != "measured" {
		return false
	}
	if capped {
		return true
	}
	for _, ok := range measured {
		if !ok {
			return false
		}
	}
	return true
}

// BenchmarkDecomposedSolve measures the decomposed backend on a warm-cached
// large plate, pinned to one subdomain versus one subdomain per core. The
// cache entry (and each subdomain count's memoized decomposition) is
// populated before the timed loop, so the ratio of the two sub-benchmarks
// is the parallel speedup of the solve itself — the number the CI bench
// artifact tracks across machines.
func BenchmarkDecomposedSolve(b *testing.B) {
	procs := []int{1}
	if g := runtime.NumCPU(); g > 1 {
		procs = append(procs, g)
	}
	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()
	for _, p := range procs {
		req := repro.Request{
			Plate:        &repro.PlateSpec{Rows: 200, Cols: 200},
			Solver:       repro.SolverSpec{M: 2, Tol: 1e-4, Backend: "decomposed", Subdomains: p},
			OmitSolution: true,
		}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			// One cold solve pays assembly, planning and decomposition.
			v, err := l.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if v.Backend != "decomposed" || v.Plan.Subdomains != p {
				b.Fatalf("plan %+v, want decomposed at P=%d", v.Plan, p)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Solve(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetThroughput measures the consistent-hash fleet router
// serving a warm working set through 1 node vs 3: requests for six
// distinct problems fan out by cache key, so each node holds only its
// share of the set and every repeat lands warm. The assertion after the
// timed loop proves the affinity claim — fleet-wide misses stay at the
// number of distinct problems no matter how many solves ran.
func BenchmarkFleetThroughput(b *testing.B) {
	var reqs []repro.Request
	for sz := 16; sz < 22; sz++ {
		reqs = append(reqs, repro.Request{
			Plate:        &repro.PlateSpec{Rows: sz, Cols: sz},
			Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
			OmitSolution: true,
		})
	}
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			_, _, cl := startFleetSolver(b, n)
			defer cl.Close()
			ctx := context.Background()
			// Cold pass: populate each owner's cache outside the timed loop.
			for _, req := range reqs {
				if _, err := cl.Solve(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			const clients = 4
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := cl.Solve(ctx, reqs[(g+i)%len(reqs)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			st, err := cl.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.CacheMisses != int64(len(reqs)) {
				b.Fatalf("fleet saw %d cold misses for %d problems: affinity broken", st.CacheMisses, len(reqs))
			}
			total := float64(clients) * float64(b.N)
			b.ReportMetric(total/time.Since(start).Seconds(), "solves/s")
		})
	}
}
