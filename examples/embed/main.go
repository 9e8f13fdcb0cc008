// Example embed: the in-process solver session. One repro.NewLocal
// session serves repeated solves of one assembled problem the way the
// solverd daemon would — the first request pays for structure probing, the
// spectral interval and the preconditioner build; every later request hits
// the session cache and only iterates — and streams a batch's
// per-case results as the columns converge, all without running a daemon.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	solver := repro.NewLocal(repro.LocalConfig{Workers: 2})
	defer solver.Close()
	ctx := context.Background()

	// Assemble once; the session caches the prepared problem (structure
	// probe, spectral interval, preconditioners) under its identity.
	problem, err := repro.NewPlateProblem(60, 60)
	if err != nil {
		log.Fatal(err)
	}
	req := repro.Request{
		Problem: problem,
		Solver:  repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
	}

	// The plan is available before solving anything.
	plan, err := solver.Plan(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: backend=%s workers=%d m=%d\n", plan.Backend, plan.Workers, plan.M)

	// Cold solve: builds the interval and the preconditioner (planning
	// built neither). Warm solves reuse everything.
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := solver.Solve(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		st, _ := solver.Stats()
		fmt.Printf("solve %d: %3d iterations in %7.1fms  (cache hits/misses %d/%d)\n",
			i+1, res.Iterations, float64(time.Since(start).Microseconds())/1000, st.CacheHits, st.CacheMisses)
	}

	// Batched load cases stream per-case results the moment each column
	// of the shared block solve converges.
	batch := repro.Request{
		Problem:      problem,
		Fs:           scaledLoads(problem, 1, 0.5, -2, 1e-6),
		Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
		OmitSolution: true,
	}
	err = solver.SolveStream(ctx, batch, func(ev repro.CaseEvent) {
		if ev.Done != nil {
			fmt.Printf("batch done: %d/%d cases converged\n", ev.Done.CasesDone, ev.Done.CasesTotal)
			return
		}
		fmt.Printf("  case %d converged after %d iterations\n", ev.Case, ev.Result.Iterations)
	})
	if err != nil {
		log.Fatal(err)
	}

	st, _ := solver.Stats()
	fmt.Printf("session: %d jobs, cache hit rate %.0f%%\n", st.JobsDone, 100*st.CacheHitRate)
}

// scaledLoads returns the problem's assembled load rescaled per case.
func scaledLoads(p *repro.Problem, scales ...float64) [][]float64 {
	base := p.F()
	fs := make([][]float64, len(scales))
	for j, s := range scales {
		fs[j] = make([]float64, len(base))
		for i, v := range base {
			fs[j][i] = s * v
		}
	}
	return fs
}
