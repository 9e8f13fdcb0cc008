// Domain-decomposed solve: run the Finite Element Machine for real. The
// planner is asked for its verdict first, then the same request is pinned
// to the "decomposed" backend — the plate is partitioned into row strips,
// each owned by a goroutine processor that runs the multicolor SSOR m-step
// sweep on its own rows, exchanges true border values with its neighbors,
// and combines inner products up a reduction tree. Afterwards the job's
// trace is replayed to show where each subdomain spent its time.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()

	// Four goroutine processors: real parallelism on a multicore host, and
	// still a faithful exchange/reduce schedule on a single core.
	const p = 4
	req := repro.Request{
		Plate:  &repro.PlateSpec{Rows: 40, Cols: 40},
		Solver: repro.SolverSpec{M: 2, Tol: 1e-6, Backend: "decomposed", Subdomains: p},
	}

	// What would the planner do on its own? Auto never picks the
	// decomposed backend, so only the explicit backend runs it.
	ctx := context.Background()
	auto := req
	auto.Solver.Backend = ""
	auto.Solver.Subdomains = 0
	pi, err := l.Plan(ctx, auto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto plan:   backend=%s (plate fits one matrix)\n", pi.Backend)
	pi, err = l.Plan(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned plan: backend=%s subdomains=%d\n\n", pi.Backend, pi.Subdomains)

	res, err := l.Solve(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %d iterations (‖Δu‖∞ = %.2e) across %d subdomains\n\n",
		res.Iterations, res.FinalUDiff, res.Plan.Subdomains)

	// The trace records one closed span per subdomain and stage: time in
	// border exchanges, in local sweeps, and waiting on tree reductions.
	ti, err := l.Trace(ctx, res.JobID)
	if err != nil {
		log.Fatal(err)
	}
	stage := map[int]map[string]float64{}
	for _, sp := range ti.Spans {
		switch sp.Name {
		case "halo_exchange", "local_sweep", "reduce":
			r, _ := sp.Attrs["subdomain"].(int)
			if stage[r] == nil {
				stage[r] = map[string]float64{}
			}
			stage[r][sp.Name] += sp.DurationSeconds
		case "decompose":
			fmt.Printf("decompose: %v subdomains, halo fraction %v\n",
				sp.Attrs["subdomains"], sp.Attrs["halo_fraction"])
		}
	}
	fmt.Printf("\n%-10s %14s %14s %14s\n", "subdomain", "sweep (ms)", "halo (ms)", "reduce (ms)")
	for r := 0; r < res.Plan.Subdomains; r++ {
		s := stage[r]
		fmt.Printf("%-10d %14.3f %14.3f %14.3f\n",
			r, 1e3*s["local_sweep"], 1e3*s["halo_exchange"], 1e3*s["reduce"])
	}
}
