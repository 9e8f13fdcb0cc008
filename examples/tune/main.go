// Self-tuning example: run the same batched problem repeatedly and watch
// the planner close the loop — the cold plan is the planner's static
// decision; every warm solve feeds its realized rhs/s back into the
// tuner; past the observation gate the planner explores the static plans
// at neighbouring step counts and executes the best measured candidate
// (tile width, fan-out, layout and backend stay the static planner's), and
// the plan explains itself with the evidence it used (the paper's point,
// live: the best m is measured, not assumed).
//
// Turn the loop off with Tuning: "off" for bit-identical static plans.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	sv := repro.NewLocal(repro.LocalConfig{Workers: 2})
	defer sv.Close()
	ctx := context.Background()

	// One small plate, eight load cases, a deliberately low m = 1: on most
	// machines a few more preconditioner steps per iteration pay for
	// themselves, so the tuner has something real to find.
	req := repro.Request{
		Plate: &repro.PlateSpec{
			Rows: 20, Cols: 20,
			Tractions: []float64{1, 2, 3, 4, 5, 6, 7, 8},
		},
		Solver:       repro.SolverSpec{M: 1, Coeffs: "least-squares", Tol: 1e-7, Tuning: "adapt"},
		OmitSolution: true,
	}

	// Cold: the plan is purely static — no evidence exists yet.
	cold, err := sv.Plan(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold plan: backend=%s m=%d workers=%d tiles=%v source=%s\n\n",
		cold.Backend, cold.M, cold.Workers, cold.Tiles, cold.Source)

	// The closed loop: every solve executes whatever the tuner picks and
	// feeds the measured throughput back in. Print each time the executed
	// plan changes shape.
	lastM, lastSrc := cold.M, cold.Source
	fmt.Println("solving the same batch 25 times:")
	for i := 0; i < 25; i++ {
		res, err := sv.Solve(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		p := res.Plan
		if p != nil && (p.M != lastM || p.Source != lastSrc) {
			fmt.Printf("  solve %2d: plan moved to m=%d (source=%s)\n", i, p.M, p.Source)
			lastM, lastSrc = p.M, p.Source
		}
	}

	// Warm: the plan now carries the candidate table it decided from.
	warm, err := sv.Plan(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwarm plan: m=%d source=%s (%d candidates considered)\n",
		warm.M, warm.Source, len(warm.Candidates))
	fmt.Println("\n  m  tile  workers  interleave  obs  measured rhs/s  chosen")
	for _, c := range warm.Candidates {
		chosen := ""
		if c.Chosen {
			chosen = "  <--"
		}
		fmt.Printf("  %d  %4d  %7d  %10v  %3d  %14.1f%s\n",
			c.M, c.TileWidth, c.Workers, c.Interleave, c.Observations,
			c.MeasuredRHSPerSec, chosen)
	}
}
