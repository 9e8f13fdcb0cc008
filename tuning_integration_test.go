package repro_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
)

// TestTuningEvidenceLocalAndRemote is the end-to-end check for the
// self-tuning planner's explanation surface: after enough warm solves of
// one problem, the plan — through the in-process solver AND through
// POST /v1/plan via the HTTP client SDK — explains its decision with the
// candidate table (measured throughput, observation counts, the chosen
// plan), and so does the result of the solve that ran it.
func TestTuningEvidenceLocalAndRemote(t *testing.T) {
	local, remote := solverPair(t)
	ctx := context.Background()

	req := repro.Request{
		Plate:  &repro.PlateSpec{Rows: 10, Cols: 10, Tractions: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		Solver: repro.SolverSpec{M: 2, Coeffs: "least-squares", Tol: 1e-7, Tuning: "adapt"},
	}

	for name, sv := range map[string]repro.Solver{"local": local, "remote": remote} {
		t.Run(name, func(t *testing.T) {
			// Cold: no evidence yet — the plan is purely static.
			cold, err := sv.Plan(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Tuning != "adapt" || cold.Source != "static" || len(cold.Candidates) != 0 {
				t.Fatalf("cold plan already carries evidence: %+v", cold)
			}

			// Warm the problem past the observation gate.
			var last repro.JobResult
			for i := 0; i < 7; i++ {
				res, err := sv.Solve(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("solve %d not converged", i)
				}
				last = res
			}

			// Warm: the offline plan explains itself.
			warm, err := sv.Plan(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Tuning != "adapt" {
				t.Fatalf("warm plan policy wrong: %+v", warm)
			}
			if len(warm.Candidates) < 2 {
				t.Fatalf("warm plan has %d candidates, want the neighborhood", len(warm.Candidates))
			}
			chosen, measured := 0, 0
			for _, c := range warm.Candidates {
				if c.Chosen {
					chosen++
				}
				if c.Observations > 0 {
					measured++
					if c.MeasuredRHSPerSec <= 0 || c.SecondsPerIteration <= 0 {
						t.Fatalf("measured candidate without throughput evidence: %+v", c)
					}
				}
			}
			if chosen != 1 {
				t.Fatalf("%d chosen candidates, want exactly 1", chosen)
			}
			if measured == 0 {
				t.Fatal("no candidate carries measurements after 7 solves")
			}

			// The executed result carries the same evidence surface.
			if last.Plan == nil {
				t.Fatal("result missing plan")
			}
			if last.Plan.Tuning != "adapt" || len(last.Plan.Candidates) == 0 {
				t.Fatalf("executed plan missing evidence: %+v", last.Plan)
			}
		})
	}
}

// TestTuningOffParityLocalVsClient extends the parity contract to the
// tuning knob: with tuning off both solvers return the static plan,
// identical across the boundary and across repeated warm solves.
func TestTuningOffParityLocalVsClient(t *testing.T) {
	local, remote := solverPair(t)
	ctx := context.Background()

	req := repro.Request{
		Plate:  &repro.PlateSpec{Rows: 10, Cols: 10, Tractions: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		Solver: repro.SolverSpec{M: 2, Coeffs: "least-squares", Tol: 1e-7, Tuning: "off"},
	}
	var plans []repro.PlanInfo
	for i := 0; i < 7; i++ {
		if _, err := local.Solve(ctx, req); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.Solve(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	lp, err := local.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := remote.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, lp, rp)
	for _, p := range plans {
		if p.Tuning != "off" || p.Source != "static" || len(p.Candidates) != 0 {
			t.Fatalf("off-mode plan not static: %+v", p)
		}
	}
	if !reflect.DeepEqual(lp, rp) {
		t.Fatalf("off-mode plans differ across the boundary:\nlocal:  %+v\nremote: %+v", lp, rp)
	}
}
