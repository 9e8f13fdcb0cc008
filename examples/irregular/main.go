// Irregular regions — the paper's §5 open problem: "applying the method to
// irregular regions since the grid must be colored". This example colors an
// L-shaped plate and a plate with a hole using a greedy graph colorer,
// builds the general multicolor ordering, and runs the m-step SSOR PCG
// method on the result via the internal packages the library is built
// from.
package main

import (
	"fmt"
	"log"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/femachine"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/splitting"
)

func solveShape(name string, d mesh.Domain) {
	p, err := fem.NewDomainProblem(d, mesh.LeftEdgeClamped, fem.Material{})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("%s: %d active cells, %d equations, %d node colors (greedy)\n",
		name, d.NumActiveCells(), p.N(), p.NumColors)

	mc, err := splitting.NewSixColorSSOR(p.KColored, p.GroupStart)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	rhs := p.ColoredRHS()
	solve := func(m int, param bool) int {
		var pc precond.Preconditioner = precond.Identity{}
		if m > 0 {
			a := poly.Ones(m)
			if param {
				iv, err := core.IntervalFor(mc, core.Config{})
				if err != nil {
					log.Fatal(err)
				}
				a, err = poly.LeastSquares(m, iv.Lo, iv.Hi)
				if err != nil {
					log.Fatal(err)
				}
			}
			pc, err = precond.NewMStep(mc, a)
			if err != nil {
				log.Fatal(err)
			}
		}
		_, st, err := cg.Solve(p.KColored, rhs, pc, cg.Options{Tol: 1e-6, MaxIter: 100000})
		if err != nil {
			log.Fatalf("%s m=%d: %v", name, m, err)
		}
		return st.Iterations
	}
	fmt.Printf("  CG: %d iterations   1-step SSOR: %d   4-step LS: %d\n",
		solve(0, false), solve(1, false), solve(4, true))

	// The same irregular problem distributed across the Finite Element
	// Machine: greedy-colored sweeps with border exchanges per color pair.
	var t1 float64
	for _, procs := range []int{1, 2, 4} {
		strat := mesh.RowStrips
		if procs == 4 {
			strat = mesh.ColStrips
		}
		cfg := femachine.Config{
			P: procs, Strategy: strat, M: 2, Alphas: poly.Ones(2).Coeffs,
			Tol: 1e-6, MaxIter: 100000, Time: femachine.DefaultTimeModel(),
		}
		mach, err := femachine.NewDomainMachine(p, mesh.LeftEdgeClamped, cfg)
		if err != nil {
			log.Fatalf("%s P=%d: %v", name, procs, err)
		}
		res, err := mach.Run()
		if err != nil {
			log.Fatalf("%s P=%d: %v", name, procs, err)
		}
		if procs == 1 {
			t1 = res.SimTime
		}
		fmt.Printf("  machine P=%d: %d iterations, %.4fs, speedup %.2f\n",
			procs, res.Iterations, res.SimTime, t1/res.SimTime)
	}
	fmt.Println()
}

func main() {
	solveShape("L-shaped plate", mesh.LShapedDomain(mesh.NewGrid(17, 17)))
	solveShape("plate with hole", mesh.DomainWithHole(mesh.NewGrid(17, 17), 0.4))
}
