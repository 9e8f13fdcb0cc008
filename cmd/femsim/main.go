// Command femsim runs the m-step SSOR PCG method on the simulated Finite
// Element Machine and reports times, speedups and the overhead breakdown.
//
// Usage:
//
//	femsim -rows 6 -cols 6 -m 2 -procs 1,2,5 [-param] [-ring]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/femachine"
	"repro/internal/mesh"
	"repro/internal/poly"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("femsim: ")
	var (
		rows     = flag.Int("rows", 6, "rows of nodes")
		cols     = flag.Int("cols", 6, "columns of nodes")
		m        = flag.Int("m", 2, "preconditioner steps (0 = plain CG)")
		param    = flag.Bool("param", false, "least-squares parametrized coefficients")
		procSpec = flag.String("procs", "1,2,5", "comma-separated processor counts")
		tol      = flag.Float64("tol", 1e-6, "‖Δu‖∞ stopping tolerance")
		ring     = flag.Bool("ring", false, "replace the sum/max circuit with an O(P) software ring")
	)
	flag.Parse()

	var procs []int
	for _, s := range strings.Split(*procSpec, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			log.Fatalf("bad processor count %q", s)
		}
		procs = append(procs, p)
	}

	plate, err := fem.NewPlate(*rows, *cols, fem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var alphas []float64
	if *m > 0 {
		if *param {
			sys := core.System{K: plate.KColored, F: plate.ColoredRHS(), GroupStart: plate.Ordering.GroupStart[:]}
			sp, err := core.BuildSplitting(sys, core.Config{Splitting: core.SSORMulticolor})
			if err != nil {
				log.Fatal(err)
			}
			iv, err := core.IntervalFor(sp, core.Config{})
			if err != nil {
				log.Fatal(err)
			}
			a, err := poly.LeastSquares(*m, iv.Lo, iv.Hi)
			if err != nil {
				log.Fatal(err)
			}
			alphas = a.Coeffs
			fmt.Printf("least-squares α over [%.4f, %.4f]: %.4v\n", iv.Lo, iv.Hi, alphas)
		} else {
			alphas = poly.Ones(*m).Coeffs
		}
	}

	tm := femachine.DefaultTimeModel()
	tm.SoftwareReduce = *ring
	fmt.Printf("plate: %d×%d nodes, %d equations   m = %d   reduce: %s\n",
		*rows, *cols, plate.N(), *m, map[bool]string{false: "sum/max circuit", true: "software ring"}[*ring])
	fmt.Printf("%3s %8s %12s %8s %12s %12s %12s\n", "P", "iters", "time(s)", "speedup", "precondComm", "haloComm", "reduceWait")

	var t1 float64
	for _, p := range procs {
		strat := mesh.RowStrips
		if p > *rows/2 {
			strat = mesh.ColStrips
		}
		cfg := femachine.Config{P: p, Strategy: strat, M: *m, Alphas: alphas, Tol: *tol, MaxIter: 100000, Time: tm}
		mach, err := femachine.New(plate, cfg)
		if err != nil {
			log.Fatalf("P=%d: %v", p, err)
		}
		res, err := mach.Run()
		if err != nil {
			log.Fatalf("P=%d: %v", p, err)
		}
		if p == procs[0] {
			t1 = res.SimTime * float64(p) // normalize if first count isn't 1
			if procs[0] == 1 {
				t1 = res.SimTime
			}
		}
		fmt.Printf("%3d %8d %12.4f %8.2f %12.4f %12.4f %12.4f\n",
			p, res.Iterations, res.SimTime, t1/res.SimTime,
			res.PrecondCommTime, res.HaloCommTime, res.ReduceWaitTime)
	}
}
