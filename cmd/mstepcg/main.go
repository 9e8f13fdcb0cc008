// Command mstepcg solves the paper's plane-stress plate problem with the
// m-step preconditioned conjugate gradient method and reports convergence
// statistics.
//
// Usage:
//
//	mstepcg -rows 20 -cols 20 -m 4 -coeffs ls -tol 1e-6 [-splitting multicolor] [-history]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/engine"
	"repro/internal/fem"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mstepcg: ")
	var (
		rows      = flag.Int("rows", 20, "rows of nodes")
		cols      = flag.Int("cols", 20, "columns of nodes")
		m         = flag.Int("m", 3, "preconditioner steps (0 = plain CG)")
		coeffs    = flag.String("coeffs", "ones", "coefficients: ones | ls | cheb")
		split     = flag.String("splitting", "multicolor", "splitting: multicolor | natural | jacobi")
		omega     = flag.Float64("omega", 1, "natural SSOR relaxation parameter")
		tol       = flag.Float64("tol", 1e-6, "‖Δu‖∞ stopping tolerance (paper's test)")
		maxIter   = flag.Int("maxiter", 0, "iteration cap (0 = 10n)")
		history   = flag.Bool("history", false, "print per-iteration convergence history")
		condition = flag.Bool("cond", false, "estimate κ(M⁻¹K) from the run")
	)
	flag.Parse()

	cfg := core.Config{M: *m, Omega: *omega, Tol: *tol, MaxIter: *maxIter, History: *history}
	switch *coeffs {
	case "ones":
		cfg.Coeffs = core.Unparametrized
	case "ls":
		cfg.Coeffs = core.LeastSquaresCoeffs
	case "cheb":
		cfg.Coeffs = core.ChebyshevCoeffs
	default:
		log.Fatalf("unknown -coeffs %q (want ones|ls|cheb)", *coeffs)
	}
	switch *split {
	case "multicolor":
		cfg.Splitting = core.SSORMulticolor
	case "natural":
		cfg.Splitting = core.SSORNatural
	case "jacobi":
		cfg.Splitting = core.JacobiSplitting
	default:
		log.Fatalf("unknown -splitting %q (want multicolor|natural|jacobi)", *split)
	}

	sys, plate, err := core.PlateSystem(*rows, *cols, fem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plate: %d×%d nodes, %d equations, %d nonzeros\n",
		*rows, *cols, plate.N(), plate.KColored.NNZ())

	results, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: cfg})
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	res := results[0]
	fmt.Printf("preconditioner: %s\n", res.Precond)
	if res.Alphas.M() > 0 && cfg.Coeffs != core.Unparametrized {
		fmt.Printf("interval: [%.4f, %.4f]  α = %.4v\n", res.Interval.Lo, res.Interval.Hi, res.Alphas.Coeffs)
	}
	fmt.Printf("iterations: %d  converged: %v\n", res.Stats.Iterations, res.Stats.Converged)
	fmt.Printf("final ‖Δu‖∞: %.3e  final ‖r‖/‖f‖: %.3e\n", res.Stats.FinalUDiff, res.Stats.FinalRelRes)
	fmt.Printf("inner products: %d  matvecs: %d  preconditioner applications: %d\n",
		res.Stats.InnerProducts, res.Stats.MatVecs, res.Stats.PrecondApps)
	if *history {
		for i := range res.Stats.UDiffHistory {
			fmt.Printf("  iter %4d: ‖Δu‖∞ = %.3e  ‖r‖/‖f‖ = %.3e\n",
				i+1, res.Stats.UDiffHistory[i], res.Stats.ResidualHistory[i])
		}
	}
	if *condition {
		lo, hi, kappa, err := eigen.CondFromCGStats(res.Stats)
		if err != nil {
			log.Fatalf("condition estimate: %v", err)
		}
		fmt.Printf("spectrum of M⁻¹K ≈ [%.4g, %.4g], κ ≈ %.2f\n", lo, hi, kappa)
	}
}
