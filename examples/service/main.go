// Service example: run the solver as an in-process service, fan requests
// at it concurrently, and watch the problem/preconditioner cache amortize
// setup — the second wave of identical solves skips plate assembly and
// spectral-interval estimation entirely.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro"
)

func main() {
	svc := repro.NewService(repro.ServiceConfig{Workers: 4})
	defer svc.Close()

	req := repro.SolveRequest{
		Plate:        &repro.PlateSpec{Rows: 30, Cols: 30},
		Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
		OmitSolution: true,
	}

	// Cold solve: assembles the plate, builds the splitting, estimates the
	// spectral interval, computes the least-squares coefficients.
	t0 := time.Now()
	v, err := svc.Solve(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold solve:  %-6s %3d iterations  cache_hit=%-5v  %v\n",
		v.State, v.Result.Iterations, v.CacheHit, time.Since(t0).Round(time.Millisecond))

	// Warm wave: 16 concurrent identical solves, all served from the cache.
	t0 = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(context.Background(), req); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("warm wave:   16 solves in %v\n", time.Since(t0).Round(time.Millisecond))

	// A general system rides the same queue; a key opts it into the cache.
	gen := repro.SolveRequest{
		System: &repro.SystemSpec{
			N:   3,
			I:   []int{0, 1, 2, 0, 1, 1, 2},
			J:   []int{0, 1, 2, 1, 0, 2, 1},
			V:   []float64{4, 4, 4, -1, -1, -1, -1},
			F:   []float64{1, 0, 0},
			Key: "tridiag3",
		},
		Solver: repro.SolverSpec{M: 2, Splitting: "jacobi", RelResidualTol: 1e-12},
	}
	v, err = svc.Solve(context.Background(), gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("general:     %-6s u = %.4f\n", v.State, v.Result.U)

	// Requests pick their matvec storage: "dia" forces the paper's
	// diagonal (CYBER-style) layout, "csr" row storage, and the default
	// "auto" probes the matrix — it keeps the plate, whose diagonals are
	// only a quarter filled, on CSR and picks DIA for dense stencils. The
	// cache entry keeps the DIA conversion next to the CSR, so repeated
	// backend-opted solves never re-convert.
	diaReq := req
	diaReq.Solver.Backend = "dia"
	v, err = svc.Solve(context.Background(), diaReq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dia backend: %-6s %3d iterations  backend=%s\n",
		v.State, v.Result.Iterations, v.Result.Backend)

	st := svc.Stats()
	fmt.Printf("stats:       %d done, cache %d/%d hit/miss (rate %.2f), p50 %s, p99 %s, backends csr=%d dia=%d\n",
		st.JobsDone, st.CacheHits, st.CacheMisses, st.CacheHitRate,
		time.Duration(float64(time.Second)*st.LatencyP50).Round(time.Microsecond),
		time.Duration(float64(time.Second)*st.LatencyP99).Round(time.Microsecond),
		st.SolvesCSR, st.SolvesDIA)
}
