package cg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// referenceSolve is the scalar PCG loop of Algorithm 1 written out on the
// single-vector vec kernels and the operator's serial MulVecTo: the loop
// the block driver replaced, kept as the reference every column of every
// layout must reproduce bit for bit. Its MatVecs count the product with
// the zero start, which the driver skips.
func referenceSolve(k sparse.Operator, f []float64, m precond.Preconditioner, opt Options) ([]float64, Stats, error) {
	n, _ := k.Dims()
	u, r, rhat, p, kp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	st := Stats{TrueRelRes: -1}

	// r⁰ = f − K u⁰ ; M r̂⁰ = r⁰ ; p⁰ = r̂⁰
	k.MulVecTo(kp, u)
	st.MatVecs++
	vec.Sub(r, f, kp)
	m.Apply(rhat, r)
	st.PrecondApps++
	copy(p, rhat)
	normF := vec.Norm2(f)
	if normF == 0 {
		normF = 1
	}
	rho := vec.Dot(rhat, r)
	st.InnerProducts++
	switch {
	case rho < 0:
		return u, st, ErrBreakdownPrecond
	case rho == 0:
		st.Converged = true
		return u, st, nil
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		k.MulVecTo(kp, p)
		st.MatVecs++
		pkp := vec.Dot(p, kp)
		st.InnerProducts++
		if pkp <= 0 {
			return u, st, ErrBreakdownMatrix
		}
		alpha := rho / pkp
		st.CGAlphas = append(st.CGAlphas, alpha)
		vec.Axpy(alpha, p, u)
		st.Iterations++
		st.FinalUDiff = math.Abs(alpha) * vec.NormInf(p)
		vec.Axpy(-alpha, kp, r)
		st.FinalRelRes = vec.Norm2(r) / normF
		if (opt.Tol > 0 && st.FinalUDiff < opt.Tol) || (opt.RelResidualTol > 0 && st.FinalRelRes < opt.RelResidualTol) {
			st.Converged = true
			return u, st, nil
		}
		m.Apply(rhat, r)
		st.PrecondApps++
		rhoNext := vec.Dot(rhat, r)
		st.InnerProducts++
		if rhoNext < 0 {
			return u, st, ErrBreakdownPrecond
		}
		if rhoNext == 0 {
			st.Converged = true
			return u, st, nil
		}
		beta := rhoNext / rho
		st.CGBetas = append(st.CGBetas, beta)
		rho = rhoNext
		vec.Xpay(rhat, beta, p)
	}
	return u, st, ErrMaxIterations
}

// TestRecurrenceMatchesReference runs the one recurrence through every
// entry point, layout, storage and preconditioner, at batch widths 1, 2, 3
// and 8, under the active kernel set, and requires every column to
// reproduce the reference loop bit for bit: iterate, iteration count,
// recurrence coefficients and final stopping quantities. The columns'
// scales differ by decades, so under the absolute tolerance they converge
// at different iterations and deflation runs in every block.
func TestRecurrenceMatchesReference(t *testing.T) {
	plate, err := fem.NewPlate(7, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(plate.KColored, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	ls, err := poly.LeastSquares(3, 0.01, 1.02)
	if err != nil {
		t.Fatal(err)
	}
	ssor, err := precond.NewMStep(mc, ls)
	if err != nil {
		t.Fatal(err)
	}
	// Two Jacobi steps are definite only while the spectrum of D⁻¹K stays
	// below 2, which holds for the 5-point Laplacian but not the plate.
	poisson := model.Poisson2D(9, 8)
	jac, err := splitting.NewJacobi(poisson)
	if err != nil {
		t.Fatal(err)
	}
	jacobi, err := precond.NewMStep(jac, poly.Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name   string
		k      *sparse.CSR
		pc     precond.Preconditioner
		panels bool // the preconditioner has the fused interleaved sweep
	}{
		{"plate/identity", plate.KColored, precond.Identity{}, true},
		{"plate/ssor-ls3", plate.KColored, ssor, true},
		{"poisson/jacobi2", poisson, jacobi, false},
	}

	const maxS = 8
	opt := Options{Tol: 1e-9, MaxIter: 2000}
	for _, sys := range systems {
		n := sys.k.Rows
		rng := rand.New(rand.NewSource(7))
		f := vec.NewMulti(n, maxS)
		for j := 0; j < maxS; j++ {
			scale := math.Pow(10, float64(j%3-1))
			for i := range f.Col(j) {
				f.Col(j)[i] = scale * rng.NormFloat64()
			}
		}
		for _, op := range []sparse.Operator{sys.k, sparse.MustDIAFromCSR(sys.k)} {
			var ref [maxS][]float64
			var refSt [maxS]Stats
			for j := 0; j < maxS; j++ {
				if ref[j], refSt[j], err = referenceSolve(op, f.Col(j), sys.pc, opt); err != nil {
					t.Fatalf("%s %T reference col %d: %v", sys.name, op, j, err)
				}
			}
			for _, s := range []int{1, 2, 3, 8} {
				for _, interleave := range []bool{false, true} {
					name := fmt.Sprintf("%s/%T/s=%d/interleave=%v", sys.name, op, s, interleave)
					bopt := opt
					bopt.Interleave = interleave
					fs := &vec.Multi{N: n, S: s, Data: f.Data[:n*s]}
					u := vec.NewMulti(n, s)
					st, err := SolveBlockInto(u, op, fs, sys.pc, bopt, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := interleave && sys.panels; st.Interleaved != want {
						t.Fatalf("%s: Interleaved = %v, want %v", name, st.Interleaved, want)
					}
					for j := 0; j < s; j++ {
						sameColumn(t, fmt.Sprintf("%s col %d", name, j), u.Col(j), st.Cols[j], ref[j], refSt[j])
					}
					if s == 1 {
						u1 := make([]float64, n)
						st1, err := SolveInto(u1, op, f.Col(0), sys.pc, bopt, nil)
						if err != nil {
							t.Fatalf("%s SolveInto: %v", name, err)
						}
						sameColumn(t, name+" SolveInto", u1, st1, ref[0], refSt[0])
					}
				}
			}
		}
	}
}

// sameColumn fails unless one column's solve equals the reference bitwise.
func sameColumn(t *testing.T, name string, u []float64, st Stats, ref []float64, refSt Stats) {
	t.Helper()
	if !st.Converged || st.Iterations != refSt.Iterations ||
		st.FinalUDiff != refSt.FinalUDiff || st.FinalRelRes != refSt.FinalRelRes {
		t.Fatalf("%s: converged=%v iterations %d udiff %g relres %g, reference %d %g %g",
			name, st.Converged, st.Iterations, st.FinalUDiff, st.FinalRelRes,
			refSt.Iterations, refSt.FinalUDiff, refSt.FinalRelRes)
	}
	if !bitsEqual(st.CGAlphas, refSt.CGAlphas) || !bitsEqual(st.CGBetas, refSt.CGBetas) {
		t.Fatalf("%s: recurrence coefficients differ from the reference", name)
	}
	if !bitsEqual(u, ref) {
		t.Fatalf("%s: iterate differs from the reference", name)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
