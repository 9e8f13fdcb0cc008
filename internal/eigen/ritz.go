package eigen

import (
	"math"

	"repro/internal/cg"
)

const (
	// settleFrom is the relative residual below which the tracker starts
	// checking. Earlier, λmin can sit on a plateau: on the 52² plate it
	// read 4× its final value at iteration 51 of 202 while changing less
	// than 10% per 5 iterations.
	settleFrom = 1e-2
	// settleEvery is the number of iterations between checks.
	settleEvery = 3
	// settleDelta is δ, the relative move of an extreme Ritz value that
	// counts as not yet settled: 1/100 of the 2% pad the engine puts on the
	// interval. It must sit far below the pad because λmin can converge
	// slowly, moving by just under δ per check for tens of iterations: at
	// δ = 1e-3 the stop left λmin up to 1e-2 above the relres-1e-6 estimate
	// on 72²–100² plates, at 2e-4 within 2.1e-3. Bisection after a move
	// resolves the new value to δ/10.
	settleDelta = 2e-4
)

// ritzTracker follows the extreme Ritz values of a running CG solve, for
// cg.Options.StopWhen. It extends the Lanczos tridiagonal from the α and β
// the solve records (cg.LanczosTridiagonal's formulas), and reports the run
// settled once neither extreme moved by more than δ relative across a
// check interval. Ritz values of nested tridiagonals interlace, so λmin
// only falls and λmax only rises: one Sturm count per end tells whether it
// moved past δ, and only an end that did is bisected again, within the
// bracket between its Gershgorin bound and its old value.
type ritzTracker struct {
	diag, off []float64
	lo, hi    float64 // extremes at the last check, to about δ/10
	checked   int     // iteration of the last check; 0 before the first
}

// settled is the cg.Options.StopWhen test.
func (t *ritzTracker) settled(_ int, st cg.Stats) bool {
	t.extend(st)
	k := len(t.diag)
	if t.checked == 0 {
		if st.FinalRelRes >= settleFrom {
			return false
		}
		glo, ghi := gershgorin(t.diag, t.off)
		t.lo = t.bisect(1, glo, ghi)
		t.hi = t.bisect(k, glo, ghi)
		t.checked = k
		return false
	}
	if k-t.checked < settleEvery {
		return false
	}
	t.checked = k
	below := t.lo - settleDelta*math.Abs(t.lo)
	above := t.hi + settleDelta*math.Abs(t.hi)
	loMoved := SturmCount(t.diag, t.off, below) >= 1 // λmin < below
	hiMoved := SturmCount(t.diag, t.off, above) < k  // λmax ≥ above
	if !loMoved && !hiMoved {
		return true
	}
	glo, ghi := gershgorin(t.diag, t.off)
	if loMoved {
		t.lo = t.bisect(1, glo, below)
	}
	if hiMoved {
		t.hi = t.bisect(k, above, ghi)
	}
	return false
}

// extend appends the tridiagonal's new rows: after iteration k the solve
// has recorded α₀…α_{k−1} and β₀…β_{k−2}, which fix the leading k×k block.
func (t *ritzTracker) extend(st cg.Stats) {
	a, b := st.CGAlphas, st.CGBetas
	for i := len(t.diag); i < len(a); i++ {
		d := 1 / a[i]
		if i > 0 {
			d += b[i-1] / a[i-1]
			t.off = append(t.off, math.Sqrt(b[i-1])/a[i-1])
		}
		t.diag = append(t.diag, d)
	}
}

// bisect returns the target-th smallest Ritz value from the bracket
// [a, b], to a relative width of δ/10.
func (t *ritzTracker) bisect(target int, a, b float64) float64 {
	return bisect(t.diag, t.off, target, a, b, func(a, b float64) bool {
		return b-a > settleDelta/10*math.Max(math.Abs(a), math.Abs(b))
	})
}
