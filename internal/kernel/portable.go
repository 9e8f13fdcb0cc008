package kernel

import "math"

// The portable set: straightforward loops in the exact arithmetic order the
// rest of the library is specified against. The unrolled set must
// reproduce these bit for bit (see the package comment).

func portableDot(x, y []float64) float64 {
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

func portableAxpy(a float64, x, y []float64) {
	for i, xi := range x {
		y[i] += a * xi
	}
}

func portableXpay(x []float64, a float64, y []float64) {
	for i, xi := range x {
		y[i] = xi + a*y[i]
	}
}

func portableGatherDot32(val []float64, idx []int32, x []float64) float64 {
	var s float64
	for k, v := range val {
		s += v * x[idx[k]]
	}
	return s
}

func portableInterleave(dst []float64, st int, src []float64, n, s int) {
	for i := 0; i < n; i++ {
		row := dst[i*st : i*st+s]
		for j := range row {
			row[j] = src[j*n+i]
		}
	}
}

func portableDeinterleave(dst []float64, n, s int, src []float64, st int) {
	for i := 0; i < n; i++ {
		row := src[i*st : i*st+s]
		for j, v := range row {
			dst[j*n+i] = v
		}
	}
}

func portableDotI(x, y []float64, st, n, s int, dst []float64) {
	for j := 0; j < s; j++ {
		dst[j] = 0
	}
	for i := 0; i < n; i++ {
		xr := x[i*st : i*st+s]
		yr := y[i*st : i*st+s]
		for j, xv := range xr {
			dst[j] += xv * yr[j]
		}
	}
}

func portableAxpyI(alphas []float64, x, y []float64, st, n, s int) {
	for i := 0; i < n; i++ {
		xr := x[i*st : i*st+s]
		yr := y[i*st : i*st+s]
		for j, xv := range xr {
			yr[j] += alphas[j] * xv
		}
	}
}

func portableXpayI(x []float64, betas []float64, y []float64, st, n, s int) {
	for i := 0; i < n; i++ {
		xr := x[i*st : i*st+s]
		yr := y[i*st : i*st+s]
		for j, xv := range xr {
			yr[j] = xv + betas[j]*yr[j]
		}
	}
}

// norm2I and normInfI walk each live column i-ascending at stride st —
// exactly vec.Norm2/NormInf's recurrences on a strided view. The norms run
// once per solve iteration against O(n·s) kernel work, so neither has an
// unrolled variant; both sets share these.
func norm2I(x []float64, st, n, s int, dst []float64) {
	for j := 0; j < s; j++ {
		var scale float64
		ssq := 1.0
		for i := 0; i < n; i++ {
			xi := x[i*st+j]
			if xi == 0 {
				continue
			}
			a := math.Abs(xi)
			if scale < a {
				r := scale / a
				ssq = 1 + ssq*r*r
				scale = a
			} else {
				r := a / scale
				ssq += r * r
			}
		}
		dst[j] = scale * math.Sqrt(ssq)
	}
}

func normInfI(x []float64, st, n, s int, dst []float64) {
	for j := 0; j < s; j++ {
		var m float64
		for i := 0; i < n; i++ {
			if a := math.Abs(x[i*st+j]); a > m {
				m = a
			}
		}
		dst[j] = m
	}
}

func portableSpMMCSRI(rowptr, colidx []int, val []float64, x []float64, xs int, dst []float64, ds int, lo, hi, s int) {
	for i := lo; i < hi; i++ {
		dr := dst[i*ds : i*ds+s]
		for j := range dr {
			dr[j] = 0
		}
		for k := rowptr[i]; k < rowptr[i+1]; k++ {
			v := val[k]
			xr := x[colidx[k]*xs : colidx[k]*xs+s]
			for j, xv := range xr {
				dr[j] += v * xv
			}
		}
	}
}

// portableSweepCSRI is the interleaved Conrad–Wallach m-step sweep
// (Algorithm 2): forward color sweeps cache the lower block sums in y for
// the backward half-sweep and vice versa, the backward sweep skips the last
// color (identical re-solve), and the backward color-1 solve is elided on
// steps 1..m−1. Each block sum scans one side of the row's diagonal entry
// (SweepArgs.DiagPos). Per-column arithmetic order is the one every sweep
// reproduces exactly, the one-column sweep at s = st = 1 (splitting's
// ApplyMStep) included; only the memory layout differs — the s per-column
// block sums of one gathered row read from adjacent elements.
func portableSweepCSRI(a *SweepArgs, rhat, r, y []float64, st, n, s int) {
	m := len(a.Alphas)
	ng := len(a.Start) - 1
	for i := 0; i < n; i++ {
		zeroRow(rhat[i*st:i*st+s], y[i*st:i*st+s])
	}
	for step := 1; step <= m; step++ {
		alpha := a.Alphas[m-step]
		// Forward half-sweep: x = fresh lower block sums, y = cached upper
		// sums from the previous backward half-sweep.
		for c := 0; c < ng; c++ {
			lo, hi := a.Start[c], a.Start[c+1]
			cache := c < ng-1
			for i := lo; i < hi; i++ {
				rs, dp := a.RowPtr[i], a.DiagPos[i]
				di := a.Diag[i]
				rr := r[i*st : i*st+s]
				rh := rhat[i*st : i*st+s]
				yy := y[i*st : i*st+s]
				for j := range rh {
					var sum float64
					for k := rs; k < dp; k++ {
						sum -= a.Val[k] * rhat[a.ColIdx[k]*st+j]
					}
					rh[j] = (sum + yy[j] + alpha*rr[j]) / di
					if cache {
						yy[j] = sum
					}
				}
			}
		}
		// Backward half-sweep: colors descending, skipping the last color;
		// the color-1 solve is elided until the final step.
		for c := ng - 2; c >= 0; c-- {
			lo, hi := a.Start[c], a.Start[c+1]
			solve := c > 0 || step == m
			for i := lo; i < hi; i++ {
				dp, re := a.DiagPos[i], a.RowPtr[i+1]
				di := a.Diag[i]
				rr := r[i*st : i*st+s]
				rh := rhat[i*st : i*st+s]
				yy := y[i*st : i*st+s]
				for j := range rh {
					var sum float64
					for k := re - 1; k > dp; k-- {
						sum -= a.Val[k] * rhat[a.ColIdx[k]*st+j]
					}
					if solve {
						rh[j] = (sum + yy[j] + alpha*rr[j]) / di
					}
					yy[j] = sum
				}
			}
		}
	}
}

// zeroRow zeroes the paired live-row views of the sweep's output and cache
// panels.
func zeroRow(a, b []float64) {
	for i := range a {
		a[i] = 0
		b[i] = 0
	}
}
