package kernel

// Column-contiguous fused kernels. These are the pre-interleaving inner
// loops of sparse.CSR.MulMatTo and splitting's Conrad–Wallach block sweep,
// moved here so the tile/tail bookkeeping they used to duplicate lives in
// one place (tileSpan) next to the interleaved forms that supersede them on
// wide blocks. They are not dispatched: their exact arithmetic order is the
// reference the rest of the library is specified against, and both kernel
// sets reproduce it.

// colTile is the column-tile width of the fused column-major loops: a row's
// index/value pair is loaded once per tile and fanned out across up to
// colTile per-column accumulators held in a fixed-size stack array.
const colTile = 8

// tileSpan returns the live width of the column tile starting at c0 — the
// one remainder computation the fused column-major kernels (and the generic
// unrolled interleaved kernels) share.
func tileSpan(s, c0 int) int {
	if w := s - c0; w < colTile {
		return w
	}
	return colTile
}

// SpMMCSRCols computes rows [lo, hi) of dst = A·X for column-contiguous
// n-row multivectors (column j of X at x[j*xn:(j+1)*xn], of dst at
// dst[j*dn:(j+1)*dn]). Each row's entry list is scanned once per column
// tile, with the tile's partial sums accumulating in registers; per-column
// summation order matches CSR.MulVecTo exactly.
func SpMMCSRCols(rowptr, colidx []int, val []float64, x []float64, xn int, dst []float64, dn int, lo, hi, s int) {
	if s < 4 {
		// Narrow blocks lose more to tile bookkeeping than fused row scans
		// save; run the plain per-column row products.
		for i := lo; i < hi; i++ {
			start, end := rowptr[i], rowptr[i+1]
			for j := 0; j < s; j++ {
				base := j * xn
				var sum float64
				for k := start; k < end; k++ {
					sum += val[k] * x[base+colidx[k]]
				}
				dst[j*dn+i] = sum
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		start, end := rowptr[i], rowptr[i+1]
		for c0 := 0; c0 < s; c0 += colTile {
			cw := tileSpan(s, c0)
			var sums [colTile]float64
			for k := start; k < end; k++ {
				v := val[k]
				base := c0*xn + colidx[k]
				for t := 0; t < cw; t++ {
					sums[t] += v * x[base]
					base += xn
				}
			}
			base := c0*dn + i
			for t := 0; t < cw; t++ {
				dst[base] = sums[t]
				base += dn
			}
		}
	}
}

// SweepCSRCols runs the full m-step Conrad–Wallach multicolor sweep over
// column-contiguous multivectors rhat, r with cache block y (each n×s,
// column stride n; rhat and y are zeroed on entry). At each (step, color,
// row) the solve runs across all s columns while row i's index/value block
// is hot in cache; column j reproduces the scalar ApplyMStep on column j
// exactly (−a−b ≡ −(a+b) in IEEE arithmetic, negation being exact).
func SweepCSRCols(a *SweepArgs, rhat, r, y []float64, n, s int) {
	m := len(a.Alphas)
	ng := len(a.Start) - 1
	for i := range rhat[:n*s] {
		rhat[i] = 0
		y[i] = 0
	}
	for step := 1; step <= m; step++ {
		alpha := a.Alphas[m-step]
		// Forward half-sweep: x = fresh lower block sums, y = cached upper
		// sums from the previous backward half-sweep.
		for c := 0; c < ng; c++ {
			lo, hi := a.Start[c], a.Start[c+1]
			cache := c < ng-1
			for i := lo; i < hi; i++ {
				rowStart, dp := a.RowPtr[i], a.DiagPos[i]
				di := a.Diag[i]
				for c0 := 0; c0 < s; c0 += colTile {
					cw := tileSpan(s, c0)
					var sums [colTile]float64
					for p := rowStart; p < dp; p++ {
						v := a.Val[p]
						base := c0*n + a.ColIdx[p]
						for t := 0; t < cw; t++ {
							sums[t] -= v * rhat[base]
							base += n
						}
					}
					base := c0*n + i
					for t := 0; t < cw; t++ {
						x := sums[t]
						rhat[base] = (x + y[base] + alpha*r[base]) / di
						if cache {
							y[base] = x
						}
						base += n
					}
				}
			}
		}
		// Backward half-sweep: colors descending, skipping the last color
		// (identical re-solve); the color-1 solve is elided until the final
		// step. x = fresh upper block sums, y = cached lower sums from the
		// forward half-sweep.
		for c := ng - 2; c >= 0; c-- {
			lo, hi := a.Start[c], a.Start[c+1]
			solve := c > 0 || step == m
			for i := lo; i < hi; i++ {
				dp, rowEnd := a.DiagPos[i], a.RowPtr[i+1]
				di := a.Diag[i]
				for c0 := 0; c0 < s; c0 += colTile {
					cw := tileSpan(s, c0)
					var sums [colTile]float64
					for p := rowEnd - 1; p > dp; p-- {
						v := a.Val[p]
						base := c0*n + a.ColIdx[p]
						for t := 0; t < cw; t++ {
							sums[t] -= v * rhat[base]
							base += n
						}
					}
					base := c0*n + i
					for t := 0; t < cw; t++ {
						x := sums[t]
						if solve {
							rhat[base] = (x + y[base] + alpha*r[base]) / di
						}
						y[base] = x
						base += n
					}
				}
			}
		}
	}
}

// MultiDotCols computes dst[j] = (x_j, y_j) for column-contiguous n-row
// multivectors through the dispatched Dot — vec.MultiDot's fused body, so
// the per-column reduction shares one implementation with the scalar path.
func MultiDotCols(x, y []float64, n, s int, dst []float64) {
	impl := activeImpl
	for j := 0; j < s; j++ {
		dst[j] = impl.Dot(x[j*n:(j+1)*n], y[j*n:(j+1)*n])
	}
}
