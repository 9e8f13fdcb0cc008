package kernel

// Column-contiguous fused kernels. SpMMCSRCols is the inner loop of
// sparse.CSR.MulMatTo, kept here so its tile/tail bookkeeping (tileSpan) is
// shared with the generic unrolled interleaved kernels that supersede it on
// wide blocks. It is not dispatched: its exact arithmetic order is the
// reference the rest of the library is specified against, and both kernel
// sets reproduce it.

// colTile is the column-tile width of the fused column-major loops: a row's
// index/value pair is loaded once per tile and fanned out across up to
// colTile per-column accumulators held in a fixed-size stack array.
const colTile = 8

// tileSpan returns the live width of the column tile starting at c0 — the
// one remainder computation the fused column-major SpMM and the generic
// unrolled interleaved kernels share.
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

// MultiDotCols computes dst[j] = (x_j, y_j) for column-contiguous n-row
// multivectors through the active Dot — vec.MultiDot's fused body, so the
// per-column reduction shares one implementation with the scalar path.
func MultiDotCols(x, y []float64, n, s int, dst []float64) {
	for j := 0; j < s; j++ {
		dst[j] = unrolledDot(x[j*n:(j+1)*n], y[j*n:(j+1)*n])
	}
}
