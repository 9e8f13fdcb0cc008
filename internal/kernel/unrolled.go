package kernel

// The unrolled set, the one every solve runs (Active): SIMD-shaped loops the
// compiler can vectorize under GOAMD64=v3 (AVX2+FMA) or arm64's baseline
// NEON. Per the package contract, no per-column reduction is reassociated —
// unrolling runs either across columns (independent accumulators) or along
// the vector in left-associated chains (s + a + b + c + d ≡ the sequential
// order), so every function here is bit-identical to its portable
// counterpart. The wide-block hot path is s == 8 (the planner's default tile
// width): those specializations hold the eight per-column accumulators in
// scalars and read each panel row as one bounds-check-free 64-byte slice.
// The sweep runs that body on every full 8-column tile, so 16–32-wide panels
// take it too.

var unrolledImpl = Impl{
	Name:         "unrolled",
	Dot:          unrolledDot,
	Axpy:         unrolledAxpy,
	Xpay:         unrolledXpay,
	GatherDot32:  unrolledGatherDot32,
	Interleave:   unrolledInterleave,
	Deinterleave: unrolledDeinterleave,
	DotI:         unrolledDotI,
	AxpyI:        unrolledAxpyI,
	XpayI:        unrolledXpayI,
	Norm2I:       norm2I,
	NormInfI:     normInfI,
	SpMMCSRI:     unrolledSpMMCSRI,
	SpMMDIAI:     unrolledSpMMDIAI,
	SweepCSRI:    unrolledSweepCSRI,
}

func unrolledDot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s = s + x[i]*y[i] + x[i+1]*y[i+1] + x[i+2]*y[i+2] + x[i+3]*y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

func unrolledAxpy(a float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

func unrolledXpay(x []float64, a float64, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] = x[i] + a*y[i]
		y[i+1] = x[i+1] + a*y[i+1]
		y[i+2] = x[i+2] + a*y[i+2]
		y[i+3] = x[i+3] + a*y[i+3]
	}
	for ; i < len(x); i++ {
		y[i] = x[i] + a*y[i]
	}
}

func unrolledGatherDot32(val []float64, idx []int32, x []float64) float64 {
	idx = idx[:len(val)]
	var s float64
	k := 0
	for ; k+4 <= len(val); k += 4 {
		s = s + val[k]*x[idx[k]] + val[k+1]*x[idx[k+1]] + val[k+2]*x[idx[k+2]] + val[k+3]*x[idx[k+3]]
	}
	for ; k < len(val); k++ {
		s += val[k] * x[idx[k]]
	}
	return s
}

func unrolledInterleave(dst []float64, st int, src []float64, n, s int) {
	if s == 8 {
		c0, c1, c2, c3 := src[0:n], src[n:2*n], src[2*n:3*n], src[3*n:4*n]
		c4, c5, c6, c7 := src[4*n:5*n], src[5*n:6*n], src[6*n:7*n], src[7*n:8*n]
		for i := 0; i < n; i++ {
			row := dst[i*st : i*st+8 : i*st+8]
			row[0], row[1], row[2], row[3] = c0[i], c1[i], c2[i], c3[i]
			row[4], row[5], row[6], row[7] = c4[i], c5[i], c6[i], c7[i]
		}
		return
	}
	portableInterleave(dst, st, src, n, s)
}

func unrolledDeinterleave(dst []float64, n, s int, src []float64, st int) {
	if s == 8 {
		c0, c1, c2, c3 := dst[0:n], dst[n:2*n], dst[2*n:3*n], dst[3*n:4*n]
		c4, c5, c6, c7 := dst[4*n:5*n], dst[5*n:6*n], dst[6*n:7*n], dst[7*n:8*n]
		for i := 0; i < n; i++ {
			row := src[i*st : i*st+8 : i*st+8]
			c0[i], c1[i], c2[i], c3[i] = row[0], row[1], row[2], row[3]
			c4[i], c5[i], c6[i], c7[i] = row[4], row[5], row[6], row[7]
		}
		return
	}
	portableDeinterleave(dst, n, s, src, st)
}

func unrolledDotI(x, y []float64, st, n, s int, dst []float64) {
	if s == 8 {
		var d0, d1, d2, d3, d4, d5, d6, d7 float64
		for i := 0; i < n; i++ {
			xr := x[i*st : i*st+8 : i*st+8]
			yr := y[i*st : i*st+8 : i*st+8]
			d0 += xr[0] * yr[0]
			d1 += xr[1] * yr[1]
			d2 += xr[2] * yr[2]
			d3 += xr[3] * yr[3]
			d4 += xr[4] * yr[4]
			d5 += xr[5] * yr[5]
			d6 += xr[6] * yr[6]
			d7 += xr[7] * yr[7]
		}
		dst[0], dst[1], dst[2], dst[3] = d0, d1, d2, d3
		dst[4], dst[5], dst[6], dst[7] = d4, d5, d6, d7
		return
	}
	for c0 := 0; c0 < s; c0 += colTile {
		cw := tileSpan(s, c0)
		var acc [colTile]float64
		for i := 0; i < n; i++ {
			xr := x[i*st+c0 : i*st+c0+cw]
			yr := y[i*st+c0 : i*st+c0+cw]
			for t, xv := range xr {
				acc[t] += xv * yr[t]
			}
		}
		copy(dst[c0:c0+cw], acc[:cw])
	}
}

func unrolledAxpyI(alphas []float64, x, y []float64, st, n, s int) {
	if s == 8 {
		a0, a1, a2, a3 := alphas[0], alphas[1], alphas[2], alphas[3]
		a4, a5, a6, a7 := alphas[4], alphas[5], alphas[6], alphas[7]
		for i := 0; i < n; i++ {
			xr := x[i*st : i*st+8 : i*st+8]
			yr := y[i*st : i*st+8 : i*st+8]
			yr[0] += a0 * xr[0]
			yr[1] += a1 * xr[1]
			yr[2] += a2 * xr[2]
			yr[3] += a3 * xr[3]
			yr[4] += a4 * xr[4]
			yr[5] += a5 * xr[5]
			yr[6] += a6 * xr[6]
			yr[7] += a7 * xr[7]
		}
		return
	}
	portableAxpyI(alphas, x, y, st, n, s)
}

func unrolledXpayI(x []float64, betas []float64, y []float64, st, n, s int) {
	if s == 8 {
		b0, b1, b2, b3 := betas[0], betas[1], betas[2], betas[3]
		b4, b5, b6, b7 := betas[4], betas[5], betas[6], betas[7]
		for i := 0; i < n; i++ {
			xr := x[i*st : i*st+8 : i*st+8]
			yr := y[i*st : i*st+8 : i*st+8]
			yr[0] = xr[0] + b0*yr[0]
			yr[1] = xr[1] + b1*yr[1]
			yr[2] = xr[2] + b2*yr[2]
			yr[3] = xr[3] + b3*yr[3]
			yr[4] = xr[4] + b4*yr[4]
			yr[5] = xr[5] + b5*yr[5]
			yr[6] = xr[6] + b6*yr[6]
			yr[7] = xr[7] + b7*yr[7]
		}
		return
	}
	portableXpayI(x, betas, y, st, n, s)
}

func unrolledSpMMCSRI(rowptr, colidx []int, val []float64, x []float64, xs int, dst []float64, ds int, lo, hi, s int) {
	if s == 8 {
		for i := lo; i < hi; i++ {
			var d0, d1, d2, d3, d4, d5, d6, d7 float64
			for k := rowptr[i]; k < rowptr[i+1]; k++ {
				v := val[k]
				c := colidx[k] * xs
				xr := x[c : c+8 : c+8]
				d0 += v * xr[0]
				d1 += v * xr[1]
				d2 += v * xr[2]
				d3 += v * xr[3]
				d4 += v * xr[4]
				d5 += v * xr[5]
				d6 += v * xr[6]
				d7 += v * xr[7]
			}
			dr := dst[i*ds : i*ds+8 : i*ds+8]
			dr[0], dr[1], dr[2], dr[3] = d0, d1, d2, d3
			dr[4], dr[5], dr[6], dr[7] = d4, d5, d6, d7
		}
		return
	}
	for i := lo; i < hi; i++ {
		start, end := rowptr[i], rowptr[i+1]
		for c0 := 0; c0 < s; c0 += colTile {
			cw := tileSpan(s, c0)
			var acc [colTile]float64
			for k := start; k < end; k++ {
				v := val[k]
				xr := x[colidx[k]*xs+c0 : colidx[k]*xs+c0+cw]
				for t, xv := range xr {
					acc[t] += v * xv
				}
			}
			copy(dst[i*ds+c0:i*ds+c0+cw], acc[:cw])
		}
	}
}

func unrolledSpMMDIAI(offsets []int, diags [][]float64, n int, x []float64, xs int, dst []float64, ds int, lo, hi, s int) {
	if s == 8 {
		for i := lo; i < hi; i++ {
			dr := dst[i*ds : i*ds+8 : i*ds+8]
			dr[0], dr[1], dr[2], dr[3] = 0, 0, 0, 0
			dr[4], dr[5], dr[6], dr[7] = 0, 0, 0, 0
		}
		for k, d := range offsets {
			diag := diags[k]
			dlo, dhi := DiagRange(n, d)
			dlo, dhi = max(dlo, lo), min(dhi, hi)
			for i := dlo; i < dhi; i++ {
				v := diag[i]
				c := (i + d) * xs
				xr := x[c : c+8 : c+8]
				dr := dst[i*ds : i*ds+8 : i*ds+8]
				dr[0] += v * xr[0]
				dr[1] += v * xr[1]
				dr[2] += v * xr[2]
				dr[3] += v * xr[3]
				dr[4] += v * xr[4]
				dr[5] += v * xr[5]
				dr[6] += v * xr[6]
				dr[7] += v * xr[7]
			}
		}
		return
	}
	portableSpMMDIAI(offsets, diags, n, x, xs, dst, ds, lo, hi, s)
}

// unrolledSweepCSRI is the sweep with unrolledSpMMCSRI's register-blocked
// body: every full 8-column tile (so s = 8, the planner's default width, and
// each tile of a 16–32-wide panel) holds its eight per-column block sums in
// scalars and reads each gathered panel row as one bounds-check-free 64-byte
// slice. A remainder tile narrower than eight runs the generic loop over a
// stack array. Each block sum scans one side of the row's diagonal entry
// (SweepArgs.DiagPos); per-(step, color, row, k) order per column matches
// the portable sweep exactly.
func unrolledSweepCSRI(a *SweepArgs, rhat, r, y []float64, st, n, s int) {
	m := len(a.Alphas)
	ng := len(a.Start) - 1
	full := s - s%colTile // columns covered by full 8-wide tiles
	for i := 0; i < n; i++ {
		zeroRow(rhat[i*st:i*st+s], y[i*st:i*st+s])
	}
	for step := 1; step <= m; step++ {
		alpha := a.Alphas[m-step]
		// Forward half-sweep: lower block sums, entries ascending.
		for c := 0; c < ng; c++ {
			lo, hi := a.Start[c], a.Start[c+1]
			cache := c < ng-1
			for i := lo; i < hi; i++ {
				rs, dp := a.RowPtr[i], a.DiagPos[i]
				vals := a.Val[rs:dp]
				cols := a.ColIdx[rs:dp]
				cols = cols[:len(vals)]
				di := a.Diag[i]
				for c0 := 0; c0 < full; c0 += colTile {
					var d0, d1, d2, d3, d4, d5, d6, d7 float64
					for k, v := range vals {
						b := cols[k]*st + c0
						x := rhat[b : b+8 : b+8]
						d0 -= v * x[0]
						d1 -= v * x[1]
						d2 -= v * x[2]
						d3 -= v * x[3]
						d4 -= v * x[4]
						d5 -= v * x[5]
						d6 -= v * x[6]
						d7 -= v * x[7]
					}
					b := i*st + c0
					rr := r[b : b+8 : b+8]
					rh := rhat[b : b+8 : b+8]
					yy := y[b : b+8 : b+8]
					rh[0] = (d0 + yy[0] + alpha*rr[0]) / di
					rh[1] = (d1 + yy[1] + alpha*rr[1]) / di
					rh[2] = (d2 + yy[2] + alpha*rr[2]) / di
					rh[3] = (d3 + yy[3] + alpha*rr[3]) / di
					rh[4] = (d4 + yy[4] + alpha*rr[4]) / di
					rh[5] = (d5 + yy[5] + alpha*rr[5]) / di
					rh[6] = (d6 + yy[6] + alpha*rr[6]) / di
					rh[7] = (d7 + yy[7] + alpha*rr[7]) / di
					if cache {
						yy[0], yy[1], yy[2], yy[3] = d0, d1, d2, d3
						yy[4], yy[5], yy[6], yy[7] = d4, d5, d6, d7
					}
				}
				if full < s {
					cw := s - full
					var sums [colTile]float64
					for k, v := range vals {
						b := cols[k]*st + full
						for t, rv := range rhat[b : b+cw] {
							sums[t] -= v * rv
						}
					}
					b := i*st + full
					rr := r[b : b+cw]
					rh := rhat[b : b+cw]
					yy := y[b : b+cw]
					for t := range rh {
						sum := sums[t]
						rh[t] = (sum + yy[t] + alpha*rr[t]) / di
						if cache {
							yy[t] = sum
						}
					}
				}
			}
		}
		// Backward half-sweep: upper block sums, entries descending.
		for c := ng - 2; c >= 0; c-- {
			lo, hi := a.Start[c], a.Start[c+1]
			solve := c > 0 || step == m
			for i := lo; i < hi; i++ {
				dp, re := a.DiagPos[i], a.RowPtr[i+1]
				vals := a.Val[dp+1 : re]
				cols := a.ColIdx[dp+1 : re]
				cols = cols[:len(vals)]
				di := a.Diag[i]
				for c0 := 0; c0 < full; c0 += colTile {
					var d0, d1, d2, d3, d4, d5, d6, d7 float64
					for k := len(vals) - 1; k >= 0; k-- {
						v := vals[k]
						b := cols[k]*st + c0
						x := rhat[b : b+8 : b+8]
						d0 -= v * x[0]
						d1 -= v * x[1]
						d2 -= v * x[2]
						d3 -= v * x[3]
						d4 -= v * x[4]
						d5 -= v * x[5]
						d6 -= v * x[6]
						d7 -= v * x[7]
					}
					b := i*st + c0
					rr := r[b : b+8 : b+8]
					rh := rhat[b : b+8 : b+8]
					yy := y[b : b+8 : b+8]
					if solve {
						rh[0] = (d0 + yy[0] + alpha*rr[0]) / di
						rh[1] = (d1 + yy[1] + alpha*rr[1]) / di
						rh[2] = (d2 + yy[2] + alpha*rr[2]) / di
						rh[3] = (d3 + yy[3] + alpha*rr[3]) / di
						rh[4] = (d4 + yy[4] + alpha*rr[4]) / di
						rh[5] = (d5 + yy[5] + alpha*rr[5]) / di
						rh[6] = (d6 + yy[6] + alpha*rr[6]) / di
						rh[7] = (d7 + yy[7] + alpha*rr[7]) / di
					}
					yy[0], yy[1], yy[2], yy[3] = d0, d1, d2, d3
					yy[4], yy[5], yy[6], yy[7] = d4, d5, d6, d7
				}
				if full < s {
					cw := s - full
					var sums [colTile]float64
					for k := len(vals) - 1; k >= 0; k-- {
						v := vals[k]
						b := cols[k]*st + full
						for t, rv := range rhat[b : b+cw] {
							sums[t] -= v * rv
						}
					}
					b := i*st + full
					rr := r[b : b+cw]
					rh := rhat[b : b+cw]
					yy := y[b : b+cw]
					for t := range rh {
						sum := sums[t]
						if solve {
							rh[t] = (sum + yy[t] + alpha*rr[t]) / di
						}
						yy[t] = sum
					}
				}
			}
		}
	}
}
