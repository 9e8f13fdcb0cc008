// Package vec provides the dense float64 vector kernels used throughout the
// m-step PCG library: dot products, axpy-style updates, and norms, in both
// serial and chunked-parallel form.
//
// These are the operations the paper's machines implement in hardware — the
// CYBER 203/205 as vector pipeline instructions, the Finite Element Machine
// as per-processor scalar loops — so everything above this package expresses
// its arithmetic in terms of vec calls.
package vec

import (
	"fmt"
	"math"

	"repro/internal/kernel"
)

// Dot returns the inner product (x, y) = xᵀy, through the active kernel set
// (both sets accumulate in index order, so the result is set-independent).
// It panics if the lengths differ; a length mismatch is a programming error,
// not a runtime condition, everywhere in this library.
func Dot(x, y []float64) float64 {
	checkLen("Dot", len(x), len(y))
	return kernel.Active().Dot(x, y)
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	checkLen("Axpy", len(x), len(y))
	kernel.Active().Axpy(a, x, y)
}

// AxpyTo computes dst = y + a*x without touching x or y.
// dst may alias x or y.
func AxpyTo(dst []float64, a float64, x, y []float64) {
	checkLen("AxpyTo", len(x), len(y))
	checkLen("AxpyTo dst", len(dst), len(y))
	for i := range dst {
		dst[i] = y[i] + a*x[i]
	}
}

// Xpay computes y = x + a*y in place (note: scales y, then adds x).
// This is the CG direction update p = r̂ + β p.
func Xpay(x []float64, a float64, y []float64) {
	checkLen("Xpay", len(x), len(y))
	kernel.Active().Xpay(x, a, y)
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Copy copies src into dst.
func Copy(dst, src []float64) {
	checkLen("Copy", len(dst), len(src))
	copy(dst, src)
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to a.
func Fill(a float64, x []float64) {
	for i := range x {
		x[i] = a
	}
}

// Add computes dst = x + y elementwise.
func Add(dst, x, y []float64) {
	checkLen("Add", len(x), len(y))
	checkLen("Add dst", len(dst), len(x))
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// Sub computes dst = x - y elementwise.
func Sub(dst, x, y []float64) {
	checkLen("Sub", len(x), len(y))
	checkLen("Sub dst", len(dst), len(x))
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// MulElem computes dst = x .* y elementwise.
func MulElem(dst, x, y []float64) {
	checkLen("MulElem", len(x), len(y))
	checkLen("MulElem dst", len(dst), len(x))
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
}

// DivElem computes dst = x ./ y elementwise.
func DivElem(dst, x, y []float64) {
	checkLen("DivElem", len(x), len(y))
	checkLen("DivElem dst", len(dst), len(x))
	for i := range dst {
		dst[i] = x[i] / y[i]
	}
}

// Norm2 returns the Euclidean norm ‖x‖₂, guarding against overflow for
// large components by scaling.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, xi := range x {
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
	return scale * math.Sqrt(ssq)
}

// NormInf returns max_i |x_i|.
func NormInf(x []float64) float64 {
	var m float64
	for _, xi := range x {
		if a := math.Abs(xi); a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns ‖x - y‖_∞, the paper's convergence-test quantity
// |u^{k+1} - u^k|_∞ without forming the difference vector.
func MaxAbsDiff(x, y []float64) float64 {
	checkLen("MaxAbsDiff", len(x), len(y))
	var m float64
	for i, xi := range x {
		if d := math.Abs(xi - y[i]); d > m {
			m = d
		}
	}
	return m
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// AllFinite reports whether every element of x is finite (no NaN/Inf).
func AllFinite(x []float64) bool {
	for _, xi := range x {
		if math.IsNaN(xi) || math.IsInf(xi, 0) {
			return false
		}
	}
	return true
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: %s length mismatch: %d vs %d", op, a, b))
	}
}
