// Package fem assembles the paper's test problem: plane stress on a
// rectangular plate discretized with linear (constant-strain) triangular
// elements, clamped on one edge and loaded on another. The resulting
// stiffness matrix is symmetric positive definite, dimension 2·(free
// nodes), with at most 14 nonzeros per row (the Figure 2 stencil), and
// decouples into the 6-color block form of eq. (3.1) under the multicolor
// ordering.
package fem

import "fmt"

// Material is a linear-elastic plane-stress material.
type Material struct {
	E  float64 // Young's modulus
	Nu float64 // Poisson's ratio
	T  float64 // plate thickness
}

// DefaultMaterial is the normalized material used by the experiments:
// the paper's results depend only on the matrix structure and conditioning,
// not on physical units.
var DefaultMaterial = Material{E: 1, Nu: 0.3, T: 1}

// Validate checks physical admissibility (E, T > 0; −1 < ν < 0.5 for plane
// stress positive definiteness).
func (m Material) Validate() error {
	if m.E <= 0 {
		return fmt.Errorf("fem: Young's modulus must be positive, got %g", m.E)
	}
	if m.T <= 0 {
		return fmt.Errorf("fem: thickness must be positive, got %g", m.T)
	}
	if m.Nu <= -1 || m.Nu >= 0.5 {
		return fmt.Errorf("fem: Poisson ratio must lie in (-1, 0.5), got %g", m.Nu)
	}
	return nil
}

// DMatrix returns the 3×3 plane-stress constitutive matrix
// D = E/(1−ν²)·[[1,ν,0],[ν,1,0],[0,0,(1−ν)/2]].
func (m Material) DMatrix() [3][3]float64 {
	c := m.E / (1 - m.Nu*m.Nu)
	return [3][3]float64{
		{c, c * m.Nu, 0},
		{c * m.Nu, c, 0},
		{0, 0, c * (1 - m.Nu) / 2},
	}
}

// CSTStiffness returns the 6×6 element stiffness matrix of a constant
// strain triangle with vertices (x[k], y[k]), k = 0..2 in counterclockwise
// order, in dof order (u0, v0, u1, v1, u2, v2):
//
//	Ke = t · A · Bᵀ D B
//
// where B is the 3×6 strain-displacement matrix and A the triangle area.
// It works on the stack. Each product is formed row by row, summing from
// zero and skipping zero left factors, so every entry is the same float64
// sum a dense row-major matrix multiply would give.
func CSTStiffness(m Material, x, y [3]float64) ([6][6]float64, error) {
	var ke [6][6]float64
	twoA := (x[1]-x[0])*(y[2]-y[0]) - (x[2]-x[0])*(y[1]-y[0])
	if twoA <= 0 {
		return ke, fmt.Errorf("fem: triangle area %g not positive (vertices clockwise or degenerate)", twoA/2)
	}
	area := twoA / 2
	// b_k = y_{k+1} − y_{k+2}, c_k = x_{k+2} − x_{k+1} (cyclic).
	var bm [3][6]float64
	for k := 0; k < 3; k++ {
		b := y[(k+1)%3] - y[(k+2)%3]
		c := x[(k+2)%3] - x[(k+1)%3]
		bm[0][2*k] = b / twoA
		bm[1][2*k+1] = c / twoA
		bm[2][2*k] = c / twoA
		bm[2][2*k+1] = b / twoA
	}
	d := m.DMatrix()
	var btd [6][3]float64 // Bᵀ D
	for i := 0; i < 6; i++ {
		for k := 0; k < 3; k++ {
			a := bm[k][i]
			if a == 0 {
				continue
			}
			for j := 0; j < 3; j++ {
				btd[i][j] += a * d[k][j]
			}
		}
	}
	for i := 0; i < 6; i++ {
		for k := 0; k < 3; k++ {
			a := btd[i][k]
			if a == 0 {
				continue
			}
			for j := 0; j < 6; j++ {
				ke[i][j] += a * bm[k][j]
			}
		}
	}
	s := m.T * area
	for i := range ke {
		for j := range ke[i] {
			ke[i][j] *= s
		}
	}
	return ke, nil
}
