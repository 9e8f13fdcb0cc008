package fem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/mesh"
)

// dense copies an element stiffness into an la.Matrix for the checks below.
func dense(ke [6][6]float64) *la.Matrix {
	m := la.NewMatrix(6, 6)
	for i := range ke {
		copy(m.Data[6*i:6*i+6], ke[i][:])
	}
	return m
}

// mulKe returns ke · x.
func mulKe(ke [6][6]float64, x []float64) []float64 {
	y := make([]float64, 6)
	for i, row := range ke {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

func TestMaterialValidate(t *testing.T) {
	if err := DefaultMaterial.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Material{
		{E: 0, Nu: 0.3, T: 1},
		{E: 1, Nu: 0.5, T: 1},
		{E: 1, Nu: -1, T: 1},
		{E: 1, Nu: 0.3, T: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("material %+v accepted", m)
		}
	}
}

func TestDMatrixSymmetricPD(t *testing.T) {
	d := DefaultMaterial.DMatrix()
	for i := 0; i < 3; i++ {
		for j := 0; j < i; j++ {
			if d[i][j] != d[j][i] {
				t.Fatalf("D not symmetric: D[%d][%d] = %v, D[%d][%d] = %v", i, j, d[i][j], j, i, d[j][i])
			}
		}
		if d[i][i] <= 0 {
			t.Fatalf("D diagonal %d not positive", i)
		}
	}
}

func TestCSTStiffnessSymmetricPSD(t *testing.T) {
	k, err := CSTStiffness(DefaultMaterial, [3]float64{0, 1, 0}, [3]float64{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var maxAbs float64
	for i := range k {
		for _, v := range k[i] {
			maxAbs = max(maxAbs, math.Abs(v))
		}
	}
	for i := range k {
		for j := 0; j < i; j++ {
			if math.Abs(k[i][j]-k[j][i]) > 1e-12*maxAbs {
				t.Fatalf("Ke not symmetric at (%d, %d)", i, j)
			}
		}
	}
	// Positive semidefinite: xᵀKe x >= 0 for a few vectors.
	for _, x := range [][]float64{
		{1, 0, 0, 0, 0, 0},
		{1, 1, -1, 0.5, 2, -3},
		{0, 1, 0, 1, 0, 1},
	} {
		kx := mulKe(k, x)
		var q float64
		for i := range x {
			q += x[i] * kx[i]
		}
		if q < -1e-12 {
			t.Fatalf("xᵀKe x = %g < 0", q)
		}
	}
}

func TestCSTRigidBodyModes(t *testing.T) {
	// Ke annihilates the three rigid-body modes: x-translation,
	// y-translation, and infinitesimal rotation (u = -y, v = x).
	x := [3]float64{0.2, 1.1, 0.3}
	y := [3]float64{0.1, 0.2, 0.9}
	k, err := CSTStiffness(DefaultMaterial, x, y)
	if err != nil {
		t.Fatal(err)
	}
	modes := [][]float64{
		{1, 0, 1, 0, 1, 0},
		{0, 1, 0, 1, 0, 1},
		{-y[0], x[0], -y[1], x[1], -y[2], x[2]},
	}
	for mi, mode := range modes {
		out := mulKe(k, mode)
		for i, v := range out {
			if math.Abs(v) > 1e-12 {
				t.Fatalf("rigid mode %d not annihilated: Ke·m[%d] = %g", mi, i, v)
			}
		}
	}
}

func TestCSTDegenerateTriangleRejected(t *testing.T) {
	// Collinear vertices.
	if _, err := CSTStiffness(DefaultMaterial, [3]float64{0, 1, 2}, [3]float64{0, 0, 0}); err == nil {
		t.Fatal("degenerate triangle accepted")
	}
	// Clockwise orientation (negative area).
	if _, err := CSTStiffness(DefaultMaterial, [3]float64{0, 0, 1}, [3]float64{0, 1, 0}); err == nil {
		t.Fatal("clockwise triangle accepted")
	}
}

func TestCSTScalesWithThicknessAndE(t *testing.T) {
	x := [3]float64{0, 1, 0}
	y := [3]float64{0, 0, 1}
	base, _ := CSTStiffness(Material{E: 1, Nu: 0.3, T: 1}, x, y)
	thick, _ := CSTStiffness(Material{E: 1, Nu: 0.3, T: 2}, x, y)
	stiff, _ := CSTStiffness(Material{E: 3, Nu: 0.3, T: 1}, x, y)
	b, th, st := dense(base).Data, dense(thick).Data, dense(stiff).Data
	for i := range b {
		if math.Abs(th[i]-2*b[i]) > 1e-14 {
			t.Fatal("Ke not linear in thickness")
		}
		if math.Abs(st[i]-3*b[i]) > 1e-14 {
			t.Fatal("Ke not linear in E")
		}
	}
}

// cstStiffnessLA is the element kernel as it was written on la.Matrix
// (Bᵀ·D·B through two dense products), kept as the reference the
// stack-only CSTStiffness must match bit for bit.
func cstStiffnessLA(m Material, x, y [3]float64) (*la.Matrix, error) {
	twoA := (x[1]-x[0])*(y[2]-y[0]) - (x[2]-x[0])*(y[1]-y[0])
	if twoA <= 0 {
		return nil, fmt.Errorf("fem: triangle area %g not positive (vertices clockwise or degenerate)", twoA/2)
	}
	area := twoA / 2
	var b, c [3]float64
	for k := 0; k < 3; k++ {
		b[k] = y[(k+1)%3] - y[(k+2)%3]
		c[k] = x[(k+2)%3] - x[(k+1)%3]
	}
	bm := la.NewMatrix(3, 6)
	for k := 0; k < 3; k++ {
		bm.Set(0, 2*k, b[k]/twoA)
		bm.Set(1, 2*k+1, c[k]/twoA)
		bm.Set(2, 2*k, c[k]/twoA)
		bm.Set(2, 2*k+1, b[k]/twoA)
	}
	cm := m.E / (1 - m.Nu*m.Nu)
	d := la.NewMatrix(3, 3)
	d.Set(0, 0, cm)
	d.Set(0, 1, cm*m.Nu)
	d.Set(1, 0, cm*m.Nu)
	d.Set(1, 1, cm)
	d.Set(2, 2, cm*(1-m.Nu)/2)
	ke := bm.T().Mul(d).Mul(bm)
	for i := range ke.Data {
		ke.Data[i] *= m.T * area
	}
	return ke, nil
}

// TestCSTStiffnessMatchesDenseProduct pins the stack kernel bitwise to the
// dense-product reference on every triangle of several plates and an
// L-shaped domain, for several materials, and checks it allocates nothing.
func TestCSTStiffnessMatchesDenseProduct(t *testing.T) {
	mats := []Material{DefaultMaterial, {E: 2.5, Nu: 0.1, T: 0.7}, {E: 1e3, Nu: -0.4, T: 3}}
	var domains []mesh.Domain
	for _, rc := range [][2]int{{2, 2}, {6, 6}, {10, 17}, {33, 33}, {72, 72}} {
		domains = append(domains, mesh.FullDomain(mesh.NewGrid(rc[0], rc[1])))
	}
	domains = append(domains, mesh.LShapedDomain(mesh.NewGrid(13, 13)))
	for _, d := range domains {
		g := d.Grid
		for _, mat := range mats {
			for _, tr := range d.Triangles() {
				var x, y [3]float64
				for k, id := range tr {
					i, j := g.NodeRC(id)
					x[k], y[k] = g.XY(i, j)
				}
				got, err := CSTStiffness(mat, x, y)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cstStiffnessLA(mat, x, y)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 6; i++ {
					for j := 0; j < 6; j++ {
						if math.Float64bits(got[i][j]) != math.Float64bits(want.At(i, j)) {
							t.Fatalf("%d×%d grid, %+v, triangle %v: Ke[%d][%d] = %v, dense product %v",
								g.Rows, g.Cols, mat, tr, i, j, got[i][j], want.At(i, j))
						}
					}
				}
			}
		}
	}
	x, y := [3]float64{0.2, 1.1, 0.3}, [3]float64{0.1, 0.2, 0.9}
	if n := testing.AllocsPerRun(100, func() { _, _ = CSTStiffness(DefaultMaterial, x, y) }); n != 0 {
		t.Fatalf("CSTStiffness allocates %v times per call", n)
	}
}
