package stationary

import (
	"fmt"

	"repro/internal/sparse"
)

// SOR is the successive-overrelaxation splitting: one forward sweep per
// Step. It is not symmetric (the SSOR splittings in internal/splitting are
// the symmetric variants usable as CG preconditioners); it exists here as
// a standalone stationary solver and as the multicolor SOR building block
// of Adams & Ortega (1982): with group boundaries supplied, the unknowns
// sweep color by color, each color solve being fully parallel.
type SOR struct {
	K     *sparse.CSR
	d     []float64
	omega float64
	start []int // nil = natural ordering (pointwise sweep)
}

// NewSOR builds a natural-ordering SOR sweep.
func NewSOR(k *sparse.CSR, omega float64) (*SOR, error) {
	return newSOR(k, omega, nil)
}

// NewMulticolorSOR builds the multicolor SOR sweep of Adams & Ortega: the
// matrix must be in multicolor ordering with the given group boundaries
// (each group's diagonal block diagonal).
func NewMulticolorSOR(k *sparse.CSR, omega float64, start []int) (*SOR, error) {
	if len(start) < 2 || start[0] != 0 || start[len(start)-1] != k.Rows {
		return nil, fmt.Errorf("stationary: group boundaries %v do not cover [0,%d]", start, k.Rows)
	}
	return newSOR(k, omega, start)
}

func newSOR(k *sparse.CSR, omega float64, start []int) (*SOR, error) {
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("stationary: SOR needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("stationary: SOR needs 0 < ω < 2, got %g", omega)
	}
	d := k.Diag()
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("stationary: SOR diagonal entry %d is %g (not positive)", i, di)
		}
	}
	return &SOR{K: k, d: d, omega: omega, start: start}, nil
}

// N returns the system dimension.
func (s *SOR) N() int { return s.K.Rows }

// Name identifies the sweep.
func (s *SOR) Name() string {
	kind := "sor"
	if s.start != nil {
		kind = "sor-multicolor"
	}
	if s.omega == 1 {
		return kind
	}
	return fmt.Sprintf("%s(ω=%g)", kind, s.omega)
}

// Matrix returns K.
func (s *SOR) Matrix() *sparse.CSR { return s.K }

// Step performs one forward SOR sweep: x ← G_ω·x + ω·(D−ωL)⁻¹·(α·f).
// With a multicolor ordering this is exactly one color-by-color sweep.
func (s *SOR) Step(x, f []float64, alpha float64) {
	k, w := s.K, s.omega
	for i := 0; i < k.Rows; i++ {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := k.ColIdx[p]
			if j != i {
				sum += k.Val[p] * x[j]
			}
		}
		gs := (alpha*f[i] - sum) / s.d[i]
		x[i] = (1-w)*x[i] + w*gs
	}
}

// GroupStart exposes the color boundaries (nil for natural ordering).
func (s *SOR) GroupStart() []int { return s.start }
