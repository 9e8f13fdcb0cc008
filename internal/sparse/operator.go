package sparse

import "repro/internal/vec"

// Operator is the matrix–vector contract the iterative solvers consume: any
// storage backend that can report its shape and main diagonal and apply
// itself to a vector or a column-block multivector, serially or with a
// bounded goroutine fan-out. CSR and DIA both satisfy it; cg.Solve and
// friends are written against this interface, so adding a backend (an
// interleaved block layout, an SoA experiment) never touches the solver.
//
// Contract: the Par variants with workers == 1 must take the serial
// allocation-free path and every parallel product must be bitwise identical
// to its serial form (the solvers' reproducibility guarantee rides on it).
type Operator interface {
	// Dims returns the matrix shape.
	Dims() (rows, cols int)
	// MulVecTo computes dst = A·x. dst must not alias x.
	MulVecTo(dst, x []float64)
	// ParMulVecTo is MulVecTo with rows partitioned across up to workers
	// goroutines; workers <= 1 is serial and allocation-free.
	ParMulVecTo(dst, x []float64, workers int)
	// MulMatTo computes dst = A·X for a column-block multivector X.
	MulMatTo(dst, x *vec.Multi)
	// ParMulMatTo is MulMatTo with rows partitioned across up to workers
	// goroutines; workers <= 1 is serial and allocation-free.
	ParMulMatTo(dst, x *vec.Multi, workers int)
	// Diag returns the main diagonal as a fresh dense vector (zeros where
	// absent).
	Diag() []float64
}

var (
	_ Operator = (*CSR)(nil)
	_ Operator = (*DIA)(nil)
)

// Dims returns the matrix shape.
func (a *CSR) Dims() (rows, cols int) { return a.Rows, a.Cols }

// Dims returns the matrix shape (DIA matrices are square).
func (a *DIA) Dims() (rows, cols int) { return a.N, a.N }

// Diag returns the main diagonal as a fresh dense vector (zeros where
// absent).
func (a *DIA) Diag() []float64 {
	d := make([]float64, a.N)
	for k, off := range a.Offsets {
		if off == 0 {
			copy(d, a.Diags[k])
			break
		}
	}
	return d
}

// DiagStats scans the sparsity pattern once and reports its diagonal
// structure: the number of distinct occupied diagonals (what a DIA
// conversion would store) and the bandwidth max|j−i|. Together with NNZ and
// MaxRowNNZ these are the structure probes behind automatic backend
// selection: a multicolor-ordered plate occupies a fixed, size-independent
// family of diagonals, while scattered fill occupies O(n) of them.
func (a *CSR) DiagStats() (numDiags, bandwidth int) {
	// Offsets range over [-(rows-1), cols-1]; mark occupancy in one flat
	// scan rather than a map (this runs on every Auto-policy solve).
	if a.Rows == 0 || a.Cols == 0 {
		return 0, 0
	}
	occupied := make([]bool, a.Rows+a.Cols-1)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := a.ColIdx[k] - i
			if occupied[d+a.Rows-1] {
				continue
			}
			occupied[d+a.Rows-1] = true
			numDiags++
			if d < 0 {
				d = -d
			}
			if d > bandwidth {
				bandwidth = d
			}
		}
	}
	return numDiags, bandwidth
}
