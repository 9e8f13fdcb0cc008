package sparse

import "fmt"

// Perm represents a permutation of {0,…,n−1}. p[newIndex] = oldIndex: the
// value at position i names which original index moves to position i. This
// is the natural direction for "number the Red u equations first …"
// multicolor orderings: the permutation is simply the concatenated color
// groups listed in their new order.
type Perm []int

// Valid reports whether p is a genuine permutation of {0,…,len(p)−1}.
func (p Perm) Valid() bool {
	seen := make([]bool, len(p))
	for _, old := range p {
		if old < 0 || old >= len(p) || seen[old] {
			return false
		}
		seen[old] = true
	}
	return true
}

// Inverse returns q with q[oldIndex] = newIndex.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for newIdx, old := range p {
		q[old] = newIdx
	}
	return q
}

// ApplyVec gathers src into a new vector: dst[new] = src[p[new]].
func (p Perm) ApplyVec(src []float64) []float64 {
	if len(src) != len(p) {
		panic(fmt.Sprintf("sparse: ApplyVec length mismatch %d vs %d", len(src), len(p)))
	}
	dst := make([]float64, len(p))
	for newIdx, old := range p {
		dst[newIdx] = src[old]
	}
	return dst
}

// UnapplyVec scatters src back to original ordering: dst[p[new]] = src[new].
func (p Perm) UnapplyVec(src []float64) []float64 {
	if len(src) != len(p) {
		panic(fmt.Sprintf("sparse: UnapplyVec length mismatch %d vs %d", len(src), len(p)))
	}
	dst := make([]float64, len(p))
	for newIdx, old := range p {
		dst[old] = src[newIdx]
	}
	return dst
}

// PermuteSym returns B = Pᵀ A P in index terms: B[new_i][new_j] =
// A[p[new_i]][p[new_j]]. Symmetry and positive definiteness are preserved.
// It works CSR to CSR: row new_i is old row p[new_i] with its columns
// renamed through the inverse permutation and re-sorted; stored zeros are
// dropped. p must be a valid permutation.
func PermuteSym(a *CSR, p Perm) *CSR {
	if a.Rows != a.Cols || a.Rows != len(p) {
		panic(fmt.Sprintf("sparse: PermuteSym needs square matrix matching perm: %d×%d vs %d", a.Rows, a.Cols, len(p)))
	}
	if !p.Valid() {
		panic("sparse: PermuteSym needs a valid permutation")
	}
	inv := p.Inverse()
	rowPtr := make([]int, a.Rows+1)
	for newI, old := range p {
		nz := 0
		for _, v := range a.Val[a.RowPtr[old]:a.RowPtr[old+1]] {
			if v != 0 {
				nz++
			}
		}
		rowPtr[newI+1] = rowPtr[newI] + nz
	}
	nnz := rowPtr[a.Rows]
	b := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: rowPtr, ColIdx: make([]int, nnz), Val: make([]float64, nnz)}
	for newI, old := range p {
		w := rowPtr[newI]
		for k := a.RowPtr[old]; k < a.RowPtr[old+1]; k++ {
			if v := a.Val[k]; v != 0 {
				b.ColIdx[w], b.Val[w] = inv[a.ColIdx[k]], v
				w++
			}
		}
		sortRow(b.ColIdx[rowPtr[newI]:w], b.Val[rowPtr[newI]:w])
	}
	return b
}
