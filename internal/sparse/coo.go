// Package sparse provides the sparse matrix substrate for the m-step PCG
// library: a COO assembly builder, CSR for general kernels, DIA ("storage by
// diagonals", the CYBER 203/205 layout of Madsen–Rodrigue–Karush used in
// the paper's §3.1), symmetric permutations for multicolor orderings, and
// serial plus chunked-parallel SpMV.
//
// COO→CSR conversion runs in O(nnz + rows + cols): a counting sort by row,
// then a per-row merge of duplicates. Duplicate entries sum in the order
// they were added, so a given assembly order always yields the same bits.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// COO is an assembly-friendly coordinate-format builder. Duplicate entries
// are summed when converting to CSR, in the order they were added, which is
// exactly what finite element assembly needs.
type COO struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewCOO returns an empty rows×cols builder.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative COO dimension %d×%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Grow reserves room for n more Add calls, so an assembly whose entry count
// is known up front appends without reallocating.
func (c *COO) Grow(n int) {
	c.i = slices.Grow(c.i, n)
	c.j = slices.Grow(c.j, n)
	c.v = slices.Grow(c.v, n)
}

// Add accumulates v into entry (i, j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of %d×%d", i, j, c.rows, c.cols))
	}
	if v == 0 {
		return
	}
	c.i = append(c.i, i)
	c.j = append(c.j, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of accumulated entries (before deduplication).
func (c *COO) NNZ() int { return len(c.v) }

// ToCSR converts to CSR, summing duplicates in insertion order and dropping
// entries that cancelled to exactly zero. ColIdx and Val come back sized to
// the stored entries exactly (length = capacity), since cached matrices
// live as long as their cache entry.
func (c *COO) ToCSR() *CSR {
	n, raw := c.rows, len(c.v)
	// Counting sort by row. rowPtr[i] first counts up to the end of row i;
	// the backward scatter then walks each row's slot down to its start,
	// which keeps the entries of a row in insertion order.
	rowPtr := make([]int, n+1)
	for _, i := range c.i {
		rowPtr[i]++
	}
	for i := 1; i < n; i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	rowPtr[n] = raw
	cols := make([]int, raw)
	vals := make([]float64, raw)
	for k := raw - 1; k >= 0; k-- {
		i := c.i[k]
		rowPtr[i]--
		cols[rowPtr[i]] = c.j[k]
		vals[rowPtr[i]] = c.v[k]
	}

	// Merge each row's duplicates in place. at[j] is where column j's sum
	// sits; a stale position from an earlier row either lies before this
	// row's start or holds another column, so at needs no reset.
	at := make([]int, c.cols)
	nnz := 0
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		start := nnz
		for p := lo; p < hi; p++ {
			j := cols[p]
			if q := at[j]; q >= start && q < nnz && cols[q] == j {
				vals[q] += vals[p]
				continue
			}
			at[j] = nnz
			cols[nnz], vals[nnz] = j, vals[p]
			nnz++
		}
		end := start
		for q := start; q < nnz; q++ {
			if vals[q] != 0 {
				cols[end], vals[end] = cols[q], vals[q]
				end++
			}
		}
		nnz = end
		sortRow(cols[start:nnz], vals[start:nnz])
		rowPtr[i] = start
	}
	rowPtr[n] = nnz
	if nnz < raw {
		cols = append(make([]int, 0, nnz), cols[:nnz]...)
		vals = append(make([]float64, 0, nnz), vals[:nnz]...)
	}
	return &CSR{Rows: n, Cols: c.cols, RowPtr: rowPtr, ColIdx: cols, Val: vals}
}

// sortRow orders one row's distinct columns, carrying their values along.
// Rows of the paper's plate hold at most 14 entries, where an insertion
// sort is fastest; longer rows (a dense row in a general system) take an
// O(k log k) sort so hostile input cannot make the conversion quadratic.
func sortRow(cols []int, vals []float64) {
	if len(cols) > maxInsertionRow {
		sort.Sort(rowSorter{cols, vals})
		return
	}
	for a := 1; a < len(cols); a++ {
		j, v := cols[a], vals[a]
		b := a
		for ; b > 0 && cols[b-1] > j; b-- {
			cols[b], vals[b] = cols[b-1], vals[b-1]
		}
		cols[b], vals[b] = j, v
	}
}

// maxInsertionRow is the longest row sortRow insertion-sorts.
const maxInsertionRow = 32

// rowSorter sorts a row's columns and values together by column.
type rowSorter struct {
	cols []int
	vals []float64
}

func (r rowSorter) Len() int           { return len(r.cols) }
func (r rowSorter) Less(a, b int) bool { return r.cols[a] < r.cols[b] }
func (r rowSorter) Swap(a, b int) {
	r.cols[a], r.cols[b] = r.cols[b], r.cols[a]
	r.vals[a], r.vals[b] = r.vals[b], r.vals[a]
}
