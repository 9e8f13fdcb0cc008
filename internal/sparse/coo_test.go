package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// cooToCSRSorted is the sort-based conversion ToCSR replaced, kept as a
// reference: it sorts the triplets by (row, column) with an unstable sort,
// so an entry with three or more contributions sums them in an arbitrary
// (but fixed) order, while one with at most two matches ToCSR bit for bit.
func cooToCSRSorted(c *COO) *CSR {
	type ent struct {
		i, j int
		v    float64
	}
	ents := make([]ent, len(c.v))
	for k := range c.v {
		ents[k] = ent{c.i[k], c.j[k], c.v[k]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].i != ents[b].i {
			return ents[a].i < ents[b].i
		}
		return ents[a].j < ents[b].j
	})
	out := &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1)}
	for k := 0; k < len(ents); {
		i, j := ents[k].i, ents[k].j
		var s float64
		for k < len(ents) && ents[k].i == i && ents[k].j == j {
			s += ents[k].v
			k++
		}
		if s != 0 {
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, s)
			out.RowPtr[i+1] = len(out.Val)
		}
	}
	// Fill row pointers for empty rows.
	for i := 1; i <= c.rows; i++ {
		if out.RowPtr[i] < out.RowPtr[i-1] {
			out.RowPtr[i] = out.RowPtr[i-1]
		}
	}
	return out
}

// permuteSymCOO is PermuteSym as it was written through a COO round trip,
// kept as the reference the direct CSR→CSR permutation must match.
func permuteSymCOO(a *CSR, p Perm) *CSR {
	if a.Rows != a.Cols || a.Rows != len(p) {
		panic("sparse: permuteSymCOO needs square matrix matching perm")
	}
	inv := p.Inverse()
	c := NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		ni := inv[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c.Add(ni, inv[a.ColIdx[k]], a.Val[k])
		}
	}
	return cooToCSRSorted(c)
}

// checkCSR fails unless a holds the CSR invariants: monotone row pointers
// spanning exactly the stored entries, strictly increasing in-range columns
// within each row, no stored zero, and index and value slices with no
// spare capacity.
func checkCSR(t *testing.T, a *CSR) {
	t.Helper()
	if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Val) {
		t.Fatalf("row pointers %v do not span %d entries", a.RowPtr, len(a.Val))
	}
	if len(a.ColIdx) != len(a.Val) || cap(a.ColIdx) != len(a.ColIdx) || cap(a.Val) != len(a.Val) {
		t.Fatalf("len/cap: ColIdx %d/%d, Val %d/%d", len(a.ColIdx), cap(a.ColIdx), len(a.Val), cap(a.Val))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			t.Fatalf("row pointers not monotone at row %d: %v", i, a.RowPtr)
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j < 0 || j >= a.Cols || (k > a.RowPtr[i] && a.ColIdx[k-1] >= j) {
				t.Fatalf("row %d columns %v not strictly increasing in [0, %d)", i, a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Cols)
			}
			if a.Val[k] == 0 {
				t.Fatalf("stored zero at (%d, %d)", i, a.ColIdx[k])
			}
		}
	}
}

// sameCSR fails unless a and b store the same pattern and the same bits.
func sameCSR(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
		t.Fatalf("shape %d×%d with %d entries, want %d×%d with %d", a.Rows, a.Cols, len(a.Val), b.Rows, b.Cols, len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			t.Fatalf("entry %d: (col %d, %v), want (col %d, %v)", k, a.ColIdx[k], a.Val[k], b.ColIdx[k], b.Val[k])
		}
	}
}

// FuzzCOOToCSR checks ToCSR against a map that sums each entry's
// contributions in insertion order, bit for bit, plus the CSR invariants,
// on triplets with duplicates, exact cancellations, empty rows and zero
// dimensions. Entries with at most two contributions must also match the
// sort-based reference exactly.
func FuzzCOOToCSR(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(0), uint8(5), []byte{})
	f.Add(uint8(4), uint8(0), []byte{1, 2, 3})
	f.Add(uint8(3), uint8(3), []byte{0, 0, 3, 0, 0, 5, 0, 0, 253, 2, 1, 7})
	// (1,1) cancels exactly; rows 0 and 2 stay empty.
	f.Add(uint8(4), uint8(4), []byte{1, 1, 9, 1, 1, 247, 3, 0, 6})
	// Four contributions of 0.1-multiples to one entry: order matters.
	f.Add(uint8(2), uint8(3), []byte{1, 2, 2, 1, 2, 6, 1, 2, 250, 1, 2, 14, 0, 0, 1})
	f.Add(uint8(40), uint8(40), []byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		c := NewCOO(int(rows), int(cols))
		type key struct{ i, j int }
		ref := map[key]float64{}
		count := map[key]int{}
		if rows > 0 && cols > 0 {
			for k := 0; k+2 < len(data); k += 3 {
				i, j := int(data[k])%int(rows), int(data[k+1])%int(cols)
				// Odd bytes give halves (sums and cancellations exact),
				// even ones tenths (sums depend on their order).
				v := float64(int8(data[k+2]) >> 1)
				if data[k+2]&1 == 1 {
					v /= 2
				} else {
					v /= 10
				}
				c.Add(i, j, v)
				if v != 0 {
					ref[key{i, j}] += v
					count[key{i, j}]++
				}
			}
		}
		a := c.ToCSR()
		if a.Rows != int(rows) || a.Cols != int(cols) {
			t.Fatalf("shape %d×%d, want %d×%d", a.Rows, a.Cols, rows, cols)
		}
		checkCSR(t, a)
		nz := 0
		for k, v := range ref {
			if v != 0 {
				nz++
			}
			if got := a.At(k.i, k.j); math.Float64bits(got) != math.Float64bits(v) && !(v == 0 && got == 0) {
				t.Fatalf("(%d,%d) = %v, insertion-order sum %v", k.i, k.j, got, v)
			}
		}
		if nz != a.NNZ() {
			t.Fatalf("%d stored entries, want %d", a.NNZ(), nz)
		}
		old := cooToCSRSorted(c)
		for k, n := range count {
			if n <= 2 && math.Float64bits(a.At(k.i, k.j)) != math.Float64bits(old.At(k.i, k.j)) {
				t.Fatalf("(%d,%d) with %d contributions = %v, sort-based %v", k.i, k.j, n, a.At(k.i, k.j), old.At(k.i, k.j))
			}
		}
	})
}

// TestCOOToCSRLongRow sends rows longer than the insertion-sort cutoff
// through ToCSR, in shuffled order with duplicates.
func TestCOOToCSRLongRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 500
	c := NewCOO(3, n)
	want := make([]float64, n)
	for _, j := range rng.Perm(n) {
		c.Add(1, j, float64(j+1))
		want[j] += float64(j + 1)
	}
	for _, j := range rng.Perm(n)[:100] {
		c.Add(1, j, 0.5)
		want[j] += 0.5
	}
	a := c.ToCSR()
	checkCSR(t, a)
	if a.RowPtr[1] != 0 || a.RowPtr[2] != n || a.RowPtr[3] != n {
		t.Fatalf("row pointers %v", a.RowPtr)
	}
	for j, v := range want {
		if a.Val[j] != v {
			t.Fatalf("(1,%d) = %v, want %v", j, a.Val[j], v)
		}
	}
}

// randCSRWithZeros is randCSR with a quarter of its stored values set to
// zero (half of them negative zero) after assembly, the way a caller could
// zero entries in place.
func randCSRWithZeros(rng *rand.Rand, n, perRow int) *CSR {
	a := randCSR(rng, n, perRow)
	for k := range a.Val {
		switch rng.Intn(8) {
		case 0:
			a.Val[k] = 0
		case 1:
			a.Val[k] = math.Copysign(0, -1)
		}
	}
	return a
}

// TestPermuteSymMatchesCOO pins the direct permutation bitwise to the COO
// round trip on random matrices with stored zeros (which both drop), and
// checks the CSR invariants of its output. Plate and irregular-domain
// matrices are pinned in permute_fem_test.go.
func TestPermuteSymMatchesCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		a := randCSRWithZeros(rng, n, rng.Intn(12))
		if trial%10 == 0 {
			a = randCSRWithZeros(rng, n, 40+rng.Intn(20)) // rows past the insertion-sort cutoff
		}
		p := randPerm(rng, n)
		got := PermuteSym(a, p)
		checkCSR(t, got)
		sameCSR(t, got, permuteSymCOO(a, p))
	}
}

// TestPermuteSymRejectsInvalidPerm: a permutation with a repeated or
// out-of-range index would leave a slot of the inverse at 0 and put rows
// in the wrong place, so PermuteSym panics, as for a size mismatch.
func TestPermuteSymRejectsInvalidPerm(t *testing.T) {
	for _, p := range []Perm{{0, 0, 1}, {2, 0, 3}, {-1, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PermuteSym accepted invalid permutation %v", p)
				}
			}()
			PermuteSym(small(), p)
		}()
	}
}
