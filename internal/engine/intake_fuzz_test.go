package engine

import (
	"math"
	"testing"
)

// FuzzSystemIntake sends random general systems through Validate and then
// assemble. Neither may panic. Out-of-range indices must fail validation
// and an asymmetric matrix must fail assembly; every accepted system must
// equal a dense reference that sums each entry's triplets in order.
// Values are multiples of 1/4, so the sums are exact and symmetry is never
// a matter of rounding.
func FuzzSystemIntake(f *testing.F) {
	f.Add(int8(2), false, true, []byte{0, 0, 8, 1, 1, 8})
	f.Add(int8(3), false, true, []byte{0, 1, 252, 1, 1, 8, 2, 2, 8, 0, 0, 8})
	f.Add(int8(3), false, false, []byte{0, 1, 4, 1, 1, 8})
	f.Add(int8(2), false, true, []byte{0, 2, 4, 1, 1, 8})
	f.Add(int8(2), false, true, []byte{255, 0, 4})
	f.Add(int8(0), false, true, []byte{})
	f.Add(int8(4), true, true, []byte{})
	f.Add(int8(4), false, true, []byte{})
	f.Add(int8(4), false, true, []byte{0, 0, 4, 0, 0, 252, 3, 3, 4})
	f.Fuzz(func(t *testing.T, n int8, keyed, mirror bool, data []byte) {
		sy := &SystemSpec{N: int(n), F: make([]float64, max(int(n), 0))}
		if keyed {
			sy.Key = "fuzz"
		}
		inRange := true
		add := func(i, j int, v float64) {
			sy.I, sy.J, sy.V = append(sy.I, i), append(sy.J, j), append(sy.V, v)
			inRange = inRange && i >= 0 && i < int(n) && j >= 0 && j < int(n)
		}
		for k := 0; k+2 < len(data); k += 3 {
			// Indices from -2 to n: most in range, a few just outside.
			i := int(data[k])%(int(max(n, 0))+3) - 2
			j := int(data[k+1])%(int(max(n, 0))+3) - 2
			v := float64(int8(data[k+2])) / 4
			add(i, j, v)
			if mirror && i != j {
				add(j, i, v)
			}
		}
		req := &Request{System: sy}
		if err := req.Validate(); err != nil {
			return
		}
		if !inRange {
			t.Fatalf("out-of-range triplets %v %v validated (n = %d)", sy.I, sy.J, n)
		}
		if sy.byReference() {
			return // resolved from the cache, never assembled
		}
		ref := make([][]float64, n)
		for i := range ref {
			ref[i] = make([]float64, n)
		}
		for k := range sy.I {
			ref[sy.I[k]][sy.J[k]] += sy.V[k]
		}
		symmetric := true
		for i := range ref {
			for j := range ref {
				symmetric = symmetric && ref[i][j] == ref[j][i]
			}
		}
		sys, plate, err := req.assemble()
		if !symmetric {
			if err == nil {
				t.Fatalf("asymmetric system %v %v %v assembled", sy.I, sy.J, sy.V)
			}
			return
		}
		if err != nil {
			t.Fatalf("symmetric system rejected: %v", err)
		}
		if plate != nil || len(sys.F) != int(n) {
			t.Fatalf("system assembled with plate %v and rhs length %d", plate, len(sys.F))
		}
		k := sys.K
		if k.Rows != int(n) || k.Cols != int(n) {
			t.Fatalf("matrix %d×%d, want %d×%d", k.Rows, k.Cols, n, n)
		}
		nnz := 0
		for i := range ref {
			for j, v := range ref[i] {
				if v != 0 {
					nnz++
				}
				if got := k.At(i, j); math.Float64bits(got) != math.Float64bits(v) && !(got == 0 && v == 0) {
					t.Fatalf("K(%d,%d) = %v, want %v", i, j, got, v)
				}
			}
		}
		if k.NNZ() != nnz {
			t.Fatalf("%d stored entries, want %d", k.NNZ(), nnz)
		}
	})
}
