package sparse_test

import (
	"fmt"
	"testing"

	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// TestPermuteSymMatchesCOOOnPlates pins the direct permutation bitwise to
// the COO round trip on the multicolor orderings the solver actually uses:
// plates from 6² to 72² and an irregular domain's greedy coloring.
func TestPermuteSymMatchesCOOOnPlates(t *testing.T) {
	type colored struct {
		name string
		k    *sparse.CSR
		perm sparse.Perm
	}
	var cases []colored
	for _, n := range []int{6, 10, 16, 22, 40, 52, 64, 72} {
		p, err := fem.NewPlate(n, n, fem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, colored{"plate", p.K, p.Ordering.Perm})
	}
	d, err := fem.NewDomainProblem(mesh.LShapedDomain(mesh.NewGrid(17, 17)), nil, fem.Material{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, colored{"L-shape", d.K, d.Ordering.Perm})
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.name, c.k.Rows), func(t *testing.T) {
			sparse.SameCSR(t, sparse.PermuteSym(c.k, c.perm), sparse.PermuteSymCOO(c.k, c.perm))
		})
	}
}
