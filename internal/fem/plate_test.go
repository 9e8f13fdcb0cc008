package fem

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/mesh"
)

func mustPlate(t *testing.T, rows, cols int) *Plate {
	t.Helper()
	p, err := NewPlate(rows, cols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlateDimensionsMatchPaper(t *testing.T) {
	// The paper's FEM test problem: 6 rows, 6 columns of nodes, left edge
	// clamped → 60 equations. "2ab" with a=6 rows, b=5 unconstrained cols.
	p := mustPlate(t, 6, 6)
	if p.N() != 60 {
		t.Fatalf("N = %d, want 60", p.N())
	}
}

func TestPlateSymmetricSPD(t *testing.T) {
	p := mustPlate(t, 5, 5)
	if !p.K.IsSymmetric(1e-10) {
		t.Fatal("K not symmetric")
	}
	// SPD via dense Cholesky on this small case.
	n := p.N()
	dense := la.NewMatrix(n, n)
	for i, row := range p.K.Dense() {
		copy(dense.Data[i*n:(i+1)*n], row)
	}
	if _, err := la.Cholesky(dense); err != nil {
		t.Fatalf("K not SPD: %v", err)
	}
}

func TestPlateMaxRowNNZIs14(t *testing.T) {
	// Figure 2: each equation couples to at most 7 nodes × 2 components.
	p := mustPlate(t, 8, 9)
	if got := p.K.MaxRowNNZ(); got > 14 {
		t.Fatalf("max row nnz = %d, exceeds the paper's 14", got)
	}
	// With the right-triangle mesh and isotropic material a few u/v
	// cross-couplings cancel exactly, so interior rows carry 12 stored
	// entries; 14 is the paper's storage reservation ("at most 14").
	if got := p.K.MaxRowNNZ(); got < 12 {
		t.Fatalf("max row nnz = %d, want >= 12 for an interior node", got)
	}
}

func TestPlateStencilMatchesFigure2(t *testing.T) {
	p := mustPlate(t, 8, 9)
	st := p.StencilOffsets()
	// Node offsets must be exactly the 7 of Figure 2.
	nodes := map[[2]int]bool{}
	for k := range st {
		nodes[[2]int{k[0], k[1]}] = true
	}
	want := [][2]int{{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}, {1, 1}, {-1, -1}}
	if len(nodes) != len(want) {
		t.Fatalf("stencil has %d node offsets, want %d: %v", len(nodes), len(want), nodes)
	}
	for _, w := range want {
		if !nodes[w] {
			t.Fatalf("stencil missing offset %v", w)
		}
	}
}

func TestPlateColoredBlockStructure(t *testing.T) {
	// Eq. (3.1): with the 6-color ordering, the diagonal blocks D_cc are
	// diagonal matrices, and the same-color u/v blocks (B12, B34, B56) are
	// diagonal too.
	p := mustPlate(t, 6, 6)
	o := p.Ordering
	kc := p.KColored
	groupOf := func(idx int) (mesh.UnknownGroup, int) {
		g := o.GroupOfNew(idx)
		return g, idx - o.GroupStart[g]
	}
	for i := 0; i < kc.Rows; i++ {
		gi, oi := groupOf(i)
		for k := kc.RowPtr[i]; k < kc.RowPtr[i+1]; k++ {
			j := kc.ColIdx[k]
			gj, oj := groupOf(j)
			if gi == gj && i != j {
				t.Fatalf("D_%v not diagonal: entry (%d,%d)", gi, i, j)
			}
			// Same color, different component (u-v coupling at a node):
			// the block must be diagonal.
			if gi/2 == gj/2 && gi != gj && oi != oj {
				t.Fatalf("B block %v-%v not diagonal: offsets %d vs %d", gi, gj, oi, oj)
			}
		}
	}
}

func TestPlateLoadOnRightEdgeOnly(t *testing.T) {
	p := mustPlate(t, 6, 6)
	for k, id := range p.Free {
		_, j := p.Grid.NodeRC(id)
		fu, fv := p.F[2*k], p.F[2*k+1]
		if j == p.Grid.Cols-1 {
			if fu <= 0 {
				t.Fatalf("right edge node %d has no x-load", id)
			}
		} else if fu != 0 {
			t.Fatalf("interior node %d loaded: %g", id, fu)
		}
		if fv != 0 {
			t.Fatalf("node %d has y-load %g", id, fv)
		}
	}
	// Total load equals traction × edge length × thickness = 1·1·1.
	var sum float64
	for _, f := range p.F {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("total load %g, want 1", sum)
	}
}

func TestColoredSystemConsistent(t *testing.T) {
	// The colored system is an exact symmetric permutation: solving either
	// must describe the same physics. Verify K_c·(Px) = P·(Kx).
	p := mustPlate(t, 5, 7)
	x := make([]float64, p.N())
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	lhs, kx := make([]float64, p.N()), make([]float64, p.N())
	p.KColored.MulVecTo(lhs, p.Ordering.Perm.ApplyVec(x))
	p.K.MulVecTo(kx, x)
	rhs := p.Ordering.Perm.ApplyVec(kx)
	for i := range lhs {
		if math.Abs(lhs[i]-rhs[i]) > 1e-12 {
			t.Fatalf("colored system inconsistent at %d", i)
		}
	}
	// Round trip of the RHS.
	back := p.UncolorSolution(p.ColoredRHS())
	for i := range back {
		if back[i] != p.F[i] {
			t.Fatal("ColoredRHS/UncolorSolution round trip failed")
		}
	}
}

func TestPlateDOFMapping(t *testing.T) {
	p := mustPlate(t, 4, 4)
	// Constrained nodes have no dof.
	if p.DOF(p.Grid.NodeID(0, 0), 0) != -1 {
		t.Fatal("constrained node has dof")
	}
	if p.FreeIndex(p.Grid.NodeID(1, 0)) != -1 {
		t.Fatal("constrained node has free index")
	}
	// Free nodes map consistently.
	for k, id := range p.Free {
		if p.DOF(id, 0) != 2*k || p.DOF(id, 1) != 2*k+1 {
			t.Fatalf("dof mapping broken for node %d", id)
		}
	}
}

// TestPlateNodeDisplacements: a colored solution whose every unknown names
// its node and component maps back to each free node's own u and v.
func TestPlateNodeDisplacements(t *testing.T) {
	p := mustPlate(t, 5, 4)
	natural := make([]float64, p.N())
	for _, id := range p.Free {
		natural[p.DOF(id, 0)] = float64(id)
		natural[p.DOF(id, 1)] = -float64(id) - 0.5
	}
	nodes, u, v := p.NodeDisplacements(p.Ordering.Perm.ApplyVec(natural))
	if len(nodes) != len(p.Free) || len(u) != len(nodes) || len(v) != len(nodes) {
		t.Fatalf("lengths %d/%d/%d, want %d", len(nodes), len(u), len(v), len(p.Free))
	}
	for k, id := range nodes {
		if id != p.Free[k] || u[k] != float64(id) || v[k] != -float64(id)-0.5 {
			t.Fatalf("free node %d: node %d u %g v %g", k, id, u[k], v[k])
		}
	}
}

func TestPlateErrors(t *testing.T) {
	if _, err := NewPlate(1, 5, Options{}); err == nil {
		t.Fatal("1-row plate accepted")
	}
	if _, err := NewPlate(4, 4, Options{Mat: Material{E: -1, Nu: 0.3, T: 1}}); err == nil {
		t.Fatal("bad material accepted")
	}
	all := func(i, j int) bool { return true }
	if _, err := NewPlate(4, 4, Options{Constrained: all}); err == nil {
		t.Fatal("fully constrained plate accepted")
	}
}

func TestPlateCustomConstraint(t *testing.T) {
	// Clamp the bottom edge instead.
	bottom := func(i, j int) bool { return i == 0 }
	p, err := NewPlate(5, 4, Options{Constrained: bottom})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2*4*4 {
		t.Fatalf("N = %d, want 32", p.N())
	}
	if !p.K.IsSymmetric(1e-10) {
		t.Fatal("K not symmetric under custom constraint")
	}
}
