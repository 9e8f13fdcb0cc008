package fem

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// Plate is the assembled, constrained plane-stress test problem.
//
// The reduced system K·u = F is in "natural" reduced ordering: free node k
// (the k-th entry of Free) owns unknowns 2k (u-displacement) and 2k+1
// (v-displacement). Ordering carries the 6-color permutation; KColored is
// the permuted matrix with the block structure of eq. (3.1).
type Plate struct {
	Grid        mesh.Grid
	Mat         Material
	Constrained mesh.Constraint
	Free        []int // natural ids of free nodes
	freePos     []int // natural id → position in Free, or -1 when constrained

	K        *sparse.CSR // reduced stiffness, natural reduced ordering
	F        []float64   // reduced load vector
	Ordering *mesh.MulticolorOrdering
	KColored *sparse.CSR // Pᵀ K P under the 6-color ordering
}

// N returns the number of unknowns 2·len(Free).
func (p *Plate) N() int { return 2 * len(p.Free) }

// FreeIndex returns the free-list position of a natural node id, or -1 if
// the node is constrained.
func (p *Plate) FreeIndex(node int) int {
	if node < 0 || node >= len(p.freePos) {
		return -1
	}
	return p.freePos[node]
}

// DOF returns the reduced unknown index of component comp (0=u, 1=v) at the
// given natural node id, or -1 when constrained.
func (p *Plate) DOF(node, comp int) int {
	k := p.FreeIndex(node)
	if k < 0 {
		return -1
	}
	return 2*k + comp
}

// Options configure plate construction.
type Options struct {
	Mat         Material
	Constrained mesh.Constraint // default: left edge clamped
	// Traction is the uniform x-direction edge load applied to the right
	// edge (consistent nodal lumping). Default 1.
	Traction float64
}

// NewPlate assembles the rows×cols plate. It panics only for programming
// errors; physically invalid input returns an error.
func NewPlate(rows, cols int, opt Options) (*Plate, error) {
	if opt.Mat == (Material{}) {
		opt.Mat = DefaultMaterial
	}
	if err := opt.Mat.Validate(); err != nil {
		return nil, err
	}
	if opt.Constrained == nil {
		opt.Constrained = mesh.LeftEdgeClamped
	}
	if opt.Traction == 0 {
		opt.Traction = 1
	}
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("fem: plate needs at least 2×2 nodes, got %d×%d", rows, cols)
	}
	g := mesh.NewGrid(rows, cols)
	p := &Plate{Grid: g, Mat: opt.Mat, Constrained: opt.Constrained}
	p.Free = g.FreeNodes(opt.Constrained)
	if len(p.Free) == 0 {
		return nil, fmt.Errorf("fem: every node is constrained")
	}
	p.freePos = make([]int, g.NumNodes())
	for id := range p.freePos {
		p.freePos[id] = -1
	}
	for k, id := range p.Free {
		p.freePos[id] = k
	}

	n := p.N()
	coo := sparse.NewCOO(n, n)
	tris := g.Triangles()
	coo.Grow(36 * len(tris))
	for _, tr := range tris {
		var x, y [3]float64
		for k, id := range tr {
			i, j := g.NodeRC(id)
			x[k], y[k] = g.XY(i, j)
		}
		ke, err := CSTStiffness(opt.Mat, x, y)
		if err != nil {
			return nil, err
		}
		// Scatter into the reduced system, skipping constrained dofs
		// (homogeneous Dirichlet: their columns contribute nothing).
		var dof [6]int
		for k, id := range tr {
			dof[2*k] = p.DOF(id, 0)
			dof[2*k+1] = p.DOF(id, 1)
		}
		for a := 0; a < 6; a++ {
			if dof[a] < 0 {
				continue
			}
			for b := 0; b < 6; b++ {
				if dof[b] < 0 {
					continue
				}
				coo.Add(dof[a], dof[b], ke[a][b])
			}
		}
	}
	p.K = coo.ToCSR()

	// Consistent nodal load: uniform x-traction on the right edge. Each
	// vertical edge segment of length h contributes t·traction·h/2 to the
	// u-unknown of both end nodes.
	p.F = make([]float64, n)
	h := 1.0 / float64(rows-1)
	for i := 0; i < rows-1; i++ {
		for _, node := range []int{g.NodeID(i, cols-1), g.NodeID(i+1, cols-1)} {
			if d := p.DOF(node, 0); d >= 0 {
				p.F[d] += opt.Mat.T * opt.Traction * h / 2
			}
		}
	}

	p.Ordering = g.NewMulticolorOrdering(p.Free)
	p.KColored = sparse.PermuteSym(p.K, p.Ordering.Perm)
	return p, nil
}

// ColoredRHS returns the load vector permuted into the 6-color ordering.
func (p *Plate) ColoredRHS() []float64 { return p.Ordering.Perm.ApplyVec(p.F) }

// UncolorSolution maps a solution of the colored system back to the natural
// reduced ordering.
func (p *Plate) UncolorSolution(x []float64) []float64 {
	return p.Ordering.Perm.UnapplyVec(x)
}

// NodeDisplacements maps a solution of the colored system back to per-node
// displacements: nodes is Free, and u[k], v[k] are free node k's two
// components.
func (p *Plate) NodeDisplacements(x []float64) (nodes []int, u, v []float64) {
	natural := p.UncolorSolution(x)
	u = make([]float64, len(p.Free))
	v = make([]float64, len(p.Free))
	for k := range p.Free {
		u[k], v[k] = natural[2*k], natural[2*k+1]
	}
	return p.Free, u, v
}

// StencilOffsets returns the set of (di, dj, comp-pair) offsets with
// nonzero coupling for an interior node — the paper's Figure 2 stencil.
// The returned map keys are [3]int{di, dj, comp} where comp encodes the
// 2×2 u/v coupling block position (0..3).
func (p *Plate) StencilOffsets() map[[3]int]bool {
	g := p.Grid
	// Pick an interior free node away from all boundaries.
	var center int = -1
	for _, id := range p.Free {
		i, j := g.NodeRC(id)
		if i > 0 && i < g.Rows-1 && j > 1 && j < g.Cols-1 {
			if p.FreeIndex(id) >= 0 {
				center = id
				break
			}
		}
	}
	out := map[[3]int]bool{}
	if center < 0 {
		return out
	}
	ci, cj := g.NodeRC(center)
	for a := 0; a < 2; a++ {
		row := p.DOF(center, a)
		for k := p.K.RowPtr[row]; k < p.K.RowPtr[row+1]; k++ {
			col := p.K.ColIdx[k]
			nodeK := col / 2
			b := col % 2
			nid := p.Free[nodeK]
			ni, nj := g.NodeRC(nid)
			out[[3]int{ni - ci, nj - cj, 2*a + b}] = true
		}
	}
	return out
}
