package fem

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// DomainProblem is the plane-stress problem assembled over an irregular
// region — the paper's §5 future-work case. The node coloring comes from
// the greedy graph colorer rather than the structured (i+j) mod 3 rule, so
// the number of unknown groups is 2 × (colors found).
type DomainProblem struct {
	Domain    mesh.Domain
	Mat       Material
	Free      []int // natural ids of free active nodes
	NumColors int

	K          *sparse.CSR // reduced stiffness, natural reduced ordering
	F          []float64
	Ordering   *mesh.GeneralOrdering
	KColored   *sparse.CSR
	GroupStart []int
}

// N returns the number of unknowns.
func (p *DomainProblem) N() int { return 2 * len(p.Free) }

// NewDomainProblem assembles plane stress over the domain's triangles with
// a unit x-direction body force (lumped per element), clamping the nodes
// selected by constrained. The node coloring is computed greedily on the
// triangle-sharing graph and validated.
func NewDomainProblem(d mesh.Domain, constrained mesh.Constraint, mat Material) (*DomainProblem, error) {
	if mat == (Material{}) {
		mat = DefaultMaterial
	}
	if err := mat.Validate(); err != nil {
		return nil, err
	}
	if constrained == nil {
		constrained = mesh.LeftEdgeClamped
	}
	g := d.Grid

	// Color the active-node graph.
	activeNodes, adj := d.Adjacency()
	colors, numColors := mesh.GreedyColoring(adj)
	if err := mesh.VerifyGraphColoring(adj, colors); err != nil {
		return nil, err
	}
	colorOfNode := make(map[int]int, len(activeNodes))
	for k, id := range activeNodes {
		colorOfNode[id] = colors[k]
	}

	p := &DomainProblem{Domain: d, Mat: mat, NumColors: numColors}
	freePos := map[int]int{}
	for _, id := range activeNodes {
		i, j := g.NodeRC(id)
		if constrained(i, j) {
			continue
		}
		freePos[id] = len(p.Free)
		p.Free = append(p.Free, id)
	}
	if len(p.Free) == 0 {
		return nil, fmt.Errorf("fem: every active node is constrained")
	}
	dof := func(id, comp int) int {
		k, ok := freePos[id]
		if !ok {
			return -1
		}
		return 2*k + comp
	}

	n := p.N()
	coo := sparse.NewCOO(n, n)
	p.F = make([]float64, n)
	tris := d.Triangles()
	coo.Grow(36 * len(tris))
	for _, tr := range tris {
		var x, y [3]float64
		for k, id := range tr {
			i, j := g.NodeRC(id)
			x[k], y[k] = g.XY(i, j)
		}
		ke, err := CSTStiffness(mat, x, y)
		if err != nil {
			return nil, err
		}
		area := ((x[1]-x[0])*(y[2]-y[0]) - (x[2]-x[0])*(y[1]-y[0])) / 2
		var dofs [6]int
		for k, id := range tr {
			dofs[2*k] = dof(id, 0)
			dofs[2*k+1] = dof(id, 1)
			// Lumped unit x-body-force: t·area/3 per vertex.
			if du := dofs[2*k]; du >= 0 {
				p.F[du] += mat.T * area / 3
			}
		}
		for a := 0; a < 6; a++ {
			if dofs[a] < 0 {
				continue
			}
			for b := 0; b < 6; b++ {
				if dofs[b] < 0 {
					continue
				}
				coo.Add(dofs[a], dofs[b], ke[a][b])
			}
		}
	}
	p.K = coo.ToCSR()

	ord, err := mesh.NewGeneralOrdering(len(p.Free), func(freeIdx int) int {
		return colorOfNode[p.Free[freeIdx]]
	}, numColors)
	if err != nil {
		return nil, err
	}
	p.Ordering = ord
	p.KColored = sparse.PermuteSym(p.K, ord.Perm)
	p.GroupStart = ord.GroupStart
	return p, nil
}

// ColoredRHS returns the load vector in the multicolor ordering.
func (p *DomainProblem) ColoredRHS() []float64 { return p.Ordering.Perm.ApplyVec(p.F) }

// UncolorSolution maps a colored solution back to the natural reduced
// ordering.
func (p *DomainProblem) UncolorSolution(x []float64) []float64 {
	return p.Ordering.Perm.UnapplyVec(x)
}
