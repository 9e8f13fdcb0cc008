package femachine

import (
	"repro/internal/decomp"
	"repro/internal/fem"
	"repro/internal/mesh"
)

// DomainColoredProblem adapts an irregular-region problem. The partition
// treats inactive nodes as constrained; the greedy coloring drives the
// color pairs exchanged during the sweeps.
func DomainColoredProblem(p *fem.DomainProblem, constrained mesh.Constraint) (decomp.Problem, error) {
	if constrained == nil {
		constrained = mesh.LeftEdgeClamped
	}
	inv := p.Ordering.Perm.Inverse()
	groupOf := func(coloredIdx int) int {
		for g := 0; g+1 < len(p.GroupStart); g++ {
			if coloredIdx < p.GroupStart[g+1] {
				return g
			}
		}
		return -1
	}
	// Recover each free node's color from the ordering: its u-unknown
	// lives in group 2·color.
	colorOf := make(map[int]int, len(p.Free))
	for k, id := range p.Free {
		colorOf[id] = groupOf(inv[2*k]) / 2
	}
	g := p.Domain.Grid
	active := make(map[int]bool, len(p.Free))
	for _, id := range p.Domain.ActiveNodes() {
		active[id] = true
	}
	cp := decomp.Problem{
		Grid:       g,
		KColored:   p.KColored,
		RHS:        p.ColoredRHS(),
		GroupStart: p.GroupStart,
		NumColors:  p.NumColors,
		Free:       p.Free,
		ColorOf: func(node int) int {
			c, ok := colorOf[node]
			if !ok {
				return -1
			}
			return c
		},
		ColoredIndex: func(freeIdx, comp int) int { return inv[2*freeIdx+comp] },
		Constrained: func(i, j int) bool {
			return constrained(i, j) || !active[g.NodeID(i, j)]
		},
	}
	return cp, cp.Validate()
}
