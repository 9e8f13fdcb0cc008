package mesh

import (
	"fmt"

	"repro/internal/sparse"
)

// Constraint reports whether node (i, j) is constrained (removed from the
// unknown set). The paper's test problem clamps one edge of the plate.
type Constraint func(i, j int) bool

// LeftEdgeClamped is the paper's default constraint: the j = 0 column of
// nodes is fixed.
func LeftEdgeClamped(i, j int) bool { return j == 0 }

// NoConstraint leaves every node free (useful for tests).
func NoConstraint(i, j int) bool { return false }

// FreeNodes returns the natural ids of unconstrained nodes in natural
// order, which defines the reduced system's node numbering: free node k has
// displacement unknowns 2k (u) and 2k+1 (v).
func (g Grid) FreeNodes(constrained Constraint) []int {
	out := make([]int, 0, g.NumNodes())
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if !constrained(i, j) {
				out = append(out, g.NodeID(i, j))
			}
		}
	}
	return out
}

// UnknownGroup identifies one of the six unknown colors of eq. (3.1):
// group = 2*color + component, with component 0 = u, 1 = v. Groups are
// ordered Red(u), Red(v), Black(u), Black(v), Green(u), Green(v), matching
// the paper's numbering "by these six colors from bottom to top, left to
// right".
type UnknownGroup int

// NumGroups is the number of unknown colors (6 = 3 node colors × 2
// displacement components).
const NumGroups = 2 * NumColors

func (u UnknownGroup) String() string {
	comp := "u"
	if u%2 == 1 {
		comp = "v"
	}
	return Color(u/2).String() + comp
}

// MulticolorOrdering carries the 6-color permutation of the reduced system
// and the block partition it induces.
type MulticolorOrdering struct {
	Perm       sparse.Perm // perm[new] = old reduced-dof index
	GroupStart [NumGroups + 1]int
	// NodeOfNew[k] is the natural node id of new-ordered unknown k;
	// CompOfNew[k] is its displacement component (0=u, 1=v).
	NodeOfNew []int
	CompOfNew []int
}

// GroupOfNew returns the group of new-ordered unknown k.
func (o *MulticolorOrdering) GroupOfNew(k int) UnknownGroup {
	for g := UnknownGroup(0); g < NumGroups; g++ {
		if k < o.GroupStart[g+1] {
			return g
		}
	}
	panic(fmt.Sprintf("mesh: unknown index %d outside ordering of size %d", k, len(o.Perm)))
}

// NewMulticolorOrdering builds the 6-color ordering of the reduced system
// defined by the given free-node list. Within each group, unknowns keep
// their natural bottom-to-top, left-to-right node order.
func (g Grid) NewMulticolorOrdering(free []int) *MulticolorOrdering {
	n := 2 * len(free)
	o := &MulticolorOrdering{
		Perm:      make(sparse.Perm, 0, n),
		NodeOfNew: make([]int, 0, n),
		CompOfNew: make([]int, 0, n),
	}
	for grp := UnknownGroup(0); grp < NumGroups; grp++ {
		o.GroupStart[grp] = len(o.Perm)
		color := Color(grp / 2)
		comp := int(grp % 2)
		for k, id := range free {
			if g.ColorOfID(id) != color {
				continue
			}
			o.Perm = append(o.Perm, 2*k+comp) // reduced natural dof index
			o.NodeOfNew = append(o.NodeOfNew, id)
			o.CompOfNew = append(o.CompOfNew, comp)
		}
	}
	o.GroupStart[NumGroups] = len(o.Perm)
	return o
}
