package mesh

import (
	"testing"
	"testing/quick"
)

func TestFreeNodesLeftEdge(t *testing.T) {
	g := NewGrid(6, 6)
	free := g.FreeNodes(LeftEdgeClamped)
	if len(free) != 30 { // the paper's 60-equation problem: 30 free nodes
		t.Fatalf("free nodes = %d, want 30", len(free))
	}
	for _, id := range free {
		_, j := g.NodeRC(id)
		if j == 0 {
			t.Fatalf("constrained node %d in free list", id)
		}
	}
}

func TestFreeNodesNoConstraint(t *testing.T) {
	g := NewGrid(3, 4)
	if got := len(g.FreeNodes(NoConstraint)); got != 12 {
		t.Fatalf("free nodes = %d, want 12", got)
	}
}

func TestUnknownGroupString(t *testing.T) {
	for g, want := range map[UnknownGroup]string{0: "Ru", 1: "Rv", 2: "Bu", 5: "Gv"} {
		if got := g.String(); got != want {
			t.Fatalf("group %d name = %s, want %s", int(g), got, want)
		}
	}
}

func TestMulticolorOrderingIsPermutation(t *testing.T) {
	f := func(r, c uint8) bool {
		g := NewGrid(2+int(r)%10, 2+int(c)%10)
		free := g.FreeNodes(LeftEdgeClamped)
		o := g.NewMulticolorOrdering(free)
		return o.Perm.Valid() && len(o.Perm) == 2*len(free)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulticolorOrderingGroupsSorted(t *testing.T) {
	g := NewGrid(6, 6)
	free := g.FreeNodes(LeftEdgeClamped)
	o := g.NewMulticolorOrdering(free)
	// Group boundaries are nondecreasing and cover everything.
	if o.GroupStart[0] != 0 || o.GroupStart[NumGroups] != len(o.Perm) {
		t.Fatalf("group bounds %v", o.GroupStart)
	}
	for grp := UnknownGroup(0); grp < NumGroups; grp++ {
		lo, hi := o.GroupStart[grp], o.GroupStart[grp+1]
		for k := lo; k < hi; k++ {
			node := o.NodeOfNew[k]
			comp := o.CompOfNew[k]
			wantGroup := UnknownGroup(2*int(g.ColorOfID(node)) + comp)
			if wantGroup != grp {
				t.Fatalf("unknown %d in group %v but should be %v", k, grp, wantGroup)
			}
		}
	}
}

func TestMulticolorOrderingGroupSizesEqualUV(t *testing.T) {
	// u and v groups of the same color must have identical sizes.
	g := NewGrid(7, 9)
	o := g.NewMulticolorOrdering(g.FreeNodes(LeftEdgeClamped))
	for c := 0; c < NumColors; c++ {
		u := o.GroupStart[2*c+1] - o.GroupStart[2*c]
		v := o.GroupStart[2*c+2] - o.GroupStart[2*c+1]
		if u != v {
			t.Fatalf("color %d: u group %d != v group %d", c, u, v)
		}
	}
}

func TestGroupOfNew(t *testing.T) {
	g := NewGrid(4, 4)
	o := g.NewMulticolorOrdering(g.FreeNodes(NoConstraint))
	for k := 0; k < len(o.Perm); k++ {
		grp := o.GroupOfNew(k)
		if k < o.GroupStart[grp] || k >= o.GroupStart[grp+1] {
			t.Fatalf("GroupOfNew(%d) = %v outside its bounds", k, grp)
		}
	}
}

func TestOrderingPermMapsComponentsConsistently(t *testing.T) {
	// perm[new] = 2k+comp where k is the free-list position of the node.
	g := NewGrid(5, 5)
	free := g.FreeNodes(LeftEdgeClamped)
	pos := map[int]int{}
	for k, id := range free {
		pos[id] = k
	}
	o := g.NewMulticolorOrdering(free)
	for newIdx, old := range o.Perm {
		node := o.NodeOfNew[newIdx]
		comp := o.CompOfNew[newIdx]
		if old != 2*pos[node]+comp {
			t.Fatalf("perm[%d] = %d, want %d", newIdx, old, 2*pos[node]+comp)
		}
	}
}
