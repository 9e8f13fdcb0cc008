package decomp

import (
	"fmt"

	"repro/internal/mesh"
)

// Subdomain is one processor's static slice of the global colored system:
// its owned nodes, the halo it reads, its rows of K in a flat segmented
// layout, and the per-neighbor send/receive schedules. A Subdomain is
// immutable after New — run state (vectors, link buffers) lives with each
// Solve's workers, so one cached Decomposition can serve concurrent solves.
type Subdomain struct {
	Rank int

	OwnNodes  []int // natural node ids, ascending
	HaloNodes []int
	// LocalIndex maps a natural node id to its local node index (own nodes
	// first, then halo).
	LocalIndex map[int]int
	NOwn       int
	NAll       int
	NumGroups  int

	// Row data for own dofs (flat index 2·localNode+comp), stored as one
	// flat CSR-like block with entries in the global colored order and
	// segmented by unknown group: row flat's entries for group g occupy
	// [Seg[flat·(NumGroups+1)+g], Seg[flat·(NumGroups+1)+g+1]). The diagonal
	// stays inside its own group's segment so K·p sums in exactly the
	// serial column order; the sweeps' one-sided sums never touch the
	// within-group segment.
	Cols []int32 // local flat column indices (may point into halo)
	Vals []float64
	Seg  []int32
	Diag []float64
	F    []float64

	// ColorOwn lists own local node indices per node color; ColorInterior/
	// ColorBorder split each list (preserving order) by whether any of the
	// node's two rows reference a halo column. Interior rows can be solved
	// while a border exchange is still in flight — that is what makes the
	// overlap in Solve exact rather than approximate.
	ColorOwn      [][]int
	ColorInterior [][]int
	ColorBorder   [][]int
	// Interior/Border are the same split over all own local nodes,
	// ascending, used by the matrix-vector product.
	Interior []int
	Border   []int

	Neighbors []int
	// SendNodes/RecvNodes list, per neighbor and per color, the own local
	// node indices to send and the halo local node indices to fill. Both
	// components of every listed node travel in one record per neighbor,
	// the packaging §3.2 recommends.
	SendNodes map[int][][]int
	RecvNodes map[int][][]int
	// MaxSendWords is the widest possible message to each neighbor (an
	// all-colors exchange, two words per border node) — the size real link
	// buffers must be provisioned for.
	MaxSendWords map[int]int

	ColoredIdx []int // own flat dof -> global colored index
}

// Decomposition is the full per-processor layout of one colored problem
// over one mesh partition. It is immutable after New and safe to share:
// one cached Decomposition serves concurrent Solve calls, from the engine's
// decomposed backend or under the Finite Element Machine's clocks.
type Decomposition struct {
	Prob Problem
	Part *mesh.Partition
	P    int

	NumColors int
	NumGroups int
	AllColors []int
	Subs      []*Subdomain

	// colorSets[c] is the one-color slice {c}, preallocated so the sweeps'
	// per-color exchanges allocate nothing.
	colorSets [][]int
}

// New partitions the problem's free nodes across p processors with the
// given strategy and extracts every processor's rows, border schedules and
// neighbor links.
func New(prob Problem, p int, strat mesh.Strategy) (*Decomposition, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	part, err := mesh.NewPartition(prob.Grid, prob.Constrained, p, strat)
	if err != nil {
		return nil, err
	}
	n := prob.KColored.Rows
	d := &Decomposition{
		Prob: prob, Part: part, P: p,
		NumColors: prob.NumColors,
		NumGroups: 2 * prob.NumColors,
	}
	d.AllColors = make([]int, d.NumColors)
	d.colorSets = make([][]int, d.NumColors)
	for c := 0; c < d.NumColors; c++ {
		d.AllColors[c] = c
		d.colorSets[c] = []int{c}
	}

	// Colored-index lookup tables shared by every subdomain build.
	nodeOfColored := make([]int, n)
	compOfColored := make([]int, n)
	groupOfColored := make([]int, n)
	freePos := make(map[int]int, len(prob.Free))
	for k, id := range prob.Free {
		freePos[id] = k
		for comp := 0; comp < 2; comp++ {
			ci := prob.ColoredIndex(k, comp)
			nodeOfColored[ci] = id
			compOfColored[ci] = comp
		}
	}
	for g := 0; g < d.NumGroups; g++ {
		for i := prob.GroupStart[g]; i < prob.GroupStart[g+1]; i++ {
			groupOfColored[i] = g
		}
	}

	for rank := 0; rank < p; rank++ {
		sd, err := d.buildSub(rank, nodeOfColored, compOfColored, groupOfColored, freePos)
		if err != nil {
			return nil, err
		}
		d.Subs = append(d.Subs, sd)
	}
	return d, nil
}

// buildSub extracts processor rank's slice of the global colored system.
func (d *Decomposition) buildSub(rank int, nodeOfColored, compOfColored, groupOfColored []int, freePos map[int]int) (*Subdomain, error) {
	prob, part := d.Prob, d.Part
	sd := &Subdomain{Rank: rank, NumGroups: d.NumGroups}
	sd.OwnNodes = part.Nodes[rank]
	sd.HaloNodes = part.HaloNodes(rank)
	sd.NOwn = len(sd.OwnNodes)
	sd.NAll = sd.NOwn + len(sd.HaloNodes)
	sd.LocalIndex = make(map[int]int, sd.NAll)
	for i, id := range sd.OwnNodes {
		sd.LocalIndex[id] = i
	}
	for i, id := range sd.HaloNodes {
		sd.LocalIndex[id] = sd.NOwn + i
	}
	sd.ColorOwn = make([][]int, d.NumColors)
	for i, id := range sd.OwnNodes {
		c := prob.ColorOf(id)
		if c < 0 || c >= d.NumColors {
			return nil, fmt.Errorf("decomp: node %d has color %d outside [0,%d)", id, c, d.NumColors)
		}
		sd.ColorOwn[c] = append(sd.ColorOwn[c], i)
	}

	kc := prob.KColored
	nd := 2 * sd.NOwn
	ng := d.NumGroups
	stride := ng + 1
	sd.Seg = make([]int32, nd*stride)
	sd.Diag = make([]float64, nd)
	sd.F = make([]float64, nd)
	sd.ColoredIdx = make([]int, nd)

	for li, id := range sd.OwnNodes {
		freeK, ok := freePos[id]
		if !ok {
			return nil, fmt.Errorf("decomp: constrained node %d assigned to processor %d", id, rank)
		}
		for comp := 0; comp < 2; comp++ {
			row := prob.ColoredIndex(freeK, comp)
			flat := 2*li + comp
			sd.ColoredIdx[flat] = row
			sd.F[flat] = prob.RHS[row]
			seg := sd.Seg[flat*stride : (flat+1)*stride]
			seg[0] = int32(len(sd.Cols))
			curGroup := 0
			for k := kc.RowPtr[row]; k < kc.RowPtr[row+1]; k++ {
				col := kc.ColIdx[k]
				if col == row {
					sd.Diag[flat] = kc.Val[k]
				}
				g := groupOfColored[col]
				for curGroup < g {
					curGroup++
					seg[curGroup] = int32(len(sd.Cols))
				}
				colNode := nodeOfColored[col]
				colComp := compOfColored[col]
				colLi, ok := sd.LocalIndex[colNode]
				if !ok {
					return nil, fmt.Errorf("decomp: proc %d row for node %d references node %d outside own+halo", rank, id, colNode)
				}
				sd.Cols = append(sd.Cols, int32(2*colLi+colComp))
				sd.Vals = append(sd.Vals, kc.Val[k])
			}
			for curGroup < ng {
				curGroup++
				seg[curGroup] = int32(len(sd.Cols))
			}
			if sd.Diag[flat] <= 0 {
				return nil, fmt.Errorf("decomp: non-positive diagonal at proc %d dof %d", rank, flat)
			}
		}
	}

	// Interior/border split: a node is interior iff neither of its rows
	// references a column at or beyond the own-dof range. Derived from the
	// extracted rows themselves, so it stays correct for any stencil.
	haloTouched := make([]bool, sd.NOwn)
	for li := 0; li < sd.NOwn; li++ {
		for comp := 0; comp < 2; comp++ {
			flat := 2*li + comp
			seg := sd.Seg[flat*stride:]
			for k := seg[0]; k < seg[ng]; k++ {
				if int(sd.Cols[k]) >= nd {
					haloTouched[li] = true
				}
			}
		}
	}
	for li := 0; li < sd.NOwn; li++ {
		if haloTouched[li] {
			sd.Border = append(sd.Border, li)
		} else {
			sd.Interior = append(sd.Interior, li)
		}
	}
	sd.ColorInterior = make([][]int, d.NumColors)
	sd.ColorBorder = make([][]int, d.NumColors)
	for c := 0; c < d.NumColors; c++ {
		for _, li := range sd.ColorOwn[c] {
			if haloTouched[li] {
				sd.ColorBorder[c] = append(sd.ColorBorder[c], li)
			} else {
				sd.ColorInterior[c] = append(sd.ColorInterior[c], li)
			}
		}
	}

	sd.Neighbors = part.NeighborProcs(rank)
	sd.SendNodes = make(map[int][][]int, len(sd.Neighbors))
	sd.RecvNodes = make(map[int][][]int, len(sd.Neighbors))
	sd.MaxSendWords = make(map[int]int, len(sd.Neighbors))
	for _, q := range sd.Neighbors {
		snd := make([][]int, d.NumColors)
		rcv := make([][]int, d.NumColors)
		words := 0
		for _, id := range part.BorderNodes(rank, q) {
			c := prob.ColorOf(id)
			snd[c] = append(snd[c], sd.LocalIndex[id])
			words += 2
		}
		for _, id := range part.BorderNodes(q, rank) {
			c := prob.ColorOf(id)
			rcv[c] = append(rcv[c], sd.LocalIndex[id])
		}
		sd.SendNodes[q] = snd
		sd.RecvNodes[q] = rcv
		sd.MaxSendWords[q] = words
	}
	return sd, nil
}

// HaloFraction reports the ratio of halo (replicated) nodes to owned nodes
// summed over all subdomains — a planner attribute: high fractions mean the
// decomposition trades more communication for smaller working sets.
func (d *Decomposition) HaloFraction() float64 {
	var own, halo int
	for _, sd := range d.Subs {
		own += len(sd.OwnNodes)
		halo += len(sd.HaloNodes)
	}
	if own == 0 {
		return 0
	}
	return float64(halo) / float64(own)
}
