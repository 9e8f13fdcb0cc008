// Package decomp is the domain-decomposition layer: the per-processor data
// layout (owned nodes, border/halo sets, neighbor links over
// mesh.Partition), a generic buffered link fabric, a deterministic tree
// all-reduce, and a parallel m-step PCG solver whose halo exchange moves
// actual residual and search-direction border values between subdomain
// goroutines. Each subdomain's rank runs the recurrence of internal/cg,
// the one every single-matrix solve runs, over a rank-local layout whose
// products, sweeps and reductions span all ranks.
//
// Decomposition.Solve serves two consumers. internal/engine runs it as the
// "decomposed" backend a request can force, and internal/femachine runs it
// with an Observer per rank that charges the reported work to the Finite
// Element Machine's clocks. One solver for both means the simulation and
// the execution path cannot drift: they partition, exchange, reduce and
// iterate identically.
package decomp

import (
	"fmt"

	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// Problem is the decomposition's view of a problem: a multicolor-ordered
// SPD system plus the node-level facts needed to distribute it. Both the
// paper's rectangular plate and the §5 irregular-region extension adapt to
// it.
type Problem struct {
	Grid       mesh.Grid
	KColored   *sparse.CSR
	RHS        []float64
	GroupStart []int
	NumColors  int
	// Free lists the natural ids of free nodes in natural order; free node
	// k owns reduced dofs 2k and 2k+1.
	Free []int
	// ColorOf returns the node color of a natural node id.
	ColorOf func(node int) int
	// ColoredIndex maps (free-list position, component) to the colored
	// unknown index.
	ColoredIndex func(freeIdx, comp int) int
	// Constrained marks nodes excluded from the unknown set (for irregular
	// regions this includes inactive nodes).
	Constrained mesh.Constraint
}

// PlateProblem adapts the paper's rectangular plate.
func PlateProblem(plate *fem.Plate) Problem {
	o := plate.Ordering
	inv := o.Perm.Inverse()
	return Problem{
		Grid:       plate.Grid,
		KColored:   plate.KColored,
		RHS:        plate.ColoredRHS(),
		GroupStart: o.GroupStart[:],
		NumColors:  mesh.NumColors,
		Free:       plate.Free,
		ColorOf:    func(node int) int { return int(plate.Grid.ColorOfID(node)) },
		ColoredIndex: func(freeIdx, comp int) int {
			return inv[2*freeIdx+comp]
		},
		Constrained: plate.Constrained,
	}
}

// Validate checks the problem's structural consistency.
func (p Problem) Validate() error {
	if p.NumColors < 1 {
		return fmt.Errorf("decomp: problem has %d colors", p.NumColors)
	}
	if len(p.GroupStart) != 2*p.NumColors+1 {
		return fmt.Errorf("decomp: %d group boundaries for %d colors", len(p.GroupStart), p.NumColors)
	}
	if p.KColored.Rows != 2*len(p.Free) {
		return fmt.Errorf("decomp: system dim %d != 2×%d free nodes", p.KColored.Rows, len(p.Free))
	}
	return nil
}
