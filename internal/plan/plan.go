// Package plan turns one solve's shape — matrix structure, batch width,
// worker and cache budgets — into an explicit execution Plan. It is the
// single place the per-request decisions the service and core used to make
// inline (matvec backend, kernel fan-out, batch tiling) are taken, the
// software analogue of the paper's central argument: match the algorithm's
// layout to the machine before running it, not while running it.
//
// The package sits below internal/core: it sees only the sparse matrix
// structure (via Probe) and budgets, never the solver configuration types.
// core re-exports the Backend enum as a type alias, so existing callers of
// core.Backend are unaffected by the move.
package plan

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Backend selects the matrix storage the CG matvec path runs on. The
// preconditioner always keeps the CSR form (the SSOR sweeps need row
// structure); the backend only decides how K itself is applied.
type Backend int

const (
	// BackendAuto (the zero value) probes the matrix structure and picks
	// the backend itself; see Probe.Choose.
	BackendAuto Backend = iota
	// BackendCSR forces compressed-sparse-row storage.
	BackendCSR
	// BackendDIA forces diagonal (Madsen–Rodrigue–Karush) storage, the
	// paper's CYBER 203/205 layout. Requires a square matrix.
	BackendDIA
	// BackendDecomposed runs the solve on the domain-decomposed parallel
	// path — the paper's Finite Element Machine for real: the mesh is
	// partitioned into subdomains, each owned by a dedicated goroutine
	// processor with halo exchange and tree-reduced inner products.
	// Requires a mesh-backed (plate) problem.
	BackendDecomposed
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendCSR:
		return "csr"
	case BackendDIA:
		return "dia"
	case BackendDecomposed:
		return "decomposed"
	}
	return "?"
}

// ParseBackend resolves a backend name ("", "auto", "csr", "dia",
// "decomposed"); the empty string means Auto.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "csr":
		return BackendCSR, nil
	case "dia":
		return BackendDIA, nil
	case "decomposed":
		return BackendDecomposed, nil
	}
	return 0, fmt.Errorf("plan: unknown backend %q (want auto, csr, dia or decomposed)", name)
}

// Auto-selection thresholds. Diagonal storage performs numDiags·n
// multiply-adds where CSR performs NNZ, so its padding overhead is the
// reciprocal of the DIA fill ratio NNZ/(numDiags·n); in exchange every
// operand is a long contiguous diagonal — the regular access pattern the
// paper's CYBER layout is built on. DIA pays off only when the matrix
// occupies a bounded, size-independent family of densely filled diagonals
// (simple 5-point stencils: 5 diagonals, fill ≈ 1), and loses on the
// banded multicolor plate (eq. 3.2 of the paper: ~47 diagonals at every
// size, but only a quarter of each filled) and badly on scattered fill,
// where the diagonal count grows with n and the fill ratio collapses.
const (
	// autoMaxDiags bounds the stored-diagonal count Auto accepts: above
	// it, even a moderate fill ratio means streaming many mostly-padding
	// vectors.
	autoMaxDiags = 128
	// autoMinFill is the lowest DIA fill ratio Auto accepts. A product is
	// bound by the matrix bytes it streams: DIA reads 8 bytes per stored
	// slot, padding included, while CSR reads 16 per entry (the value and
	// an int column index). DIA therefore moves fewer bytes only when more
	// than half of its slots hold entries. The colored plate sits near
	// 0.25 (CSR is faster on it in every layout), dense-diagonal stencils
	// near 1 (DIA's SpMV is faster), scattered fill near 0.
	autoMinFill = 1.0 / 2
)

// Probe is the structure scan of one matrix: everything the planner needs
// to know about K, decoupled from the matrix itself so cache layers can
// memoize it (the matrix is immutable per cache entry, so the O(nnz)
// pattern scan runs once, not once per request).
type Probe struct {
	// Rows, Cols are the matrix dimensions.
	Rows, Cols int
	// NNZ is the stored-entry count.
	NNZ int
	// MaxRowNNZ is the widest row (a lower bound on the diagonal count).
	MaxRowNNZ int
	// NumDiags is the number of occupied diagonals.
	NumDiags int
	// Fill is the DIA fill ratio NNZ/(NumDiags·Rows), 0 when NumDiags is 0.
	Fill float64
}

// NewProbe scans k's structure. One pass over the pattern (O(nnz)); callers
// that solve the same matrix repeatedly should keep the result.
func NewProbe(k *sparse.CSR) Probe {
	p := Probe{Rows: k.Rows, Cols: k.Cols, NNZ: k.NNZ(), MaxRowNNZ: k.MaxRowNNZ()}
	if p.Rows == p.Cols && p.NNZ > 0 {
		nd, _ := k.DiagStats()
		p.NumDiags = nd
		if nd > 0 {
			p.Fill = float64(p.NNZ) / (float64(nd) * float64(p.Rows))
		}
	}
	return p
}

// Choose resolves a backend policy against the probed structure: CSR and
// DIA pass through, and Auto picks DIA exactly when diagonal storage is in
// the regime it wins in — few distinct diagonals, each more than half
// filled (so DIA streams fewer bytes than CSR) — and CSR otherwise. This
// is the per-column choice; Static overrides it with CSR for tiles run on
// row-interleaved panels.
func (p Probe) Choose(policy Backend) Backend {
	switch policy {
	case BackendCSR, BackendDIA:
		return policy
	}
	if p.Rows != p.Cols || p.NNZ == 0 {
		return BackendCSR
	}
	// Every row's entries sit on distinct diagonals, so MaxRowNNZ lower-
	// bounds the diagonal count — a cheap early out.
	if p.MaxRowNNZ > autoMaxDiags {
		return BackendCSR
	}
	if p.NumDiags == 0 || p.NumDiags > autoMaxDiags {
		return BackendCSR
	}
	if p.Fill < autoMinFill {
		return BackendCSR
	}
	return BackendDIA
}

// Planner constants. The tile budget bounds the block solve's per-iteration
// multivector working set (the four CG scratch blocks plus the iterate and
// right-hand side — six n-vectors per column at 8 bytes each); sequential
// tiles each re-stream the matrix, so the budget trades matrix-traversal
// amortization against multivector cache residency.
const (
	// DefaultBudgetBytes is the tile cache budget: a conservative share of
	// a contemporary L3 slice.
	DefaultBudgetBytes = 8 << 20
	// DefaultMaxTile caps a tile's width even when the budget would allow
	// more — beyond it the SpMM row-scan fusion has already amortized the
	// matrix traversal and wider tiles only grow the working set.
	DefaultMaxTile = 32
	// DefaultMinTile keeps tiles from dropping below the SpMM fusion
	// width: a narrower tile wastes the block machinery, so huge systems
	// run 8-wide tiles and eat the cache misses.
	DefaultMinTile = 8
	// bytesPerColumn is the block solve's resident vectors per batch
	// column: r, r̂, p, Kp scratch plus u and f, 8 bytes per element.
	bytesPerColumn = 6 * 8

	// DefaultWideBlockThreshold is the tile width at which the block solve
	// switches to the row-interleaved panel layout: narrow blocks (s = 1
	// scalar solves above all) keep the column-contiguous layout, whose
	// per-column zero-copy slices cost nothing, while wide tiles convert at
	// the tile boundary so each gathered matrix row feeds every column from
	// one cache line.
	DefaultWideBlockThreshold = 4
)

// DecompInputs describes the mesh behind a solve — present only when the
// problem is mesh-backed (a plate), which is what the decomposed backend
// needs to partition. Nil Decomp means the backend is unavailable.
type DecompInputs struct {
	// Rows is the mesh's node-row count (row-strip partitions need
	// Rows ≥ P).
	Rows int
	// FreeNodes is the number of unconstrained nodes (each processor must
	// own at least one).
	FreeNodes int
	// Requested pins the subdomain count (0 = planner's choice).
	Requested int
	// MaxProcs bounds the subdomain count (the session's worker budget).
	MaxProcs int
}

// Inputs describes one solve to the planner.
type Inputs struct {
	// Probe is the structure scan of the system matrix (NewProbe); nil
	// plans structure-blind.
	Probe *Probe
	// Policy is the requested backend (Auto probes the structure).
	Policy Backend
	// RHS is the batch width s (right-hand sides solved together).
	RHS int
	// M is the preconditioner step count (recorded in the plan).
	M int
	// Workers is the kernel goroutine budget available to the solve.
	Workers int
	// PanelSweep reports that the preconditioner's splitting is the
	// multicolor SSOR at ω = 1, whose m-step sweep the fused kernels run on
	// row-interleaved panels and on decomposed subdomains (see FusedSweep).
	PanelSweep bool
	// Decomp, when non-nil, describes the mesh behind the problem that a
	// forced BackendDecomposed partitions (Auto never picks it; forcing it
	// without mesh facts plans a single subdomain and fails downstream
	// where the mesh is truly required).
	Decomp *DecompInputs
}

// FusedSweep reports whether an m-step preconditioner over the inputs'
// splitting is one the fused multicolor kernels implement: plain CG
// (m = 0, no sweep at all) or a PanelSweep splitting. Only these run on
// row-interleaved panels or on the decomposed backend.
func (in Inputs) FusedSweep(m int) bool { return m == 0 || in.PanelSweep }

// Plan is the resolved execution decision for one solve: which storage the
// matvec path runs on, how the batch is split into column tiles, the kernel
// fan-out each tile runs with, and the preconditioner step count.
type Plan struct {
	// Backend is the resolved matvec storage (never Auto).
	Backend Backend
	// Tiles partitions the RHS column indices 0..s-1 into contiguous
	// groups executed as sequential block solves. Always at least one
	// tile; a batch at or under the tile width is a single tile, and a
	// decomposed plan gives every case a tile of its own.
	Tiles [][]int
	// Workers is the kernel goroutine fan-out per tile (≥ 1; 1 when the
	// system is too small for the parallel kernels to engage).
	Workers int
	// M is the preconditioner step count the solve runs with.
	M int
	// Subdomains is the processor count of a decomposed plan (0 for the
	// single-matrix backends): the mesh is partitioned this many ways and
	// each subdomain gets a dedicated goroutine.
	Subdomains int
	// Interleave reports that the tiles run on the row-interleaved panel
	// layout (every tile is at least DefaultWideBlockThreshold columns
	// wide, the preconditioner sweeps panels and Backend is CSR, the one
	// storage that serves them).
	Interleave bool
	// Kernel names the kernel set the solve's fused loops run through:
	// kernel.Active, the one set every solve runs. The plan is where a job
	// reports it (PlanInfo.Kernel and the plan span's attributes).
	Kernel string
}

// TileWidths reports the size of each tile (a compact summary for logs and
// stats).
func (p Plan) TileWidths() []int {
	w := make([]int, len(p.Tiles))
	for i, t := range p.Tiles {
		w[i] = len(t)
	}
	return w
}

// Attrs flattens the plan into span attributes: the evidence trail a job
// trace records about the planner's decision, so offline analysis (and the
// future self-tuning planner) can correlate every decision with the
// measured outcome it produced.
func (p Plan) Attrs() map[string]any {
	a := map[string]any{
		"backend":     p.Backend.String(),
		"tiles":       len(p.Tiles),
		"tile_widths": p.TileWidths(),
		"workers":     p.Workers,
		"m":           p.M,
		"kernel":      p.Kernel,
		"interleave":  p.Interleave,
	}
	if p.Subdomains > 0 {
		a["subdomains"] = p.Subdomains
	}
	return a
}

// Attrs flattens the probe into span attributes — the structural evidence
// the planner decided from.
func (p Probe) Attrs() map[string]any {
	return map[string]any{
		"rows":        p.Rows,
		"nnz":         p.NNZ,
		"max_row_nnz": p.MaxRowNNZ,
		"num_diags":   p.NumDiags,
		"fill":        p.Fill,
	}
}

// Static resolves in into the static execution plan. It is the one plan
// function: the tuner only chooses among Static's plans at neighbouring
// step counts, so backend, tiling, fan-out and layout are decided here on
// every path. It is pure, so equal Inputs always produce equal Plans — a
// cache hit re-planning a warm request decides exactly what the cold
// request decided. It never fails: a nil Probe plans structure-blind
// (tiling then assumes nothing about n and uses DefaultMaxTile).
//
// The layout rule: tiles run on row-interleaved panels when the
// preconditioner can sweep panels, every tile reaches
// DefaultWideBlockThreshold, and the storage is CSR, the one backend with
// a panel product. Auto and a forced CSR policy get CSR panels; a forced
// DIA policy stays on columns.
func Static(in Inputs) Plan {
	var backend Backend
	switch {
	case in.Policy != BackendAuto:
		backend = in.Policy
	case in.Probe != nil:
		backend = in.Probe.Choose(BackendAuto)
	default:
		backend = BackendCSR
	}

	subdomains := 0
	if backend == BackendDecomposed {
		subdomains = subdomainCount(in.Decomp)
	}

	rows := 0
	if in.Probe != nil {
		rows = in.Probe.Rows
	}

	s := in.RHS
	if s < 1 {
		s = 1
	}

	// Tile width: how many columns of six resident n-vectors fit the
	// budget, clamped to [DefaultMinTile, DefaultMaxTile]. Unknown n plans
	// optimistically at DefaultMaxTile.
	width := DefaultMaxTile
	if rows > 0 {
		width = min(max(DefaultBudgetBytes/(rows*bytesPerColumn), DefaultMinTile), DefaultMaxTile)
	}

	workers := in.Workers
	if workers < 1 {
		workers = 1
	}
	if rows > 0 && rows < vec.MinParallelLen {
		// The vec kernels fall back to serial below this size; record the
		// fan-out the solve will actually use.
		workers = 1
	}

	if backend == BackendDecomposed {
		// The subdomain goroutines are the parallelism: kernel fan-out per
		// case is 1 and every case is a tile of its own (each case occupies
		// all P processors).
		return Plan{
			Backend:    backend,
			Tiles:      tile(s, 1),
			Workers:    1,
			M:          in.M,
			Subdomains: subdomains,
			Kernel:     kernel.Active().Name,
		}
	}

	// The layout rule (see above). Balanced tiling keeps widths within one
	// of each other, so the last tile is the narrowest (s = 1 scalar
	// solves never clear the threshold).
	tiles := tile(s, width)
	interleave := in.FusedSweep(in.M) && len(tiles[len(tiles)-1]) >= DefaultWideBlockThreshold && in.Policy != BackendDIA
	if interleave {
		backend = BackendCSR
	}
	return Plan{
		Backend:    backend,
		Tiles:      tiles,
		Workers:    workers,
		M:          in.M,
		Interleave: interleave,
		Kernel:     kernel.Active().Name,
	}
}

// subdomainCount resolves a decomposed plan's processor count: the
// requested pin, else the session's worker budget, clamped to what the
// mesh can feed (row strips need a node row per processor, and every
// processor must own a free node).
func subdomainCount(dc *DecompInputs) int {
	if dc == nil {
		return 1
	}
	p := dc.Requested
	if p <= 0 {
		p = dc.MaxProcs
	}
	if dc.Rows > 0 && p > dc.Rows {
		p = dc.Rows
	}
	if dc.FreeNodes > 0 && p > dc.FreeNodes {
		p = dc.FreeNodes
	}
	if p < 1 {
		p = 1
	}
	return p
}

// tile partitions 0..s-1 into ⌈s/width⌉ contiguous, balanced groups (sizes
// differ by at most one — splitting 33 columns 32+1 would run the last tile
// as a degenerate near-scalar solve; 17+16 keeps both tiles block-shaped).
func tile(s, width int) [][]int {
	if width < 1 {
		width = 1
	}
	nt := (s + width - 1) / width
	tiles := make([][]int, nt)
	base, rem := s/nt, s%nt
	next := 0
	for i := range tiles {
		size := base
		if i < rem {
			size++
		}
		t := make([]int, size)
		for j := range t {
			t[j] = next
			next++
		}
		tiles[i] = t
	}
	return tiles
}
