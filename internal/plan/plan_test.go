package plan

import (
	"reflect"
	"testing"

	"repro/internal/sparse"
)

// tiled returns a 5-diagonal probe whose size makes DefaultBudgetBytes
// resolve to a tile width of exactly `width`, for a width within
// [DefaultMinTile, DefaultMaxTile].
func tiled(width int) *Probe {
	rows := DefaultBudgetBytes / (width * bytesPerColumn)
	return &Probe{Rows: rows, Cols: rows, NNZ: 5 * rows, MaxRowNNZ: 5, NumDiags: 5, Fill: 1}
}

func checkTiles(t *testing.T, tiles [][]int, s, maxWidth int) {
	t.Helper()
	if len(tiles) == 0 {
		t.Fatalf("no tiles for s=%d", s)
	}
	next := 0
	minSz, maxSz := s+1, 0
	for i, tile := range tiles {
		if len(tile) == 0 {
			t.Fatalf("tile %d empty", i)
		}
		if len(tile) > maxWidth {
			t.Fatalf("tile %d has %d columns, budget allows %d", i, len(tile), maxWidth)
		}
		minSz = min(minSz, len(tile))
		maxSz = max(maxSz, len(tile))
		for _, c := range tile {
			if c != next {
				t.Fatalf("tile %d: column %d out of order (want %d) — tiles must cover 0..s-1 contiguously", i, c, next)
			}
			next++
		}
	}
	if next != s {
		t.Fatalf("tiles cover %d columns, want %d", next, s)
	}
	if maxSz-minSz > 1 {
		t.Fatalf("unbalanced tiles: sizes range %d..%d (want within 1)", minSz, maxSz)
	}
}

func TestTileBoundaries(t *testing.T) {
	const width = 16
	probe := tiled(width)
	for _, tc := range []struct {
		s         int
		wantTiles int
	}{
		{1, 1},   // a scalar solve is one single-column tile
		{8, 1},   // at/under the width: never split
		{16, 1},  // exactly the width: one full tile
		{17, 2},  // just over: split 9+8, not 16+1
		{63, 4},  // 16+16+16+15
		{129, 9}, // ⌈129/16⌉ = 9 balanced tiles
	} {
		p := Static(Inputs{Probe: probe, RHS: tc.s, M: 3, Workers: 2})
		if len(p.Tiles) != tc.wantTiles {
			t.Errorf("s=%d: got %d tiles (widths %v), want %d", tc.s, len(p.Tiles), p.TileWidths(), tc.wantTiles)
		}
		checkTiles(t, p.Tiles, tc.s, width)
		if p.M != 3 {
			t.Errorf("s=%d: plan dropped M: got %d", tc.s, p.M)
		}
	}
}

func TestTileWidthClamps(t *testing.T) {
	probe := &Probe{Rows: 1 << 20, Cols: 1 << 20, NNZ: 5 << 20, NumDiags: 5, MaxRowNNZ: 5, Fill: 1}
	// A huge system would compute a sub-1 width; DefaultMinTile floors it.
	p := Static(Inputs{Probe: probe, RHS: 64})
	checkTiles(t, p.Tiles, 64, DefaultMinTile)
	// A tiny system would compute an enormous width; DefaultMaxTile caps it.
	small := &Probe{Rows: 10, Cols: 10, NNZ: 30, NumDiags: 3, MaxRowNNZ: 3, Fill: 1}
	p = Static(Inputs{Probe: small, RHS: 200})
	for _, tile := range p.Tiles {
		if len(tile) > DefaultMaxTile {
			t.Fatalf("tile width %d exceeds DefaultMaxTile %d", len(tile), DefaultMaxTile)
		}
	}
	checkTiles(t, p.Tiles, 200, DefaultMaxTile)
}

// TestPlanStability pins the cache-hit contract: planning the same inputs
// twice — the warm-path replan of a cached problem — yields identical
// plans, including tile boundaries and backend.
func TestPlanStability(t *testing.T) {
	probe := NewProbe(banded(500))
	in := Inputs{Probe: &probe, Policy: BackendAuto, RHS: 63, M: 4, Workers: 3}
	first := Static(in)
	for i := 0; i < 5; i++ {
		if got := Static(in); !reflect.DeepEqual(got, first) {
			t.Fatalf("plan %d differs from first:\n got %+v\nwant %+v", i, got, first)
		}
	}
}

func TestPlanWorkers(t *testing.T) {
	big := &Probe{Rows: 1 << 16, Cols: 1 << 16, NNZ: 5 << 16, NumDiags: 5, MaxRowNNZ: 5, Fill: 1}
	if got := Static(Inputs{Probe: big, RHS: 1, Workers: 4}).Workers; got != 4 {
		t.Errorf("large system: workers = %d, want 4", got)
	}
	small := &Probe{Rows: 100, Cols: 100, NNZ: 300, NumDiags: 3, MaxRowNNZ: 3, Fill: 1}
	if got := Static(Inputs{Probe: small, RHS: 1, Workers: 4}).Workers; got != 1 {
		t.Errorf("sub-parallel system: workers = %d, want 1 (serial fallback)", got)
	}
	if got := Static(Inputs{Probe: big, RHS: 1, Workers: 0}).Workers; got != 1 {
		t.Errorf("zero budget: workers = %d, want 1", got)
	}
}

func TestPlanBackendResolution(t *testing.T) {
	k := banded(300)
	probe := NewProbe(k)
	if got := Static(Inputs{Probe: &probe, Policy: BackendCSR}).Backend; got != BackendCSR {
		t.Errorf("forced CSR resolved to %v", got)
	}
	if got := Static(Inputs{Probe: &probe, Policy: BackendDIA}).Backend; got != BackendDIA {
		t.Errorf("forced DIA resolved to %v", got)
	}
	if got := Static(Inputs{Probe: &probe, Policy: BackendAuto}).Backend; got != BackendDIA {
		t.Errorf("auto on a banded system resolved to %v, want dia", got)
	}
	// Structure-blind (no K, no probe): auto falls back to CSR, tiling
	// still covers the batch.
	p := Static(Inputs{Policy: BackendAuto, RHS: 40})
	if p.Backend != BackendCSR {
		t.Errorf("blind auto resolved to %v, want csr", p.Backend)
	}
	checkTiles(t, p.Tiles, 40, DefaultMaxTile)
}

// TestChooseFillThreshold pins Auto's DIA crossover at fill 1/2, where a
// stored diagonal slot (8 bytes) and a CSR entry (16 bytes) stream the same
// matrix bytes per entry.
func TestChooseFillThreshold(t *testing.T) {
	const n = 1000
	probe := func(fill float64) Probe {
		return Probe{Rows: n, Cols: n, NNZ: int(fill * 5 * n), MaxRowNNZ: 5, NumDiags: 5, Fill: fill}
	}
	for _, tc := range []struct {
		fill float64
		want Backend
	}{
		{0.25, BackendCSR}, // the colored plate
		{0.499, BackendCSR},
		{0.501, BackendDIA},
		{0.99, BackendDIA}, // a 5-point stencil
	} {
		if got := probe(tc.fill).Choose(BackendAuto); got != tc.want {
			t.Errorf("fill %g: Auto chose %v, want %v", tc.fill, got, tc.want)
		}
	}
	if got := probe(0.25).Choose(BackendDIA); got != BackendDIA {
		t.Errorf("forced dia at fill 0.25 resolved to %v", got)
	}
	if got := probe(0.99).Choose(BackendCSR); got != BackendCSR {
		t.Errorf("forced csr at fill 0.99 resolved to %v", got)
	}
}

func TestNewProbe(t *testing.T) {
	k := banded(200)
	p := NewProbe(k)
	if p.Rows != 200 || p.Cols != 200 {
		t.Fatalf("probe dims %dx%d", p.Rows, p.Cols)
	}
	nd, _ := k.DiagStats()
	if p.NumDiags != nd {
		t.Errorf("probe diags %d, want %d", p.NumDiags, nd)
	}
	if p.NNZ != k.NNZ() || p.MaxRowNNZ != k.MaxRowNNZ() {
		t.Errorf("probe nnz/maxrow %d/%d, want %d/%d", p.NNZ, p.MaxRowNNZ, k.NNZ(), k.MaxRowNNZ())
	}
	wantFill := float64(k.NNZ()) / (float64(nd) * 200)
	if p.Fill != wantFill {
		t.Errorf("probe fill %g, want %g", p.Fill, wantFill)
	}
}

// banded builds a tridiagonal SPD system — 3 dense diagonals, the regime
// Auto picks DIA for.
func banded(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	return coo.ToCSR()
}

func TestParseBackendDecomposed(t *testing.T) {
	b, err := ParseBackend("decomposed")
	if err != nil || b != BackendDecomposed {
		t.Fatalf("ParseBackend(decomposed) = %v, %v", b, err)
	}
	if b.String() != "decomposed" {
		t.Fatalf("String() = %q", b.String())
	}
	if _, err := ParseBackend("ellpack"); err == nil {
		t.Fatal("want error for unknown backend")
	}
}

func TestPlanDecomposedAuto(t *testing.T) {
	// Auto never resolves to the decomposed backend, with or without mesh
	// facts, on a 2²¹-row probe as on a small plate: it never measured a
	// win there, so only a forced backend runs it.
	big := &Probe{Rows: 1 << 21, Cols: 1 << 21, NNZ: 40 << 20, MaxRowNNZ: 18, NumDiags: 47, Fill: 0.25}
	small := &Probe{Rows: 800, Cols: 800, NNZ: 14000, MaxRowNNZ: 18, NumDiags: 47, Fill: 0.37}
	dc := &DecompInputs{Rows: 1024, FreeNodes: 1 << 20, MaxProcs: 8}
	for _, in := range []Inputs{
		{Probe: big, Policy: BackendAuto, RHS: 3, Decomp: dc, Workers: 8},
		{Probe: big, Policy: BackendAuto},
		{Probe: small, Policy: BackendAuto, Decomp: dc},
	} {
		if p := Static(in); p.Backend == BackendDecomposed || p.Subdomains != 0 {
			t.Errorf("auto on %d rows resolved to %v with %d subdomains", in.Probe.Rows, p.Backend, p.Subdomains)
		}
	}
	// Forced on the same big probe, the mesh facts size the partition.
	p := Static(Inputs{Probe: big, Policy: BackendDecomposed, RHS: 3, Decomp: dc, Workers: 8})
	if p.Backend != BackendDecomposed || p.Subdomains != 8 {
		t.Fatalf("forced plan = %v/%d, want decomposed/8 (MaxProcs)", p.Backend, p.Subdomains)
	}
	if p.Workers != 1 {
		t.Errorf("decomposed plan workers = %d, want 1 (subdomains are the parallelism)", p.Workers)
	}
	checkTiles(t, p.Tiles, 3, 3) // one untiled case sequence
	if got := p.Attrs()["subdomains"]; got != 8 {
		t.Errorf("attrs subdomains = %v", got)
	}
}

func TestPlanDecomposedForcedAndClamped(t *testing.T) {
	probe := &Probe{Rows: 288, Cols: 288, NNZ: 5000, MaxRowNNZ: 18, NumDiags: 47, Fill: 0.37}
	// Forcing the backend works at any size; the requested pin wins over
	// MaxProcs.
	p := Static(Inputs{Probe: probe, Policy: BackendDecomposed,
		Decomp: &DecompInputs{Rows: 13, FreeNodes: 144, Requested: 4, MaxProcs: 16}})
	if p.Backend != BackendDecomposed || p.Subdomains != 4 {
		t.Fatalf("forced plan = %v/%d, want decomposed/4", p.Backend, p.Subdomains)
	}
	// The subdomain count clamps to what the mesh can feed: node rows and
	// free nodes both bound P.
	p = Static(Inputs{Probe: probe, Policy: BackendDecomposed,
		Decomp: &DecompInputs{Rows: 3, FreeNodes: 144, Requested: 64}})
	if p.Subdomains != 3 {
		t.Errorf("row clamp: subdomains = %d, want 3", p.Subdomains)
	}
	p = Static(Inputs{Probe: probe, Policy: BackendDecomposed,
		Decomp: &DecompInputs{Rows: 100, FreeNodes: 2, Requested: 64}})
	if p.Subdomains != 2 {
		t.Errorf("free-node clamp: subdomains = %d, want 2", p.Subdomains)
	}
	// Forced without mesh facts plans a single subdomain (the engine then
	// fails with the real reason).
	p = Static(Inputs{Probe: probe, Policy: BackendDecomposed})
	if p.Subdomains != 1 {
		t.Errorf("meshless forced plan: subdomains = %d, want 1", p.Subdomains)
	}
}
