// Package engine is the in-process heart of the solver: a bounded worker
// pool runs concurrent solves, an LRU problem/preconditioner cache
// amortizes assembly and spectral interval estimation across requests (the
// session-level analogue of the paper amortizing preconditioner
// construction over many cheap parallel steps), a planner turns every
// request into an explicit execution plan, and per-case completions fan
// out to subscribers as block columns retire. The HTTP daemon
// (internal/service) and the embeddable local solver (repro.NewLocal) are
// both thin adapters over this one engine, so in-process callers get the
// same amortization, streaming and cancellation the daemon serves.
package engine

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Prebuilt is an already-assembled problem handed to the engine zero-copy
// with its full solver configuration: in-process callers (the repro
// package's local solver and SolveOnce) skip the spec → assembly path
// entirely. The engine treats Sys as immutable.
type Prebuilt struct {
	// Sys is the assembled system. Sys.F is the default right-hand side
	// when Fs is empty.
	Sys core.System
	// Plate, when non-nil, carries the mesh so results can report per-node
	// displacements (and the solver defaults to the multicolor splitting).
	Plate *fem.Plate
	// Key, when non-empty, names the problem for the cache: repeated
	// requests with the same Key and solver settings reuse the estimated
	// spectral interval and pooled preconditioners. Empty builds the problem
	// for this job alone, in a throwaway entry the cache never holds and
	// the self-tuning planner never observes.
	Key string
	// Fs, when non-empty, is the batch of right-hand sides solved against
	// Sys.K in one block job (Sys.F is ignored).
	Fs [][]float64
	// Probe, when non-nil, is the caller's memoized structure scan of
	// Sys.K; the engine plans from it instead of rescanning the pattern.
	Probe *plan.Probe
	// Config is the full solver configuration; a prebuilt request carries
	// no SolverSpec. It expresses knobs the wire vocabulary cannot (a
	// pinned spectral interval, iteration history). The zero Config runs
	// plain CG (M = 0).
	Config core.Config
}

// PlateSpec asks for the paper's plane-stress plate problem: a rows×cols
// node unit square, left edge clamped, right edge loaded, assembled in the
// 6-color multicolor ordering.
type PlateSpec struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// E, Nu, T override the material (Young's modulus, Poisson ratio,
	// thickness). All-zero means the normalized default material.
	E  float64 `json:"e,omitempty"`
	Nu float64 `json:"nu,omitempty"`
	T  float64 `json:"t,omitempty"`
	// Traction is the right-edge load (default 1).
	Traction float64 `json:"traction,omitempty"`
	// Tractions is the batched form: one load case per entry, all solved
	// against the single assembled stiffness matrix in one block solve
	// (the classic many-load-cases-one-plate FEM workload). The plate's
	// load vector is linear in the traction, so each case's RHS is the
	// base RHS rescaled. When set, Traction only names the cache entry.
	Tractions []float64 `json:"tractions,omitempty"`
}

// SystemSpec is a general sparse SPD system in coordinate form. Duplicate
// (I[k], J[k]) entries are summed, as finite element assembly produces.
type SystemSpec struct {
	N int       `json:"n"`
	I []int     `json:"i,omitempty"`
	J []int     `json:"j,omitempty"`
	V []float64 `json:"v,omitempty"`
	// F is the right-hand side; Fs is the batched form (give one or the
	// other). All right-hand sides in Fs are solved against the one matrix
	// in a single block solve sharing every matrix traversal.
	F  []float64   `json:"f,omitempty"`
	Fs [][]float64 `json:"fs,omitempty"`
	// Key, when non-empty, names this system for the preconditioner cache:
	// repeated submissions with the same Key and solver settings reuse the
	// assembled matrix and estimated spectral interval. Callers own key
	// uniqueness — reusing a key for a different matrix returns the cached
	// problem. Empty disables caching (general matrices are not
	// content-addressed; hashing every triplet would cost more than it
	// saves).
	//
	// A keyed system that leaves out I, J and V names its matrix by
	// reference: it is solved against the entry a full-body request with
	// the same Key and solver settings left in the cache, and fails with
	// ErrNotCached (HTTP 409) when there is none — never seen, evicted, or
	// cached on another node. The client SDK sends each key's triplets
	// once and resends them on that error.
	Key string `json:"key,omitempty"`
}

// byReference reports whether the system names its matrix by Key alone
// (no triplets), to be resolved from the cache. A nil system does not.
func (sy *SystemSpec) byReference() bool {
	return sy != nil && sy.Key != "" && len(sy.I)+len(sy.J)+len(sy.V) == 0
}

// SolverSpec selects the m-step PCG variant by name, mirroring core.Config.
type SolverSpec struct {
	// M is the preconditioner step count; 0 runs plain CG.
	M int `json:"m"`
	// Splitting is "ssor-multicolor", "ssor-natural" or "jacobi". Empty
	// defaults to ssor-multicolor for plates and jacobi for general
	// systems.
	Splitting string `json:"splitting,omitempty"`
	// Coeffs is "ones", "least-squares", "chebyshev" or "weighted-ls"
	// (empty = ones).
	Coeffs string `json:"coeffs,omitempty"`
	// Omega is the SSOR relaxation parameter (0 = the paper's ω = 1).
	Omega float64 `json:"omega,omitempty"`
	// Tol is the paper's ‖u^{k+1}−u^k‖_∞ test; with RelResidualTol also
	// zero it defaults to 1e-6.
	Tol float64 `json:"tol,omitempty"`
	// RelResidualTol adds/substitutes a relative-residual test.
	RelResidualTol float64 `json:"rel_residual_tol,omitempty"`
	// MaxIter bounds iterations (0 = 10n).
	MaxIter int `json:"max_iter,omitempty"`
	// Backend selects the matvec storage for K: "csr", "dia", "decomposed",
	// or "auto" (empty = auto) — auto probes the matrix structure and picks
	// diagonal storage for banded-diagonal systems (the paper's CYBER
	// layout) and CSR for scattered fill; it never picks the
	// domain-decomposed parallel path, which runs only when asked for. The
	// decomposed backend needs the mesh, so forcing it on a general system
	// fails. The result reports the backend actually used.
	Backend string `json:"backend,omitempty"`
	// Subdomains pins the processor count of a decomposed solve (the mesh
	// is partitioned this many ways, each subdomain run by a dedicated
	// goroutine). 0 lets the planner pick from the session's worker budget;
	// ignored by the single-matrix backends.
	Subdomains int `json:"subdomains,omitempty"`
	// Tuning is the self-tuning planner's feedback policy, one of two:
	// "adapt" records realized throughput per executed plan and re-plans
	// warm problems from the measurements, "off" disables the loop
	// (bit-for-bit static plans); empty defers to the session default.
	// Not part of the problem cache key — it is an execution policy, like
	// the backend.
	Tuning string `json:"tuning,omitempty"`
}

// Request is one unit of work: exactly one of Plate, System, or Prebuilt,
// plus the solver selection.
type Request struct {
	Plate  *PlateSpec  `json:"plate,omitempty"`
	System *SystemSpec `json:"system,omitempty"`
	Solver SolverSpec  `json:"solver"`
	// OmitSolution drops the solution vector from the result (status and
	// convergence stats only) — for large systems polled over HTTP.
	OmitSolution bool `json:"omit_solution,omitempty"`
	// Prebuilt, when non-nil, is an already-assembled in-process problem;
	// never serialized (the wire vocabulary is Plate/System).
	Prebuilt *Prebuilt `json:"-"`
}

// coreConfig resolves the request's solver configuration: a Prebuilt's
// Config, the named SolverSpec otherwise.
func (req *Request) coreConfig() (core.Config, error) {
	if req.Prebuilt != nil {
		return req.Prebuilt.Config, nil
	}
	return req.Solver.CoreConfig(req.Plate != nil)
}

// Size caps enforced at validation: the service is network-facing, so a
// tiny request must not be able to commission an enormous allocation. The
// caps are far above anything the solver handles in reasonable time.
const (
	// maxPlateNodes bounds rows×cols (≈ 8M unknowns).
	maxPlateNodes = 4 << 20
	// maxSystemN bounds a general system's dimension.
	maxSystemN = 16 << 20
	// maxSteps bounds the preconditioner step count m.
	maxSteps = 4096
	// maxBatchRHS bounds the right-hand sides per request (block scratch
	// scales with n×s).
	maxBatchRHS = 256
	// maxSubdomains bounds the pinned processor count of a decomposed solve
	// (each subdomain costs a goroutine plus link channels).
	maxSubdomains = 4096
)

// Validate checks request shape without doing any assembly.
func (req *Request) Validate() error {
	if err := req.checkFinite(); err != nil {
		return err
	}
	if pb := req.Prebuilt; pb != nil {
		// Prebuilt problems come from in-process callers, not the network:
		// only structural integrity and the Config's execution policies are
		// checked here (no resource caps but the subdomain pin's); core
		// validates the rest of the Config at build time.
		if req.Plate != nil || req.System != nil {
			return fmt.Errorf("engine: prebuilt request must not also carry a plate or system spec")
		}
		if req.Solver != (SolverSpec{}) {
			return fmt.Errorf("engine: prebuilt request must not also carry a solver spec (Prebuilt.Config is its whole configuration)")
		}
		if pb.Sys.K == nil {
			return fmt.Errorf("engine: prebuilt system has no matrix")
		}
		n := pb.Sys.K.Rows
		if pb.Sys.K.Cols != n {
			return fmt.Errorf("engine: prebuilt matrix is %d×%d, want square", n, pb.Sys.K.Cols)
		}
		if len(pb.Fs) == 0 && len(pb.Sys.F) != n {
			return fmt.Errorf("engine: prebuilt rhs length %d != n %d", len(pb.Sys.F), n)
		}
		for k, f := range pb.Fs {
			if len(f) != n {
				return fmt.Errorf("engine: prebuilt rhs %d length %d != n %d", k, len(f), n)
			}
		}
		return checkPolicies(pb.Config)
	}
	if (req.Plate == nil) == (req.System == nil) {
		return fmt.Errorf("engine: request needs exactly one of plate or system")
	}
	if p := req.Plate; p != nil {
		if p.Rows < 2 || p.Cols < 2 {
			return fmt.Errorf("engine: plate needs rows, cols >= 2, got %d×%d", p.Rows, p.Cols)
		}
		if p.Rows > maxPlateNodes/p.Cols {
			return fmt.Errorf("engine: plate %d×%d exceeds the %d-node limit", p.Rows, p.Cols, maxPlateNodes)
		}
		// All-zero material selects the default; anything else must be a
		// valid material now, not a failed job later.
		if mat := (fem.Material{E: p.E, Nu: p.Nu, T: p.T}); mat != (fem.Material{}) {
			if err := mat.Validate(); err != nil {
				return err
			}
		}
		if len(p.Tractions) > maxBatchRHS {
			return fmt.Errorf("engine: %d plate load cases exceed the %d limit", len(p.Tractions), maxBatchRHS)
		}
	}
	if sy := req.System; sy != nil {
		if sy.N <= 0 {
			return fmt.Errorf("engine: system needs n > 0, got %d", sy.N)
		}
		if sy.N > maxSystemN {
			return fmt.Errorf("engine: system n = %d exceeds the %d limit", sy.N, maxSystemN)
		}
		if sy.Key == "" && len(sy.I)+len(sy.J)+len(sy.V) == 0 {
			return fmt.Errorf("engine: system has no triplets (system.i/j/v); only a keyed system may leave them out, to name a cached matrix by reference")
		}
		if len(sy.I) != len(sy.J) || len(sy.J) != len(sy.V) {
			return fmt.Errorf("engine: triplet lengths differ: |i|=%d |j|=%d |v|=%d", len(sy.I), len(sy.J), len(sy.V))
		}
		switch {
		case len(sy.Fs) > 0:
			if len(sy.F) > 0 {
				return fmt.Errorf("engine: give f or fs, not both")
			}
			if len(sy.Fs) > maxBatchRHS {
				return fmt.Errorf("engine: %d right-hand sides exceed the %d limit", len(sy.Fs), maxBatchRHS)
			}
			for k, f := range sy.Fs {
				if len(f) != sy.N {
					return fmt.Errorf("engine: rhs %d length %d != n %d", k, len(f), sy.N)
				}
			}
		default:
			if len(sy.F) != sy.N {
				return fmt.Errorf("engine: rhs length %d != n %d", len(sy.F), sy.N)
			}
		}
		for k := range sy.I {
			if sy.I[k] < 0 || sy.I[k] >= sy.N || sy.J[k] < 0 || sy.J[k] >= sy.N {
				return fmt.Errorf("engine: triplet %d index (%d,%d) out of %d×%d", k, sy.I[k], sy.J[k], sy.N, sy.N)
			}
		}
	}
	if req.Solver.M < 0 {
		return fmt.Errorf("engine: negative step count m = %d", req.Solver.M)
	}
	if req.Solver.M > maxSteps {
		return fmt.Errorf("engine: step count m = %d exceeds the %d limit", req.Solver.M, maxSteps)
	}
	if o := req.Solver.Omega; o != 0 && (o <= 0 || o >= 2) {
		return fmt.Errorf("engine: relaxation parameter ω = %g outside (0, 2) (0 selects the default ω = 1)", o)
	}
	cfg, err := req.Solver.CoreConfig(req.Plate != nil)
	if err != nil {
		return err
	}
	return checkPolicies(cfg)
}

// checkPolicies validates the execution knobs of a resolved config, a
// spec's or a prebuilt request's: the subdomain pin (each subdomain costs
// a goroutine) and the tuning policy (case-insensitive, as the engine
// reads it).
func checkPolicies(cfg core.Config) error {
	if sd := cfg.Subdomains; sd < 0 || sd > maxSubdomains {
		return fmt.Errorf("engine: subdomain count %d outside [0, %d]", sd, maxSubdomains)
	}
	_, err := plan.ParseTuning(strings.ToLower(cfg.Tuning))
	return err
}

// checkFinite rejects NaN and ±Inf in the request's floating-point
// inputs, naming the field: a non-finite value would otherwise run the
// solve to its iteration cap before failing. Prebuilt matrices are
// checked once, when the caller assembles them.
func (req *Request) checkFinite() error {
	type field struct {
		name string
		x    []float64
	}
	sv := req.Solver
	fields := []field{
		{"solver.tol", []float64{sv.Tol}},
		{"solver.rel_residual_tol", []float64{sv.RelResidualTol}},
		{"solver.omega", []float64{sv.Omega}},
	}
	if p := req.Plate; p != nil {
		fields = append(fields,
			field{"plate.e", []float64{p.E}}, field{"plate.nu", []float64{p.Nu}},
			field{"plate.t", []float64{p.T}}, field{"plate.traction", []float64{p.Traction}},
			field{"plate.tractions", p.Tractions})
	}
	if sy := req.System; sy != nil {
		fields = append(fields, field{"system.v", sy.V}, field{"system.f", sy.F})
		for k, f := range sy.Fs {
			fields = append(fields, field{fmt.Sprintf("system.fs[%d]", k), f})
		}
	}
	if pb := req.Prebuilt; pb != nil {
		fields = append(fields, field{"prebuilt rhs", pb.Sys.F})
		for k, f := range pb.Fs {
			fields = append(fields, field{fmt.Sprintf("prebuilt rhs %d", k), f})
		}
		c := pb.Config
		fields = append(fields, field{"config tol", []float64{c.Tol}},
			field{"config rel_residual_tol", []float64{c.RelResidualTol}},
			field{"config omega", []float64{c.Omega}})
	}
	for _, f := range fields {
		if !vec.AllFinite(f.x) {
			return fmt.Errorf("engine: %s holds a non-finite value", f.name)
		}
	}
	return nil
}

// kinds resolves the splitting/coefficient names to core enums.
func (s SolverSpec) kinds(isPlate bool) (core.SplittingKind, core.CoeffKind, error) {
	var sk core.SplittingKind
	switch strings.ToLower(s.Splitting) {
	case "":
		if isPlate {
			sk = core.SSORMulticolor
		} else {
			sk = core.JacobiSplitting
		}
	case "ssor-multicolor":
		sk = core.SSORMulticolor
	case "ssor-natural":
		sk = core.SSORNatural
	case "jacobi":
		sk = core.JacobiSplitting
	default:
		return 0, 0, fmt.Errorf("engine: unknown splitting %q (want ssor-multicolor, ssor-natural or jacobi)", s.Splitting)
	}
	var ck core.CoeffKind
	switch strings.ToLower(s.Coeffs) {
	case "", "ones":
		ck = core.Unparametrized
	case "least-squares":
		ck = core.LeastSquaresCoeffs
	case "chebyshev":
		ck = core.ChebyshevCoeffs
	case "weighted-ls":
		ck = core.WeightedLSCoeffs
	default:
		return 0, 0, fmt.Errorf("engine: unknown coeffs %q (want ones, least-squares, chebyshev or weighted-ls)", s.Coeffs)
	}
	return sk, ck, nil
}

// backend resolves the spec's backend name to the core policy.
func (s SolverSpec) backend() (core.Backend, error) {
	return core.ParseBackend(strings.ToLower(s.Backend))
}

// CoreConfig translates the spec into a core.Config. Exported so the repro
// package can derive the config a spec names when building prebuilt
// requests.
func (s SolverSpec) CoreConfig(isPlate bool) (core.Config, error) {
	sk, ck, err := s.kinds(isPlate)
	if err != nil {
		return core.Config{}, err
	}
	b, err := s.backend()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		M:              s.M,
		Splitting:      sk,
		Coeffs:         ck,
		Omega:          s.Omega,
		Tol:            s.Tol,
		RelResidualTol: s.RelResidualTol,
		MaxIter:        s.MaxIter,
		Backend:        b,
		Subdomains:     s.Subdomains,
		Tuning:         strings.ToLower(s.Tuning),
	}, nil
}

// CacheKey names the problem+preconditioner this request needs, or "" when
// the request is uncacheable (a general system without a Key, or an
// unresolvable solver spec). Keys are canonical: spelled-out defaults
// ("ssor-multicolor", "ones", ω = 1) share an entry with the empty-string
// shorthand. The backend is deliberately not part of the key: an entry
// caches the CSR and its DIA conversion side by side, so requests
// differing only in backend share one assembled problem.
//
// Exported because the key doubles as the fleet router's routing key: a
// consistent-hash router computes it from the wire request alone — no
// assembly, no cache — so repeated solves of one problem always land on
// the node whose cache owns that problem's warm entry.
func (req *Request) CacheKey() string {
	var problem string
	switch {
	case req.Prebuilt != nil:
		if req.Prebuilt.Key == "" {
			return ""
		}
		problem = "prebuilt/" + req.Prebuilt.Key
	case req.Plate != nil:
		p := req.Plate
		// Mirror fem.NewPlate's defaulting, so spelling the defaults out
		// lands on the same entry as leaving them zero.
		mat := fem.Material{E: p.E, Nu: p.Nu, T: p.T}
		if mat == (fem.Material{}) {
			mat = fem.DefaultMaterial
		}
		traction := p.Traction
		if traction == 0 {
			traction = 1
		}
		problem = fmt.Sprintf("plate/%dx%d/E=%g,nu=%g,t=%g/q=%g", p.Rows, p.Cols, mat.E, mat.Nu, mat.T, traction)
	case req.System != nil && req.System.Key != "":
		problem = "sys/" + req.System.Key
	default:
		return ""
	}
	cfg, err := req.coreConfig()
	if err != nil {
		return ""
	}
	omega := cfg.Omega
	if omega == 0 {
		omega = 1
	}
	return fmt.Sprintf("%s|%s/m=%d/%s/omega=%g", problem, cfg.Splitting, cfg.M, cfg.Coeffs, omega)
}

// batchSize reports the number of right-hand sides the request solves.
func (req *Request) batchSize() int {
	if req.Prebuilt != nil && len(req.Prebuilt.Fs) > 0 {
		return len(req.Prebuilt.Fs)
	}
	if req.Plate != nil && len(req.Plate.Tractions) > 0 {
		return len(req.Plate.Tractions)
	}
	if req.System != nil && len(req.System.Fs) > 0 {
		return len(req.System.Fs)
	}
	return 1
}

// rhsCols resolves the request's right-hand sides against the (possibly
// cached) assembled system. For plates the load vector is linear in the
// traction, so batched load cases rescale the assembled base RHS; for
// general systems the request's own vectors are used even on a cache hit,
// so a keyed entry never pins the first submitter's RHS onto later
// requests. Every returned column is freshly allocated (never aliasing the
// cached system).
func (req *Request) rhsCols(sys core.System) ([][]float64, error) {
	fs := [][]float64{sys.F}
	switch {
	case req.Prebuilt != nil && len(req.Prebuilt.Fs) > 0:
		fs = req.Prebuilt.Fs
	case req.System != nil && len(req.System.Fs) > 0:
		fs = req.System.Fs
	case req.System != nil:
		fs = [][]float64{req.System.F}
	case req.Plate != nil && len(req.Plate.Tractions) > 0:
		baseTraction := req.Plate.Traction
		if baseTraction == 0 {
			baseTraction = 1
		}
		cols := make([][]float64, len(req.Plate.Tractions))
		for k, tr := range req.Plate.Tractions {
			scale := tr / baseTraction
			col := make([]float64, len(sys.F))
			for i, v := range sys.F {
				col[i] = scale * v
			}
			cols[k] = col
		}
		return cols, nil
	}
	cols := make([][]float64, len(fs))
	for k, f := range fs {
		if len(f) != sys.K.Rows {
			return nil, fmt.Errorf("engine: rhs %d length %d != system size %d (cache key reused for a different matrix?)", k, len(f), sys.K.Rows)
		}
		cols[k] = make([]float64, len(f))
		copy(cols[k], f)
	}
	return cols, nil
}

// assemble builds the linear system for the request (the expensive step the
// cache exists to skip). For plates it returns the plate alongside the
// system.
func (req *Request) assemble() (core.System, *fem.Plate, error) {
	if pb := req.Prebuilt; pb != nil {
		// Zero-copy: the prebuilt system goes straight to the solver (and,
		// when keyed, into the cache) without reassembly.
		return pb.Sys, pb.Plate, nil
	}
	if req.Plate != nil {
		p := req.Plate
		opt := fem.Options{Mat: fem.Material{E: p.E, Nu: p.Nu, T: p.T}, Traction: p.Traction}
		return core.PlateSystem(p.Rows, p.Cols, opt)
	}
	sy := req.System
	coo := sparse.NewCOO(sy.N, sy.N)
	coo.Grow(len(sy.I))
	for k := range sy.I {
		coo.Add(sy.I[k], sy.J[k], sy.V[k])
	}
	k := coo.ToCSR()
	if !k.IsSymmetric(1e-12) {
		return core.System{}, nil, fmt.Errorf("engine: system matrix is not symmetric")
	}
	f := make([]float64, sy.N)
	copy(f, sy.F)
	return core.System{K: k, F: f}, nil, nil
}
