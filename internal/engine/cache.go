package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// cacheEntry is one fully-prepared problem: the assembled system and one
// pool of ready preconditioners per step count (stepPool). The system is
// immutable after build; preconditioners carry mutable sweep scratch (e.g.
// the Conrad–Wallach auxiliary vector), so concurrent jobs each check one
// out of a pool rather than sharing an instance. Every job runs against an
// entry: a keyless request builds a throwaway one (empty key) that the
// cache never holds and the tuner never sees.
type cacheEntry struct {
	key  string
	once sync.Once
	err  error
	// ready is set as the last step of a build that succeeded. A
	// by-reference request resolves only ready entries: it carries no
	// triplets, so it must never be the one to run once.
	ready atomic.Bool

	sys   core.System
	plate *fem.Plate
	// m is the request's configured step count, whose pool the build
	// creates; every other count's pool starts from that pool's config.
	m int

	// dia is the diagonal-storage conversion of sys.K, built at most once
	// per entry the first time a job resolves to the DIA backend and
	// shared (immutably) by every later DIA solve of this problem.
	diaOnce sync.Once
	dia     *sparse.DIA
	diaErr  error

	// decomps memoizes the plate's domain decompositions by subdomain
	// count. A Decomposition is immutable after construction (all per-solve
	// state lives in the solve call), so one instance serves every
	// decomposed solve of this problem at that processor count, including
	// concurrent ones.
	decompMu sync.Mutex
	decomps  map[int]*decomp.Decomposition

	// probeVal memoizes the planner's structure probe: the matrix is
	// immutable per entry, so the O(nnz) pattern scan runs once, not once
	// per request — and every re-plan of a warm request decides from the
	// identical probe (plan stability on cache hits).
	probeOnce sync.Once
	probeVal  plan.Probe

	poolMu sync.Mutex
	pools  map[int]*stepPool // by step count
}

// stepPool is one step count's preconditioners and what a job that runs
// them reports: the α, the interval they were fitted on and the display
// name. cfg is the entry's config at that count with the interval pinned
// where its first build ran a spectral estimate (core.RunsEstimate), so
// rebuilds never re-run it. The SSOR bound is never pinned: it costs
// nothing to recompute, and a count past poly.LeastSquaresStableM must
// estimate instead.
type stepPool struct {
	cfg      core.Config
	alphas   poly.Alphas
	interval eigen.Interval
	name     string
	pool     sync.Pool // of precond.Preconditioner
}

// build does the expensive setup exactly once per entry, cached or
// throwaway: assembly, then splitting construction, the spectral interval
// (an estimate only where core.IntervalSource says so) and the configured
// step count's first preconditioner. phase, when non-nil, brackets each
// stage ("assemble", then core's build phases, with their attributes) —
// the job that runs the build records the stages on its own trace.
func (e *cacheEntry) build(req *Request, phase func(name string, attrs ...any) (end func())) {
	if phase == nil {
		phase = func(string, ...any) func() { return func() {} }
	}
	end := phase("assemble")
	err := e.assemble(req)
	end()
	if err != nil {
		e.err = err
		return
	}
	cfg, err := req.coreConfig()
	if err != nil {
		e.err = err
		return
	}
	sp, p, err := e.addPool(cfg, phase)
	if err != nil {
		e.err = err
		return
	}
	e.m = cfg.M
	sp.pool.Put(p)
	e.ready.Store(true)
}

// assemble sets the entry's system and plate from the request: all that
// planning needs, without a preconditioner or a spectral estimate.
func (e *cacheEntry) assemble(req *Request) error {
	sys, plate, err := req.assemble()
	if err != nil {
		return err
	}
	e.sys, e.plate = sys, plate
	return nil
}

// structureProbe returns the entry's memoized matrix structure scan, the
// planner's input for backend selection and tile sizing.
func (e *cacheEntry) structureProbe() *plan.Probe {
	e.probeOnce.Do(func() { e.probeVal = plan.NewProbe(e.sys.K) })
	return &e.probeVal
}

// getDIA returns the entry's diagonal-storage form of the system matrix,
// converting on first use. The conversion is cached alongside the CSR so
// repeated DIA-backend solves of one problem never re-convert.
func (e *cacheEntry) getDIA() (*sparse.DIA, error) {
	e.diaOnce.Do(func() { e.dia, e.diaErr = sparse.NewDIAFromCSR(e.sys.K) })
	return e.dia, e.diaErr
}

// getDecomp returns the entry's memoized p-way row-strip decomposition of
// its plate (the entry must hold one), partitioning on first use. Like the
// DIA conversion, it is cached alongside the CSR so repeated decomposed
// solves of one problem never re-partition the mesh.
func (e *cacheEntry) getDecomp(p int) (*decomp.Decomposition, error) {
	e.decompMu.Lock()
	defer e.decompMu.Unlock()
	if d, ok := e.decomps[p]; ok {
		return d, nil
	}
	d, err := decomp.New(decomp.PlateProblem(e.plate), p, mesh.RowStrips)
	if err != nil {
		return nil, err
	}
	if e.decomps == nil {
		e.decomps = make(map[int]*decomp.Decomposition)
	}
	e.decomps[p] = d
	return d, nil
}

// checkout takes a preconditioner for m steps from that count's pool,
// building one when the pool is empty (or the GC emptied it). Rebuilds use
// the pool's config, so they never re-run an estimate. The first checkout
// of a count other than the configured one — a tuned plan's M±1 candidate
// — builds from the configured count's config at m: a pinned estimate
// carries over, and where the entry fitted on the SSOR bound the new count
// takes its own interval from core.IntervalFor (the bound again, or an
// estimate past poly.LeastSquaresStableM). A build failure surfaces its
// real cause. The caller puts the preconditioner back into the pool.
func (e *cacheEntry) checkout(m int) (*stepPool, precond.Preconditioner, error) {
	e.poolMu.Lock()
	sp, base := e.pools[m], e.pools[e.m]
	e.poolMu.Unlock()
	if sp == nil {
		cfg := base.cfg
		cfg.M = m
		return e.addPool(cfg, nil)
	}
	if p, ok := sp.pool.Get().(precond.Preconditioner); ok && p != nil {
		return sp, p, nil
	}
	p, _, _, err := core.BuildPreconditioner(e.sys, sp.cfg)
	if err != nil {
		return nil, nil, err
	}
	return sp, p, nil
}

// addPool builds a preconditioner for cfg and files the pool of cfg.M
// steps, unless a concurrent checkout filed one first (the builds agree).
// phase is as in build.
func (e *cacheEntry) addPool(cfg core.Config, phase func(string, ...any) func()) (*stepPool, precond.Preconditioner, error) {
	p, alphas, iv, err := core.BuildPreconditionerPhased(e.sys, cfg, phase)
	if err != nil {
		return nil, nil, err
	}
	if core.RunsEstimate(cfg) {
		cfg.Interval = &iv
	}
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	sp, ok := e.pools[cfg.M]
	if !ok {
		sp = &stepPool{cfg: cfg, alphas: alphas, interval: iv, name: p.Name()}
		if e.pools == nil {
			e.pools = make(map[int]*stepPool)
		}
		e.pools[cfg.M] = sp
	}
	return sp, p, nil
}

// cache is a keyed LRU of prepared problems under one mutex, which covers
// a map lookup and a list move per job and never a build. Concurrent
// misses on the same key share one build — the losers block on the
// entry's once.
type cache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses atomic.Int64
}

// newCache builds a cache holding at most capacity entries (at least one).
func newCache(capacity int) *cache {
	return &cache{max: max(capacity, 1), lru: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the entry for key, creating it on miss, and whether the entry
// already existed. An insert past capacity evicts the least recently used
// entry. The caller must run entry.once before using the fields.
func (c *cache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry), true
	}
	e := &cacheEntry{key: key}
	c.entries[key] = c.lru.PushFront(e)
	if c.lru.Len() > c.max {
		c.remove(c.lru.Back())
	}
	c.misses.Add(1)
	return e, false
}

// built returns the entry for key when its build has finished without
// error: what a by-reference request resolves against and what planning
// reads. It never creates an entry or counts a miss, and an entry still
// building counts as absent. touch marks the entry most recently used and
// counts a hit, as any warm solve does; planning passes false so it never
// perturbs the cache.
func (c *cache) built(key string, touch bool) (*cacheEntry, bool) {
	if key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || !el.Value.(*cacheEntry).ready.Load() {
		return nil, false
	}
	if touch {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
	}
	return el.Value.(*cacheEntry), true
}

// drop removes e from the cache (used when its build fails, so the error
// is not cached forever). It compares identity: if the key has already
// been replaced by a newer — possibly healthy — entry, that entry stays.
func (c *cache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
		c.remove(el)
	}
}

func (c *cache) remove(el *list.Element) {
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
