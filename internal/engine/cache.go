package engine

import (
	"container/list"
	"fmt"
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
	"repro/internal/vectorsim"
)

// cacheEntry is one fully-prepared problem: the assembled system, the
// estimated spectral interval (for parametrized coefficients), and a pool
// of ready preconditioners. The system and interval are immutable after
// build; preconditioners carry mutable sweep scratch (e.g. the
// Conrad–Wallach auxiliary vector), so concurrent jobs each check one out
// of the pool rather than sharing an instance. Every job runs against an
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
	// cfg is the request's solver config with the estimated interval
	// pinned, so pooled preconditioner rebuilds never re-run the power
	// method.
	cfg      core.Config
	interval eigen.Interval
	alphas   poly.Alphas
	precond  string // display name

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

	// costVal memoizes the vectorsim cost analysis of the entry's system —
	// the paper's eq. (4.1) breakdown the self-tuning planner uses as its
	// prior for unmeasured step counts. Needs the multicolor group
	// boundaries; general systems without them memoize the error instead.
	costOnce sync.Once
	costVal  vectorsim.CostBreakdown
	costErr  error

	// alts holds per-step-count preconditioner pools for tuned plans whose
	// M differs from the request's: the splitting and pinned spectral
	// interval are shared with the main pool, so an alternate-M rebuild
	// never re-runs the spectral estimate.
	altMu sync.Mutex
	alts  map[int]*altPrecond

	pool sync.Pool // of precond.Preconditioner
}

// altPrecond is one alternate step count's preconditioner pool.
type altPrecond struct {
	pool   sync.Pool
	alphas poly.Alphas
	name   string
}

// build does the expensive setup exactly once per entry, cached or
// throwaway: assembly, then splitting construction, interval estimation
// and the first preconditioner. phase, when non-nil, brackets each stage
// ("assemble", then core's build phases) — the job that runs the build
// records the stages on its own trace; planning passes nil.
func (e *cacheEntry) build(req *Request, phase func(name string) (end func())) {
	if phase == nil {
		phase = func(string) func() { return func() {} }
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
	p, alphas, iv, err := core.BuildPreconditionerPhased(e.sys, cfg, phase)
	if err != nil {
		e.err = err
		return
	}
	e.interval, e.alphas, e.precond = iv, alphas, p.Name()
	if iv != (eigen.Interval{}) {
		// Pin the estimate: later preconditioner builds reuse it.
		cfg.Interval = &e.interval
	}
	e.cfg = cfg
	e.pool.Put(p)
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
	if pb := req.Prebuilt; pb != nil && pb.Probe != nil {
		// Seed the structure-probe memo from the caller's own memo: a
		// prebuilt problem's pattern is never rescanned, not even once.
		e.probeOnce.Do(func() { e.probeVal = *pb.Probe })
	}
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

// checkout takes a preconditioner from the pool, rebuilding one when the
// pool is empty (or the GC emptied it). Rebuilds reuse the pinned spectral
// interval, so they never re-run the spectral estimate. A rebuild failure —
// which should be impossible after a successful first build — surfaces its
// real cause to the caller rather than an untyped nil.
func (e *cacheEntry) checkout() (precond.Preconditioner, error) {
	if p, ok := e.pool.Get().(precond.Preconditioner); ok && p != nil {
		return p, nil
	}
	np, _, _, err := core.BuildPreconditioner(e.sys, e.cfg)
	if err != nil {
		return nil, err
	}
	return np, nil
}

func (e *cacheEntry) release(p precond.Preconditioner) { e.pool.Put(p) }

// checkoutM takes a preconditioner built for m steps instead of the
// entry's configured count — how a tuned plan's M±1 candidates execute
// against a problem cached at another m. The first checkout of each
// alternate count builds it (reusing the pinned spectral interval and the
// entry's splitting configuration); later checkouts pool like the main
// path. The returned release puts the instance back.
func (e *cacheEntry) checkoutM(m int) (precond.Preconditioner, poly.Alphas, string, func(precond.Preconditioner), error) {
	if m == e.cfg.M {
		p, err := e.checkout()
		return p, e.alphas, e.precond, e.release, err
	}
	e.altMu.Lock()
	alt, ok := e.alts[m]
	e.altMu.Unlock()
	if ok {
		if p, pok := alt.pool.Get().(precond.Preconditioner); pok && p != nil {
			return p, alt.alphas, alt.name, alt.put, nil
		}
	}
	cfg := e.cfg
	cfg.M = m
	p, alphas, _, err := core.BuildPreconditioner(e.sys, cfg)
	if err != nil {
		return nil, poly.Alphas{}, "", nil, err
	}
	if alt == nil {
		alt = &altPrecond{alphas: alphas, name: p.Name()}
		e.altMu.Lock()
		if prev, ok := e.alts[m]; ok {
			alt = prev
		} else {
			if e.alts == nil {
				e.alts = make(map[int]*altPrecond)
			}
			e.alts[m] = alt
		}
		e.altMu.Unlock()
	}
	return p, alt.alphas, alt.name, alt.put, nil
}

func (a *altPrecond) put(p precond.Preconditioner) { a.pool.Put(p) }

// costModel returns the entry's memoized vectorsim analysis: the cost of
// one CG iteration (A) and one preconditioner step (B) on the model
// machine, the self-tuning planner's prior for unmeasured step counts.
func (e *cacheEntry) costModel() (vectorsim.CostBreakdown, error) {
	e.costOnce.Do(func() {
		if len(e.sys.GroupStart) < 2 {
			e.costErr = fmt.Errorf("%w: no multicolor group boundaries", vectorsim.ErrDegenerate)
			return
		}
		e.costVal, e.costErr = vectorsim.Analyze(vectorsim.Cyber203(), e.sys.K, e.sys.GroupStart, 0)
	})
	return e.costVal, e.costErr
}

// cacheShards caps the number of independently-locked cache segments. Keys
// hash to a shard, so concurrent batch traffic on distinct problems
// contends on distinct mutexes instead of serializing on one.
const cacheShards = 16

// minShardCapacity keeps shards from getting uselessly thin: small
// configured totals use fewer shards rather than thinner ones (a
// CacheSize below it degenerates to one shard — exactly the old
// single-LRU behavior).
const minShardCapacity = 4

// cache is a keyed LRU of prepared problems, sharded by key hash: each
// shard owns its own mutex and recency list, so the only cross-shard
// state is atomic counters. Capacity is a global bound, not a per-shard
// one — a shard holding many hot keys borrows capacity from idle shards,
// and eviction (from the inserting shard's LRU tail, an approximation of
// global LRU that needs no cross-shard lock) only happens once the whole
// cache is full, so any working set that fit the old single LRU still
// fits. Concurrent misses on the same key still share one build — the
// losers block on the entry's once.
type cache struct {
	shards []cacheShard
	max    int
	size   atomic.Int64

	hits, misses atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
}

// newCache builds a cache holding max entries in total over
// min(cacheShards, max/minShardCapacity) shards (at least one).
func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	nshards := max / minShardCapacity
	if nshards > cacheShards {
		nshards = cacheShards
	}
	if nshards < 1 {
		nshards = 1
	}
	c := &cache{shards: make([]cacheShard, nshards), max: max}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			lru:     list.New(),
			entries: make(map[string]*list.Element),
		}
	}
	return c
}

// shard picks the key's segment by inline FNV-1a (allocation-free — the
// stdlib hash escapes to the heap through its interface, and this runs on
// every cached request).
func (c *cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// get returns the entry for key, creating it on miss, and whether the entry
// already existed. The caller must run entry.once before using the fields.
func (c *cache) get(key string) (*cacheEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry), true
	}
	e := &cacheEntry{key: key}
	s.entries[key] = s.lru.PushFront(e)
	// Evict only when the cache as a whole is over capacity, and only
	// from this shard (never the entry just inserted). The total can
	// transiently exceed max by at most one entry per single-entry shard.
	if c.size.Add(1) > int64(c.max) && s.lru.Len() > 1 {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		c.size.Add(-1)
	}
	c.misses.Add(1)
	return e, false
}

// peek returns the entry for key without creating one, touching the LRU
// order, or counting a hit/miss (read-only callers like request planning
// must not perturb the cache they are describing). An empty key — an
// uncacheable request — never matches.
func (c *cache) peek(key string) (*cacheEntry, bool) {
	if key == "" {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry), true
}

// built returns the entry for key when its build has finished without
// error: what a by-reference request resolves against. It never creates an
// entry or counts a miss, and an entry still building counts as absent.
// touch marks the entry most recently used and counts a hit, as any warm
// solve does; planning passes false so it never perturbs the cache.
func (c *cache) built(key string, touch bool) (*cacheEntry, bool) {
	if key == "" {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok || !el.Value.(*cacheEntry).ready.Load() {
		return nil, false
	}
	if touch {
		s.lru.MoveToFront(el)
		c.hits.Add(1)
	}
	return el.Value.(*cacheEntry), true
}

// drop removes e from its shard (used when its build fails, so the error
// is not cached forever). It compares identity: if the key has already
// been replaced by a newer — possibly healthy — entry, that entry stays.
func (c *cache) drop(e *cacheEntry) {
	s := c.shard(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
		s.lru.Remove(el)
		delete(s.entries, e.key)
		c.size.Add(-1)
	}
}

func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
