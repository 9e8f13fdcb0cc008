package plan

import (
	"fmt"
	"math"
	"sync"
)

// TuningMode is the planner's feedback policy: what a session does with the
// realized throughput of executed plans.
type TuningMode int

const (
	// TuningAdapt (the default) records realized throughput per executed
	// plan and re-plans warm problems from the measurements: the selector
	// prefers measured winners and explores neighboring plans, the paper's
	// machine-dependent-m result closed into a live loop.
	TuningAdapt TuningMode = iota
	// TuningObserve records measurements and reports them as plan evidence
	// but always executes the static plan.
	TuningObserve
	// TuningOff disables the loop entirely: plans are the planner's static
	// structure decision, bit-for-bit, with no observation store.
	TuningOff
)

func (m TuningMode) String() string {
	switch m {
	case TuningAdapt:
		return "adapt"
	case TuningObserve:
		return "observe"
	case TuningOff:
		return "off"
	}
	return "?"
}

// ParseTuning resolves a tuning policy name; the empty string means Adapt.
func ParseTuning(name string) (TuningMode, error) {
	switch name {
	case "", "adapt":
		return TuningAdapt, nil
	case "observe":
		return TuningObserve, nil
	case "off":
		return TuningOff, nil
	}
	return 0, fmt.Errorf("plan: unknown tuning policy %q (want off, observe or adapt)", name)
}

// Signature is the identity of a plan for the observation store: two solves
// whose plans share a signature are assumed to realize the same throughput
// on this machine. Tile identity is the widest tile's width — tiling is
// balanced, so the width determines the partition for a given batch size.
type Signature struct {
	Backend    Backend
	TileWidth  int
	Workers    int
	M          int
	Interleave bool
}

// Signature reduces the plan to its observation-store identity.
func (p Plan) Signature() Signature {
	w := 0
	if len(p.Tiles) > 0 {
		w = len(p.Tiles[0])
	}
	return Signature{
		Backend:    p.Backend,
		TileWidth:  w,
		Workers:    p.Workers,
		M:          p.M,
		Interleave: p.Interleave,
	}
}

// less orders signatures deterministically (tie-breaks in selection must
// not depend on map iteration order).
func (s Signature) less(o Signature) bool {
	if s.Backend != o.Backend {
		return s.Backend < o.Backend
	}
	if s.TileWidth != o.TileWidth {
		return s.TileWidth < o.TileWidth
	}
	if s.Workers != o.Workers {
		return s.Workers < o.Workers
	}
	if s.M != o.M {
		return s.M < o.M
	}
	return !s.Interleave && o.Interleave
}

// Observation is one executed plan's realized performance: right-hand
// sides retired per second of execute time, and the execute seconds per
// block iteration (the per-iteration cost the m in m-step trades against).
type Observation struct {
	RHSPerSec   float64
	IterSeconds float64
}

// Candidate is one plan the selector considered, with its evidence: the
// measured throughput estimate when the signature has executed before, and
// the exploration-adjusted score the selection ranked it by.
type Candidate struct {
	Plan         Plan
	Signature    Signature
	Measured     float64 // mean measured rhs/s (0 when unmeasured)
	Observations int
	IterSeconds  float64 // mean execute seconds per block iteration
	Score        float64
	Chosen       bool
}

// Decision explains one plan choice: how it was made and every candidate
// considered with its evidence. A zero Decision (no candidates) means the
// static plan ran unexamined — a cold problem, or tuning off.
type Decision struct {
	// Source is "static" (the planner's structure heuristic, unexamined or
	// deliberately kept), "measured" (a candidate chosen on observed
	// throughput) or "explore" (an unmeasured candidate promoted by the
	// exploration bonus).
	Source     string
	Candidates []Candidate
}

// Tuner constants.
const (
	// DefaultMinObservations is how many executed solves a problem needs
	// before the selector starts considering alternatives: below it plans
	// stay static, so short-lived sessions (and tests) see exactly the
	// static planner.
	DefaultMinObservations = 5
	// DefaultExplore scales the UCB exploration bonus, in units of the
	// best measured throughput.
	DefaultExplore = 0.25
	// DefaultMaxProblems bounds the distinct problems (cache keys) the
	// store tracks.
	DefaultMaxProblems = 256
	// DefaultMaxSignatures bounds the plan signatures tracked per problem;
	// observations for further signatures are dropped.
	DefaultMaxSignatures = 32
	// maxCandidates caps the plans one decision examines.
	maxCandidates = 12
)

// Tuner is the measurement side of the self-tuning planner: a bounded
// per-problem observation store keyed by plan signature, folding each
// executed solve's realized rhs/s into an online estimate, plus the
// selector that re-plans warm problems from the estimates. The zero value
// is ready to use; all methods are safe for concurrent use.
//
// Selection is UCB-style over the neighborhood of the static plan and the
// best measured plan (M±1, halved/doubled tile widths, halved/doubled
// worker counts, interleave toggled): each candidate scores its measured
// mean throughput — or, when unmeasured, the best measured signature's —
// plus an exploration bonus that shrinks as the candidate accumulates
// observations. The arithmetic is deliberately clock- and randomness-free:
// equal stores produce equal decisions.
type Tuner struct {
	mu       sync.Mutex
	problems map[string]*problemStats
	touch    int64
}

type problemStats struct {
	total    int
	lastUsed int64
	sigs     map[Signature]*sigStat
}

type sigStat struct {
	n           int
	mean        float64 // running mean rhs/s
	iterSeconds float64 // running mean seconds per block iteration
}

// Observe folds one executed plan's realized performance into the store.
// Non-positive keys-less problems (key "") and non-finite or negative
// throughputs are ignored; a zero RHSPerSec is accepted as the deliberate
// "this plan cannot run here" mark for infeasible candidates.
func (t *Tuner) Observe(key string, sig Signature, obs Observation) {
	if key == "" || math.IsNaN(obs.RHSPerSec) || math.IsInf(obs.RHSPerSec, 0) || obs.RHSPerSec < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.problems == nil {
		t.problems = make(map[string]*problemStats)
	}
	p := t.problems[key]
	if p == nil {
		if len(t.problems) >= DefaultMaxProblems {
			t.evictColdest()
		}
		p = &problemStats{sigs: make(map[Signature]*sigStat)}
		t.problems[key] = p
	}
	t.touch++
	p.lastUsed = t.touch
	st := p.sigs[sig]
	if st == nil {
		if len(p.sigs) >= DefaultMaxSignatures {
			return // bounded store: drop observations beyond the cap
		}
		st = &sigStat{}
		p.sigs[sig] = st
	}
	p.total++
	st.n++
	st.mean += (obs.RHSPerSec - st.mean) / float64(st.n)
	st.iterSeconds += (obs.IterSeconds - st.iterSeconds) / float64(st.n)
}

// evictColdest drops the least-recently-used problem; caller holds t.mu.
func (t *Tuner) evictColdest() {
	var coldKey string
	var coldUsed int64 = math.MaxInt64
	for k, p := range t.problems {
		if p.lastUsed < coldUsed {
			coldKey, coldUsed = k, p.lastUsed
		}
	}
	if coldKey != "" {
		delete(t.problems, coldKey)
	}
}

// Observations reports how many executed solves the store has folded in
// for the problem (0 for unknown keys).
func (t *Tuner) Observations(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.problems[key]; p != nil {
		return p.total
	}
	return 0
}

// Decide chooses the plan a warm problem should run: base is the planner's
// static decision for in, from which the candidate plans are derived.
// Until the problem has DefaultMinObservations executed solves — or when
// the base plan is decomposed, whose execution shape the mesh partition
// owns — the static plan returns untouched with an empty Decision. Past
// the gate every candidate is scored; with adapt true the winner's plan is
// returned, otherwise the static plan is (observe mode: evidence without
// adaptation). Decide never mutates the store, so offline planning
// (POST /v1/plan) can call it freely.
func (t *Tuner) Decide(key string, in Inputs, base Plan, adapt bool) (Plan, Decision) {
	if key == "" || base.Backend == BackendDecomposed || len(base.Tiles) == 0 {
		return base, Decision{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.problems[key]
	if p == nil || p.total < DefaultMinObservations {
		return base, Decision{}
	}

	// Anchor: the best measured signature, the value of every unmeasured
	// candidate and the unit of the exploration bonus.
	var anchorSig Signature
	anchor := 0.0
	found := false
	for sig, st := range p.sigs {
		if st.n == 0 {
			continue
		}
		if !found || st.mean > anchor || (st.mean == anchor && sig.less(anchorSig)) {
			anchorSig, anchor, found = sig, st.mean, true
		}
	}
	if !found || anchor <= 0 {
		return base, Decision{}
	}

	cands := t.candidates(in, base, anchorSig)
	total := float64(p.total)
	best := 0
	for i := range cands {
		c := &cands[i]
		value := anchor
		n := 0
		if st := p.sigs[c.Signature]; st != nil && st.n > 0 {
			c.Measured, c.Observations, c.IterSeconds = st.mean, st.n, st.iterSeconds
			value, n = st.mean, st.n
		}
		c.Score = value + DefaultExplore*anchor*math.Sqrt(math.Log(total+1)/float64(n+1))
		if c.Score > cands[best].Score {
			best = i
		}
	}

	d := Decision{Source: "static", Candidates: cands}
	if !adapt {
		cands[0].Chosen = true // the static plan is what will run
		return base, d
	}
	cands[best].Chosen = true
	switch {
	case best == 0 && cands[0].Observations == 0:
		d.Source = "static"
	case cands[best].Observations > 0:
		d.Source = "measured"
	default:
		d.Source = "explore"
	}
	return cands[best].Plan, d
}

// candidates builds the deterministic candidate list: the static base plan
// first, then the neighborhoods of the base and of the incumbent best
// measured plan, deduplicated by signature. Caller holds t.mu.
func (t *Tuner) candidates(in Inputs, base Plan, anchorSig Signature) []Candidate {
	seen := map[Signature]bool{base.Signature(): true}
	out := []Candidate{{Plan: base, Signature: base.Signature()}}
	add := func(p Plan, ok bool) {
		if !ok || len(out) >= maxCandidates {
			return
		}
		sig := p.Signature()
		if seen[sig] {
			return
		}
		seen[sig] = true
		out = append(out, Candidate{Plan: p, Signature: sig})
	}
	expand := func(from Plan) {
		add(withM(in, from, from.M+1))
		add(withM(in, from, from.M-1))
		add(retiled(in, from, 2*tileWidth(from)))
		add(retiled(in, from, tileWidth(from)/2))
		add(withWorkers(in, from, from.Workers*2))
		add(withWorkers(in, from, from.Workers/2))
		add(withInterleave(in, from, !from.Interleave))
	}
	expand(base)
	// Walk the neighborhood of the incumbent too, so adaptation can climb
	// more than one step away from the static plan (m 1 → 2 → 3 …).
	if inc, ok := fromSignature(in, base, anchorSig); ok {
		add(inc, true)
		expand(inc)
	}
	return out
}

// tileWidth is the plan's widest tile (its signature width).
func tileWidth(p Plan) int {
	if len(p.Tiles) == 0 {
		return 0
	}
	return len(p.Tiles[0])
}

// batchSize is the plan's total column count.
func batchSize(p Plan) int {
	s := 0
	for _, t := range p.Tiles {
		s += len(t)
	}
	return s
}

// withM proposes base with m preconditioner steps (invalid m: no plan),
// leaving the panel layout when the m-step preconditioner cannot sweep it.
func withM(in Inputs, base Plan, m int) (Plan, bool) {
	if m < 0 || m == base.M {
		return Plan{}, false
	}
	out := base
	out.M = m
	if out.Interleave && !in.FusedSweep(m) {
		out.Interleave = false
	}
	return out, true
}

// retiled proposes base re-partitioned at the given tile width, with the
// interleave legality the static planner applies.
func retiled(in Inputs, base Plan, width int) (Plan, bool) {
	s := batchSize(base)
	if s <= 1 || width < 1 || width > s || width == tileWidth(base) {
		return Plan{}, false
	}
	out := base
	out.Tiles = tile(s, width)
	out.Interleave = interleaves(in, out.Tiles, out.M)
	if tileWidth(out) == tileWidth(base) && out.Interleave == base.Interleave {
		return Plan{}, false
	}
	return out, true
}

// withWorkers proposes base at a different kernel fan-out, bounded by the
// session's worker budget. Systems below the parallel-kernel threshold run
// serially regardless, so no variant is proposed for them.
func withWorkers(in Inputs, base Plan, w int) (Plan, bool) {
	budget := in.Workers
	if budget < 1 {
		budget = 1
	}
	if in.Probe != nil && in.Probe.Rows > 0 && in.Probe.Rows < minParallelRows {
		return Plan{}, false
	}
	if w < 1 || w > budget || w == base.Workers {
		return Plan{}, false
	}
	out := base
	out.Workers = w
	return out, true
}

// withInterleave proposes base with the panel layout toggled. Turning it
// on needs a preconditioner that sweeps panels and every tile at least two
// columns wide (a one-column panel is the scalar path).
func withInterleave(in Inputs, base Plan, on bool) (Plan, bool) {
	if on == base.Interleave || len(base.Tiles) == 0 {
		return Plan{}, false
	}
	if on && (!in.FusedSweep(base.M) || len(base.Tiles[len(base.Tiles)-1]) < 2) {
		return Plan{}, false
	}
	out := base
	out.Interleave = on
	return out, true
}

// fromSignature reconstructs the plan a signature describes by applying
// its fields to the static base (the inverse of the candidate modifiers).
// It reports false when the signature is not reachable from base — a
// different backend, or a shape the current inputs cannot express — so a
// stale store entry can never smuggle in an inconsistent plan.
func fromSignature(in Inputs, base Plan, sig Signature) (Plan, bool) {
	if sig.Backend != base.Backend {
		return Plan{}, false
	}
	out := base
	if sig.M != out.M {
		var ok bool
		if out, ok = withM(in, out, sig.M); !ok {
			return Plan{}, false
		}
	}
	if sig.TileWidth != tileWidth(out) {
		var ok bool
		if out, ok = retiled(in, out, sig.TileWidth); !ok {
			return Plan{}, false
		}
	}
	if sig.Workers != out.Workers {
		var ok bool
		if out, ok = withWorkers(in, out, sig.Workers); !ok {
			return Plan{}, false
		}
	}
	if sig.Interleave != out.Interleave {
		var ok bool
		if out, ok = withInterleave(in, out, sig.Interleave); !ok {
			return Plan{}, false
		}
	}
	if out.Signature() != sig {
		return Plan{}, false
	}
	return out, true
}
