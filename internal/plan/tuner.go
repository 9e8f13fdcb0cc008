package plan

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// TuningMode is the planner's feedback policy: what a session does with the
// realized throughput of executed plans.
type TuningMode int

const (
	// TuningAdapt (the default) records realized throughput per executed
	// plan and re-plans warm problems from the measurements: the selector
	// prefers measured winners and explores neighbouring step counts, the
	// paper's machine-dependent-m result closed into a live loop.
	TuningAdapt TuningMode = iota
	// TuningOff disables the loop entirely: plans are the planner's static
	// structure decision, bit-for-bit, with no observation store.
	TuningOff
)

func (m TuningMode) String() string {
	switch m {
	case TuningAdapt:
		return "adapt"
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
	case "off":
		return TuningOff, nil
	}
	return 0, fmt.Errorf("plan: unknown tuning policy %q (want off or adapt)", name)
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
	// DefaultMinObservations is how many executed solves of a request's own
	// static plans a problem needs before the selector starts considering
	// alternatives: below it plans stay static, so short-lived sessions
	// (and tests) see exactly the static planner.
	DefaultMinObservations = 5
	// DefaultExplore scales the UCB exploration bonus, in units of the
	// incumbent's measured throughput.
	DefaultExplore = 0.25
	// DefaultMaxProblems bounds the distinct problems (cache keys) the
	// store tracks.
	DefaultMaxProblems = 256
	// DefaultMaxSignatures bounds the plan signatures tracked per problem;
	// observations for further signatures are dropped.
	DefaultMaxSignatures = 32
)

// Tuner is the measurement side of the self-tuning planner: a bounded
// per-problem observation store keyed by plan signature, folding each
// executed solve's realized rhs/s into an online estimate, plus the
// selector that re-plans warm problems from the estimates. The zero value
// is ready to use; all methods are safe for concurrent use.
//
// The selector tunes only the paper's parameter, the step count m: its
// candidates are Static's plans at neighbouring step counts (see Decide),
// so tile width, fan-out, layout and backend always come from Static.
// Selection is UCB-style: each candidate scores its measured mean
// throughput — or, when unmeasured, the incumbent's — plus an exploration
// bonus that shrinks as the candidate accumulates observations. The
// arithmetic is deliberately clock- and randomness-free: equal stores
// produce equal decisions.
type Tuner struct {
	mu       sync.Mutex
	problems map[string]*problemStats
	touch    int64
}

type problemStats struct {
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

// Decide chooses the plan a warm problem should run for in. Every plan it
// considers is Static's: the static plan for in, and Static with in.M set
// to a neighbouring step count (m ± 1 of the static plan, and the
// incumbent with its m ± 1). The incumbent is the best measured of in's
// own static plans: a stored signature counts only if Static at its m
// reproduces it, so solves at another batch width never steer this one.
// Until in's own plans have DefaultMinObservations executed solves — or
// when the static plan is decomposed, whose execution shape the mesh
// partition owns — the static plan returns untouched with an empty
// Decision. Past the gate every candidate is scored and the winner's plan
// is returned. Decide never mutates the store, so offline planning
// (POST /v1/plan) can call it freely.
func (t *Tuner) Decide(key string, in Inputs) (Plan, Decision) {
	static := Static(in)
	if key == "" || static.Backend == BackendDecomposed {
		return static, Decision{}
	}
	at := func(m int) Plan {
		in := in
		in.M = m
		return Static(in)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.problems[key]
	if p == nil {
		return static, Decision{}
	}

	// Incumbent: the best measured of in's own static plans (ties to the
	// lower m), the value of every unmeasured candidate and the unit of
	// the exploration bonus.
	total, incM, incMean := 0, 0, 0.0
	for sig, st := range p.sigs {
		if at(sig.M).Signature() != sig {
			continue
		}
		if total == 0 || st.mean > incMean || (st.mean == incMean && sig.M < incM) {
			incM, incMean = sig.M, st.mean
		}
		total += st.n
	}
	if total < DefaultMinObservations || incMean <= 0 {
		return static, Decision{}
	}

	cands := []Candidate{{Plan: static, Signature: static.Signature()}}
	for _, m := range []int{static.M + 1, static.M - 1, incM, incM + 1, incM - 1} {
		if m < 0 || slices.ContainsFunc(cands, func(c Candidate) bool { return c.Plan.M == m }) {
			continue
		}
		pl := at(m)
		cands = append(cands, Candidate{Plan: pl, Signature: pl.Signature()})
	}

	best := 0
	for i := range cands {
		c := &cands[i]
		value, n := incMean, 0
		if st := p.sigs[c.Signature]; st != nil {
			c.Measured, c.Observations, c.IterSeconds = st.mean, st.n, st.iterSeconds
			value, n = st.mean, st.n
		}
		c.Score = value + DefaultExplore*incMean*math.Sqrt(math.Log(float64(total)+1)/float64(n+1))
		if c.Score > cands[best].Score {
			best = i
		}
	}

	cands[best].Chosen = true
	d := Decision{Candidates: cands}
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
