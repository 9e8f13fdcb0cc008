package femachine

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/fem"
	"repro/internal/mesh"
)

// Config selects a machine run.
type Config struct {
	P        int
	Strategy mesh.Strategy
	// M is the preconditioner step count (0 = plain CG); Alphas must have
	// length M when M > 0 (use poly.Ones(m).Coeffs for the unparametrized
	// method).
	M       int
	Alphas  []float64
	Tol     float64 // paper's ‖Δu‖_∞ threshold
	MaxIter int
	Time    TimeModel
}

// Result reports a machine run.
type Result struct {
	U          []float64 // solution in the global multicolor ordering
	Iterations int
	Converged  bool
	// SimTime is the maximum final processor clock — wall time on the
	// machine.
	SimTime float64
	// Breakdown (summed over processors):
	ComputeTime     float64 // flop charges
	PrecondCommTime float64 // border exchanges inside the preconditioner
	HaloCommTime    float64 // p-vector border exchanges in CG proper
	ReduceWaitTime  float64 // inner-product and flag synchronizations
	// Message/reduction counters.
	PrecondExchanges int
	HaloExchanges    int
	Reductions       int
}

// Machine is a configured Finite Element Machine ready to solve one
// multicolor-ordered problem. Its processors run decomp.Solve over the
// shared decomp.Decomposition — the same solver the engine's decomposed
// backend executes — and the TimeModel clocks price that run as its
// observer.
type Machine struct {
	cfg Config
	dec *decomp.Decomposition
}

// New builds the machine for the paper's plate problem.
func New(plate *fem.Plate, cfg Config) (*Machine, error) {
	return NewMachine(decomp.PlateProblem(plate), cfg)
}

// NewDomainMachine builds the machine for an irregular-region problem —
// the parallel completion of the paper's §5 future work.
func NewDomainMachine(p *fem.DomainProblem, constrained mesh.Constraint, cfg Config) (*Machine, error) {
	cp, err := DomainColoredProblem(p, constrained)
	if err != nil {
		return nil, err
	}
	return NewMachine(cp, cfg)
}

// NewMachine builds the machine for any multicolor-ordered problem: it
// partitions the free nodes, extracts each processor's rows of the colored
// system, and wires the neighbor links.
func NewMachine(prob decomp.Problem, cfg Config) (*Machine, error) {
	if err := cfg.Time.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tol <= 0 {
		return nil, fmt.Errorf("femachine: Tol must be positive")
	}
	if cfg.M < 0 || (cfg.M > 0 && len(cfg.Alphas) != cfg.M) {
		return nil, fmt.Errorf("femachine: need len(Alphas) == M, got %d vs %d", len(cfg.Alphas), cfg.M)
	}
	dec, err := decomp.New(prob, cfg.P, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, dec: dec}, nil
}

// Run executes the machine: decomp.Solve runs one goroutine per
// processor, and each processor's clock charges the work it reports. The
// solution comes back in the global multicolor ordering.
func (m *Machine) Run() (Result, error) {
	stamps := decomp.NewLinks[float64](m.dec, decomp.LinkDepth)
	red := newReducer(m.cfg.P, m.cfg.Time)
	clocks := make([]*clock, m.cfg.P)
	for p, sub := range m.dec.Subs {
		clocks[p] = &clock{sub: sub, tm: m.cfg.Time, stamps: stamps, red: red}
	}
	u, st, err := m.dec.Solve(nil, decomp.Options{
		M: m.cfg.M, Alphas: m.cfg.Alphas, Tol: m.cfg.Tol, MaxIter: m.cfg.MaxIter,
		Observe: func(rank int) decomp.Observer {
			c := clocks[rank]
			c.zeroStart(m.dec.AllColors)
			return c
		},
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{U: u, Iterations: st.Iterations, Converged: st.Converged}
	for _, c := range clocks {
		res.SimTime = max(res.SimTime, c.now)
		res.ComputeTime += c.computeTime
		res.PrecondCommTime += c.precondCommTime
		res.HaloCommTime += c.haloCommTime
		res.ReduceWaitTime += c.reduceWaitTime
		res.PrecondExchanges += c.precondExchanges
		res.HaloExchanges += c.haloExchanges
		res.Reductions += c.reductions
	}
	return res, nil
}
