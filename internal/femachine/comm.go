package femachine

import (
	"sync"

	"repro/internal/decomp"
)

// clock is one simulated processor's time: the decomp.Observer that
// charges the work its rank of decomp.Solve reports. Exchange arrival
// times travel on their own links beside the solver's messages.
type clock struct {
	sub    *decomp.Subdomain
	tm     TimeModel
	stamps *decomp.Links[float64]
	red    *reducer

	now float64
	// comm and count are the breakdown category of the exchange in flight,
	// nil between a Drain and the next Post. Work reported meanwhile is
	// deferred until the drain, because the machine did not overlap
	// messages with computation.
	comm     *float64
	count    *int
	deferred int

	computeTime      float64
	precondCommTime  float64
	haloCommTime     float64
	reduceWaitTime   float64
	precondExchanges int
	haloExchanges    int
	reductions       int
}

func (c *clock) charge(flops int) {
	dt := float64(flops) * c.tm.Flop
	c.now += dt
	c.computeTime += dt
}

// zeroStart charges the product r⁰ = f − K·u⁰ at u⁰ = 0, which the
// machine performed and decomp.Solve skips: one all-colors halo exchange
// and two flops per stored entry of the processor's rows.
func (c *clock) zeroStart(allColors []int) {
	c.Post(allColors, true)
	c.Drain()
	c.charge(2 * len(c.sub.Vals))
}

// Flops charges local work, or defers it while an exchange is in flight.
func (c *clock) Flops(n int) {
	if c.comm != nil {
		c.deferred += n
		return
	}
	c.charge(n)
}

// Post charges a message startup per neighbor and stamps each message
// with its arrival: the send time plus its words on the link. Both
// components of every listed border node travel in one record, the
// packaging §3.2 recommends.
func (c *clock) Post(colors []int, halo bool) {
	c.comm, c.count = &c.precondCommTime, &c.precondExchanges
	if halo {
		c.comm, c.count = &c.haloCommTime, &c.haloExchanges
	}
	for _, q := range c.sub.Neighbors {
		words := 0
		for _, col := range colors {
			words += 2 * len(c.sub.SendNodes[q][col])
		}
		c.now += c.tm.MsgStartup
		*c.comm += c.tm.MsgStartup
		c.stamps.Send(c.sub.Rank, q, c.now+float64(words)*c.tm.Word)
	}
}

// Drain advances the clock to each neighbor's arrival stamp, then charges
// the work deferred while the exchange was in flight.
func (c *clock) Drain() {
	for _, q := range c.sub.Neighbors {
		if arrival := c.stamps.Recv(q, c.sub.Rank); arrival > c.now {
			*c.comm += arrival - c.now
			c.now = arrival
		}
	}
	*c.count += len(c.sub.Neighbors)
	c.comm, c.count = nil, nil
	c.charge(c.deferred)
	c.deferred = 0
}

// Reduce waits at the sum/max circuit (or, for the ‖Δu‖∞ flag, the signal
// flag network) for every processor's clock.
func (c *clock) Reduce(flag bool) {
	if t := c.red.rendezvous(c.now, flag); t > c.now {
		c.reduceWaitTime += t - c.now
		c.now = t
	}
	c.reductions++
}

// reducer is the clock side of the sum/max circuit and the signal flag
// network: a rendezvous of all P processors whose result is the latest
// arrival plus the hardware's latency. The values themselves combine in
// decomp.Solve's reduction tree.
type reducer struct {
	p  int
	tm TimeModel

	mu     sync.Mutex
	cond   *sync.Cond
	gen    int
	count  int
	latest float64
	result float64
}

func newReducer(p int, tm TimeModel) *reducer {
	r := &reducer{p: p, tm: tm}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// rendezvous blocks until every processor has arrived and returns the
// synchronized clock.
func (r *reducer) rendezvous(now float64, flag bool) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.gen
	if r.count == 0 || now > r.latest {
		r.latest = now
	}
	r.count++
	if r.count == r.p {
		latency := r.tm.reduceCost(r.p)
		if flag {
			latency = r.tm.FlagSync
		}
		r.result = r.latest + latency
		r.count = 0
		r.gen++
		r.cond.Broadcast()
		return r.result
	}
	for gen == r.gen {
		r.cond.Wait()
	}
	return r.result
}
