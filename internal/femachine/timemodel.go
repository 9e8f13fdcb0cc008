// Package femachine simulates the NASA Finite Element Machine of the
// paper's §3.2: an array of processors with distributed memory, dedicated
// nearest-neighbor links, a sum/max hardware circuit performing global
// reductions in O(log₂P) time, and a signal flag network for convergence
// tests.
//
// The simulator is a clock over decomp.Solve, the same distributed m-step
// PCG the engine's decomposed backend runs: one goroutine per processor,
// border values on Go channels, inner products up a binomial tree. Each
// rank reports its local flops, border exchanges and reductions to an
// observer, and each processor's clock charges them to the TimeModel. A
// message's arrival stamp travels on its own link beside the values, and a
// drain advances the clock to max(local, arrival); a reduction
// synchronizes every clock at the latest arrival plus the circuit's
// latency. Work done while an exchange is in flight is charged after it
// lands, because the machine did not overlap messages with computation,
// and the clock also charges the zero-start product r⁰ = f − K·0 that
// decomp skips. The machine's reported time is the maximum final clock —
// exactly how speedup was measured on the real hardware.
package femachine

import "fmt"

// TimeModel carries the hardware cost parameters (seconds).
type TimeModel struct {
	// Flop is the time per floating point operation. The FEM's processors
	// were microprocessor-class (~1 µs per flop).
	Flop float64
	// MsgStartup is the per-message software initiation cost on a local
	// link.
	MsgStartup float64
	// Word is the per-64-bit-word transmission time on a local link.
	Word float64
	// TreeStage is the sum/max circuit's per-stage cost; a P-processor
	// reduction costs ceil(log₂P) stages.
	TreeStage float64
	// FlagSync is the signal-flag-network synchronize-and-test cost.
	FlagSync float64
	// SoftwareReduce, when true, replaces the sum/max circuit with an
	// O(P) software ring — the configuration Jordan [1979] identified as
	// "potentially detrimental" and the reason the circuit was built.
	SoftwareReduce bool
}

// DefaultTimeModel returns parameters representative of the early-1980s
// hardware: microsecond flops, ten-microsecond message startups.
func DefaultTimeModel() TimeModel {
	return TimeModel{
		Flop:       1e-6,
		MsgStartup: 10e-6,
		Word:       1e-6,
		TreeStage:  5e-6,
		FlagSync:   5e-6,
	}
}

// Validate rejects non-physical models.
func (t TimeModel) Validate() error {
	if t.Flop <= 0 || t.MsgStartup < 0 || t.Word < 0 || t.TreeStage < 0 || t.FlagSync < 0 {
		return fmt.Errorf("femachine: invalid time model %+v", t)
	}
	return nil
}

// reduceCost returns the latency of one global reduction over p processors
// beyond the arrival of the last operand.
func (t TimeModel) reduceCost(p int) float64 {
	if p <= 1 {
		return 0
	}
	if t.SoftwareReduce {
		return float64(p-1) * (t.MsgStartup + t.Word)
	}
	stages := 0
	for n := p - 1; n > 0; n >>= 1 {
		stages++
	}
	return float64(stages) * t.TreeStage
}
