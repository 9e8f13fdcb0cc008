package core

import (
	"errors"

	"repro/internal/plan"
	"repro/internal/sparse"
)

// Backend selects the matrix storage the CG matvec path runs on. The type
// (and its auto-selection heuristics) live in internal/plan, where the
// planner consumes the structure probes; the alias keeps core's public
// surface unchanged.
type Backend = plan.Backend

const (
	// BackendAuto (the zero value) probes the matrix structure and picks
	// the backend itself; see ChooseBackend.
	BackendAuto = plan.BackendAuto
	// BackendCSR forces compressed-sparse-row storage.
	BackendCSR = plan.BackendCSR
	// BackendDIA forces diagonal (Madsen–Rodrigue–Karush) storage, the
	// paper's CYBER 203/205 layout. Requires a square matrix.
	BackendDIA = plan.BackendDIA
	// BackendDecomposed runs the domain-decomposed parallel path (the
	// Finite Element Machine executed for real). It needs the mesh behind
	// the matrix, so only the engine's plate-backed jobs can run it;
	// core.Solve on a bare system rejects it.
	BackendDecomposed = plan.BackendDecomposed
)

// ParseBackend resolves a backend name ("", "auto", "csr", "dia",
// "decomposed"); the empty string means Auto.
func ParseBackend(name string) (Backend, error) { return plan.ParseBackend(name) }

// ChooseBackend resolves a backend policy against a concrete matrix: CSR
// and DIA pass through, and Auto probes the structure (see plan.Probe) and
// picks DIA exactly when diagonal storage is in the regime it wins in: a
// few diagonals, each more than half filled (dense stencils; the colored
// plate stays on CSR). This is the column-layout choice; the planner runs
// interleaved batch tiles on CSR. Callers that re-resolve the same matrix
// should keep a plan.Probe instead of rescanning.
func ChooseBackend(k *sparse.CSR, policy Backend) Backend {
	if policy != BackendAuto {
		return policy
	}
	return plan.NewProbe(k).Choose(policy)
}

// operatorFor materializes the operator a resolved backend names. The DIA
// conversion is performed here (callers that solve the same matrix
// repeatedly — the service cache — convert once and keep the result).
func operatorFor(k *sparse.CSR, backend Backend) (sparse.Operator, Backend, error) {
	switch backend {
	case BackendDIA:
		d, err := sparse.NewDIAFromCSR(k)
		if err != nil {
			return nil, BackendDIA, err
		}
		return d, BackendDIA, nil
	case BackendDecomposed:
		// The decomposed backend is not a storage format for a single
		// operator — it needs the mesh to partition. The engine routes
		// plate-backed jobs to it before reaching here.
		return nil, BackendDecomposed, errors.New("core: decomposed backend requires a mesh-backed problem (plate); solve it through the engine")
	default:
		return k, BackendCSR, nil
	}
}
