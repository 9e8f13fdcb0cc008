package core

import "repro/internal/plan"

// Backend selects the matrix storage the CG matvec path runs on. The type
// (and its auto-selection heuristics) live in internal/plan, where the
// planner consumes the structure probes; the alias keeps core's public
// surface unchanged.
type Backend = plan.Backend

const (
	// BackendAuto (the zero value) probes the matrix structure and picks
	// the backend itself; see plan.Probe.Choose.
	BackendAuto = plan.BackendAuto
	// BackendCSR forces compressed-sparse-row storage.
	BackendCSR = plan.BackendCSR
	// BackendDIA forces diagonal (Madsen–Rodrigue–Karush) storage, the
	// paper's CYBER 203/205 layout. Requires a square matrix.
	BackendDIA = plan.BackendDIA
	// BackendDecomposed runs the domain-decomposed parallel path (the
	// Finite Element Machine executed for real). It needs the mesh behind
	// the matrix, so only plate-backed engine jobs can run it; a job on a
	// bare system fails.
	BackendDecomposed = plan.BackendDecomposed
)

// ParseBackend resolves a backend name ("", "auto", "csr", "dia",
// "decomposed"); the empty string means Auto.
func ParseBackend(name string) (Backend, error) { return plan.ParseBackend(name) }
