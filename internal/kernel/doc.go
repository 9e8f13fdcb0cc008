// Package kernel holds the hardware-speed inner loops every solver backend
// funnels through: SpMV/SpMM, the fused multi-dot / axpy / xpay family, the
// Conrad–Wallach multicolor m-step sweep, and the layout conversions between
// the column-contiguous vec.Multi block and the row-interleaved panel the
// block kernels prefer.
//
// # Interleaved panels
//
// A row-interleaved panel stores an n×s multivector with the s column values
// of each row adjacent: element (i, j) lives at Data[i*stride+j] with
// j < s ≤ stride. Where the column-contiguous layout makes every per-column
// view a zero-copy slice (what the preconditioner sweeps, deflation swaps
// and solution export want), the interleaved layout makes every per-row view
// contiguous — one gathered CSR row index feeds all s columns from a single
// cache line (s = 8 float64s is exactly one 64-byte line), which is what the
// SpMM and sweep gather loops want. The planner-tiled executor converts at
// tile boundaries, so both layouts are used where each wins.
//
// # Dispatch
//
// Every kernel has a portable pure-Go reference implementation and an
// accelerated variant (column-direction unrolled loops with s = 8
// specializations — SIMD-shaped code the compiler turns into vector
// instructions under GOAMD64=v3, and a NEON-friendly form on arm64). The
// specializations cover the panel dots and updates, the CSR SpMM and the
// m-step sweep; the sweep runs its register-blocked body on every full
// 8-column tile of a wider panel too. One
// implementation set is selected at package init by CPU feature detection:
// amd64 with AVX2+FMA (and OS-enabled YMM state) selects the "avx2" set,
// arm64 the "neon" set (NEON is baseline there), everything else the
// "portable" set. Setting REPRO_KERNEL=portable in the environment forces
// the portable set process-wide; it is the one switch, and every solve runs
// the set selected at startup.
//
// # Numerical contract
//
// Accelerated kernels never reassociate a per-column reduction: dot products
// and SpMM row sums accumulate in exactly the portable order (unrolling runs
// across columns, where accumulators are independent, not along the
// reduction). Axpy/xpay are elementwise and exact by construction. Solver
// results are therefore bit-identical across kernel sets and layouts — a
// stronger guarantee than the ±1-iteration tolerance the acceptance tests
// demand — and the property tests in this package assert exact agreement
// (with a ULP-bounded helper kept for future reassociating variants).
package kernel
