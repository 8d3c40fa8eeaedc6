//! Analytical GPU cost model calibrated to the LServe paper's A100/L40S measurements.
//!
//! We reproduce the paper's *efficiency* experiments (Figures 2, 10, 11, 12, 14, 15,
//! 16; Tables 1, 5, 7) without a GPU by modeling what those kernels are bound by.
//! Each of their sentences is a row of `tests/paper_figures.rs`: the paper's band
//! where the model reproduces it, a pinned gap (DESIGN.md "Paper figures") where
//! it does not.
//!
//! * **Decode attention** is memory-bound: time = KV bytes moved / (HBM bandwidth ×
//!   a page-size-dependent efficiency). The efficiency curve `s/(s+c)` (bytes of
//!   contiguous access `s` against a fixed per-iteration overhead `c`) is calibrated
//!   so QServe's page-size sweep reproduces Table 1 (~1.5× slowdown at page 16,
//!   saturating by page 128).
//! * **Prefill attention** is compute-bound: time = visited tiles × tile FLOPs /
//!   (peak FLOPs × utilization); block sparsity multiplies visited tiles by `1−r`
//!   (§3.1), and a competing kernel's inefficiency is a multiplicative penalty
//!   (MInference's kernel is ~1.3× slower than LServe's at equal sparsity,
//!   Figure 12).
//! * **Decode GEMM** is weight-bound at serving batch sizes: weight bytes /
//!   bandwidth. **Prefill GEMM** is compute-bound.
//! * **Page selection** costs a calibrated constant per logical page per layer
//!   (29 ns, from Figure 14's 0.24 ms at 128K context with `N_L = 16`), divided by
//!   the reuse interval.
//! * Each system carries a **per-step serving overhead** intercept (CPU scheduling,
//!   kernel launches, framework overhead) calibrated to the artifact's Table 7
//!   latencies.
//!
//! Absolute times are estimates; the deliverable is the *shape* — who wins, by what
//! factor, where the crossovers fall — which these components pin down because every
//! system differs only in bytes moved, tiles visited, and selector work.

pub mod e2e;
pub mod gpu;
pub mod kernels;
pub mod system;

pub use e2e::{
    decode_step, decode_throughput, max_batch, prefill, DecodeBreakdown, PrefillBreakdown,
};
pub use gpu::GpuSpec;
pub use kernels::{
    bandwidth_efficiency, decode_attention_time, page_bytes, prefill_attention_time, selector_time,
    ITERATION_OVERHEAD_BYTES, SELECTOR_SECONDS_PER_LOGICAL_PAGE,
};
pub use system::{PrefillSparsity, SystemModel};
