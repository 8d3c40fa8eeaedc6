//! Synthetic long-context workloads for the LServe reproduction.
//!
//! The paper's accuracy experiments (NIAH Figures 6/9/13, LongBench Table 2, RULER
//! Tables 3/6) all probe one mechanism: *does sparse attention retain the tokens the
//! query actually needs?* Without trained checkpoints we measure that mechanism
//! directly at the attention layer:
//!
//! * [`niah`] — Needle-in-a-Haystack at the KV level: a haystack of Gaussian keys
//!   with a planted needle whose key aligns with the query; the metric is **needle
//!   recall** — the fraction of needle tokens inside the selector's chosen pages.
//!   Dense attention scores 1.0 by construction; a selector that drops the needle's
//!   page scores 0, exactly the red cells of Figure 6.
//! * [`ruler`] — RULER-style multi-needle and drifting-query variants (multi-hop
//!   tracing needs *several* pages retained; Table 6's reuse-interval ablation needs
//!   queries that drift across decode steps with realistic temporal locality).
//! * [`longbench`] — a panel of task profiles (haystack size, needle count, signal
//!   sharpness) standing in for the LongBench suites, reporting retrieval fidelity
//!   in `[0, 1]` that multiplies the paper's dense scores for presentation.
//! * [`gates`] — a generator of DuoAttention-style per-head gate values `α`: heads
//!   with genuinely local synthetic attention mass get low α, retrieval-ish heads
//!   get high α, so the §3.3 quantile classification has realistic inputs.
//! * [`shared_prefix`] — shared-prefix and multi-turn *serving* workloads (N
//!   personas × M queries over a common system prompt; nested conversation
//!   turns), the traffic shapes that make cross-request prefix caching pay off.
//! * [`overcommit`] — bursty, unshared long-context arrivals whose aggregate
//!   KV demand exceeds the hot tier, the traffic shape that exercises the
//!   tiered KV memory (swap-based preemption vs replay, selection-driven
//!   demotion).
//! * [`slo_mix`] — long batch prompts with short interactive requests arriving
//!   behind them, the traffic shape that makes SLO-class-aware admission and
//!   victim selection pay off (interactive TTFT vs class-blind FCFS).
//! * [`agentic`] — request-DAG scenes (speculative tool-call branching,
//!   best-of-N panels), the traffic shape that makes CoW `fork()`/join and
//!   per-branch sparsity overrides pay off.

pub mod agentic;
pub mod gates;
pub mod longbench;
pub mod niah;
pub mod overcommit;
pub mod ruler;
pub mod shared_prefix;
pub mod slo_mix;

pub use agentic::{best_of_n, tool_call_branches, AgentScene, AgenticConfig, BranchPrompt};
pub use gates::{duo_gates, HeadProfile};
pub use longbench::{longbench_tasks, LongBenchTask};
pub use niah::{NiahCase, NiahConfig};
pub use overcommit::{overcommit_workload, OvercommitConfig};
pub use ruler::{DriftingQueries, MultiNeedleCase};
pub use shared_prefix::{
    multi_turn_workload, shared_prefix_workload, PromptSpec, SharedPrefixConfig,
};
pub use slo_mix::{slo_mix_workload, SloMixConfig, SloMixRequest};
