//! The LServe engine: long-sequence LLM serving with unified sparse attention.
//!
//! This crate composes every substrate of the reproduction into the system of
//! Figure 5:
//!
//! * [`heads`] — the §3.3 static sparsity determination: DuoAttention gate values
//!   are thresholded at a sparsity quantile, classifying each KV head as a
//!   **retrieval (dense)** or **streaming** head, fixed offline for both stages.
//! * [`config`] — [`EngineConfig`] presets for LServe and the baselines it is
//!   compared against (dense, Quest-like flat selection, DuoAttention-like static
//!   only, QServe-like quantized dense), expressed over one shared engine so
//!   accuracy comparisons isolate the *policy*, exactly like the paper's setup.
//! * [`executor`] — the engine split into its shared and per-request halves:
//!   [`ModelExecutor`] (weights, policy, RoPE, head classification; immutable and
//!   `Arc`-shared) and [`SequenceState`] (per-layer two-way KV caches, selector
//!   state, position, stats). The executor runs block-sparse fused prefill (§3.4),
//!   two-way paged KV writeback, and decode with hierarchical + reusable page
//!   selection feeding the fused decode kernel (§3.5–3.6) — including
//!   [`ModelExecutor::decode_batch_sharded`], the layer-outer batched decode
//!   step whose attention phase shards across a sparsity-aware worker pool
//!   (bit-identical at every thread count).
//! * [`api`] — the handle-based streaming request API ([`RequestSpec`] →
//!   [`RequestHandle`] → [`ServingEvent`]) and the [`SchedulerConfig`] policy.
//! * [`scheduler`] — the continuous-batching [`Scheduler`], one file per state
//!   machine: admission, chunked prefill over a fixed tile grid, batched
//!   decode with exact page-demand reservation, SLO-class/deadline/swap-cost-
//!   aware preemption, the swap/park/spill ladder, prefix-cache donation,
//!   cancellation, and speculative fork/join — standing in for the vLLM-style
//!   serving loop the paper builds on.
//! * [`report`] — [`ServingReport`], assembled on request from the scheduler's
//!   counters and the pool / copy-engine / prefix-cache / placement / DAG
//!   ledgers.
//! * [`prefix`] — [`CachedPrefix`], the positionally exact per-sequence KV
//!   snapshot the scheduler donates into (and seeds from) the
//!   `lserve-prefixcache` radix tree.
//! * [`stats`] — work counters every stage reports (tiles, pages, selector calls),
//!   the quantities the cost model turns into GPU time.

pub mod api;
pub mod cluster;
pub mod config;
pub mod dag;
pub mod executor;
pub mod heads;
pub mod metrics;
pub mod prefix;
pub mod report;
pub mod scheduler;
pub mod sharding;
pub mod stats;

pub use api::{
    AdmissionPolicy, FinishReason, PreemptionPolicy, RejectReason, RequestHandle, RequestSpec,
    RequestStatus, SchedulerConfig, ServingEvent, SloClass,
};
pub use cluster::{Cluster, ClusterConfig, ClusterForkOutcome, ClusterReport, RouterStats};
pub use config::{EngineConfig, RuntimeConfig, SelectorKind, TraceMode};
pub use dag::{
    BranchSpec, DagStats, DagStore, ForkError, ForkOutcome, JoinPolicy, JoinStatus,
    SparsityOverride, SparsitySchedule,
};
pub use executor::{DecodeOutput, ModelExecutor, OutOfPagesError, PrefillOutput, SequenceState};
pub use heads::{classify_heads, streaming_masks_from_gates};
pub use lserve_costmodel::{Placement, PlacementPolicy, Topology};
pub use lserve_kvcache::{MigrationMode, MigrationStats};
pub use lserve_prefixcache::PrefixCacheStats;
pub use metrics::MetricsSnapshot;
pub use prefix::CachedPrefix;
pub use report::{RequestMetrics, ServingReport};
pub use scheduler::{sequence_pages_estimate, tile_grid_boundary, Scheduler};
pub use sharding::{RebalanceOutcome, ShardingPlan, ShardingStats};
pub use stats::{EngineStats, ParallelExecStats};
