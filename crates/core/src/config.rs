//! Engine configuration and the policy presets compared in the paper.

use lserve_kvcache::{PagePool, PagingConfig, StreamingWindow};
use lserve_model::ModelConfig;
use lserve_quant::KvPrecision;

/// Which dynamic page-selection policy dense heads use during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// No dynamic sparsity: dense heads attend their full history.
    None,
    /// Flat, Quest-style physical-page statistics.
    Flat,
    /// LServe's hierarchical logical→physical scoring (§3.5.2).
    Hierarchical,
}

/// Full policy configuration of a [`crate::ModelExecutor`].
///
/// Presets mirror the paper's systems so accuracy comparisons isolate the policy:
/// everything runs on the same weights, caches and kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Page geometry and KV precision.
    pub paging: PagingConfig,
    /// Fraction of KV heads converted to streaming heads (0.0 disables static
    /// sparsity).
    pub streaming_sparsity: f64,
    /// Sink/local window of streaming heads, in physical pages.
    pub streaming_window: StreamingWindow,
    /// Dynamic sparsity token budget for dense heads (`None` = full attention).
    pub dynamic_budget: Option<usize>,
    /// Page-selector policy.
    pub selector: SelectorKind,
    /// Selector reuse interval `C` (§3.5.3); 1 = select every step.
    pub reuse_interval: usize,
    /// Square tile size for block-sparse prefill.
    pub prefill_tile: usize,
    /// MInference-style dynamic prefill sparsity on retrieval heads: `Some(keep)`
    /// retains `keep` top-affinity past blocks per query tile (plus the diagonal
    /// and the sequence window's sinks) past [`EngineConfig::dynamic_prefill_after`].
    pub dynamic_prefill_keep: Option<usize>,
    /// Prompt length (tokens) beyond which dynamic prefill activates (§4.3 uses
    /// 128K).
    pub dynamic_prefill_after: usize,
    /// Seed for the synthetic DuoAttention gate values.
    pub gate_seed: u64,
    /// Ignored: nothing reads it. Selection-driven demotion is always on for
    /// every dense head with a page selector, at a fixed staleness of two
    /// fresh selection chunks. The field stays only because the benchmark's
    /// pinned surface (`crates/bench/src/bin/perf/layers.rs`) still writes
    /// it; the benchmark change that migrates that file deletes it.
    pub demote_after_chunks: Option<usize>,
}

impl EngineConfig {
    /// LServe defaults: INT4 KV, 64/16 hierarchical paging, 50% streaming heads,
    /// 4096-token dynamic budget, reuse interval 4.
    pub fn lserve() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Int4),
            streaming_sparsity: 0.5,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: Some(4096),
            selector: SelectorKind::Hierarchical,
            reuse_interval: 4,
            prefill_tile: 64,
            dynamic_prefill_keep: Some(64),
            dynamic_prefill_after: 131_072,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// Accuracy-test variant of [`EngineConfig::lserve`] with FP16 KV, so
    /// sparsity-induced error is isolated from quantization error.
    pub fn lserve_fp16() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Fp16),
            ..Self::lserve()
        }
    }

    /// Dense baseline: full attention everywhere, FP16 KV.
    pub fn dense() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Fp16),
            streaming_sparsity: 0.0,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: None,
            selector: SelectorKind::None,
            reuse_interval: 1,
            prefill_tile: 64,
            dynamic_prefill_keep: None,
            dynamic_prefill_after: usize::MAX,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// QServe-like: INT4 KV with large flat pages, no sparsity.
    pub fn qserve_like() -> Self {
        Self {
            paging: PagingConfig::flat(64, KvPrecision::Int4),
            ..Self::dense()
        }
    }

    /// Quest-like: FP16 KV, flat 16-token pages, selection every step, dense
    /// prefill (no streaming heads).
    pub fn quest_like(budget: usize) -> Self {
        Self {
            paging: PagingConfig::flat(16, KvPrecision::Fp16),
            dynamic_budget: Some(budget),
            selector: SelectorKind::Flat,
            ..Self::dense()
        }
    }

    /// DuoAttention-like: static sparsity only (50% streaming heads), FP16, dense
    /// retrieval heads.
    pub fn duo_like() -> Self {
        Self {
            streaming_sparsity: 0.5,
            ..Self::dense()
        }
    }

    /// LServe with a custom dynamic budget (`LServe-N` in Tables 3/6).
    pub fn lserve_with_budget(budget: usize) -> Self {
        Self {
            dynamic_budget: Some(budget),
            ..Self::lserve()
        }
    }

    /// Builds a page pool sized so one sequence of up to `max_tokens` fits under
    /// this configuration (dense heads grow with context; streaming heads are
    /// bounded by their window), with synchronous migration and an unbounded
    /// host tier. Its prompt may be prefilled as one tile, as
    /// [`crate::ModelExecutor::generate`] does, and a tile is hot whole: the
    /// pool holds the whole context of every dense head.
    pub fn make_pool_for(&self, model: &ModelConfig, max_tokens: usize) -> PagePool {
        let schedule = crate::dag::SparsitySchedule::new();
        let pages =
            crate::scheduler::pages_estimate(self, model, max_tokens, max_tokens, &schedule);
        PagePool::new(self.paging, pages + 8, model.head_dim)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found: a zero reuse interval, a
    /// streaming sparsity outside `[0, 1]`, a selector without a budget or
    /// the other way round, a zero prefill tile or dynamic-prefill budget.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError::*;
        check(self.reuse_interval >= 1, ReuseInterval)?;
        check(
            (0.0..=1.0).contains(&self.streaming_sparsity),
            StreamingSparsity,
        )?;
        match (self.dynamic_budget, self.selector) {
            (Some(_), SelectorKind::None) => return Err(BudgetWithoutSelector),
            (None, SelectorKind::Flat | SelectorKind::Hierarchical) => {
                return Err(SelectorWithoutBudget)
            }
            _ => {}
        }
        check(self.prefill_tile > 0, PrefillTile)?;
        check(self.dynamic_prefill_keep != Some(0), DynamicPrefillKeep)
    }
}

/// `Err(error)` unless `holds`.
pub(crate) fn check(holds: bool, error: ConfigError) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(error)
    }
}

/// Why [`EngineConfig::validate`], [`crate::SchedulerConfig::validate`] or
/// [`crate::ClusterConfig::validate`] rejected a configuration. The
/// constructors that take one (`ModelExecutor::new`, `Scheduler::new`,
/// `Cluster::new`) panic with its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `EngineConfig::reuse_interval` is 0.
    ReuseInterval,
    /// `EngineConfig::streaming_sparsity` is outside `[0, 1]`.
    StreamingSparsity,
    /// A dynamic budget with `SelectorKind::None`.
    BudgetWithoutSelector,
    /// A page selector with no dynamic budget.
    SelectorWithoutBudget,
    /// `EngineConfig::prefill_tile` is 0.
    PrefillTile,
    /// `EngineConfig::dynamic_prefill_keep` is `Some(0)`.
    DynamicPrefillKeep,
    /// `SchedulerConfig::pool_pages` is 0.
    PoolPages,
    /// `SchedulerConfig::chunk_tokens` is 0.
    ChunkTokens,
    /// `SchedulerConfig::max_batch` is 0.
    MaxBatch,
    /// `SchedulerConfig::decode_threads` is 0.
    DecodeThreads,
    /// `SchedulerConfig::devices` is 0.
    Devices,
    /// `SchedulerConfig::rebalance_interval` is 0.
    RebalanceInterval,
    /// `SchedulerConfig::rebalance_threshold` is below 1.
    RebalanceThreshold,
    /// `SchedulerConfig::no_deadline_slack` is 0.
    NoDeadlineSlack,
    /// `ClusterConfig::replicas` is 0.
    NoReplicas,
    /// `ClusterConfig::replicas` exceeds the metrics naming budget.
    TooManyReplicas {
        /// The most replicas a cluster names.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError::*;
        match self {
            ReuseInterval => f.write_str("reuse interval must be >= 1"),
            StreamingSparsity => f.write_str("streaming sparsity must be in [0,1]"),
            BudgetWithoutSelector => f.write_str("budget set but selector is None"),
            SelectorWithoutBudget => f.write_str("selector set but no budget"),
            PrefillTile => f.write_str("prefill tile must be positive"),
            DynamicPrefillKeep => f.write_str("dynamic prefill keep budget must be positive"),
            PoolPages => f.write_str("pool must hold at least one page"),
            ChunkTokens => f.write_str("chunk must be at least one token"),
            MaxBatch => f.write_str("batch must admit at least one sequence"),
            DecodeThreads => f.write_str("need at least one decode worker"),
            Devices => f.write_str("need at least one device"),
            RebalanceInterval => f.write_str("rebalance interval must be at least one step"),
            RebalanceThreshold => {
                f.write_str("rebalance threshold is a max-over-mean ratio (>= 1.0)")
            }
            NoDeadlineSlack => f.write_str("aging horizon must be positive for starvation-freedom"),
            NoReplicas => f.write_str("cluster needs at least one replica"),
            TooManyReplicas { max } => write!(f, "at most {max} replicas supported"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for c in [
            EngineConfig::lserve(),
            EngineConfig::lserve_fp16(),
            EngineConfig::dense(),
            EngineConfig::qserve_like(),
            EngineConfig::quest_like(4096),
            EngineConfig::duo_like(),
            EngineConfig::lserve_with_budget(8192),
        ] {
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn lserve_matches_paper_defaults() {
        let c = EngineConfig::lserve();
        assert_eq!(c.paging.physical_page_size(), 64);
        assert_eq!(c.paging.logical_page_size(), 16);
        assert_eq!(c.dynamic_budget, Some(4096));
        assert_eq!(c.reuse_interval, 4);
        assert_eq!(c.streaming_sparsity, 0.5);
    }

    /// The executor still panics on a bad config, with the message the
    /// assertion had.
    #[test]
    #[should_panic(expected = "selector set but no budget")]
    fn inconsistent_config_rejected() {
        let mut c = EngineConfig::lserve();
        c.dynamic_budget = None;
        let w = lserve_model::ModelWeights::random(&lserve_model::ModelConfig::tiny(), 1);
        crate::ModelExecutor::new(std::sync::Arc::new(w), c);
    }

    /// One case per engine variant: the preset with one field broken.
    #[test]
    fn each_engine_inconsistency_has_its_error() {
        let broken = |edit: fn(&mut EngineConfig)| {
            let mut c = EngineConfig::lserve();
            edit(&mut c);
            c.validate()
        };
        use ConfigError::*;
        assert_eq!(broken(|c| c.reuse_interval = 0), Err(ReuseInterval));
        assert_eq!(
            broken(|c| c.streaming_sparsity = 1.5),
            Err(StreamingSparsity)
        );
        assert_eq!(
            broken(|c| c.selector = SelectorKind::None),
            Err(BudgetWithoutSelector)
        );
        assert_eq!(
            broken(|c| c.dynamic_budget = None),
            Err(SelectorWithoutBudget)
        );
        assert_eq!(broken(|c| c.prefill_tile = 0), Err(PrefillTile));
        assert_eq!(
            broken(|c| c.dynamic_prefill_keep = Some(0)),
            Err(DynamicPrefillKeep)
        );
    }
}
