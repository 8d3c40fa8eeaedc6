//! [`SequenceState`]: everything that belongs to one request — per-layer
//! two-way KV caches, per-head reusable-selector state, position counters,
//! work stats — and what a serving layer asks of it between steps.

use lserve_kvcache::{DenseHeadCache, HeadCache, LayerKvCache, PageId, PagePool};
use lserve_selector::{
    FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector, Selection,
};

use crate::dag::SparsitySchedule;
use crate::EngineStats;

/// The scoring policy under a head's reusable selector, chosen by
/// [`crate::SelectorKind`] (an enum rather than a trait object so sequence
/// state stays `Debug` + `Clone` + cheap).
#[derive(Debug, Clone)]
pub(super) enum Scorer {
    Flat(FlatSelector),
    Hierarchical(HierarchicalSelector),
}

impl PageSelector for Scorer {
    fn select(
        &mut self,
        pool: &PagePool,
        cache: &DenseHeadCache,
        queries: &[&[f32]],
        budget: usize,
        step: usize,
    ) -> Selection {
        match self {
            Scorer::Flat(s) => s.select(pool, cache, queries, budget, step),
            Scorer::Hierarchical(s) => s.select(pool, cache, queries, budget, step),
        }
    }

    fn reset(&mut self) {
        match self {
            Scorer::Flat(s) => s.reset(),
            Scorer::Hierarchical(s) => s.reset(),
        }
    }
}

/// A dense head's selector: reuse, last-use tracking and prefetch ranking
/// over its [`Scorer`].
pub(super) type SelectorBox = ReusableSelector<Scorer>;

/// Per-request mutable state: KV caches, selector state, position, stats.
///
/// Created by [`crate::ModelExecutor::new_sequence`]; every compute method on the executor
/// takes the state it operates on explicitly. Dropping a state without calling
/// [`SequenceState::release`] leaks its pool pages, so serving layers must release
/// on every exit path (completion, rejection, preemption).
#[derive(Debug, Clone)]
pub struct SequenceState {
    pub(super) layers: Vec<LayerKvCache>,
    pub(super) selectors: Vec<Vec<Option<SelectorBox>>>,
    pub(super) tokens_processed: usize,
    pub(super) decode_step_idx: usize,
    pub(super) sparsity: SparsitySchedule,
    pub(super) stats: EngineStats,
}

impl SequenceState {
    /// Tokens absorbed so far (prompt + generated).
    pub fn context_len(&self) -> usize {
        self.tokens_processed
    }

    /// Cumulative work counters for this sequence.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The positional sparsity-override schedule governing this sequence's
    /// selection budget (empty = engine defaults). Cloned by
    /// [`SequenceState::clone_shared`], so a fork snapshot replays the exact
    /// budget timeline the parent lived under.
    pub fn sparsity_schedule(&self) -> &SparsitySchedule {
        &self.sparsity
    }

    /// Installs the sparsity-override schedule (serving layer, at admission or
    /// fork time).
    pub fn set_sparsity_schedule(&mut self, schedule: SparsitySchedule) {
        self.sparsity = schedule;
    }

    /// Exact number of fresh pool pages one more token will allocate across all
    /// layers and heads (the reservation a scheduler must check before a decode
    /// step to guarantee the step cannot fail mid-layer).
    pub fn pages_needed_for_next_token(&self, pool: &PagePool) -> usize {
        self.layers
            .iter()
            .map(|l| l.pages_needed_for_next_token(pool))
            .sum()
    }

    /// Frees every page this sequence holds and resets it for reuse (fresh prefill).
    pub fn release(&mut self, pool: &mut PagePool) {
        for layer in &mut self.layers {
            layer.release(pool);
        }
        self.tokens_processed = 0;
        self.decode_step_idx = 0;
        for layer in &mut self.selectors {
            for s in layer.iter_mut().flatten() {
                s.reset();
            }
        }
    }

    /// Every pool page this sequence references, across all layers and
    /// heads: the set the pool's whole-set operations take. Swap-out is
    /// [`PagePool::demote_all`] over it (sole-owned hot pages go cold; page
    /// tables, selector history and position counters stay intact), swap-in
    /// [`PagePool::promote_all`] behind a [`PagePool::swap_in_demand`]
    /// reservation, and prefix sharing [`PagePool::retain_all`].
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.layers.iter().flat_map(LayerKvCache::page_ids)
    }

    /// Total pool pages this sequence currently references, across all layers and
    /// heads.
    pub fn resident_pages(&self) -> usize {
        self.page_ids().count()
    }

    /// Resident KV tokens one layer's KV head currently reads (a streaming
    /// head's sink+local window, a dense head's full history) — the token
    /// volume the rebalancer must move across the interconnect when it
    /// migrates that head to another device.
    pub fn kv_head_resident_tokens(&self, pool: &PagePool, layer: usize, kv: usize) -> u64 {
        match self.layers[layer].head(kv) {
            HeadCache::Streaming(c) => c.resident_tokens(pool) as u64,
            HeadCache::Dense(c) => c.tokens() as u64,
        }
    }

    /// Deep-copies this state for prefix caching and seeding: page tables,
    /// selector state, position, and decode-step counter are cloned (page *ids*
    /// are copied — callers manage pool refcounts via
    /// [`PagePool::retain_all`]), while work counters restart at zero so a
    /// seeded consumer reports only its own work.
    ///
    /// The clone is positionally exact: a consumer continuing from it takes
    /// decode steps with the same step index and the same reusable-selector
    /// history a cold run would have at this context length, which is what makes
    /// cache-hit outputs bit-identical to cold runs.
    pub fn clone_shared(&self) -> SequenceState {
        SequenceState {
            stats: EngineStats::default(),
            ..self.clone()
        }
    }
}
