//! [`SequenceState`]: everything that belongs to one request — per-layer
//! head tables and the head policy beside each, the sparsity schedule,
//! position counters, work stats — and what a serving layer asks of it
//! between steps.

use lserve_kvcache::{DenseHeadCache, PageId, PagePool};
use lserve_selector::PageSelector;

use super::HeadPolicy;
use crate::dag::SparsitySchedule;
use crate::EngineStats;

/// Per-request mutable state: KV caches, head policies, position, stats.
///
/// Created by [`crate::ModelExecutor::new_sequence`]; every compute method on the executor
/// takes the state it operates on explicitly. Dropping a state without calling
/// [`SequenceState::release`] leaks its pool pages, so serving layers must release
/// on every exit path (completion, rejection, preemption).
#[derive(Debug, Clone)]
pub struct SequenceState {
    /// One page table per KV head, per layer; a streaming head's has a window.
    pub(super) layers: Vec<Vec<DenseHeadCache>>,
    /// The policy of each table in `layers`, selector state included.
    pub(super) policies: Vec<Vec<HeadPolicy>>,
    pub(super) tokens_processed: usize,
    pub(super) decode_step_idx: usize,
    /// The per-request sparsity schedule every head's budget is asked under
    /// (empty = engine defaults); a fork snapshot extends its parent's.
    pub(crate) sparsity: SparsitySchedule,
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

    /// Exact number of fresh pool pages one more token will allocate across all
    /// layers and heads (the reservation a scheduler must check before a decode
    /// step to guarantee the step cannot fail mid-layer).
    pub fn pages_needed_for_next_token(&self, pool: &PagePool) -> usize {
        let heads = self.layers.iter().flatten();
        heads.filter(|h| h.needs_page_for_next_append(pool)).count()
    }

    /// Frees every page this sequence holds and resets it for reuse (fresh prefill).
    pub fn release(&mut self, pool: &mut PagePool) {
        for head in self.layers.iter_mut().flatten() {
            head.release(pool);
        }
        self.tokens_processed = 0;
        self.decode_step_idx = 0;
        let policies = self.policies.iter_mut().flatten();
        for selector in policies.filter_map(|p| p.selector.as_mut()) {
            selector.reset();
        }
    }

    /// Every pool page this sequence references, across all layers and
    /// heads: the set the pool's whole-set operations take. Swap-out is
    /// [`PagePool::demote_all`] over it (sole-owned hot pages go cold; page
    /// tables, selector history and position counters stay intact), swap-in
    /// [`PagePool::promote_all`] behind a [`PagePool::swap_in_demand`]
    /// reservation, and prefix sharing [`PagePool::retain_all`].
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.layers
            .iter()
            .flatten()
            .flat_map(DenseHeadCache::page_ids)
    }

    /// Total pool pages this sequence currently references, across all layers and
    /// heads.
    pub fn resident_pages(&self) -> usize {
        self.page_ids().count()
    }

    /// Resident KV tokens one layer's KV head currently reads (a streaming
    /// head's window, a dense head's full history) — the token volume the
    /// rebalancer must move across the interconnect when it migrates that
    /// head to another device.
    pub fn kv_head_resident_tokens(&self, pool: &PagePool, layer: usize, kv: usize) -> u64 {
        self.layers[layer][kv].resident_tokens(pool) as u64
    }

    /// Deep-copies this state for prefix caching and seeding: page tables,
    /// selector state, schedule, position, and decode-step counter are cloned
    /// (page *ids* are copied — callers manage pool refcounts via
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
