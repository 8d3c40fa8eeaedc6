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

    /// Total pool pages this sequence currently references, across all layers and
    /// heads.
    pub fn resident_pages(&self) -> usize {
        self.layers.iter().map(|l| l.resident_pages()).sum()
    }

    /// Every pool page this sequence references, across all layers and heads.
    pub fn page_ids(&self, pool: &PagePool) -> Vec<PageId> {
        let heads = self.layers.iter();
        let heads = heads.flat_map(|l| (0..l.num_heads()).map(move |h| l.head(h)));
        heads
            .flat_map(|head| match head {
                HeadCache::Dense(c) => c.page_table().to_vec(),
                HeadCache::Streaming(c) => c.page_table(pool).into_iter().map(|p| p.1).collect(),
            })
            .collect()
    }

    /// Swap-out: demotes every sole-owned hot page this sequence holds to the
    /// cold tier, freeing their hot slots while keeping every page table,
    /// selector history and position counter intact. Pages co-owned with the
    /// prefix cache or another sequence stay hot (they are someone else's
    /// working set). Returns `(pages moved, token-units moved)`.
    pub fn demote_resident(&self, pool: &mut PagePool) -> (u64, u64) {
        self.layers.iter().fold((0, 0), |(p, u), l| {
            let (lp, lu) = l.demote_all(pool);
            (p + lp, u + lu)
        })
    }

    /// Swap-in: promotes every cold page this sequence holds back to the hot
    /// tier so decode can continue exactly where it left off. Returns
    /// `(pages moved, token-units moved)`, or `None` when the hot tier cannot
    /// fit them (callers reserve [`SequenceState::cold_pages`] free slots
    /// first; pages promoted before the failure stay hot).
    pub fn promote_resident(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        for l in &self.layers {
            let (lp, lu) = l.promote_all(pool)?;
            pages += lp;
            units += lu;
        }
        Some((pages, units))
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

    /// Pages this sequence holds that currently sit in the cold tier.
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        self.layers.iter().map(|l| l.cold_pages(pool)).sum()
    }

    /// The exact hot-tier reservation a swap-in of this sequence needs: cold
    /// pages plus this sequence's own outbound transfers still in flight.
    /// The pool counts an in-flight demotion as a reclaimable free slot, but
    /// forcing one of *ours* lands the page cold and re-enters it as promote
    /// demand — net-zero supply, so it must be reserved as demand up front.
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        self.layers.iter().map(|l| l.swap_in_demand(pool)).sum()
    }

    /// Pages this sequence holds that are both sole-owned and hot — exactly
    /// what [`SequenceState::demote_resident`] would move, and therefore the
    /// swap-out (and later swap-in) transfer cost of preempting this sequence
    /// under the swap policy. Pages co-owned with the prefix cache or another
    /// sequence cost nothing: they stay hot for their other readers.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        self.layers
            .iter()
            .map(|l| l.sole_owned_hot_pages(pool))
            .sum()
    }

    /// Modeled ledger-unit cost of returning this sequence's full resident
    /// set to the hot tier: the bill a preemption victim pays at resume time.
    /// Shared hot pages are free (they never left), sole-owned hot pages cost
    /// one swap-out-plus-back round trip, cold pages one host hop, and nvme
    /// pages the recall plus the host hop. Victim selection minimizes this —
    /// the tier truth, not just a hot-page count.
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        self.layers
            .iter()
            .map(|l| l.promote_back_cost_units(pool))
            .sum()
    }

    /// Takes one additional reference on every page this sequence holds (prefix
    /// sharing: the caller co-owns the pages and must `release` its copy of the
    /// state).
    pub fn retain_pages(&self, pool: &mut PagePool) {
        for layer in &self.layers {
            layer.retain_all(pool);
        }
    }

    /// True when this state references at least one page no other owner shares —
    /// releasing it would return physical pages to the pool.
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        self.layers.iter().any(|l| l.holds_sole_reference(pool))
    }

    /// Deep-copies this state for prefix caching and seeding: page tables,
    /// selector state, position, and decode-step counter are cloned (page *ids*
    /// are copied — callers manage pool refcounts via
    /// [`SequenceState::retain_pages`]), while work counters restart at zero so a
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
