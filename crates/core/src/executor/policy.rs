//! [`HeadPolicy`]: one KV head's sparsity in both phases, decided once per
//! (sequence, layer, KV head) beside the head's table.

use lserve_attention::PrefillMask;
use lserve_kvcache::{DenseHeadCache, PagePool, PagingConfig, StreamingWindow};
use lserve_selector::{
    FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector, Selection,
};

use super::DEMOTE_AFTER_CHUNKS;
use crate::dag::SparsitySchedule;
use crate::{EngineConfig, SelectorKind};

/// The scoring policy under a head's reusable selector: the engine's
/// [`crate::SelectorKind`], whose scorers are stateless.
#[derive(Debug, Clone)]
pub(super) struct Scorer(SelectorKind);

impl PageSelector for Scorer {
    fn select(
        &mut self,
        pool: &PagePool,
        cache: &DenseHeadCache,
        queries: &[&[f32]],
        budget: usize,
        step: usize,
    ) -> Selection {
        match self.0 {
            SelectorKind::Flat => {
                FlatSelector::new(true).select(pool, cache, queries, budget, step)
            }
            SelectorKind::Hierarchical => {
                HierarchicalSelector::new(true).select(pool, cache, queries, budget, step)
            }
            SelectorKind::None => unreachable!("validated: a budget needs a selector"),
        }
    }
}

/// What one KV head reads in prefill and decode, and what of it stays hot:
/// a streaming head its window; a dense head its history, prefilled under a
/// dynamic mask past `dynamic_after` tokens (§4.3) and decoded through its
/// selector once the history outgrows the budget.
#[derive(Debug, Clone)]
pub(crate) struct HeadPolicy {
    prefill: PrefillMask,
    dynamic_after: usize,
    /// The engine's selection budget, which the sequence's schedule may
    /// override; `None` for a head without a selector.
    budget: Option<usize>,
    /// A dense head's selector: reuse, last-use tracking and prefetch ranking.
    pub(super) selector: Option<ReusableSelector<Scorer>>,
}

impl HeadPolicy {
    /// The policy of a head under `cfg` in a sequence whose streaming window
    /// is `window`; a `streaming` head reads that window.
    pub(crate) fn new(cfg: &EngineConfig, window: StreamingWindow, streaming: bool) -> Self {
        let sink = window.sink_pages();
        let prefill = match cfg.dynamic_prefill_keep {
            _ if streaming => PrefillMask::Window(window),
            Some(keep) => PrefillMask::Dynamic { keep, sink },
            None => PrefillMask::Causal,
        };
        let budget = cfg.dynamic_budget.filter(|_| !streaming);
        let selector =
            budget.map(|_| ReusableSelector::new(Scorer(cfg.selector), cfg.reuse_interval));
        Self {
            prefill,
            dynamic_after: cfg.dynamic_prefill_after,
            budget,
            selector,
        }
    }

    /// The streaming window this head's table takes, if any.
    pub(crate) fn window(&self) -> Option<StreamingWindow> {
        match self.prefill {
            PrefillMask::Window(w) => Some(w),
            _ => None,
        }
    }

    /// The mask this head's prefill of a `prompt`-token chunk runs under.
    pub(crate) fn prefill_mask(&self, prompt: usize) -> PrefillMask {
        match self.prefill {
            PrefillMask::Dynamic { .. } if prompt <= self.dynamic_after => PrefillMask::Causal,
            mask => mask,
        }
    }

    /// The budget this head selects pages under at position `pos` with `len`
    /// tokens of history under schedule `s`, or `None` while it reads them
    /// whole: a head without a selector, or history within the budget (the
    /// offline-profiled "no slowdown at short contexts" rule, §5.5).
    pub(super) fn budget_at(&self, s: &SparsitySchedule, pos: usize, len: usize) -> Option<usize> {
        s.effective_budget(self.budget, pos).filter(|&b| len > b)
    }

    /// Hot pages of this head `tokens` tokens long whose first `fused` were one
    /// prefill tile. A streaming head: its window, the append page and one on
    /// its way out. A selecting head, whose unpicked pages go cold after `k` =
    /// [`DEMOTE_AFTER_CHUNKS`] fresh scorings: at worst `k` budgets (or the
    /// tile) plus `k × reuse_interval` new tokens, the append and sink pages.
    /// Its budget is the largest so far, since a tightened one leaves the
    /// larger one's hot set behind: each phase's last position is a candidate
    /// (a retention cap only grows within a phase). Any other head: its history.
    pub(crate) fn hot_pages(
        &self,
        paging: &PagingConfig,
        sparsity: &SparsitySchedule,
        tokens: usize,
        fused: usize,
    ) -> usize {
        if let Some(w) = self.window() {
            return w.max_pages() + 2;
        }
        let starts = sparsity.phases().iter().map(|p| p.from);
        let phase_ends = starts
            .filter(|from| (1..=tokens).contains(from))
            .map(|from| from - 1);
        let budgets = phase_ends
            .chain([tokens])
            .map(|pos| sparsity.effective_budget(self.budget, pos));
        let (Some(budget), Some(selector)) = (budgets.max().flatten(), &self.selector) else {
            return paging.pages_for(tokens) + 1;
        };
        let lag = DEMOTE_AFTER_CHUNKS * selector.reuse_interval();
        let peak = budget
            .saturating_mul(DEMOTE_AFTER_CHUNKS)
            .max(fused)
            .saturating_add(lag);
        paging.pages_for(tokens.min(peak.saturating_add(2 * paging.physical_page_size()))) + 1
    }
}
