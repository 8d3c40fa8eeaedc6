//! Query-centric KV page selectors (§3.5).
//!
//! During decode, dense heads restrict attention to a constant token budget of
//! "important" physical pages. This crate implements the three selection policies the
//! paper compares:
//!
//! * [`FlatSelector`] — the Quest baseline: one min/max representative per *physical*
//!   page. Sharp when pages are small, homogenized and unreliable when pages grow
//!   (the page-size dilemma of Figure 6).
//! * [`HierarchicalSelector`] — LServe's hierarchical paging (§3.5.2): scores at the
//!   *logical* page granularity `N_L` and max-reduces into physical page scores, so
//!   selection quality is decoupled from the memory layout's page size `N_P`.
//! * [`ReusableSelector`] — the reuse wrapper (§3.5.3): runs its inner selector only
//!   at the start of every `C`-step chunk and replays the cached selection in
//!   between, cutting selector overhead by `C×` (Figure 14) with negligible accuracy
//!   loss up to `C ≈ 8` (Table 6).
//!
//! All selectors guarantee the **most recent page** is part of the selection (the
//! current token must always be attendable; §3.1 exempts the most recent KV block)
//! and, by default, the first (sink) page as well.

pub mod flat;
pub mod hierarchical;
pub mod reusable;
pub mod score;
pub mod topk;

pub use flat::FlatSelector;
pub use hierarchical::HierarchicalSelector;
pub use reusable::ReusableSelector;
pub use score::{logical_scores, physical_scores_flat, physical_scores_hierarchical};
pub use topk::top_k_indices;

use lserve_kvcache::{DenseHeadCache, PagePool};

/// Result of one page-selection call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Indices into the head's physical page table, ascending, deduplicated.
    pub pages: Vec<usize>,
    /// Logical pages scored to produce this selection (0 when a cached selection
    /// was reused) — the unit of selector overhead in Figure 14.
    pub logical_pages_scored: u64,
    /// True if this call reused a previous selection instead of scoring.
    pub reused: bool,
}

impl Selection {
    /// Tokens covered by the selection.
    pub fn token_coverage(&self, pool: &PagePool, cache: &DenseHeadCache) -> usize {
        self.pages
            .iter()
            .map(|&p| pool.page(cache.page_table()[p]).len())
            .sum()
    }

    /// Sparsity-aware decode cost signal: the exact KV tokens a decode kernel
    /// restricted to this selection will visit — [`Selection::token_coverage`]
    /// in the `u64` unit the LPT shard balancer consumes. (Every dense page
    /// except the table's final one is full by construction, so the only
    /// partial contribution is the final page's occupancy; page lengths are
    /// metadata and stay readable even for pages demoted to the cold tier.)
    /// Parallel executors feed this into the LPT shard assignment so a
    /// selected dense head is costed by its *selected* page set, not its full
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if a selected index is out of `cache`'s page-table range.
    pub fn estimated_cost_tokens(&self, pool: &PagePool, cache: &DenseHeadCache) -> u64 {
        self.token_coverage(pool, cache) as u64
    }
}

/// A page-selection policy for one dense head.
///
/// `queries` holds the query rows of every query head mapped onto this KV head (one
/// row for MHA, `n` rows for GQA); implementations take the max importance over the
/// group so no query head's critical pages are dropped. `budget_tokens` is the
/// constant KV token budget (e.g. 4096); `step` is the decode step index, used by
/// [`ReusableSelector`] for chunk boundaries.
pub trait PageSelector {
    /// Selects physical pages for this decode step.
    fn select(
        &mut self,
        pool: &PagePool,
        cache: &DenseHeadCache,
        queries: &[&[f32]],
        budget_tokens: usize,
        step: usize,
    ) -> Selection;

    /// Resets any cross-step state (new sequence).
    fn reset(&mut self) {}
}

/// The most pages a selection carries regardless of its budget: the sink (first)
/// page and the most recent page. A selection therefore reads at most
/// `max(budget_tokens / N_P, MAX_FORCED_PAGES)` pages — what the executor sizes
/// a selecting head's promotion demand by.
pub const MAX_FORCED_PAGES: usize = 2;

/// Shared post-processing: converts physical-page scores into the final selection
/// under a page budget, forcing the most recent page (and optionally the first page)
/// into the result.
pub(crate) fn finalize_selection(
    scores: &[f32],
    num_pages: usize,
    budget_pages: usize,
    include_first: bool,
) -> Vec<usize> {
    if num_pages == 0 {
        return Vec::new();
    }
    let budget_pages = budget_pages.max(1);
    let mut forced: Vec<usize> = Vec::new();
    if include_first {
        forced.push(0);
    }
    if *forced.last().unwrap_or(&usize::MAX) != num_pages - 1 {
        forced.push(num_pages - 1); // most recent page, always attendable
    }
    debug_assert!(forced.len() <= MAX_FORCED_PAGES);
    let mut chosen: Vec<usize> = forced.clone();
    for idx in top_k_indices(scores, num_pages) {
        if chosen.len() >= budget_pages.max(forced.len()) {
            break;
        }
        if !chosen.contains(&idx) {
            chosen.push(idx);
        }
    }
    chosen.sort_unstable();
    chosen.dedup();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_forces_first_and_last() {
        let scores = [0.1, 0.9, 0.8, 0.2, 0.3];
        let sel = finalize_selection(&scores, 5, 3, true);
        assert!(sel.contains(&0));
        assert!(sel.contains(&4));
        assert!(sel.contains(&1)); // top score
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn finalize_without_first() {
        let scores = [0.9, 0.1, 0.1, 0.1];
        let sel = finalize_selection(&scores, 4, 2, false);
        assert!(sel.contains(&3));
        assert!(sel.contains(&0)); // by score, not forced
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn finalize_budget_below_forced_still_includes_forced() {
        let scores = [0.5, 0.5, 0.5];
        let sel = finalize_selection(&scores, 3, 1, true);
        assert!(sel.contains(&0) && sel.contains(&2));
    }

    #[test]
    fn finalize_empty_table() {
        assert!(finalize_selection(&[], 0, 4, true).is_empty());
    }

    #[test]
    fn cost_signal_counts_exact_last_page_occupancy() {
        use lserve_kvcache::PagingConfig;
        use lserve_quant::KvPrecision;
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 2);
        let mut cache = DenseHeadCache::new();
        // 10 tokens over 4-token pages: pages 0 and 1 full, page 2 holds 2.
        for i in 0..10 {
            assert!(cache.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]));
        }
        let sel = Selection {
            pages: vec![0, 2],
            logical_pages_scored: 12,
            reused: false,
        };
        // Exact: 4 (full page 0) + 2 (partial last page), not the 8-token
        // full-page upper bound.
        assert_eq!(sel.estimated_cost_tokens(&pool, &cache), 4 + 2);
        assert_eq!(
            sel.estimated_cost_tokens(&pool, &cache),
            sel.token_coverage(&pool, &cache) as u64,
            "middle pages are always full, so the estimate is exact"
        );
        let full = Selection {
            pages: vec![0, 1],
            logical_pages_scored: 0,
            reused: false,
        };
        assert_eq!(full.estimated_cost_tokens(&pool, &cache), 8);
        assert_eq!(Selection::default().estimated_cost_tokens(&pool, &cache), 0);
    }

    #[test]
    fn finalize_output_sorted_unique() {
        let scores = [0.4, 0.6, 0.2, 0.9, 0.1, 0.7];
        let sel = finalize_selection(&scores, 6, 5, true);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sel, sorted);
    }
}
