//! Reusable page selection (§3.5.3): amortize the selector across decode steps.

use lserve_kvcache::{DenseHeadCache, PagePool};

use crate::{PageSelector, Selection};

/// Wraps an inner selector and re-runs it only at the start of every
/// `reuse_interval`-step chunk; the steps in between replay the cached selection
/// (Figure 8). Temporal locality of decode queries makes this nearly lossless up to
/// an interval of ~8 (Table 6); the paper defaults to 4.
///
/// The most recent page index is refreshed on every step even when reusing, so the
/// newly written tokens stay attendable as the history crosses page boundaries.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{DenseHeadCache, PagePool, PagingConfig};
/// use lserve_quant::KvPrecision;
/// use lserve_selector::{HierarchicalSelector, PageSelector, ReusableSelector};
///
/// let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
/// let mut pool = PagePool::new(cfg, 64, 2);
/// let mut cache = DenseHeadCache::new();
/// for i in 0..16 {
///     cache.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]);
/// }
/// let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
/// let q = [1.0f32, 0.0];
/// let fresh = sel.select(&pool, &cache, &[&q], 8, 0);
/// let reused = sel.select(&pool, &cache, &[&q], 8, 1);
/// assert!(!fresh.reused && reused.reused);
/// assert_eq!(reused.logical_pages_scored, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReusableSelector<S> {
    inner: S,
    reuse_interval: usize,
    cached: Option<Selection>,
    last_scored_step: Option<usize>,
    invocations: u64,
    reuses: u64,
    /// Fresh scoring events so far (the selection-chunk clock).
    chunks_scored: u64,
    /// Per physical-page index: the chunk at which the page was last part of a
    /// fresh selection. Pages first seen by a fresh selection start at that
    /// chunk, so a page is never "stale" before it had `k` chances to be
    /// re-picked.
    last_selected_chunk: Vec<u64>,
}

impl<S: PageSelector> ReusableSelector<S> {
    /// Wraps `inner` with the given reuse interval `C >= 1` (interval 1 disables
    /// reuse).
    ///
    /// # Panics
    ///
    /// Panics if `reuse_interval == 0`.
    pub fn new(inner: S, reuse_interval: usize) -> Self {
        assert!(reuse_interval >= 1, "reuse interval must be >= 1");
        Self {
            inner,
            reuse_interval,
            cached: None,
            last_scored_step: None,
            invocations: 0,
            reuses: 0,
            chunks_scored: 0,
            last_selected_chunk: Vec::new(),
        }
    }

    /// The configured reuse interval `C`.
    pub fn reuse_interval(&self) -> usize {
        self.reuse_interval
    }

    /// Times the inner selector actually scored pages.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Times a cached selection was replayed.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// The wrapped selector.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Fresh scoring events so far (the chunk clock [`stale_pages`]
    /// staleness is measured against).
    ///
    /// [`stale_pages`]: ReusableSelector::stale_pages
    pub fn chunks_scored(&self) -> u64 {
        self.chunks_scored
    }

    /// Last-use tracking for the tiered KV memory's selection-driven demotion
    /// policy: physical page indices this selector has seen but **not** picked
    /// for at least `k` consecutive fresh selection chunks. Such pages are
    /// demotion candidates — the query stream has ignored them long enough
    /// that their KV can move to the cold tier, and a later selection that
    /// picks one again triggers an accounted promote.
    ///
    /// Pages forced into every selection (the most recent page, and the first
    /// page when sinks are included) are never stale. Pages appended since the
    /// last fresh scoring are unknown to the tracker and reported fresh.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (every page would be stale the moment it is scored).
    pub fn stale_pages(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1, "staleness threshold must be at least one chunk");
        self.last_selected_chunk
            .iter()
            .enumerate()
            .filter(|&(_, &last)| self.chunks_scored.saturating_sub(last) >= k as u64)
            .map(|(p, _)| p)
            .collect()
    }

    /// The fresh-selection chunk at which `page` was last picked (or first
    /// seen) — the key selection-driven demotion and promotion-by-exchange
    /// order pages by, lowest first. `None` for a page appended since the
    /// last fresh scoring, which has no history to rank it by.
    pub fn last_selected_chunk(&self, page: usize) -> Option<u64> {
        self.last_selected_chunk.get(page).copied()
    }

    /// The decode step at which the next [`select`] call will score afresh
    /// instead of replaying the cached selection — `None` before the first
    /// fresh scoring (including right after [`reset`]). The async copy
    /// engine's prefetch policy keys off this: cold pages predicted hot can
    /// start their host→device transfer one step before the selection that
    /// wants them actually runs, hiding the transfer behind compute.
    ///
    /// [`select`]: PageSelector::select
    /// [`reset`]: PageSelector::reset
    pub fn next_fresh_step(&self) -> Option<usize> {
        self.last_scored_step.map(|s| s + self.reuse_interval)
    }

    /// True when a [`select`] call at decode step `step` would replay the
    /// cached selection rather than score afresh: the rule `select` itself
    /// applies, for callers that must know before the call.
    ///
    /// [`select`]: PageSelector::select
    pub fn reuses_at(&self, step: usize) -> bool {
        match (self.last_scored_step, &self.cached) {
            (Some(last), Some(_)) => step >= last && step - last < self.reuse_interval,
            _ => false,
        }
    }

    /// Prefetch candidates for the next fresh selection: physical page
    /// indices the last fresh scoring did **not** pick, ranked most recently
    /// selected first — decode queries' temporal locality makes a page that
    /// just dropped out of the selection the likeliest to be re-picked, and
    /// a long-stale page the least. Ties break on page index, so the ranking
    /// is deterministic.
    ///
    /// `window` bounds rescore proximity: only pages selected within the last
    /// `window` fresh scorings qualify. A page that has sat unselected for
    /// longer has lost its temporal locality — prefetching it is almost pure
    /// waste, because by the time the next rescore runs the query has drifted
    /// away from it.
    ///
    /// The list is residency-blind: callers filter for cold pages, skip the
    /// append target, and cap how many transfers they issue.
    pub fn prefetch_candidates(&self, window: u64) -> Vec<usize> {
        let mut cands: Vec<(u64, usize)> = self
            .last_selected_chunk
            .iter()
            .enumerate()
            .filter(|&(_, &last)| last < self.chunks_scored && self.chunks_scored - last <= window)
            .map(|(p, &last)| (last, p))
            .collect();
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        cands.into_iter().map(|(_, p)| p).collect()
    }
}

impl<S: PageSelector> PageSelector for ReusableSelector<S> {
    fn select(
        &mut self,
        pool: &PagePool,
        cache: &DenseHeadCache,
        queries: &[&[f32]],
        budget_tokens: usize,
        step: usize,
    ) -> Selection {
        if !self.reuses_at(step) {
            let sel = self.inner.select(pool, cache, queries, budget_tokens, step);
            self.last_scored_step = Some(step);
            self.invocations += 1;
            // Advance the chunk clock and record last-use per page. Pages that
            // appeared since the previous fresh scoring start life at this
            // chunk, so staleness always measures *missed* selection chances.
            self.chunks_scored += 1;
            if self.last_selected_chunk.len() < cache.num_pages() {
                self.last_selected_chunk
                    .resize(cache.num_pages(), self.chunks_scored);
            }
            for &p in &sel.pages {
                self.last_selected_chunk[p] = self.chunks_scored;
            }
            self.cached = Some(sel.clone());
            sel
        } else {
            self.reuses += 1;
            let mut sel = self.cached.clone().expect("cached selection checked above");
            // Keep the newest page attendable as history grows across page
            // boundaries between selector runs.
            let last_page = cache.num_pages().saturating_sub(1);
            if cache.num_pages() > 0 && !sel.pages.contains(&last_page) {
                sel.pages.push(last_page);
                sel.pages.sort_unstable();
            }
            sel.logical_pages_scored = 0;
            sel.reused = true;
            sel
        }
    }

    fn reset(&mut self) {
        self.cached = None;
        self.last_scored_step = None;
        self.chunks_scored = 0;
        self.last_selected_chunk.clear();
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchicalSelector;
    use lserve_kvcache::PagingConfig;
    use lserve_quant::KvPrecision;

    fn build(n: usize) -> (PagePool, DenseHeadCache) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 256, 2);
        let mut cache = DenseHeadCache::new();
        for i in 0..n {
            assert!(cache.append(&mut pool, &[(i % 7) as f32, 1.0], &[0.0, 0.0]));
        }
        (pool, cache)
    }

    #[test]
    fn interval_one_never_reuses() {
        let (pool, cache) = build(32);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 1);
        let q = [1.0f32, 0.0];
        for step in 0..8 {
            let s = sel.select(&pool, &cache, &[&q], 8, step);
            assert!(!s.reused, "step {step}");
        }
        assert_eq!(sel.invocations(), 8);
        assert_eq!(sel.reuses(), 0);
    }

    #[test]
    fn interval_four_scores_every_fourth_step() {
        let (pool, cache) = build(32);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let q = [1.0f32, 0.0];
        let mut fresh_steps = Vec::new();
        for step in 0..12 {
            let s = sel.select(&pool, &cache, &[&q], 8, step);
            if !s.reused {
                fresh_steps.push(step);
            }
        }
        assert_eq!(fresh_steps, vec![0, 4, 8]);
        assert_eq!(sel.invocations(), 3);
        assert_eq!(sel.reuses(), 9);
    }

    #[test]
    fn reuse_matches_fresh_selection_within_chunk() {
        let (pool, cache) = build(40);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let q = [1.0f32, 0.5];
        let fresh = sel.select(&pool, &cache, &[&q], 12, 0);
        let reused = sel.select(&pool, &cache, &[&q], 12, 1);
        assert_eq!(fresh.pages, reused.pages);
    }

    #[test]
    fn reused_selection_tracks_new_last_page() {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 256, 2);
        let mut cache = DenseHeadCache::new();
        for i in 0..8 {
            cache.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]);
        }
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 8);
        let q = [1.0f32, 0.0];
        let _ = sel.select(&pool, &cache, &[&q], 8, 0);
        // History grows into a new page between steps.
        for i in 8..13 {
            cache.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]);
        }
        let s = sel.select(&pool, &cache, &[&q], 8, 1);
        assert!(s.reused);
        assert!(s.pages.contains(&(cache.num_pages() - 1)));
    }

    #[test]
    fn reset_forces_rescore() {
        let (pool, cache) = build(16);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let q = [1.0f32, 0.0];
        let _ = sel.select(&pool, &cache, &[&q], 8, 0);
        sel.reset();
        let s = sel.select(&pool, &cache, &[&q], 8, 1);
        assert!(!s.reused);
    }

    #[test]
    fn stale_pages_track_missed_selection_chunks() {
        let (pool, cache) = build(32); // 8 pages
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 1);
        let q = [1.0f32, 0.0];
        // Budget of 8 tokens = 2 pages: most pages lose every selection.
        let first = sel.select(&pool, &cache, &[&q], 8, 0);
        assert_eq!(sel.chunks_scored(), 1);
        assert!(
            sel.stale_pages(1).is_empty(),
            "pages first seen this chunk have missed nothing yet"
        );
        for step in 1..4 {
            let _ = sel.select(&pool, &cache, &[&q], 8, step);
        }
        let stale = sel.stale_pages(3);
        assert!(!stale.is_empty(), "unpicked pages must go stale");
        // Selected pages (stable across steps for a constant query) are fresh.
        for p in &first.pages {
            assert!(!stale.contains(p), "selected page {p} reported stale");
        }
        // The forced most-recent page is re-marked every fresh selection.
        assert!(!stale.contains(&(cache.num_pages() - 1)));
        // A higher threshold is strictly more conservative.
        assert!(sel.stale_pages(4).len() <= stale.len());
    }

    #[test]
    fn stale_pages_reset_with_selector() {
        let (pool, cache) = build(32);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 1);
        let q = [1.0f32, 0.0];
        for step in 0..5 {
            let _ = sel.select(&pool, &cache, &[&q], 8, step);
        }
        assert!(!sel.stale_pages(2).is_empty());
        sel.reset();
        assert_eq!(sel.chunks_scored(), 0);
        assert!(sel.stale_pages(1).is_empty(), "reset clears last-use state");
    }

    #[test]
    fn reuse_steps_do_not_advance_staleness() {
        let (pool, cache) = build(40);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let q = [1.0f32, 0.5];
        let _ = sel.select(&pool, &cache, &[&q], 8, 0);
        let before = sel.stale_pages(1).len();
        for step in 1..4 {
            let s = sel.select(&pool, &cache, &[&q], 8, step);
            assert!(s.reused);
        }
        assert_eq!(
            sel.stale_pages(1).len(),
            before,
            "replayed selections must not age pages"
        );
        assert_eq!(sel.chunks_scored(), 1);
    }

    #[test]
    fn next_fresh_step_predicts_the_rescore() {
        let (pool, cache) = build(32);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let q = [1.0f32, 0.0];
        assert_eq!(sel.next_fresh_step(), None, "nothing scored yet");
        for step in 0..12 {
            // Under a monotone step cadence the prediction is exact: a step
            // scores afresh iff it has reached the predicted fresh step.
            let predicted_fresh = sel.next_fresh_step().is_none_or(|s| step >= s);
            assert_eq!(sel.reuses_at(step), !predicted_fresh, "step {step}");
            let s = sel.select(&pool, &cache, &[&q], 8, step);
            assert_eq!(!s.reused, predicted_fresh, "step {step}");
        }
        assert_eq!(
            sel.next_fresh_step(),
            Some(12),
            "fresh at 0, 4, 8 — next 12"
        );
        sel.reset();
        assert_eq!(sel.next_fresh_step(), None, "reset clears the prediction");
    }

    #[test]
    fn prefetch_candidates_rank_recent_losers_first() {
        let (pool, cache) = build(32); // 8 pages
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 1);
        let q = [1.0f32, 0.0];
        let first = sel.select(&pool, &cache, &[&q], 8, 0);
        assert!(
            sel.prefetch_candidates(u64::MAX).is_empty(),
            "every page was seen (or selected) this chunk"
        );
        for step in 1..4 {
            let _ = sel.select(&pool, &cache, &[&q], 8, step);
        }
        let cands = sel.prefetch_candidates(u64::MAX);
        assert!(!cands.is_empty(), "unpicked pages are candidates");
        // Currently-selected pages never appear.
        for p in &first.pages {
            assert!(!cands.contains(p), "selected page {p} offered for prefetch");
        }
        // Ranking is by last-selected chunk, descending; ties by page index.
        let rank: Vec<u64> = cands.iter().map(|&p| sel.last_selected_chunk[p]).collect();
        assert!(rank.windows(2).all(|w| w[0] >= w[1]), "not recency-ranked");
        // An unbounded window is a superset of the stale set: staleness
        // demotes, recency prefetches, both read the same clock.
        for p in sel.stale_pages(3) {
            assert!(cands.contains(&p));
        }
        // A tight window keeps only the freshest losers: everything it
        // returns dropped out within the last `window` rescores, and the
        // ranking is the same prefix the unbounded call produced.
        let tight = sel.prefetch_candidates(1);
        assert_eq!(tight.as_slice(), &cands[..tight.len()], "window reorders");
        for &p in &tight {
            assert!(
                sel.chunks_scored - sel.last_selected_chunk[p] <= 1,
                "page {p} is staler than the window"
            );
        }
        for p in sel.stale_pages(2) {
            assert!(
                !tight.contains(&p),
                "long-stale page {p} survived the recency window"
            );
        }
        sel.reset();
        assert!(sel.prefetch_candidates(u64::MAX).is_empty());
    }

    #[test]
    fn step_regression_triggers_rescore() {
        let (pool, cache) = build(16);
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), 4);
        let q = [1.0f32, 0.0];
        let _ = sel.select(&pool, &cache, &[&q], 8, 10);
        let s = sel.select(&pool, &cache, &[&q], 8, 2); // new sequence semantics
        assert!(!s.reused);
    }
}
