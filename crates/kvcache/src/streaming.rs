//! Page table of a streaming head: a dense table that frees its middle.

use crate::{DenseHeadCache, PageId, PagePool};

/// Λ-mask geometry of a streaming head, in *pages*.
///
/// A streaming head attends to the first `sink_pages` physical pages (attention
/// sinks) and the most recent `local_pages` pages (the local window), per
/// StreamingLLM/DuoAttention. Figure 4(c) draws one sink block and two local blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingWindow {
    /// Number of leading (sink) pages always kept.
    pub sink_pages: usize,
    /// Number of trailing (local) pages always kept.
    pub local_pages: usize,
}

impl StreamingWindow {
    /// Creates a window description.
    ///
    /// # Panics
    ///
    /// Panics if `local_pages == 0` (the newest page must always be attendable).
    pub fn new(sink_pages: usize, local_pages: usize) -> Self {
        assert!(
            local_pages > 0,
            "streaming window needs at least one local page"
        );
        Self {
            sink_pages,
            local_pages,
        }
    }

    /// The paper's illustrative default: one sink page, two local pages.
    pub fn paper_default() -> Self {
        Self::new(1, 2)
    }

    /// Maximum number of pages this head ever retains.
    pub fn max_pages(&self) -> usize {
        self.sink_pages + self.local_pages
    }
}

/// The KV history of one streaming head (Figure 5, "Streaming Head Pages" —
/// the page table contains only sink & local pages): a [`DenseHeadCache`]
/// table that frees the page after its sink whenever more than `local_pages`
/// pages follow the sink. Tokens between sink and window are *evicted*, their
/// pages returned to the pool. This is §3.6's "dynamic sparse head with index
/// table only containing the sink and local pages", as a data structure.
#[derive(Debug, Clone)]
pub struct StreamingHeadCache {
    window: StreamingWindow,
    table: DenseHeadCache,
    /// Pages freed from between the sink and the local window.
    evicted: usize,
}

impl StreamingHeadCache {
    /// Creates an empty cache with the given window geometry.
    pub fn new(window: StreamingWindow) -> Self {
        Self {
            window,
            table: DenseHeadCache::new(),
            evicted: 0,
        }
    }

    /// The window geometry.
    pub fn window(&self) -> StreamingWindow {
        self.window
    }

    /// The retained pages as a dense table: sink pages, then local pages
    /// oldest first. Its token count includes evicted tokens.
    pub fn table(&self) -> &DenseHeadCache {
        &self.table
    }

    /// Total tokens ever appended (including evicted ones).
    pub fn tokens(&self) -> usize {
        self.table.tokens()
    }

    /// Number of *tokens* currently resident, i.e. the attention span of the head.
    pub fn resident_tokens(&self, pool: &PagePool) -> usize {
        self.page_ids().map(|id| pool.page(id).len()).sum()
    }

    /// The retained page table: sink pages first, then local pages oldest-first,
    /// each with the global token index of its first token.
    pub fn page_table(&self, pool: &PagePool) -> Vec<(usize, PageId)> {
        let np = pool.config().physical_page_size();
        let sink = self.window.sink_pages;
        let page = |i: usize| if i < sink { i } else { i + self.evicted };
        self.page_ids()
            .enumerate()
            .map(|(i, id)| (page(i) * np, id))
            .collect()
    }

    /// The resident pages in attention order (sink, then local), without
    /// building [`StreamingHeadCache::page_table`]'s vector: what the decode
    /// kernel walks every token, and the set the pool's whole-set operations
    /// ([`PagePool::demote_all`] and friends) take.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.table.page_ids()
    }

    /// True when appending the next token takes a fresh pool page (see
    /// [`DenseHeadCache::needs_page_for_next_append`]).
    ///
    /// Eviction runs *after* allocation, so even when the append nets zero resident
    /// growth it transiently needs one free page; this method reports that
    /// transient demand, which is what a scheduler must reserve.
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        self.table.needs_page_for_next_append(pool)
    }

    /// Appends one `(key, value)` row as the table does, then evicts the page
    /// after the sink while more than `local_pages` pages follow the sink, so
    /// allocation pressure is bounded by `window.max_pages() + 1`.
    ///
    /// Returns `false` (cache unchanged) if a new page was needed and the pool was
    /// exhausted.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        if !self.table.append(pool, key, value) {
            return false;
        }
        while self.table.num_pages() > self.window.max_pages() {
            self.table.evict(pool, self.window.sink_pages);
            self.evicted += 1;
        }
        true
    }

    /// Frees every retained page and clears the cache.
    pub fn release(&mut self, pool: &mut PagePool) {
        self.table.release(pool);
        self.evicted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagingConfig;
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, StreamingHeadCache) {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 64, 2);
        let cache = StreamingHeadCache::new(StreamingWindow::new(1, 2));
        (pool, cache)
    }

    fn push_n(pool: &mut PagePool, c: &mut StreamingHeadCache, n: usize) {
        for i in 0..n {
            assert!(c.append(pool, &[i as f32, 0.0], &[0.0, i as f32]));
        }
    }

    #[test]
    fn resident_pages_bounded_by_window() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 100);
        assert_eq!(c.tokens(), 100);
        assert!(c.table().num_pages() <= c.window().max_pages());
        // 1 sink page (4 tokens) + at most 2 local pages (8 tokens).
        assert!(c.resident_tokens(&pool) <= 12);
    }

    #[test]
    fn pool_usage_is_constant_during_long_decode() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 40);
        let used_at_40 = pool.in_use();
        push_n(&mut pool, &mut c, 60);
        assert_eq!(pool.in_use(), used_at_40, "streaming head must not grow");
    }

    #[test]
    fn sink_pages_retain_first_tokens() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 50);
        let table = c.page_table(&pool);
        // First entry must be the sink page starting at token 0 holding keys 0..4.
        let (start, id) = table[0];
        assert_eq!(start, 0);
        assert_eq!(pool.page(id).key_row(0)[0], 0.0);
        assert_eq!(pool.page(id).key_row(3)[0], 3.0);
    }

    #[test]
    fn local_pages_cover_most_recent_tokens() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 50);
        let table = c.page_table(&pool);
        let (last_start, last_id) = *table.last().unwrap();
        let last_len = pool.page(last_id).len();
        assert_eq!(
            last_start + last_len,
            50,
            "newest page must end at token 50"
        );
    }

    #[test]
    fn page_starts_are_increasing_and_aligned() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 37);
        let table = c.page_table(&pool);
        let np = pool.config().physical_page_size();
        let mut prev = None;
        for (start, _) in table {
            assert_eq!(start % np, 0);
            if let Some(p) = prev {
                assert!(start > p);
            }
            prev = Some(start);
        }
    }

    #[test]
    fn release_frees_everything() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 30);
        assert!(pool.in_use() > 0);
        c.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn append_into_shared_pages_forks_not_mutates() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 10); // 1 sink page + local pages, last partial
        pool.retain_all(c.page_ids()); // a prefix-cache entry now co-owns every page
        let frozen: Vec<(usize, PageId)> = c.page_table(&pool);
        let frozen_lens: Vec<usize> = frozen.iter().map(|&(_, id)| pool.page(id).len()).collect();
        assert!(c.needs_page_for_next_append(&pool));
        push_n(&mut pool, &mut c, 8);
        // The co-owned snapshot is bit-for-bit untouched: same lengths, and the
        // evicted-from-the-window pages are still alive through the extra refs.
        for (&(_, id), &len) in frozen.iter().zip(&frozen_lens) {
            assert_eq!(pool.page(id).len(), len, "shared page {id:?} mutated");
        }
        assert_eq!(c.tokens(), 18);
    }

    #[test]
    fn zero_sink_pages_allowed() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 8, 2);
        let mut c = StreamingHeadCache::new(StreamingWindow::new(0, 1));
        for i in 0..20 {
            assert!(c.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]));
        }
        assert!(c.table().num_pages() <= 1 + 1); // one live local + transient
        assert!(c.resident_tokens(&pool) <= 8);
    }
}
