//! The window of a streaming head: the pages of its table it keeps.

use crate::DenseHeadCache;

/// Λ-mask geometry of a streaming head, in *pages*.
///
/// A streaming head attends to the first `sink_pages` physical pages (attention
/// sinks) and the most recent `local_pages` pages (the local window), per
/// StreamingLLM/DuoAttention. Figure 4(c) draws one sink block and two local blocks.
///
/// [`StreamingWindow::new`] is the only way to build one, so every window
/// keeps the page the newest token was written to:
///
/// ```compile_fail
/// use lserve_kvcache::StreamingWindow;
///
/// let window = StreamingWindow { sink_pages: 1, local_pages: 0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingWindow {
    sink_pages: usize,
    local_pages: usize,
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

    /// Number of leading (sink) pages always kept.
    pub fn sink_pages(&self) -> usize {
        self.sink_pages
    }

    /// Number of trailing (local) pages always kept; at least one.
    pub fn local_pages(&self) -> usize {
        self.local_pages
    }

    /// Maximum number of pages this head ever retains.
    pub fn max_pages(&self) -> usize {
        self.sink_pages + self.local_pages
    }
}

/// The streaming head's old constructor, kept for the benchmark's pinned
/// surface: [`StreamingHeadCache::new`] is
/// [`DenseHeadCache::with_window`]. ROADMAP 1(f) deletes it.
pub struct StreamingHeadCache;

impl StreamingHeadCache {
    /// An empty table that keeps only `window`'s pages.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(window: StreamingWindow) -> DenseHeadCache {
        DenseHeadCache::with_window(Some(window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageId, PagePool, PagingConfig};
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, DenseHeadCache) {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 64, 2);
        let cache = DenseHeadCache::with_window(Some(StreamingWindow::new(1, 2)));
        (pool, cache)
    }

    fn push_n(pool: &mut PagePool, c: &mut DenseHeadCache, n: usize) {
        for i in 0..n {
            assert!(c.append(pool, &[i as f32, 0.0], &[0.0, i as f32]));
        }
    }

    fn starts(c: &DenseHeadCache, pool: &PagePool) -> Vec<(usize, PageId)> {
        c.page_starts(pool).collect()
    }

    #[test]
    fn resident_pages_bounded_by_window() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 100);
        assert_eq!(c.tokens(), 100);
        assert!(c.num_pages() <= c.window().unwrap().max_pages());
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
        let table = starts(&c, &pool);
        // First entry must be the sink page starting at token 0 holding keys 0..4.
        let (start, id) = table[0];
        assert_eq!(start, 0);
        assert_eq!(pool.page(id).key_row(0)[0], 0.0);
        assert_eq!(pool.page(id).key_row(3)[0], 3.0);
        assert_eq!(c.key(&pool, 3)[0], 3.0);
    }

    #[test]
    fn local_pages_cover_most_recent_tokens() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 50);
        let table = starts(&c, &pool);
        let (last_start, last_id) = *table.last().unwrap();
        let last_len = pool.page(last_id).len();
        assert_eq!(
            last_start + last_len,
            50,
            "newest page must end at token 50"
        );
        assert_eq!(c.key(&pool, 49)[0], 49.0);
    }

    #[test]
    fn page_starts_are_increasing_and_aligned() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 37);
        let np = pool.config().physical_page_size();
        let mut prev = None;
        for (start, _) in starts(&c, &pool) {
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
        let frozen = starts(&c, &pool);
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
        let mut c = DenseHeadCache::with_window(Some(StreamingWindow::new(0, 1)));
        for i in 0..20 {
            assert!(c.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]));
        }
        assert!(c.num_pages() <= 1 + 1); // one live local + transient
        assert!(c.resident_tokens(&pool) <= 8);
        assert_eq!(
            c.key(&pool, 19)[0],
            19.0,
            "the newest token stays attendable"
        );
    }

    #[test]
    #[should_panic(expected = "at least one local page")]
    fn a_window_keeps_its_newest_page() {
        let _ = StreamingWindow::new(1, 0);
    }
}
