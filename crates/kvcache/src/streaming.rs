//! Page table of a streaming head: only sink and local pages are retained.

use std::collections::VecDeque;

use crate::{PageId, PagePool};

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

/// The KV history of one streaming head: sink pages plus a ring of local pages
/// (Figure 5, "Streaming Head Pages" — the page table contains only sink & local
/// pages). Tokens between sink and window are *evicted*, their pages freed.
///
/// Each retained page remembers the global position of its first token so kernels can
/// recover absolute token indices.
#[derive(Debug, Clone)]
pub struct StreamingHeadCache {
    window: StreamingWindow,
    sink: Vec<PageId>,
    /// `(start_token, page)` pairs, oldest first.
    local: VecDeque<(usize, PageId)>,
    tokens: usize,
}

impl StreamingHeadCache {
    /// Creates an empty cache with the given window geometry.
    pub fn new(window: StreamingWindow) -> Self {
        Self {
            window,
            sink: Vec::new(),
            local: VecDeque::new(),
            tokens: 0,
        }
    }

    /// The window geometry.
    pub fn window(&self) -> StreamingWindow {
        self.window
    }

    /// Total tokens ever appended (including evicted ones).
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Number of pages currently retained (sink + local).
    pub fn resident_pages(&self) -> usize {
        self.sink.len() + self.local.len()
    }

    /// Number of *tokens* currently resident, i.e. the attention span of the head.
    pub fn resident_tokens(&self, pool: &PagePool) -> usize {
        let sink: usize = self.sink.iter().map(|&id| pool.page(id).len()).sum();
        let local: usize = self.local.iter().map(|&(_, id)| pool.page(id).len()).sum();
        sink + local
    }

    /// The retained page table: sink pages first, then local pages oldest-first,
    /// each with the global token index of its first token.
    pub fn page_table(&self, pool: &PagePool) -> Vec<(usize, PageId)> {
        let np = pool.config().physical_page_size();
        let mut out: Vec<(usize, PageId)> = self
            .sink
            .iter()
            .enumerate()
            .map(|(i, &id)| (i * np, id))
            .collect();
        out.extend(self.local.iter().copied());
        out
    }

    /// The resident pages in attention order (sink, then local), without
    /// building [`StreamingHeadCache::page_table`]'s vector: what the decode
    /// kernel walks every token, and the set the pool's whole-set operations
    /// ([`PagePool::demote_all`] and friends) take.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        let local = self.local.iter().map(|&(_, id)| id);
        self.sink.iter().copied().chain(local)
    }

    /// True when appending the next token requires allocating a fresh page —
    /// because the target page is full, missing, or *shared* with another owner
    /// (prefix-cache sharing) and must be copy-on-write forked before writing.
    ///
    /// Eviction runs *after* allocation, so even when the append nets zero resident
    /// growth it transiently needs one free page; this method reports that
    /// transient demand, which is what a scheduler must reserve.
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        let np = pool.config().physical_page_size();
        let in_sink_region = self.tokens / np < self.window.sink_pages;
        if in_sink_region {
            match self.sink.last() {
                Some(&id) => pool.page(id).is_full() || pool.is_shared(id),
                None => true,
            }
        } else {
            match self.local.back() {
                Some(&(_, id)) => pool.page(id).is_full() || pool.is_shared(id),
                None => true,
            }
        }
    }

    /// Appends one `(key, value)` row, allocating/evicting pages as needed.
    ///
    /// Returns `false` (cache unchanged) if a new page was needed and the pool was
    /// exhausted. Eviction frees the oldest local page once more than `local_pages`
    /// non-sink pages exist, so allocation pressure is bounded by
    /// `window.max_pages() + 1`.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        let np = pool.config().physical_page_size();
        let pos = self.tokens;
        let in_sink_region = pos / np < self.window.sink_pages;
        if in_sink_region {
            let need_new = match self.sink.last() {
                Some(&id) => pool.page(id).is_full(),
                None => true,
            };
            if need_new {
                match pool.allocate() {
                    Some(id) => self.sink.push(id),
                    None => return false,
                }
            } else {
                // Copy-on-write: never append into a page another owner shares.
                let id = *self.sink.last().expect("sink page ensured");
                if pool.is_shared(id) {
                    match pool.fork(id) {
                        Some(forked) => *self.sink.last_mut().expect("sink page ensured") = forked,
                        None => return false,
                    }
                }
            }
            let id = *self.sink.last().expect("sink page ensured");
            pool.page_mut(id).append(key, value);
        } else {
            let need_new = match self.local.back() {
                Some(&(_, id)) => pool.page(id).is_full(),
                None => true,
            };
            if need_new {
                match pool.allocate() {
                    Some(id) => {
                        let start = (pos / np) * np;
                        self.local.push_back((start, id));
                    }
                    None => return false,
                }
            } else {
                let (_, id) = *self.local.back().expect("local page ensured");
                if pool.is_shared(id) {
                    match pool.fork(id) {
                        Some(forked) => {
                            self.local.back_mut().expect("local page ensured").1 = forked;
                        }
                        None => return false,
                    }
                }
            }
            let (_, id) = *self.local.back().expect("local page ensured");
            pool.page_mut(id).append(key, value);
            // Evict pages that fell out of the local window.
            while self.local.len() > self.window.local_pages {
                let (_, old) = self.local.pop_front().expect("len checked");
                pool.free(old);
            }
        }
        self.tokens += 1;
        true
    }

    /// Frees every retained page and clears the cache.
    pub fn release(&mut self, pool: &mut PagePool) {
        for id in self.sink.drain(..) {
            pool.free(id);
        }
        for (_, id) in self.local.drain(..) {
            pool.free(id);
        }
        self.tokens = 0;
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
        assert!(c.resident_pages() <= c.window().max_pages());
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
        assert!(c.resident_pages() <= 1 + 1); // one live local + transient
        assert!(c.resident_tokens(&pool) <= 8);
    }
}
