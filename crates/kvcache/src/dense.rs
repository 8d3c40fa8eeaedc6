//! The page table of one KV head: its full history, or, with a streaming
//! window, only the sink and local pages of it.

use crate::{AppendedTo, PageId, PagePool, StreamingWindow};

/// The KV history of one head: a page table over the context, every page
/// carrying key statistics for dynamic page selection (Figure 5, "Dense Head
/// Pages").
///
/// A streaming head is the same table with a [`StreamingWindow`]: it frees
/// the page after its sink whenever more than `local_pages` pages follow the
/// sink, so it holds "Only Sink & Local Pages" (Figure 5) — §3.6's "dynamic
/// sparse head with index table only containing the sink and local pages".
/// Evicted tokens stay counted in [`DenseHeadCache::tokens`].
///
/// Pages are owned through the pool: the cache allocates on demand as tokens are
/// appended and frees all pages on [`DenseHeadCache::release`].
#[derive(Debug, Clone, Default)]
pub struct DenseHeadCache {
    pages: Vec<PageId>,
    tokens: usize,
    window: Option<StreamingWindow>,
    /// Pages freed from between the sink and the local window.
    evicted: usize,
}

impl DenseHeadCache {
    /// Creates an empty cache that keeps its full history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache that keeps only `window`'s pages, if given.
    pub fn with_window(window: Option<StreamingWindow>) -> Self {
        Self {
            window,
            ..Self::default()
        }
    }

    /// The streaming window, or `None` for a head that keeps its history.
    pub fn window(&self) -> Option<StreamingWindow> {
        self.window
    }

    /// Total tokens appended (evicted ones included).
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Tokens the table still holds, i.e. the attention span of the head:
    /// every token but the evicted pages' (which were full).
    pub fn resident_tokens(&self, pool: &PagePool) -> usize {
        self.tokens - self.evicted * pool.config().physical_page_size()
    }

    /// The page table: physical pages in token order (sink pages, then local
    /// pages oldest first, for a windowed head).
    pub fn page_table(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of physical pages in the table.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Every page this head references, in table order: the set the pool's
    /// whole-set operations ([`PagePool::demote_all`] and friends) take.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().copied()
    }

    /// The table's pages, each with the global index of its first token.
    pub fn page_starts(&self, pool: &PagePool) -> impl Iterator<Item = (usize, PageId)> + '_ {
        let np = pool.config().physical_page_size();
        let sink = self.window.map_or(0, |w| w.sink_pages());
        let page = move |i: usize| if i < sink { i } else { i + self.evicted };
        self.page_ids()
            .enumerate()
            .map(move |(i, id)| (page(i) * np, id))
    }

    /// True when appending the next token takes a fresh pool page
    /// ([`PagePool::tail_needs_page`]). Schedulers use this for exact
    /// page-demand reservation before a decode step. A windowed head evicts
    /// only after allocating, so it transiently needs the page too.
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        pool.tail_needs_page(self.pages.last().copied())
    }

    /// Appends one `(key, value)` row behind the last page
    /// ([`PagePool::append_row`]: a full tail gets a fresh page, a shared one
    /// is copy-on-write forked first, so shared prefix pages are never
    /// mutated). A windowed head then frees the page after its sink while
    /// more than `local_pages` pages follow the sink, so its allocation
    /// pressure is bounded by `window.max_pages() + 1`.
    ///
    /// Returns `false` (leaving the cache unchanged) if the pool is exhausted.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        match pool.append_row(self.pages.last().copied(), key, value) {
            None => return false,
            Some(AppendedTo::Tail) => {}
            Some(AppendedTo::Fork(id)) => *self.pages.last_mut().expect("a forked tail") = id,
            Some(AppendedTo::Fresh(id)) => self.pages.push(id),
        }
        self.tokens += 1;
        if let Some(w) = self.window {
            while self.pages.len() > w.max_pages() {
                pool.free(self.pages.remove(w.sink_pages()));
                self.evicted += 1;
            }
        }
        true
    }

    /// Reads the (dequantized) key row of global token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tokens()` or `t` was evicted.
    pub fn key(&self, pool: &PagePool, t: usize) -> Vec<f32> {
        let (id, row) = self.locate(pool, t);
        pool.page(id).key_row(row)
    }

    /// Reads the (dequantized) value row of global token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tokens()` or `t` was evicted.
    pub fn value(&self, pool: &PagePool, t: usize) -> Vec<f32> {
        let (id, row) = self.locate(pool, t);
        pool.page(id).value_row(row)
    }

    /// The page holding global token `t`, and its row there.
    fn locate(&self, pool: &PagePool, t: usize) -> (PageId, usize) {
        let np = pool.config().physical_page_size();
        let (page, sink) = (t / np, self.window.map_or(0, |w| w.sink_pages()));
        if page < sink {
            return (self.pages[page], t % np);
        }
        assert!(page >= sink + self.evicted, "token {t} was evicted");
        (self.pages[page - self.evicted], t % np)
    }

    /// Frees every page back to the pool and clears the table (the window
    /// stays).
    pub fn release(&mut self, pool: &mut PagePool) {
        for id in self.pages.drain(..) {
            pool.free(id);
        }
        self.tokens = 0;
        self.evicted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagingConfig;
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, DenseHeadCache) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        (PagePool::new(cfg, 16, 2), DenseHeadCache::new())
    }

    #[test]
    fn append_allocates_pages_on_demand() {
        let (mut pool, mut c) = setup();
        for i in 0..9 {
            assert!(c.append(&mut pool, &[i as f32, 0.0], &[0.0, i as f32]));
        }
        assert_eq!(c.tokens(), 9);
        assert_eq!(c.num_pages(), 3); // ceil(9/4)
        assert_eq!(pool.in_use(), 3);
    }

    #[test]
    fn key_value_round_trip_across_pages() {
        let (mut pool, mut c) = setup();
        for i in 0..10 {
            c.append(&mut pool, &[i as f32, -(i as f32)], &[2.0 * i as f32, 0.5]);
        }
        for i in 0..10 {
            assert_eq!(c.key(&pool, i), vec![i as f32, -(i as f32)]);
            assert_eq!(c.value(&pool, i), vec![2.0 * i as f32, 0.5]);
        }
    }

    #[test]
    fn release_returns_capacity() {
        let (mut pool, mut c) = setup();
        for _ in 0..8 {
            c.append(&mut pool, &[0.0, 0.0], &[0.0, 0.0]);
        }
        assert_eq!(pool.in_use(), 2);
        c.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(c.tokens(), 0);
    }

    #[test]
    fn append_fails_cleanly_when_pool_exhausted() {
        let cfg = PagingConfig::new(2, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 1, 2);
        let mut c = DenseHeadCache::new();
        assert!(c.append(&mut pool, &[0.0, 0.0], &[0.0, 0.0]));
        assert!(c.append(&mut pool, &[0.0, 0.0], &[0.0, 0.0]));
        assert!(!c.append(&mut pool, &[0.0, 0.0], &[0.0, 0.0]));
        assert_eq!(c.tokens(), 2);
    }

    #[test]
    fn append_into_shared_partial_page_forks_first() {
        let (mut pool, mut c) = setup();
        for i in 0..6 {
            c.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]);
        }
        // Share the whole table (tree + this sequence), as a prefix-cache entry would.
        pool.retain_all(c.page_ids());
        let shared_last = *c.page_table().last().unwrap();
        assert!(c.needs_page_for_next_append(&pool), "shared page needs CoW");
        assert!(c.append(&mut pool, &[99.0, 0.0], &[0.0, 0.0]));
        let new_last = *c.page_table().last().unwrap();
        assert_ne!(new_last, shared_last, "partial page forked before append");
        // The shared copy is frozen at its pre-append contents.
        assert_eq!(pool.page(shared_last).len(), 2); // tokens 4..6 on page 1 (np=4)
        assert_eq!(pool.page(new_last).len(), 3);
        assert_eq!(pool.page(new_last).key_row(2)[0], 99.0);
        // Full pages stay shared untouched: only the partial page forked.
        assert_eq!(pool.refcount(c.page_table()[0]), 2);
        assert_eq!(pool.refcount(shared_last), 1, "tree now sole owner");
    }
}
