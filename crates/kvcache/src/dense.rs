//! Page table of a dense (retrieval) head: full KV history with `K_stats`.

use crate::{PageId, PagePool};

/// The KV history of one dense head: a page table over the full context, every page
/// carrying key statistics for dynamic page selection (Figure 5, "Dense Head Pages").
///
/// Pages are owned through the pool: the cache allocates on demand as tokens are
/// appended and frees all pages on [`DenseHeadCache::release`].
#[derive(Debug, Clone, Default)]
pub struct DenseHeadCache {
    pages: Vec<PageId>,
    tokens: usize,
}

impl DenseHeadCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total tokens stored.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// The page table (ordered physical pages covering tokens `0..tokens`).
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

    /// True when appending the next token requires allocating a fresh page: the
    /// last page is full, no page exists yet, or the last page is *shared* (a
    /// prefix-cache entry or another sequence also references it) and must be
    /// copy-on-write forked before it can be written. Schedulers use this for
    /// exact page-demand reservation before a decode step.
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        match self.pages.last() {
            Some(&id) => pool.page(id).is_full() || pool.is_shared(id),
            None => true,
        }
    }

    /// Appends one `(key, value)` row, allocating a new page when the last one is
    /// full and copy-on-write forking it first when it is shared with another
    /// owner (so shared prefix pages are never mutated).
    ///
    /// Returns `false` (leaving the cache unchanged) if the pool is exhausted.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        if let Some(&last) = self.pages.last() {
            if !pool.page(last).is_full() && pool.is_shared(last) {
                match pool.fork(last) {
                    Some(forked) => *self.pages.last_mut().expect("last checked") = forked,
                    None => return false,
                }
            }
        }
        let need_new = match self.pages.last() {
            Some(&id) => pool.page(id).is_full(),
            None => true,
        };
        if need_new {
            match pool.allocate() {
                Some(id) => self.pages.push(id),
                None => return false,
            }
        }
        let id = *self.pages.last().expect("page just ensured");
        pool.page_mut(id).append(key, value);
        self.tokens += 1;
        true
    }

    /// Reads the (dequantized) key row of global token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tokens()`.
    pub fn key(&self, pool: &PagePool, t: usize) -> Vec<f32> {
        let np = pool.config().physical_page_size();
        pool.page(self.pages[t / np]).key_row(t % np)
    }

    /// Reads the (dequantized) value row of global token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tokens()`.
    pub fn value(&self, pool: &PagePool, t: usize) -> Vec<f32> {
        let np = pool.config().physical_page_size();
        pool.page(self.pages[t / np]).value_row(t % np).to_vec()
    }

    /// Frees every page back to the pool and clears the table.
    pub fn release(&mut self, pool: &mut PagePool) {
        for id in self.pages.drain(..) {
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
