//! Page table of a dense (retrieval) head: full KV history with `K_stats`.

use crate::{PageId, PagePool, Residency};

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

    /// Appends a whole block of rows (used by prefill). Returns the number of rows
    /// actually appended (fewer than requested only if the pool is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != values.len()` or rows are not a multiple of
    /// `head_dim`.
    pub fn append_block(
        &mut self,
        pool: &mut PagePool,
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) -> usize {
        assert_eq!(keys.len(), values.len(), "key/value block size mismatch");
        assert_eq!(keys.len() % head_dim, 0, "block not a whole number of rows");
        let rows = keys.len() / head_dim;
        for r in 0..rows {
            let k = &keys[r * head_dim..(r + 1) * head_dim];
            let v = &values[r * head_dim..(r + 1) * head_dim];
            if !self.append(pool, k, v) {
                return r;
            }
        }
        rows
    }

    /// The global token index range `[start, end)` covered by physical page `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_pages()`.
    pub fn page_token_range(&self, pool: &PagePool, p: usize) -> (usize, usize) {
        assert!(p < self.pages.len(), "page index out of bounds");
        let np = pool.config().physical_page_size();
        let start = p * np;
        let end = start + pool.page(self.pages[p]).len();
        (start, end)
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

    /// Takes one additional reference on every page in the table (prefix sharing:
    /// the caller becomes a co-owner and must eventually `release` its copy of the
    /// table).
    pub fn retain_all(&self, pool: &mut PagePool) {
        for &id in &self.pages {
            pool.retain(id);
        }
    }

    /// True when at least one page in the table is referenced by this cache
    /// alone, i.e. releasing the cache would return physical pages to the pool.
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        self.pages.iter().any(|&id| pool.refcount(id) == 1)
    }

    /// Demotes every sole-owned hot page of this head to the cold tier
    /// (swap-out). Co-owned pages stay hot for their other readers; already
    /// cold pages are skipped. Returns `(pages moved, token-units moved)`.
    pub fn demote_all(&self, pool: &mut PagePool) -> (u64, u64) {
        let mut pages = 0;
        let mut units = 0;
        for &id in &self.pages {
            if let Some(u) = pool.demote(id) {
                pages += 1;
                units += u;
            }
        }
        (pages, units)
    }

    /// Promotes every cold page of this head back to the hot tier (swap-in).
    /// Returns `(pages moved, token-units moved)`, or `None` if the hot tier
    /// filled up mid-way (pages promoted so far stay hot; callers reserve
    /// [`DenseHeadCache::cold_pages`] free slots first to rule this out).
    ///
    /// Every page goes through [`PagePool::promote`], so in-flight states are
    /// handled uniformly: hot and inbound pages cost `Some(0)`, an outbound
    /// page is recaptured for free, only genuinely cold pages move.
    pub fn promote_all(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        for &id in &self.pages {
            match pool.promote(id)? {
                0 => {}
                u => {
                    pages += 1;
                    units += u;
                }
            }
        }
        Some((pages, units))
    }

    /// Makes every page of this head kernel-readable *now* (see
    /// [`PagePool::ensure_hot`]). Returns `(pages moved, token-units issued,
    /// token-units unhidden)`, or `None` if the hot tier filled up mid-way.
    pub fn ensure_resident(&self, pool: &mut PagePool) -> Option<(u64, u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        let mut unhidden = 0;
        for &id in &self.pages {
            let (u, uh) = pool.ensure_hot(id)?;
            if u > 0 {
                pages += 1;
            }
            units += u;
            unhidden += uh;
        }
        Some((pages, units, unhidden))
    }

    /// Number of this head's pages currently in the cold tier (the exact hot
    /// demand of a swap-in).
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        self.pages.iter().filter(|&&id| !pool.is_hot(id)).count()
    }

    /// Hot slots a swap-in of this head must newly claim: below-hot pages
    /// (cold, nvme, or in flight on the nvme hop) plus pages whose outbound
    /// transfer is still in flight. The latter look hot (their slot is
    /// occupied and the copy engine counts them reclaimable), but forcing one
    /// frees its slot *and* mints a new cold page — net-zero supply — so a
    /// resume reservation must carry them as demand.
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        self.pages
            .iter()
            .filter(|&&id| !pool.holds_slot(id))
            .count()
    }

    /// Pages this head holds that are both sole-owned and hot — exactly what a
    /// swap-out ([`DenseHeadCache::demote_all`]) would move, and therefore the
    /// per-head transfer cost a cost-aware victim selector should charge.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        self.pages
            .iter()
            .filter(|&&id| pool.refcount(id) == 1 && pool.is_hot(id))
            .count()
    }

    /// Modeled ledger units a victim of preemption would pay to bring this
    /// head fully hot again, by tier truth: shared hot pages are free (they
    /// never demote), sole-owned hot pages pay one future host round-trip
    /// half (`N_P` back up), host-resident pages pay the host hop, and
    /// nvme-family pages pay recall plus host hop. Victim selection ranks by
    /// this instead of raw page counts, so a sequence whose state sits deep
    /// in the hierarchy is not preferred over one that is cheap to restore.
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        let np = pool.config().physical_page_size() as u64;
        let nvme_cost = crate::nvme_ledger_units(np) + np;
        self.pages
            .iter()
            .map(|&id| match pool.residency(id) {
                Residency::Hot | Residency::Migrating(_) => {
                    if pool.is_shared(id) {
                        0
                    } else {
                        np
                    }
                }
                Residency::Cold => np,
                Residency::Nvme | Residency::MigratingNvme(_) => nvme_cost,
            })
            .sum()
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
    fn page_token_range_covers_everything_once() {
        let (mut pool, mut c) = setup();
        for i in 0..7 {
            c.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]);
        }
        let mut covered = [false; 7];
        for p in 0..c.num_pages() {
            let (s, e) = c.page_token_range(&pool, p);
            for (t, slot) in covered.iter_mut().enumerate().take(e).skip(s) {
                assert!(!*slot, "token {t} covered twice");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&x| x));
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
        c.retain_all(&mut pool);
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

    #[test]
    fn append_block_partial_on_exhaustion() {
        let cfg = PagingConfig::new(2, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 1, 2);
        let mut c = DenseHeadCache::new();
        let keys = vec![0.0f32; 6 * 2];
        let values = vec![0.0f32; 6 * 2];
        let n = c.append_block(&mut pool, &keys, &values, 2);
        assert_eq!(n, 2);
    }
}
