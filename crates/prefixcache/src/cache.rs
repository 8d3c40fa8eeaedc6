//! The managed prefix store: refcounted insertion, LRU eviction, counters.

use lserve_kvcache::{PageId, PagePool};

use crate::tree::RadixTree;

/// Contract for a cached prefix value: it references pool pages and can take or
/// drop one co-ownership reference on all of them.
///
/// The cache calls [`PrefixPages::retain`] exactly once when a value is accepted
/// into the tree and [`PrefixPages::release`] exactly once when it leaves
/// (eviction or clear). Serving layers call `retain` again for every sequence they
/// seed from the value, and pages stay immutable while shared because appends
/// copy-on-write fork any page whose refcount exceeds 1.
pub trait PrefixPages {
    /// Takes one additional reference on every page this value references.
    fn retain(&self, pool: &mut PagePool);
    /// Drops the value's reference on every page (recycling pages that reach
    /// refcount zero).
    fn release(&mut self, pool: &mut PagePool);
    /// Number of page references this value holds (shared pages count once per
    /// referencing value).
    fn page_refs(&self) -> usize;
    /// True when releasing this value would return at least one physical page to
    /// the pool (some referenced page has no other owner). Pressure-driven
    /// eviction skips values for which this is false — removing them relieves
    /// nothing and only makes future lookups colder.
    fn frees_pages(&self, pool: &PagePool) -> bool;
    /// True when [`PrefixPages::spill`] would move at least one page out of the
    /// hot tier: some referenced page is sole-owned and hot. Shared pages are
    /// not spillable through this value — a co-owner is actively reading them.
    fn spillable(&self, pool: &PagePool) -> bool;
    /// Demotes every sole-owned hot page this value references into the cold
    /// tier, returning the number of pages moved. The value keeps all its
    /// references and stays cached: a later hit pays an accounted promotion
    /// instead of a prefill recompute, which is the whole point of spilling
    /// over evicting. Pages the bounded host refuses stay hot (partial spill
    /// is fine — each page moved is a hot slot relieved).
    fn spill(&self, pool: &mut PagePool) -> u64;
}

/// The minimal concrete cached value: per-layer, page-aligned runs of page ids
/// covering `tokens` prefix tokens. The serving layer caches richer per-sequence
/// state; this type is the crate-local reference implementation and test vehicle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRunPrefix {
    /// Prefix length in tokens.
    pub tokens: usize,
    /// One ordered run of physical pages per (layer, head) slot.
    pub runs: Vec<Vec<PageId>>,
}

impl PageRunPrefix {
    /// Every page reference this value holds, run by run.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.runs.iter().flatten().copied()
    }
}

impl PrefixPages for PageRunPrefix {
    fn retain(&self, pool: &mut PagePool) {
        pool.retain_all(self.page_ids());
    }

    fn release(&mut self, pool: &mut PagePool) {
        for id in self.runs.iter_mut().flat_map(|run| run.drain(..)) {
            pool.free(id);
        }
    }

    fn page_refs(&self) -> usize {
        self.page_ids().count()
    }

    fn frees_pages(&self, pool: &PagePool) -> bool {
        pool.holds_sole_reference(self.page_ids())
    }

    fn spillable(&self, pool: &PagePool) -> bool {
        pool.sole_owned_hot_pages(self.page_ids()) > 0
    }

    fn spill(&self, pool: &mut PagePool) -> u64 {
        pool.demote_all(self.page_ids()).pages
    }
}

/// Hit/miss/volume counters a serving report can surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixCacheStats {
    /// Lookups that matched a cached prefix.
    pub hits: u64,
    /// Lookups that matched nothing (within the caller's depth bounds).
    pub misses: u64,
    /// Total prompt tokens served from the cache across all hits.
    pub hit_tokens: u64,
    /// Values accepted into the tree.
    pub insertions: u64,
    /// Values removed (LRU eviction and clears).
    pub evictions: u64,
}

/// Refcount-backed radix prefix cache with LRU eviction.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{PagePool, PagingConfig};
/// use lserve_prefixcache::{PageRunPrefix, PrefixCache};
/// use lserve_quant::KvPrecision;
///
/// let mut pool = PagePool::new(PagingConfig::new(4, 2, KvPrecision::Fp16), 8, 2);
/// let page = pool.allocate().unwrap();
/// let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
/// let value = PageRunPrefix { tokens: 4, runs: vec![vec![page]] };
/// assert!(cache.insert(&mut pool, &[10, 11, 12, 13], value));
/// assert_eq!(pool.refcount(page), 2); // owner + cache
/// let (depth, hit) = cache.lookup(&[10, 11, 12, 13, 14], 1, 4).unwrap();
/// assert_eq!((depth, hit.tokens), (4, 4));
/// cache.clear(&mut pool);
/// assert_eq!(pool.refcount(page), 1);
/// ```
#[derive(Debug, Default)]
pub struct PrefixCache<V: PrefixPages> {
    tree: RadixTree<V>,
    tick: u64,
    page_refs: usize,
    stats: PrefixCacheStats,
}

impl<V: PrefixPages> PrefixCache<V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            tree: RadixTree::new(),
            tick: 0,
            page_refs: 0,
            stats: PrefixCacheStats::default(),
        }
    }

    /// Number of cached prefixes.
    pub fn entries(&self) -> usize {
        self.tree.len()
    }

    /// Total page references the cache currently holds (shared pages counted once
    /// per referencing entry, so this can exceed the physical footprint).
    pub fn page_refs(&self) -> usize {
        self.page_refs
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Finds the deepest cached prefix of `prompt` with length in
    /// `[min_match.max(1), max_match]`, counting and LRU-touching the hit.
    ///
    /// Serving layers pass `min_match = chunk_tokens` (the prefill tile grid cell,
    /// so the uncached suffix is computed entirely on the position-stable decode
    /// path) and `max_match = prompt.len() - 1` (at least one suffix token must be
    /// computed to produce first-token logits).
    pub fn lookup(
        &mut self,
        prompt: &[u32],
        min_match: usize,
        max_match: usize,
    ) -> Option<(usize, &V)> {
        self.tick += 1;
        match self.tree.lookup(prompt, min_match, max_match, self.tick) {
            Some((depth, v)) => {
                self.stats.hits += 1;
                self.stats.hit_tokens += depth as u64;
                Some((depth, v))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// LRU-touches the deepest cached prefix of `prompt` within the bounds
    /// without counting a hit or miss, returning its depth. Admission control
    /// uses this to protect a would-be match from pressure-driven eviction
    /// before the real [`PrefixCache::lookup`] runs.
    pub fn touch(&mut self, prompt: &[u32], min_match: usize, max_match: usize) -> Option<usize> {
        self.tick += 1;
        self.tree
            .lookup(prompt, min_match, max_match, self.tick)
            .map(|(depth, _)| depth)
    }

    /// Donates a value for exactly `prompt`: retains its pages and stores it.
    ///
    /// Returns `false` when the prefix is already cached — the duplicate value's
    /// pages are released again and the existing entry gets an LRU touch, so
    /// re-donation (e.g. after a preemption replay) is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn insert(&mut self, pool: &mut PagePool, prompt: &[u32], value: V) -> bool {
        self.tick += 1;
        value.retain(pool);
        let refs = value.page_refs();
        match self.tree.insert(prompt, value, self.tick) {
            Ok(()) => {
                self.page_refs += refs;
                self.stats.insertions += 1;
                true
            }
            Err(mut duplicate) => {
                duplicate.release(pool);
                false
            }
        }
    }

    /// True when exactly `prompt` is cached (no LRU touch, no counters) —
    /// donation paths use this to skip capturing a value the tree would refuse.
    pub fn is_cached(&self, prompt: &[u32]) -> bool {
        self.tree.get_exact(prompt).is_some()
    }

    /// Evicts the least-recently-used prefix, dropping its page references.
    /// Returns the number of references released, or `None` when the cache is
    /// empty. Pages still co-owned by running sequences survive the eviction.
    pub fn evict_lru(&mut self, pool: &mut PagePool) -> Option<usize> {
        let key = self.tree.lru_key()?;
        Some(self.evict_key(pool, &key))
    }

    /// Evicts the least-recently-used prefix *whose removal would free at least
    /// one physical page*, skipping (and keeping) entries whose pages are all
    /// co-owned elsewhere — nested anchors covered by deeper entries, prefixes
    /// still pinned by running sequences. Returns `None` when no eviction can
    /// relieve the pool, in which case the caller needs a different lever
    /// (preemption).
    pub fn evict_lru_freeing(&mut self, pool: &mut PagePool) -> Option<usize> {
        let key = self.tree.keys_by_lru().into_iter().find(|key| {
            self.tree
                .get_exact(key)
                .is_some_and(|v| v.frees_pages(pool))
        })?;
        Some(self.evict_key(pool, &key))
    }

    /// Spills the least-recently-used prefix that still holds sole-owned hot
    /// pages: its pages demote into the cold tiers but the entry **stays
    /// cached**, so a long-tail prefix keeps its warm-capacity value (a later
    /// hit pays promotion, not recompute). Returns the number of pages moved,
    /// or `None` when no cached prefix can relieve the hot tier this way —
    /// the caller falls back to real eviction ([`PrefixCache::evict_lru_freeing`]).
    ///
    /// Deliberately not an LRU touch: spilling is pressure acting *on* the
    /// entry, not a use of it, and must not promote the victim's recency.
    pub fn spill_lru(&mut self, pool: &mut PagePool) -> Option<u64> {
        for key in self.tree.keys_by_lru() {
            let Some(value) = self.tree.get_exact(&key) else {
                continue;
            };
            if !value.spillable(pool) {
                continue;
            }
            let moved = value.spill(pool);
            if moved > 0 {
                return Some(moved);
            }
        }
        None
    }

    /// Walks the cached prefixes of `tokens`, deepest first, and evicts those
    /// `pins` says yes to, returning how many went: the cache letting go of
    /// what keeps one owner of that token stream from moving its pages. The
    /// walk is deepest first because nested anchors co-own the pages they
    /// share — a page is free of the cache only once every entry over it is
    /// gone — and `pins` sees the pool as the evictions before it left it.
    /// Entries it refuses (shared with someone else, so evicting them would
    /// relieve nothing) stay cached, untouched in the LRU order.
    pub fn evict_prefixes_of(
        &mut self,
        pool: &mut PagePool,
        tokens: &[u32],
        pins: impl Fn(&V, &PagePool) -> bool,
    ) -> usize {
        let mut evicted = 0;
        for depth in self.tree.prefix_depths(tokens).into_iter().rev() {
            let key = &tokens[..depth];
            if self.tree.get_exact(key).is_some_and(|v| pins(v, pool)) {
                self.evict_key(pool, key);
                evicted += 1;
            }
        }
        evicted
    }

    fn evict_key(&mut self, pool: &mut PagePool, key: &[u32]) -> usize {
        let mut value = self.tree.remove(key).expect("key listed by the tree");
        let refs = value.page_refs();
        value.release(pool);
        self.page_refs -= refs;
        self.stats.evictions += 1;
        refs
    }

    /// Evicts everything (counted as evictions), returning all page references.
    pub fn clear(&mut self, pool: &mut PagePool) {
        for mut value in self.tree.drain() {
            self.page_refs -= value.page_refs();
            self.stats.evictions += 1;
            value.release(pool);
        }
        debug_assert_eq!(self.page_refs, 0);
    }
}

#[cfg(test)]
mod tests {
    use lserve_kvcache::Residency;

    use super::*;
    use lserve_kvcache::PagingConfig;
    use lserve_quant::KvPrecision;

    fn pool() -> PagePool {
        PagePool::new(PagingConfig::new(4, 2, KvPrecision::Fp16), 32, 2)
    }

    fn run_of(pool: &mut PagePool, n: usize) -> PageRunPrefix {
        let runs = vec![(0..n).map(|_| pool.allocate().unwrap()).collect()];
        PageRunPrefix {
            tokens: n * 4,
            runs,
        }
    }

    #[test]
    fn insert_retains_and_evict_releases() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        let a = run_of(&mut pool, 2);
        let first_page = a.runs[0][0];
        assert!(cache.insert(&mut pool, &[1, 2, 3, 4, 5, 6, 7, 8], a.clone()));
        assert_eq!(pool.refcount(first_page), 2);
        assert_eq!(cache.page_refs(), 2);
        // The original owner lets go; pages survive through the cache.
        let mut owner_copy = a;
        owner_copy.release(&mut pool);
        assert_eq!(pool.refcount(first_page), 1);
        assert_eq!(pool.in_use(), 2);
        assert_eq!(cache.evict_lru(&mut pool), Some(2));
        assert_eq!(pool.in_use(), 0);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn duplicate_insert_releases_duplicate_refs() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        let a = run_of(&mut pool, 1);
        let page = a.runs[0][0];
        assert!(cache.insert(&mut pool, &[7, 7, 7], a.clone()));
        assert!(!cache.insert(&mut pool, &[7, 7, 7], a.clone()));
        assert_eq!(pool.refcount(page), 2, "dup insert nets zero references");
        assert_eq!(cache.stats().insertions, 1);
        // Two owner refs (a + its clone inside the first insert path) remain ours.
        let mut owner = a;
        owner.release(&mut pool);
        cache.clear(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        for (i, key) in [[1u32, 1], [2, 2], [3, 3]].iter().enumerate() {
            let mut v = run_of(&mut pool, 1);
            v.tokens = 2;
            assert!(cache.insert(&mut pool, key, v.clone()));
            // The cache is the sole owner from here on.
            let mut owner = v;
            owner.release(&mut pool);
            assert_eq!(cache.entries(), i + 1);
        }
        // Touch [1,1]; LRU is now [2,2].
        assert!(cache.lookup(&[1, 1, 9], 1, 2).is_some());
        let before = pool.in_use();
        cache.evict_lru(&mut pool);
        assert_eq!(pool.in_use(), before - 1);
        assert!(cache.lookup(&[2, 2, 9], 1, 2).is_none(), "[2,2] evicted");
        assert!(cache.lookup(&[1, 1, 9], 1, 2).is_some());
        assert!(cache.lookup(&[3, 3, 9], 1, 2).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
        assert_eq!(s.hit_tokens, 6);
    }

    #[test]
    fn evict_lru_freeing_skips_fully_co_owned_entries() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        // Entry A (older, LRU) shares its single page with entry B — a nested
        // anchor: evicting A alone frees nothing. Entry B adds a page of its own.
        let page_shared = pool.allocate().unwrap();
        let page_own = pool.allocate().unwrap();
        let a = PageRunPrefix {
            tokens: 4,
            runs: vec![vec![page_shared]],
        };
        let b = PageRunPrefix {
            tokens: 8,
            runs: vec![vec![page_shared, page_own]],
        };
        assert!(cache.insert(&mut pool, &[1, 2, 3, 4], a));
        assert!(cache.insert(&mut pool, &[1, 2, 3, 4, 5, 6, 7, 8], b));
        // Drop the allocation-time references; the cache co-owns everything.
        pool.free(page_shared);
        pool.free(page_own);
        assert_eq!(pool.refcount(page_shared), 2); // A + B
        assert_eq!(pool.refcount(page_own), 1); // B only
                                                // Pressure eviction must pick B (frees page_own), not the zero-yield A.
        let freed = cache.evict_lru_freeing(&mut pool).unwrap();
        assert_eq!(freed, 2, "B held two references");
        assert!(cache.is_cached(&[1, 2, 3, 4]), "A survives");
        assert!(!cache.is_cached(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(pool.refcount(page_shared), 1);
        // Now A is the sole owner of the shared page: it qualifies.
        assert!(cache.evict_lru_freeing(&mut pool).is_some());
        assert!(cache.evict_lru_freeing(&mut pool).is_none(), "cache empty");
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn evict_prefixes_of_lets_go_of_one_stream_and_nothing_else() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        // A sequence's nested anchors, and an unrelated prefix beside them.
        let owner = run_of(&mut pool, 2);
        let anchor = PageRunPrefix {
            tokens: 4,
            runs: vec![vec![owner.runs[0][0]]],
        };
        let other = run_of(&mut pool, 1);
        assert!(cache.insert(&mut pool, &[1, 2, 3, 4], anchor));
        assert!(cache.insert(&mut pool, &[1, 2, 3, 4, 5, 6, 7, 8], owner.clone()));
        assert!(cache.insert(&mut pool, &[9, 9, 9, 9], other));
        assert_eq!(pool.refcount(owner.runs[0][0]), 3, "owner + both anchors");
        assert!(
            pool.demote(owner.runs[0][0]).is_none(),
            "co-owned: pinned hot"
        );
        // An entry goes when a page of it is held by the owner and the
        // cache alone. The stream runs past its deepest anchor; while a
        // reader shares the first page the shallow anchor over it stays, and
        // only the deep one — sole pinner of the second page — goes.
        let pair =
            |v: &PageRunPrefix, pool: &PagePool| v.runs[0].iter().any(|&id| pool.refcount(id) == 2);
        let stream = [1, 2, 3, 4, 5, 6, 7, 8, 5, 5];
        pool.retain(owner.runs[0][0]);
        assert_eq!(cache.evict_prefixes_of(&mut pool, &stream, pair), 1);
        assert!(
            cache.is_cached(&[1, 2, 3, 4]),
            "shared: evicting frees nothing"
        );
        assert!(!cache.is_cached(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        // The reader leaves: now the shallow anchor is the last pin, it goes
        // too, and the owner alone holds its pages again.
        pool.free(owner.runs[0][0]);
        assert_eq!(cache.evict_prefixes_of(&mut pool, &stream, pair), 1);
        assert_eq!(cache.entries(), 1);
        assert!(cache.is_cached(&[9, 9, 9, 9]));
        assert_eq!(cache.stats().evictions, 2);
        for &id in &owner.runs[0] {
            assert_eq!(pool.refcount(id), 1);
            assert!(pool.demote(id).is_some(), "sole-owned: free to move");
        }
        assert_eq!(cache.evict_prefixes_of(&mut pool, &stream, pair), 0);
    }

    #[test]
    fn spill_lru_demotes_sole_owned_pages_but_keeps_the_entry() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        // Entry A (older, LRU) shares its page with a "running sequence" (the
        // allocation-time reference we keep): not spillable. Entry B is the
        // sole owner of both its pages: the spill victim despite being fresher.
        let shared = pool.allocate().unwrap();
        let a = PageRunPrefix {
            tokens: 4,
            runs: vec![vec![shared]],
        };
        let b = run_of(&mut pool, 2);
        let b_pages = b.runs[0].clone();
        assert!(cache.insert(&mut pool, &[1, 2], a));
        assert!(cache.insert(&mut pool, &[9, 9], b.clone()));
        let mut owner = b;
        owner.release(&mut pool);
        assert_eq!(cache.spill_lru(&mut pool), Some(2), "both of B's pages");
        for &id in &b_pages {
            assert_eq!(pool.residency(id), Residency::Cold);
        }
        assert_eq!(pool.residency(shared), Residency::Hot, "shared page stays");
        // B is still cached — a hit now pays promotion, not recompute.
        assert!(cache.is_cached(&[9, 9]));
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.stats().evictions, 0, "spill is not eviction");
        // Everything already cold or shared: nothing further to spill.
        assert!(cache.spill_lru(&mut pool).is_none());
        // Eviction of a spilled entry releases cold pages cleanly.
        pool.free(shared);
        cache.clear(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn depth_bounds_respected() {
        let mut pool = pool();
        let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
        let v = run_of(&mut pool, 1);
        assert!(cache.insert(&mut pool, &[4, 5, 6], v.clone()));
        let mut owner = v;
        owner.release(&mut pool);
        // min_match above the entry depth: miss.
        assert!(cache.lookup(&[4, 5, 6, 7], 4, 3).is_none());
        // max_match below the entry depth: miss (the whole prompt is cached, but
        // at least one suffix token must remain to compute logits).
        assert!(cache.lookup(&[4, 5, 6], 1, 2).is_none());
        assert!(cache.lookup(&[4, 5, 6, 7], 3, 3).is_some());
        cache.clear(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }
}
