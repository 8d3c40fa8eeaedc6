//! The page pool's allocator core: slots, reference counts, copy-on-write
//! forks and page access. Where a page *is* — the hot / host / nvme ladder and
//! every move along it — is the child module [`tiers`], the only other code
//! that sees the pool's fields.

pub mod tiers;

use lserve_trace::Tracer;

use crate::{
    config::PagingConfig,
    copy_engine::{CopyEngine, MigrationMode, MigrationStats},
    page::KvPage,
    stats::TierStats,
};
use tiers::{Residency, TierConfig};

/// Opaque handle to a physical page in a [`PagePool`].
///
/// Page tables are `Vec<PageId>`; kernels resolve handles through the pool, the
/// in-memory analogue of PagedAttention's indirect addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub(crate) u32);

impl PageId {
    /// The raw pool index (useful for logging and tests).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hierarchical pool of physical pages with free list and reference counts.
///
/// The **hot tier** plays the role of device KV memory: it is bounded by
/// `capacity` pages, allocation fails ([`None`]) when it is exhausted, and
/// freed pages are recycled. The **cold tier** models host memory — optionally
/// bounded by [`TierConfig::host_pages`] — holding pages explicitly
/// [`PagePool::demote`]d out of the hot tier until a [`PagePool::promote`]
/// brings them back. Below it, an optional **nvme tier** absorbs
/// [`PagePool::spill`]s from a full host (oldest-resident first), an order of
/// magnitude more expensive per hop. [`PageId`]s are stable across
/// migrations, so page tables held by sequences, selectors and the prefix
/// cache stay valid whichever tier a page sits in.
///
/// Reference counts support shared prefixes (several sequences pointing at the
/// same pages); a page referenced by more than one owner is never demoted
/// ([`PagePool::demote`] refuses), which keeps the copy-on-write discipline of
/// prefix sharing intact: a co-owned page is always hot for whoever reads it.
///
/// `in_use` / `free_pages` / `capacity` keep their device semantics (hot pages
/// only), so admission and reservation logic written against the single-tier
/// pool carries over unchanged; [`PagePool::cold_in_use`] and
/// [`PagePool::tier_stats`] expose the host side.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{PagePool, PagingConfig};
/// use lserve_quant::KvPrecision;
///
/// let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
/// let mut pool = PagePool::new(cfg, 2, 8);
/// let a = pool.allocate().unwrap();
/// let b = pool.allocate().unwrap();
/// assert!(pool.allocate().is_none()); // hot capacity 2
/// // Demoting a page frees hot capacity without losing its contents.
/// pool.demote(a).unwrap();
/// let c = pool.allocate().unwrap();
/// assert_eq!(pool.cold_in_use(), 1);
/// pool.free(b);
/// assert!(pool.promote(a).is_some());
/// # let _ = c;
/// ```
#[derive(Debug, Clone)]
pub struct PagePool {
    config: PagingConfig,
    head_dim: usize,
    pages: Vec<Option<KvPage>>,
    refcounts: Vec<u32>,
    residency: Vec<Residency>,
    /// Recycled slot indices (fully-freed pages of either tier).
    free: Vec<PageId>,
    hot_capacity: usize,
    /// Live pages per [`tiers::Tier`]; an in-flight page counts on the
    /// upper tier of its hop.
    slots: [usize; 3],
    peak_in_use: usize,
    forks: u64,
    tier: TierStats,
    tiers: TierConfig,
    /// FIFO spill order of the bounded host: per-slot stamp of when the page
    /// last became host-resident, from the monotonic `host_clock`.
    host_stamp: Vec<u64>,
    host_clock: u64,
    mode: MigrationMode,
    engine: CopyEngine,
    mig: MigrationStats,
    /// Per-slot flag: the in-flight (or landed-but-untouched) promotion was
    /// speculative, issued by the prefetcher. Cleared on the first demand
    /// touch (a hit) or when the page is demoted/freed first (wasted).
    prefetched: Vec<bool>,
    /// Trace handle for copy-engine events; disabled (free) by default.
    /// Riding on the pool puts transfer events in reach of everything that
    /// moves pages — scheduler, executor, selector hooks — without new
    /// plumbing through their signatures.
    tracer: Tracer,
}

impl PagePool {
    /// Creates a pool whose hot (device) tier holds `capacity` pages for heads
    /// of dimension `head_dim`. The cold (host) tier starts empty and is
    /// unbounded. Migrations complete synchronously ([`MigrationMode::Sync`]);
    /// see [`PagePool::new_with_tiers`] for the overlapped engine.
    pub fn new(config: PagingConfig, capacity: usize, head_dim: usize) -> Self {
        let tiers = TierConfig::default();
        Self::new_with_tiers(config, capacity, head_dim, MigrationMode::Sync, tiers)
    }

    /// Creates a pool with an explicit [`MigrationMode`] and [`TierConfig`].
    /// Under [`MigrationMode::Async`] demotions and promotions drain through
    /// the modeled copy engine (see [`crate::copy_engine`]) as compute feeds
    /// [`PagePool::advance_transfer_units`]; outputs of anything built on the
    /// pool are bit-identical across modes — only the latency accounting and
    /// slot timing differ. A bounded host ([`TierConfig::host_pages`] above zero) spills its
    /// oldest-resident pages to the NVMe tier under pressure when
    /// [`TierConfig::nvme`] is on, and refuses demotions otherwise.
    pub fn new_with_tiers(
        config: PagingConfig,
        capacity: usize,
        head_dim: usize,
        mode: MigrationMode,
        tiers: TierConfig,
    ) -> Self {
        Self {
            config,
            head_dim,
            pages: Vec::new(),
            refcounts: Vec::new(),
            residency: Vec::new(),
            free: Vec::new(),
            hot_capacity: capacity,
            slots: [0; 3],
            peak_in_use: 0,
            forks: 0,
            tier: TierStats::default(),
            tiers,
            host_stamp: Vec::new(),
            host_clock: 0,
            mode,
            engine: CopyEngine::default(),
            mig: MigrationStats::default(),
            prefetched: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The migration mode this pool was constructed with.
    pub fn migration_mode(&self) -> MigrationMode {
        self.mode
    }

    /// Attaches a trace handle; tier migrations emit copy-engine events on it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The pool's trace handle (disabled unless [`PagePool::set_tracer`] was
    /// called). Kernel- and selector-level code reaches the shared tracer
    /// through here.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Lifetime copy-engine counters (prefetch outcomes, hidden vs unhidden
    /// transfer units). In [`MigrationMode::Sync`] every migrated unit counts
    /// as unhidden, so [`MigrationStats::migration_stall_tokens`] is
    /// comparable across modes.
    pub fn migration_stats(&self) -> MigrationStats {
        self.mig
    }

    /// Lifetime tier-migration counters (pages and token-units moved each way).
    pub fn tier_stats(&self) -> TierStats {
        self.tier
    }

    /// The paging configuration pages are created with.
    pub fn config(&self) -> PagingConfig {
        self.config
    }

    /// The tier configuration below the hot tier.
    pub fn tier_config(&self) -> TierConfig {
        self.tiers
    }

    /// Hot-tier (device) page slots.
    pub fn capacity(&self) -> usize {
        self.hot_capacity
    }

    /// High-water mark of hot pages in use.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Puts `page` in a recycled slot, or a new one, as a hot page with one
    /// owner. The caller has reclaimed the hot slot it takes.
    fn install(&mut self, page: Option<KvPage>) -> PageId {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = PageId(self.pages.len() as u32);
            self.pages.push(None);
            self.refcounts.push(0);
            self.residency.push(Residency::Hot);
            self.prefetched.push(false);
            self.host_stamp.push(0);
            id
        });
        self.pages[id.index()] = page;
        self.refcounts[id.index()] = 1;
        self.occupy_hot(id);
        id
    }

    /// Allocates a fresh empty hot page, or `None` if the hot tier is full
    /// (after reclaiming any in-flight demotions' slots in async mode).
    pub fn allocate(&mut self) -> Option<PageId> {
        if !self.reclaim_hot_slot() {
            return None;
        }
        Some(self.install(Some(KvPage::new(self.config, self.head_dim))))
    }

    /// Increments the reference count of a live page (prefix sharing).
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn retain(&mut self, id: PageId) {
        assert!(
            self.pages[id.index()].is_some(),
            "retain of free page {id:?}"
        );
        self.refcounts[id.index()] += 1;
    }

    /// Takes one additional reference on every page of the set (prefix
    /// sharing: the caller becomes a co-owner and must eventually release its
    /// copy of the page table).
    pub fn retain_all(&mut self, ids: impl IntoIterator<Item = PageId>) {
        for id in ids {
            self.retain(id);
        }
    }

    /// Decrements the reference count, recycling the page (from whichever tier
    /// it resides in, cancelling any transfer it is riding) when it reaches
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn free(&mut self, id: PageId) {
        let idx = id.index();
        assert!(self.pages[idx].is_some(), "free of unallocated page {id:?}");
        self.refcounts[idx] -= 1;
        if self.refcounts[idx] == 0 {
            self.vacate(id);
            self.pages[idx] = None;
            self.free.push(id);
        }
    }

    /// Shared access to a live page.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    #[inline]
    pub fn page(&self, id: PageId) -> &KvPage {
        self.pages[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("access to unallocated page {id:?}"))
    }

    /// Mutable access to a live page.
    ///
    /// Writing into a page whose transfer is in flight is a hazard (the DMA
    /// would race the write), so a demotion is aborted and every other
    /// transfer — an inbound one, or a spill, whose host slot is no longer
    /// the page's to return to — force-completed (charged as unhidden stall)
    /// first. In practice appends only target the hot tail page; this is the
    /// safety net, not a hot path.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    #[inline]
    pub fn page_mut(&mut self, id: PageId) -> &mut KvPage {
        let in_flight = self.residency.get(id.index()).and_then(|r| r.in_flight());
        if let Some((hop, dir)) = in_flight {
            self.settle_for_write(hop, dir, id);
        }
        self.pages[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("access to unallocated page {id:?}"))
    }

    /// Current reference count of a page (0 if free).
    pub fn refcount(&self, id: PageId) -> u32 {
        self.refcounts[id.index()]
    }

    /// True when the page is referenced by more than one owner (a sequence must
    /// not append into it in place; see [`PagePool::fork`]).
    pub fn is_shared(&self, id: PageId) -> bool {
        self.refcounts[id.index()] > 1
    }

    /// True when at least one page of the set has no other owner, i.e.
    /// releasing the set would return physical pages to the pool.
    pub fn holds_sole_reference(&self, ids: impl IntoIterator<Item = PageId>) -> bool {
        ids.into_iter().any(|id| self.refcount(id) == 1)
    }

    /// Total copy-on-write forks performed over the pool's lifetime.
    pub fn fork_count(&self) -> u64 {
        self.forks
    }

    /// Copy-on-write fork: replaces the caller's reference to `id` with a private
    /// copy of the page's contents (keys, values, quantization params, stats).
    ///
    /// The caller's reference to `id` is dropped (refcount decremented, the page
    /// recycled if that was the last reference) and a fresh page with refcount 1 is
    /// returned. Callers invoke this before appending into a page whose refcount is
    /// above 1, so shared prefix pages are never mutated — the CoW discipline that
    /// makes cross-request prefix sharing safe.
    ///
    /// Returns `None` (caller's reference unchanged) if the hot tier is full.
    /// The fork is always created hot (forking exists to append, and appends
    /// only ever target device-resident pages).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn fork(&mut self, id: PageId) -> Option<PageId> {
        assert!(
            self.pages[id.index()].is_some(),
            "fork of unallocated page {id:?}"
        );
        if !self.reclaim_hot_slot() {
            return None;
        }
        let copy = self.pages[id.index()].clone();
        let new = self.install(copy);
        self.forks += 1;
        self.free(id);
        Some(new)
    }

    /// True when [`PagePool::append_row`] behind page table tail `tail` must
    /// take a fresh hot page: there is no tail yet, it is full, or it is
    /// shared and must be copy-on-write forked first. A scheduler reserving
    /// one free page per such table cannot fail the append.
    pub fn tail_needs_page(&self, tail: Option<PageId>) -> bool {
        tail.is_none_or(|id| self.page(id).is_full() || self.is_shared(id))
    }

    /// Appends one `(key, value)` row behind page table tail `tail`: into the
    /// tail while it has room, into its fork if it is shared (shared pages are
    /// never mutated), or else into a fresh page. Returns which, or `None`
    /// with nothing changed when that needed a hot page and the hot tier is
    /// full.
    pub fn append_row(
        &mut self,
        tail: Option<PageId>,
        key: &[f32],
        value: &[f32],
    ) -> Option<AppendedTo> {
        let (id, to) = match tail {
            Some(id) if !self.page(id).is_full() && !self.is_shared(id) => (id, AppendedTo::Tail),
            Some(id) if !self.page(id).is_full() => {
                let fork = self.fork(id)?;
                (fork, AppendedTo::Fork(fork))
            }
            _ => {
                let fresh = self.allocate()?;
                (fresh, AppendedTo::Fresh(fresh))
            }
        };
        self.page_mut(id).append(key, value);
        Some(to)
    }
}

/// Where [`PagePool::append_row`] wrote a row, and so how the page table it
/// extends changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendedTo {
    /// Into the tail: the table is unchanged.
    Tail,
    /// Into this private copy of the shared tail, which replaces it.
    Fork(PageId),
    /// Into this fresh page, pushed after the tail.
    Fresh(PageId),
}

#[cfg(test)]
mod tests {
    use lserve_quant::KvPrecision;

    use super::*;
    use crate::copy_engine::MigrationDir;
    use crate::page::varied_rows;
    use crate::stats::{nvme_ledger_units, LogicalPageStats};

    fn pool(prec: KvPrecision) -> PagePool {
        PagePool::new(PagingConfig::new(4, 2, prec), 8, 4)
    }

    #[test]
    fn allocate_until_exhausted_then_free() {
        let mut p = pool(KvPrecision::Fp16);
        let ids: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        assert!(p.allocate().is_none());
        assert_eq!(p.in_use(), 8);
        for id in ids {
            p.free(id);
        }
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.peak_in_use(), 8);
    }

    #[test]
    fn allocated_ids_are_distinct() {
        let mut p = pool(KvPrecision::Fp16);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn refcounted_page_survives_one_free() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        p.retain(id);
        p.free(id);
        assert_eq!(p.refcount(id), 1);
        p.page(id); // still accessible
        p.free(id);
        assert_eq!(p.refcount(id), 0);
    }

    #[test]
    fn append_and_read_fp16_is_lossless() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        let k = [1.0, -2.0, 3.0, -4.0];
        let v = [0.5, 0.25, -0.125, 8.0];
        p.page_mut(id).append(&k, &v);
        assert_eq!(p.page(id).key_row(0), &k);
        assert_eq!(p.page(id).value_row(0), &v);
    }

    #[test]
    fn append_quantized_bounded_error() {
        let mut p = pool(KvPrecision::Int4);
        let id = p.allocate().unwrap();
        let k = [1.0f32, -2.0, 3.0, -4.0];
        let v = [0.5f32, 0.25, -0.125, 8.0];
        p.page_mut(id).append(&k, &v);
        let page = p.page(id);
        // INT4 over range 7 → step ~0.47; error <= step/2.
        for (a, b) in page.key_row(0).iter().zip(&k) {
            assert!((a - b).abs() < 0.25);
        }
        for (a, b) in page.value_row(0).iter().zip(&v) {
            assert!((a - b).abs() < 0.3);
        }
    }

    #[test]
    fn side_by_side_scores_are_the_per_page_scores() {
        // 5 logical pages a physical page: one full group of STAT_LANES and
        // a remainder, the last logical page partly filled, then empty ones.
        let (d, nl) = (7, 3);
        let rows = varied_rows(5 * nl, d);
        let q: Vec<f32> = (0..d).map(|i| (i as f32 - 2.5) * 0.6).collect();
        for tokens in [1, nl, 4 * nl + 1, 5 * nl] {
            let mut p = PagePool::new(PagingConfig::new(5 * nl, nl, KvPrecision::Fp16), 1, d);
            let id = p.allocate().unwrap();
            let mut want: Vec<LogicalPageStats> =
                (0..5).map(|_| LogicalPageStats::new(d)).collect();
            for (t, row) in rows[..tokens].iter().enumerate() {
                p.page_mut(id).append(row, row);
                want[t / nl].update(row);
            }
            let page = p.page(id);
            let mut got = [0.0f32; 5];
            page.logical_importance(&q, &mut got);
            let mut merged: Option<LogicalPageStats> = None;
            for (l, stats) in want.iter().enumerate() {
                assert_eq!(&page.logical_stats(l), stats, "tokens {tokens} logical {l}");
                assert_eq!(got[l].to_bits(), stats.importance(&q).to_bits());
                if !stats.is_empty() {
                    match &mut merged {
                        Some(m) => m.merge(stats),
                        None => merged = Some(stats.clone()),
                    }
                }
            }
            let flat = merged.expect("at least one token").importance(&q);
            assert_eq!(page.merged_importance(&q).to_bits(), flat.to_bits());
        }
    }

    #[test]
    fn empty_page_scores_neg_infinity() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        let mut got = [0.0f32; 2];
        p.page(id).logical_importance(&[1.0; 4], &mut got);
        assert_eq!(got, [f32::NEG_INFINITY; 2]);
        assert_eq!(p.page(id).merged_importance(&[1.0; 4]), f32::NEG_INFINITY);
    }

    #[test]
    fn stats_partition_by_logical_page() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        let page = p.page_mut(id);
        // logical page size 2: tokens 0-1 in logical 0, tokens 2-3 in logical 1.
        page.append(&[1.0, 0.0, 0.0, 0.0], &[0.0; 4]);
        page.append(&[2.0, 0.0, 0.0, 0.0], &[0.0; 4]);
        page.append(&[-5.0, 0.0, 0.0, 0.0], &[0.0; 4]);
        assert_eq!(page.logical_stats(0).kmax()[0], 2.0);
        assert_eq!(page.logical_stats(0).kmin()[0], 1.0);
        assert_eq!(page.logical_stats(1).kmin()[0], -5.0);
        assert!(page.logical_stats(1).tokens() == 1);
        assert_eq!(page.occupied_logical_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "append to full page")]
    fn overfull_page_panics() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        for _ in 0..5 {
            p.page_mut(id).append(&[0.0; 4], &[0.0; 4]);
        }
    }

    #[test]
    fn fork_copies_contents_and_drops_source_reference() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        p.page_mut(id)
            .append(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        p.retain(id); // shared: e.g. a prefix-cache entry plus one sequence
        assert!(p.is_shared(id));
        let forked = p.fork(id).unwrap();
        assert_ne!(forked, id);
        assert_eq!(p.refcount(id), 1, "fork drops the caller's reference");
        assert_eq!(p.refcount(forked), 1);
        assert!(!p.is_shared(id));
        assert_eq!(p.fork_count(), 1);
        // Contents are identical but independent.
        assert_eq!(p.page(forked).key_row(0), p.page(id).key_row(0));
        p.page_mut(forked).append(&[9.0; 4], &[9.0; 4]);
        assert_eq!(p.page(id).len(), 1);
        assert_eq!(p.page(forked).len(), 2);
    }

    #[test]
    fn fork_of_sole_reference_recycles_source() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        let forked = p.fork(id).unwrap();
        assert_eq!(p.in_use(), 1, "source page recycled");
        assert_eq!(p.refcount(forked), 1);
    }

    #[test]
    fn fork_fails_cleanly_when_pool_exhausted() {
        let mut p = PagePool::new(PagingConfig::new(4, 2, KvPrecision::Fp16), 1, 4);
        let id = p.allocate().unwrap();
        p.retain(id);
        assert!(p.fork(id).is_none());
        assert_eq!(p.refcount(id), 2, "failed fork leaves references unchanged");
    }

    #[test]
    fn demote_frees_hot_capacity_and_preserves_contents() {
        let mut p = pool(KvPrecision::Fp16);
        let ids: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        p.page_mut(ids[0])
            .append(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        assert!(p.allocate().is_none());
        let units = p.demote(ids[0]).unwrap();
        assert_eq!(units, 4); // physical page size in token-units
        assert!(!p.is_hot(ids[0]));
        assert_eq!(p.in_use(), 7);
        assert_eq!(p.cold_in_use(), 1);
        assert_eq!(p.total_in_use(), 8);
        assert_eq!(p.free_pages(), 1);
        // Freed hot slot is allocatable while the cold page lives on.
        let extra = p.allocate().unwrap();
        assert_ne!(extra, ids[0]);
        assert_eq!(p.page(ids[0]).key_row(0), &[1.0, 2.0, 3.0, 4.0]);
        // Promote fails while the hot tier is full, succeeds after a free.
        assert!(p.promote(ids[0]).is_none());
        p.free(extra);
        assert_eq!(p.promote(ids[0]), Some(4));
        assert!(p.is_hot(ids[0]));
        assert_eq!(p.page(ids[0]).value_row(0), &[5.0, 6.0, 7.0, 8.0]);
        let t = p.tier_stats();
        assert_eq!((t.pages_demoted, t.pages_promoted), (1, 1));
        assert_eq!(t.demoted_token_units, 4);
        assert_eq!(t.promoted_token_units, 4);
    }

    #[test]
    fn demote_refuses_shared_and_double_demote() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        p.retain(id);
        assert!(p.demote(id).is_none(), "co-owned page must stay hot");
        assert!(p.is_hot(id));
        p.free(id);
        assert!(p.demote(id).is_some());
        assert!(p.demote(id).is_none(), "already cold");
        // Promoting a hot page is a free no-op.
        p.promote(id).unwrap();
        assert_eq!(p.promote(id), Some(0));
    }

    #[test]
    fn free_of_cold_page_recycles_slot() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        p.demote(id).unwrap();
        p.free(id);
        assert_eq!(p.cold_in_use(), 0);
        assert_eq!(p.total_in_use(), 0);
        // The recycled slot comes back hot.
        let again = p.allocate().unwrap();
        assert_eq!(again, id);
        assert!(p.is_hot(again));
    }

    #[test]
    fn shared_cold_page_can_be_promoted_and_freed_by_owners() {
        let mut p = pool(KvPrecision::Fp16);
        let id = p.allocate().unwrap();
        p.demote(id).unwrap();
        // A second owner appears while the page is cold (a prefix-cache entry
        // retaining a demoted donor's table).
        p.retain(id);
        assert!(
            p.promote(id).is_some(),
            "promotion is legal on shared pages"
        );
        p.free(id);
        p.free(id);
        assert_eq!(p.total_in_use(), 0);
    }

    #[test]
    fn peak_tracks_hot_tier_only() {
        let mut p = pool(KvPrecision::Fp16);
        let ids: Vec<_> = (0..6).map(|_| p.allocate().unwrap()).collect();
        assert_eq!(p.peak_in_use(), 6);
        for &id in &ids {
            p.demote(id).unwrap();
        }
        let _ = (0..8).map(|_| p.allocate().unwrap()).collect::<Vec<_>>();
        assert_eq!(p.peak_in_use(), 8);
        assert_eq!(p.total_in_use(), 14);
    }

    fn tiered_pool(host_pages: usize, nvme: bool, mode: MigrationMode) -> PagePool {
        PagePool::new_with_tiers(
            PagingConfig::new(4, 2, KvPrecision::Fp16),
            4,
            4,
            mode,
            TierConfig { host_pages, nvme },
        )
    }

    #[test]
    fn bounded_host_without_nvme_refuses_demote() {
        let mut p = tiered_pool(1, false, MigrationMode::Sync);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_eq!(p.demote(a), Some(4));
        assert!(!p.host_has_room());
        assert!(p.demote(b).is_none(), "host full, no nvme: refuse");
        assert!(p.is_hot(b), "refused demotion leaves the page untouched");
        // Freeing the cold page reopens the host.
        p.free(a);
        assert!(p.demote(b).is_some());
        assert_eq!((p.in_use(), p.cold_in_use(), p.nvme_in_use()), (0, 1, 0));
    }

    #[test]
    fn full_host_spills_oldest_resident_first_sync() {
        let mut p = tiered_pool(2, true, MigrationMode::Sync);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        p.page_mut(ids[0]).append(&[1.0; 4], &[2.0; 4]);
        // Host fills with ids[0], ids[1]; demoting ids[2] must spill ids[0]
        // (oldest host-resident) down to nvme.
        assert_eq!(p.demote(ids[0]), Some(4));
        assert_eq!(p.demote(ids[1]), Some(4));
        assert_eq!(p.demote(ids[2]), Some(4));
        assert_eq!(p.residency(ids[0]), Residency::Nvme);
        assert_eq!(p.residency(ids[1]), Residency::Cold);
        assert_eq!(p.residency(ids[2]), Residency::Cold);
        assert_eq!((p.in_use(), p.cold_in_use(), p.nvme_in_use()), (1, 2, 1));
        // Contents survive the trip down.
        assert_eq!(p.page(ids[0]).key_row(0), &[1.0; 4]);
        let t = p.tier_stats();
        assert_eq!(t.pages_spilled, 1);
        assert_eq!(t.spilled_token_units, nvme_ledger_units(4));
        // Promotion from nvme pays both hops: recall (8×4 ledger) + host hop.
        let free_hot = p.allocate().unwrap();
        p.free(free_hot);
        assert_eq!(p.promote(ids[0]), Some(nvme_ledger_units(4) + 4));
        assert!(p.is_hot(ids[0]));
        assert_eq!(p.page(ids[0]).value_row(0), &[2.0; 4]);
        assert_eq!(p.tier_stats().pages_recalled, 1);
        // Zero leaks.
        for id in ids {
            p.free(id);
        }
        assert_eq!(p.total_in_use(), 0);
    }

    #[test]
    fn multi_hop_landing_order_async() {
        let mut p = tiered_pool(1, true, MigrationMode::Async);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        // Demote a: in flight on the host hop, still kernel-readable.
        assert_eq!(p.demote(a), Some(4));
        assert_eq!(p.residency(a), Residency::Migrating(MigrationDir::ToCold));
        assert!(p.is_hot(a));
        p.advance_transfer_units(4);
        assert_eq!(p.residency(a), Residency::Cold);
        // Demote b: host (capacity 1) is full, so the reclaim spills a —
        // which goes in flight on the nvme hop, still host-accounted.
        assert_eq!(p.demote(b), Some(4));
        assert_eq!(
            p.residency(a),
            Residency::MigratingNvme(MigrationDir::ToCold)
        );
        assert_eq!(p.residency(b), Residency::Migrating(MigrationDir::ToCold));
        assert_eq!(p.host_used(), 1, "spill-in-flight cedes its host slot");
        // One advance lands the host hop fully and 4 of the 32 spill units.
        p.advance_transfer_units(4);
        assert_eq!(p.residency(b), Residency::Cold);
        assert_eq!(
            p.residency(a),
            Residency::MigratingNvme(MigrationDir::ToCold)
        );
        p.advance_transfer_units(nvme_ledger_units(4) - 4);
        assert_eq!(p.residency(a), Residency::Nvme);
        assert_eq!((p.in_use(), p.cold_in_use(), p.nvme_in_use()), (0, 1, 1));
        // Prefetch recalls a into the host... but the host is full: declined.
        assert!(!p.prefetch(a));
        p.free(b);
        // Now the recall prefetch is accepted and lands host-resident.
        assert!(p.prefetch(a));
        assert_eq!(
            p.residency(a),
            Residency::MigratingNvme(MigrationDir::ToHot)
        );
        p.advance_transfer_units(nvme_ledger_units(4));
        assert_eq!(p.residency(a), Residency::Cold);
        // A second prefetch round lifts it the rest of the way to hot.
        assert!(p.prefetch(a));
        p.advance_transfer_units(4);
        assert_eq!(p.residency(a), Residency::Hot);
        let m = p.migration_stats();
        assert_eq!(m.prefetch_issued, 1, "two hops, one speculative journey");
        p.free(a);
        assert_eq!(p.total_in_use(), 0, "zero leaks");
    }

    #[test]
    fn spill_is_legal_on_shared_pages_and_frees_cleanly() {
        let mut p = tiered_pool(0, true, MigrationMode::Sync);
        let id = p.allocate().unwrap();
        p.demote(id).unwrap();
        p.retain(id); // co-owned while cold (e.g. a spilled prefix entry)
        assert!(
            p.spill(id).is_some(),
            "spill moves data without mutating it — legal on shared pages"
        );
        assert_eq!(p.residency(id), Residency::Nvme);
        p.free(id);
        p.free(id);
        assert_eq!(p.total_in_use(), 0);
        assert_eq!(p.nvme_in_use(), 0);
    }

    #[test]
    fn freeing_in_flight_nvme_pages_cancels_and_leaks_nothing() {
        let mut p = tiered_pool(0, true, MigrationMode::Async);
        let a = p.allocate().unwrap();
        p.demote(a).unwrap();
        p.advance_transfer_units(4);
        p.spill(a).unwrap();
        assert_eq!(
            p.residency(a),
            Residency::MigratingNvme(MigrationDir::ToCold)
        );
        p.free(a);
        assert_eq!(p.total_in_use(), 0);
        assert_eq!(p.in_flight_transfers(), 0, "cancelled, not landed");
        let m = p.migration_stats();
        assert_eq!(m.cancelled_token_units, nvme_ledger_units(4));
    }

    #[test]
    fn a_page_leaving_mid_promotion_is_not_rebuilt() {
        let mut p = PagePool::new_with_tiers(
            PagingConfig::new(4, 2, KvPrecision::Int4),
            2,
            4,
            MigrationMode::Async,
            TierConfig::default(),
        );
        let id = p.allocate().unwrap();
        p.page_mut(id).append(&[1.0; 4], &[2.0; 4]);
        p.demote(id).unwrap();
        p.advance_transfer_units(4);
        assert!(p.prefetch(id));
        assert_eq!(p.residency(id), Residency::Migrating(MigrationDir::ToHot));
        // `free` is `vacate` then the drop.
        p.vacate(id);
        assert_eq!(p.in_flight_transfers(), 0, "aborted, not landed");
        assert_eq!(p.migration_stats().cancelled_token_units, 4);
    }

    #[test]
    fn ensure_hot_charges_both_hops_from_nvme() {
        let mut p = tiered_pool(0, true, MigrationMode::Async);
        let id = p.allocate().unwrap();
        p.demote(id).unwrap();
        p.advance_transfer_units(4);
        p.spill(id).unwrap();
        p.advance_transfer_units(nvme_ledger_units(4));
        assert_eq!(p.residency(id), Residency::Nvme);
        let (issued, unhidden) = p.ensure_hot(id).unwrap();
        assert_eq!(issued, nvme_ledger_units(4) + 4);
        assert_eq!(
            unhidden,
            nvme_ledger_units(4) + 4,
            "a demand fetch from nvme hides nothing on either hop"
        );
        assert!(p.is_hot(id));
        p.free(id);
        assert_eq!(p.total_in_use(), 0);
    }

    #[test]
    fn reclaim_forces_cheapest_outbound_remainder() {
        // Two outbound transfers; one has partially drained (1 unit left)
        // while the other still holds 4. Reclaim must pick the cheapest and
        // charge only its remainder as forced-unhidden. (The cheapest-vs-
        // oldest distinction with unequal transfer sizes is pinned at the
        // engine level in `force_cheapest_prefers_fewest_remaining_units`.)
        let mut p = PagePool::new_with_tiers(
            PagingConfig::new(4, 2, KvPrecision::Fp16),
            2,
            4,
            MigrationMode::Async,
            TierConfig::default(),
        );
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.demote(a).unwrap();
        p.advance_transfer_units(3); // a: 1 unit left
        p.demote(b).unwrap(); // b: 4 units left
        let before = p.migration_stats().unhidden_token_units;
        let c = p.allocate().unwrap();
        assert_eq!(p.residency(a), Residency::Cold, "cheapest transfer forced");
        assert_eq!(p.residency(b), Residency::Migrating(MigrationDir::ToCold));
        assert_eq!(
            p.migration_stats().unhidden_token_units - before,
            1,
            "only the cheapest remainder is charged"
        );
        let _ = c;
    }

    #[test]
    fn device_bytes_by_precision() {
        let mut p4 = pool(KvPrecision::Int4);
        let id = p4.allocate().unwrap();
        let b4 = p4.page(id).device_bytes();
        let mut pf = pool(KvPrecision::Fp16);
        let idf = pf.allocate().unwrap();
        let bf = pf.page(idf).device_bytes();
        // Tiny test pages make scale/zero metadata relatively large; the data bytes
        // alone are 4x smaller, so the whole page must still be strictly smaller.
        assert!(b4 < bf, "int4 page {b4} should be below fp16 page {bf}");
    }
}
