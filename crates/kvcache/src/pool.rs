//! Physical KV pages and the hierarchical (hot device / bounded host /
//! modeled NVMe) page pool.

use lserve_trace::{lane, Tracer};

use crate::{
    config::PagingConfig,
    copy_engine::{CopyEngine, Hop, MigrationDir, MigrationMode, MigrationStats},
    page::KvPage,
    stats::{nvme_ledger_units, TierStats},
};

/// Which memory tier a live page currently resides in.
///
/// Only **hot** (device-resident) pages may be read by attention kernels; cold
/// pages model KV data offloaded to host memory, where only the page's
/// *metadata* (key statistics for selection, length, refcount) remains cheaply
/// accessible; **nvme** pages sit one modeled hop further down, behind a link
/// an order of magnitude slower (see
/// [`NVME_TRANSFER_SPEEDUP`](crate::NVME_TRANSFER_SPEEDUP)). Migrations
/// between tiers are explicit ([`PagePool::demote`] / [`PagePool::promote`] /
/// [`PagePool::spill`]) and carry a deterministic modeled transfer cost (see
/// [`crate::stats::transfer_cost_tokens`]).
///
/// Under [`MigrationMode::Async`] a page can additionally be **in flight** on
/// the modeled copy engine: `Migrating(ToCold)` pages still occupy their hot
/// slot (and stay kernel-readable — the device copy is the source of the
/// outbound DMA) until the transfer lands, while `Migrating(ToHot)` pages hold
/// a hot slot from issue but become readable only when the inbound transfer
/// lands (or is demand-forced). The NVMe hop mirrors this one tier down:
/// `MigratingNvme(ToCold)` (a spill) occupies its host slot until landing,
/// `MigratingNvme(ToHot)` (a recall) claims a host slot from issue.
/// [`MigrationMode::Sync`] never produces an in-flight state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Device-resident: attention kernels may read the page.
    Hot,
    /// Offloaded to modeled host memory: metadata readable, KV data must be
    /// promoted back before a kernel may touch it.
    Cold,
    /// In flight on the host hop of the copy engine (async mode only).
    Migrating(MigrationDir),
    /// Spilled to the modeled NVMe tier below the host: promotion back to the
    /// hot tier pays the recall *and* the host hop.
    Nvme,
    /// In flight on the nvme hop of the copy engine (async mode only):
    /// `ToCold` is a spill draining out of the host, `ToHot` a recall filling
    /// a host slot.
    MigratingNvme(MigrationDir),
}

/// Capacities of the tiers below the hot device tier.
///
/// The default (`host_pages == 0`, `nvme == false`) reproduces the two-tier
/// pool exactly: an unbounded host and no NVMe tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierConfig {
    /// Host (cold) tier capacity in pages; `0` means unbounded.
    pub host_pages: usize,
    /// Whether the modeled NVMe tier below the host exists. Without it a full
    /// bounded host refuses demotions, pushing the caller to its final
    /// fallback (drop-and-replay).
    pub nvme: bool,
}

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
    hot_in_use: usize,
    cold_in_use: usize,
    nvme_in_use: usize,
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
            hot_in_use: 0,
            cold_in_use: 0,
            nvme_in_use: 0,
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

    /// Emits one copy-engine instant for page `id` on the host hop's lane.
    fn trace_copy(&self, name: &'static str, dir: MigrationDir, id: PageId, units: u64) {
        self.trace_copy_hop(name, Hop::Host, dir, id, units);
    }

    /// Emits one copy-engine instant for page `id` on the channel's lane:
    /// tid 0 = demote, 1 = promote, 2 = spill, 3 = recall.
    fn trace_copy_hop(
        &self,
        name: &'static str,
        hop: Hop,
        dir: MigrationDir,
        id: PageId,
        units: u64,
    ) {
        if self.tracer.is_enabled() {
            let tid = match (hop, dir) {
                (Hop::Host, MigrationDir::ToCold) => 0,
                (Hop::Host, MigrationDir::ToHot) => 1,
                (Hop::Nvme, MigrationDir::ToCold) => 2,
                (Hop::Nvme, MigrationDir::ToHot) => 3,
            };
            self.tracer.instant(
                name,
                "copy",
                lane::COPY,
                tid,
                &[("page", id.index() as u64), ("units", units)],
            );
        }
    }

    /// Lifetime copy-engine counters (prefetch outcomes, hidden vs unhidden
    /// transfer units). In [`MigrationMode::Sync`] every migrated unit counts
    /// as unhidden, so [`MigrationStats::migration_stall_tokens`] is
    /// comparable across modes.
    pub fn migration_stats(&self) -> MigrationStats {
        self.mig
    }

    /// Transfers currently in flight on the copy engine (all four channels).
    pub fn in_flight_transfers(&self) -> usize {
        [Hop::Host, Hop::Nvme]
            .into_iter()
            .flat_map(|hop| {
                [MigrationDir::ToCold, MigrationDir::ToHot]
                    .into_iter()
                    .map(move |dir| self.engine.in_flight_hop(hop, dir))
            })
            .sum()
    }

    /// Residency state of a live page.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn residency(&self, id: PageId) -> Residency {
        assert!(
            self.pages[id.index()].is_some(),
            "residency query on unallocated page {id:?}"
        );
        self.residency[id.index()]
    }

    /// The paging configuration pages are created with.
    pub fn config(&self) -> PagingConfig {
        self.config
    }

    /// Hot-tier (device) page slots.
    pub fn capacity(&self) -> usize {
        self.hot_capacity
    }

    /// Hot (device-resident) pages currently allocated.
    pub fn in_use(&self) -> usize {
        self.hot_in_use
    }

    /// Cold (host-resident) pages currently allocated, including pages in
    /// flight on the nvme hop (both directions claim a host slot; see
    /// [`PagePool::host_used`] for the capacity view).
    pub fn cold_in_use(&self) -> usize {
        self.cold_in_use
    }

    /// NVMe-resident pages currently allocated.
    pub fn nvme_in_use(&self) -> usize {
        self.nvme_in_use
    }

    /// The tier configuration below the hot tier.
    pub fn tier_config(&self) -> TierConfig {
        self.tiers
    }

    /// Host-tier slots the capacity bound must count: cold-resident pages,
    /// plus in-flight demotions (they land in the host), minus in-flight
    /// spills (their host slot is committed to the nvme tier the moment the
    /// spill is issued — this is what lets an async spill relieve host
    /// pressure without being demand-forced).
    pub fn host_used(&self) -> usize {
        self.cold_in_use + self.engine.in_flight_hop(Hop::Host, MigrationDir::ToCold)
            - self.engine.in_flight_hop(Hop::Nvme, MigrationDir::ToCold)
    }

    /// True when the bounded host can still take one more page (always true
    /// for an unbounded host).
    pub fn host_has_room(&self) -> bool {
        self.tiers.host_pages == 0 || self.host_used() < self.tiers.host_pages
    }

    /// Live pages across all tiers.
    pub fn total_in_use(&self) -> usize {
        self.hot_in_use + self.cold_in_use + self.nvme_in_use
    }

    /// Hot pages currently available for allocation. In-flight demotions
    /// count as available: their slots are reclaimable on demand
    /// (allocation force-completes the oldest outbound transfer, charging its
    /// remainder as unhidden stall).
    pub fn free_pages(&self) -> usize {
        self.hot_capacity - self.hot_in_use + self.engine.in_flight(MigrationDir::ToCold)
    }

    /// High-water mark of hot pages in use.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Lifetime tier-migration counters (pages and token-units moved each way).
    pub fn tier_stats(&self) -> TierStats {
        self.tier
    }

    /// Grabs a recycled slot or grows the slot table by one.
    fn take_slot(&mut self) -> PageId {
        match self.free.pop() {
            Some(id) => id,
            None => {
                let id = PageId(self.pages.len() as u32);
                self.pages.push(None);
                self.refcounts.push(0);
                self.residency.push(Residency::Hot);
                self.prefetched.push(false);
                self.host_stamp.push(0);
                id
            }
        }
    }

    /// Marks slot `idx` as freshly host-resident for the FIFO spill order.
    fn stamp_host(&mut self, idx: usize) {
        self.host_clock += 1;
        self.host_stamp[idx] = self.host_clock;
    }

    /// Applies the residency flip of a landed host-hop transfer. Slot
    /// accounting for promotions happened at issue; demotions hand their hot
    /// slot over here.
    fn land(&mut self, dir: MigrationDir, id: PageId) {
        self.land_hop(Hop::Host, dir, id);
    }

    /// Applies the residency flip of a landed transfer on either hop.
    fn land_hop(&mut self, hop: Hop, dir: MigrationDir, id: PageId) {
        let idx = id.index();
        self.trace_copy_hop("land", hop, dir, id, 0);
        match hop {
            Hop::Host => {
                debug_assert_eq!(self.residency[idx], Residency::Migrating(dir));
                match dir {
                    MigrationDir::ToCold => {
                        self.residency[idx] = Residency::Cold;
                        self.hot_in_use -= 1;
                        self.cold_in_use += 1;
                        self.stamp_host(idx);
                    }
                    MigrationDir::ToHot => self.residency[idx] = Residency::Hot,
                }
            }
            Hop::Nvme => {
                debug_assert_eq!(self.residency[idx], Residency::MigratingNvme(dir));
                match dir {
                    // A landed spill hands its host slot over to the nvme tier.
                    MigrationDir::ToCold => {
                        self.residency[idx] = Residency::Nvme;
                        self.cold_in_use -= 1;
                        self.nvme_in_use += 1;
                    }
                    // A landed recall becomes an ordinary host-resident page.
                    MigrationDir::ToHot => {
                        self.residency[idx] = Residency::Cold;
                        self.stamp_host(idx);
                    }
                }
            }
        }
    }

    /// Force-completes the oldest in-flight host-hop transfer in `dir`,
    /// charging its remainder as unhidden stall. Returns `false` when the
    /// queue is empty.
    fn force_oldest(&mut self, dir: MigrationDir) -> bool {
        self.force_oldest_hop(Hop::Host, dir)
    }

    /// Force-completes the oldest in-flight transfer on `hop` in `dir`.
    fn force_oldest_hop(&mut self, hop: Hop, dir: MigrationDir) -> bool {
        let Some((page, remaining, _prefetch)) = self.engine.force_head_hop(hop, dir) else {
            return false;
        };
        self.trace_copy_hop("force", hop, dir, page, remaining);
        self.mig.unhidden_token_units += remaining;
        self.mig.forced_completions += 1;
        self.land_hop(hop, dir, page);
        true
    }

    /// Force-completes the *cheapest* in-flight outbound transfer (fewest
    /// remaining units — the minimal forced-unhidden charge for one hot
    /// slot), charging its remainder as unhidden stall. Returns `false` when
    /// the queue is empty.
    fn force_cheapest_outbound(&mut self) -> bool {
        let Some((page, remaining, _prefetch)) = self.engine.force_cheapest(MigrationDir::ToCold)
        else {
            return false;
        };
        self.trace_copy("force", MigrationDir::ToCold, page, remaining);
        self.mig.unhidden_token_units += remaining;
        self.mig.forced_completions += 1;
        self.land(MigrationDir::ToCold, page);
        true
    }

    /// Frees one hot slot by force-completing outbound transfers, cheapest
    /// (fewest remaining units) first — the oldest transfer may have been
    /// issued large while a younger one is nearly drained, and any landed
    /// demotion frees the same one slot. Returns `false` when the hot tier is
    /// genuinely full (nothing reclaimable).
    fn reclaim_hot_slot(&mut self) -> bool {
        while self.hot_in_use >= self.hot_capacity {
            if !self.force_cheapest_outbound() {
                return false;
            }
        }
        true
    }

    /// Frees one bounded-host slot by spilling the oldest host-resident page
    /// to the nvme tier. Returns `false` when the host is full and no spill
    /// can relieve it (no nvme tier, or nothing spillable) — the caller's
    /// demotion must fail, leaving drop-and-replay as the fallback. Always
    /// `true` for an unbounded host.
    fn reclaim_host_slot(&mut self) -> bool {
        if self.tiers.host_pages == 0 {
            return true;
        }
        while !self.host_has_room() {
            if !self.tiers.nvme || !self.spill_oldest_cold() {
                return false;
            }
        }
        true
    }

    /// Spills the oldest (FIFO by host-residency stamp, page index on a tie)
    /// cold page to the nvme tier. Returns `false` when no page is
    /// `Residency::Cold`.
    fn spill_oldest_cold(&mut self) -> bool {
        let victim = self
            .residency
            .iter()
            .enumerate()
            .filter(|&(idx, r)| *r == Residency::Cold && self.pages[idx].is_some())
            .min_by_key(|&(idx, _)| (self.host_stamp[idx], idx))
            .map(|(idx, _)| PageId(idx as u32));
        match victim {
            Some(id) => self.spill(id).is_some(),
            None => false,
        }
    }

    /// Records a demand touch on a prefetched page (the prefetch paid off).
    fn touch_prefetched(&mut self, idx: usize) {
        if self.prefetched[idx] {
            self.prefetched[idx] = false;
            self.mig.prefetch_hits += 1;
        }
    }

    /// Records a prefetched page leaving before any demand touch.
    fn waste_prefetched(&mut self, idx: usize) {
        if self.prefetched[idx] {
            self.prefetched[idx] = false;
            self.mig.prefetch_wasted += 1;
        }
    }

    /// Allocates a fresh empty hot page, or `None` if the hot tier is full
    /// (after reclaiming any in-flight demotions' slots in async mode).
    pub fn allocate(&mut self) -> Option<PageId> {
        if !self.reclaim_hot_slot() {
            return None;
        }
        let id = self.take_slot();
        self.pages[id.index()] = Some(KvPage::new(self.config, self.head_dim));
        self.refcounts[id.index()] = 1;
        self.residency[id.index()] = Residency::Hot;
        self.prefetched[id.index()] = false;
        self.hot_in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.hot_in_use);
        Some(id)
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

    /// Decrements the reference count, recycling the page (from whichever tier
    /// it resides in) when it reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn free(&mut self, id: PageId) {
        let idx = id.index();
        assert!(self.pages[idx].is_some(), "free of unallocated page {id:?}");
        self.refcounts[idx] -= 1;
        if self.refcounts[idx] == 0 {
            self.waste_prefetched(idx);
            self.pages[idx] = None;
            match self.residency[idx] {
                Residency::Hot => self.hot_in_use -= 1,
                Residency::Cold => self.cold_in_use -= 1,
                Residency::Nvme => self.nvme_in_use -= 1,
                // An in-flight transfer of a dying page is cancelled, not
                // landed: its slot accounting is still on the hot side in
                // both directions (see `land`).
                Residency::Migrating(dir) => {
                    let (remaining, _) = self
                        .engine
                        .cancel(dir, id)
                        .expect("migrating page must be in flight");
                    self.trace_copy("cancel", dir, id, remaining);
                    self.mig.cancelled_token_units += remaining;
                    self.hot_in_use -= 1;
                }
                // Nvme-hop in-flight pages count as host-resident in both
                // directions (see `land_hop`).
                Residency::MigratingNvme(dir) => {
                    let (remaining, _) = self
                        .engine
                        .cancel_hop(Hop::Nvme, dir, id)
                        .expect("migrating page must be in flight");
                    self.trace_copy_hop("cancel", Hop::Nvme, dir, id, remaining);
                    self.mig.cancelled_token_units += remaining;
                    self.cold_in_use -= 1;
                }
            }
            self.residency[idx] = Residency::Hot;
            self.free.push(id);
        }
    }

    /// True when the page is kernel-readable on the device: `Hot`, or still
    /// draining out (`Migrating(ToCold)` — the device copy is the transfer
    /// source and remains valid until the slot is handed over). An inbound
    /// `Migrating(ToHot)` page is *not* readable until its transfer lands.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn is_hot(&self, id: PageId) -> bool {
        assert!(
            self.pages[id.index()].is_some(),
            "residency query on unallocated page {id:?}"
        );
        matches!(
            self.residency[id.index()],
            Residency::Hot | Residency::Migrating(MigrationDir::ToCold)
        )
    }

    /// True when the page holds a hot slot of its own that is not on its way
    /// out: `Hot`, or inbound. Reading such a page takes nothing from
    /// [`PagePool::free_pages`]; reading any other does — a page below the hot
    /// tier needs a slot, and a page draining out holds one that
    /// `free_pages` already counts as free.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn holds_slot(&self, id: PageId) -> bool {
        matches!(
            self.residency(id),
            Residency::Hot | Residency::Migrating(MigrationDir::ToHot)
        )
    }

    /// Moves a hot page to the cold (host) tier, freeing one hot slot without
    /// losing the page's contents. Returns the modeled transfer cost in
    /// token-units (see [`crate::stats::transfer_cost_tokens`]).
    ///
    /// Returns `None` — and leaves the page untouched — when the page is
    /// already below the hot tier, when it is **co-owned** (refcount above 1):
    /// a page shared with the prefix cache or another sequence must stay hot
    /// for its other readers, exactly as copy-on-write forbids appending into
    /// it — or when a **bounded host** is full and cannot spill (no nvme
    /// tier): the caller's fallback is then drop-and-replay.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn demote(&mut self, id: PageId) -> Option<u64> {
        let idx = id.index();
        assert!(
            self.pages[idx].is_some(),
            "demote of unallocated page {id:?}"
        );
        if self.refcounts[idx] > 1 {
            return None;
        }
        match self.residency[idx] {
            Residency::Cold
            | Residency::Migrating(MigrationDir::ToCold)
            | Residency::Nvme
            | Residency::MigratingNvme(_) => return None,
            Residency::Hot | Residency::Migrating(MigrationDir::ToHot) => {}
        }
        // Make host room *before* touching the page, so a refused demotion
        // (bounded host, nothing spillable) leaves it exactly as it was.
        if !self.reclaim_host_slot() {
            return None;
        }
        let units = self.config.physical_page_size() as u64;
        match self.residency[idx] {
            Residency::Migrating(MigrationDir::ToHot) => {
                // Abort the inbound transfer: the page is wanted cold again
                // before it ever became readable. The spent bandwidth is
                // wasted traffic, charged to neither stall bucket.
                let (remaining, _) = self
                    .engine
                    .cancel(MigrationDir::ToHot, id)
                    .expect("migrating page must be in flight");
                self.trace_copy("cancel", MigrationDir::ToHot, id, remaining);
                self.mig.cancelled_token_units += remaining;
                self.waste_prefetched(idx);
            }
            Residency::Hot => self.waste_prefetched(idx),
            _ => unreachable!("filtered above"),
        }
        self.trace_copy("demote.issue", MigrationDir::ToCold, id, units);
        match self.mode {
            MigrationMode::Sync => {
                self.residency[idx] = Residency::Cold;
                self.hot_in_use -= 1;
                self.cold_in_use += 1;
                self.stamp_host(idx);
                self.mig.unhidden_token_units += units;
            }
            MigrationMode::Async => {
                // The hot slot stays occupied (and readable) until the
                // outbound transfer lands; a full queue force-completes its
                // oldest entry first, modeling a blocked copy stream.
                if self.engine.is_full(MigrationDir::ToCold) {
                    self.force_oldest(MigrationDir::ToCold);
                }
                self.residency[idx] = Residency::Migrating(MigrationDir::ToCold);
                self.engine.issue(MigrationDir::ToCold, id, units, false);
            }
        }
        self.tier.pages_demoted += 1;
        self.tier.demoted_token_units += units;
        Some(units)
    }

    /// Spills a cold (host-resident) page down to the nvme tier, freeing one
    /// bounded-host slot. Returns the modeled transfer cost in host-ledger
    /// units ([`crate::nvme_ledger_units`] of the page size), or `None` when
    /// the nvme tier is off or the page is not `Residency::Cold`.
    ///
    /// Unlike [`PagePool::demote`], spilling is legal on **co-owned** pages:
    /// within the cold tiers data stays readable through the pool either way,
    /// so a shared reader loses nothing — it just pays the recall on its next
    /// promotion. The spill cost is charged to the pool's migration ledger
    /// (unhidden under [`MigrationMode::Sync`]), not the caller's work clock,
    /// matching the demotion convention.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn spill(&mut self, id: PageId) -> Option<u64> {
        let idx = id.index();
        assert!(
            self.pages[idx].is_some(),
            "spill of unallocated page {id:?}"
        );
        if !self.tiers.nvme || self.residency[idx] != Residency::Cold {
            return None;
        }
        let ledger = nvme_ledger_units(self.config.physical_page_size() as u64);
        self.trace_copy_hop("spill.issue", Hop::Nvme, MigrationDir::ToCold, id, ledger);
        match self.mode {
            MigrationMode::Sync => {
                self.residency[idx] = Residency::Nvme;
                self.cold_in_use -= 1;
                self.nvme_in_use += 1;
                self.mig.unhidden_token_units += ledger;
            }
            MigrationMode::Async => {
                if self.engine.is_full_hop(Hop::Nvme, MigrationDir::ToCold) {
                    self.force_oldest_hop(Hop::Nvme, MigrationDir::ToCold);
                }
                self.residency[idx] = Residency::MigratingNvme(MigrationDir::ToCold);
                self.engine
                    .issue_hop(Hop::Nvme, MigrationDir::ToCold, id, ledger, false);
            }
        }
        self.tier.pages_spilled += 1;
        self.tier.spilled_token_units += ledger;
        Some(ledger)
    }

    /// Demand-recalls an nvme page into the host tier, fully unhidden (a
    /// demand fetch from the slow tier hides nothing in either mode).
    /// Returns the recall's ledger units.
    fn demand_recall(&mut self, id: PageId) -> u64 {
        let idx = id.index();
        debug_assert_eq!(self.residency[idx], Residency::Nvme);
        let ledger = nvme_ledger_units(self.config.physical_page_size() as u64);
        self.trace_copy_hop("recall.force", Hop::Nvme, MigrationDir::ToHot, id, ledger);
        self.mig.unhidden_token_units += ledger;
        self.mig.forced_completions += 1;
        self.nvme_in_use -= 1;
        self.cold_in_use += 1;
        self.residency[idx] = Residency::Cold;
        self.stamp_host(idx);
        self.tier.pages_recalled += 1;
        self.tier.recalled_token_units += ledger;
        ledger
    }

    /// Brings a page back to the hot tier so kernels may read it again,
    /// across however many hops its residency requires (`Nvme` pages pay the
    /// recall *and* the host hop). Returns the modeled transfer cost in
    /// ledger units this call issued — `Some(0)` when the page was already
    /// hot (no transfer happened) — or `None` when the hot tier is full (free
    /// or demote something first).
    ///
    /// Promotion is legal on shared pages (it moves data, never mutates it).
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn promote(&mut self, id: PageId) -> Option<u64> {
        let idx = id.index();
        assert!(
            self.pages[idx].is_some(),
            "promote of unallocated page {id:?}"
        );
        match self.residency[idx] {
            Residency::Hot => {
                self.touch_prefetched(idx);
                return Some(0);
            }
            // Already inbound: the promotion is in flight, nothing new moves.
            Residency::Migrating(MigrationDir::ToHot) => return Some(0),
            // Still draining out: abort the outbound transfer and keep the
            // device copy — a free promotion (the data never left).
            Residency::Migrating(MigrationDir::ToCold) => {
                let (remaining, _) = self
                    .engine
                    .cancel(MigrationDir::ToCold, id)
                    .expect("migrating page must be in flight");
                self.trace_copy("cancel", MigrationDir::ToCold, id, remaining);
                self.mig.cancelled_token_units += remaining;
                self.residency[idx] = Residency::Hot;
                return Some(0);
            }
            Residency::Cold | Residency::Nvme | Residency::MigratingNvme(_) => {}
        }
        if !self.reclaim_hot_slot() {
            return None;
        }
        // Multi-hop: bring the page into the host tier first, then the host
        // hop below proceeds exactly as for an ordinary cold page.
        let recalled = match self.residency[idx] {
            Residency::Cold => 0,
            // Demand-recall from the slow tier (fully unhidden in both modes).
            Residency::Nvme => {
                let ledger = self.demand_recall(id);
                self.touch_prefetched(idx);
                ledger
            }
            // Still spilling out: abort the spill and keep the host copy — a
            // free recall (the data never left the host).
            Residency::MigratingNvme(MigrationDir::ToCold) => {
                let (remaining, _) = self
                    .engine
                    .cancel_hop(Hop::Nvme, MigrationDir::ToCold, id)
                    .expect("migrating page must be in flight");
                self.trace_copy_hop("cancel", Hop::Nvme, MigrationDir::ToCold, id, remaining);
                self.mig.cancelled_token_units += remaining;
                self.residency[idx] = Residency::Cold;
                self.stamp_host(idx);
                0
            }
            // Recall already inbound: force the remainder and land it.
            Residency::MigratingNvme(MigrationDir::ToHot) => {
                let (remaining, _) = self
                    .engine
                    .force_page_hop(Hop::Nvme, MigrationDir::ToHot, id)
                    .expect("migrating page must be in flight");
                self.trace_copy_hop("force", Hop::Nvme, MigrationDir::ToHot, id, remaining);
                self.mig.unhidden_token_units += remaining;
                if remaining > 0 {
                    self.mig.forced_completions += 1;
                }
                self.land_hop(Hop::Nvme, MigrationDir::ToHot, id);
                self.touch_prefetched(idx);
                0
            }
            _ => unreachable!("filtered above"),
        };
        let units = self.config.physical_page_size() as u64;
        self.trace_copy("promote.issue", MigrationDir::ToHot, id, units);
        self.cold_in_use -= 1;
        self.hot_in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.hot_in_use);
        match self.mode {
            MigrationMode::Sync => {
                self.residency[idx] = Residency::Hot;
                self.mig.unhidden_token_units += units;
            }
            MigrationMode::Async => {
                if self.engine.is_full(MigrationDir::ToHot) {
                    self.force_oldest(MigrationDir::ToHot);
                }
                self.residency[idx] = Residency::Migrating(MigrationDir::ToHot);
                self.engine.issue(MigrationDir::ToHot, id, units, false);
            }
        }
        self.tier.pages_promoted += 1;
        self.tier.promoted_token_units += units;
        Some(recalled + units)
    }

    /// Makes `id` kernel-readable *now*, forcing any in-flight inbound
    /// transfer to completion. Returns `(issued, unhidden)` token-units: the
    /// new transfer traffic this call generated and the fraction of transfer
    /// cost the caller must absorb as stall. `None` when the hot tier is full.
    ///
    /// In [`MigrationMode::Sync`] this is exactly [`PagePool::promote`] with
    /// the full cost unhidden. In [`MigrationMode::Async`]:
    ///
    /// * `Hot` / outbound-in-flight pages cost nothing (an outbound transfer
    ///   is aborted for free — the device copy never left);
    /// * an inbound-in-flight page charges only its *remaining* units — the
    ///   part overlap didn't hide (a prefetch that landed early is free);
    /// * a cold page issues a promotion and forces it immediately (demand
    ///   fetch, nothing hidden).
    pub fn ensure_hot(&mut self, id: PageId) -> Option<(u64, u64)> {
        if self.mode == MigrationMode::Sync {
            return self.promote(id).map(|u| (u, u));
        }
        let idx = id.index();
        match self.residency[idx] {
            Residency::Hot => {
                self.touch_prefetched(idx);
                Some((0, 0))
            }
            Residency::Migrating(MigrationDir::ToCold) => {
                let (remaining, _) = self
                    .engine
                    .cancel(MigrationDir::ToCold, id)
                    .expect("migrating page must be in flight");
                self.trace_copy("cancel", MigrationDir::ToCold, id, remaining);
                self.mig.cancelled_token_units += remaining;
                self.residency[idx] = Residency::Hot;
                Some((0, 0))
            }
            Residency::Migrating(MigrationDir::ToHot) => {
                let (remaining, _) = self
                    .engine
                    .force_page(MigrationDir::ToHot, id)
                    .expect("migrating page must be in flight");
                self.trace_copy("force", MigrationDir::ToHot, id, remaining);
                self.mig.unhidden_token_units += remaining;
                if remaining > 0 {
                    self.mig.forced_completions += 1;
                }
                self.land(MigrationDir::ToHot, id);
                self.touch_prefetched(idx);
                Some((0, remaining))
            }
            Residency::Cold => {
                let issued = self.promote(id)?;
                let (remaining, _) = self
                    .engine
                    .force_page(MigrationDir::ToHot, id)
                    .expect("promotion just issued");
                self.trace_copy("force", MigrationDir::ToHot, id, remaining);
                self.mig.unhidden_token_units += remaining;
                self.mig.forced_completions += 1;
                self.land(MigrationDir::ToHot, id);
                Some((issued, remaining))
            }
            // Below the host: multi-hop demand fetch. `promote` settles the
            // nvme hop (demand recall / cancel / force); whatever host-hop
            // promotion it issued is then forced like the `Cold` arm, and the
            // unhidden delta captures both hops' stall.
            Residency::Nvme | Residency::MigratingNvme(_) => {
                let before = self.mig.unhidden_token_units;
                let issued = self.promote(id)?;
                if self.residency[idx] == Residency::Migrating(MigrationDir::ToHot) {
                    let (remaining, _) = self
                        .engine
                        .force_page(MigrationDir::ToHot, id)
                        .expect("promotion just issued");
                    self.trace_copy("force", MigrationDir::ToHot, id, remaining);
                    self.mig.unhidden_token_units += remaining;
                    self.mig.forced_completions += 1;
                    self.land(MigrationDir::ToHot, id);
                }
                Some((issued, self.mig.unhidden_token_units - before))
            }
        }
    }

    /// Speculatively moves a below-hot page one hop up on the copy engine
    /// (async mode only). A cold page promotes toward the hot tier; an nvme
    /// page recalls into the host tier (a later prefetch round can then lift
    /// it the rest of the way). Cheap and best-effort: declined — returning
    /// `false` — when the page is already hot or in flight, the destination
    /// tier has no genuinely free slot (prefetch never steals via reclaim),
    /// or the hop's inbound queue is full.
    pub fn prefetch(&mut self, id: PageId) -> bool {
        let idx = id.index();
        assert!(
            self.pages[idx].is_some(),
            "prefetch of unallocated page {id:?}"
        );
        if self.mode != MigrationMode::Async {
            return false;
        }
        match self.residency[idx] {
            Residency::Cold => {
                if self.hot_in_use >= self.hot_capacity || self.engine.is_full(MigrationDir::ToHot)
                {
                    return false;
                }
                let units = self.config.physical_page_size() as u64;
                self.trace_copy("prefetch.issue", MigrationDir::ToHot, id, units);
                self.cold_in_use -= 1;
                self.hot_in_use += 1;
                self.peak_in_use = self.peak_in_use.max(self.hot_in_use);
                self.residency[idx] = Residency::Migrating(MigrationDir::ToHot);
                self.engine.issue(MigrationDir::ToHot, id, units, true);
                self.prefetched[idx] = true;
                self.mig.prefetch_issued += 1;
                self.tier.pages_promoted += 1;
                self.tier.promoted_token_units += units;
                true
            }
            Residency::Nvme => {
                if !self.host_has_room() || self.engine.is_full_hop(Hop::Nvme, MigrationDir::ToHot)
                {
                    return false;
                }
                let ledger = nvme_ledger_units(self.config.physical_page_size() as u64);
                self.trace_copy_hop("prefetch.issue", Hop::Nvme, MigrationDir::ToHot, id, ledger);
                self.nvme_in_use -= 1;
                self.cold_in_use += 1;
                self.residency[idx] = Residency::MigratingNvme(MigrationDir::ToHot);
                self.engine
                    .issue_hop(Hop::Nvme, MigrationDir::ToHot, id, ledger, true);
                self.prefetched[idx] = true;
                self.mig.prefetch_issued += 1;
                self.tier.pages_recalled += 1;
                self.tier.recalled_token_units += ledger;
                true
            }
            _ => false,
        }
    }

    /// Feeds `units` ledger units of overlapped compute to the copy engine:
    /// each of the four hop×direction channels drains up to `units`
    /// (independent modeled DMA links), landing finished transfers and
    /// crediting the drained traffic as hidden. A no-op in
    /// [`MigrationMode::Sync`].
    pub fn advance_transfer_units(&mut self, units: u64) {
        let (landed, drained) = self.engine.advance(units);
        self.mig.hidden_token_units += drained;
        for (hop, dir, page) in landed {
            self.land_hop(hop, dir, page);
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
    /// would race the write), so an outbound transfer is aborted and an
    /// inbound one force-completed (charged as unhidden stall) first. In
    /// practice appends only target the hot tail page; this is the safety
    /// net, not a hot path.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    #[inline]
    pub fn page_mut(&mut self, id: PageId) -> &mut KvPage {
        match self.residency.get(id.index()) {
            Some(Residency::Migrating(MigrationDir::ToCold)) => {
                let (remaining, _) = self
                    .engine
                    .cancel(MigrationDir::ToCold, id)
                    .expect("migrating page must be in flight");
                self.trace_copy("cancel", MigrationDir::ToCold, id, remaining);
                self.mig.cancelled_token_units += remaining;
                self.residency[id.index()] = Residency::Hot;
            }
            Some(Residency::Migrating(MigrationDir::ToHot)) => {
                let (remaining, _) = self
                    .engine
                    .force_page(MigrationDir::ToHot, id)
                    .expect("migrating page must be in flight");
                self.trace_copy("force", MigrationDir::ToHot, id, remaining);
                self.mig.unhidden_token_units += remaining;
                self.mig.forced_completions += 1;
                self.land(MigrationDir::ToHot, id);
            }
            Some(Residency::MigratingNvme(MigrationDir::ToCold)) => {
                let (remaining, _) = self
                    .engine
                    .cancel_hop(Hop::Nvme, MigrationDir::ToCold, id)
                    .expect("migrating page must be in flight");
                self.trace_copy_hop("cancel", Hop::Nvme, MigrationDir::ToCold, id, remaining);
                self.mig.cancelled_token_units += remaining;
                self.residency[id.index()] = Residency::Cold;
                self.stamp_host(id.index());
            }
            Some(Residency::MigratingNvme(MigrationDir::ToHot)) => {
                let (remaining, _) = self
                    .engine
                    .force_page_hop(Hop::Nvme, MigrationDir::ToHot, id)
                    .expect("migrating page must be in flight");
                self.trace_copy_hop("force", Hop::Nvme, MigrationDir::ToHot, id, remaining);
                self.mig.unhidden_token_units += remaining;
                self.mig.forced_completions += 1;
                self.land_hop(Hop::Nvme, MigrationDir::ToHot, id);
            }
            _ => {}
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

    /// Pages currently referenced by more than one owner (prefix-cache sharing).
    pub fn shared_pages(&self) -> usize {
        self.refcounts.iter().filter(|&&rc| rc > 1).count()
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
        let new = self.take_slot();
        self.pages[new.index()] = copy;
        self.refcounts[new.index()] = 1;
        self.residency[new.index()] = Residency::Hot;
        self.prefetched[new.index()] = false;
        self.hot_in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.hot_in_use);
        self.forks += 1;
        self.free(id);
        Some(new)
    }
}

#[cfg(test)]
mod tests {
    use lserve_quant::KvPrecision;

    use super::*;
    use crate::page::varied_rows;
    use crate::stats::LogicalPageStats;

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
        assert_eq!(p.shared_pages(), 1);
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
        assert_eq!(m.prefetch_issued, 2);
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
