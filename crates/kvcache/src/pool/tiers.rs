//! The tier ladder: where a live page is, and the one state machine that
//! moves it.
//!
//! Hot (device), host and nvme are three rungs joined by two [`Hop`]s; a page
//! is either resident on a rung or in flight across one hop in one
//! [`MigrationDir`]. Four private transitions — `issue`, `land`, `cancel`,
//! `force`, each taking `(hop, dir)` — are the only code that edits
//! residency, the per-tier slot counts, the host FIFO stamp, the copy
//! engine's queues, [`MigrationStats`] / [`TierStats`] and the copy lane of
//! the trace. They share one accounting rule:
//!
//! > **An in-flight page's slot is counted on the upper tier of its hop, in
//! > both directions.** An outbound page keeps its upper slot until it lands;
//! > an inbound page claims one when it is issued.
//!
//! Everything public here — [`PagePool::demote`], [`PagePool::spill`],
//! [`PagePool::promote`], [`PagePool::ensure_hot`], [`PagePool::prefetch`] —
//! is *policy*: who may move, and where the room comes from.
//! [`MigrationMode::Sync`] is not a second path: it is `issue` followed at
//! once by `land`, with the units charged unhidden, inside `issue`.

use lserve_trace::lane;

use super::{PageId, PagePool};
use crate::{
    copy_engine::{Hop, MigrationDir, MigrationMode},
    stats::nvme_ledger_units,
};

use MigrationDir::{ToCold, ToHot};

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
/// [`MigrationMode::Sync`] never leaves a page in flight.
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

/// A rung of the ladder; indexes the pool's per-tier slot counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Tier {
    Hot,
    Host,
    Nvme,
}

impl Hop {
    /// The rung nearer the device.
    fn upper(self) -> Tier {
        match self {
            Hop::Host => Tier::Hot,
            Hop::Nvme => Tier::Host,
        }
    }

    /// The rung farther from the device.
    fn lower(self) -> Tier {
        match self {
            Hop::Host => Tier::Host,
            Hop::Nvme => Tier::Nvme,
        }
    }
}

impl Residency {
    fn resident(tier: Tier) -> Self {
        match tier {
            Tier::Hot => Residency::Hot,
            Tier::Host => Residency::Cold,
            Tier::Nvme => Residency::Nvme,
        }
    }

    fn migrating(hop: Hop, dir: MigrationDir) -> Self {
        match hop {
            Hop::Host => Residency::Migrating(dir),
            Hop::Nvme => Residency::MigratingNvme(dir),
        }
    }

    /// The transfer a page in this state rides, if any.
    pub(super) fn in_flight(self) -> Option<(Hop, MigrationDir)> {
        match self {
            Residency::Migrating(dir) => Some((Hop::Host, dir)),
            Residency::MigratingNvme(dir) => Some((Hop::Nvme, dir)),
            Residency::Hot | Residency::Cold | Residency::Nvme => None,
        }
    }

    /// The tier whose slot count carries a page in this state: its own rung
    /// when resident, the upper tier of its hop when in flight.
    fn tier(self) -> Tier {
        match self {
            Residency::Hot | Residency::Migrating(_) => Tier::Hot,
            Residency::Cold | Residency::MigratingNvme(_) => Tier::Host,
            Residency::Nvme => Tier::Nvme,
        }
    }
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

/// What a whole-set migration moved: pages that crossed a link, the ledger
/// units issued for them, and the part of those units the caller waited for
/// rather than left to the copy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Moved {
    /// Pages a transfer was issued for.
    pub pages: u64,
    /// Ledger units issued (see [`crate::stats::transfer_cost_tokens`]).
    pub units: u64,
    /// The part of the transfer cost the call stalled for.
    pub unhidden: u64,
}

impl Moved {
    /// One page's move: `units` issued for it (none if it did not have to
    /// move), `unhidden` of its transfer cost waited for.
    fn page(units: u64, unhidden: u64) -> Self {
        Moved {
            pages: u64::from(units > 0),
            units,
            unhidden,
        }
    }
}

impl std::ops::AddAssign for Moved {
    fn add_assign(&mut self, other: Self) {
        self.pages += other.pages;
        self.units += other.units;
        self.unhidden += other.unhidden;
    }
}

/// Why a transfer is issued, which decides how it completes and what the
/// ledgers call it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// Policy moved the page; the copy engine may hide the transfer.
    Policy,
    /// The prefetcher guessed: as `Policy`, and the page is flagged until a
    /// demand touch (a hit) or its departure (wasted) settles the guess.
    Speculative,
    /// A reader is waiting on the slow link and nothing can overlap it: the
    /// transfer completes at issue, unhidden, in either mode.
    Stalled,
}

/// The four transitions, and what they share.
impl PagePool {
    /// Emits one copy-engine instant for page `id` on the channel's lane:
    /// tid 0 = demote, 1 = promote, 2 = spill, 3 = recall.
    #[inline]
    fn trace_copy(&self, name: &'static str, hop: Hop, dir: MigrationDir, id: PageId, units: u64) {
        if self.tracer.is_enabled() {
            self.tracer.instant(
                name,
                "copy",
                lane::COPY,
                2 * hop as u64 + dir as u64,
                &[("page", id.index() as u64), ("units", units)],
            );
        }
    }

    /// Starts moving `id`, resident at the near end of `hop`, across it in
    /// `dir`; returns the ledger units issued. An inbound page claims its
    /// upper slot here. The transfer is queued on the copy engine — a full
    /// queue force-completes its oldest entry first, modeling a blocked copy
    /// stream — unless nothing can overlap it ([`MigrationMode::Sync`], or a
    /// [`Cause::Stalled`] demand): then it lands at once, all of it unhidden.
    fn issue(&mut self, hop: Hop, dir: MigrationDir, id: PageId, cause: Cause) -> u64 {
        const EVENT: [[&str; 2]; 2] = [
            ["demote.issue", "promote.issue"],
            ["spill.issue", "recall.issue"],
        ];
        let idx = id.index();
        let (upper, lower) = (hop.upper(), hop.lower());
        let from = if dir == ToCold { upper } else { lower };
        debug_assert_eq!(self.residency[idx], Residency::resident(from));
        let page_units = self.config.physical_page_size() as u64;
        let units = match hop {
            Hop::Host => page_units,
            Hop::Nvme => nvme_ledger_units(page_units),
        };
        let event = match cause {
            Cause::Policy => EVENT[hop as usize][dir as usize],
            Cause::Speculative => "prefetch.issue",
            Cause::Stalled => "recall.force",
        };
        self.trace_copy(event, hop, dir, id, units);
        if dir == ToHot {
            self.slots[lower as usize] -= 1;
            self.slots[upper as usize] += 1;
            self.peak_in_use = self.peak_in_use.max(self.in_use());
        }
        let t = &mut self.tier;
        let (pages, moved) = match (hop, dir) {
            (Hop::Host, ToCold) => (&mut t.pages_demoted, &mut t.demoted_token_units),
            (Hop::Host, ToHot) => (&mut t.pages_promoted, &mut t.promoted_token_units),
            (Hop::Nvme, ToCold) => (&mut t.pages_spilled, &mut t.spilled_token_units),
            (Hop::Nvme, ToHot) => (&mut t.pages_recalled, &mut t.recalled_token_units),
        };
        *pages += 1;
        *moved += units;
        match (cause, dir) {
            // A guess undone before anyone read the page.
            (_, ToCold) => self.waste_prefetched(idx),
            // One guess per journey, however many hops it takes.
            (Cause::Speculative, ToHot) if !self.prefetched[idx] => {
                self.prefetched[idx] = true;
                self.mig.prefetch_issued += 1;
            }
            (_, ToHot) => {}
        }
        self.residency[idx] = Residency::migrating(hop, dir);
        if cause == Cause::Stalled || self.mode == MigrationMode::Sync {
            self.mig.unhidden_token_units += units;
            self.mig.forced_completions += u64::from(cause == Cause::Stalled);
            self.land(hop, dir, id);
        } else {
            if self.engine.is_full(hop, dir) {
                let oldest = self.engine.oldest(hop, dir).expect("a full queue");
                self.force(hop, dir, oldest);
            }
            self.engine.issue(hop, dir, id, units);
        }
        units
    }

    /// A transfer arrived: the page is resident at the far end of its hop.
    /// An outbound page hands its upper slot over here; an inbound one has
    /// held its own since issue.
    fn land(&mut self, hop: Hop, dir: MigrationDir, id: PageId) {
        debug_assert_eq!(self.residency[id.index()], Residency::migrating(hop, dir));
        self.trace_copy("land", hop, dir, id, 0);
        let to = match dir {
            ToCold => {
                self.slots[hop.upper() as usize] -= 1;
                self.slots[hop.lower() as usize] += 1;
                hop.lower()
            }
            ToHot => hop.upper(),
        };
        self.place(id, to);
    }

    /// Aborts `id`'s transfer. The page stays where its slot was counted all
    /// along — the upper tier of the hop: an outbound page never gave that
    /// copy up, an inbound one keeps the slot it claimed. The spent bandwidth
    /// is wasted traffic, charged to neither stall bucket.
    fn cancel(&mut self, hop: Hop, dir: MigrationDir, id: PageId) {
        let remaining = self
            .engine
            .take(hop, dir, id)
            .expect("migrating page must be in flight");
        self.trace_copy("cancel", hop, dir, id, remaining);
        self.mig.cancelled_token_units += remaining;
        self.place(id, hop.upper());
    }

    /// Completes `id`'s transfer now because someone needs the page, its slot
    /// or its queue entry: what had not drained is stall.
    fn force(&mut self, hop: Hop, dir: MigrationDir, id: PageId) {
        let remaining = self
            .engine
            .take(hop, dir, id)
            .expect("migrating page must be in flight");
        self.trace_copy("force", hop, dir, id, remaining);
        self.mig.unhidden_token_units += remaining;
        self.mig.forced_completions += 1;
        self.land(hop, dir, id);
    }

    /// Marks `id` resident on `tier`; a page (re-)entering the host goes to
    /// the back of its FIFO spill order.
    fn place(&mut self, id: PageId, tier: Tier) {
        self.residency[id.index()] = Residency::resident(tier);
        if tier == Tier::Host {
            self.host_clock += 1;
            self.host_stamp[id.index()] = self.host_clock;
        }
    }

    /// Takes `id` off the copy engine ahead of a write into it (the DMA would
    /// race the write). A demotion is aborted: the page's hot slot is still
    /// its own and the device copy whole. Every other transfer is forced: an
    /// inbound page has to arrive, and a spill gave its host slot up at issue
    /// — by now another page may hold it, so the page cannot go back and the
    /// write lands on the nvme copy.
    pub(super) fn settle_for_write(&mut self, hop: Hop, dir: MigrationDir, id: PageId) {
        match (hop, dir) {
            (Hop::Host, ToCold) => self.cancel(hop, dir, id),
            _ => self.force(hop, dir, id),
        }
    }

    /// A page enters the pool: it takes a hot slot the caller has reclaimed.
    pub(super) fn occupy_hot(&mut self, id: PageId) {
        self.residency[id.index()] = Residency::Hot;
        self.prefetched[id.index()] = false;
        self.slots[Tier::Hot as usize] += 1;
        self.peak_in_use = self.peak_in_use.max(self.in_use());
    }

    /// A page leaves the pool: its transfer, if any, is cancelled, not
    /// landed, and its slot returns to the tier that counted it.
    pub(super) fn vacate(&mut self, id: PageId) {
        self.waste_prefetched(id.index());
        if let Some((hop, dir)) = self.residency[id.index()].in_flight() {
            self.cancel(hop, dir, id);
        }
        self.slots[self.residency[id.index()].tier() as usize] -= 1;
        self.residency[id.index()] = Residency::Hot;
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

    /// Feeds `units` ledger units of overlapped compute to the copy engine:
    /// each of the four hop×direction channels drains up to `units`
    /// (independent modeled DMA links), landing finished transfers and
    /// crediting the drained traffic as hidden. A no-op in
    /// [`MigrationMode::Sync`], where nothing is ever queued.
    pub fn advance_transfer_units(&mut self, units: u64) {
        let (landed, drained) = self.engine.advance(units);
        self.mig.hidden_token_units += drained;
        for (hop, dir, page) in landed {
            self.land(hop, dir, page);
        }
    }
}

/// Occupancy, by the upper-tier rule.
impl PagePool {
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

    /// True when the page is kernel-readable on the device: `Hot`, or still
    /// draining out (`Migrating(ToCold)` — the device copy is the transfer
    /// source and remains valid until the slot is handed over). An inbound
    /// `Migrating(ToHot)` page is *not* readable until its transfer lands.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn is_hot(&self, id: PageId) -> bool {
        matches!(
            self.residency(id),
            Residency::Hot | Residency::Migrating(ToCold)
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
            Residency::Hot | Residency::Migrating(ToHot)
        )
    }

    /// Hot (device-resident) pages currently allocated.
    pub fn in_use(&self) -> usize {
        self.slots[Tier::Hot as usize]
    }

    /// Cold (host-resident) pages currently allocated, including pages in
    /// flight on the nvme hop (both directions claim a host slot; see
    /// [`PagePool::host_used`] for the capacity view).
    pub fn cold_in_use(&self) -> usize {
        self.slots[Tier::Host as usize]
    }

    /// NVMe-resident pages currently allocated.
    pub fn nvme_in_use(&self) -> usize {
        self.slots[Tier::Nvme as usize]
    }

    /// Live pages across all tiers.
    pub fn total_in_use(&self) -> usize {
        self.slots.iter().sum()
    }

    /// Transfers currently in flight on the copy engine (all four channels).
    pub fn in_flight_transfers(&self) -> usize {
        self.engine.in_flight_total()
    }

    /// Hot pages currently available for allocation. In-flight demotions
    /// count as available: their slots are reclaimable on demand
    /// (allocation force-completes the cheapest outbound transfer, charging
    /// its remainder as unhidden stall).
    pub fn free_pages(&self) -> usize {
        self.hot_capacity - self.in_use() + self.engine.in_flight(Hop::Host, ToCold)
    }

    /// Host-tier slots the capacity bound must count: cold-resident pages,
    /// plus in-flight demotions (they land in the host), minus in-flight
    /// spills (their host slot is committed to the nvme tier the moment the
    /// spill is issued — this is what lets an async spill relieve host
    /// pressure without being demand-forced).
    pub fn host_used(&self) -> usize {
        self.cold_in_use() + self.engine.in_flight(Hop::Host, ToCold)
            - self.engine.in_flight(Hop::Nvme, ToCold)
    }

    /// True when the bounded host can still take one more page (always true
    /// for an unbounded host).
    pub fn host_has_room(&self) -> bool {
        self.tiers.host_pages == 0 || self.host_used() < self.tiers.host_pages
    }
}

/// Policy: where room comes from, and who may move.
impl PagePool {
    /// Frees one hot slot by force-completing outbound transfers, cheapest
    /// (fewest remaining units) first — the oldest transfer may have been
    /// issued large while a younger one is nearly drained, and any landed
    /// demotion frees the same one slot. Returns `false` when the hot tier is
    /// genuinely full (nothing reclaimable).
    pub(super) fn reclaim_hot_slot(&mut self) -> bool {
        while self.in_use() >= self.hot_capacity {
            let Some(cheapest) = self.engine.cheapest(Hop::Host, ToCold) else {
                return false;
            };
            self.force(Hop::Host, ToCold, cheapest);
        }
        true
    }

    /// Frees one bounded-host slot by spilling the oldest host-resident page
    /// (FIFO by host-residency stamp, page index on a tie) to the nvme tier.
    /// Returns `false` when the host is full and no spill can relieve it (no
    /// nvme tier, or nothing spillable) — the caller's demotion must fail,
    /// leaving drop-and-replay as the fallback. Always `true` for an
    /// unbounded host.
    fn reclaim_host_slot(&mut self) -> bool {
        while !self.host_has_room() {
            if !self.tiers.nvme {
                return false;
            }
            let oldest = (0..self.residency.len())
                .filter(|&idx| self.residency[idx] == Residency::Cold && self.pages[idx].is_some())
                .min_by_key(|&idx| (self.host_stamp[idx], idx));
            let Some(idx) = oldest else {
                return false;
            };
            if self.spill(PageId(idx as u32)).is_none() {
                return false;
            }
        }
        true
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
        if self.refcounts[idx] > 1 || !self.holds_slot(id) {
            return None;
        }
        // Make host room *before* touching the page, so a refused demotion
        // (bounded host, nothing spillable) leaves it exactly as it was.
        if !self.reclaim_host_slot() {
            return None;
        }
        if self.residency[idx] == Residency::Migrating(ToHot) {
            // Wanted cold again before it ever became readable.
            self.cancel(Hop::Host, ToHot, id);
        }
        Some(self.issue(Hop::Host, ToCold, id, Cause::Policy))
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
        Some(self.issue(Hop::Nvme, ToCold, id, Cause::Policy))
    }

    /// The one way up. Walks `id` toward the hot tier across however many
    /// hops its residency requires and returns `(issued, unhidden)`: the
    /// ledger units of the transfers this call started and the transfer cost
    /// the caller stalled for. `None`, with nothing changed, when the page
    /// needs a hot slot and none can be reclaimed.
    ///
    /// * An outbound page is recaptured for free: the transfer is aborted and
    ///   the upper copy, which never left, is kept.
    /// * A page below the host first settles the nvme hop — an nvme-resident
    ///   page is demand-recalled (nothing hides a fetch from the slow tier,
    ///   in either mode), an inbound recall is forced — and then crosses the
    ///   host hop like any cold page.
    /// * With `now`, whatever is still inbound at the end is forced: the
    ///   page is kernel-readable on return. Without it a page already inbound
    ///   is left alone, and the call did nothing.
    fn climb(&mut self, id: PageId, now: bool) -> Option<(u64, u64)> {
        let idx = id.index();
        assert!(
            self.pages[idx].is_some(),
            "promote of unallocated page {id:?}"
        );
        let start = self.residency[idx];
        let stalled_before = self.mig.unhidden_token_units;
        let mut issued = 0;
        match start {
            Residency::Hot | Residency::Migrating(ToHot) => {}
            Residency::Migrating(ToCold) => self.cancel(Hop::Host, ToCold, id),
            Residency::Cold | Residency::Nvme | Residency::MigratingNvme(_) => {
                if !self.reclaim_hot_slot() {
                    return None;
                }
                match start {
                    Residency::Nvme => issued += self.issue(Hop::Nvme, ToHot, id, Cause::Stalled),
                    // The page is on its way up: its slot on the host is
                    // about to be handed back whichever way it was going.
                    Residency::MigratingNvme(ToCold) => self.cancel(Hop::Nvme, ToCold, id),
                    Residency::MigratingNvme(ToHot) => self.force(Hop::Nvme, ToHot, id),
                    _ => {}
                }
                issued += self.issue(Hop::Host, ToHot, id, Cause::Policy);
            }
        }
        if now && self.residency[idx] == Residency::Migrating(ToHot) {
            self.force(Hop::Host, ToHot, id);
        }
        // The first demand touch settles a prefetch as a hit — from wherever
        // the page was. A promote that found it already inbound did nothing,
        // and credits nothing: the reader that forces it, or finds it
        // landed, takes the hit.
        if now || start != Residency::Migrating(ToHot) {
            self.touch_prefetched(idx);
        }
        Some((issued, self.mig.unhidden_token_units - stalled_before))
    }

    /// Brings a page back to the hot tier so kernels may read it again,
    /// across however many hops its residency requires (`Nvme` pages pay the
    /// recall *and* the host hop). Returns the modeled transfer cost in
    /// ledger units this call issued — `Some(0)` when the page was already
    /// hot or inbound (no transfer happened) — or `None` when the hot tier is
    /// full (free or demote something first).
    ///
    /// Promotion is legal on shared pages (it moves data, never mutates it).
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn promote(&mut self, id: PageId) -> Option<u64> {
        self.climb(id, false).map(|(issued, _)| issued)
    }

    /// Makes `id` kernel-readable *now*, forcing any in-flight inbound
    /// transfer to completion. Returns `(issued, unhidden)` token-units: the
    /// new transfer traffic this call generated and the part of the transfer
    /// cost the caller must absorb as stall. `None` when the hot tier is full.
    ///
    /// * `Hot` / outbound-in-flight pages cost nothing (an outbound transfer
    ///   is aborted for free — the device copy never left);
    /// * an inbound-in-flight page charges only its *remaining* units — the
    ///   part overlap didn't hide (a prefetch that landed early is free);
    /// * a page below the hot tier issues its promotion and waits for all of
    ///   it (a demand fetch hides nothing), which under
    ///   [`MigrationMode::Sync`] is what every promotion does.
    ///
    /// From every start, `unhidden` is all the call booked unhidden: what it
    /// forced on its way up (a reclaimed slot's demotion, a full queue's
    /// oldest entry) is stall the caller waited for too.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn ensure_hot(&mut self, id: PageId) -> Option<(u64, u64)> {
        self.climb(id, true)
    }

    /// Speculatively moves a below-hot page one hop up on the copy engine
    /// (async mode only). A cold page promotes toward the hot tier; an nvme
    /// page recalls into the host tier (a later prefetch round can then lift
    /// it the rest of the way). Cheap and best-effort: declined — returning
    /// `false` — when the page is already hot or in flight, the destination
    /// tier has no genuinely free slot (prefetch never steals via reclaim),
    /// or the hop's inbound queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn prefetch(&mut self, id: PageId) -> bool {
        assert!(
            self.pages[id.index()].is_some(),
            "prefetch of unallocated page {id:?}"
        );
        if self.mode != MigrationMode::Async {
            return false;
        }
        let (hop, room) = match self.residency[id.index()] {
            Residency::Cold => (Hop::Host, self.in_use() < self.hot_capacity),
            Residency::Nvme => (Hop::Nvme, self.host_has_room()),
            _ => return false,
        };
        if !room || self.engine.is_full(hop, ToHot) {
            return false;
        }
        self.issue(hop, ToHot, id, Cause::Speculative);
        true
    }
}

/// Whole page sets: what a head, a layer, a sequence or a cached prefix asks
/// about all of its pages at once, over whatever `page_ids()` it hands in.
impl PagePool {
    /// What a migration of `units` for `id` that forced nothing made its
    /// caller wait for: the whole transfer when the page has already arrived
    /// (the pool completed it at issue), nothing while it is in flight — the
    /// copy engine may yet hide all of it.
    fn waited_for(&self, id: PageId, units: u64) -> u64 {
        match self.residency[id.index()].in_flight() {
            Some(_) => 0,
            None => units,
        }
    }

    /// Swap-out: demotes every sole-owned hot page of the set. Co-owned pages
    /// stay hot for their other readers, pages already below the hot tier are
    /// skipped, and a bounded host may refuse some (see [`PagePool::demote`]).
    pub fn demote_all(&mut self, ids: impl IntoIterator<Item = PageId>) -> Moved {
        let mut moved = Moved::default();
        for id in ids {
            if let Some(units) = self.demote(id) {
                moved += Moved::page(units, self.waited_for(id, units));
            }
        }
        moved
    }

    /// Swap-in: starts every page of the set toward the hot tier (see
    /// [`PagePool::promote`]: hot and inbound pages cost nothing, an outbound
    /// page is recaptured for free, only pages below the hot tier move).
    /// `None` if the hot tier filled up mid-way — pages promoted so far stay
    /// promoted; reserve [`PagePool::swap_in_demand`] free slots first to
    /// rule this out.
    pub fn promote_all(&mut self, ids: impl IntoIterator<Item = PageId>) -> Option<Moved> {
        let mut moved = Moved::default();
        for id in ids {
            let units = self.promote(id)?;
            moved += Moved::page(units, self.waited_for(id, units));
        }
        Some(moved)
    }

    /// Makes every page of the set kernel-readable *now* (see
    /// [`PagePool::ensure_hot`]). `None` if the hot tier filled up mid-way.
    pub fn ensure_resident(&mut self, ids: impl IntoIterator<Item = PageId>) -> Option<Moved> {
        let mut moved = Moved::default();
        for id in ids {
            let (units, unhidden) = self.ensure_hot(id)?;
            moved += Moved::page(units, unhidden);
        }
        Some(moved)
    }

    /// Hot slots a swap-in of the set must newly claim: pages below the hot
    /// tier plus pages whose outbound transfer is still in flight. The latter
    /// look hot (their slot is occupied and [`PagePool::free_pages`] counts
    /// it reclaimable), but forcing one frees its slot *and* mints a new cold
    /// page — net-zero supply — so a resume reservation must carry them as
    /// demand.
    pub fn swap_in_demand(&self, ids: impl IntoIterator<Item = PageId>) -> usize {
        ids.into_iter().filter(|&id| !self.holds_slot(id)).count()
    }

    /// Pages of the set that are both sole-owned and hot — exactly what
    /// [`PagePool::demote_all`] would move, and so the transfer a swap-out
    /// of the set costs. Pages co-owned with the prefix cache or another
    /// sequence cost nothing: they stay hot for their other readers.
    pub fn sole_owned_hot_pages(&self, ids: impl IntoIterator<Item = PageId>) -> usize {
        ids.into_iter()
            .filter(|&id| self.refcounts[id.index()] == 1 && self.is_hot(id))
            .count()
    }

    /// Modeled ledger units a victim of preemption would pay to bring the set
    /// fully hot again, by tier truth: shared hot pages are free (they never
    /// demote), sole-owned hot pages pay one future host round-trip half
    /// (`N_P` back up), host-resident pages pay the host hop, and pages on or
    /// crossing to the nvme tier pay recall plus host hop. Victim selection
    /// ranks by this instead of raw page counts, so a sequence whose state
    /// sits deep in the hierarchy is not preferred over one that is cheap to
    /// restore.
    pub fn promote_back_cost_units(&self, ids: impl IntoIterator<Item = PageId>) -> u64 {
        let np = self.config.physical_page_size() as u64;
        ids.into_iter()
            .map(|id| match self.residency(id) {
                Residency::Hot | Residency::Migrating(_) if self.is_shared(id) => 0,
                Residency::Hot | Residency::Migrating(_) | Residency::Cold => np,
                Residency::Nvme | Residency::MigratingNvme(_) => nvme_ledger_units(np) + np,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use lserve_quant::KvPrecision;

    use super::*;
    use crate::{MigrationStats, PagingConfig};

    /// An async pool over a bounded host and nvme, and one page spilled all
    /// the way down.
    fn page_on_nvme() -> (PagePool, PageId) {
        let paging = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let tiers = TierConfig {
            host_pages: 4,
            nvme: true,
        };
        let mut p = PagePool::new_with_tiers(paging, 4, 4, MigrationMode::Async, tiers);
        let id = p.allocate().unwrap();
        p.demote(id).unwrap();
        p.advance_transfer_units(4);
        p.spill(id).unwrap();
        p.advance_transfer_units(nvme_ledger_units(4));
        assert_eq!(p.residency(id), Residency::Nvme);
        (p, id)
    }

    fn prefetch_ledger(m: MigrationStats) -> (u64, u64, u64) {
        (m.prefetch_issued, m.prefetch_hits, m.prefetch_wasted)
    }

    #[test]
    fn a_prefetch_that_crosses_both_hops_is_one_journey() {
        let (mut p, id) = page_on_nvme();
        assert!(p.prefetch(id), "recall into the host");
        p.advance_transfer_units(nvme_ledger_units(4));
        assert_eq!(p.residency(id), Residency::Cold);
        assert!(p.prefetch(id), "the rest of the way");
        p.advance_transfer_units(4);
        assert_eq!(p.residency(id), Residency::Hot);
        assert_eq!(p.ensure_hot(id), Some((0, 0)), "landed early: a free read");
        p.free(id);
        assert_eq!(prefetch_ledger(p.migration_stats()), (1, 1, 0));
    }

    #[test]
    fn a_landed_recall_prefetch_is_credited_at_its_demand_read() {
        let (mut p, id) = page_on_nvme();
        assert!(p.prefetch(id));
        p.advance_transfer_units(nvme_ledger_units(4));
        assert_eq!(p.residency(id), Residency::Cold, "landed before the read");
        assert_eq!(p.promote(id), Some(4), "only the host hop is left to pay");
        assert_eq!(prefetch_ledger(p.migration_stats()), (1, 1, 0));
        // Whatever becomes of the page now, the guess was right.
        p.free(id);
        assert_eq!(prefetch_ledger(p.migration_stats()), (1, 1, 0));
    }

    #[test]
    fn a_prefetched_page_pushed_back_down_is_wasted() {
        let (mut p, id) = page_on_nvme();
        assert!(p.prefetch(id));
        p.advance_transfer_units(nvme_ledger_units(4));
        p.spill(id).unwrap();
        assert_eq!(prefetch_ledger(p.migration_stats()), (1, 0, 1));
        p.advance_transfer_units(nvme_ledger_units(4));
        assert!(p.prefetch(id), "a second guess is a second journey");
        assert_eq!(p.ensure_hot(id).map(|(issued, _)| issued), Some(4));
        assert_eq!(prefetch_ledger(p.migration_stats()), (2, 1, 1));
    }

    /// A spill gives its host slot up when it is issued. A write into the
    /// spilling page cannot take the slot back — someone else may hold it by
    /// now — so the spill is forced, and the write lands on the nvme copy.
    #[test]
    fn a_write_into_a_spilling_page_does_not_overdraw_the_host() {
        let paging = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let tiers = TierConfig {
            host_pages: 4,
            nvme: true,
        };
        let mut p = PagePool::new_with_tiers(paging, 8, 4, MigrationMode::Async, tiers);
        let ids: Vec<PageId> = (0..5).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids[..4] {
            p.demote(id).unwrap();
        }
        p.advance_transfer_units(4);
        assert_eq!(p.host_used(), 4, "the host is full");
        p.spill(ids[0]).unwrap();
        p.demote(ids[4]).unwrap();
        assert_eq!(
            p.host_used(),
            4,
            "the demotion took the slot the spill released"
        );
        let unhidden = p.migration_stats().unhidden_token_units;
        p.page_mut(ids[0]);
        assert_eq!(p.host_used(), 4, "a bounded host stays within its bound");
        assert_eq!(p.residency(ids[0]), Residency::Nvme);
        assert_eq!(
            p.migration_stats().unhidden_token_units - unhidden,
            nvme_ledger_units(4),
            "forced like any other completion: what had not drained is stall"
        );
    }
}
