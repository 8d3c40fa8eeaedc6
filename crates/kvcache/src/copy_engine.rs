//! Modeled asynchronous copy engine for tier migrations.
//!
//! The tiered pool's `demote`/`promote` calls are synchronous in the baseline:
//! every transfer's full modeled cost lands on the decode critical path the
//! instant it is issued. Real serving systems overlap host↔device KV traffic
//! with compute on a separate copy stream; this module reproduces that overlap
//! *as a model*: transfers are issued into bounded per-direction queues, drain
//! at a fixed bandwidth ([`HOST_TRANSFER_SPEEDUP`] token-units per token of
//! compute overlapped), and only the fraction a consumer has to *wait* for is
//! charged as stall.
//!
//! Because this repository models costs rather than moving bytes, page
//! contents are always readable through the pool regardless of residency; the
//! engine only changes *when* hot-tier slots change hands and *how much* of
//! each transfer's cost is hidden. That is exactly why
//! [`MigrationMode::Sync`] and [`MigrationMode::Async`] produce bit-identical
//! outputs: the numerics never depend on the mode, only the modeled latency
//! accounting does.

use std::collections::VecDeque;

use crate::pool::PageId;
use crate::stats::transfer_cost_tokens;

/// Depth of each per-direction transfer queue. Issuing into a full queue
/// force-completes the oldest transfer first (the modeled equivalent of
/// blocking on a full copy-stream ring buffer), so the queue bounds in-flight
/// state without ever rejecting a migration.
pub const COPY_CHANNEL_DEPTH: usize = 16;

/// Whether tier migrations complete inline (the baseline) or drain through the
/// modeled copy engine overlapped with compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// Every `demote`/`promote` completes at issue and its full transfer cost
    /// is charged to the issuing step — the pre-copy-engine behaviour.
    #[default]
    Sync,
    /// Transfers are queued on the copy engine and drain overlapped with
    /// compute; only the unhidden remainder of demand-forced transfers is
    /// charged as stall. Outputs are bit-identical to [`MigrationMode::Sync`].
    Async,
}

/// Direction of an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationDir {
    /// Away from the hot tier (demotion on the host hop, spill on the nvme
    /// hop).
    ToCold,
    /// Toward the hot tier (promotion on the host hop, recall on the nvme
    /// hop).
    ToHot,
}

/// Which link of the memory hierarchy a transfer crosses. Each hop has its own
/// pair of FIFO channels (one per [`MigrationDir`]), modeling independent DMA
/// links: device↔host traffic never queues behind host↔nvme traffic.
///
/// All four channels drain in common *ledger units* (host-equivalent
/// token-units; NVMe hops are issued pre-scaled by
/// [`nvme_ledger_units`](crate::nvme_ledger_units)), so the engine needs no
/// per-hop rate — the NVMe hop's order-of-magnitude slowdown shows up as
/// more ledger units per page, not a slower drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The device↔host link (demote / promote).
    Host,
    /// The host↔nvme link (spill / recall).
    Nvme,
}

/// One queued transfer.
#[derive(Debug, Clone)]
struct Transfer {
    page: PageId,
    /// Token-units still to drain before the transfer lands.
    remaining: u64,
    /// Issued by the prefetcher (speculative) rather than by demand.
    prefetch: bool,
}

/// Lifetime counters of the copy engine, separating the transfer cost compute
/// absorbed from the cost that stalled a consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationStats {
    /// Speculative promotions issued by the selector-driven prefetcher.
    pub prefetch_issued: u64,
    /// Prefetched pages later touched by demand (the prefetch paid off).
    pub prefetch_hits: u64,
    /// Prefetched pages demoted or freed before any demand touch.
    pub prefetch_wasted: u64,
    /// Token-units drained by overlapped bandwidth — cost hidden behind
    /// compute.
    pub hidden_token_units: u64,
    /// Token-units force-completed on demand — cost a consumer waited for.
    /// In [`MigrationMode::Sync`] every migrated unit lands here, so the
    /// stall metric is comparable across modes.
    pub unhidden_token_units: u64,
    /// Token-units of cancelled transfers (pages freed or re-targeted while
    /// in flight); charged to neither bucket.
    pub cancelled_token_units: u64,
    /// Transfers force-completed because a consumer (or a full queue) needed
    /// them immediately.
    pub forced_completions: u64,
}

impl MigrationStats {
    /// Modeled stall, in forward-pass token-equivalents: the transfer work a
    /// consumer actually waited for. Sync mode charges every migration here.
    pub fn migration_stall_tokens(&self) -> u64 {
        transfer_cost_tokens(self.unhidden_token_units)
    }

    /// Transfer work absorbed by overlap, in forward-pass token-equivalents.
    pub fn hidden_transfer_tokens(&self) -> u64 {
        transfer_cost_tokens(self.hidden_token_units)
    }

    /// Fraction of completed transfer traffic hidden behind compute, in
    /// `[0, 1]` (1.0 when no transfer completed — nothing stalled).
    pub fn overlap_ratio(&self) -> f64 {
        let total = self.hidden_token_units + self.unhidden_token_units;
        if total == 0 {
            return 1.0;
        }
        self.hidden_token_units as f64 / total as f64
    }
}

/// Bounded-queue modeled copy engine: four FIFO channels ([`Hop`] ×
/// [`MigrationDir`]), each draining
/// [`HOST_TRANSFER_SPEEDUP`](crate::HOST_TRANSFER_SPEEDUP) ledger units per
/// overlapped compute token fed to [`CopyEngine::advance`].
///
/// The engine tracks queue state only; the pool owns residency, slot counts,
/// and [`MigrationStats`], reacting to the [`PageId`]s this engine reports as
/// landed, forced, or cancelled. The [`MigrationDir`]-only methods are
/// host-hop shorthands kept for the two-tier call sites; the `_hop` variants
/// address all four channels.
#[derive(Debug, Clone, Default)]
pub struct CopyEngine {
    d2h: VecDeque<Transfer>,
    h2d: VecDeque<Transfer>,
    h2n: VecDeque<Transfer>,
    n2h: VecDeque<Transfer>,
}

impl CopyEngine {
    fn queue(&self, hop: Hop, dir: MigrationDir) -> &VecDeque<Transfer> {
        match (hop, dir) {
            (Hop::Host, MigrationDir::ToCold) => &self.d2h,
            (Hop::Host, MigrationDir::ToHot) => &self.h2d,
            (Hop::Nvme, MigrationDir::ToCold) => &self.h2n,
            (Hop::Nvme, MigrationDir::ToHot) => &self.n2h,
        }
    }

    fn queue_mut(&mut self, hop: Hop, dir: MigrationDir) -> &mut VecDeque<Transfer> {
        match (hop, dir) {
            (Hop::Host, MigrationDir::ToCold) => &mut self.d2h,
            (Hop::Host, MigrationDir::ToHot) => &mut self.h2d,
            (Hop::Nvme, MigrationDir::ToCold) => &mut self.h2n,
            (Hop::Nvme, MigrationDir::ToHot) => &mut self.n2h,
        }
    }

    /// Transfers currently in flight on the host hop in `dir`.
    pub fn in_flight(&self, dir: MigrationDir) -> usize {
        self.in_flight_hop(Hop::Host, dir)
    }

    /// Transfers currently in flight on `hop` in `dir`.
    pub fn in_flight_hop(&self, hop: Hop, dir: MigrationDir) -> usize {
        self.queue(hop, dir).len()
    }

    /// True when the host-hop queue in `dir` is at [`COPY_CHANNEL_DEPTH`].
    pub fn is_full(&self, dir: MigrationDir) -> bool {
        self.is_full_hop(Hop::Host, dir)
    }

    /// True when `hop`'s queue in `dir` is at [`COPY_CHANNEL_DEPTH`].
    pub fn is_full_hop(&self, hop: Hop, dir: MigrationDir) -> bool {
        self.in_flight_hop(hop, dir) >= COPY_CHANNEL_DEPTH
    }

    /// Whether `page` is in flight on the host hop in `dir`.
    pub fn contains(&self, dir: MigrationDir, page: PageId) -> bool {
        self.contains_hop(Hop::Host, dir, page)
    }

    /// Whether `page` is in flight on `hop` in `dir`.
    pub fn contains_hop(&self, hop: Hop, dir: MigrationDir, page: PageId) -> bool {
        self.queue(hop, dir).iter().any(|t| t.page == page)
    }

    /// Queues a host-hop transfer. The caller must have drained a full queue
    /// first (see [`CopyEngine::force_head`]).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or the page is already in flight in `dir`.
    pub fn issue(&mut self, dir: MigrationDir, page: PageId, units: u64, prefetch: bool) {
        self.issue_hop(Hop::Host, dir, page, units, prefetch);
    }

    /// Queues a transfer on `hop`. `units` are ledger units (pre-scaled for
    /// the NVMe hop). The caller must have drained a full queue first.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or the page is already in flight on
    /// `(hop, dir)`.
    pub fn issue_hop(
        &mut self,
        hop: Hop,
        dir: MigrationDir,
        page: PageId,
        units: u64,
        prefetch: bool,
    ) {
        assert!(!self.is_full_hop(hop, dir), "copy queue overfull");
        assert!(!self.contains_hop(hop, dir, page), "page already in flight");
        self.queue_mut(hop, dir).push_back(Transfer {
            page,
            remaining: units,
            prefetch,
        });
    }

    /// Drains up to `units` ledger units from each of the four channels
    /// independently (each hop × direction models a separate DMA link),
    /// oldest transfer first. Returns `(landed pages per channel, total units
    /// drained)`; the pool applies residency flips for landed transfers and
    /// credits the drained units as hidden.
    pub fn advance(&mut self, units: u64) -> (Vec<(Hop, MigrationDir, PageId)>, u64) {
        let mut landed = Vec::new();
        let mut drained = 0;
        for hop in [Hop::Host, Hop::Nvme] {
            for dir in [MigrationDir::ToCold, MigrationDir::ToHot] {
                let mut budget = units;
                let q = self.queue_mut(hop, dir);
                while budget > 0 {
                    let Some(head) = q.front_mut() else { break };
                    let step = head.remaining.min(budget);
                    head.remaining -= step;
                    budget -= step;
                    drained += step;
                    if head.remaining == 0 {
                        let t = q.pop_front().expect("head exists");
                        landed.push((hop, dir, t.page));
                    }
                }
            }
        }
        (landed, drained)
    }

    /// Force-completes the oldest host-hop transfer in `dir` (a consumer
    /// needs its slot or queue entry *now*). Returns the landed page, its
    /// unhidden remainder, and whether it was a prefetch.
    pub fn force_head(&mut self, dir: MigrationDir) -> Option<(PageId, u64, bool)> {
        self.force_head_hop(Hop::Host, dir)
    }

    /// Force-completes the oldest transfer on `hop` in `dir`.
    pub fn force_head_hop(&mut self, hop: Hop, dir: MigrationDir) -> Option<(PageId, u64, bool)> {
        self.queue_mut(hop, dir)
            .pop_front()
            .map(|t| (t.page, t.remaining, t.prefetch))
    }

    /// Force-completes the *cheapest* host-hop transfer in `dir` — fewest
    /// remaining ledger units, front-most on a tie (the FIFO drain order
    /// keeps the choice deterministic). Used by hot-slot reclaim to minimize
    /// the forced-unhidden charge: the oldest transfer may have been issued
    /// large while a younger one is nearly drained. Returns the landed page,
    /// its unhidden remainder, and whether it was a prefetch.
    pub fn force_cheapest(&mut self, dir: MigrationDir) -> Option<(PageId, u64, bool)> {
        self.force_cheapest_hop(Hop::Host, dir)
    }

    /// Force-completes the cheapest transfer on `hop` in `dir` (fewest
    /// remaining units, front-most on a tie).
    pub fn force_cheapest_hop(
        &mut self,
        hop: Hop,
        dir: MigrationDir,
    ) -> Option<(PageId, u64, bool)> {
        let q = self.queue_mut(hop, dir);
        let pos = q
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (t.remaining, *i))?
            .0;
        let t = q.remove(pos).expect("position exists");
        Some((t.page, t.remaining, t.prefetch))
    }

    /// Force-completes `page`'s in-flight host-hop transfer in `dir`. Returns
    /// the unhidden remainder and whether it was a prefetch.
    pub fn force_page(&mut self, dir: MigrationDir, page: PageId) -> Option<(u64, bool)> {
        self.force_page_hop(Hop::Host, dir, page)
    }

    /// Force-completes `page`'s in-flight transfer on `hop` in `dir`.
    pub fn force_page_hop(
        &mut self,
        hop: Hop,
        dir: MigrationDir,
        page: PageId,
    ) -> Option<(u64, bool)> {
        let q = self.queue_mut(hop, dir);
        let pos = q.iter().position(|t| t.page == page)?;
        let t = q.remove(pos).expect("position exists");
        Some((t.remaining, t.prefetch))
    }

    /// Cancels `page`'s in-flight host-hop transfer in `dir` without landing
    /// it (the page was freed, or the migration re-targeted). Returns the
    /// cancelled remainder and whether it was a prefetch.
    pub fn cancel(&mut self, dir: MigrationDir, page: PageId) -> Option<(u64, bool)> {
        self.force_page(dir, page)
    }

    /// Cancels `page`'s in-flight transfer on `hop` in `dir` without landing
    /// it.
    pub fn cancel_hop(&mut self, hop: Hop, dir: MigrationDir, page: PageId) -> Option<(u64, bool)> {
        self.force_page_hop(hop, dir, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn env_knob_parses() {
        // Whatever the ambient env says, the parser itself is what's under
        // test; drive it through the documented strings.
        assert_eq!(MigrationMode::default(), MigrationMode::Sync);
    }

    #[test]
    fn advance_drains_fifo_and_lands_in_order() {
        let mut e = CopyEngine::default();
        e.issue(MigrationDir::ToCold, pid(0), 10, false);
        e.issue(MigrationDir::ToCold, pid(1), 4, false);
        let (landed, drained) = e.advance(6);
        assert_eq!(drained, 6);
        assert!(landed.is_empty(), "head still has 4 units left");
        let (landed, drained) = e.advance(10);
        assert_eq!(drained, 8);
        assert_eq!(
            landed,
            vec![
                (Hop::Host, MigrationDir::ToCold, pid(0)),
                (Hop::Host, MigrationDir::ToCold, pid(1))
            ]
        );
        assert_eq!(e.in_flight(MigrationDir::ToCold), 0);
    }

    #[test]
    fn directions_drain_independently() {
        let mut e = CopyEngine::default();
        e.issue(MigrationDir::ToCold, pid(0), 8, false);
        e.issue(MigrationDir::ToHot, pid(1), 8, false);
        let (landed, drained) = e.advance(8);
        assert_eq!(drained, 16, "each direction gets its own budget");
        assert_eq!(landed.len(), 2);
    }

    #[test]
    fn hops_drain_independently_and_land_host_first() {
        let mut e = CopyEngine::default();
        e.issue_hop(Hop::Nvme, MigrationDir::ToCold, pid(0), 8, false);
        e.issue_hop(Hop::Host, MigrationDir::ToCold, pid(1), 8, false);
        e.issue_hop(Hop::Nvme, MigrationDir::ToHot, pid(2), 8, false);
        assert_eq!(e.in_flight(MigrationDir::ToCold), 1, "host hop only");
        assert_eq!(e.in_flight_hop(Hop::Nvme, MigrationDir::ToCold), 1);
        let (landed, drained) = e.advance(8);
        assert_eq!(drained, 24, "each of the four channels has its own budget");
        // Landing order is deterministic: host channels first, ToCold before
        // ToHot within a hop.
        assert_eq!(
            landed,
            vec![
                (Hop::Host, MigrationDir::ToCold, pid(1)),
                (Hop::Nvme, MigrationDir::ToCold, pid(0)),
                (Hop::Nvme, MigrationDir::ToHot, pid(2)),
            ]
        );
    }

    #[test]
    fn same_page_may_be_in_flight_on_distinct_hops_only() {
        let mut e = CopyEngine::default();
        e.issue_hop(Hop::Host, MigrationDir::ToCold, pid(5), 4, false);
        assert!(e.contains_hop(Hop::Host, MigrationDir::ToCold, pid(5)));
        assert!(!e.contains_hop(Hop::Nvme, MigrationDir::ToCold, pid(5)));
        e.issue_hop(Hop::Nvme, MigrationDir::ToHot, pid(5), 32, false);
        assert_eq!(
            e.cancel_hop(Hop::Nvme, MigrationDir::ToHot, pid(5)),
            Some((32, false))
        );
        assert_eq!(e.force_page(MigrationDir::ToCold, pid(5)), Some((4, false)));
    }

    #[test]
    fn force_cheapest_prefers_fewest_remaining_units() {
        let mut e = CopyEngine::default();
        e.issue(MigrationDir::ToCold, pid(0), 12, false);
        e.issue(MigrationDir::ToCold, pid(1), 3, false);
        e.issue(MigrationDir::ToCold, pid(2), 7, false);
        // Not the oldest (pid 0, 12 units left) but the cheapest (pid 1, 3).
        let (page, rem, _) = e.force_cheapest(MigrationDir::ToCold).unwrap();
        assert_eq!((page, rem), (pid(1), 3));
        // After draining 5 units FIFO, pid 0 has 7 left — tied with pid 2;
        // the front-most (oldest) wins the tie deterministically.
        let (_, drained) = e.advance(5);
        assert_eq!(drained, 5);
        let (page, rem, _) = e.force_cheapest(MigrationDir::ToCold).unwrap();
        assert_eq!((page, rem), (pid(0), 7));
        let (page, _, _) = e.force_cheapest(MigrationDir::ToCold).unwrap();
        assert_eq!(page, pid(2));
        assert!(e.force_cheapest(MigrationDir::ToCold).is_none());
    }

    #[test]
    fn force_page_returns_remainder() {
        let mut e = CopyEngine::default();
        e.issue(MigrationDir::ToHot, pid(3), 12, true);
        let (_, _) = e.advance(5);
        assert_eq!(e.force_page(MigrationDir::ToHot, pid(3)), Some((7, true)));
        assert_eq!(e.force_page(MigrationDir::ToHot, pid(3)), None);
    }

    #[test]
    fn full_queue_reports_full() {
        let mut e = CopyEngine::default();
        for i in 0..COPY_CHANNEL_DEPTH {
            e.issue(MigrationDir::ToCold, pid(i as u32), 1, false);
        }
        assert!(e.is_full(MigrationDir::ToCold));
        assert!(!e.is_full(MigrationDir::ToHot));
        let (page, rem, _) = e.force_head(MigrationDir::ToCold).unwrap();
        assert_eq!(page, pid(0));
        assert_eq!(rem, 1);
        assert!(!e.is_full(MigrationDir::ToCold));
    }

    #[test]
    fn overlap_ratio_bounds() {
        let empty = MigrationStats::default();
        assert_eq!(empty.overlap_ratio(), 1.0, "no traffic, nothing stalled");
        let mixed = MigrationStats {
            hidden_token_units: 192,
            unhidden_token_units: 64,
            ..Default::default()
        };
        assert!((mixed.overlap_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(mixed.migration_stall_tokens(), 1);
        assert_eq!(mixed.hidden_transfer_tokens(), 3);
    }
}
