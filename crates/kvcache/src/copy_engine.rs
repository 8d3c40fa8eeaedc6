//! Modeled asynchronous copy engine for tier migrations.
//!
//! The tiered pool's `demote`/`promote` calls are synchronous in the baseline:
//! every transfer's full modeled cost lands on the decode critical path the
//! instant it is issued. Real serving systems overlap host↔device KV traffic
//! with compute on a separate copy stream; this module reproduces that overlap
//! *as a model*: transfers are issued into bounded per-direction queues, drain
//! at a fixed bandwidth ([`crate::HOST_TRANSFER_SPEEDUP`] token-units per token of
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
pub(crate) enum Hop {
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
/// and [`MigrationStats`], and decides what becomes of the [`PageId`]s this
/// engine reports as landed or hands back from [`CopyEngine::take`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CopyEngine {
    /// `queues[hop][dir]`.
    queues: [[VecDeque<Transfer>; 2]; 2],
}

impl CopyEngine {
    fn queue(&self, hop: Hop, dir: MigrationDir) -> &VecDeque<Transfer> {
        &self.queues[hop as usize][dir as usize]
    }

    fn queue_mut(&mut self, hop: Hop, dir: MigrationDir) -> &mut VecDeque<Transfer> {
        &mut self.queues[hop as usize][dir as usize]
    }

    /// Transfers currently in flight on `hop` in `dir`.
    pub fn in_flight(&self, hop: Hop, dir: MigrationDir) -> usize {
        self.queue(hop, dir).len()
    }

    /// Transfers currently in flight on all four channels.
    pub fn in_flight_total(&self) -> usize {
        self.queues.iter().flatten().map(VecDeque::len).sum()
    }

    /// True when `hop`'s queue in `dir` is at [`COPY_CHANNEL_DEPTH`].
    pub fn is_full(&self, hop: Hop, dir: MigrationDir) -> bool {
        self.in_flight(hop, dir) >= COPY_CHANNEL_DEPTH
    }

    /// Queues a transfer on `hop`. `units` are ledger units (pre-scaled for
    /// the NVMe hop). The caller must have drained a full queue first.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or the page is already in flight on
    /// `(hop, dir)`.
    pub fn issue(&mut self, hop: Hop, dir: MigrationDir, page: PageId, units: u64) {
        assert!(!self.is_full(hop, dir), "copy queue overfull");
        let q = self.queue_mut(hop, dir);
        assert!(q.iter().all(|t| t.page != page), "page already in flight");
        q.push_back(Transfer {
            page,
            remaining: units,
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

    /// The oldest transfer on `hop` in `dir`: what a full queue gives up.
    pub fn oldest(&self, hop: Hop, dir: MigrationDir) -> Option<PageId> {
        self.queue(hop, dir).front().map(|t| t.page)
    }

    /// The *cheapest* transfer on `hop` in `dir` — fewest remaining ledger
    /// units, front-most on a tie (the FIFO drain order keeps the choice
    /// deterministic). What hot-slot reclaim forces, to minimize the
    /// forced-unhidden charge: the oldest transfer may have been issued
    /// large while a younger one is nearly drained.
    pub fn cheapest(&self, hop: Hop, dir: MigrationDir) -> Option<PageId> {
        let q = self.queue(hop, dir);
        let best = q.iter().enumerate().min_by_key(|(i, t)| (t.remaining, *i));
        best.map(|(_, t)| t.page)
    }

    /// Takes `page`'s transfer on `hop` in `dir` off its queue — forced to
    /// completion or cancelled, which is the pool's to say. Returns the
    /// units it had left, or `None` when no such transfer is in flight.
    pub fn take(&mut self, hop: Hop, dir: MigrationDir, page: PageId) -> Option<u64> {
        let q = self.queue_mut(hop, dir);
        let pos = q.iter().position(|t| t.page == page)?;
        q.remove(pos).map(|t| t.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Hop::{Host, Nvme};
    use MigrationDir::{ToCold, ToHot};

    fn pid(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn env_knob_parses() {
        // The mode of a pool built without one.
        assert_eq!(MigrationMode::default(), MigrationMode::Sync);
    }

    #[test]
    fn advance_drains_fifo_and_lands_in_order() {
        let mut e = CopyEngine::default();
        e.issue(Host, ToCold, pid(0), 10);
        e.issue(Host, ToCold, pid(1), 4);
        let (landed, drained) = e.advance(6);
        assert_eq!(drained, 6);
        assert!(landed.is_empty(), "head still has 4 units left");
        let (landed, drained) = e.advance(10);
        assert_eq!(drained, 8);
        assert_eq!(landed, vec![(Host, ToCold, pid(0)), (Host, ToCold, pid(1))]);
        assert_eq!(e.in_flight(Host, ToCold), 0);
    }

    #[test]
    fn directions_drain_independently() {
        let mut e = CopyEngine::default();
        e.issue(Host, ToCold, pid(0), 8);
        e.issue(Host, ToHot, pid(1), 8);
        let (landed, drained) = e.advance(8);
        assert_eq!(drained, 16, "each direction gets its own budget");
        assert_eq!(landed.len(), 2);
    }

    #[test]
    fn hops_drain_independently_and_land_host_first() {
        let mut e = CopyEngine::default();
        e.issue(Nvme, ToCold, pid(0), 8);
        e.issue(Host, ToCold, pid(1), 8);
        e.issue(Nvme, ToHot, pid(2), 8);
        assert_eq!(e.in_flight(Host, ToCold), 1, "host hop only");
        assert_eq!(e.in_flight(Nvme, ToCold), 1);
        assert_eq!(e.in_flight_total(), 3);
        let (landed, drained) = e.advance(8);
        assert_eq!(drained, 24, "each of the four channels has its own budget");
        // Landing order is deterministic: host channels first, ToCold before
        // ToHot within a hop.
        assert_eq!(
            landed,
            vec![
                (Host, ToCold, pid(1)),
                (Nvme, ToCold, pid(0)),
                (Nvme, ToHot, pid(2)),
            ]
        );
    }

    #[test]
    fn same_page_may_be_in_flight_on_distinct_hops_only() {
        let mut e = CopyEngine::default();
        e.issue(Host, ToCold, pid(5), 4);
        e.issue(Nvme, ToHot, pid(5), 32);
        assert_eq!(e.take(Nvme, ToCold, pid(5)), None, "not on that channel");
        assert_eq!(e.take(Nvme, ToHot, pid(5)), Some(32));
        assert_eq!(e.take(Host, ToCold, pid(5)), Some(4));
    }

    #[test]
    #[should_panic(expected = "page already in flight")]
    fn a_page_rides_a_channel_once() {
        let mut e = CopyEngine::default();
        e.issue(Host, ToCold, pid(5), 4);
        e.issue(Host, ToCold, pid(5), 4);
    }

    #[test]
    fn force_cheapest_prefers_fewest_remaining_units() {
        let mut e = CopyEngine::default();
        e.issue(Host, ToCold, pid(0), 12);
        e.issue(Host, ToCold, pid(1), 3);
        e.issue(Host, ToCold, pid(2), 7);
        let force_cheapest = |e: &mut CopyEngine| {
            let page = e.cheapest(Host, ToCold)?;
            Some((page, e.take(Host, ToCold, page).expect("just seen")))
        };
        // Not the oldest (pid 0, 12 units left) but the cheapest (pid 1, 3).
        assert_eq!(force_cheapest(&mut e), Some((pid(1), 3)));
        // After draining 5 units FIFO, pid 0 has 7 left — tied with pid 2;
        // the front-most (oldest) wins the tie deterministically.
        let (_, drained) = e.advance(5);
        assert_eq!(drained, 5);
        assert_eq!(force_cheapest(&mut e), Some((pid(0), 7)));
        assert_eq!(force_cheapest(&mut e), Some((pid(2), 7)));
        assert_eq!(force_cheapest(&mut e), None);
    }

    #[test]
    fn force_page_returns_remainder() {
        let mut e = CopyEngine::default();
        e.issue(Host, ToHot, pid(3), 12);
        let (_, _) = e.advance(5);
        assert_eq!(e.take(Host, ToHot, pid(3)), Some(7));
        assert_eq!(e.take(Host, ToHot, pid(3)), None);
    }

    #[test]
    fn full_queue_reports_full() {
        let mut e = CopyEngine::default();
        for i in 0..COPY_CHANNEL_DEPTH {
            e.issue(Host, ToCold, pid(i as u32), 1);
        }
        assert!(e.is_full(Host, ToCold));
        assert!(!e.is_full(Host, ToHot));
        assert_eq!(e.oldest(Host, ToCold), Some(pid(0)));
        assert_eq!(e.take(Host, ToCold, pid(0)), Some(1));
        assert!(!e.is_full(Host, ToCold));
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
