//! In-flight page-state semantics of the asynchronous migration engine.
//!
//! These tests pin the `Residency::Migrating` discipline: what a transfer in
//! flight means for slot accounting, readability, CoW/refcounts, cancellation
//! on free, demand forcing, and the prefetch hit/waste ledger. The
//! executor-level guarantee (async ≡ sync outputs) lives in
//! `tests/proptest_migration.rs` at the workspace root.

use lserve_kvcache::{
    DenseHeadCache, MigrationDir, MigrationMode, PagePool, PagingConfig, Residency, TierConfig,
    COPY_CHANNEL_DEPTH,
};
use lserve_quant::KvPrecision;

const PAGE_UNITS: u64 = 4;

fn async_pool(capacity: usize) -> PagePool {
    PagePool::new_with_tiers(
        PagingConfig::new(PAGE_UNITS as usize, 2, KvPrecision::Fp16),
        capacity,
        4,
        MigrationMode::Async,
        TierConfig::default(),
    )
}

#[test]
fn demote_frees_hot_slot_only_when_transfer_lands() {
    let mut p = async_pool(4);
    let id = p.allocate().unwrap();
    assert_eq!(p.demote(id), Some(PAGE_UNITS));
    // In flight: still occupying (and readable from) the hot tier.
    assert_eq!(p.residency(id), Residency::Migrating(MigrationDir::ToCold));
    assert!(p.is_hot(id), "outbound page stays readable until landing");
    assert_eq!(p.in_use(), 1);
    assert_eq!(p.cold_in_use(), 0);
    // ... but its slot is reclaimable, so free_pages counts it.
    assert_eq!(p.free_pages(), 4);
    p.advance_transfer_units(PAGE_UNITS);
    assert_eq!(p.residency(id), Residency::Cold);
    assert!(!p.is_hot(id));
    assert_eq!(p.in_use(), 0);
    assert_eq!(p.cold_in_use(), 1);
    assert_eq!(p.migration_stats().hidden_token_units, PAGE_UNITS);
    assert_eq!(p.migration_stats().unhidden_token_units, 0);
}

#[test]
fn promote_at_step_t_is_usable_after_latency() {
    let mut p = async_pool(4);
    let id = p.allocate().unwrap();
    p.demote(id).unwrap();
    p.advance_transfer_units(PAGE_UNITS);
    assert_eq!(p.promote(id), Some(PAGE_UNITS));
    assert_eq!(p.residency(id), Residency::Migrating(MigrationDir::ToHot));
    assert!(!p.is_hot(id), "inbound page unreadable until it lands");
    assert_eq!(p.in_use(), 1, "hot slot held from issue");
    assert_eq!(p.cold_in_use(), 0);
    // Half the bandwidth: still in flight.
    p.advance_transfer_units(PAGE_UNITS / 2);
    assert!(!p.is_hot(id));
    p.advance_transfer_units(PAGE_UNITS / 2);
    assert!(p.is_hot(id));
    assert_eq!(p.residency(id), Residency::Hot);
}

#[test]
fn demote_while_migrating_is_refused() {
    let mut p = async_pool(4);
    let id = p.allocate().unwrap();
    p.demote(id).unwrap();
    assert_eq!(p.demote(id), None, "already draining out");
    // Inbound in-flight pages *can* be re-demoted (the promote is aborted).
    p.advance_transfer_units(PAGE_UNITS);
    p.promote(id).unwrap();
    assert_eq!(p.residency(id), Residency::Migrating(MigrationDir::ToHot));
    assert_eq!(
        p.demote(id),
        Some(PAGE_UNITS),
        "re-demote aborts the promote"
    );
    assert_eq!(p.residency(id), Residency::Migrating(MigrationDir::ToCold));
    assert!(p.migration_stats().cancelled_token_units >= PAGE_UNITS);
}

#[test]
fn promote_before_demote_completes_is_free() {
    let mut p = async_pool(4);
    let id = p.allocate().unwrap();
    p.demote(id).unwrap();
    p.advance_transfer_units(1); // partial drain
    assert_eq!(p.promote(id), Some(0), "device copy never left");
    assert_eq!(p.residency(id), Residency::Hot);
    assert_eq!(p.in_use(), 1);
    assert_eq!(p.cold_in_use(), 0);
    let m = p.migration_stats();
    assert_eq!(m.cancelled_token_units, PAGE_UNITS - 1);
    assert_eq!(m.unhidden_token_units, 0, "nothing stalled");
    // Later advances have nothing to drain for this page.
    p.advance_transfer_units(100);
    assert_eq!(p.residency(id), Residency::Hot);
}

#[test]
fn cow_fork_of_a_migrating_page_keeps_both_copies_consistent() {
    let mut p = async_pool(4);
    let id = p.allocate().unwrap();
    p.page_mut(id)
        .append(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
    p.demote(id).unwrap();
    // A second owner appears while the page drains out (e.g. the prefix
    // cache retaining a donor's table), then forks to append.
    p.retain(id);
    assert_eq!(p.residency(id), Residency::Migrating(MigrationDir::ToCold));
    let forked = p.fork(id).unwrap();
    assert_ne!(forked, id);
    assert_eq!(p.residency(forked), Residency::Hot, "forks are always hot");
    assert_eq!(p.page(forked).key_row(0), &[1.0, 2.0, 3.0, 4.0]);
    assert_eq!(p.refcount(id), 1, "fork dropped the caller's reference");
    // The source's outbound transfer is unaffected and still lands.
    p.advance_transfer_units(PAGE_UNITS);
    assert_eq!(p.residency(id), Residency::Cold);
    assert_eq!(p.cold_in_use(), 1);
    assert_eq!(p.in_use(), 1);
}

#[test]
fn free_while_migrating_cancels_and_conserves_slots() {
    let mut p = async_pool(2);
    let a = p.allocate().unwrap();
    let b = p.allocate().unwrap();
    p.demote(a).unwrap();
    p.free(a); // outbound in flight
    p.demote(b).unwrap();
    p.advance_transfer_units(PAGE_UNITS);
    p.promote(b).unwrap();
    p.free(b); // inbound in flight
    assert_eq!(p.total_in_use(), 0);
    assert_eq!(p.in_flight_transfers(), 0, "frees cancelled both transfers");
    // Slots are genuinely reusable.
    let ids: Vec<_> = (0..2).map(|_| p.allocate().unwrap()).collect();
    assert_eq!(p.in_use(), 2);
    assert!(p.allocate().is_none());
    drop(ids);
}

#[test]
fn allocate_reclaims_inflight_demotions_by_forcing() {
    let mut p = async_pool(2);
    let a = p.allocate().unwrap();
    let _b = p.allocate().unwrap();
    p.demote(a).unwrap();
    assert_eq!(
        p.free_pages(),
        1,
        "in-flight demotion counts as reclaimable"
    );
    // No bandwidth has drained; allocation must force the transfer.
    let c = p.allocate().unwrap();
    assert_ne!(c, a);
    assert_eq!(p.residency(a), Residency::Cold, "forced to completion");
    let m = p.migration_stats();
    assert_eq!(
        m.unhidden_token_units, PAGE_UNITS,
        "remainder charged as stall"
    );
    assert_eq!(m.forced_completions, 1);
    assert_eq!(p.free_pages(), 0);
}

#[test]
fn bounded_channel_forces_oldest_when_full() {
    let mut p = async_pool(COPY_CHANNEL_DEPTH + 2);
    let ids: Vec<_> = (0..COPY_CHANNEL_DEPTH + 1)
        .map(|_| p.allocate().unwrap())
        .collect();
    for &id in &ids {
        p.demote(id).unwrap();
    }
    assert_eq!(
        p.in_flight_transfers(),
        COPY_CHANNEL_DEPTH,
        "queue depth is bounded"
    );
    assert_eq!(
        p.residency(ids[0]),
        Residency::Cold,
        "oldest was forced out"
    );
    assert_eq!(p.migration_stats().forced_completions, 1);
    assert_eq!(p.migration_stats().unhidden_token_units, PAGE_UNITS);
}

#[test]
fn ensure_hot_charges_only_the_unhidden_remainder() {
    let mut p = async_pool(4);
    let id = p.allocate().unwrap();
    p.demote(id).unwrap();
    p.advance_transfer_units(PAGE_UNITS);
    p.promote(id).unwrap();
    p.advance_transfer_units(PAGE_UNITS - 1); // almost landed
    let before = p.migration_stats().unhidden_token_units;
    assert_eq!(p.ensure_hot(id), Some((0, 1)), "one unit left to wait for");
    assert!(p.is_hot(id));
    assert_eq!(p.migration_stats().unhidden_token_units - before, 1);
    // A hot page is free to ensure.
    assert_eq!(p.ensure_hot(id), Some((0, 0)));
    // A cold page is a demand fetch: fully unhidden.
    p.demote(id).unwrap();
    p.advance_transfer_units(PAGE_UNITS);
    assert_eq!(p.ensure_hot(id), Some((PAGE_UNITS, PAGE_UNITS)));
    assert!(p.is_hot(id));
}

#[test]
fn prefetch_ledger_tracks_hits_and_waste() {
    let mut p = async_pool(4);
    let a = p.allocate().unwrap();
    let b = p.allocate().unwrap();
    for id in [a, b] {
        p.demote(id).unwrap();
    }
    p.advance_transfer_units(2 * PAGE_UNITS);
    assert_eq!(p.cold_in_use(), 2);
    // Prefetch both; only `a` is later demanded.
    assert!(p.prefetch(a));
    assert!(p.prefetch(b));
    assert!(!p.prefetch(a), "already in flight: declined");
    p.advance_transfer_units(2 * PAGE_UNITS);
    assert!(p.is_hot(a));
    assert_eq!(p.ensure_hot(a), Some((0, 0)), "prefetched page is free");
    p.demote(b).unwrap();
    let m = p.migration_stats();
    assert_eq!(m.prefetch_issued, 2);
    assert_eq!(m.prefetch_hits, 1);
    assert_eq!(m.prefetch_wasted, 1);
}

#[test]
fn prefetch_never_steals_hot_capacity() {
    let mut p = async_pool(2);
    let a = p.allocate().unwrap();
    p.demote(a).unwrap();
    p.advance_transfer_units(PAGE_UNITS);
    let _b = p.allocate().unwrap();
    let _c = p.allocate().unwrap();
    assert_eq!(p.free_pages(), 0);
    assert!(
        !p.prefetch(a),
        "no free slot: prefetch declined, not forced"
    );
    assert!(!p.prefetch(_b), "hot page: declined");
    assert_eq!(p.migration_stats().prefetch_issued, 0);
}

/// Pages of `c` no kernel may read where they are.
fn unreadable(p: &PagePool, c: &DenseHeadCache) -> usize {
    c.page_ids().filter(|&id| !p.is_hot(id)).count()
}

#[test]
fn swap_in_demand_counts_own_inflight_demotions() {
    let mut p = async_pool(8);
    let mut c = DenseHeadCache::new();
    for i in 0..3 * PAGE_UNITS {
        assert!(c.append(&mut p, &[i as f32; 4], &[i as f32; 4]));
    }
    let table: Vec<_> = c.page_table().to_vec();
    // One demotion still in flight, one fully landed.
    p.demote(table[0]).unwrap();
    p.demote(table[1]).unwrap();
    p.advance_transfer_units(PAGE_UNITS); // lands table[0] only (FIFO head first)
    assert_eq!(p.residency(table[0]), Residency::Cold);
    assert_eq!(
        p.residency(table[1]),
        Residency::Migrating(MigrationDir::ToCold)
    );
    // One page is unreadable (the in-flight demotion still reads as hot),
    // but a swap-in must reserve both: forcing our own outbound transfer
    // frees a slot and mints a new cold page — net-zero supply.
    assert_eq!(unreadable(&p, &c), 1);
    assert_eq!(p.swap_in_demand(c.page_ids()), 2);
    // An inbound transfer already holds its slot: no extra demand.
    p.promote(table[0]).unwrap();
    assert_eq!(
        p.residency(table[0]),
        Residency::Migrating(MigrationDir::ToHot)
    );
    assert_eq!(p.swap_in_demand(c.page_ids()), 1);
    p.advance_transfer_units(10 * PAGE_UNITS);
    assert_eq!(
        p.swap_in_demand(c.page_ids()),
        1,
        "landed demotion is plain cold demand"
    );
    assert_eq!(unreadable(&p, &c), 1);
}

#[test]
fn sync_mode_charges_everything_unhidden() {
    let mut p = PagePool::new(PagingConfig::new(4, 2, KvPrecision::Fp16), 4, 4);
    assert_eq!(p.migration_mode(), MigrationMode::Sync);
    let id = p.allocate().unwrap();
    p.demote(id).unwrap();
    p.promote(id).unwrap();
    let m = p.migration_stats();
    assert_eq!(m.unhidden_token_units, 2 * PAGE_UNITS);
    assert_eq!(m.hidden_token_units, 0);
    assert_eq!(m.overlap_ratio(), 0.0);
    assert!(!p.prefetch(id), "prefetch is an async-mode concept");
    // advance is a harmless no-op.
    p.advance_transfer_units(1000);
    assert_eq!(p.migration_stats().hidden_token_units, 0);
}
