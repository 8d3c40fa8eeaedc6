//! Demote/promote edge cases of the two-tier page pool as the head caches
//! drive it: shared CoW pages, partial last pages, streaming windows, the
//! exactness of cold-page demand accounting, and what a swap resume costs
//! against a replay.

use lserve_kvcache::{
    append_token, transfer_cost_tokens, DenseHeadCache, Moved, PageId, PagePool, PagingConfig,
    StreamingWindow, HOST_TRANSFER_SPEEDUP,
};
use lserve_quant::KvPrecision;

fn pool(capacity: usize) -> PagePool {
    PagePool::new(PagingConfig::new(4, 2, KvPrecision::Fp16), capacity, 2)
}

/// Pages of the set no kernel may read where they are (the exact hot demand
/// of a swap-in, in-flight demotions aside).
fn cold_pages(pool: &PagePool, ids: impl Iterator<Item = PageId>) -> usize {
    ids.filter(|&id| !pool.is_hot(id)).count()
}

/// One layer's heads, streaming where `mask` says so.
fn layer(mask: &[bool], window: StreamingWindow) -> Vec<DenseHeadCache> {
    let head = |&s: &bool| DenseHeadCache::with_window(s.then_some(window));
    mask.iter().map(head).collect()
}

/// Every page of a layer's heads.
fn layer_pages(heads: &[DenseHeadCache]) -> impl Iterator<Item = PageId> + '_ {
    heads.iter().flat_map(DenseHeadCache::page_ids)
}

fn fill_dense(pool: &mut PagePool, cache: &mut DenseHeadCache, n: usize) {
    for i in 0..n {
        assert!(cache.append(pool, &[i as f32, 1.0], &[2.0, i as f32]));
    }
}

#[test]
fn dense_swap_round_trip_preserves_partial_last_page() {
    let mut p = pool(16);
    let mut c = DenseHeadCache::new();
    fill_dense(&mut p, &mut c, 10); // pages: 4 + 4 + 2 (partial last)
    let hot_before = p.in_use();
    let Moved { pages, units, .. } = p.demote_all(c.page_ids());
    assert_eq!(pages, 3, "the partial last page swaps out too");
    assert_eq!(
        units,
        3 * 4,
        "full page slots cross the link, not just rows"
    );
    assert_eq!(p.in_use(), hot_before - 3);
    assert_eq!(cold_pages(&p, c.page_ids()), 3);
    let back = p.promote_all(c.page_ids()).unwrap();
    assert_eq!((back.pages, back.units), (3, 12));
    assert_eq!(cold_pages(&p, c.page_ids()), 0);
    // Contents and append position survive the round trip: the partial last
    // page keeps accepting rows.
    assert_eq!(c.key(&p, 9), vec![9.0, 1.0]);
    assert!(c.append(&mut p, &[99.0, 1.0], &[0.0, 0.0]));
    assert_eq!(c.tokens(), 11);
    assert_eq!(
        c.num_pages(),
        3,
        "append lands in the promoted partial page"
    );
}

#[test]
fn shared_cow_pages_stay_hot_through_demote_all() {
    let mut p = pool(16);
    let mut c = DenseHeadCache::new();
    fill_dense(&mut p, &mut c, 6);
    // A prefix-cache entry co-owns the first page only.
    p.retain(c.page_table()[0]);
    let pages = p.demote_all(c.page_ids()).pages;
    assert_eq!(pages, 1, "only the sole-owned page may leave the hot tier");
    assert!(p.is_hot(c.page_table()[0]), "co-owned page pinned hot");
    assert!(!p.is_hot(c.page_table()[1]));
    assert_eq!(cold_pages(&p, c.page_ids()), 1);
    // The co-owner drops its reference; a second pass may now demote it.
    p.free(c.page_table()[0]);
    let pages = p.demote_all(c.page_ids()).pages;
    assert_eq!(pages, 1);
    assert_eq!(cold_pages(&p, c.page_ids()), 2);
    p.promote_all(c.page_ids()).unwrap();
    c.release(&mut p);
    assert_eq!(p.total_in_use(), 0);
}

#[test]
fn streaming_ring_swaps_whole_and_keeps_evicting() {
    let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
    let mut p = PagePool::new(cfg, 16, 2);
    let mut c = DenseHeadCache::with_window(Some(StreamingWindow::new(1, 2)));
    for i in 0..20 {
        assert!(c.append(&mut p, &[i as f32, 0.0], &[0.0, 0.0]));
    }
    let resident = c.num_pages();
    let pages = p.demote_all(c.page_ids()).pages;
    assert_eq!(pages as usize, resident, "sink + local window all swap out");
    assert_eq!(cold_pages(&p, c.page_ids()), resident);
    p.promote_all(c.page_ids()).unwrap();
    assert_eq!(cold_pages(&p, c.page_ids()), 0);
    // The window keeps sliding after the round trip: eviction still frees the
    // oldest local page and the pool's hot accounting stays consistent.
    for i in 20..40 {
        assert!(c.append(&mut p, &[i as f32, 0.0], &[0.0, 0.0]));
    }
    assert!(c.num_pages() <= c.window().unwrap().max_pages());
    assert_eq!(p.cold_in_use(), 0);
    c.release(&mut p);
    assert_eq!(p.total_in_use(), 0);
}

#[test]
fn promote_all_reports_exhaustion_without_corruption() {
    let mut p = pool(4);
    let mut c = DenseHeadCache::new();
    fill_dense(&mut p, &mut c, 12); // 3 pages, pool of 4
    p.demote_all(c.page_ids());
    // Another tenant grabs the freed hot slots.
    let squatters: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
    assert_eq!(p.free_pages(), 1);
    assert!(
        p.promote_all(c.page_ids()).is_none(),
        "promotion must report a full hot tier"
    );
    assert_eq!(
        cold_pages(&p, c.page_ids()),
        2,
        "exactly the pages that fit were promoted"
    );
    for id in squatters {
        p.free(id);
    }
    p.promote_all(c.page_ids()).unwrap();
    assert_eq!(cold_pages(&p, c.page_ids()), 0);
    c.release(&mut p);
    assert_eq!(p.total_in_use(), 0);
}

#[test]
fn layer_cold_demand_is_exact_across_head_kinds() {
    let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
    let mut p = PagePool::new(cfg, 256, 2);
    let layer = {
        let mut l = layer(&[false, true, false], StreamingWindow::new(1, 2));
        let keys = vec![0.5f32; 6];
        let values = vec![0.5f32; 6];
        for _ in 0..30 {
            assert!(append_token(&mut l, &mut p, &keys, &values));
        }
        l
    };
    let resident = layer_pages(&layer).count();
    let Moved { pages, units, .. } = p.demote_all(layer_pages(&layer));
    assert_eq!(pages as usize, resident);
    assert_eq!(cold_pages(&p, layer_pages(&layer)), resident);
    assert_eq!(units, pages * 4);
    // The modeled transfer cost is deterministic and rounds up.
    assert_eq!(
        transfer_cost_tokens(units),
        units.div_ceil(HOST_TRANSFER_SPEEDUP)
    );
    let back = p.promote_all(layer_pages(&layer)).unwrap();
    assert_eq!(back.pages, pages);
    assert_eq!(cold_pages(&p, layer_pages(&layer)), 0);
}

/// Resuming a swapped-out 32k-token victim promotes its offloaded page set
/// across the host link; replaying it re-feeds the whole context through the
/// forward pass. The victim is LServe's geometry at half scale: 4 layers of
/// 4 KV heads, half of them streaming, 32-token physical pages. Swap resume
/// must model at least 5x cheaper (8 216 pages = 4 108 work tokens against
/// 32 768, 8.0x, when this test was written).
#[test]
fn swap_resume_models_at_least_5x_cheaper_than_replaying_a_32k_victim() {
    const VICTIM_TOKENS: usize = 32 * 1024;
    const LAYERS: usize = 4;
    let paging = PagingConfig::new(32, 16, KvPrecision::Fp16);
    let mut p = PagePool::new(paging, 2 * LAYERS * VICTIM_TOKENS / 32 + 64, 4);
    let layers: Vec<Vec<DenseHeadCache>> = (0..LAYERS)
        .map(|_| {
            let mut l = layer(
                &[false, true, false, true],
                StreamingWindow::paper_default(),
            );
            for _ in 0..VICTIM_TOKENS {
                assert!(append_token(&mut l, &mut p, &[0.25; 16], &[0.5; 16]));
            }
            l
        })
        .collect();
    for l in &layers {
        p.demote_all(layer_pages(l));
    }
    let units: u64 = layers
        .iter()
        .map(|l| p.promote_all(layer_pages(l)).expect("pool sized").units)
        .sum();
    let swap = transfer_cost_tokens(units);
    let replay = VICTIM_TOKENS as u64;
    println!(
        "32k-token victim: swap promotes {} pages = {swap} work tokens, replay {replay} ({:.1}x)",
        p.tier_stats().pages_promoted,
        replay as f64 / swap as f64,
    );
    assert!(
        swap * 5 <= replay,
        "swap resume ({swap} tokens) must model >= 5x cheaper than replay ({replay} tokens)"
    );
}

#[test]
fn quantized_pages_survive_the_round_trip_bit_exactly() {
    let cfg = PagingConfig::new(4, 2, KvPrecision::Int4);
    let mut p = PagePool::new(cfg, 16, 4);
    let mut c = DenseHeadCache::new();
    for i in 0..7 {
        let x = i as f32 * 0.37 - 1.0;
        assert!(c.append(&mut p, &[x, -x, 2.0 * x, 0.5], &[x, x, -x, 1.0]));
    }
    let before: Vec<Vec<f32>> = (0..7).map(|t| c.key(&p, t)).collect();
    p.demote_all(c.page_ids());
    p.promote_all(c.page_ids()).unwrap();
    let after: Vec<Vec<f32>> = (0..7).map(|t| c.key(&p, t)).collect();
    assert_eq!(before, after, "migration must never touch stored codes");
}
