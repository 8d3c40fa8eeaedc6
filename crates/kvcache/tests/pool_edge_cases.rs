//! PagePool fork/retain/release edge cases through the public API: the
//! invariants the copy-on-write prefix-sharing discipline leans on, exercised
//! exactly where they would corrupt state if they regressed — double frees,
//! forks of full pages, and the *exact* shared-page demand accounting the
//! scheduler's reservation logic trusts.

use lserve_kvcache::{append_token, DenseHeadCache, PagePool, PagingConfig, StreamingWindow};
use lserve_quant::KvPrecision;

fn pool(precision: KvPrecision, capacity: usize) -> PagePool {
    PagePool::new(PagingConfig::new(4, 2, precision), capacity, 4)
}

fn row(v: f32) -> [f32; 4] {
    [v, v + 0.5, -v, 2.0 * v]
}

/// Releasing a page past refcount zero is a bug in the caller, and the pool
/// must refuse it loudly rather than corrupting the free list.
#[test]
#[should_panic(expected = "free of unallocated page")]
fn double_release_of_sole_reference_panics() {
    let mut p = pool(KvPrecision::Fp16, 4);
    let id = p.allocate().unwrap();
    p.free(id);
    p.free(id); // second free: the guard must fire
}

/// Retaining a page that was already recycled must panic too — a stale
/// `PageId` can otherwise resurrect a page another owner now holds.
#[test]
#[should_panic(expected = "retain of free page")]
fn retain_after_release_panics() {
    let mut p = pool(KvPrecision::Fp16, 4);
    let id = p.allocate().unwrap();
    p.free(id);
    p.retain(id);
}

/// Cache-level release is idempotent: a released cache holds no page ids, so
/// releasing again (a preemption racing a completion path, say) is a no-op
/// instead of a double free.
#[test]
fn cache_release_is_idempotent() {
    let mut p = pool(KvPrecision::Fp16, 16);
    let mut c = DenseHeadCache::new();
    for i in 0..6 {
        assert!(c.append(&mut p, &row(i as f32), &row(0.0)));
    }
    c.release(&mut p);
    assert_eq!(p.in_use(), 0);
    c.release(&mut p); // second release: nothing to free, nothing to panic on
    assert_eq!(p.in_use(), 0);
    assert_eq!(c.tokens(), 0);
}

/// Forking a *full* page yields a full, bit-identical, independent copy — and
/// the CoW append path never needs to fork full pages (they are immutable by
/// construction), so demand accounting treats them as free to share forever.
#[test]
fn fork_of_full_page_copies_every_row() {
    let mut p = pool(KvPrecision::Fp16, 8);
    let id = p.allocate().unwrap();
    for i in 0..4 {
        p.page_mut(id).append(&row(i as f32), &row(10.0 + i as f32));
    }
    assert!(p.page(id).is_full());
    p.retain(id);
    let forked = p.fork(id).unwrap();
    assert_ne!(forked, id);
    assert!(p.page(forked).is_full());
    for t in 0..4 {
        assert_eq!(p.page(forked).key_row(t), p.page(id).key_row(t));
        assert_eq!(p.page(forked).value_row(t), p.page(id).value_row(t));
    }
    // Logical sub-page statistics travel with the fork (selection quality
    // must not degrade on forked pages).
    for l in 0..2 {
        assert_eq!(
            p.page(forked).logical_stats(l).kmax(),
            p.page(id).logical_stats(l).kmax()
        );
        assert_eq!(
            p.page(forked).logical_stats(l).kmin(),
            p.page(id).logical_stats(l).kmin()
        );
    }
}

/// Quantized pages fork codes + params, so a forked INT4 page dequantizes to
/// exactly the same effective rows as its source.
#[test]
fn fork_preserves_quantized_rows_bitwise() {
    let mut p = pool(KvPrecision::Int4, 8);
    let id = p.allocate().unwrap();
    for i in 0..3 {
        p.page_mut(id)
            .append(&row(0.3 * i as f32), &row(1.7 * i as f32));
    }
    p.retain(id);
    let forked = p.fork(id).unwrap();
    for t in 0..3 {
        assert_eq!(p.page(forked).key_row(t), p.page(id).key_row(t));
        assert_eq!(p.page(forked).value_row(t), p.page(id).value_row(t));
    }
}

/// The scheduler's exact reservation rests on this: a *shared partial* page
/// counts as page demand (the append must CoW-fork it), a shared *full* page
/// does not (appends open a fresh page anyway — one allocation either way),
/// and after the CoW append the demand disappears.
#[test]
fn shared_page_demand_accounting_is_exact() {
    let mut p = pool(KvPrecision::Fp16, 32);
    let mut c = DenseHeadCache::new();
    for i in 0..6 {
        assert!(c.append(&mut p, &row(i as f32), &row(0.0)));
    }
    // 6 tokens over 4-token pages: one full page + one partial (2 tokens).
    assert!(!c.needs_page_for_next_append(&p), "private partial page");
    p.retain_all(c.page_ids()); // a prefix-cache entry now co-owns everything
    assert!(
        c.needs_page_for_next_append(&p),
        "shared partial page must count as demand"
    );
    let before = p.in_use();
    assert!(c.append(&mut p, &row(9.0), &row(9.0)));
    assert_eq!(
        p.in_use(),
        before + 1,
        "exactly the predicted fork happened"
    );
    assert!(
        !c.needs_page_for_next_append(&p),
        "demand clears once the fork made the tail private"
    );
    // The donated copy is frozen: the tree's partial page still has 2 tokens.
    assert_eq!(p.fork_count(), 1);
}

/// Streaming heads have the same CoW demand rule on their window tail, plus the
/// transient evict-after-alloc demand; the shared partial tail must be
/// reported and resolved by a fork exactly once.
#[test]
fn streaming_shared_tail_demand_and_fork() {
    let mut p = pool(KvPrecision::Fp16, 32);
    let mut c = DenseHeadCache::with_window(Some(StreamingWindow::new(1, 2)));
    for i in 0..10 {
        assert!(c.append(&mut p, &row(i as f32), &row(0.0)));
    }
    // 10 tokens: full sink page [0,4), local pages [4,8) and [8,10 partial).
    assert!(!c.needs_page_for_next_append(&p));
    p.retain_all(c.page_ids());
    assert!(
        c.needs_page_for_next_append(&p),
        "shared partial local tail must count as demand"
    );
    let forks_before = p.fork_count();
    assert!(c.append(&mut p, &row(99.0), &row(99.0)));
    assert_eq!(p.fork_count(), forks_before + 1, "tail forked exactly once");
    assert_eq!(c.tokens(), 11);
}

/// Layer-level demand sums per-head demand exactly: with every page shared,
/// each head with a partial tail (or a full tail, which opens a new page)
/// contributes exactly the pages the next `append_token` will allocate.
#[test]
fn layer_demand_matches_actual_allocation_under_sharing() {
    let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
    let mut p = PagePool::new(cfg, 128, 2);
    let window = StreamingWindow::new(1, 2);
    let mut layer: Vec<DenseHeadCache> = [false, true, false]
        .map(|streaming| DenseHeadCache::with_window(streaming.then_some(window)))
        .into();
    let keys = vec![0.25f32; 6];
    let values = vec![0.75f32; 6];
    for _ in 0..6 {
        assert!(append_token(&mut layer, &mut p, &keys, &values));
    }
    p.retain_all(layer.iter().flat_map(DenseHeadCache::page_ids));
    let predicted = layer
        .iter()
        .filter(|h| h.needs_page_for_next_append(&p))
        .count();
    assert!(predicted > 0, "shared tails must be counted");
    let before = p.in_use();
    assert!(append_token(&mut layer, &mut p, &keys, &values));
    let grown = p.in_use() - before;
    // Streaming heads may free a page after allocating (transient demand), so
    // actual growth is bounded by — and for dense heads equal to — the
    // prediction.
    assert!(
        grown <= predicted,
        "grew {grown} pages but reserved only {predicted}"
    );
    // Releasing the sequence's copy leaves exactly the donated (retained)
    // pages alive; releasing those too empties the pool: conservation.
    let donated = layer.iter().flat_map(DenseHeadCache::page_ids).count();
    assert!(donated > 0);
    for head in &mut layer {
        head.release(&mut p);
    }
    assert!(p.in_use() > 0, "donated copies survive the sequence");
}

/// A failed fork under pool exhaustion must leave refcounts untouched even
/// when interleaved with successful CoW appends — the cache reports `false`
/// and every owner keeps a consistent view.
#[test]
fn cow_append_fails_cleanly_when_fork_cannot_allocate() {
    let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
    let mut p = PagePool::new(cfg, 1, 4);
    let mut c = DenseHeadCache::new();
    assert!(c.append(&mut p, &row(1.0), &row(1.0)));
    p.retain_all(c.page_ids()); // shared partial page, pool now exhausted
    assert!(c.needs_page_for_next_append(&p));
    assert!(
        !c.append(&mut p, &row(2.0), &row(2.0)),
        "append must fail: the required fork cannot allocate"
    );
    assert_eq!(c.tokens(), 1, "failed append left the cache unchanged");
    let id = c.page_table()[0];
    assert_eq!(p.refcount(id), 2, "failed fork left both references intact");
}
