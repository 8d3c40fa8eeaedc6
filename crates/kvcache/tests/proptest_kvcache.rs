//! Property tests for the page pool and the head tables.

use lserve_kvcache::{DenseHeadCache, LogicalPageStats, PagePool, PagingConfig, StreamingWindow};
use lserve_quant::KvPrecision;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Allocator safety under arbitrary alloc/free interleavings: ids are unique
    /// among live pages, capacity is conserved, freed pages are reusable.
    #[test]
    fn allocator_never_double_allocates(ops in prop::collection::vec(prop::bool::ANY, 1..200)) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 16, 4);
        let mut live: Vec<_> = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(id) = pool.allocate() {
                    prop_assert!(!live.contains(&id), "id {id:?} double-allocated");
                    live.push(id);
                }
            } else if let Some(id) = live.pop() {
                pool.free(id);
            }
            prop_assert_eq!(pool.in_use(), live.len());
            prop_assert!(pool.in_use() <= pool.capacity());
        }
    }

    /// Dense cache round-trips every appended row regardless of page geometry and
    /// precision (within the precision's quantization step).
    #[test]
    fn dense_cache_round_trip(
        tokens in 1usize..80,
        np_exp in 0usize..4,
        quantized in prop::bool::ANY,
    ) {
        let np = 2usize << np_exp;
        let nl = np.min(2);
        let precision = if quantized { KvPrecision::Int8 } else { KvPrecision::Fp16 };
        let cfg = PagingConfig::new(np, nl, precision);
        let mut pool = PagePool::new(cfg, cfg.pages_for(tokens) + 1, 4);
        let mut cache = DenseHeadCache::new();
        for t in 0..tokens {
            let k = [t as f32 * 0.1, -(t as f32) * 0.2, 1.0, -1.0];
            prop_assert!(cache.append(&mut pool, &k, &k));
        }
        prop_assert_eq!(cache.tokens(), tokens);
        prop_assert_eq!(cache.num_pages(), cfg.pages_for(tokens));
        for t in 0..tokens {
            let got = cache.key(&pool, t);
            let want = [t as f32 * 0.1, -(t as f32) * 0.2, 1.0, -1.0];
            for (a, b) in got.iter().zip(&want) {
                // INT8 over the row's range; generous bound.
                let tol = if quantized { 0.1 } else { 1e-6 };
                prop_assert!((a - b).abs() <= tol, "{a} vs {b}");
            }
        }
        cache.release(&mut pool);
        prop_assert_eq!(pool.in_use(), 0);
    }

    /// Streaming cache residency is bounded by the window for any append count.
    #[test]
    fn streaming_residency_bounded(
        tokens in 1usize..300,
        sink in 0usize..3,
        local in 1usize..4,
    ) {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 64, 2);
        let mut cache = DenseHeadCache::with_window(Some(StreamingWindow::new(sink, local)));
        for t in 0..tokens {
            prop_assert!(cache.append(&mut pool, &[t as f32, 0.0], &[0.0, 0.0]));
        }
        prop_assert!(cache.num_pages() <= sink + local + 1);
        prop_assert_eq!(cache.tokens(), tokens);
        // The newest token is always resident.
        let (start, id) = cache.page_starts(&pool).last().unwrap();
        prop_assert_eq!(start + pool.page(id).len(), tokens);
        cache.release(&mut pool);
        prop_assert_eq!(pool.in_use(), 0);
    }

    /// Logical page statistics bound every member key's dot product with any query
    /// (the Eq. 2 soundness property the selector relies on).
    #[test]
    fn importance_bound_sound(
        keys in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 4), 1..20),
        query in prop::collection::vec(-3.0f32..3.0, 4),
    ) {
        let mut stats = LogicalPageStats::new(4);
        for k in &keys {
            stats.update(k);
        }
        let bound = stats.importance(&query);
        for k in &keys {
            let dot: f32 = query.iter().zip(k).map(|(a, b)| a * b).sum();
            prop_assert!(dot <= bound + 1e-4, "dot {dot} exceeds bound {bound}");
        }
    }

    /// Refcount invariants under arbitrary allocate/retain/free/fork churn, the
    /// operation mix the prefix cache generates: reference counts follow a shadow
    /// model exactly, a page never leaks or double-frees, forked pages carry
    /// bit-identical contents, and releasing every outstanding reference returns
    /// `in_use()` to zero.
    #[test]
    fn refcounts_survive_retain_free_fork_churn(
        ops in prop::collection::vec((0u8..4, 0usize..1_000_000), 1..300),
    ) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 12, 2);
        // Shadow model: one entry per reference we hold (a page may appear as
        // many times as its refcount), plus the row count written to each page.
        let mut refs: Vec<lserve_kvcache::PageId> = Vec::new();
        let mut stamp = 0f32;
        for (op, pick) in ops {
            match op {
                // Allocate and write a distinguishable row.
                0 => {
                    if let Some(id) = pool.allocate() {
                        prop_assert_eq!(pool.refcount(id), 1);
                        stamp += 1.0;
                        pool.page_mut(id).append(&[stamp, -stamp], &[stamp, stamp]);
                        refs.push(id);
                    } else {
                        // Exhaustion must mean every slot is accounted for.
                        prop_assert_eq!(pool.in_use(), pool.capacity());
                    }
                }
                // Retain a reference we already hold.
                1 => {
                    if !refs.is_empty() {
                        let id = refs[pick % refs.len()];
                        let before = pool.refcount(id);
                        pool.retain(id);
                        prop_assert_eq!(pool.refcount(id), before + 1);
                        refs.push(id);
                    }
                }
                // Free one of our references.
                2 => {
                    if !refs.is_empty() {
                        let id = refs.swap_remove(pick % refs.len());
                        let before = pool.refcount(id);
                        pool.free(id);
                        let live = refs.iter().filter(|&&r| r == id).count() as u32;
                        prop_assert_eq!(live, before - 1);
                        if live > 0 {
                            prop_assert_eq!(pool.refcount(id), live);
                        }
                    }
                }
                // Copy-on-write fork of one of our references.
                _ => {
                    if !refs.is_empty() {
                        let i = pick % refs.len();
                        let id = refs[i];
                        let want_key = pool.page(id).key_row(0).to_vec();
                        let shared_before = pool.is_shared(id);
                        if let Some(forked) = pool.fork(id) {
                            refs[i] = forked;
                            prop_assert_eq!(pool.refcount(forked), 1);
                            prop_assert_eq!(pool.page(forked).key_row(0), &want_key[..]);
                            if shared_before {
                                // Other holders keep the original alive.
                                prop_assert!(pool.refcount(id) >= 1);
                            }
                        } else {
                            // Failed fork must leave the reference untouched.
                            prop_assert!(pool.refcount(id) >= 1);
                        }
                    }
                }
            }
            // Global invariants after every operation.
            let mut counts = std::collections::HashMap::new();
            for &id in &refs {
                *counts.entry(id).or_insert(0u32) += 1;
            }
            prop_assert_eq!(pool.in_use(), counts.len(), "live pages == distinct refs");
            for (&id, &n) in &counts {
                prop_assert_eq!(pool.refcount(id), n, "shadow refcount diverged");
            }
        }
        // Drain every reference: the pool must return to empty.
        for id in refs.drain(..) {
            pool.free(id);
        }
        prop_assert_eq!(pool.in_use(), 0, "leaked pages after full release");
    }

    /// Per-page logical stats equal brute-force stats over the same token ranges.
    #[test]
    fn page_stats_match_bruteforce(tokens in 1usize..40) {
        let cfg = PagingConfig::new(8, 2, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, cfg.pages_for(tokens) + 1, 2);
        let mut cache = DenseHeadCache::new();
        let key_of = |t: usize| [ (t as f32 * 1.3).sin(), (t as f32 * 0.7).cos() ];
        for t in 0..tokens {
            cache.append(&mut pool, &key_of(t), &[0.0, 0.0]);
        }
        for p in 0..cache.num_pages() {
            let page = pool.page(cache.page_table()[p]);
            for l in 0..cfg.logical_per_physical() {
                let start = p * 8 + l * 2;
                let end = (start + 2).min(tokens);
                if start >= tokens {
                    prop_assert!(page.logical_stats(l).is_empty());
                    continue;
                }
                let mut want = LogicalPageStats::new(2);
                for t in start..end {
                    want.update(&key_of(t));
                }
                prop_assert_eq!(page.logical_stats(l).kmin(), want.kmin());
                prop_assert_eq!(page.logical_stats(l).kmax(), want.kmax());
            }
        }
    }
}
