//! Property tests spanning crates: selection→kernel equivalence, engine
//! equivalences, and allocator safety under arbitrary workloads.

use std::sync::Arc;

use lserve::attention::{attend_pages, masked_attention_reference};
use lserve::core::{EngineConfig, ModelExecutor};
use lserve::kvcache::{DenseHeadCache, PagePool, PagingConfig};
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::selector::{
    FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector, Selection,
};
use lserve::tensor::{Matrix, SeededGaussian};
use proptest::prelude::*;

fn build_cache(seed: u64, tokens: usize, np: usize, nl: usize) -> (PagePool, DenseHeadCache) {
    let cfg = PagingConfig::new(np, nl, KvPrecision::Fp16);
    let mut pool = PagePool::new(cfg, cfg.pages_for(tokens) + 2, 8);
    let mut cache = DenseHeadCache::new();
    let mut g = SeededGaussian::new(seed);
    for _ in 0..tokens {
        let k: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let v: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        assert!(cache.append(&mut pool, &k, &v));
    }
    (pool, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the selector picks, the decode kernel over those pages must equal
    /// the masked reference restricted to the same token set.
    #[test]
    fn selected_decode_equals_masked_reference(
        seed in 0u64..500,
        tokens in 9usize..120,
        budget in 1usize..64,
    ) {
        let np = 8;
        let (pool, cache) = build_cache(seed, tokens, np, 4);
        let mut g = SeededGaussian::new(seed ^ 0xDEAD);
        let q: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let mut sel = HierarchicalSelector::new(true);
        let s = sel.select(&pool, &cache, &[&q], budget * np, 0);
        let (got, _) = attend_pages(&pool, &cache, &q, 0.35, Some(&s.pages));

        let k_all = Matrix::from_vec(tokens, 8, (0..tokens).flat_map(|t| cache.key(&pool, t)).collect());
        let v_all = Matrix::from_vec(tokens, 8, (0..tokens).flat_map(|t| cache.value(&pool, t)).collect());
        let q_m = Matrix::from_vec(1, 8, q.clone());
        let want = masked_attention_reference(&q_m, &k_all, &v_all, 0.35, |_, j| {
            s.pages.contains(&(j / np))
        });
        for (a, b) in got.iter().zip(want.row(0)) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Selections always include the most recent page, never an out-of-range page,
    /// and respect the page budget (up to the forced pages).
    #[test]
    fn selection_invariants(
        seed in 0u64..500,
        tokens in 5usize..200,
        budget_pages in 1usize..32,
        flat in proptest::bool::ANY,
    ) {
        let np = 8;
        let (pool, cache) = build_cache(seed, tokens, np, 4);
        let mut g = SeededGaussian::new(seed ^ 77);
        let q: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let s: Selection = if flat {
            FlatSelector::new(true).select(&pool, &cache, &[&q], budget_pages * np, 0)
        } else {
            HierarchicalSelector::new(true).select(&pool, &cache, &[&q], budget_pages * np, 0)
        };
        let last = cache.num_pages() - 1;
        prop_assert!(s.pages.contains(&last), "last page missing: {:?}", s.pages);
        prop_assert!(s.pages.iter().all(|&p| p < cache.num_pages()));
        prop_assert!(s.pages.len() <= budget_pages.max(2));
        let mut sorted = s.pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted, s.pages);
    }

    /// A reusable selector's replayed selection equals the fresh one within a chunk
    /// when the cache does not grow.
    #[test]
    fn reuse_is_transparent_on_static_cache(
        seed in 0u64..200,
        tokens in 33usize..150,
        interval in 2usize..8,
    ) {
        let (pool, cache) = build_cache(seed, tokens, 8, 4);
        let mut g = SeededGaussian::new(seed ^ 3);
        let q: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), interval);
        let fresh = sel.select(&pool, &cache, &[&q], 64, 0);
        for step in 1..interval {
            let replay = sel.select(&pool, &cache, &[&q], 64, step);
            prop_assert!(replay.reused);
            prop_assert_eq!(&replay.pages, &fresh.pages);
        }
        let rescore = sel.select(&pool, &cache, &[&q], 64, interval);
        prop_assert!(!rescore.reused);
    }

    /// The engine's generation is a pure function of (weights seed, config, prompt).
    #[test]
    fn engine_determinism(
        wseed in 0u64..50,
        plen in 4usize..24,
        lserve in proptest::bool::ANY,
    ) {
        let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), wseed));
        let prompt: Vec<u32> = (0..plen).map(|i| ((i * 7) % 90) as u32).collect();
        let cfg = if lserve { EngineConfig::lserve() } else { EngineConfig::dense() };
        let run = |cfg: EngineConfig| {
            let mut pool = cfg.make_pool_for(&w.config, 256);
            let exec = ModelExecutor::new(Arc::clone(&w), cfg);
            exec.generate(&mut exec.new_sequence(), &mut pool, &prompt, 8).unwrap()
        };
        prop_assert_eq!(run(cfg.clone()), run(cfg));
    }

    /// Pool accounting: after any engine run and release, zero pages remain.
    #[test]
    fn no_page_leaks(
        wseed in 0u64..50,
        plen in 4usize..32,
        steps in 1usize..24,
    ) {
        let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), wseed));
        let cfg = EngineConfig::lserve_fp16();
        let mut pool = cfg.make_pool_for(&w.config, 256);
        let exec = ModelExecutor::new(w, cfg);
        let mut seq = exec.new_sequence();
        let prompt: Vec<u32> = (0..plen).map(|i| (i % 90) as u32).collect();
        exec.generate(&mut seq, &mut pool, &prompt, steps).unwrap();
        seq.release(&mut pool);
        prop_assert_eq!(pool.in_use(), 0);
    }
}
