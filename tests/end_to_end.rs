//! Workspace-level integration tests: the full engine against the cache-free
//! reference model, policy equivalences, and serving-loop consistency.

use std::sync::Arc;

use lserve::core::{
    AdmissionPolicy, EngineConfig, ModelExecutor, RequestSpec, Scheduler, SchedulerConfig,
    SelectorKind,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{greedy_next_token, reference_forward_full, ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;

fn weights(seed: u64) -> Arc<ModelWeights> {
    Arc::new(ModelWeights::random(&ModelConfig::tiny(), seed))
}

fn generate(cfg: EngineConfig, w: &Arc<ModelWeights>, prompt: &[u32], n: usize) -> Vec<u32> {
    let mut pool = cfg.make_pool_for(&w.config, prompt.len() + n + 8);
    let exec = ModelExecutor::new(Arc::clone(w), cfg);
    exec.generate(&mut exec.new_sequence(), &mut pool, prompt, n)
        .expect("pool sized")
}

/// FCFS continuous batching: monolithic prefill, full-footprint admission.
fn fcfs(w: &Arc<ModelWeights>, cfg: EngineConfig, pool_pages: usize) -> Scheduler {
    let scfg = SchedulerConfig {
        chunk_tokens: usize::MAX,
        max_batch: usize::MAX,
        admission: AdmissionPolicy::FullFootprint,
        ..SchedulerConfig::new(pool_pages)
    };
    Scheduler::new(Arc::new(ModelExecutor::new(Arc::clone(w), cfg)), scfg)
}

#[test]
fn dense_engine_tracks_reference_model_over_long_decode() {
    let w = weights(1);
    let cfg = EngineConfig::dense();
    let mut pool = cfg.make_pool_for(&w.config, 128);
    let exec = ModelExecutor::new(Arc::clone(&w), cfg);
    let mut state = exec.new_sequence();
    let prompt = [2u32, 4, 8, 16];
    let mut seq = prompt.to_vec();
    let mut logits = exec.prefill(&mut state, &mut pool, &prompt).unwrap().logits;
    for _ in 0..40 {
        let next = greedy_next_token(&logits);
        seq.push(next);
        logits = exec
            .decode_step(&mut state, &mut pool, next)
            .unwrap()
            .logits;
        let want = reference_forward_full(&w, &seq);
        let row = want.row(seq.len() - 1);
        let max_diff = logits
            .iter()
            .zip(row)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 5e-3,
            "divergence {max_diff} at len {}",
            seq.len()
        );
    }
}

#[test]
fn every_policy_generates_the_requested_tokens() {
    let w = weights(2);
    let prompt: Vec<u32> = (0..24).map(|i| (i % 90) as u32).collect();
    for cfg in [
        EngineConfig::dense(),
        EngineConfig::lserve(),
        EngineConfig::lserve_fp16(),
        EngineConfig::duo_like(),
        EngineConfig::qserve_like(),
        EngineConfig::quest_like(4096),
    ] {
        let out = generate(cfg.clone(), &w, &prompt, 12);
        assert_eq!(out.len(), 12, "config {cfg:?}");
        assert!(out.iter().all(|&t| (t as usize) < w.config.vocab));
    }
}

#[test]
fn dynamic_sparsity_with_infinite_budget_is_exact() {
    // Flat and hierarchical selectors with budget >= context must be bit-identical
    // to dense attention (FP16 paging isolates the selector).
    let w = weights(3);
    let prompt: Vec<u32> = (0..40).map(|i| (i % 90) as u32).collect();
    let dense = generate(EngineConfig::dense(), &w, &prompt, 16);
    for selector in [SelectorKind::Flat, SelectorKind::Hierarchical] {
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.streaming_sparsity = 0.0;
        cfg.selector = selector;
        cfg.dynamic_budget = Some(1 << 20);
        let sparse = generate(cfg, &w, &prompt, 16);
        assert_eq!(sparse, dense, "{selector:?}");
    }
}

#[test]
fn reuse_interval_one_equals_reuse_interval_any_with_full_budget() {
    let w = weights(4);
    let prompt: Vec<u32> = (0..32).map(|i| (i % 90) as u32).collect();
    let mut base = EngineConfig::lserve_fp16();
    base.streaming_sparsity = 0.0;
    base.dynamic_budget = Some(1 << 20);
    let mut c1 = base.clone();
    c1.reuse_interval = 1;
    let mut c8 = base;
    c8.reuse_interval = 8;
    assert_eq!(generate(c1, &w, &prompt, 12), generate(c8, &w, &prompt, 12));
}

#[test]
fn quantized_kv_bounded_logit_drift() {
    let w = weights(5);
    let prompt: Vec<u32> = (0..16).map(|i| (i % 90) as u32).collect();
    let dense_cfg = EngineConfig::dense();
    let mut dense_pool = dense_cfg.make_pool_for(&w.config, 64);
    let dense = ModelExecutor::new(Arc::clone(&w), dense_cfg);
    let mut dense_seq = dense.new_sequence();
    let d = dense
        .prefill(&mut dense_seq, &mut dense_pool, &prompt)
        .unwrap();

    let mut q_cfg = EngineConfig::qserve_like();
    q_cfg.paging = PagingConfig::flat(64, KvPrecision::Int8);
    let mut q_pool = q_cfg.make_pool_for(&w.config, 64);
    let q = ModelExecutor::new(Arc::clone(&w), q_cfg);
    let mut q_seq = q.new_sequence();
    let o = q.prefill(&mut q_seq, &mut q_pool, &prompt).unwrap();

    // Prefill attention runs on in-flight activations, so prefill logits are equal;
    // the quantized cache only affects decode.
    let prefill_diff = d
        .logits
        .iter()
        .zip(&o.logits)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        prefill_diff < 1e-4,
        "prefill should be exact: {prefill_diff}"
    );

    let dd = dense
        .decode_step(&mut dense_seq, &mut dense_pool, 7)
        .unwrap();
    let qq = q.decode_step(&mut q_seq, &mut q_pool, 7).unwrap();
    let decode_diff = dd
        .logits
        .iter()
        .zip(&qq.logits)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(decode_diff > 0.0, "int8 cache must differ somewhere");
    assert!(decode_diff < 0.5, "int8 drift too large: {decode_diff}");
}

#[test]
fn serving_matches_a_solo_sequence_for_every_policy() {
    for cfg in [EngineConfig::dense(), EngineConfig::lserve_fp16()] {
        let w = weights(6);
        let prompt: Vec<u32> = (0..20).map(|i| (i % 90) as u32).collect();
        let standalone = generate(cfg.clone(), &w, &prompt, 10);
        let mut srv = fcfs(&w, cfg, 4096);
        srv.submit(RequestSpec::new(9, prompt.clone()).max_new_tokens(10));
        let report = srv.run_to_completion(10_000);
        assert_eq!(report.completed[0].1, standalone);
    }
}

#[test]
fn serving_under_pressure_completes_everything() {
    let w = weights(7);
    let mut srv = fcfs(&w, EngineConfig::lserve_fp16(), 200);
    for id in 0..10 {
        srv.submit(
            RequestSpec::new(id, (0..16 + id as usize).map(|i| (i % 90) as u32).collect())
                .max_new_tokens(8),
        );
    }
    let report = srv.run_to_completion(100_000);
    assert_eq!(report.completed.len(), 10);
    assert!(report.rejected.is_empty());
    assert_eq!(srv.pool_in_use(), 0);
}

#[test]
fn streaming_masks_are_deterministic_per_seed() {
    let w = weights(8);
    let a = ModelExecutor::new(Arc::clone(&w), EngineConfig::lserve_fp16());
    let b = ModelExecutor::new(Arc::clone(&w), EngineConfig::lserve_fp16());
    assert_eq!(a.head_kinds(), b.head_kinds());
    let mut other = EngineConfig::lserve_fp16();
    other.gate_seed = 999;
    let c = ModelExecutor::new(w, other);
    assert_ne!(a.head_kinds(), c.head_kinds());
}
