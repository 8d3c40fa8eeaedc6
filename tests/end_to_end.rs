//! Workspace-level integration tests: the full engine against the cache-free
//! reference model, policy equivalences, and serving-loop consistency.

use std::sync::Arc;

use lserve::core::{
    AdmissionPolicy, EngineConfig, EngineStats, ModelExecutor, RequestSpec, Scheduler,
    SchedulerConfig, SelectorKind, SparsityOverride, SparsitySchedule,
};
use lserve::kvcache::{PagingConfig, StreamingWindow};
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

/// Ten 64-token tiles: enough that a (1, 1) and the presets' (1, 2) window
/// give different prefill masks.
fn long_prompt() -> Vec<u32> {
    (0..640).map(|i| ((i + 3) % 90) as u32).collect()
}

#[test]
fn serving_matches_a_solo_sequence_for_every_policy() {
    // The last input serves a window override on a default engine; its solo
    // sequence runs on an engine whose own window is the override's, over a
    // prompt long enough that the two windows' prefill masks differ.
    let window = StreamingWindow::new(1, 1);
    let windowed = EngineConfig {
        streaming_window: window,
        ..EngineConfig::lserve_fp16()
    };
    let none = SparsityOverride::none();
    let short: Vec<u32> = (0..20).map(|i| (i % 90) as u32).collect();
    let inputs = [
        (
            EngineConfig::dense(),
            none,
            EngineConfig::dense(),
            short.clone(),
        ),
        (
            EngineConfig::lserve_fp16(),
            none,
            EngineConfig::lserve_fp16(),
            short,
        ),
        (
            EngineConfig::lserve_fp16(),
            none.with_window(window),
            windowed,
            long_prompt(),
        ),
    ];
    for (served, over, solo, prompt) in inputs {
        let w = weights(6);
        let standalone = generate(solo, &w, &prompt, 10);
        let mut srv = fcfs(&w, served, 4096);
        srv.submit(
            RequestSpec::new(9, prompt.clone())
                .max_new_tokens(10)
                .sparsity(over),
        );
        let report = srv.run_to_completion(10_000);
        assert_eq!(report.completed[0].1, standalone, "{over:?}");
    }
}

/// A per-request window override is the engine window for that sequence in
/// every phase: prefill's Λ mask included, not only the table and decode, and
/// the sink of a dense head's dynamic prefill mask too.
#[test]
fn a_window_override_reaches_prefill() {
    let w = weights(3);
    let prompt = long_prompt();
    let dynamic = |cfg: EngineConfig| EngineConfig {
        dynamic_prefill_keep: Some(1),
        dynamic_prefill_after: 16,
        ..cfg
    };
    let inputs = [
        (EngineConfig::lserve(), StreamingWindow::new(1, 1)),
        (EngineConfig::lserve_fp16(), StreamingWindow::new(1, 1)),
        (dynamic(EngineConfig::lserve()), StreamingWindow::new(0, 1)),
        (
            dynamic(EngineConfig::lserve_fp16()),
            StreamingWindow::new(0, 1),
        ),
    ];
    for (base, window) in inputs {
        let run = |cfg: EngineConfig, over: Option<StreamingWindow>| {
            let mut pool = cfg.make_pool_for(&w.config, prompt.len() + 8);
            let exec = ModelExecutor::new(Arc::clone(&w), cfg);
            let mut schedule = SparsitySchedule::new();
            if let Some(window) = over {
                schedule.push(0, SparsityOverride::none().with_window(window));
            }
            let mut seq = exec.new_sequence_under(&schedule);
            let mut logits = vec![exec.prefill(&mut seq, &mut pool, &prompt).unwrap().logits];
            let prefill_stats = seq.stats();
            for _ in 0..4 {
                let next = greedy_next_token(logits.last().unwrap());
                logits.push(exec.decode_step(&mut seq, &mut pool, next).unwrap().logits);
            }
            let stats: [EngineStats; 2] = [prefill_stats, seq.stats()];
            seq.release(&mut pool);
            (logits, stats)
        };
        let engine = run(
            EngineConfig {
                streaming_window: window,
                ..base.clone()
            },
            None,
        );
        let overridden = run(base.clone(), Some(window));
        let case = format!("{:?} {window:?}", base.paging.precision());
        assert_eq!(overridden.1, engine.1, "{case}");
        assert_eq!(overridden.0, engine.0, "{case}");
        assert_ne!(run(base, None).0[0], engine.0[0], "the windows differ");
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
    assert_eq!(a.streaming_masks(), b.streaming_masks());
    let mut other = EngineConfig::lserve_fp16();
    other.gate_seed = 999;
    let c = ModelExecutor::new(w, other);
    assert_ne!(a.streaming_masks(), c.streaming_masks());
}

/// KV rows visited per generated token in each turn of a session that
/// keeps one cache across four turns of a 48-token prompt (prefilled on the
/// first turn, absorbed token by token after) and 96 generated tokens, at
/// toy geometry: 8-token pages, a 96-token budget where `cfg` has one.
fn visited_per_step_by_turn(mut cfg: EngineConfig) -> Vec<u64> {
    const TURNS: usize = 4;
    const PROMPT: usize = 48;
    const GEN: usize = 96;
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg.dynamic_budget = cfg.dynamic_budget.map(|_| 96);
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 77));
    let mut pool = cfg.make_pool_for(&w.config, TURNS * (PROMPT + GEN) + 8);
    let exec = ModelExecutor::new(w, cfg);
    let mut s = exec.new_sequence();
    let mut per_turn = Vec::new();
    for turn in 0..TURNS {
        let prompt: Vec<u32> = (0..PROMPT)
            .map(|i| ((turn * 31 + i * 7) % 90) as u32)
            .collect();
        let mut logits = if turn == 0 {
            exec.prefill(&mut s, &mut pool, &prompt).unwrap().logits
        } else {
            let mut last = Vec::new();
            for &t in &prompt {
                last = exec.decode_step(&mut s, &mut pool, t).unwrap().logits;
            }
            last
        };
        let before = s.stats().decode_tokens_visited;
        for _ in 0..GEN {
            let next = greedy_next_token(&logits);
            logits = exec.decode_step(&mut s, &mut pool, next).unwrap().logits;
        }
        per_turn.push((s.stats().decode_tokens_visited - before) / GEN as u64);
    }
    per_turn
}

/// The long-generation claim (§1: decoding dominates a reasoning-style
/// trace): over a session whose context grows turn by turn, the dense
/// engine's KV reads per generated token grow every turn, while LServe's
/// stop growing once the context is past the budget (from the second turn
/// on), and stay below the dense engine's throughout.
#[test]
fn decode_work_per_token_stays_bounded_under_lserve_and_grows_under_dense() {
    let dense = visited_per_step_by_turn(EngineConfig::dense());
    let lserve = visited_per_step_by_turn(EngineConfig::lserve_fp16());
    println!("KV rows visited per generated token, by turn: dense {dense:?}, lserve {lserve:?}");
    assert!(dense.windows(2).all(|w| w[1] > w[0]), "dense {dense:?}");
    assert!(
        lserve[1..].windows(2).all(|w| w[1] <= w[0]),
        "lserve {lserve:?}"
    );
    assert!(
        lserve.iter().zip(&dense).all(|(l, d)| l < d),
        "{lserve:?} against {dense:?}"
    );
}
