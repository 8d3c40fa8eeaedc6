//! Golden-output regression fixtures: seeded end-to-end token snapshots.
//!
//! Each case runs the full serving stack (chunked prefill → sharded decode →
//! greedy sampling) on seeded weights and compares the generated tokens
//! against a checked-in fixture under `tests/golden/`. Everything in the
//! pipeline is deterministic, so *any* drift — a kernel change, a selector
//! tweak, a scheduling reorder, a thread-count dependence — fails the suite
//! with a diff instead of silently shipping different tokens.
//!
//! The fixtures are also the determinism net for every scheduler setting
//! that moves only modeled cost or wall time: each case runs under the
//! default policy and again with all of them flipped at once (8 threads, 4
//! devices, swap preemption, async migration, host 8 over nvme), and
//! `golden_fixtures_hold_across_threads_and_devices` runs the two mixed-head
//! cases at all four pairings of {1, 8} threads × {1, 4} devices. Every run
//! must reproduce the same bytes.
//!
//! To regenerate after an *intentional* numerics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_outputs
//! ```
//!
//! then commit the updated files with an explanation of why the outputs moved.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use lserve::core::{
    AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor, PreemptionPolicy, RequestSpec,
    Scheduler, SchedulerConfig,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `actual` against the named fixture, or rewrites the fixture when
/// `UPDATE_GOLDEN=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_outputs`"
        )
    });
    assert_eq!(
        actual.trim(),
        want.trim(),
        "golden output drift in `{name}`: the engine now produces different \
         tokens than the checked-in fixture. If this change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_outputs` \
         and explain the numerics change in the commit."
    );
}

/// Shrinks page/tile geometry so paging, selection, and the tile grid are all
/// exercised at toy context lengths (the same trick the proptests use).
fn small_scale(mut cfg: EngineConfig, precision: KvPrecision) -> EngineConfig {
    cfg.paging = PagingConfig::new(8, 4, precision);
    cfg.prefill_tile = 8;
    if cfg.dynamic_budget.is_some() {
        // Make the selector fire well below paper-scale contexts.
        cfg.dynamic_budget = Some(24);
    }
    cfg
}

/// Deterministic request set: three prompts of different lengths, long enough
/// to cross several chunk/tile boundaries and trigger dynamic selection.
fn requests() -> Vec<RequestSpec> {
    [(1u64, 40usize), (2, 29), (3, 52)]
        .into_iter()
        .map(|(id, len)| {
            RequestSpec::new(
                id,
                (0..len)
                    .map(|t| ((t * 7 + id as usize * 13) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(12)
        })
        .collect()
}

/// Every scheduler setting that moves only modeled cost or wall time,
/// flipped at once: sharded workers, a four-device mesh, swap preemption,
/// the async copy engine, and a host of 8 pages over the nvme tier.
fn scale_out(scfg: &mut SchedulerConfig) {
    (scfg.decode_threads, scfg.devices) = (8, 4);
    (scfg.preemption, scfg.migration) = (PreemptionPolicy::Swap, MigrationMode::Async);
    (scfg.host_pages, scfg.nvme) = (8, true);
}

/// Checks fixture `name` against the seeded tiny model (head_dim 8).
fn check_case(name: &str, cfg: EngineConfig) {
    check_case_on(name, &ModelConfig::tiny(), cfg);
}

/// Checks fixture `name` against seeded weights for `model`, under the
/// default scheduler policy and under [`scale_out`].
fn check_case_on(name: &str, model: &ModelConfig, cfg: EngineConfig) {
    check_golden(name, &run_case_with(model, cfg.clone(), |_| {}));
    check_golden(name, &run_case_with(model, cfg, scale_out));
}

/// Runs the serving stack on seeded weights for `model`, with `adjust`
/// applied to the scheduler policy, and renders one line per request:
/// `req <id> prompt_len=<n>: <generated tokens>`.
fn run_case_with(
    model: &ModelConfig,
    cfg: EngineConfig,
    adjust: impl FnOnce(&mut SchedulerConfig),
) -> String {
    let weights = Arc::new(ModelWeights::random(model, 71));
    let exec = Arc::new(ModelExecutor::new(weights, cfg));
    let mut scfg = SchedulerConfig::new(4096);
    scfg.chunk_tokens = 8;
    scfg.admission = AdmissionPolicy::FirstChunk;
    adjust(&mut scfg);
    let mut sched = Scheduler::new(exec, scfg);
    let reqs = requests();
    for r in &reqs {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(100_000);
    assert_eq!(report.completed.len(), reqs.len(), "all requests complete");
    let mut out = String::new();
    for (id, tokens) in &report.completed {
        let plen = reqs
            .iter()
            .find(|r| r.id == *id)
            .expect("known id")
            .prompt
            .len();
        let rendered: Vec<String> = tokens.iter().map(u32::to_string).collect();
        writeln!(out, "req {id} prompt_len={plen}: {}", rendered.join(" ")).expect("string write");
    }
    out
}

/// LServe policy, FP16 KV: mixed dense/streaming heads, hierarchical selector
/// active (budget 24), selector reuse interval 4.
#[test]
fn golden_lserve_fp16_mixed_heads() {
    let cfg = small_scale(EngineConfig::lserve_fp16(), KvPrecision::Fp16);
    check_case("lserve_fp16_mixed_heads", cfg);
}

/// LServe policy, INT4 KV: the quantized-page decode path (rounding included).
#[test]
fn golden_lserve_int4_mixed_heads() {
    let cfg = small_scale(EngineConfig::lserve(), KvPrecision::Int4);
    check_case("lserve_int4_mixed_heads", cfg);
}

/// The INT4 case at head_dim 32 (the benchmark model's): the tiny model's
/// head_dim 8 would not reach an attention kernel instantiated per head_dim.
#[test]
fn golden_lserve_int4_head_dim32() {
    let model = ModelConfig {
        name: "tiny-d32".into(),
        head_dim: 32,
        ..ModelConfig::tiny()
    };
    let cfg = small_scale(EngineConfig::lserve(), KvPrecision::Int4);
    check_case_on("lserve_int4_head_dim32", &model, cfg);
}

/// Dense FP16 baseline: every head dense, no selection — the reference policy.
#[test]
fn golden_dense_fp16_baseline() {
    let cfg = small_scale(EngineConfig::dense(), KvPrecision::Fp16);
    check_case("dense_fp16_baseline", cfg);
}

/// Quest-like flat selector, FP16 flat pages: the flat scoring path.
#[test]
fn golden_quest_flat_selector_fp16() {
    let mut cfg = EngineConfig::quest_like(24);
    cfg.paging = PagingConfig::flat(8, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    check_case("quest_flat_selector_fp16", cfg);
}

/// Every pairing of {1, 8} threads with {1, 4} devices — sharded workers on
/// one device and a device mesh walked by one worker included — reproduces
/// the mixed-head fixtures (selection active, FP16 and INT4) byte for byte.
#[test]
fn golden_fixtures_hold_across_threads_and_devices() {
    for (threads, devices) in [(8, 1), (1, 4), (1, 1), (8, 4)] {
        for (name, cfg, precision) in [
            (
                "lserve_fp16_mixed_heads",
                EngineConfig::lserve_fp16(),
                KvPrecision::Fp16,
            ),
            (
                "lserve_int4_mixed_heads",
                EngineConfig::lserve(),
                KvPrecision::Int4,
            ),
        ] {
            let cfg = small_scale(cfg, precision);
            let on = |scfg: &mut SchedulerConfig| {
                (scfg.decode_threads, scfg.devices) = (threads, devices)
            };
            check_golden(name, &run_case_with(&ModelConfig::tiny(), cfg, on));
        }
    }
}
