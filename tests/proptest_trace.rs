//! Tracing is observation, never behavior: for any workload and policy
//! combination, a run recording into the ring sink emits outputs bit-identical
//! to an untraced run — across {FP16, INT4} KV × {replay, swap} preemption ×
//! {sync, async} migration — and the trace itself is bit-reproducible across
//! repeated runs (the work-token clock counts modeled work, not wall time).
//!
//! The deterministic anchor pins the export contract end-to-end: the
//! oversubscribed swap+async scene produces spans from all five engine layers
//! (scheduler, executor phase, attention shard, copy engine, selector), the
//! Chrome trace-event document validates as JSON with monotonic timestamps
//! per lane, and a tiny ring sink bounds retention while counting drops.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor,
    PreemptionPolicy, RequestSpec, Scheduler, SchedulerConfig,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::{
    chrome_trace_json, lane, validate_json, EventKind, TraceEvent, Tracer, DEFAULT_RING_CAPACITY,
};
use proptest::prelude::*;

fn weights(seed: u64) -> Arc<ModelWeights> {
    Arc::new(ModelWeights::random(&ModelConfig::tiny(), seed))
}

/// Small-page FP16 LServe policy: page pressure shows up at toy context lengths.
fn small_page_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

use sequence_pages_estimate as estimate;

/// `ServingReport::completed`: `(request id, generated tokens)` pairs.
type Completed = Vec<(u64, Vec<u32>)>;

/// The five-layer scene: oversubscribed pool, swap preemption, async
/// migration, selection-driven demotion — every traced subsystem fires.
fn five_layer_scene() -> (EngineConfig, Vec<RequestSpec>) {
    let mut cfg = small_page_cfg();
    cfg.dynamic_budget = Some(24);
    cfg.demote_after_chunks = Some(1);
    cfg.reuse_interval = 2;
    let requests = (0..3u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..40 + 9 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(16)
        })
        .collect();
    (cfg, requests)
}

fn run_scene(
    cfg: &EngineConfig,
    w: &Arc<ModelWeights>,
    requests: &[RequestSpec],
    pool_pages: usize,
    preemption: PreemptionPolicy,
    migration: MigrationMode,
    tracer: Tracer,
) -> Completed {
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = 8;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.preemption = preemption;
    scfg.migration = migration;
    scfg.tracer = tracer;
    let mut sched = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(w), cfg.clone())),
        scfg,
    );
    for r in requests {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(200_000);
    assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
    assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
    report.completed
}

fn trace_five_layer_scene(capacity: usize) -> (Completed, Vec<TraceEvent>, u64) {
    let w = weights(23);
    let (cfg, requests) = five_layer_scene();
    let single_max = requests
        .iter()
        .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let tracer = Tracer::ring(capacity);
    let completed = run_scene(
        &cfg,
        &w,
        &requests,
        single_max + single_max / 2,
        PreemptionPolicy::Swap,
        MigrationMode::Async,
        tracer.clone(),
    );
    let (events, dropped) = tracer.drain();
    (completed, events, dropped)
}

/// The acceptance anchor: all five engine layers emit, the export validates,
/// and both outputs and the trace itself are bit-reproducible.
#[test]
fn five_layer_trace_exports_and_reproduces() {
    let (completed, events, dropped) = trace_five_layer_scene(1 << 16);
    assert_eq!(completed.len(), 3, "scene must complete all requests");
    assert_eq!(
        dropped, 0,
        "default-capacity ring must not evict this scene"
    );

    // Every lane fires: scheduler lifecycle, executor phases, attention
    // shards, copy-engine transfers, selector rescores.
    for (pid, what) in [
        (lane::SCHEDULER, "scheduler"),
        (lane::EXECUTOR, "executor"),
        (lane::WORKERS, "attention shard"),
        (lane::COPY, "copy engine"),
        (lane::SELECTOR, "selector"),
    ] {
        assert!(
            events.iter().any(|e| e.pid == pid),
            "no {what} events (pid {pid})"
        );
    }
    // Spans, instants, and counter tracks all present.
    for kind in [EventKind::Span, EventKind::Instant, EventKind::Counter] {
        assert!(events.iter().any(|e| e.kind == kind), "missing {kind:?}");
    }
    for counter in ["pages", "sequences"] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Counter && e.name == counter),
            "missing counter track {counter}"
        );
    }

    // The export is valid JSON and carries the lane metadata.
    let doc = chrome_trace_json(&events, dropped).render();
    validate_json(&doc).expect("chrome export must be valid JSON");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("work-token ticks"));

    // Spans are recorded at close, and retrospective spans (e.g. "queued")
    // may start before previously recorded events — but within a (pid, tid)
    // track, close times (`ts + dur`; `ts` for points) never regress, so the
    // exporter's stable ts-sort yields a well-formed track.
    let mut last: HashMap<(u32, u64), u64> = HashMap::new();
    for e in &events {
        let close = e.ts + e.dur;
        let cursor = last.entry((e.pid, e.tid)).or_insert(0);
        assert!(
            close >= *cursor,
            "lane (pid {}, tid {}) closed backwards: {} after {}",
            e.pid,
            e.tid,
            close,
            cursor
        );
        *cursor = close;
    }

    // Bit-reproducible: the clock counts modeled work, so a second run yields
    // the same outputs and the same trace, event for event.
    let (completed2, events2, dropped2) = trace_five_layer_scene(1 << 16);
    assert_eq!(completed2, completed, "outputs must be deterministic");
    assert_eq!(events2, events, "trace must be bit-reproducible");
    assert_eq!(dropped2, dropped);
}

/// A tiny ring keeps only the most recent events — bounded memory on
/// arbitrarily long runs — while the drop counter owns the difference.
#[test]
fn ring_sink_bounds_retention_and_counts_drops() {
    let (full_completed, full_events, _) = trace_five_layer_scene(1 << 16);
    let (completed, events, dropped) = trace_five_layer_scene(64);
    assert_eq!(
        completed, full_completed,
        "ring capacity must not affect outputs"
    );
    assert_eq!(events.len(), 64, "ring must fill to capacity, not beyond");
    assert_eq!(
        events.len() as u64 + dropped,
        full_events.len() as u64,
        "retained + dropped must account for every recorded event"
    );
    // The ring keeps the *tail* of the run.
    assert_eq!(events, full_events[full_events.len() - 64..]);
    // The export surfaces the loss.
    let doc = chrome_trace_json(&events, dropped).render();
    validate_json(&doc).unwrap();
    assert!(doc.contains("\"dropped_events\""));
}

/// The one wall-clock claim: recording every span into the default ring
/// costs less than 5 % of an untraced run's wall time. The scene is six
/// requests of 32–132 prompt tokens on a 4-layer model (trace events come
/// per step, layer and shard, so a layer must do real arithmetic for the
/// ratio to mean anything), in a pool of 1.5 sequences that forces replay
/// preemption. After two warm-up runs the two legs alternate nine times and
/// the minimum of each is compared. Timing only: traced ≡ untraced and the
/// ring bound are `traced_outputs_match_untraced_runs` and
/// `ring_sink_bounds_retention_and_counts_drops`. When this test was written
/// (release build, 2-core x86-64 VM with AVX2+FMA) it read between -3 % and
/// +5.1 % from run to run, most often +4.3 %, once +18 % on a noisy host:
/// the bound has little margin.
#[test]
#[ignore = "wall-clock, meaningful in release only: cargo test --release --test proptest_trace -- --ignored"]
fn ring_tracing_costs_under_5_percent_of_untraced_wall_time() {
    let model = ModelConfig {
        name: "trace-overhead-small".into(),
        num_layers: 4,
        hidden: 128,
        num_q_heads: 8,
        num_kv_heads: 4,
        head_dim: 16,
        ffn_hidden: 256,
        vocab: 97,
        rope_base: 10_000.0,
    };
    let w = Arc::new(ModelWeights::random(&model, 6));
    let cfg = small_page_cfg();
    let requests: Vec<RequestSpec> = (0..6u64)
        .map(|i| {
            let prompt = (0..32 + 20 * i as usize).map(|t| ((t * 3 + i as usize) % 90) as u32);
            RequestSpec::new(i, prompt.collect()).max_new_tokens(8)
        })
        .collect();
    let longest = requests
        .iter()
        .map(|r| r.prompt.len() + r.max_new_tokens)
        .max();
    let one = estimate(&cfg, &w.config, longest.unwrap());
    let exec = Arc::new(ModelExecutor::new(w, cfg));
    // The caller keeps the tracer, so freeing the ring is not timed.
    let time = |tracer: &Tracer| {
        let start = Instant::now();
        let mut scfg = SchedulerConfig::new(one + one / 2);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.tracer = tracer.clone();
        (scfg.decode_threads, scfg.devices) = (1, 1);
        (scfg.preemption, scfg.migration) = (PreemptionPolicy::Replay, MigrationMode::Sync);
        (scfg.host_pages, scfg.nvme) = (0, false);
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
        for r in &requests {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(1_000_000);
        assert_eq!(report.completed.len(), requests.len());
        assert!(report.preemptions > 0, "the pool must force preemption");
        start.elapsed()
    };
    for _ in 0..2 {
        time(&Tracer::disabled());
    }
    let (mut untraced, mut traced) = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        untraced = untraced.min(time(&Tracer::disabled()));
        traced = traced.min(time(&Tracer::ring(DEFAULT_RING_CAPACITY)));
    }
    let overhead = traced.as_secs_f64() / untraced.as_secs_f64() - 1.0;
    println!(
        "untraced {untraced:?}, ring-traced {traced:?}: {:+.2} %",
        100.0 * overhead
    );
    assert!(
        overhead <= 0.05,
        "ring tracing must cost < 5 % (untraced {untraced:?}, traced {traced:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: traced ≡ untraced, token for token, across
    /// {FP16, INT4} × {replay, swap} × {sync, async}, under enough pool
    /// pressure to exercise preemption and (when enabled) selection-driven
    /// demotion. The trace clock only reads modeled work the run already
    /// performs, so recording can never perturb it.
    #[test]
    fn traced_outputs_match_untraced_runs(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        async_migration in proptest::bool::ANY,
        demote in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        if demote {
            cfg.dynamic_budget = Some(24);
            cfg.demote_after_chunks = Some(1);
        }
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| {
                RequestSpec::new(
                    i,
                    (0..26 + 9 * i as usize)
                        .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(8)
            })
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let preemption = if swap {
            PreemptionPolicy::Swap
        } else {
            PreemptionPolicy::Replay
        };
        let migration = if async_migration {
            MigrationMode::Async
        } else {
            MigrationMode::Sync
        };
        let run = |tracer: Tracer| {
            run_scene(
                &cfg,
                &w,
                &requests,
                single_max + slack,
                preemption,
                migration,
                tracer,
            )
        };
        let untraced = run(Tracer::disabled());
        let tracer = Tracer::ring(1 << 16);
        let traced = run(tracer.clone());
        prop_assert_eq!(untraced.len(), 3, "scene must complete all requests");
        prop_assert_eq!(
            &traced, &untraced,
            "tracing changed outputs (wseed {} chunk {} slack {} quantized {} \
             swap {} async {} demote {})",
            wseed, chunk, slack, quantized, swap, async_migration, demote
        );
        let (events, _) = tracer.drain();
        prop_assert!(!events.is_empty(), "traced run must record events");
        let doc = chrome_trace_json(&events, 0).render();
        prop_assert!(validate_json(&doc).is_ok(), "export must validate");
    }
}
