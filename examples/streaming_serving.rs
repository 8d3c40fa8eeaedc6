//! Streaming request lifecycles and SLO-class scheduling: the handle-based
//! serving API end to end.
//!
//! Three scenes:
//!
//! 1. **Streaming lifecycle** — submit requests as [`RequestSpec`]s, drive the
//!    scheduler step by step, and drain each handle's event queue as tokens
//!    arrive (`Admitted → FirstToken → Token… → Finished`), including a stop
//!    sequence ending one request early.
//! 2. **Cancellation** — cancel a long request mid-flight; its pages are
//!    released at the next step boundary, its completed prefix is donated to
//!    the prefix cache, and the survivor's output is untouched.
//! 3. **SLO mix** — the `slo_mix` workload (long batch prompts with short
//!    interactive requests arriving behind them) under class-aware scheduling
//!    vs class-blind FCFS: per-class p50/p95 TTFT in work tokens. That the
//!    interactive-class p95 improves at least 2x at equal outputs is a test
//!    of the same scene (`tests/proptest_scheduler.rs`).
//!
//! ```text
//! cargo run --release --example streaming_serving
//! ```

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, EngineConfig, MigrationMode, ModelExecutor, PreemptionPolicy,
    RequestSpec, Scheduler, SchedulerConfig, ServingEvent, ServingReport, SloClass,
};
use lserve::model::{ModelConfig, ModelWeights};
use lserve::trace::{write_chrome_trace, Tracer, DEFAULT_RING_CAPACITY};
use lserve::workloads::{slo_mix_workload, SloMixConfig};

fn engine_cfg() -> EngineConfig {
    // Small pages so page accounting is visible at toy scale.
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = lserve::kvcache::PagingConfig::new(8, 4, lserve::quant::KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

fn executor(seed: u64) -> Arc<ModelExecutor> {
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), seed));
    Arc::new(ModelExecutor::new(weights, engine_cfg()))
}

fn event_line(id: u64, event: &ServingEvent) -> String {
    match event {
        ServingEvent::Admitted => format!("req {id}: admitted"),
        ServingEvent::FirstToken { token } => format!("req {id}: first token {token}"),
        ServingEvent::Token { token } => format!("req {id}: token {token}"),
        ServingEvent::Preempted { policy } => format!("req {id}: preempted ({policy:?})"),
        ServingEvent::Resumed => format!("req {id}: resumed"),
        ServingEvent::Finished { reason, tokens } => {
            format!("req {id}: finished ({reason:?}), {} tokens", tokens.len())
        }
        ServingEvent::Cancelled { tokens } => {
            format!("req {id}: cancelled after {} tokens", tokens.len())
        }
        ServingEvent::Rejected { reason } => format!("req {id}: rejected ({reason:?})"),
    }
}

/// Scene 1: drive the scheduler manually and narrate both event streams.
fn streaming_lifecycle_demo() {
    println!("streaming lifecycle (two requests, one ended by a stop sequence):\n");
    let mut scfg = SchedulerConfig::new(4096);
    scfg.chunk_tokens = 16;
    let mut sched = Scheduler::new(executor(11), scfg.clone());
    // Learn a stop sequence from a dry run so the demo visibly stops early.
    sched.submit(
        RequestSpec::new(99, (0..24).map(|i| (i % 90) as u32).collect()).max_new_tokens(12),
    );
    let dry = sched.run_to_completion(10_000).completed[0].1.clone();
    let stop_seq = dry[5..7].to_vec();

    let mut sched = Scheduler::new(executor(11), scfg);
    let interactive = sched.submit(
        RequestSpec::new(1, (0..24).map(|i| (i % 90) as u32).collect())
            .max_new_tokens(12)
            .class(SloClass::Interactive)
            .deadline_work_tokens(200)
            .stop_sequence(stop_seq.clone()),
    );
    let batch = sched.submit(
        RequestSpec::new(2, (0..40).map(|i| ((i * 3) % 90) as u32).collect()).max_new_tokens(6),
    );
    while !(interactive.is_terminal() && batch.is_terminal()) {
        sched.step();
        for (handle, id) in [(&interactive, 1u64), (&batch, 2u64)] {
            for ev in handle.drain_events() {
                println!("  {}", event_line(id, &ev));
            }
        }
    }
    let report = sched.report_snapshot();
    let m1 = report.request_metrics.iter().find(|m| m.id == 1).unwrap();
    assert!(m1.tokens < 12, "stop sequence must end generation early");
    println!(
        "\n  stop sequence {stop_seq:?} ended req 1 after {} of 12 tokens\n",
        m1.tokens
    );
    println!("{}\n", indent(&report.summary()));
}

/// Indents a multi-line block for nesting under a scene header.
fn indent(block: &str) -> String {
    block
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Scene 2: cancel a long request mid-flight; the survivor is untouched and
/// the cancelled prefix warms the cache for a follow-up.
fn cancellation_demo() {
    println!("cancellation (mid-flight, prefix donated to the cache):\n");
    let mut scfg = SchedulerConfig::new(4096);
    scfg.chunk_tokens = 16;
    scfg.prefix_cache = true;
    let exec = executor(11);
    let mut sched = Scheduler::new(Arc::clone(&exec), scfg.clone());
    let doomed = sched.submit(
        RequestSpec::new(1, (0..96).map(|i| ((i * 5) % 90) as u32).collect()).max_new_tokens(24),
    );
    let survivor = sched.submit(
        RequestSpec::new(2, (0..24).map(|i| ((i * 7) % 90) as u32).collect()).max_new_tokens(8),
    );
    for _ in 0..3 {
        sched.step();
    }
    doomed.cancel();
    while !survivor.is_terminal() || !doomed.is_terminal() {
        sched.step();
    }
    // Solo reference for the survivor: same policy, fresh scheduler, no
    // neighbour and no cancellation — outputs must be bit-identical.
    let mut solo = Scheduler::new(exec, scfg);
    solo.submit(
        RequestSpec::new(2, (0..24).map(|i| ((i * 7) % 90) as u32).collect()).max_new_tokens(8),
    );
    let want = solo.run_to_completion(10_000).completed[0].1.clone();
    let report = sched.report_snapshot();
    let got = &report.completed.iter().find(|(id, _)| *id == 2).unwrap().1;
    assert_eq!(got, &want, "survivor diverged from its solo run");
    // The cancelled request's fed prefix is warm: re-submitting its prompt hits.
    let follow = sched.submit(
        RequestSpec::new(3, (0..96).map(|i| ((i * 5) % 90) as u32).collect()).max_new_tokens(4),
    );
    let _ = follow;
    let report = sched.run_to_completion(10_000);
    let m3 = report.request_metrics.iter().find(|m| m.id == 3).unwrap();
    println!(
        "  cancelled req 1 mid-flight ({} cancelled, survivor bit-identical to solo);\n  \
         follow-up over the same prompt started with {} cached tokens\n",
        report.cancelled.len(),
        m3.cached_prompt_tokens
    );
    assert!(
        m3.cached_prompt_tokens > 0,
        "cancelled prefix must warm the cache"
    );
}

fn per_class_line(name: &str, report: &ServingReport, class: SloClass) -> String {
    let count = report
        .request_metrics
        .iter()
        .filter(|m| m.class == class)
        .count();
    format!(
        "{name:>24} {class:?}: n={count}, TTFT p50 {} / p95 {} work tokens",
        report.ttft_work_percentile_class(class, 0.5),
        report.ttft_work_percentile_class(class, 0.95),
    )
}

/// Scene 3: the SLO-mix workload under class-aware vs class-blind scheduling.
fn slo_mix_demo() {
    let wl = SloMixConfig::small();
    println!(
        "SLO mix: {} waves of {} batch ({} tokens) + {} interactive ({} tokens) requests,\n\
         pool sized for ~1.5 batch sequences — scheduling policy is the only difference:\n",
        wl.waves,
        wl.batch_per_wave,
        wl.batch_prompt_tokens,
        wl.interactive_per_wave,
        wl.interactive_prompt_tokens,
    );
    let exec = executor(11);
    let cfg = engine_cfg();
    let per_batch = sequence_pages_estimate(
        &cfg,
        &exec.weights().config,
        wl.batch_prompt_tokens + wl.batch_new_tokens,
    );
    let pool_pages = per_batch + per_batch / 2;
    let requests = slo_mix_workload(&wl);
    let mut reports = Vec::new();
    for class_aware in [false, true] {
        let mut scfg = SchedulerConfig::new(pool_pages);
        scfg.chunk_tokens = 16;
        scfg.class_aware = class_aware;
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg.clone());
        for (i, r) in requests.iter().enumerate() {
            let mut spec = RequestSpec::new(i as u64, r.spec.prompt.clone())
                .max_new_tokens(r.spec.max_new_tokens);
            if r.interactive {
                spec = spec
                    .class(SloClass::Interactive)
                    .deadline_work_tokens(4 * wl.batch_prompt_tokens as u64);
            }
            sched.submit(spec);
        }
        let report = sched.run_to_completion(1_000_000);
        let name = if class_aware {
            "class-aware"
        } else {
            "class-blind FCFS"
        };
        println!("  {}", per_class_line(name, &report, SloClass::Interactive));
        println!("  {}", per_class_line(name, &report, SloClass::Batch));
        println!("{}\n", indent(&report.summary()));
        reports.push(report);
    }
    let (blind, aware) = (&reports[0], &reports[1]);
    let blind_p95 = blind.ttft_work_percentile_class(SloClass::Interactive, 0.95);
    let aware_p95 = aware.ttft_work_percentile_class(SloClass::Interactive, 0.95);
    println!(
        "  interactive p95 TTFT: {blind_p95} -> {aware_p95} work tokens \
         ({:.1}x better)\n",
        blind_p95 as f64 / aware_p95.max(1) as f64
    );
}

/// Scene 4: an oversubscribed tiered-memory scene (swap preemption, async
/// migration, selection-driven demotion) with the unified tracing layer on.
/// It records into a ring and exports `streaming_serving.trace.json`, a
/// Chrome-trace-format file loadable in <https://ui.perfetto.dev>: lanes for
/// the scheduler (one track per request), the executor's per-layer phases,
/// the LPT-balanced attention shard workers, the copy engine, and the page
/// selector, plus counter tracks for hot/cold pages and running sequences —
/// all on the deterministic work-token clock, so two runs of the same
/// workload produce byte-identical traces.
fn traced_overcommit_demo() {
    println!("work-token trace (oversubscribed pool, swap preemption, async migration):\n");
    let mut cfg = engine_cfg();
    // Tight selection budget with fast chunk turnover: rescoring, demotion,
    // promotion, and prefetch all fire at toy scale (the proptest scene).
    cfg.dynamic_budget = Some(24);
    cfg.reuse_interval = 2;
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 11));
    let exec = Arc::new(ModelExecutor::new(weights, cfg.clone()));
    let requests: Vec<RequestSpec> = (0..3u64)
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
    let single_max = requests
        .iter()
        .map(|r| {
            sequence_pages_estimate(
                &cfg,
                &exec.weights().config,
                r.prompt.len() + r.max_new_tokens,
            )
        })
        .max()
        .unwrap();
    // ~1.5 sequences of pool: admission overcommits, preemption resolves.
    let mut scfg = SchedulerConfig::new(single_max + single_max / 2);
    scfg.chunk_tokens = 8;
    scfg.preemption = PreemptionPolicy::Swap;
    scfg.migration = MigrationMode::Async;
    let tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    scfg.tracer = tracer.clone();
    let mut sched = Scheduler::new(exec, scfg);
    for r in &requests {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(200_000);
    assert_eq!(report.completed.len(), requests.len());
    println!("{}\n", indent(&report.summary()));
    let (events, dropped) = tracer.drain();
    let path = "streaming_serving.trace.json";
    write_chrome_trace(path, &events, dropped).expect("write trace file");
    println!(
        "  wrote {path} ({} events, {dropped} dropped) — open in https://ui.perfetto.dev\n",
        events.len()
    );
}

fn main() {
    streaming_lifecycle_demo();
    cancellation_demo();
    slo_mix_demo();
    traced_overcommit_demo();
    println!(
        "Interactive requests jump the admission queue (class-first rank, EDF within a\n\
         class), batch sequences are the preferred preemption victims (cheapest first\n\
         under swap: fewest sole-owned hot pages), and every reordering is latency-only:\n\
         outputs stay bit-identical to class-blind FCFS and to per-request solo runs."
    );
}
