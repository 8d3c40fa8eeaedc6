//! Multi-request serving: a shared page pool under memory pressure, chunked
//! prefill, continuous batching, preemption/resume, the memory asymmetry
//! between dense and streaming heads — and cross-request prefix caching over a
//! shared-prefix (persona) workload.
//!
//! ```text
//! cargo run --release --example serving_simulation
//! ```

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, ModelExecutor, PreemptionPolicy,
    RequestSpec, Scheduler, SchedulerConfig, ServingReport,
};
use lserve::model::{ModelConfig, ModelWeights};
use lserve::workloads::{
    overcommit_workload, shared_prefix_workload, OvercommitConfig, SharedPrefixConfig,
};

fn engine_cfg(mut cfg: EngineConfig) -> EngineConfig {
    // Small pages so page accounting is visible at toy scale.
    cfg.paging = lserve::kvcache::PagingConfig::new(8, 4, lserve::quant::KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

fn indent(block: &str) -> String {
    block
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn submit_all(sched: &mut Scheduler) {
    // One long prompt up front (the head-of-line risk), then short interactive
    // requests behind it.
    sched.submit(
        RequestSpec::new(0, (0..400).map(|i| (i % 90) as u32).collect()).max_new_tokens(24),
    );
    for id in 1..8 {
        sched.submit(
            RequestSpec::new(
                id,
                (0..8 + 2 * id as usize).map(|i| (i % 90) as u32).collect(),
            )
            .max_new_tokens(24),
        );
    }
}

fn run(name: &str, cfg: EngineConfig, pool_pages: usize, chunk_tokens: usize) {
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 11));
    let exec = Arc::new(ModelExecutor::new(weights, engine_cfg(cfg)));
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = chunk_tokens;
    scfg.admission = AdmissionPolicy::FirstChunk;
    let mut sched = Scheduler::new(exec, scfg);
    submit_all(&mut sched);
    let report = sched.run_to_completion(1_000_000);
    // TTFT in *work tokens* (forward-pass tokens across all sequences): the
    // honest time proxy, since one iteration can hide unbounded prefill work.
    let short_ttft: Vec<u64> = report
        .request_metrics
        .iter()
        .filter(|m| m.id != 0)
        .map(|m| m.ttft_work_tokens)
        .collect();
    let mean_short_ttft = short_ttft.iter().sum::<u64>() as f64 / short_ttft.len().max(1) as f64;
    println!(
        "{name:>26}: completed {}, rejected {}, iterations {}, peak pages {}, \
         preemptions {}, mean short-request TTFT {:.0} work tokens",
        report.completed.len(),
        report.rejected.len(),
        report.scheduler_steps,
        report.peak_pages,
        report.preemptions,
        mean_short_ttft,
    );
}

/// Sparsity-aware parallel decode: the same workload on the sharded executor
/// at several worker counts. Outputs are bit-identical across thread counts
/// (the determinism suite pins this); what changes is the schedule — reported
/// as per-step worker utilization/imbalance and the deterministic cost-model
/// speedup of the LPT shard assignment.
fn run_parallel_decode_demo() {
    println!("\nparallel decode over (sequence x KV-head) shards:\n");
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 11));
    let exec = Arc::new(ModelExecutor::new(
        weights,
        engine_cfg(EngineConfig::lserve_fp16()),
    ));
    for threads in [1usize, 4] {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.decode_threads = threads;
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
        submit_all(&mut sched);
        let report = sched.run_to_completion(1_000_000);
        println!(
            "{:>26}: completed {}, {} shards over {} phases, modeled speedup {:.2}x, \
             worker utilization {:.1}% (imbalance {:.2}x), {} stolen",
            format!("{threads} decode thread(s)"),
            report.completed.len(),
            report.parallel.shards,
            report.parallel.phases,
            report.parallel.modeled_speedup(),
            100.0 * report.worker_utilization(),
            report.worker_imbalance(),
            report.parallel.stolen,
        );
    }
    println!(
        "\nStreaming-head shards cost a constant window while dense-head shards grow\n\
         with context (or shrink to the selector's page set), so the executor\n\
         LPT-balances shards by that cost and lets idle workers steal stragglers;\n\
         the modeled speedup is the schedule's critical-path win, independent of\n\
         how many physical cores this host happens to have."
    );
}

/// The persona workload as serving requests.
fn persona_wave(cfg: &SharedPrefixConfig) -> Vec<RequestSpec> {
    shared_prefix_workload(cfg)
        .into_iter()
        .enumerate()
        .map(|(i, s)| RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens))
        .collect()
}

/// A follow-up wave: same system + persona blocks, fresh query suffixes.
fn follow_up_wave(cfg: &SharedPrefixConfig, first: &[RequestSpec]) -> Vec<RequestSpec> {
    let shared = cfg.system_tokens + cfg.persona_tokens;
    first
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut prompt = r.prompt[..shared].to_vec();
            prompt.extend((0..cfg.query_tokens).map(|t| ((t * 13 + i * 7 + 5) % 90) as u32));
            RequestSpec::new(100 + i as u64, prompt).max_new_tokens(cfg.max_new_tokens)
        })
        .collect()
}

fn mean_ttft_work(report: &ServingReport, ids: impl Fn(u64) -> bool) -> f64 {
    let v: Vec<u64> = report
        .request_metrics
        .iter()
        .filter(|m| ids(m.id))
        .map(|m| m.ttft_work_tokens)
        .collect();
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// Cold vs warm serving of the shared-prefix persona workload.
fn run_prefix_cache_demo() {
    let wl = SharedPrefixConfig::small();
    println!(
        "\nshared-prefix workload: {} personas x {} queries, {}-token prompts \
         ({} shared system + {} persona + {} query), {} generated tokens each\n",
        wl.personas,
        wl.queries_per_persona,
        wl.prompt_len(),
        wl.system_tokens,
        wl.persona_tokens,
        wl.query_tokens,
        wl.max_new_tokens,
    );
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 11));
    let exec = Arc::new(ModelExecutor::new(
        weights,
        engine_cfg(EngineConfig::lserve_fp16()),
    ));
    let requests = persona_wave(&wl);

    for (name, prefix_cache) in [("prefix cache off", false), ("prefix cache on", true)] {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.prefix_cache = prefix_cache;
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
        for r in &requests {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(1_000_000);
        println!(
            "{name:>26}: completed {}, hit rate {:>5.1}%, hit/recomputed prompt tokens {}/{}, \
             evictions {}, mean TTFT {:.0} work tokens (p50 {}, p95 {})",
            report.completed.len(),
            100.0 * report.prefix_hit_rate(),
            report.prefix_hit_tokens,
            report.prefix_recomputed_tokens,
            report.prefix_evictions,
            mean_ttft_work(&report, |_| true),
            report.ttft_work_percentile(0.5),
            report.ttft_work_percentile(0.95),
        );
        if prefix_cache {
            // Second wave: same personas, fresh queries — the steady-state hit path.
            let warm = follow_up_wave(&wl, &requests);
            let cold_mean = {
                let mut cold_scfg = SchedulerConfig::new(4096);
                cold_scfg.chunk_tokens = 16;
                cold_scfg.admission = AdmissionPolicy::FirstChunk;
                let mut cold = Scheduler::new(Arc::clone(&exec), cold_scfg);
                for r in &warm {
                    cold.submit(r.clone());
                }
                mean_ttft_work(&cold.run_to_completion(1_000_000), |_| true)
            };
            // The scheduler's report accumulates across waves; take this wave's
            // counters as deltas against the first wave so the printed numbers
            // describe only the warm traffic.
            let wave1_hit = report.prefix_hit_tokens;
            let wave1_recomputed = report.prefix_recomputed_tokens;
            for r in &warm {
                sched.submit(r.clone());
            }
            let report = sched.run_to_completion(1_000_000);
            let warm_mean = mean_ttft_work(&report, |id| id >= 100);
            let warm_only = ServingReport {
                request_metrics: report
                    .request_metrics
                    .iter()
                    .filter(|m| m.id >= 100)
                    .copied()
                    .collect(),
                prefix_hit_tokens: report.prefix_hit_tokens - wave1_hit,
                prefix_recomputed_tokens: report.prefix_recomputed_tokens - wave1_recomputed,
                ..ServingReport::default()
            };
            println!(
                "{:>26}: hit rate {:>5.1}%, mean TTFT {:.0} work tokens (p50 {}, p95 {}) — {:.1}x \
                 better than cold",
                "warm second wave",
                100.0 * warm_only.prefix_hit_rate(),
                warm_mean,
                warm_only.ttft_work_percentile(0.5),
                warm_only.ttft_work_percentile(0.95),
                cold_mean / warm_mean.max(1.0),
            );
            assert!(
                warm_mean * 3.0 <= cold_mean,
                "prefix cache must cut warm TTFT at least 3x (warm {warm_mean}, cold {cold_mean})"
            );
        }
    }
    println!(
        "\nEvery prompt shares the system block (and, per persona, the persona block)\n\
         with its peers, so with the prefix cache on only the query suffix is ever\n\
         prefilled after the first occurrence: the radix tree matches the deepest\n\
         donated anchor, the new sequence starts from the shared refcounted pages\n\
         (copy-on-write protects them), and outputs stay bit-identical to cold runs\n\
         (tests/proptest_scheduler.rs)."
    );
}

/// Tiered KV memory under oversubscription: the same bursty long-context
/// workload on the same (small) hot tier, served by the resident baseline
/// (replay preemption, a budget above the context: nothing is selected, so
/// everything stays device-resident) vs the tiered memory manager
/// (swap-based preemption + selection-driven demotion). The tiered run must
/// sustain strictly more concurrently running sequences — cold context moves
/// to host memory instead of occupying the device.
fn run_oversubscription_demo() {
    let wl = OvercommitConfig::small();
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 11));
    let mut tiered = engine_cfg(EngineConfig::lserve_fp16());
    tiered.dynamic_budget = Some(32); // selection active at toy context lengths
    let context = wl.max_prompt_len() + wl.max_new_tokens;
    let resident = EngineConfig {
        dynamic_budget: Some(context),
        ..tiered.clone()
    };
    let per_seq = sequence_pages_estimate(&resident, &weights.config, context);
    // Hot tier: roughly a third of one burst's aggregate footprint.
    let hot_pages = (per_seq * wl.requests_per_burst) / 3 + 16;
    println!(
        "\novercommit workload: {} bursts x {} long-context requests \
         ({}..{} prompt tokens, {} generated), hot tier {} pages \
         (~{:.1} sequences resident)\n",
        wl.bursts,
        wl.requests_per_burst,
        wl.context_tokens,
        wl.max_prompt_len(),
        wl.max_new_tokens,
        hot_pages,
        hot_pages as f64 / per_seq as f64,
    );
    let mut peaks = Vec::new();
    for (name, policy, cfg) in [
        (
            "resident baseline (replay)",
            PreemptionPolicy::Replay,
            resident,
        ),
        ("tiered (swap + demotion)", PreemptionPolicy::Swap, tiered),
    ] {
        let exec = Arc::new(ModelExecutor::new(Arc::clone(&weights), cfg));
        let mut scfg = SchedulerConfig::new(hot_pages);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = policy;
        let mut sched = Scheduler::new(exec, scfg);
        for (i, s) in overcommit_workload(&wl).into_iter().enumerate() {
            sched.submit(RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens));
        }
        let report = sched.run_to_completion(1_000_000);
        println!("{name}:");
        println!("{}\n", indent(&report.summary()));
        assert_eq!(
            report.completed.len() + report.rejected.len(),
            wl.total_requests()
        );
        peaks.push(report.mean_running());
    }
    assert!(
        peaks[1] > peaks[0],
        "the tiered memory manager must sustain strictly more concurrently \
         running sequences than the resident baseline at the same hot-tier \
         size (tiered {:.2}, resident {:.2})",
        peaks[1],
        peaks[0]
    );
    println!(
        "\nThe resident baseline can only admit what fits the device, and relieves\n\
         pressure by throwing away a victim's KV and replaying its whole context.\n\
         The tiered manager demotes selector-cold pages to host memory as decode\n\
         proceeds (the selector's importance signal doubles as a temperature\n\
         signal), and preemption swaps a victim's page set out instead of freeing\n\
         it — resume is a {}x-cheaper modeled transfer, not a recompute — so the\n\
         same hot tier sustains strictly more live sequences.",
        lserve::kvcache::HOST_TRANSFER_SPEEDUP,
    );
}

fn main() {
    println!("1 long prompt (400 tokens) + 7 short prompts, 24 generated tokens each\n");
    // Monolithic prefill: the long prompt's admission stalls everyone behind it.
    run(
        "monolithic prefill",
        EngineConfig::lserve_fp16(),
        4096,
        usize::MAX,
    );
    // Chunked prefill: the long prompt feeds 16 tokens per iteration while the
    // short requests decode in between — watch short-request TTFT drop.
    run(
        "chunked prefill (16)",
        EngineConfig::lserve_fp16(),
        4096,
        16,
    );
    // Tight pool: `FirstChunk` admission over ~2 sequences of memory. A short
    // request is admitted behind the long prompt when its own prompt fits
    // beside the rest of the long prompt's feed, so short-request TTFT stays
    // at the roomy pool's 87 work tokens. Preemption evicts the
    // lowest-priority sequence when decode demand exceeds free pages; it
    // re-prefills later and every request still completes with the exact
    // tokens of an unconstrained run.
    run(
        "tight pool, preempting",
        EngineConfig::lserve_fp16(),
        170,
        16,
    );
    run_parallel_decode_demo();
    run_prefix_cache_demo();
    run_oversubscription_demo();
    println!(
        "\nChunked prefill bounds per-iteration prefill work, so short requests keep\n\
         decoding while a long prompt streams in (no head-of-line blocking); under\n\
         memory pressure the scheduler preempts the newest sequence — its pages are\n\
         released, and on resume the prompt *and* already-generated tokens are re-fed\n\
         through the identical pipeline, so outputs never change (determinism is\n\
         tested in tests/proptest_scheduler.rs). Streaming heads retain only\n\
         sink+local pages (Figure 5), so the same device memory admits more\n\
         concurrent sequences — the paper's memory-saving axis in Figure 1."
    );
}
