//! A tour of the serving system, one scene at a time, on a tiny random-weight
//! model with 8-token pages. Each scene prints what the scheduler did; the
//! claim behind each number is the test named in the scene's comment, which
//! asserts it on the same scene.
//!
//! 1. Head of line: one long prompt ahead of seven short ones, prefilled
//!    whole or in chunks, in a roomy pool and in a tight one that preempts.
//! 2. Parallel decode: the same traffic sharded over 1 and 4 decode threads.
//! 3. Lifecycle: a handle's events, a stop sequence and a cancel.
//! 4. SLO mix: class-aware scheduling against class-blind FCFS.
//! 5. Prefix cache: a persona workload's second wave, cold and warm.
//! 6. Tiered KV: resident replay against swap with demotion on one small hot
//!    tier; the tiered run is traced into `serving_tour.trace.json`, which
//!    <https://ui.perfetto.dev> opens.
//!
//! ```text
//! cargo run --release --example serving_tour
//! ```

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, EngineConfig, ModelExecutor, PreemptionPolicy, RequestHandle,
    RequestSpec, Scheduler, SchedulerConfig, ServingReport, SloClass,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::{write_chrome_trace, Tracer, DEFAULT_RING_CAPACITY};
use lserve::workloads::{
    overcommit_workload, shared_prefix_workload, slo_mix_workload, OvercommitConfig,
    SharedPrefixConfig, SloMixConfig,
};

/// `cfg` on the tiny model, with 8-token pages and prefill tiles so that
/// page accounting shows at toy lengths.
fn executor(mut cfg: EngineConfig) -> Arc<ModelExecutor> {
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 11));
    Arc::new(ModelExecutor::new(weights, cfg))
}

/// A scheduler over `pool_pages` that prefills 16 tokens a step.
fn sched_cfg(pool_pages: usize) -> SchedulerConfig {
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = 16;
    scfg
}

fn prompt(len: usize, stride: usize) -> Vec<u32> {
    (0..len).map(|i| ((i * stride) % 90) as u32).collect()
}

/// Mean TTFT in work tokens (forward-pass tokens over all sequences: one
/// step can hide any amount of prefill, so steps are no clock) of the
/// requests `pick` selects.
fn mean_ttft(report: &ServingReport, pick: impl Fn(u64) -> bool) -> f64 {
    let ttft: Vec<u64> = report
        .request_metrics
        .iter()
        .filter(|m| pick(m.id))
        .map(|m| m.ttft_work_tokens)
        .collect();
    ttft.iter().sum::<u64>() as f64 / ttft.len().max(1) as f64
}

fn indent(block: &str) -> String {
    block.lines().map(|l| format!("    {l}\n")).collect()
}

/// Scenes 1 and 2: a 400-token prompt, then seven short ones, 24 tokens each.
/// Tests: `admission_scenes_are_pinned` ("head of line", `Replay`) pins the
/// tight pool's steps, preemptions and every TTFT;
/// `parallel_decode_matches_single_thread_under_preemption` and
/// `lpt_schedule_models_at_least_2x_decode_speedup_at_4_threads` hold the
/// threads.
fn head_of_line() {
    println!("== 1. head of line: 1 prompt of 400 tokens, then 7 short ones\n");
    let exec = executor(EngineConfig::lserve_fp16());
    let run = |name: &str, pool_pages: usize, chunk: usize, threads: usize| {
        let mut scfg = sched_cfg(pool_pages);
        scfg.chunk_tokens = chunk;
        scfg.decode_threads = threads;
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
        sched.submit(RequestSpec::new(0, prompt(400, 1)).max_new_tokens(24));
        for id in 1..8 {
            sched.submit(RequestSpec::new(id, prompt(8 + 2 * id as usize, 1)).max_new_tokens(24));
        }
        let r = sched.run_to_completion(1_000_000);
        println!(
            "{name:>24}: {} completed in {} steps, peak {} pages, {} preemptions, \
             short-request TTFT {:.0} work tokens",
            r.completed.len(),
            r.scheduler_steps,
            r.peak_pages,
            r.preemptions,
            mean_ttft(&r, |id| id != 0),
        );
        r
    };
    run("monolithic prefill", 4096, usize::MAX, 1);
    run("16-token chunks", 4096, 16, 1);
    // About two sequences of pool: admission lets a short prompt in beside
    // the long one's feed, and decode growth preempts; every request still
    // gets the tokens of a roomy run.
    run("tight pool of 170 pages", 170, 16, 1);

    println!("\n== 2. parallel decode over (sequence x KV-head) shards\n");
    for threads in [1, 4] {
        let p = run(&format!("{threads} decode thread(s)"), 4096, 16, threads).parallel;
        println!(
            "{:>24}  {} shards over {} phases, modeled speedup {:.2}x, {} stolen",
            "",
            p.shards,
            p.phases,
            p.modeled_speedup(),
            p.stolen
        );
    }
    println!(
        "\nA streaming head's shard costs its window and a dense head's grows with its\n\
         selection, so the executor balances shards by cost (LPT) and idle workers\n\
         steal; the modeled speedup is the schedule's, not this host's cores.\n"
    );
}

/// Scene 3. Tests: `stop_sequence_completes_inclusively`,
/// `cancel_donates_completed_prefix_to_cache` and
/// `cancellation_and_stops_leave_survivors_bit_identical`.
fn lifecycle() {
    println!("== 3. lifecycle: req 1 ends at a stop sequence, req 3 is cancelled after step 14\n");
    let exec = executor(EngineConfig::lserve_fp16());
    let mut scfg = sched_cfg(4096);
    scfg.prefix_cache = true;
    // A dry run picks the stop sequence out of request 1's own output.
    let mut dry = Scheduler::new(Arc::clone(&exec), scfg.clone());
    dry.submit(RequestSpec::new(1, prompt(24, 1)).max_new_tokens(12));
    let stop = dry.run_to_completion(10_000).completed[0].1[5..7].to_vec();

    let mut sched = Scheduler::new(Arc::clone(&exec), scfg.clone());
    let handles = [
        sched.submit(
            RequestSpec::new(1, prompt(24, 1))
                .max_new_tokens(12)
                .class(SloClass::Interactive)
                .deadline_work_tokens(200)
                .stop_sequence(stop.clone()),
        ),
        sched.submit(RequestSpec::new(2, prompt(40, 3)).max_new_tokens(6)),
        sched.submit(RequestSpec::new(3, prompt(96, 5)).max_new_tokens(24)),
    ];
    for step in 1.. {
        if handles.iter().all(RequestHandle::is_terminal) {
            break;
        }
        sched.step();
        if step == 14 {
            handles[2].cancel();
        }
        for (id, handle) in (1..).zip(&handles) {
            for event in handle.drain_events() {
                println!("  step {step:>2}  req {id}: {event:?}");
            }
        }
    }
    let mut solo = Scheduler::new(Arc::clone(&exec), scfg);
    solo.submit(RequestSpec::new(2, prompt(40, 3)).max_new_tokens(6));
    let alone = solo.run_to_completion(10_000).completed[0].1.clone();
    // Request 4 repeats request 3's prompt: the cancel donated its fed prefix.
    sched.submit(RequestSpec::new(4, prompt(96, 5)).max_new_tokens(4));
    let r = sched.run_to_completion(10_000);
    let metrics = |id| {
        let mut all = r.request_metrics.iter();
        all.find(|m| m.id == id).expect("every request has ended")
    };
    println!(
        "\n  stop sequence {stop:?} ended req 1 after {} of 12 tokens; req 2 equals its \
         solo run: {};\n  req 4 started from {} cached prompt tokens of 96\n",
        metrics(1).tokens,
        r.completed.iter().any(|(id, t)| *id == 2 && *t == alone),
        metrics(4).cached_prompt_tokens,
    );
    print!("{}", indent(&r.summary()));
}

/// Scene 4. Test: `class_aware_scheduling_improves_interactive_p95_ttft_at_least_2x`.
fn slo_mix() {
    let wl = SloMixConfig::small();
    println!(
        "\n== 4. SLO mix: {} waves of {} batch ({} tokens) + {} interactive ({} tokens) \
         requests in ~1.5 batch sequences of pool\n",
        wl.waves,
        wl.batch_per_wave,
        wl.batch_prompt_tokens,
        wl.interactive_per_wave,
        wl.interactive_prompt_tokens,
    );
    let exec = executor(EngineConfig::lserve_fp16());
    let len = wl.batch_prompt_tokens + wl.batch_new_tokens;
    let per_batch = sequence_pages_estimate(exec.config(), &exec.weights().config, len);
    for (name, class_aware) in [("class-blind FCFS", false), ("class-aware", true)] {
        let mut scfg = sched_cfg(per_batch + per_batch / 2);
        scfg.class_aware = class_aware;
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
        for (i, r) in slo_mix_workload(&wl).into_iter().enumerate() {
            let mut spec =
                RequestSpec::new(i as u64, r.spec.prompt).max_new_tokens(r.spec.max_new_tokens);
            if r.interactive {
                spec = spec
                    .class(SloClass::Interactive)
                    .deadline_work_tokens(4 * wl.batch_prompt_tokens as u64);
            }
            sched.submit(spec);
        }
        let r = sched.run_to_completion(1_000_000);
        for class in [SloClass::Interactive, SloClass::Batch] {
            println!(
                "{name:>18} {class:>11?}: TTFT p50 {} / p95 {} work tokens",
                r.ttft_work_percentile_class(class, 0.5),
                r.ttft_work_percentile_class(class, 0.95),
            );
        }
    }
    println!(
        "\nInteractive requests jump the queue and batch sequences are the preferred\n\
         victims; the outputs are those of class-blind FCFS, token for token."
    );
}

/// Scene 5. Tests: `warm_prefix_cache_cuts_the_second_waves_mean_ttft_at_least_3x`
/// and `prefix_cache_outputs_match_cold_solo_runs`.
fn prefix_cache() {
    let wl = SharedPrefixConfig::small();
    println!(
        "\n== 5. prefix cache: {} personas x {} queries of {} + {} + {} tokens \
         (system + persona + query)\n",
        wl.personas, wl.queries_per_persona, wl.system_tokens, wl.persona_tokens, wl.query_tokens,
    );
    let exec = executor(EngineConfig::lserve_fp16());
    let first: Vec<RequestSpec> = shared_prefix_workload(&wl)
        .into_iter()
        .enumerate()
        .map(|(i, s)| RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens))
        .collect();
    // A second wave: the same system and persona blocks, fresh queries.
    let shared = wl.system_tokens + wl.persona_tokens;
    let second: Vec<RequestSpec> = (0..first.len())
        .map(|i| {
            let mut p = first[i].prompt[..shared].to_vec();
            p.extend((0..wl.query_tokens).map(|t| ((t * 13 + i * 7 + 5) % 90) as u32));
            RequestSpec::new(100 + i as u64, p).max_new_tokens(wl.max_new_tokens)
        })
        .collect();
    for (name, waves, prefix_cache) in [
        ("cold, cache off", vec![&second], false),
        ("after the first wave", vec![&first, &second], true),
    ] {
        let mut scfg = sched_cfg(4096);
        scfg.prefix_cache = prefix_cache;
        let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
        let mut r = ServingReport::default();
        for wave in waves {
            for spec in wave {
                sched.submit(spec.clone());
            }
            r = sched.run_to_completion(1_000_000);
        }
        println!(
            "{name:>24}: second wave mean TTFT {:.0} work tokens; {} prompt tokens hit, \
             {} recomputed",
            mean_ttft(&r, |id| id >= 100),
            r.prefix_hit_tokens,
            r.prefix_recomputed_tokens,
        );
    }
    println!(
        "\nA warm prompt starts from the deepest donated anchor's refcounted pages\n\
         (copy-on-write protects them), so only its query is prefilled."
    );
}

/// Scene 6. Tests: `tiered_swap_sustains_more_running_sequences_than_resident_replay`,
/// and `five_layer_trace_exports_and_reproduces` for the trace.
fn tiered_kv() {
    let wl = OvercommitConfig::small();
    let mut tiered = EngineConfig::lserve_fp16();
    tiered.dynamic_budget = Some(32);
    let len = wl.max_prompt_len() + wl.max_new_tokens;
    // A budget above the context selects, so demotes, nothing.
    let resident = EngineConfig {
        dynamic_budget: Some(len),
        ..tiered.clone()
    };
    let exec = executor(resident);
    let per_seq = sequence_pages_estimate(exec.config(), &exec.weights().config, len);
    let hot_pages = per_seq * wl.requests_per_burst / 3 + 16;
    println!(
        "\n== 6. tiered KV: {} bursts of {} prompts of {}..{} tokens, {} generated, on a hot \
         tier of {hot_pages} pages (~{:.1} sequences)\n",
        wl.bursts,
        wl.requests_per_burst,
        wl.context_tokens,
        wl.max_prompt_len(),
        wl.max_new_tokens,
        hot_pages as f64 / per_seq as f64,
    );
    let tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    for (name, exec, policy) in [
        ("resident replay", exec, PreemptionPolicy::Replay),
        ("swap + demotion", executor(tiered), PreemptionPolicy::Swap),
    ] {
        let mut scfg = sched_cfg(hot_pages);
        scfg.preemption = policy;
        if policy == PreemptionPolicy::Swap {
            scfg.tracer = tracer.clone();
        }
        let mut sched = Scheduler::new(exec, scfg);
        for (i, s) in overcommit_workload(&wl).into_iter().enumerate() {
            sched.submit(RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens));
        }
        let r = sched.run_to_completion(1_000_000);
        println!("  {name}:");
        print!("{}", indent(&r.summary()));
    }
    let (events, dropped) = tracer.drain();
    let path = "serving_tour.trace.json";
    write_chrome_trace(path, &events, dropped).expect("write the trace");
    println!(
        "\nResident replay admits what fits the device and relieves pressure by\n\
         replaying a victim's context. The tiered run demotes selector-cold pages to\n\
         the host as decode goes on, and a preempted victim's pages move out whole:\n\
         resume is a {}x-cheaper modeled transfer, not a recompute.\n\n\
         wrote {path}: the swap run, {} events, {dropped} dropped",
        lserve::kvcache::HOST_TRANSFER_SPEEDUP,
        events.len(),
    );
}

fn main() {
    head_of_line();
    lifecycle();
    slo_mix();
    prefix_cache();
    tiered_kv();
}
