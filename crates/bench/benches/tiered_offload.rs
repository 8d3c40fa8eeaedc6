//! Tiered KV memory under oversubscription: resident vs swap-based serving,
//! plus the swap-vs-replay resume cost model on a long-context victim.
//!
//! Two families of numbers come out of this bench:
//!
//! * **Measured wall time** of serving the bursty overcommit workload on (a) a
//!   hot tier sized for the whole working set (resident baseline) and (b) a
//!   hot tier sized well below aggregate demand, relieved by swap-based
//!   preemption and selection-driven demotion.
//! * **Modeled resume cost** for a 32k-token swap victim — promoting its
//!   offloaded page set across the host link vs replaying its context through
//!   the forward pass. The ≥5x acceptance criterion is asserted on this
//!   deterministic number after the timing runs.
//! * **Sync vs async migration** on the oversubscribed scene: the copy
//!   engine must cut the modeled migration stall at least 2x while leaving
//!   every output token untouched. The comparison (plus an SLO-mix latency
//!   profile) is registered on a [`MetricsSnapshot`] and written to
//!   `BENCH_pr7.json` at the repository root for CI to validate and archive.
//!
//! ```text
//! cargo bench -p lserve-bench --bench tiered_offload
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use std::sync::Arc;

use lserve_bench::Json;
use lserve_core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, MetricsSnapshot, MigrationMode,
    ModelExecutor, PreemptionPolicy, RequestSpec, RuntimeConfig, Scheduler, SchedulerConfig,
    ServingReport, SloClass,
};
use lserve_kvcache::{
    LayerKvCache, PagePool, PagingConfig, StreamingWindow, HOST_TRANSFER_SPEEDUP,
};
use lserve_model::{ModelConfig, ModelWeights};
use lserve_quant::KvPrecision;
use lserve_workloads::{overcommit_workload, slo_mix_workload, OvercommitConfig, SloMixConfig};

/// Engine policy for the serving comparison: small pages and a small dynamic
/// budget so selection (and therefore selection-driven demotion) is active at
/// toy context lengths.
fn engine_cfg(demote: Option<usize>) -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg.dynamic_budget = Some(32);
    cfg.demote_after_chunks = demote;
    cfg
}

fn workload_from(wl: &OvercommitConfig) -> Vec<RequestSpec> {
    overcommit_workload(wl)
        .into_iter()
        .enumerate()
        .map(|(i, s)| RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens))
        .collect()
}

fn workload() -> Vec<RequestSpec> {
    workload_from(&OvercommitConfig::small())
}

fn run_serving_wl(
    weights: &Arc<ModelWeights>,
    cfg: EngineConfig,
    pool_pages: usize,
    policy: PreemptionPolicy,
    migration: MigrationMode,
    requests: Vec<RequestSpec>,
) -> ServingReport {
    run_serving_tiered(
        weights, cfg, pool_pages, policy, migration, 0, false, requests,
    )
}

/// The fully parameterized serving run: tier knobs included. `host_pages == 0`
/// leaves the host tier unbounded (the historical model); `nvme` switches the
/// modeled third tier on below it.
#[allow(clippy::too_many_arguments)]
fn run_serving_tiered(
    weights: &Arc<ModelWeights>,
    cfg: EngineConfig,
    pool_pages: usize,
    policy: PreemptionPolicy,
    migration: MigrationMode,
    host_pages: usize,
    nvme: bool,
    requests: Vec<RequestSpec>,
) -> ServingReport {
    let exec = Arc::new(ModelExecutor::new(Arc::clone(weights), cfg));
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = 16;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.preemption = policy;
    scfg.migration = migration;
    scfg.host_pages = host_pages;
    scfg.nvme = nvme;
    let mut sched = Scheduler::new(exec, scfg);
    for r in requests {
        sched.submit(r);
    }
    let report = sched.run_to_completion(1_000_000);
    assert!(
        report.rejected.is_empty(),
        "workload must fit the tier (host_pages {host_pages}, nvme {nvme}): {:?}",
        report.rejections
    );
    report
}

fn run_serving(
    weights: &Arc<ModelWeights>,
    cfg: EngineConfig,
    pool_pages: usize,
    policy: PreemptionPolicy,
) -> ServingReport {
    // Timing legs follow `LSERVE_MIGRATION`, so the CI matrix times both
    // engine modes; the deterministic comparison below pins each explicitly.
    run_serving_wl(
        weights,
        cfg,
        pool_pages,
        policy,
        RuntimeConfig::from_env().migration,
        workload(),
    )
}

fn bench_tiered_offload(c: &mut Criterion) {
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 7));
    let wl = OvercommitConfig::small();
    // Hot-tier sizes: "resident" holds every sequence of a burst at once;
    // "oversubscribed" holds roughly a third of that aggregate demand.
    let per_seq = sequence_pages_estimate(
        &engine_cfg(None),
        &weights.config,
        wl.max_prompt_len() + wl.max_new_tokens,
    );
    let resident_pages = per_seq * wl.requests_per_burst * wl.bursts + 64;
    let oversub_pages = (per_seq * wl.requests_per_burst) / 3 + 16;

    let mut group = c.benchmark_group("tiered_offload");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("resident", resident_pages), |b| {
        b.iter(|| {
            run_serving(
                &weights,
                engine_cfg(None),
                resident_pages,
                PreemptionPolicy::Replay,
            )
        })
    });
    group.bench_function(
        BenchmarkId::new("oversubscribed_swap", oversub_pages),
        |b| {
            b.iter(|| {
                run_serving(
                    &weights,
                    engine_cfg(Some(2)),
                    oversub_pages,
                    PreemptionPolicy::Swap,
                )
            })
        },
    );
    group.finish();

    let swap = run_serving(
        &weights,
        engine_cfg(Some(2)),
        oversub_pages,
        PreemptionPolicy::Swap,
    );
    println!("\noversubscribed swap run ({oversub_pages} hot pages vs {resident_pages} resident):");
    println!("{}", swap.summary());

    // ---- The ≥5x swap-vs-replay resume model on a 32k-token victim. ----
    //
    // Victim shape: a 4-layer model with 4 KV heads per layer at 50% streaming
    // sparsity (8 dense + 8 streaming heads), 32-token physical pages — the
    // LServe geometry at half scale. Replaying the victim re-feeds its whole
    // 32k-token context through the forward pass; swap-resume promotes its
    // offloaded page set across the host link instead.
    const VICTIM_TOKENS: usize = 32 * 1024;
    const LAYERS: usize = 4;
    let paging = PagingConfig::new(32, 16, KvPrecision::Fp16);
    let mut pool = PagePool::new(paging, 2 * LAYERS * VICTIM_TOKENS / 32 + 64, 4);
    let layers: Vec<LayerKvCache> = (0..LAYERS)
        .map(|_| {
            let mut l = LayerKvCache::new(
                &[false, true, false, true],
                StreamingWindow::paper_default(),
            );
            let keys = vec![0.25f32; 4 * 4];
            let values = vec![0.5f32; 4 * 4];
            for _ in 0..VICTIM_TOKENS {
                assert!(l.append_token(&mut pool, &keys, &values, 4));
            }
            l
        })
        .collect();
    let mut promote_units = 0u64;
    for l in &layers {
        pool.demote_all(l.page_ids());
    }
    for l in &layers {
        promote_units += pool.promote_all(l.page_ids()).expect("pool sized").units;
    }
    let swap_resume_tokens = lserve_kvcache::transfer_cost_tokens(promote_units);
    let replay_tokens = VICTIM_TOKENS as u64;
    println!(
        "\n32k-token victim resume: swap promotes {} pages = {} modeled work tokens \
         (host link {}x faster than recompute); replay re-feeds {} tokens — {:.1}x cheaper",
        pool.tier_stats().pages_promoted,
        swap_resume_tokens,
        HOST_TRANSFER_SPEEDUP,
        replay_tokens,
        replay_tokens as f64 / swap_resume_tokens as f64,
    );
    assert!(
        swap_resume_tokens * 5 <= replay_tokens,
        "swap resume ({swap_resume_tokens} tokens) must model >= 5x cheaper than \
         replaying the 32k-token victim ({replay_tokens} tokens)"
    );

    // ---- Sync vs async copy engine on the oversubscribed scene. ----
    //
    // Same tier pressure, longer decode phase (the migration_bench preset):
    // the async engine must cut the modeled migration stall at least 2x while
    // every output token stays bit-identical. Written to `BENCH_pr7.json`
    // alongside an SLO-mix latency profile for CI to archive.
    let wl_mig = OvercommitConfig::migration_bench();
    let per_seq_mig = sequence_pages_estimate(
        &engine_cfg(Some(2)),
        &weights.config,
        wl_mig.max_prompt_len() + wl_mig.max_new_tokens,
    );
    let mig_pages = (per_seq_mig * wl_mig.requests_per_burst) / 3 + 16;
    let run_mig = |mode| {
        run_serving_wl(
            &weights,
            engine_cfg(Some(2)),
            mig_pages,
            PreemptionPolicy::Swap,
            mode,
            workload_from(&wl_mig),
        )
    };
    let sync = run_mig(MigrationMode::Sync);
    let async_ = run_mig(MigrationMode::Async);
    assert_eq!(
        async_.completed, sync.completed,
        "the copy engine is an accounting change: outputs must not move"
    );
    assert!(
        sync.migration_stall_tokens > 0,
        "the oversubscribed scene must generate migration stall to hide"
    );
    assert!(
        async_.migration_stall_tokens * 2 <= sync.migration_stall_tokens,
        "async migration must cut modeled stall >= 2x (sync {} vs async {})",
        sync.migration_stall_tokens,
        async_.migration_stall_tokens
    );
    println!(
        "\nsync vs async migration ({mig_pages} hot pages): stall {} -> {} tokens \
         ({:.1}x), hidden {} tokens (overlap {:.0}%), prefetch {}/{} hit/issued",
        sync.migration_stall_tokens,
        async_.migration_stall_tokens,
        sync.migration_stall_tokens as f64 / (async_.migration_stall_tokens.max(1)) as f64,
        async_.hidden_transfer_tokens,
        100.0 * async_.migration_overlap_ratio(),
        async_.prefetch_hits,
        async_.prefetch_issued,
    );

    // ---- Prefetch efficiency: the selector-recency window + per-head and
    // per-sequence budgets must keep speculative traffic honest. The
    // pre-window engine wasted 2088 of its 2470 issued prefetches on this
    // scene (ratio 0.845); the windowed engine issues 593 and wastes 458
    // (ratio 0.772). The gate asserts the ratio stays below 0.80 without
    // giving back the >= 2x stall reduction asserted above.
    let waste_ratio = async_.prefetch_wasted as f64
        / (async_.prefetch_wasted + async_.prefetch_hits).max(1) as f64;
    println!(
        "prefetch efficiency: {} issued, {} hit, {} wasted (waste ratio {:.3})",
        async_.prefetch_issued, async_.prefetch_hits, async_.prefetch_wasted, waste_ratio,
    );
    assert!(
        waste_ratio < 0.80,
        "prefetch waste ratio {waste_ratio:.3} must stay below 0.80 \
         (pre-window baseline wasted 2088/2470 = 0.845)"
    );

    // ---- The memory hierarchy: bounded host + nvme vs drop-to-replay. ----
    //
    // Three runs of the hierarchy scene (a third burst on the migration
    // geometry) on the same oversubscribed hot tier:
    //   * resident replay: no demotion, victims dropped and re-fed — the
    //     no-hierarchy floor (everything lives in device memory or nowhere);
    //   * swap + unbounded host: the historical two-tier model;
    //   * swap + bounded host + nvme: swap-outs overflow a host tier sized
    //     below one victim into the modeled nvme tier and recall on resume.
    // The acceptance gate: the full hierarchy sustains >= 1.2x the replay
    // baseline's mean running sequences while every output token is
    // bit-identical across all three runs.
    let wl_hier = OvercommitConfig::hierarchy_bench();
    // Size the hot tier off the *resident* (undemoted) footprint — roughly a
    // third of one burst, like the oversubscription demo — so the replay
    // floor can admit a sequence at all while the swap legs fit several
    // demoted footprints in the same pages.
    let per_seq_hier = sequence_pages_estimate(
        &engine_cfg(None),
        &weights.config,
        wl_hier.max_prompt_len() + wl_hier.max_new_tokens,
    );
    let hier_pages = (per_seq_hier * wl_hier.requests_per_burst) / 3 + 16;
    let host_cap = (per_seq_hier / 2).max(1);
    let run_hier = |demote, policy, host_pages, nvme| {
        run_serving_tiered(
            &weights,
            engine_cfg(demote),
            hier_pages,
            policy,
            MigrationMode::Async,
            host_pages,
            nvme,
            workload_from(&wl_hier),
        )
    };
    let replay = run_hier(None, PreemptionPolicy::Replay, 0, false);
    let two_tier = run_hier(Some(2), PreemptionPolicy::Swap, 0, false);
    let hier = run_hier(Some(2), PreemptionPolicy::Swap, host_cap, true);
    // Replay and swap complete requests in different orders; per-request
    // outputs must still match token for token.
    let by_id = |r: &ServingReport| {
        let mut v = r.completed.clone();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    let outputs_bit_identical = by_id(&hier) == by_id(&replay) && by_id(&hier) == by_id(&two_tier);
    assert!(
        outputs_bit_identical,
        "the hierarchy is an accounting change: outputs must not move"
    );
    assert_eq!(
        hier.completed, two_tier.completed,
        "same schedule, same order"
    );
    assert!(
        hier.pages_spilled > 0 && hier.pages_recalled > 0 && hier.peak_nvme_pages > 0,
        "the bounded host ({host_cap} pages) must overflow into nvme and recall"
    );
    let concurrency_gain = hier.mean_running() / replay.mean_running().max(f64::MIN_POSITIVE);
    println!(
        "\nmemory hierarchy ({hier_pages} hot / {host_cap} host / nvme): mean running \
         replay {:.2} -> two-tier {:.2} -> hierarchy {:.2} ({concurrency_gain:.2}x vs replay); \
         {} spilled / {} recalled / peak {} nvme pages",
        replay.mean_running(),
        two_tier.mean_running(),
        hier.mean_running(),
        hier.pages_spilled,
        hier.pages_recalled,
        hier.peak_nvme_pages,
    );
    assert!(
        concurrency_gain >= 1.2,
        "bounded host + nvme must sustain >= 1.2x the drop-to-replay baseline's \
         mean running sequences (replay {:.2} vs hierarchy {:.2})",
        replay.mean_running(),
        hier.mean_running(),
    );

    // ---- SLO-mix latency profile under the async engine. ----
    let slo_cfg = SloMixConfig::small();
    let slo = run_slo_mix(&weights, &slo_cfg);
    write_bench_json(&wl_mig, mig_pages, &sync, &async_, &slo);
    write_hierarchy_json(
        &wl_hier, hier_pages, host_cap, &replay, &two_tier, &hier, &async_,
    );
}

/// Serves the SLO-mix workload (interactive bursts behind batch prompts)
/// under swap preemption and the async copy engine, for the per-class
/// latency profile `BENCH_pr7.json` records.
fn run_slo_mix(weights: &Arc<ModelWeights>, cfg: &SloMixConfig) -> ServingReport {
    let ecfg = engine_cfg(Some(2));
    let per_batch = sequence_pages_estimate(
        &ecfg,
        &weights.config,
        cfg.batch_prompt_tokens + cfg.batch_new_tokens,
    );
    // Room for one wave's batch prompts plus change: the interactive burst
    // then competes for slots, which is the regime class-aware SLOs exist for.
    let pool_pages = per_batch * cfg.batch_per_wave + per_batch / 2 + 16;
    let exec = Arc::new(ModelExecutor::new(Arc::clone(weights), ecfg));
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = 16;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.preemption = PreemptionPolicy::Swap;
    scfg.migration = MigrationMode::Async;
    let mut sched = Scheduler::new(exec, scfg);
    for (i, r) in slo_mix_workload(cfg).into_iter().enumerate() {
        let class = if r.interactive {
            SloClass::Interactive
        } else {
            SloClass::Batch
        };
        sched.submit(
            RequestSpec::new(i as u64, r.spec.prompt)
                .max_new_tokens(r.spec.max_new_tokens)
                .class(class),
        );
    }
    let report = sched.run_to_completion(1_000_000);
    assert!(report.rejected.is_empty(), "SLO mix must fit the tier");
    report
}

/// Writes `BENCH_pr7.json` at the repository root via the consolidated
/// [`MetricsSnapshot`] registry: the sync-vs-async migration comparison on
/// the oversubscribed overcommit scene plus the SLO-mix latency profile, each
/// registered as the full [`ServingReport::to_json`] counter projection. CI
/// validates and archives the file as an artifact.
fn write_bench_json(
    wl: &OvercommitConfig,
    mig_pages: usize,
    sync: &ServingReport,
    async_: &ServingReport,
    slo: &ServingReport,
) {
    let generated: u64 = slo
        .completed
        .iter()
        .map(|(_, tokens)| tokens.len() as u64)
        .sum();
    let mut snap = MetricsSnapshot::new();
    snap.insert(
        "bench",
        Json::from("tiered_offload: unified metrics registry"),
    )
    .insert(
        "overcommit_scene",
        Json::obj([
            ("requests", Json::from(wl.total_requests())),
            ("context_tokens", Json::from(wl.context_tokens)),
            ("max_new_tokens", Json::from(wl.max_new_tokens)),
            ("hot_pages", Json::from(mig_pages)),
            (
                "outputs_bit_identical",
                Json::from(u64::from(async_.completed == sync.completed)),
            ),
        ]),
    )
    .add_report("migration_sync", sync)
    .add_report("migration_async", async_)
    .insert(
        "stall_reduction",
        Json::from(
            sync.migration_stall_tokens as f64 / (async_.migration_stall_tokens.max(1)) as f64,
        ),
    )
    .insert(
        "slo_mix_throughput",
        Json::obj([
            ("generated_tokens", Json::from(generated)),
            (
                "tokens_per_step",
                Json::from(generated as f64 / slo.scheduler_steps.max(1) as f64),
            ),
        ]),
    )
    .add_report("slo_mix", slo);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json");
    snap.write(path).expect("write BENCH_pr7.json");
    println!("\nwrote {path}");
}

/// Writes `BENCH_pr9.json` at the repository root: the memory-hierarchy
/// comparison (drop-to-replay floor vs unbounded two-tier vs bounded host +
/// modeled nvme) with per-tier residency/transfer counters via the full
/// [`ServingReport::to_json`] projection of each leg, the sustained-
/// concurrency gate, and the prefetch-efficiency profile of the async
/// migration run. CI validates the gates with `jq` and archives the file.
#[allow(clippy::too_many_arguments)]
fn write_hierarchy_json(
    wl: &OvercommitConfig,
    hier_pages: usize,
    host_cap: usize,
    replay: &ServingReport,
    two_tier: &ServingReport,
    hier: &ServingReport,
    prefetch: &ServingReport,
) {
    let waste_ratio = prefetch.prefetch_wasted as f64
        / (prefetch.prefetch_wasted + prefetch.prefetch_hits).max(1) as f64;
    let mut snap = MetricsSnapshot::new();
    snap.insert(
        "bench",
        Json::from("tiered_offload: memory hierarchy (bounded host + modeled nvme)"),
    )
    .insert(
        "hierarchy_scene",
        Json::obj([
            ("requests", Json::from(wl.total_requests())),
            ("hot_pages", Json::from(hier_pages)),
            ("host_pages", Json::from(host_cap)),
            ("nvme", Json::from(1u64)),
            ("outputs_bit_identical", Json::from(1u64)),
            ("mean_running_replay", Json::from(replay.mean_running())),
            ("mean_running_two_tier", Json::from(two_tier.mean_running())),
            ("mean_running_hierarchy", Json::from(hier.mean_running())),
            (
                "concurrency_gain",
                Json::from(hier.mean_running() / replay.mean_running().max(f64::MIN_POSITIVE)),
            ),
            ("pages_spilled", Json::from(hier.pages_spilled)),
            ("pages_recalled", Json::from(hier.pages_recalled)),
            ("peak_nvme_pages", Json::from(hier.peak_nvme_pages)),
        ]),
    )
    .insert(
        "prefetch_efficiency",
        Json::obj([
            ("issued", Json::from(prefetch.prefetch_issued)),
            ("hits", Json::from(prefetch.prefetch_hits)),
            ("wasted", Json::from(prefetch.prefetch_wasted)),
            ("waste_ratio", Json::from(waste_ratio)),
        ]),
    )
    .add_report("hierarchy_replay", replay)
    .add_report("hierarchy_two_tier", two_tier)
    .add_report("hierarchy_bounded_nvme", hier);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
    snap.write(path).expect("write BENCH_pr9.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_tiered_offload);
criterion_main!(benches);
