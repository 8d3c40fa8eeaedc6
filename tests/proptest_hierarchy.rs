//! Memory-hierarchy determinism: the bounded host tier and the modeled nvme
//! tier below it must be pure accounting changes. For any workload, a
//! bounded-host run (with or without nvme) emits outputs bit-identical to the
//! historical unbounded-host run and to per-request solo runs — across
//! FP16/INT4 KV, replay/swap preemption, sync/async migration, and tight or
//! loose host capacities. Only where pages sit and what the transfers cost
//! may differ.
//!
//! The per-page mechanics behind this (multi-hop landing order, host FIFO
//! spill, demand recall pricing, in-flight cancellation on free) are pinned
//! by unit tests in `crates/kvcache/src/pool.rs`.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor,
    PreemptionPolicy, RequestSpec, Scheduler, SchedulerConfig,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::workloads::{overcommit_workload, OvercommitConfig};
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

fn run_solo(cfg: &EngineConfig, w: &Arc<ModelWeights>, chunk: usize, req: RequestSpec) -> Vec<u32> {
    let pool_pages = estimate(cfg, &w.config, req.prompt.len() + req.max_new_tokens) * 2 + 16;
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = chunk;
    scfg.migration = MigrationMode::Sync; // the pre-hierarchy baseline
    scfg.host_pages = 0;
    scfg.nvme = false;
    let mut solo = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(w), cfg.clone())),
        scfg,
    );
    let id = req.id;
    solo.submit(req);
    let report = solo.run_to_completion(100_000);
    assert_eq!(solo.pool_in_use(), 0);
    let (got_id, tokens) = report.completed.into_iter().next().expect("solo completes");
    assert_eq!(got_id, id);
    tokens
}

/// Deterministic anchor: a swap-overcommitted scene where the tight host
/// *must* spill into nvme during the swap-outs and recall on resume, while
/// outputs stay bit-identical to the unbounded baseline. The swap-out comes
/// from decode growth: admission charges the prompts, and the sequences' 32
/// generated tokens outgrow the pool.
#[test]
fn tight_host_with_nvme_spills_recalls_and_matches_unbounded() {
    let w = weights(11);
    let cfg = small_page_cfg();
    let requests: Vec<RequestSpec> = (0..3u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..40 + 9 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(32)
        })
        .collect();
    let single_max = requests
        .iter()
        .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let run = |host_pages: usize, nvme: bool| {
        let mut scfg = SchedulerConfig::new(single_max + single_max / 2);
        scfg.chunk_tokens = 8;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = PreemptionPolicy::Swap;
        scfg.migration = MigrationMode::Sync;
        scfg.host_pages = host_pages;
        scfg.nvme = nvme;
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        for r in &requests {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(200_000);
        assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
        assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
        assert_eq!(sched.pool_nvme_in_use(), 0, "nvme pages leaked");
        report
    };
    let unbounded = run(0, false);
    assert_eq!(
        unbounded.completed.len(),
        3,
        "rejected: {:?}",
        unbounded.rejected
    );
    assert!(unbounded.preemptions > 0, "scene must overcommit");
    let tight = run((single_max / 4).max(1), true);
    assert_eq!(
        tight.completed, unbounded.completed,
        "tiers changed outputs"
    );
    assert!(tight.pages_spilled > 0, "tight host must spill into nvme");
    assert!(tight.pages_recalled > 0, "resume must recall from nvme");
    assert!(tight.peak_nvme_pages > 0);
    assert_eq!(unbounded.pages_spilled, 0);
    // The nvme hops are an order of magnitude pricier than host hops, so the
    // bounded run's total stall+hidden budget must strictly exceed the
    // unbounded baseline's — the tiers are modeled, not free.
    assert!(
        tight.migration_stall_tokens + tight.hidden_transfer_tokens
            > unbounded.migration_stall_tokens + unbounded.hidden_transfer_tokens,
        "nvme traffic must cost more (tight {}+{} vs unbounded {}+{})",
        tight.migration_stall_tokens,
        tight.hidden_transfer_tokens,
        unbounded.migration_stall_tokens,
        unbounded.hidden_transfer_tokens,
    );
}

/// The tiered-memory claim on an unbounded host (scene 6 of
/// `examples/serving_tour.rs` prints it): `OvercommitConfig::small`
/// (two bursts of four 160–208-token prompts, 16 generated tokens each) on a
/// hot tier of a third of one burst's resident footprint, sync migration.
/// Swap with selection-driven demotion at budget 32 must sustain more mean
/// running sequences than resident replay, whose budget above the context
/// selects, so demotes, nothing. The test below makes the bounded-host claim
/// on a larger scene, with async migration and a 1.2x margin; it computes
/// the unbounded swap run there but asserts nothing of it.
/// When this test was written: mean running 1.37 resident replay, 3.78
/// tiered (2.75x).
#[test]
fn tiered_swap_sustains_more_running_sequences_than_resident_replay() {
    let w = weights(11);
    let wl = OvercommitConfig::small();
    let mut tiered = small_page_cfg();
    tiered.dynamic_budget = Some(32);
    let len = wl.max_prompt_len() + wl.max_new_tokens;
    let resident = EngineConfig {
        dynamic_budget: Some(len),
        ..tiered.clone()
    };
    let hot_pages = estimate(&resident, &w.config, len) * wl.requests_per_burst / 3 + 16;
    let run = |cfg: &EngineConfig, policy: PreemptionPolicy| {
        let mut scfg = SchedulerConfig::new(hot_pages);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = policy;
        let exec = Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone()));
        let mut sched = Scheduler::new(exec, scfg);
        for (i, s) in overcommit_workload(&wl).into_iter().enumerate() {
            sched.submit(RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens));
        }
        let report = sched.run_to_completion(1_000_000);
        assert_eq!(
            report.completed.len() + report.rejected.len(),
            wl.total_requests()
        );
        report.mean_running()
    };
    let floor = run(&resident, PreemptionPolicy::Replay);
    let swap = run(&tiered, PreemptionPolicy::Swap);
    println!(
        "mean running: resident replay {floor:.2}, tiered swap {swap:.2} ({:.2}x)",
        swap / floor
    );
    assert!(
        swap > floor,
        "swap with demotion must sustain more running sequences than resident replay \
         on the same hot tier (tiered {swap:.2}, resident {floor:.2})"
    );
}

/// The hierarchy claim at overcommit scale: `OvercommitConfig::hierarchy_bench`
/// (three bursts of four 160–208-token prompts, 32 generated tokens each) on
/// a hot tier of a third of one burst's resident footprint, async migration.
/// The floor is drop-to-replay with every page resident: a budget above the
/// context selects, so demotes, nothing, and no page leaves the hot tier.
/// Against it run swap over an unbounded host and swap over a host of half
/// one sequence with nvme below it, both at budget 32, where every selecting
/// head demotes. The bounded hierarchy must spill and recall and sustain at
/// least 1.2x the floor's mean running sequences.
///
/// A budget-32 replay run, which demotes too, gives the swap runs' outputs
/// token for token (the floor's denser attention gives others). It is not
/// the floor: demotion alone keeps its footprints small, and it sustains
/// more running sequences than either swap run, so the hierarchy's gain
/// over it is below 1.
/// When this test was last changed: mean running resident replay 3.23,
/// replay 5.26, two-tier swap 4.25, hierarchy 4.17 (1.29x the floor, 0.79x
/// replay); 1 158 pages spilled, 732 recalled, 281 peak nvme pages.
#[test]
#[ignore = "about 9 s in debug: cargo test --release --test proptest_hierarchy -- --ignored"]
fn bounded_host_over_nvme_sustains_more_running_sequences_than_resident_replay() {
    let w = weights(7);
    let wl = OvercommitConfig::hierarchy_bench();
    let mut cfg = small_page_cfg();
    cfg.dynamic_budget = Some(32);
    let len = wl.max_prompt_len() + wl.max_new_tokens;
    let resident = EngineConfig {
        dynamic_budget: Some(len),
        ..cfg.clone()
    };
    let per_seq = estimate(&resident, &w.config, len);
    let host_cap = (per_seq / 2).max(1);
    let run = |cfg: &EngineConfig, policy: PreemptionPolicy, host_pages: usize, nvme: bool| {
        let cfg = cfg.clone();
        let mut scfg = SchedulerConfig::new(per_seq * wl.requests_per_burst / 3 + 16);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = policy;
        scfg.migration = MigrationMode::Async;
        (scfg.host_pages, scfg.nvme) = (host_pages, nvme);
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(Arc::clone(&w), cfg)), scfg);
        for (i, s) in overcommit_workload(&wl).into_iter().enumerate() {
            sched.submit(RequestSpec::new(i as u64, s.prompt).max_new_tokens(s.max_new_tokens));
        }
        let report = sched.run_to_completion(1_000_000);
        assert!(report.rejected.is_empty(), "{:?}", report.rejections);
        report
    };
    let floor = run(&resident, PreemptionPolicy::Replay, 0, false);
    assert_eq!(floor.pages_demoted, 0, "the floor keeps every page hot");
    let replay = run(&cfg, PreemptionPolicy::Replay, 0, false);
    let two_tier = run(&cfg, PreemptionPolicy::Swap, 0, false);
    let hier = run(&cfg, PreemptionPolicy::Swap, host_cap, true);
    // Replay and swap finish requests in different orders.
    let by_id = |mut done: Vec<(u64, Vec<u32>)>| {
        done.sort_by_key(|(id, _)| *id);
        done
    };
    let gain = hier.mean_running() / floor.mean_running();
    println!(
        "mean running: resident replay {:.2}, replay {:.2}, two-tier {:.2}, hierarchy {:.2} \
         ({gain:.2}x the floor, {:.2}x replay); {} spilled / {} recalled / peak {} nvme",
        floor.mean_running(),
        replay.mean_running(),
        two_tier.mean_running(),
        hier.mean_running(),
        hier.mean_running() / replay.mean_running(),
        hier.pages_spilled,
        hier.pages_recalled,
        hier.peak_nvme_pages,
    );
    assert_eq!(
        by_id(hier.completed.clone()),
        by_id(replay.completed),
        "the hierarchy moved outputs"
    );
    assert_eq!(
        hier.completed, two_tier.completed,
        "same schedule, same order"
    );
    assert!(hier.nvme, "the bounded run has an nvme tier");
    assert!(
        hier.pages_spilled > 0 && hier.pages_recalled > 0 && hier.peak_nvme_pages > 0,
        "a host of {host_cap} pages must overflow into nvme and recall"
    );
    assert!(
        gain >= 1.2,
        "hierarchy must sustain >= 1.2x the resident floor's mean running"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: bounded-host ≡ unbounded ≡ solo, token for
    /// token, across {FP16, INT4} × {replay, swap} × {sync, async} ×
    /// host-capacity ∈ {tight, loose}, with the nvme tier on for every
    /// bounded run, under enough pool pressure to exercise preemption,
    /// spill, and recall.
    #[test]
    fn bounded_host_outputs_match_unbounded_and_solo_runs(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        asynchronous in proptest::bool::ANY,
        tight in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
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
        // Tight: the host cannot absorb even a quarter of one victim, so
        // swap-outs chain through nvme. Loose: everything fits in the host
        // and the nvme tier stays configured but idle.
        let host_pages = if tight {
            (single_max / 4).max(1)
        } else {
            single_max * 4
        };
        let run = |host: usize, nvme: bool| {
            let mut scfg = SchedulerConfig::new(single_max + slack);
            scfg.chunk_tokens = chunk;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = if swap {
                PreemptionPolicy::Swap
            } else {
                PreemptionPolicy::Replay
            };
            scfg.migration = if asynchronous {
                MigrationMode::Async
            } else {
                MigrationMode::Sync
            };
            scfg.host_pages = host;
            scfg.nvme = nvme;
            let mut sched = Scheduler::new(
                Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
                scfg,
            );
            for r in &requests {
                sched.submit(r.clone());
            }
            let report = sched.run_to_completion(200_000);
            assert_eq!(
                sched.pool_in_use(),
                0,
                "hot pages leaked (wseed {wseed} chunk {chunk} slack {slack} \
                 quantized {quantized} swap {swap} async {asynchronous} \
                 host {host} nvme {nvme})"
            );
            assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
            assert_eq!(sched.pool_nvme_in_use(), 0, "nvme pages leaked");
            report
        };
        let unbounded = run(0, false);
        let bounded = run(host_pages, true);
        prop_assert_eq!(
            unbounded.completed.len(),
            3,
            "rejected: {:?}",
            unbounded.rejected
        );
        prop_assert_eq!(
            &bounded.completed, &unbounded.completed,
            "bounded-host outputs diverged (wseed {} chunk {} slack {} \
             quantized {} swap {} async {} tight {})",
            wseed, chunk, slack, quantized, swap, asynchronous, tight
        );
        for req in &requests {
            let want = run_solo(&cfg, &w, chunk, req.clone());
            let got = &bounded
                .completed
                .iter()
                .find(|(id, _)| *id == req.id)
                .unwrap()
                .1;
            prop_assert_eq!(got, &want, "request {} diverged under the hierarchy", req.id);
        }
    }
}
