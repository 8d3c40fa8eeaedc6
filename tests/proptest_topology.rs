//! Device-matrix determinism: multi-device head placement is a pure
//! accounting change. For any workload, running the scheduler against 1, 2 or
//! 4 simulated devices emits bit-identical outputs — across FP16/INT4 KV,
//! replay/swap preemption, sync/async migration, and prefix caching on/off.
//! Placement, cross-device gathers and the rebalancer only move *modeled*
//! cost between simulated devices; the arithmetic never changes.
//!
//! The same file holds the modeled placement claim (sparsity-aware placement
//! against round-robin at 4 devices) and anchors the cluster front door: the
//! prefix-affinity router must actually produce affinity hits on a
//! shared-prefix workload, lose no prefix reuse against least-loaded routing,
//! and the per-replica reports must sum exactly to the rolled-up cluster
//! snapshot.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, streaming_masks_from_gates, AdmissionPolicy, Cluster, ClusterConfig,
    EngineConfig, MigrationMode, ModelExecutor, PlacementPolicy, PreemptionPolicy, RequestSpec,
    Scheduler, SchedulerConfig, ServingReport,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::workloads::{duo_gates, shared_prefix_workload, SharedPrefixConfig};
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

fn requests() -> Vec<RequestSpec> {
    (0..3u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..30 + 9 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(8)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_devices(
    w: &Arc<ModelWeights>,
    cfg: &EngineConfig,
    devices: usize,
    chunk: usize,
    slack: usize,
    swap: bool,
    prefix_cache: bool,
    migration: MigrationMode,
) -> ServingReport {
    let reqs = requests();
    let single_max = reqs
        .iter()
        .map(|r| sequence_pages_estimate(cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let mut scfg = SchedulerConfig::new(single_max + single_max / 2 + slack);
    scfg.chunk_tokens = chunk;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.prefix_cache = prefix_cache;
    scfg.preemption = if swap {
        PreemptionPolicy::Swap
    } else {
        PreemptionPolicy::Replay
    };
    scfg.migration = migration;
    scfg.devices = devices;
    let mut sched = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(w), cfg.clone())),
        scfg,
    );
    for r in &reqs {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(200_000);
    sched.flush_prefix_cache();
    assert_eq!(
        sched.pool_in_use(),
        0,
        "hot pages leaked at {devices} devices"
    );
    report
}

/// Deterministic anchor: a demanding scene (swap preemption, async migration,
/// selection-driven demotion) where the 2- and 4-device runs must keep every
/// output token identical to the single-device run while charging modeled
/// interconnect tokens for cross-device gathers.
#[test]
fn device_matrix_preserves_outputs_and_charges_interconnect() {
    let w = weights(23);
    let mut cfg = small_page_cfg();
    cfg.dynamic_budget = Some(24);
    cfg.demote_after_chunks = Some(1);
    cfg.reuse_interval = 2;
    let base = run_devices(&w, &cfg, 1, 8, 0, true, false, MigrationMode::Async);
    assert_eq!(base.completed.len(), 3, "rejected: {:?}", base.rejected);
    assert_eq!(base.devices, 1);
    assert_eq!(base.parallel.interconnect_tokens, 0);
    for devices in [2usize, 4] {
        let multi = run_devices(&w, &cfg, devices, 8, 0, true, false, MigrationMode::Async);
        assert_eq!(
            multi.completed, base.completed,
            "{devices}-device outputs diverged"
        );
        assert_eq!(multi.devices, devices);
        assert!(
            multi.parallel.interconnect_tokens > 0,
            "multi-device batches must charge cross-device gathers"
        );
        assert!(multi.parallel.device_cost_capacity >= multi.parallel.device_cost_total);
        assert!(multi.parallel.device_imbalance() >= 1.0);
    }
}

/// Simulated devices the placement scene shards over.
const DEVICES: usize = 4;

/// 8 KV heads over 4 devices, half of them streaming: room for head
/// placement to matter.
fn wide_model() -> ModelConfig {
    ModelConfig {
        name: "wide-kv".into(),
        num_layers: 2,
        hidden: 64,
        num_q_heads: 8,
        num_kv_heads: 8,
        head_dim: 8,
        ffn_hidden: 128,
        vocab: 97,
        rope_base: 10_000.0,
    }
}

/// The first gate seed under which some device's round-robin share
/// (`head % DEVICES` over both layers) is all dense heads: round-robin then
/// stacks context-proportional heads on one device, which is the scene
/// sparsity-aware placement is for.
fn adversarial_gate_seed() -> u64 {
    let model = wide_model();
    let slots_per_device = model.num_layers * model.num_kv_heads / DEVICES;
    (0..100_000u64)
        .find(|&seed| {
            let gates = duo_gates(model.num_layers, model.num_kv_heads, seed);
            let masks = streaming_masks_from_gates(&gates, 0.5);
            (0..DEVICES).any(|d| {
                let dense = masks
                    .iter()
                    .flat_map(|layer| layer.iter().enumerate())
                    .filter(|&(h, &streaming)| h % DEVICES == d && !streaming)
                    .count();
                dense == slots_per_device
            })
        })
        .expect("an adversarial gate seed in range")
}

fn wide_cfg() -> EngineConfig {
    let mut cfg = small_page_cfg();
    cfg.gate_seed = adversarial_gate_seed();
    cfg
}

/// Every `LSERVE_*` knob a claim below depends on, at its default.
fn pin_defaults(scfg: &mut SchedulerConfig) {
    (scfg.decode_threads, scfg.devices) = (1, 1);
    (scfg.preemption, scfg.migration) = (PreemptionPolicy::Replay, MigrationMode::Sync);
    (scfg.host_pages, scfg.nvme) = (0, false);
}

/// Six long prompts of 160–400 tokens on the wide model, with the
/// rebalancer checking every 4 steps at a 1.05 threshold: placement is seeded
/// from the first, near-uniform decode phase, so the policies only diverge
/// once the rebalancer recomputes from accumulated load.
fn run_placed(w: &Arc<ModelWeights>, devices: usize, placement: PlacementPolicy) -> ServingReport {
    let cfg = wide_cfg();
    let reqs: Vec<RequestSpec> = (0..6u64)
        .map(|i| {
            let prompt =
                (0..160 + 48 * i as usize).map(|t| ((t * 3 + i as usize * 11) % 90) as u32);
            RequestSpec::new(i, prompt.collect()).max_new_tokens(8)
        })
        .collect();
    let per_seq = reqs
        .iter()
        .map(|r| sequence_pages_estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let mut scfg = SchedulerConfig::new(per_seq * reqs.len() + 64);
    pin_defaults(&mut scfg);
    scfg.chunk_tokens = 8;
    scfg.devices = devices;
    scfg.placement = placement;
    scfg.rebalance_interval = 4;
    scfg.rebalance_threshold = 1.05;
    let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(Arc::clone(w), cfg)), scfg);
    for r in reqs {
        sched.submit(r);
    }
    let report = sched.run_to_completion(1_000_000);
    assert!(report.rejected.is_empty(), "workload must fit the pool");
    report
}

/// The placement claim: at 4 devices, round-robin's modeled device imbalance
/// is at least 1.5x sparsity-aware placement's, outputs equal the
/// single-device run under either policy, and cross-device gathers are
/// charged. When this test was written: 1.72 vs 1.01 (1.70x).
#[test]
#[ignore = "about 20 s in debug: cargo test --release --test proptest_topology -- --ignored"]
fn sparsity_aware_placement_beats_round_robin_imbalance_at_4_devices() {
    let w = Arc::new(ModelWeights::random(&wide_model(), 11));
    let sa = run_placed(&w, DEVICES, PlacementPolicy::SparsityAware);
    let rr = run_placed(&w, DEVICES, PlacementPolicy::RoundRobin);
    let base = run_placed(&w, 1, PlacementPolicy::SparsityAware);
    let (sa_imb, rr_imb) = (
        sa.parallel.device_imbalance(),
        rr.parallel.device_imbalance(),
    );
    println!(
        "imbalance at {DEVICES} devices: round-robin {rr_imb:.2} vs sparsity-aware {sa_imb:.2} \
         ({:.2}x); interconnect {} tokens",
        rr_imb / sa_imb,
        sa.parallel.interconnect_tokens,
    );
    assert_eq!(sa.completed, base.completed, "4-device outputs diverged");
    assert_eq!(rr.completed, sa.completed, "placement policy moved outputs");
    assert_eq!(sa.parallel.devices, DEVICES);
    assert!(
        sa.parallel.interconnect_tokens > 0,
        "gathers must be charged"
    );
    assert!(
        rr_imb >= 1.5 * sa_imb,
        "round-robin {rr_imb:.2} must be >= 1.5x sparsity-aware {sa_imb:.2}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property: for any chunk size, pool slack, KV precision,
    /// preemption policy, migration mode and prefix caching, the scheduler's
    /// outputs are bit-identical across {1, 2, 4} simulated devices.
    #[test]
    fn outputs_identical_across_device_counts(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        prefix_cache in proptest::bool::ANY,
        async_migration in proptest::bool::ANY,
        demote in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        if demote {
            cfg.dynamic_budget = Some(16);
            cfg.demote_after_chunks = Some(1);
        }
        let migration = if async_migration {
            MigrationMode::Async
        } else {
            MigrationMode::Sync
        };
        let base = run_devices(&w, &cfg, 1, chunk, slack, swap, prefix_cache, migration);
        prop_assert_eq!(base.completed.len(), 3, "rejected: {:?}", base.rejected);
        for devices in [2usize, 4] {
            let multi = run_devices(&w, &cfg, devices, chunk, slack, swap, prefix_cache, migration);
            prop_assert_eq!(
                &multi.completed, &base.completed,
                "outputs diverged at {} devices (wseed {} chunk {} slack {} \
                 quantized {} swap {} prefix {} async {} demote {})",
                devices, wseed, chunk, slack, quantized, swap, prefix_cache,
                async_migration, demote
            );
        }
    }
}

/// Router anchor: on a two-family shared-prefix workload, affinity routing
/// produces hits, keeps each family on one replica (so the prefix cache
/// hits), and the rolled-up snapshot's cluster totals are exact sums of the
/// per-replica reports. On the persona scene, affinity routing loses no
/// prefix reuse against least-loaded routing.
#[test]
fn router_affinity_hits_and_rollup_sums_replicas() {
    let weights = weights(7);
    let exec = Arc::new(ModelExecutor::new(weights, EngineConfig::lserve_fp16()));
    let mut scfg = SchedulerConfig::new(2048);
    scfg.prefix_cache = true;
    scfg.chunk_tokens = 8;
    let mut cluster = Cluster::new(
        exec,
        scfg,
        ClusterConfig {
            replicas: 2,
            affinity_tokens: 16,
        },
    );
    let family = |seed: u32, q: u32| -> Vec<u32> {
        let mut p: Vec<u32> = (0..24u32).map(|t| (seed + t) % 40).collect();
        p.push(40 + q);
        p
    };
    // Wave 1 seeds each family's replica; wave 2 follows the recorded prefix.
    let mut id = 0u64;
    for seed in [0u32, 7] {
        cluster.submit(RequestSpec::new(id, family(seed, 0)).max_new_tokens(4));
        id += 1;
    }
    cluster.run_to_completion(10_000);
    for seed in [0u32, 7] {
        for q in 1..4u32 {
            cluster.submit(RequestSpec::new(id, family(seed, q)).max_new_tokens(4));
            id += 1;
        }
    }
    let report = cluster.run_to_completion(10_000);
    let stats = cluster.router_stats();
    assert_eq!(stats.routed, 8);
    assert!(stats.affinity_hits > 0, "affinity must route follow-ups");
    assert_eq!(stats.affinity_hits + stats.least_loaded, stats.routed);
    assert_eq!(report.completed(), 8);
    assert!(
        report.prefix_hit_tokens() > 0,
        "affinity must enable cache hits"
    );

    // Exact-sum anchor: the cluster section of the rollup equals manual sums
    // over the per-replica reports.
    assert_eq!(
        report.completed(),
        report
            .replicas
            .iter()
            .map(|r| r.completed.len())
            .sum::<usize>()
    );
    assert_eq!(
        report.decode_steps(),
        report.replicas.iter().map(|r| r.decode_steps).sum::<u64>()
    );
    assert_eq!(
        report.prefix_hit_tokens(),
        report
            .replicas
            .iter()
            .map(|r| r.prefix_hit_tokens)
            .sum::<u64>()
    );
    let rendered = report.rollup().render();
    lserve::trace::validate_json(&rendered).unwrap();
    assert!(rendered.contains(&format!("\"completed\":{}", report.completed())));
    assert!(rendered.contains("\"replica0\""));
    assert!(rendered.contains("\"replica1\""));

    // Affinity routing must not lose prefix reuse against pure least-loaded
    // routing on the persona scene. When this was written both read 384 hit
    // tokens: the claim is "no worse", not "better".
    let w = Arc::new(ModelWeights::random(&wide_model(), 11));
    let affinity = SharedPrefixConfig::cluster().affinity_prefix_len();
    let (with, without) = (persona_hit_tokens(&w, affinity), persona_hit_tokens(&w, 0));
    println!("prefix-hit tokens: affinity {with} vs least-loaded {without}");
    assert!(
        with >= without,
        "affinity {with} lost reuse to least-loaded {without}"
    );
}

/// Prefix-hit tokens of `SharedPrefixConfig::cluster` behind a 2-replica
/// front door, one query round per wave so that earlier rounds seed the
/// caches the router either follows (`affinity_tokens` > 0) or ignores.
fn persona_hit_tokens(w: &Arc<ModelWeights>, affinity_tokens: usize) -> u64 {
    let wl = SharedPrefixConfig::cluster();
    let cfg = wide_cfg();
    let per_seq = sequence_pages_estimate(&cfg, &w.config, wl.prompt_len() + wl.max_new_tokens);
    let mut scfg = SchedulerConfig::new(per_seq * wl.total_requests() + 64);
    pin_defaults(&mut scfg);
    scfg.chunk_tokens = 8;
    scfg.prefix_cache = true;
    let exec = Arc::new(ModelExecutor::new(Arc::clone(w), cfg));
    let config = ClusterConfig {
        replicas: 2,
        affinity_tokens,
    };
    let mut cluster = Cluster::new(exec, scfg, config);
    let mut report = None;
    for (id, spec) in shared_prefix_workload(&wl).into_iter().enumerate() {
        cluster
            .submit(RequestSpec::new(id as u64, spec.prompt).max_new_tokens(spec.max_new_tokens));
        if (id + 1) % wl.personas == 0 {
            report = Some(cluster.run_to_completion(100_000));
        }
    }
    let report = report.expect("at least one round");
    assert_eq!(report.completed(), wl.total_requests());
    assert!(affinity_tokens == 0 || cluster.router_stats().affinity_hits > 0);
    report.prefix_hit_tokens()
}
