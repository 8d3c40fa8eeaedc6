//! Multi-device head placement: sparsity-aware vs round-robin, the
//! rebalancer's recovery from a staged pathological placement, and the
//! cluster front door's prefix-affinity routing.
//!
//! Three families of numbers come out of this bench:
//!
//! * **Placement quality** — the same workload served against 4 simulated
//!   devices under sparsity-aware (LPT over the per-head cost signal) and
//!   round-robin placement. Outputs must be bit-identical (placement is an
//!   accounting change); the acceptance criterion is sparsity-aware modeled
//!   device imbalance at least 1.5x lower than round-robin.
//! * **Rebalancer recovery** — a staged >= 2x-imbalance placement (every
//!   heavy head stacked on one device) that the periodic rebalancer must
//!   detect and repair, charging the moved heads' KV across the modeled
//!   interconnect.
//! * **Router affinity** — the shared-prefix cluster workload behind a
//!   2-replica front door, with prefix affinity on vs off: affinity must
//!   keep persona families together and win on prefix-cache hit tokens.
//!
//! Everything is registered on a [`MetricsSnapshot`] and written to
//! `BENCH_pr8.json` at the repository root for CI to validate and archive.
//!
//! ```text
//! cargo bench -p lserve-bench --bench sharding_placement
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use std::sync::Arc;

use lserve_bench::Json;
use lserve_core::streaming_masks_from_gates;
use lserve_core::{
    sequence_pages_estimate, Cluster, ClusterConfig, EngineConfig, MetricsSnapshot, ModelExecutor,
    Placement, PlacementPolicy, RequestSpec, Scheduler, SchedulerConfig, ServingReport,
    ShardingPlan, Topology,
};
use lserve_kvcache::PagingConfig;
use lserve_model::{ModelConfig, ModelWeights};
use lserve_quant::KvPrecision;
use lserve_workloads::{duo_gates, shared_prefix_workload, SharedPrefixConfig};

/// Simulated devices the placement scene shards over.
const DEVICES: usize = 4;

/// A model wide enough in KV heads that head->device placement has room to
/// matter: 8 KV heads over 4 devices, half of them streaming at the paper's
/// 50% sparsity.
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

/// Searches gate seeds for one whose dense heads pile onto few round-robin
/// residues: head classification is a pure function of `gate_seed` (a seeded
/// shuffle over the `(layer, head)` gate slots), so this scans seeds until
/// some device's round-robin share (`head % DEVICES` across both layers) is
/// all dense. Round-robin then stacks context-proportional heads on one
/// device while the sparsity-aware rebalancer spreads them — the honest
/// adversarial scene for the placement comparison. Deterministic: always
/// returns the first qualifying seed.
fn adversarial_gate_seed() -> u64 {
    let model = wide_model();
    for seed in 0..100_000u64 {
        let gates = duo_gates(model.num_layers, model.num_kv_heads, seed);
        let masks = streaming_masks_from_gates(&gates, 0.5);
        let slots_per_device = model.num_layers * model.num_kv_heads / DEVICES;
        let dense_per_device = (0..DEVICES).map(|d| {
            masks
                .iter()
                .flat_map(|layer| layer.iter().enumerate())
                .filter(|&(h, &streaming)| h % DEVICES == d && !streaming)
                .count()
        });
        if dense_per_device.max().expect("devices > 0") == slots_per_device {
            return seed;
        }
    }
    panic!("no adversarial gate seed in range");
}

fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg.gate_seed = adversarial_gate_seed();
    cfg
}

/// Long-context requests of varied lengths: dense heads dominate the cost
/// signal, which is exactly the skew sparsity-aware placement exploits.
fn requests() -> Vec<RequestSpec> {
    (0..6u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..160 + 48 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 11) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(8)
        })
        .collect()
}

fn run_placed(
    weights: &Arc<ModelWeights>,
    devices: usize,
    placement: PlacementPolicy,
) -> ServingReport {
    let cfg = engine_cfg();
    let reqs = requests();
    let per_seq = reqs
        .iter()
        .map(|r| sequence_pages_estimate(&cfg, &weights.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let mut scfg = SchedulerConfig::new(per_seq * reqs.len() + 64);
    scfg.chunk_tokens = 8;
    scfg.devices = devices;
    scfg.placement = placement;
    // Aggressive rebalancing for both policies: placement is lazily seeded
    // from the first (near-uniform) decode phase, so the policies only
    // diverge once the rebalancer recomputes from accumulated real load —
    // sparsity-aware LPT spreads the dense heads, round-robin recomputes the
    // same cost-blind assignment and stays stuck.
    scfg.rebalance_interval = 4;
    scfg.rebalance_threshold = 1.05;
    let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(Arc::clone(weights), cfg)), scfg);
    for r in reqs {
        sched.submit(r);
    }
    let report = sched.run_to_completion(1_000_000);
    assert!(report.rejected.is_empty(), "workload must fit the pool");
    report
}

/// Runs the shared-prefix cluster workload behind a 2-replica front door,
/// submitting one query round per wave so earlier rounds seed the prefix
/// caches the router's affinity either exploits (`affinity` > 0) or wastes.
fn run_cluster(weights: &Arc<ModelWeights>, affinity_tokens: usize) -> (ServingReport, Json) {
    let wl = SharedPrefixConfig::cluster();
    let cfg = engine_cfg();
    let per_seq =
        sequence_pages_estimate(&cfg, &weights.config, wl.prompt_len() + wl.max_new_tokens);
    let mut scfg = SchedulerConfig::new(per_seq * wl.total_requests() + 64);
    scfg.chunk_tokens = 8;
    scfg.prefix_cache = true;
    let mut cluster = Cluster::new(
        Arc::new(ModelExecutor::new(Arc::clone(weights), cfg)),
        scfg,
        ClusterConfig {
            replicas: 2,
            affinity_tokens,
        },
    );
    let specs = shared_prefix_workload(&wl);
    let mut id = 0u64;
    let mut report = None;
    for round in specs.chunks(wl.personas) {
        for spec in round {
            cluster.submit(
                RequestSpec::new(id, spec.prompt.clone()).max_new_tokens(spec.max_new_tokens),
            );
            id += 1;
        }
        report = Some(cluster.run_to_completion(100_000));
    }
    let report = report.expect("at least one round");
    assert_eq!(report.completed(), wl.total_requests());
    let stats = cluster.router_stats();
    assert!(
        affinity_tokens == 0 || stats.affinity_hits > 0,
        "affinity routing must route follow-ups to their family's replica"
    );
    let section = Json::obj([
        ("affinity_tokens", Json::from(affinity_tokens)),
        ("routed", Json::from(stats.routed)),
        ("affinity_hits", Json::from(stats.affinity_hits)),
        ("least_loaded", Json::from(stats.least_loaded)),
        ("prefix_hit_tokens", Json::from(report.prefix_hit_tokens())),
        ("completed", Json::from(report.completed() as u64)),
    ]);
    let mut flat = ServingReport::default();
    for r in &report.replicas {
        flat.prefix_hit_tokens += r.prefix_hit_tokens;
    }
    (flat, section)
}

fn bench_sharding_placement(c: &mut Criterion) {
    let weights = Arc::new(ModelWeights::random(&wide_model(), 11));

    let mut group = c.benchmark_group("sharding_placement");
    group.sample_size(10);
    for devices in [1usize, DEVICES] {
        group.bench_function(BenchmarkId::new("decode", devices), |b| {
            b.iter(|| run_placed(&weights, devices, PlacementPolicy::SparsityAware))
        });
    }
    group.finish();

    // ---- Sparsity-aware vs round-robin placement at 4 devices. ----
    let sa = run_placed(&weights, DEVICES, PlacementPolicy::SparsityAware);
    let rr = run_placed(&weights, DEVICES, PlacementPolicy::RoundRobin);
    let base = run_placed(&weights, 1, PlacementPolicy::SparsityAware);
    assert_eq!(
        sa.completed, base.completed,
        "4-device outputs diverged from single-device"
    );
    assert_eq!(
        rr.completed, sa.completed,
        "placement policy is an accounting change: outputs must not move"
    );
    assert_eq!(sa.parallel.devices, DEVICES);
    assert!(
        sa.parallel.interconnect_tokens > 0,
        "a 4-device batch must charge cross-device gathers"
    );
    let sa_imb = sa.parallel.device_imbalance();
    let rr_imb = rr.parallel.device_imbalance();
    println!(
        "\nplacement at 4 devices: sparsity-aware imbalance {sa_imb:.2}x vs \
         round-robin {rr_imb:.2}x ({:.2}x better); interconnect {} vs {} tokens",
        rr_imb / sa_imb,
        sa.parallel.interconnect_tokens,
        rr.parallel.interconnect_tokens,
    );
    assert!(
        rr_imb >= 1.5 * sa_imb,
        "sparsity-aware placement must model >= 1.5x lower device imbalance \
         (sparsity-aware {sa_imb:.2}x vs round-robin {rr_imb:.2}x)"
    );

    // ---- Rebalancer recovery from a staged >= 2x-imbalance placement. ----
    //
    // 8 KV heads on 2 devices, heavy heads at even indices: round-robin
    // stacks every heavy head on device 0 (imbalance 2.0), and the periodic
    // rebalancer must detect it from the accumulated cost signal, recompute
    // placement, and charge the moved heads' KV across the interconnect.
    let layers = 2;
    let heads = 8;
    let mut plan = ShardingPlan::new(
        Topology::symmetric(2, lserve_costmodel::DEFAULT_GATHER_COST_TOKENS),
        PlacementPolicy::SparsityAware,
        layers,
        heads,
    );
    plan.rebalance_interval = 8;
    let staged = Placement::compute(&vec![0; heads], 2, PlacementPolicy::RoundRobin);
    for l in 0..layers {
        plan.force_assignment(l, staged.clone());
    }
    let signal: Vec<u64> = (0..heads)
        .map(|h| if h % 2 == 0 { 100 } else { 0 })
        .collect();
    let mut outcome = None;
    for _ in 0..plan.rebalance_interval {
        for l in 0..layers {
            plan.layer_assignment(l, &signal);
        }
        if let Some(o) = plan.maybe_rebalance(|_, _| 64) {
            outcome = Some(o);
        }
    }
    let o = outcome.expect("staged imbalance must trigger the rebalancer");
    assert!(
        o.imbalance >= 2.0,
        "staged round-robin placement must model >= 2x imbalance, got {:.2}",
        o.imbalance
    );
    // Feed the same signal against the repaired placement and measure again.
    for _ in 0..plan.rebalance_interval - 1 {
        for l in 0..layers {
            plan.layer_assignment(l, &signal);
        }
        plan.maybe_rebalance(|_, _| 64);
    }
    let recovered = plan.measured_imbalance();
    println!(
        "rebalancer: staged imbalance {:.2}x -> recovered {recovered:.2}x; \
         {} heads moved for {} modeled interconnect tokens",
        o.imbalance, o.heads_migrated, o.cost_tokens,
    );
    assert!(
        recovered * 2.0 <= o.imbalance,
        "rebalancer must at least halve the staged imbalance \
         (staged {:.2}x, recovered {recovered:.2}x)",
        o.imbalance
    );
    assert!(o.cost_tokens >= 1, "migration is never free");

    // ---- Prefix-affinity routing vs pure least-loaded. ----
    let (with_affinity, affinity_section) = run_cluster(
        &weights,
        SharedPrefixConfig::cluster().affinity_prefix_len(),
    );
    let (without_affinity, no_affinity_section) = run_cluster(&weights, 0);
    println!(
        "cluster routing: affinity {} prefix-hit tokens vs least-loaded {}",
        with_affinity.prefix_hit_tokens, without_affinity.prefix_hit_tokens,
    );
    assert!(
        with_affinity.prefix_hit_tokens >= without_affinity.prefix_hit_tokens,
        "affinity routing must not lose prefix reuse (affinity {} vs \
         least-loaded {})",
        with_affinity.prefix_hit_tokens,
        without_affinity.prefix_hit_tokens
    );

    // ---- BENCH_pr8.json for CI. ----
    let mut snap = MetricsSnapshot::new();
    snap.insert(
        "bench",
        Json::from("sharding_placement: multi-device placement, rebalancer, cluster router"),
    )
    .insert(
        "placement_scene",
        Json::obj([
            ("devices", Json::from(DEVICES as u64)),
            ("kv_heads", Json::from(weights.config.num_kv_heads)),
            ("imbalance_sparsity_aware", Json::from(sa_imb)),
            ("imbalance_round_robin", Json::from(rr_imb)),
            ("imbalance_ratio", Json::from(rr_imb / sa_imb)),
            (
                "interconnect_tokens_sparsity_aware",
                Json::from(sa.parallel.interconnect_tokens),
            ),
            (
                "interconnect_tokens_round_robin",
                Json::from(rr.parallel.interconnect_tokens),
            ),
            ("outputs_bit_identical", Json::from(1u64)),
        ]),
    )
    .insert(
        "rebalancer_scene",
        Json::obj([
            ("staged_imbalance", Json::from(o.imbalance)),
            ("recovered_imbalance", Json::from(recovered)),
            ("heads_migrated", Json::from(o.heads_migrated)),
            ("migration_token_units", Json::from(o.token_units)),
            ("migration_cost_tokens", Json::from(o.cost_tokens)),
        ]),
    )
    .insert("router_affinity", affinity_section)
    .insert("router_least_loaded", no_affinity_section)
    .add_report("serving_sparsity_aware", &sa)
    .add_report("serving_round_robin", &rr);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8.json");
    snap.write(path).expect("write BENCH_pr8.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_sharding_placement);
criterion_main!(benches);
