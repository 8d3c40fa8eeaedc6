//! The modeled half of the sharded-attention phase, pinned: for one fixed
//! scene, the deterministic fields of `ParallelExecStats`, the rebalancer's
//! counters and the bytes of the rendered Chrome trace, over {1, 2, 4
//! devices} × {1, 8 threads} × {sparsity-aware, round-robin placement}.
//!
//! The scene is `proptest_topology`'s
//! `device_matrix_preserves_outputs_and_charges_interconnect`: three chunked
//! prompts under swap preemption, async migration and selection-driven
//! demotion, so fused prefill phases, continuation runs and batched decode
//! rounds all occur. Every `SchedulerConfig` field that `SchedulerConfig::new`
//! seeds from an `LSERVE_*` variable is overwritten, so both CI legs read the
//! same numbers.
//!
//! [`LEDGER`] holds what the code produced *before* the attention phase's two
//! worker pools and two placement paths became one. A change that only
//! regroups that code reproduces every row. `stolen` and every `busy_ns_*`
//! are wall-clock and stay out; the trace lays its worker lanes from the
//! modeled LPT schedule, never the measured one, so its bytes are in.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor,
    PreemptionPolicy, RequestSpec, Scheduler, SchedulerConfig, ServingReport,
};
use lserve::costmodel::PlacementPolicy;
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::{chrome_trace_json, Tracer, DEFAULT_RING_CAPACITY};

const POLICIES: [PlacementPolicy; 2] =
    [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin];

/// The pinned fields of one cell, in [`FIELDS`] order, then the FNV-1a hash
/// of its Chrome trace.
type Row = ([u64; 13], u64);

const FIELDS: [&str; 13] = [
    "phases",
    "shards",
    "workers",
    "cost_total",
    "cost_critical",
    "devices",
    "interconnect_tokens",
    "device_cost_total",
    "device_cost_critical",
    "device_cost_capacity",
    "rebalances",
    "heads_migrated",
    "rebalance_migration_tokens",
];

/// One row per `(devices, threads, policy)`, in the order [`cells`] yields.
#[rustfmt::skip]
const LEDGER: [Row; 12] = [
    ([222, 480, 1, 17065, 17065, 1, 0, 17065, 17065, 17065, 0, 0, 0], 0x87ebc67bed62adb3), // devices 1, threads 1, SparsityAware
    ([222, 480, 1, 17065, 17065, 1, 0, 17065, 17065, 17065, 0, 0, 0], 0x87ebc67bed62adb3), // devices 1, threads 1, RoundRobin
    ([222, 480, 4, 17065, 8057, 1, 0, 17065, 17065, 17065, 0, 0, 0], 0x5577da1fc3f90ec5), // devices 1, threads 8, SparsityAware
    ([222, 480, 4, 17065, 8057, 1, 0, 17065, 17065, 17065, 0, 0, 0], 0x5577da1fc3f90ec5), // devices 1, threads 8, RoundRobin
    ([222, 480, 2, 17977, 9444, 2, 912, 17977, 9444, 18864, 0, 0, 0], 0xb48c9141186230a3), // devices 2, threads 1, SparsityAware
    ([222, 480, 2, 17977, 9444, 2, 912, 17977, 9444, 18864, 0, 0, 0], 0xb48c9141186230a3), // devices 2, threads 1, RoundRobin
    ([222, 480, 4, 17977, 8908, 2, 912, 17977, 9444, 18864, 0, 0, 0], 0xf0c5c4536b5d9f92), // devices 2, threads 8, SparsityAware
    ([222, 480, 4, 17977, 8908, 2, 912, 17977, 9444, 18864, 0, 0, 0], 0xf0c5c4536b5d9f92), // devices 2, threads 8, RoundRobin
    ([222, 480, 2, 17977, 9444, 4, 912, 17977, 9444, 37704, 1, 4, 18], 0xdfe754a2713ca30a), // devices 4, threads 1, SparsityAware
    ([222, 480, 2, 17977, 9444, 4, 912, 17977, 9444, 37704, 0, 0, 0], 0x4413c593517f68f3), // devices 4, threads 1, RoundRobin
    ([222, 480, 4, 17977, 8908, 4, 912, 17977, 9444, 37704, 1, 4, 18], 0x4d74cf7ea03753c4), // devices 4, threads 8, SparsityAware
    ([222, 480, 4, 17977, 8908, 4, 912, 17977, 9444, 37704, 0, 0, 0], 0x01d3bc92bffe1cee), // devices 4, threads 8, RoundRobin
];

fn cells() -> impl Iterator<Item = (usize, usize, PlacementPolicy)> {
    [1usize, 2, 4].into_iter().flat_map(|devices| {
        [1usize, 8].into_iter().flat_map(move |threads| {
            POLICIES
                .into_iter()
                .map(move |policy| (devices, threads, policy))
        })
    })
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

fn run(devices: usize, threads: usize, placement: PlacementPolicy) -> (ServingReport, String) {
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 23));
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg.dynamic_budget = Some(24);
    cfg.demote_after_chunks = Some(1);
    cfg.reuse_interval = 2;
    let reqs = requests();
    let single_max = reqs
        .iter()
        .map(|r| sequence_pages_estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let mut scfg = SchedulerConfig::new(single_max + single_max / 2);
    scfg.chunk_tokens = 8;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.prefix_cache = false;
    scfg.decode_threads = threads;
    scfg.devices = devices;
    scfg.placement = placement;
    scfg.preemption = PreemptionPolicy::Swap;
    scfg.migration = MigrationMode::Async;
    scfg.host_pages = 0;
    scfg.nvme = false;
    scfg.tracer = tracer.clone();
    let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(Arc::clone(&w), cfg)), scfg);
    for r in reqs {
        sched.submit(r);
    }
    let report = sched.run_to_completion(200_000);
    assert_eq!(report.completed.len(), 3, "rejected: {:?}", report.rejected);
    assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
    let (events, dropped) = tracer.drain();
    assert_eq!(dropped, 0, "the ring must hold the whole scene");
    (report, chrome_trace_json(&events, dropped).render())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn row(report: &ServingReport, trace: &str) -> Row {
    let p = &report.parallel;
    let fields = [
        p.phases,
        p.shards,
        p.workers as u64,
        p.cost_total,
        p.cost_critical,
        p.devices as u64,
        p.interconnect_tokens,
        p.device_cost_total,
        p.device_cost_critical,
        p.device_cost_capacity,
        report.rebalances,
        report.heads_migrated,
        report.rebalance_migration_tokens,
    ];
    (fields, fnv1a(trace.as_bytes()))
}

#[test]
fn the_attention_phase_reproduces_its_ledger_and_its_trace() {
    let mut outputs = None;
    let got: Vec<Row> = cells()
        .map(|(devices, threads, policy)| {
            let (report, trace) = run(devices, threads, policy);
            // Placement moves modeled cost, never arithmetic.
            let want = outputs.get_or_insert_with(|| report.completed.clone());
            assert_eq!(&report.completed, want, "outputs at {devices} devices");
            row(&report, &trace)
        })
        .collect();
    if got != LEDGER {
        let rows: Vec<String> = cells()
            .zip(&got)
            .zip(&LEDGER)
            .map(|(((devices, threads, policy), got), want)| {
                let moved: Vec<&str> = (0..FIELDS.len())
                    .filter(|&f| got.0[f] != want.0[f])
                    .map(|f| FIELDS[f])
                    .chain((got.1 != want.1).then_some("trace"))
                    .collect();
                format!(
                    "    ({:?}, {:#018x}), // devices {devices}, threads {threads}, {policy:?}{}",
                    got.0,
                    got.1,
                    if moved.is_empty() {
                        String::new()
                    } else {
                        format!(" * {}", moved.join(", "))
                    }
                )
            })
            .collect();
        panic!(
            "attention-phase ledger moved (rows marked *):\n{}",
            rows.join("\n")
        );
    }
}
