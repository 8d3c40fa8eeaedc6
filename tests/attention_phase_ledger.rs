//! The modeled half of the sharded-attention phase, pinned: for one fixed
//! scene, the deterministic fields of `ParallelExecStats`, the rebalancer's
//! counters and the bytes of the rendered Chrome trace, over {1, 2, 4
//! devices} × {1, 8 threads} × {sparsity-aware, round-robin placement}.
//!
//! The scene is `proptest_topology`'s
//! `device_matrix_preserves_outputs_and_charges_interconnect`: three chunked
//! prompts under swap preemption, async migration and selection-driven
//! demotion, so fused prefill phases, continuation runs and batched decode
//! rounds all occur.
//!
//! [`LEDGER`] holds what the code produced *before* the attention phase's two
//! worker pools and two placement paths became one. A change that only
//! regroups that code reproduces every row. The rows were regenerated once
//! since, when selection-driven demotion became the one path at a staleness
//! of two chunks (this scene had run at one): each equals what the code
//! before that change produced with the staleness forced to two, digit for
//! digit, and the row recycling and rebuild changes beside it moved none.
//! They moved again when `FirstChunk` admission began to charge a prompt's
//! whole feed and the growth of the feeds ahead of it: the third prompt now
//! starts once the first two have finished (step 11 of 22), which leaves the
//! phases and shards as they were and moves the modeled costs (`cost_total`
//! 17 058 → 17 053 on one device) and the traces. `stolen` and every `busy_ns_*`
//! are wall-clock and stay out; the trace lays its worker lanes from the
//! modeled LPT schedule, never the measured one, so its bytes are in.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor,
    PlacementPolicy, PreemptionPolicy, RequestSpec, Scheduler, SchedulerConfig, ServingReport,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::{chrome_trace_json, Tracer, DEFAULT_RING_CAPACITY};

const POLICIES: [PlacementPolicy; 2] =
    [PlacementPolicy::SparsityAware, PlacementPolicy::RoundRobin];

/// The pinned fields of one cell, in [`FIELDS`] order, then the FNV-1a hash
/// of its Chrome trace.
type Row = ([u64; 12], u64);

const FIELDS: [&str; 12] = [
    "phases",
    "shards",
    "workers",
    "cost_total",
    "cost_critical",
    "devices",
    "interconnect_tokens",
    "device_cost_critical",
    "device_cost_capacity",
    "rebalances",
    "heads_migrated",
    "rebalance_migration_tokens",
];

/// One row per `(devices, threads, policy)`, in the order [`cells`] yields.
#[rustfmt::skip]
const LEDGER: [Row; 12] = [
    ([222, 480, 1, 17053, 17053, 1, 0, 17053, 17053, 0, 0, 0], 0xe37c1ab6ced1eafd), // devices 1, threads 1, SparsityAware
    ([222, 480, 1, 17053, 17053, 1, 0, 17053, 17053, 0, 0, 0], 0xe37c1ab6ced1eafd), // devices 1, threads 1, RoundRobin
    ([222, 480, 4, 17053, 8047, 1, 0, 17053, 17053, 0, 0, 0], 0xe3e811dd6043a0e1), // devices 1, threads 8, SparsityAware
    ([222, 480, 4, 17053, 8047, 1, 0, 17053, 17053, 0, 0, 0], 0xe3e811dd6043a0e1), // devices 1, threads 8, RoundRobin
    ([222, 480, 2, 17965, 9445, 2, 912, 9445, 18866, 0, 0, 0], 0x8de5d1f9c800f61b), // devices 2, threads 1, SparsityAware
    ([222, 480, 2, 17965, 9445, 2, 912, 9445, 18866, 0, 0, 0], 0x8de5d1f9c800f61b), // devices 2, threads 1, RoundRobin
    ([222, 480, 4, 17965, 8906, 2, 912, 9445, 18866, 0, 0, 0], 0x87443fbfc923f041), // devices 2, threads 8, SparsityAware
    ([222, 480, 4, 17965, 8906, 2, 912, 9445, 18866, 0, 0, 0], 0x87443fbfc923f041), // devices 2, threads 8, RoundRobin
    ([222, 480, 2, 17965, 9445, 4, 912, 9445, 37708, 1, 4, 17], 0xf4f7549f61b428c2), // devices 4, threads 1, SparsityAware
    ([222, 480, 2, 17965, 9445, 4, 912, 9445, 37708, 0, 0, 0], 0x3bfd86519d3ec58f), // devices 4, threads 1, RoundRobin
    ([222, 480, 4, 17965, 8906, 4, 912, 9445, 37708, 1, 4, 17], 0xa6162da52a44fe3f), // devices 4, threads 8, SparsityAware
    ([222, 480, 4, 17965, 8906, 4, 912, 9445, 37708, 0, 0, 0], 0xbef8f45601c337e5), // devices 4, threads 8, RoundRobin
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
