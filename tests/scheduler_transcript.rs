//! A transcript of the scheduler under random traffic, and an audit of what
//! its public API shows after every step.
//!
//! Seeded traffic drives the [`Scheduler`] through its public calls only:
//! `submit` (random SLO class, deadline, stop token and stop sequence,
//! session; now and then a duplicate id or an empty budget), `cancel` on any
//! handle at any step, `fork` of a running request into one to three branches
//! under a random join policy, and `step`; after the traffic it steps until
//! the queue and the batch are empty. It runs over {Replay, Swap} × {Sync,
//! Async} × {unbounded host, host 4 over nvme} × prefix cache {off, on} × 3
//! seeds, plus every setting scaled out at once — 8 attention threads, 4
//! devices, Swap, Async, host 8 over nvme — under both prefix settings and
//! the same seeds. Every drained event, every fork's outcome, every group's
//! join status and the `report_snapshot()` after every step fold into one
//! FNV-1a hash per row; `parallel.stolen` and the `busy_ns_*` fields are
//! wall-clock and stay out. [`TRANSCRIPT`] holds the hashes as the scheduler
//! produced them while `SchedulerConfig::new` still read its defaults from
//! the process environment, regenerated twice since. When selection-driven
//! demotion became the one path at a staleness of two chunks (this traffic
//! had run at one), every row moved, to what the code before that change
//! produced with the staleness forced to two. When running interactive
//! sequences began to hold lower-class feeds (the interactive shield of
//! `prefill_phase`), every row moved again: the traffic mixes the classes,
//! so some step of each row feeds a batch or best-effort prompt beside an
//! interactive sequence. When a first chunk began to reserve its exact
//! demand (`prefill_page_demand`) instead of relieving pressure down to an
//! estimate of it, 37 rows moved: in each, some first chunk had relieved
//! pressure past the pages it took (the estimate read 14 pages for a chunk
//! that takes 4), or had been run short, failed and been thrown away (2 of
//! the 37). When `FirstChunk` admission began to charge a prompt's whole
//! remaining feed plus the growth of the running feeds ranked ahead of it
//! (`Scheduler::feed_charge`), every row moved again: each row admits
//! prompts behind running feeds, and a prompt that would have been fed
//! beside them now waits in the queue. Summed over the rows, preemptions
//! went 424 → 284, demotions 4725 → 4449 and spills 1382 → 951. 53 rows
//! moved once more when that charge dropped its horizon (each feed ahead is
//! charged its whole remainder, not only its growth while the prompt feeds;
//! the same 53 move for this alone) and began to count as free the hot
//! pages of the running sequences the prompt outranks, which it may
//! preempt: 284 → 231 preemptions, 4449 → 4509 demotions, 951 → 977
//! spills. 50 rows moved when every page shortfall began to climb one
//! relief ladder (`Scheduler::relieve`), which spills a parked state that
//! holds hot pages before it preempts: decode with more than one sequence
//! running had preempted first, and admission had spilled only with nothing
//! running. A fork branch waits parked on its snapshot under either policy,
//! so Replay rows moved too. Summed: steps 3185 → 3034, work tokens
//! 20 791 → 21 353, preemptions 231 → 198, demotions 4509 → 4493, spills
//! 977 → 964, prefix hit tokens 1834 → 2028. Every
//! `SchedulerConfig` field
//! is set here, so no default reaches a row: a change that only moves
//! configuration reproduces every row, and a change that moves one has
//! changed what some call returns or books — say which, and why, in the
//! commit that edits the row.
//!
//! Beside its hash each row pins named [`Counts`] (steps, work tokens,
//! preemptions, pages moved, prefix hits, completions by finish reason,
//! TTFT), and so do the tight-pool rows below. A moved row prints each
//! moved field as `pinned → now`, and every run prints the fields summed
//! over the rows: what a commit that re-pins rows states.
//!
//! The same loop audits, after every step:
//!
//! * every handle's events arrive in lifecycle order: `Admitted` first,
//!   tokens only while running, `FirstToken` once and before any `Token`,
//!   `Resumed` only after `Preempted`, and exactly one terminal event, last;
//! * the streamed tokens equal the terminal event's payload (none before a
//!   rejection);
//! * no report counter decreases, and no report vector shrinks;
//! * `prefetch_hits + prefetch_wasted <= prefetch_issued`;
//!
//! and, once the run has drained and the prefix cache is flushed, that no
//! hot, cold or nvme page is still in use.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, BranchSpec, DagStats, EngineConfig, FinishReason,
    JoinPolicy, MigrationMode, ModelExecutor, ParallelExecStats, PlacementPolicy, PreemptionPolicy,
    RequestHandle, RequestSpec, RequestStatus, Scheduler, SchedulerConfig, ServingEvent,
    ServingReport, SloClass, SparsityOverride,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::Tracer;

const SEEDS: [u64; 3] = [1, 2, 3];
/// Steps during which traffic arrives; the run then drains.
const TRAFFIC_STEPS: usize = 40;
const MAX_SUBMITS: usize = 14;
const MAX_FORKS: usize = 3;
/// Tails the seeded model often emits, so that stop sequences end requests.
const STOP_SEQUENCES: [&[u32]; 4] = [&[4], &[58, 74], &[81, 84], &[21, 57]];
/// Steps the drain may take before the run counts as stuck.
const MAX_DRAIN_STEPS: usize = 10_000;

/// Everything a row varies.
#[derive(Debug, Clone, Copy)]
struct Setting {
    threads: usize,
    devices: usize,
    preemption: PreemptionPolicy,
    migration: MigrationMode,
    host_pages: usize,
    nvme: bool,
    prefix_cache: bool,
}

impl Setting {
    fn label(&self) -> String {
        let host = match (self.host_pages, self.nvme) {
            (0, _) => "unbounded host".to_string(),
            (n, true) => format!("host {n} over nvme"),
            (n, false) => format!("host {n}"),
        };
        let prefix = if self.prefix_cache { "on" } else { "off" };
        format!(
            "{} threads, {} devices, {:?}, {:?}, {host}, prefix {prefix}",
            self.threads, self.devices, self.preemption, self.migration
        )
    }
}

/// What every pinned row of this file names beside its hash, in [`Counts`]
/// order: the ledger, completions by finish reason, rejections, the median
/// (upper middle) and maximum TTFT in work tokens of the requests that
/// emitted a token, and the peak of hot pages.
const FIELDS: [&str; 15] = [
    "steps",
    "work tokens",
    "preemptions",
    "pages demoted",
    "pages promoted",
    "pages spilled",
    "prefix hit tokens",
    "length",
    "stop token",
    "stop sequence",
    "truncated",
    "rejections",
    "ttft p50",
    "ttft max",
    "peak pages",
];

/// A finished run's counts, named by [`FIELDS`].
type Counts = [u64; 15];

fn counts(sched: &Scheduler, r: &ServingReport) -> Counts {
    let finished = |reason| {
        let m = r.request_metrics.iter().filter(|m| m.finish == reason);
        m.count() as u64
    };
    let mut ttft: Vec<u64> = r
        .request_metrics
        .iter()
        .filter(|m| m.tokens > 0)
        .map(|m| m.ttft_work_tokens)
        .collect();
    ttft.sort_unstable();
    [
        r.scheduler_steps,
        sched.work_tokens(),
        r.preemptions,
        r.pages_demoted,
        r.pages_promoted,
        r.pages_spilled,
        r.prefix_hit_tokens,
        finished(FinishReason::Length),
        finished(FinishReason::StopToken),
        finished(FinishReason::StopSequence),
        finished(FinishReason::Truncated),
        r.rejections.len() as u64,
        ttft.get(ttft.len() / 2).copied().unwrap_or(0),
        ttft.last().copied().unwrap_or(0),
        r.peak_pages as u64,
    ]
}

/// `a` or, when it moved, `a → b`, after its field's name.
fn field(name: &str, a: u64, b: u64) -> String {
    if a == b {
        format!("{name} {a}")
    } else {
        format!("{name} {a} → {b}")
    }
}

/// What a pinned table says when it moved: each moved row's label with its
/// moved fields as `pinned → now`, then every field summed over the rows.
fn moved_counts(labels: &[String], pinned: &[Counts], got: &[Counts]) -> String {
    let mut lines = Vec::new();
    for ((label, a), b) in labels.iter().zip(pinned).zip(got) {
        let fields: Vec<String> = (0..FIELDS.len())
            .filter(|&f| a[f] != b[f])
            .map(|f| field(FIELDS[f], a[f], b[f]))
            .collect();
        if !fields.is_empty() {
            lines.push(format!("{label}: {}", fields.join(", ")));
        }
    }
    let sum = |rows: &[Counts], f: usize| rows.iter().map(|r| r[f]).sum::<u64>();
    let sums: Vec<String> = (0..FIELDS.len())
        .map(|f| field(FIELDS[f], sum(pinned, f), sum(got, f)))
        .collect();
    lines.push(format!(
        "summed over {} rows: {}",
        pinned.len(),
        sums.join(", ")
    ));
    lines.join("\n")
}

/// One row per `(setting, seed)`, in the order [`configurations`] yields:
/// its hash, then its [`Counts`].
#[rustfmt::skip]
const TRANSCRIPT: [(u64, Counts); 54] = [
    (0x30be8f65aa038e8d, [58, 402, 1, 34, 15, 0, 0, 15, 0, 1, 0, 0, 62, 274, 36]), // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix off, seed 1
    (0xa9a4786348de10d7, [55, 395, 2, 17, 9, 0, 0, 16, 0, 0, 0, 1, 114, 285, 36]), // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix off, seed 2
    (0x9b8c5e757034846d, [55, 393, 4, 24, 10, 0, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix off, seed 3
    (0xd651938a11266da5, [61, 437, 3, 10, 1, 0, 72, 16, 0, 1, 0, 0, 59, 333, 36]), // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix on, seed 1
    (0xc928655fb5ed49c1, [55, 371, 3, 9, 3, 0, 56, 16, 0, 0, 0, 1, 114, 258, 36]), // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix on, seed 2
    (0xaac1cd7485cf34b3, [59, 414, 5, 8, 2, 0, 99, 13, 1, 1, 0, 0, 68, 271, 36]), // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix on, seed 3
    (0x5aa06e171ff58a8b, [58, 402, 1, 34, 15, 5, 0, 15, 0, 1, 0, 0, 62, 274, 36]), // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix off, seed 1
    (0xfd701178699d7c42, [55, 395, 2, 17, 9, 3, 0, 16, 0, 0, 0, 1, 114, 285, 36]), // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix off, seed 2
    (0xc0b04a63ee4ac14c, [55, 393, 4, 24, 10, 2, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix off, seed 3
    (0xc37b581d7ea310ef, [60, 413, 3, 235, 12, 85, 96, 16, 0, 1, 0, 0, 59, 310, 36]), // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix on, seed 1
    (0xdcf844adacef4dc5, [51, 349, 4, 175, 25, 80, 80, 16, 0, 0, 0, 1, 114, 249, 36]), // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix on, seed 2
    (0xe186dfab2a997d23, [57, 377, 6, 224, 10, 66, 168, 13, 1, 1, 0, 0, 44, 226, 36]), // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix on, seed 3
    (0x76a31087c8a357ea, [58, 402, 1, 44, 22, 0, 0, 15, 0, 1, 0, 0, 62, 274, 36]), // 1 threads, 1 devices, Replay, Async, unbounded host, prefix off, seed 1
    (0x71d37e8f07540ef5, [55, 395, 2, 23, 12, 0, 0, 16, 0, 0, 0, 1, 114, 285, 36]), // 1 threads, 1 devices, Replay, Async, unbounded host, prefix off, seed 2
    (0x2e93b457d9c8ac91, [55, 393, 4, 28, 16, 0, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Replay, Async, unbounded host, prefix off, seed 3
    (0x13be24b231442ef8, [61, 437, 3, 11, 2, 0, 72, 16, 0, 1, 0, 0, 59, 333, 36]), // 1 threads, 1 devices, Replay, Async, unbounded host, prefix on, seed 1
    (0x0b894cff10f33b87, [55, 371, 3, 9, 1, 0, 56, 16, 0, 0, 0, 1, 114, 258, 36]), // 1 threads, 1 devices, Replay, Async, unbounded host, prefix on, seed 2
    (0x78cb7a2ab845232d, [59, 414, 5, 9, 4, 0, 99, 13, 1, 1, 0, 0, 68, 271, 36]), // 1 threads, 1 devices, Replay, Async, unbounded host, prefix on, seed 3
    (0x8bf3bec081e94cd0, [58, 402, 1, 44, 22, 5, 0, 15, 0, 1, 0, 0, 62, 274, 36]), // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix off, seed 1
    (0x430293e44d75c8c1, [55, 395, 2, 23, 12, 3, 0, 16, 0, 0, 0, 1, 114, 285, 36]), // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix off, seed 2
    (0x8807eb754729b53a, [55, 393, 4, 28, 16, 2, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix off, seed 3
    (0xc429ac64ccccee81, [60, 413, 3, 209, 5, 44, 96, 16, 0, 1, 0, 0, 59, 310, 36]), // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix on, seed 1
    (0xf45134d8a0d65992, [51, 331, 3, 136, 5, 17, 80, 16, 0, 0, 0, 1, 114, 246, 36]), // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix on, seed 2
    (0x8f031995574ce01e, [57, 377, 6, 199, 12, 23, 168, 13, 1, 1, 0, 0, 44, 226, 36]), // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix on, seed 3
    (0xf79d00b8c5804e30, [59, 397, 1, 38, 19, 0, 0, 15, 0, 1, 0, 0, 62, 270, 36]), // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix off, seed 1
    (0x39b1d071cbd91604, [51, 358, 2, 33, 25, 0, 0, 16, 0, 0, 0, 1, 114, 237, 36]), // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix off, seed 2
    (0x597213980b8e9874, [54, 370, 5, 62, 34, 0, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix off, seed 3
    (0xf053e7eb2da4d299, [61, 394, 2, 39, 29, 0, 40, 16, 0, 1, 0, 0, 59, 281, 36]), // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix on, seed 1
    (0x78bd9f0ba8638ea4, [51, 360, 5, 36, 31, 0, 0, 16, 0, 0, 0, 1, 114, 263, 36]), // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix on, seed 2
    (0xdb4bc253d0276c26, [54, 378, 10, 63, 52, 0, 128, 12, 1, 1, 0, 0, 60, 240, 36]), // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix on, seed 3
    (0xafcec6506b9a40ec, [59, 397, 1, 38, 19, 5, 0, 15, 0, 1, 0, 0, 62, 270, 36]), // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix off, seed 1
    (0x31a7b1bad21285f0, [51, 370, 2, 33, 25, 12, 0, 16, 0, 0, 0, 1, 114, 249, 36]), // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix off, seed 2
    (0xafa73af8b013c422, [54, 391, 5, 62, 34, 36, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix off, seed 3
    (0x0656988508195b63, [60, 408, 2, 226, 33, 96, 48, 16, 0, 1, 0, 0, 59, 295, 36]), // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix on, seed 1
    (0x8d65bfcffcdc2f59, [51, 369, 4, 215, 61, 140, 8, 16, 0, 0, 0, 1, 114, 264, 36]), // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix on, seed 2
    (0xf3abfb52ef796a28, [54, 440, 8, 285, 93, 133, 96, 13, 1, 1, 0, 0, 70, 264, 36]), // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix on, seed 3
    (0xe47e1ebb1d13154a, [59, 396, 1, 48, 26, 0, 0, 15, 0, 1, 0, 0, 62, 269, 36]), // 1 threads, 1 devices, Swap, Async, unbounded host, prefix off, seed 1
    (0x1cc23f5908724566, [52, 355, 2, 39, 28, 0, 0, 16, 0, 0, 0, 1, 114, 234, 36]), // 1 threads, 1 devices, Swap, Async, unbounded host, prefix off, seed 2
    (0x3e76e641d79d127e, [54, 367, 5, 66, 40, 0, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Swap, Async, unbounded host, prefix off, seed 3
    (0x16b651ff194cdd39, [61, 390, 2, 41, 17, 0, 40, 16, 0, 1, 0, 0, 59, 277, 36]), // 1 threads, 1 devices, Swap, Async, unbounded host, prefix on, seed 1
    (0xfd68b5beadc03fc6, [51, 355, 5, 36, 32, 0, 0, 16, 0, 0, 0, 1, 114, 259, 36]), // 1 threads, 1 devices, Swap, Async, unbounded host, prefix on, seed 2
    (0xfdebf4d99179993b, [54, 371, 10, 63, 27, 0, 128, 12, 1, 1, 0, 0, 60, 236, 36]), // 1 threads, 1 devices, Swap, Async, unbounded host, prefix on, seed 3
    (0xe815375c70407184, [59, 396, 1, 48, 26, 5, 0, 15, 0, 1, 0, 0, 62, 269, 36]), // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix off, seed 1
    (0x26230a4b3e18595c, [53, 379, 4, 35, 20, 0, 0, 16, 0, 0, 0, 1, 114, 256, 36]), // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix off, seed 2
    (0xe635f8b33156dc53, [55, 393, 4, 44, 16, 9, 0, 11, 1, 1, 0, 0, 68, 263, 36]), // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix off, seed 3
    (0xe0077e31107f1106, [61, 446, 4, 186, 1, 20, 56, 16, 0, 1, 0, 0, 59, 328, 36]), // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix on, seed 1
    (0xfce365f74f5c824a, [52, 365, 3, 144, 5, 17, 48, 16, 0, 0, 0, 1, 114, 279, 36]), // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix on, seed 2
    (0xbfcc62096c6bea72, [66, 480, 9, 224, 19, 39, 75, 13, 1, 1, 0, 0, 68, 331, 36]), // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix on, seed 3
    (0xf2ad97f526e318ab, [59, 460, 1, 48, 26, 0, 0, 15, 0, 1, 0, 0, 62, 321, 36]), // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix off, seed 1
    (0xbf5c385851ac99e0, [53, 400, 4, 47, 28, 0, 0, 16, 0, 0, 0, 1, 114, 263, 36]), // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix off, seed 2
    (0x9b82a7ced8f5c468, [54, 446, 5, 65, 40, 18, 0, 11, 1, 1, 0, 0, 68, 277, 36]), // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix off, seed 3
    (0xbd619fe0efc90085, [61, 446, 4, 223, 1, 28, 56, 16, 0, 1, 0, 0, 59, 328, 36]), // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix on, seed 1
    (0xbc06e1dff71868ef, [52, 368, 3, 183, 13, 36, 48, 16, 0, 0, 0, 1, 114, 292, 36]), // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix on, seed 2
    (0xef85e6b4afceba81, [61, 444, 9, 249, 32, 35, 115, 13, 1, 1, 0, 0, 68, 294, 36]), // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix on, seed 3
];

fn configurations() -> impl Iterator<Item = (Setting, u64)> {
    let mut settings = Vec::new();
    for preemption in [PreemptionPolicy::Replay, PreemptionPolicy::Swap] {
        for migration in [MigrationMode::Sync, MigrationMode::Async] {
            for (host_pages, nvme) in [(0, false), (4, true)] {
                for prefix_cache in [false, true] {
                    settings.push(Setting {
                        threads: 1,
                        devices: 1,
                        preemption,
                        migration,
                        host_pages,
                        nvme,
                        prefix_cache,
                    });
                }
            }
        }
    }
    for prefix_cache in [false, true] {
        settings.push(Setting {
            threads: 8,
            devices: 4,
            preemption: PreemptionPolicy::Swap,
            migration: MigrationMode::Async,
            host_pages: 8,
            nvme: true,
            prefix_cache,
        });
    }
    settings
        .into_iter()
        .flat_map(|s| SEEDS.into_iter().map(move |seed| (s, seed)))
}

/// splitmix64: seeded, dependency-free, the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn token(&mut self) -> u32 {
        self.below(90) as u32
    }

    fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.token()).collect()
    }
}

/// FNV-1a over bytes.
struct Hash(u64);

impl Hash {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// Where a handle's lifecycle stands, as its events have shown it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    Fresh,
    Running,
    Preempted,
    Ended,
}

/// What the audit knows of one handle.
struct Tracked {
    handle: RequestHandle,
    life: Life,
    first_token: bool,
    streamed: Vec<u32>,
}

impl Tracked {
    fn new(handle: RequestHandle) -> Self {
        Self {
            handle,
            life: Life::Fresh,
            first_token: false,
            streamed: Vec::new(),
        }
    }

    /// Moves the lifecycle on by `event`, or fails the audit.
    fn absorb(&mut self, event: &ServingEvent, at: &str) {
        use ServingEvent as E;
        let next = match (self.life, event) {
            (Life::Fresh, E::Admitted) | (Life::Preempted, E::Resumed) => Some(Life::Running),
            (Life::Running, E::FirstToken { token }) if !self.first_token => {
                self.first_token = true;
                self.streamed.push(*token);
                Some(Life::Running)
            }
            (Life::Running, E::Token { token }) if self.first_token => {
                self.streamed.push(*token);
                Some(Life::Running)
            }
            (Life::Running, E::Preempted { .. }) => Some(Life::Preempted),
            (Life::Running, E::Finished { tokens, .. })
            | (Life::Fresh | Life::Running | Life::Preempted, E::Cancelled { tokens }) => {
                assert_eq!(
                    &self.streamed,
                    tokens,
                    "{at}: request {} streamed other tokens than {event:?}",
                    self.handle.id()
                );
                Some(Life::Ended)
            }
            (Life::Fresh, E::Rejected { .. }) => Some(Life::Ended),
            _ => None,
        };
        self.life = next.unwrap_or_else(|| {
            panic!(
                "{at}: request {} got {event:?} while {:?}",
                self.handle.id(),
                self.life
            )
        });
    }
}

/// The report's vectors, whose lengths end [`counters`].
const VECTORS: usize = 5;

/// Every scalar of a report but the wall-clock ones, in declaration order —
/// none may decrease from one step to the next — then the lengths of its
/// [`VECTORS`] vectors, which only grow.
fn counters(r: &ServingReport) -> Vec<u64> {
    let ServingReport {
        completed,
        rejected,
        rejections,
        cancelled,
        scheduler_steps,
        decode_steps,
        peak_pages,
        preemptions,
        request_metrics,
        prefix_hit_tokens,
        prefix_recomputed_tokens,
        prefix_insertions,
        prefix_evictions,
        decode_threads,
        preemption,
        pages_demoted,
        pages_promoted,
        swap_resume_work_tokens,
        peak_cold_pages,
        peak_nvme_pages,
        pages_spilled,
        pages_recalled,
        prefix_spills,
        host_pages,
        nvme,
        migration,
        prefetch_issued,
        prefetch_hits,
        prefetch_wasted,
        hidden_transfer_tokens,
        migration_stall_tokens,
        peak_running,
        running_seq_steps,
        parallel,
        devices,
        rebalances,
        heads_migrated,
        rebalance_migration_tokens,
        dag,
    } = r;
    let ParallelExecStats {
        workers,
        phases,
        shards,
        stolen: _,
        busy_ns_total: _,
        busy_ns_critical: _,
        busy_ns_capacity: _,
        cost_total,
        cost_critical,
        devices: placed_devices,
        interconnect_tokens,
        device_cost_critical,
        device_cost_capacity,
    } = parallel;
    let DagStats {
        forks,
        branches_spawned,
        joins,
        branch_cancels,
    } = dag;
    let n = |v: usize| v as u64;
    vec![
        *scheduler_steps,
        *decode_steps,
        n(*peak_pages),
        *preemptions,
        // This slot held a count of steps that failed part-way, which no
        // step can now; keeping the slot keeps every row's hash.
        0,
        *prefix_hit_tokens,
        *prefix_recomputed_tokens,
        *prefix_insertions,
        *prefix_evictions,
        n(*decode_threads),
        *preemption as u64,
        *pages_demoted,
        *pages_promoted,
        *swap_resume_work_tokens,
        n(*peak_cold_pages),
        n(*peak_nvme_pages),
        *pages_spilled,
        *pages_recalled,
        *prefix_spills,
        n(*host_pages),
        u64::from(*nvme),
        *migration as u64,
        *prefetch_issued,
        *prefetch_hits,
        *prefetch_wasted,
        *hidden_transfer_tokens,
        *migration_stall_tokens,
        n(*peak_running),
        *running_seq_steps,
        n(*workers),
        *phases,
        *shards,
        *cost_total,
        *cost_critical,
        n(*placed_devices),
        *interconnect_tokens,
        // Twice: this slot held a device-level copy that always equalled
        // it, and keeping the slot keeps every row's hash.
        *cost_total,
        *device_cost_critical,
        *device_cost_capacity,
        n(*devices),
        *rebalances,
        *heads_migrated,
        *rebalance_migration_tokens,
        *forks,
        *branches_spawned,
        *joins,
        *branch_cancels,
        n(completed.len()),
        n(rejected.len()),
        n(rejections.len()),
        n(cancelled.len()),
        n(request_metrics.len()),
    ]
}

/// The seeded traffic, the handles it holds, and the hash of what it saw.
struct Traffic {
    sched: Scheduler,
    rng: Rng,
    hash: Hash,
    tracked: Vec<Tracked>,
    groups: Vec<u64>,
    next_id: u64,
    submits: usize,
    forks: usize,
    /// The previous step's [`counters`].
    counters: Vec<u64>,
}

impl Traffic {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// A prompt that half the time opens with one of two shared 16-token
    /// prefixes, so the prefix cache has something to hit.
    fn prompt(&mut self) -> Vec<u32> {
        let mut prompt = Vec::new();
        if self.rng.below(2) == 0 {
            let k = self.rng.below(2);
            prompt.extend((0..16).map(|t| ((t * 5 + k * 11) % 90) as u32));
        }
        let n = 1 + self.rng.below(16);
        prompt.extend(self.rng.tokens(n));
        prompt
    }

    fn submit(&mut self) {
        let id = if self.rng.below(12) == 0 && !self.tracked.is_empty() {
            self.tracked[self.rng.below(self.tracked.len())].handle.id()
        } else {
            self.fresh_id()
        };
        let budget = if self.rng.below(15) == 0 {
            0
        } else {
            1 + self.rng.below(10)
        };
        let class = [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort];
        let mut spec = RequestSpec::new(id, self.prompt())
            .max_new_tokens(budget)
            .class(class[self.rng.below(3)]);
        if self.rng.below(2) == 0 {
            spec = spec.deadline_work_tokens(self.rng.below(4000) as u64);
        }
        if self.rng.below(4) == 0 {
            spec = spec.stop_token(self.rng.token());
        }
        if self.rng.below(3) == 0 {
            let stop = STOP_SEQUENCES[self.rng.below(STOP_SEQUENCES.len())];
            spec = spec.stop_sequence(stop.to_vec());
        }
        if self.rng.below(4) == 0 {
            spec = spec.session(self.rng.below(2) as u64);
        }
        self.hash.debug(&spec);
        self.submits += 1;
        let handle = self.sched.submit(spec);
        self.tracked.push(Tracked::new(handle));
    }

    /// Forks a running request, or — when none is running — asks for a fork
    /// of an unknown id, which the scheduler refuses.
    fn fork(&mut self) {
        let running: Vec<u64> = self
            .tracked
            .iter()
            .map(|t| t.handle.id())
            .filter(|&id| self.sched.status(id) == Some(RequestStatus::Running))
            .collect();
        let parent = if running.is_empty() {
            self.next_id + 1
        } else {
            running[self.rng.below(running.len())]
        };
        let policies = [
            JoinPolicy::FirstFinished,
            JoinPolicy::All,
            JoinPolicy::BestScore,
        ];
        let policy = policies[self.rng.below(3)];
        let mut branches = Vec::new();
        for _ in 0..1 + self.rng.below(3) {
            let id = self.fresh_id();
            let suffix = self.rng.below(4);
            let mut b = BranchSpec::new(id, self.rng.tokens(suffix))
                .max_new_tokens(1 + self.rng.below(8))
                .score_bias(self.rng.below(5) as i64);
            if self.rng.below(3) == 0 {
                b = b.sparsity(SparsityOverride::none().with_budget(8));
            }
            if self.rng.below(4) == 0 {
                b = b.stop_token(self.rng.token());
            }
            branches.push(b);
        }
        self.hash.word(parent);
        self.hash.debug(&(policy, &branches));
        self.forks += 1;
        match self.sched.fork(parent, policy, &branches) {
            Ok(out) => {
                self.hash.word(out.group);
                self.groups.push(out.group);
                self.tracked
                    .extend(out.handles.into_iter().map(Tracked::new));
            }
            Err(e) => self.hash.debug(&e),
        }
    }

    /// Up to two random calls before a step.
    fn traffic(&mut self) {
        for _ in 0..self.rng.below(3) {
            let op = self.rng.below(10);
            self.hash.word(op as u64);
            match op {
                0..=5 if self.submits < MAX_SUBMITS => self.submit(),
                6 if !self.tracked.is_empty() => {
                    let i = self.rng.below(self.tracked.len());
                    self.hash.word(i as u64);
                    self.tracked[i].handle.cancel();
                }
                7 | 8 if self.forks < MAX_FORKS => self.fork(),
                _ => {}
            }
        }
    }

    /// Folds what the step produced into the hash and audits it.
    fn observe_and_audit(&mut self, at: &str) {
        for (i, t) in self.tracked.iter_mut().enumerate() {
            for event in t.handle.drain_events() {
                self.hash.word(i as u64);
                self.hash.debug(&event);
                t.absorb(&event, at);
            }
        }
        for &group in &self.groups {
            self.hash.debug(&self.sched.join_status(group));
        }
        let r = self.sched.report_snapshot();
        let now = counters(&r);
        if let Some(f) = (0..now.len()).find(|&f| now[f] < self.counters[f]) {
            panic!(
                "{at}: report counter {f} fell from {} to {}",
                self.counters[f], now[f]
            );
        }
        assert!(
            r.prefetch_hits + r.prefetch_wasted <= r.prefetch_issued,
            "{at}: {} hits + {} wasted of {} prefetches",
            r.prefetch_hits,
            r.prefetch_wasted,
            r.prefetch_issued
        );
        for &w in &now {
            self.hash.word(w);
        }
        // The vectors only grow: what a step adds is their tail.
        let seen = |k: usize| self.counters[self.counters.len() - VECTORS + k] as usize;
        let tails = [
            format!("{:?}", &r.completed[seen(0)..]),
            format!("{:?}", &r.rejected[seen(1)..]),
            format!("{:?}", &r.rejections[seen(2)..]),
            format!("{:?}", &r.cancelled[seen(3)..]),
            format!("{:?}", &r.request_metrics[seen(4)..]),
        ];
        for tail in tails {
            self.hash.bytes(tail.as_bytes());
        }
        for w in [
            self.sched.queued(),
            self.sched.running(),
            self.sched.pool_in_use(),
            self.sched.pool_cold_in_use(),
            self.sched.pool_nvme_in_use(),
        ] {
            self.hash.word(w as u64);
        }
        self.counters = now;
    }
}

/// Small pages, a selection budget that fires at toy lengths, and
/// selection-driven demotion, so the tiers and the copy engine see traffic
/// even without preemption.
fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg.dynamic_budget = Some(24);
    cfg.reuse_interval = 2;
    cfg
}

/// A row's hash and [`Counts`], and its final report for the coverage check.
fn run(w: &Arc<ModelWeights>, s: Setting, seed: u64) -> (u64, Counts, ServingReport) {
    let cfg = engine_cfg();
    let one = sequence_pages_estimate(&cfg, &w.config, 48);
    let scfg = SchedulerConfig {
        pool_pages: one * 3 / 2,
        chunk_tokens: 8,
        max_batch: 4,
        admission: AdmissionPolicy::FirstChunk,
        prefix_cache: s.prefix_cache,
        decode_threads: s.threads,
        devices: s.devices,
        placement: PlacementPolicy::SparsityAware,
        rebalance_interval: 4,
        rebalance_threshold: 1.5,
        preemption: s.preemption,
        migration: s.migration,
        host_pages: s.host_pages,
        nvme: s.nvme,
        class_aware: true,
        no_deadline_slack: 512,
        tracer: Tracer::disabled(),
    };
    let exec = Arc::new(ModelExecutor::new(Arc::clone(w), cfg));
    let mut t = Traffic {
        sched: Scheduler::new(exec, scfg),
        rng: Rng(seed),
        hash: Hash(0xCBF2_9CE4_8422_2325),
        tracked: Vec::new(),
        groups: Vec::new(),
        next_id: 0,
        submits: 0,
        forks: 0,
        counters: counters(&ServingReport::default()),
    };
    let row = format!("{}, seed {seed}", s.label());
    for step in 0..TRAFFIC_STEPS {
        t.traffic();
        t.sched.step();
        t.observe_and_audit(&format!("{row} step {step}"));
    }
    let mut drain = 0;
    while t.sched.queued() + t.sched.running() > 0 {
        assert!(drain < MAX_DRAIN_STEPS, "{row}: the drain is stuck");
        t.sched.step();
        t.observe_and_audit(&format!("{row} drain step {drain}"));
        drain += 1;
    }
    for tracked in &t.tracked {
        assert_eq!(
            tracked.life,
            Life::Ended,
            "{row}: request {} never ended",
            tracked.handle.id()
        );
    }
    t.sched.flush_prefix_cache();
    let pages = [
        t.sched.pool_in_use(),
        t.sched.pool_cold_in_use(),
        t.sched.pool_nvme_in_use(),
    ];
    assert_eq!(pages, [0; 3], "{row}: hot, cold, nvme pages leaked");
    let r = t.sched.report_snapshot();
    (t.hash.0, counts(&t.sched, &r), r)
}

#[test]
fn random_serving_traffic_reproduces_the_transcript_and_audits_clean() {
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 29));
    // The rows share nothing, so two threads take half of them each.
    let settings: Vec<(Setting, u64)> = configurations().collect();
    let (first, second) = settings.split_at(settings.len() / 2);
    let run_each = |rows: &[(Setting, u64)]| -> Vec<(u64, Counts, ServingReport)> {
        rows.iter().map(|&(s, seed)| run(&w, s, seed)).collect()
    };
    let rows = std::thread::scope(|scope| {
        let second = scope.spawn(|| run_each(second));
        let mut rows = run_each(first);
        rows.extend(second.join().expect("a row failed its audit"));
        rows
    });
    // The traffic reaches what the transcript claims to pin.
    let total = |f: &dyn Fn(&ServingReport) -> u64| rows.iter().map(|(_, _, r)| f(r)).sum::<u64>();
    let finished = |reason| {
        total(&|r| {
            let m = r.request_metrics.iter().filter(|m| m.finish == reason);
            m.count() as u64
        })
    };
    for (what, n) in [
        ("preemptions", total(&|r| r.preemptions)),
        ("demotions", total(&|r| r.pages_demoted)),
        ("spills", total(&|r| r.pages_spilled)),
        ("prefetches", total(&|r| r.prefetch_issued)),
        ("prefix hits", total(&|r| r.prefix_hit_tokens)),
        ("forks", total(&|r| r.dag.forks)),
        ("joins", total(&|r| r.dag.joins)),
        ("branch cancels", total(&|r| r.dag.branch_cancels)),
        ("cancels", total(&|r| r.cancelled.len() as u64)),
        ("rejections", total(&|r| r.rejections.len() as u64)),
        ("rebalances", total(&|r| r.rebalances)),
        ("stop tokens", finished(FinishReason::StopToken)),
        ("stop sequences", finished(FinishReason::StopSequence)),
    ] {
        println!("{what}: {n}");
        assert!(n > 0, "no row saw any {what}");
    }
    let got: Vec<(u64, Counts)> = rows.iter().map(|&(h, c, _)| (h, c)).collect();
    let labels: Vec<String> = configurations()
        .map(|(s, seed)| format!("{}, seed {seed}", s.label()))
        .collect();
    let pinned: Vec<Counts> = TRANSCRIPT.iter().map(|&(_, c)| c).collect();
    let now: Vec<Counts> = got.iter().map(|&(_, c)| c).collect();
    println!("{}", moved_counts(&labels, &pinned, &now));
    if got != TRANSCRIPT {
        let rows: Vec<String> = labels
            .iter()
            .zip(&got)
            .zip(&TRANSCRIPT)
            .map(|((label, got), want)| {
                let mark = if got == want { ' ' } else { '*' };
                format!("  {mark} ({:#018x}, {:?}), // {label}", got.0, got.1)
            })
            .collect();
        panic!(
            "scheduler transcript moved (rows marked *):\n{}\n{}",
            rows.join("\n"),
            moved_counts(&labels, &pinned, &now)
        );
    }
}

/// Pool sizes of [`tight_pool_row`]'s scene around one, 32 pages, where a
/// first chunk ran short of pages and was thrown away five times under
/// Swap while the scheduler ran a first chunk on an estimate of its pages.
const TIGHT_POOLS: [usize; 3] = [30, 32, 34];

/// The [`Counts`] per `(pool, preemption)` of [`tight_pool_rows`]. Pinned
/// while a first chunk ran on an estimate; once it reserved its exact
/// demand, the two Swap rows at 32 and 34 pages took one preemption fewer
/// (4 → 3 and 5 → 4): relief had preempted a sequence for pages the chunk
/// did not take. Once admission charged a prompt's whole feed and the
/// growth of the feeds ahead of it, every row moved: later arrivals wait in
/// the queue while the prompts ahead of them feed, instead of being fed
/// beside them and preempted, so preemptions went 7 / 4 / 9 / 3 / 6 / 4 →
/// 1 / 2 / 0 / 0 / 1 / 1 and the Replay rows' work tokens 386 / 400 / 368 →
/// 288 / 264 / 280, for up to six more steps (23 → 29 at 34 pages, Replay).
/// When that charge dropped its horizon (a feed ahead is charged its whole
/// remainder, not its growth while the later prompt feeds), the rows at 30
/// and 34 pages moved: 33 / 288 / 1 → 34 / 323 / 2 and 30 / 268 / 2 →
/// 34 / 266 / 1 at 30 pages, 29 / 280 / 1 → 29 / 264 / 0 and
/// 29 / 265 / 1 → 29 / 264 / 0 at 34 (steps / work tokens / preemptions).
#[rustfmt::skip]
const TIGHT_ROWS: [Counts; 6] = [
    [34, 323, 2, 62, 34, 0, 0, 6, 0, 0, 0, 0, 150, 252, 27], // pool 30, Replay
    [34, 266, 1, 75, 48, 0, 0, 6, 0, 0, 0, 0, 150, 195, 27], // pool 30, Swap
    [29, 264, 0, 60, 33, 0, 0, 6, 0, 0, 0, 0, 161, 193, 29], // pool 32, Replay
    [29, 264, 0, 60, 33, 0, 0, 6, 0, 0, 0, 0, 161, 193, 29], // pool 32, Swap
    [29, 264, 0, 60, 33, 0, 0, 6, 0, 0, 0, 0, 152, 193, 29], // pool 34, Replay
    [29, 264, 0, 60, 33, 0, 0, 6, 0, 0, 0, 0, 152, 193, 29], // pool 34, Swap
];

fn tight_pool_rows() -> impl Iterator<Item = (usize, PreemptionPolicy)> {
    TIGHT_POOLS
        .into_iter()
        .flat_map(|pool| [PreemptionPolicy::Replay, PreemptionPolicy::Swap].map(|p| (pool, p)))
}

/// Six batch requests arriving over five steps into a pool of `pool_pages`,
/// fed 16 tokens a step, the first two long enough to feed for several
/// steps. A late arrival is admitted on the pool it sees before the step's
/// feeds and is ranked below every feed that runs before its first chunk,
/// so that chunk can find the pool short with nothing ranked below it to
/// preempt. (Admission charges the late arrival for those feeds' growth
/// too, so that happens less often than when the rows were first pinned.)
fn tight_pool_row(pool_pages: usize, preemption: PreemptionPolicy) -> Counts {
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 29));
    let scfg = SchedulerConfig {
        pool_pages,
        chunk_tokens: 16,
        max_batch: 4,
        admission: AdmissionPolicy::FirstChunk,
        prefix_cache: false,
        decode_threads: 1,
        devices: 1,
        placement: PlacementPolicy::SparsityAware,
        rebalance_interval: 4,
        rebalance_threshold: 1.5,
        preemption,
        migration: MigrationMode::Sync,
        host_pages: 0,
        nvme: false,
        class_aware: true,
        no_deadline_slack: 512,
        tracer: Tracer::disabled(),
    };
    let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, engine_cfg())), scfg);
    // (step, prompt length) per request.
    let arrivals = [(0, 64), (0, 56), (1, 20), (2, 30), (3, 24), (5, 40)];
    for step in 0..10_000 {
        for (id, &(at, len)) in arrivals.iter().enumerate() {
            if at == step {
                let prompt = (0..len).map(|t| ((t * 13 + id * 7) % 90) as u32).collect();
                sched.submit(RequestSpec::new(id as u64, prompt).max_new_tokens(6));
            }
        }
        if step > 5 && sched.queued() + sched.running() == 0 {
            break;
        }
        sched.step();
    }
    counts(&sched, &sched.report_snapshot())
}

#[test]
fn tight_pools_reproduce_the_first_chunk_rows() {
    let got: Vec<Counts> = tight_pool_rows()
        .map(|(p, s)| tight_pool_row(p, s))
        .collect();
    if got != TIGHT_ROWS {
        let labels: Vec<String> = tight_pool_rows()
            .map(|(pool, s)| format!("pool {pool}, {s:?}"))
            .collect();
        let rows: Vec<String> = labels
            .iter()
            .zip(&got)
            .map(|(label, row)| format!("    {row:?}, // {label}"))
            .collect();
        panic!(
            "tight-pool rows moved:\n{}\n{}",
            rows.join("\n"),
            moved_counts(&labels, &TIGHT_ROWS, &got)
        );
    }
}
