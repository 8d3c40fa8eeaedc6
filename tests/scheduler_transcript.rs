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
//! spills. Every
//! `SchedulerConfig` field
//! is set here, so no default reaches a row: a change that only moves
//! configuration reproduces every row, and a change that moves one has
//! changed what some call returns or books — say which, and why, in the
//! commit that edits the row.
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

/// One hash per `(setting, seed)`, in the order [`configurations`] yields.
const TRANSCRIPT: [u64; 54] = [
    0xa46a3cd302185a3b, // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix off, seed 1
    0x46e0e05998167fbf, // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix off, seed 2
    0x9b8c5e757034846d, // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix off, seed 3
    0x3c0045208a46b3e8, // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix on, seed 1
    0x073940231deb75c1, // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix on, seed 2
    0xdc663a6e4b3e00cc, // 1 threads, 1 devices, Replay, Sync, unbounded host, prefix on, seed 3
    0xe7695ecabac3256d, // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix off, seed 1
    0xe89bc49f3451b422, // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix off, seed 2
    0xc0b04a63ee4ac14c, // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix off, seed 3
    0xdac87e6c5977b19b, // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix on, seed 1
    0xe762f4e1d8180f52, // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix on, seed 2
    0xefe5c3d3509c4f8e, // 1 threads, 1 devices, Replay, Sync, host 4 over nvme, prefix on, seed 3
    0xb8736cdfa4841d59, // 1 threads, 1 devices, Replay, Async, unbounded host, prefix off, seed 1
    0xb5b74783b94ced71, // 1 threads, 1 devices, Replay, Async, unbounded host, prefix off, seed 2
    0x2e93b457d9c8ac91, // 1 threads, 1 devices, Replay, Async, unbounded host, prefix off, seed 3
    0xd7fe15a7102a02cc, // 1 threads, 1 devices, Replay, Async, unbounded host, prefix on, seed 1
    0xcadbde816c7755ee, // 1 threads, 1 devices, Replay, Async, unbounded host, prefix on, seed 2
    0x37887cd12fd53a8f, // 1 threads, 1 devices, Replay, Async, unbounded host, prefix on, seed 3
    0x167bb27a8fba64a3, // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix off, seed 1
    0xec576c1c58a2f031, // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix off, seed 2
    0x8807eb754729b53a, // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix off, seed 3
    0xe505f0c0893e5145, // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix on, seed 1
    0xd7eeb7f9b89623c3, // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix on, seed 2
    0x1db74442ae4f83d0, // 1 threads, 1 devices, Replay, Async, host 4 over nvme, prefix on, seed 3
    0x64a4ca3857e7e3ab, // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix off, seed 1
    0xc2082994291fe28a, // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix off, seed 2
    0x50b854aeb34e91b1, // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix off, seed 3
    0x07de8d87fb9d7e2e, // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix on, seed 1
    0xecf27c3fbaccd315, // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix on, seed 2
    0x5645ce45851df3d5, // 1 threads, 1 devices, Swap, Sync, unbounded host, prefix on, seed 3
    0xb9c97e4f545680d5, // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix off, seed 1
    0x6c8e79e7e937487f, // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix off, seed 2
    0x8d76ffa081fcb4d3, // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix off, seed 3
    0xa7aa5141f5d346f7, // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix on, seed 1
    0x7fda0b64c6606d86, // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix on, seed 2
    0xe9b2b0a23dabf4a0, // 1 threads, 1 devices, Swap, Sync, host 4 over nvme, prefix on, seed 3
    0x657f707db3e206cf, // 1 threads, 1 devices, Swap, Async, unbounded host, prefix off, seed 1
    0xa08ef2a02ae516e9, // 1 threads, 1 devices, Swap, Async, unbounded host, prefix off, seed 2
    0x2a5c68ff4f2dfc5d, // 1 threads, 1 devices, Swap, Async, unbounded host, prefix off, seed 3
    0x2667138eee05180a, // 1 threads, 1 devices, Swap, Async, unbounded host, prefix on, seed 1
    0x263d9ed49fdc5ee1, // 1 threads, 1 devices, Swap, Async, unbounded host, prefix on, seed 2
    0xaf790ccd45217c18, // 1 threads, 1 devices, Swap, Async, unbounded host, prefix on, seed 3
    0xe41866bb344921ad, // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix off, seed 1
    0xabcb1c1e218f12b6, // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix off, seed 2
    0x97619e4f74bf0b84, // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix off, seed 3
    0xc19076517ed3638a, // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix on, seed 1
    0xf51c29185a65e682, // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix on, seed 2
    0x7429ed612adcc5f3, // 1 threads, 1 devices, Swap, Async, host 4 over nvme, prefix on, seed 3
    0x0934865ff6352060, // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix off, seed 1
    0xb6c2b6bc5422ef4b, // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix off, seed 2
    0xb891442e665c36f1, // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix off, seed 3
    0x5a767f3777969bc5, // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix on, seed 1
    0x08ea94378199505c, // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix on, seed 2
    0xe0feff9fbe14f951, // 8 threads, 4 devices, Swap, Async, host 8 over nvme, prefix on, seed 3
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

/// The final report of a row, for the coverage check.
fn run(w: &Arc<ModelWeights>, s: Setting, seed: u64) -> (u64, ServingReport) {
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
    (t.hash.0, t.sched.report_snapshot())
}

#[test]
fn random_serving_traffic_reproduces_the_transcript_and_audits_clean() {
    let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 29));
    // The rows share nothing, so two threads take half of them each.
    let settings: Vec<(Setting, u64)> = configurations().collect();
    let (first, second) = settings.split_at(settings.len() / 2);
    let run_each = |rows: &[(Setting, u64)]| -> Vec<(u64, ServingReport)> {
        rows.iter().map(|&(s, seed)| run(&w, s, seed)).collect()
    };
    let rows = std::thread::scope(|scope| {
        let second = scope.spawn(|| run_each(second));
        let mut rows = run_each(first);
        rows.extend(second.join().expect("a row failed its audit"));
        rows
    });
    // The traffic reaches what the transcript claims to pin.
    let total = |f: &dyn Fn(&ServingReport) -> u64| rows.iter().map(|(_, r)| f(r)).sum::<u64>();
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
    let got: Vec<u64> = rows.iter().map(|(h, _)| *h).collect();
    if got != TRANSCRIPT {
        let rows: Vec<String> = configurations()
            .zip(&got)
            .zip(&TRANSCRIPT)
            .map(|(((s, seed), got), want)| {
                let mark = if got == want { ' ' } else { '*' };
                format!("  {mark} {got:#018x}, // {}, seed {seed}", s.label())
            })
            .collect();
        panic!(
            "scheduler transcript moved (rows marked *):\n{}",
            rows.join("\n")
        );
    }
}

/// Pool sizes of [`tight_pool_row`]'s scene around one, 32 pages, where a
/// first chunk ran short of pages and was thrown away five times under
/// Swap while the scheduler ran a first chunk on an estimate of its pages.
const TIGHT_POOLS: [usize; 3] = [30, 32, 34];

/// Per `(pool, preemption)` of [`tight_pool_rows`]: steps, work tokens,
/// preemptions, completions, rejections and the peak of hot pages. Pinned
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
const TIGHT_ROWS: [[u64; 6]; 6] = [
    [34, 323, 2, 6, 0, 27], // pool 30, Replay
    [34, 266, 1, 6, 0, 27], // pool 30, Swap
    [29, 264, 0, 6, 0, 29], // pool 32, Replay
    [29, 264, 0, 6, 0, 29], // pool 32, Swap
    [29, 264, 0, 6, 0, 29], // pool 34, Replay
    [29, 264, 0, 6, 0, 29], // pool 34, Swap
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
fn tight_pool_row(pool_pages: usize, preemption: PreemptionPolicy) -> [u64; 6] {
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
    let r = sched.report_snapshot();
    [
        r.scheduler_steps,
        sched.work_tokens(),
        r.preemptions,
        r.completed.len() as u64,
        r.rejected.len() as u64,
        r.peak_pages as u64,
    ]
}

#[test]
fn tight_pools_reproduce_the_first_chunk_rows() {
    let got: Vec<[u64; 6]> = tight_pool_rows()
        .map(|(p, s)| tight_pool_row(p, s))
        .collect();
    if got != TIGHT_ROWS {
        let rows: Vec<String> = tight_pool_rows()
            .zip(&got)
            .map(|((pool, s), row)| format!("    {row:?}, // pool {pool}, {s:?}"))
            .collect();
        panic!("tight-pool rows moved:\n{}", rows.join("\n"));
    }
}
