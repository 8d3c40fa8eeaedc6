//! Continuous-batching serving layer: streamed request lifecycles over a shared
//! page pool, chunked prefill, SLO-class scheduling, preemption, batched decode.
//!
//! The paper's efficiency results are measured inside serving systems (vLLM,
//! QServe) whose scheduler interleaves many sequences over one device memory, and
//! its headline metrics — TTFT and per-token decode latency — are *interactive*
//! metrics. This module reproduces that control plane at small scale around the
//! executor/state split, fronted by the request-handle API of [`crate::api`].
//! [`Scheduler::step`] runs its state machines in order, one file each:
//! `cancel` → `admit` → `prefill` → `decode` (which call on `donate`,
//! `preempt` and `spill` under pool pressure), with `fork` beside them and the
//! report assembled from the ledgers when [`Scheduler::report_snapshot`] asks.
//! What the pieces add up to:
//!
//! * **Request handles with a streamed event lifecycle**: callers build a
//!   [`RequestSpec`] (SLO class, optional work-token deadline, stop conditions,
//!   optional multi-turn session) and [`Scheduler::submit`] returns a
//!   [`RequestHandle`] whose drainable event queue yields [`ServingEvent`]s —
//!   `Admitted`, `FirstToken`, `Token`, `Preempted`, `Resumed`, `Finished`,
//!   `Cancelled`, `Rejected` — as [`Scheduler::step`] produces them. Std-only,
//!   no async runtime: events cross an `Arc<Mutex<VecDeque>>`, the same
//!   discipline as the scoped-thread executor. Handles support
//!   [`RequestHandle::cancel`]: pages are released at the next step boundary,
//!   the completed prefix is donated to the prefix cache, and survivors'
//!   outputs remain bit-identical to solo runs.
//! * **Class- and cost-aware scheduling**: admission ordering and preemption
//!   victim selection consult the [`crate::SloClass`] (`Interactive` beats `Batch`
//!   beats `BestEffort`), the request's virtual deadline (EDF within a class,
//!   in work tokens; requests without a deadline age via
//!   [`SchedulerConfig::no_deadline_slack`], so nothing starves within its
//!   class), and — under [`crate::PreemptionPolicy::Swap`] — the per-victim swap cost
//!   (fewest sole-owned hot pages). While an interactive sequence runs,
//!   lower-class sequences feed no prompt tokens until their virtual
//!   deadline passes (the interactive shield), so interactive decode steps
//!   carry no batch prefill chunk.
//! * **Iteration-level continuous batching** (Orca): every scheduler iteration
//!   advances all running sequences by one token through the executor's
//!   row-feeding body, which walks layers in the outer loop with the batch's
//!   tokens stacked as rows, so each layer's weights are read once per batch.
//! * **Chunked prefill**: long prompts are admitted immediately and fed in bounded
//!   chunks interleaved with decode iterations, so one long prompt no longer
//!   head-of-line-blocks the whole batch. The first
//!   `min(chunk_tokens, prompt_len)` tokens go through the fused tile prefill;
//!   the rest go through the decode path in runs of up to a KV page of
//!   consecutive tokens, stacked as the rows of one matrix per layer. Each row
//!   is computed exactly as a one-token decode step at its position would
//!   compute it, which makes the numerics independent of how the scheduler
//!   slices the remainder across iterations and runs.
//! * **Preemption and resume**: page demand is computed *exactly* before every
//!   decode iteration ([`SequenceState::pages_needed_for_next_token`]); when
//!   demand exceeds the free pool, a cost- and class-chosen victim releases (or
//!   swap-parks) its pages and re-queues. On re-admission it re-feeds its prompt
//!   *plus* the tokens it had already generated through the identical
//!   deterministic pipeline (or promotes its swapped pages), which reconstructs a
//!   bit-identical cache — so preemption never changes the tokens a request
//!   produces.
//! * **Cross-request prefix caching** (opt-in via
//!   [`SchedulerConfig::prefix_cache`]): prompts are matched against a radix tree
//!   of previously computed prefixes ([`lserve_prefixcache::PrefixCache`]). A hit
//!   seeds the new sequence with the cached pages (refcount-shared, copy-on-write
//!   on append) and only the prompt suffix is prefilled. Sequences donate anchors
//!   into the tree on every prefill-grid boundary and donate their full
//!   conversation on completion *or cancellation*, and the tree's LRU entries are
//!   evicted before any running sequence is preempted. Prefix stability rests on
//!   the *fixed prefill tile grid* (see [`tile_grid_boundary`]).
//! * **Multi-turn sessions**: a [`RequestSpec::session`] id makes the new turn's
//!   prompt extend the session's recorded conversation (prior prompt + output),
//!   so with the prefix cache enabled a follow-up turn starts from the donated
//!   pages of the previous one.
//! * **Sparsity-aware parallel decode** ([`SchedulerConfig::decode_threads`],
//!   default 1): every prefill/decode attention
//!   phase runs as *(sequence × KV-head)* shards, LPT-balanced by the per-head
//!   sparsity cost across a scoped-thread worker pool with work stealing.
//!
//! The determinism guarantee that falls out: for any request set — including
//! arbitrary cancellations and stop-condition terminations — every surviving
//! request's greedy outputs are token-identical to running it alone on a fresh
//! pool under the same [`SchedulerConfig`], with or without the prefix cache,
//! across chunk sizes, pool pressures, KV precisions, preemption policies, and
//! decode worker-thread counts.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use lserve_kvcache::{PagePool, TierConfig};
use lserve_prefixcache::{PrefixCache, PrefixCacheStats};
use lserve_trace::lane;

use crate::api::{
    RejectReason, RequestHandle, RequestSpec, RequestStatus, SchedulerConfig, ServingEvent,
};
use crate::dag::DagStore;
use crate::executor::{ModelExecutor, SequenceState};
use crate::prefix::CachedPrefix;
use crate::report::ServingReport;
use crate::sharding::{ShardingPlan, Topology, DEFAULT_GATHER_COST_TOKENS};

mod admit;
mod cancel;
mod decode;
mod donate;
mod fork;
mod preempt;
mod prefill;
mod spill;
mod test_support;

pub(crate) use admit::pages_estimate;
pub use admit::sequence_pages_estimate;
pub use prefill::tile_grid_boundary;

/// Metrics bookkeeping that survives a request's whole lifetime, moved as one
/// unit between the queued and running representations (including across
/// preemption cycles).
#[derive(Debug, Clone, Copy)]
struct RequestProgress {
    submit_iter: u64,
    submit_work: u64,
    /// `(scheduler iteration, work clock)` at the first streamed token.
    first_token: Option<(u64, u64)>,
    last_token_iter: u64,
    preemptions: u32,
    cached_tokens: usize,
    /// Whether the request has ever entered the running batch — decides
    /// between the `Admitted` and `Resumed` events at (re-)admission.
    ever_admitted: bool,
    /// Trace-clock tick at which the request's current lifecycle phase began
    /// (queued at submit/preempt, running at admit/resume). Pure trace
    /// bookkeeping: it closes the retrospective `queued`/`running` spans and
    /// never feeds a scheduling decision.
    trace_mark: u64,
}

/// The scheduling rank of a request: strict priority by class, earliest
/// virtual deadline within a class, FCFS arrival as the final tiebreak. Lower
/// orders first. With [`SchedulerConfig::class_aware`] off, class and
/// deadline collapse to zero and the key degenerates to pure arrival order
/// (class-blind FCFS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SloKey {
    class: u8,
    vdeadline: u64,
    arrival: u64,
}

/// The identity-and-policy core of a request, shared by its queued and running
/// representations.
#[derive(Debug)]
struct SeqCore {
    spec: RequestSpec,
    /// Session-resolved effective prompt (the session's conversation followed
    /// by this turn's tokens; equal to `spec.prompt` without a session).
    prompt: Vec<u32>,
    /// Monotone submission counter — the unique identity used for re-location
    /// and FCFS tiebreaks.
    arrival: u64,
    /// Scheduling rank (see [`SloKey`]).
    key: SloKey,
    /// The caller's event stream.
    handle: RequestHandle,
    /// For a fork branch: tokens already absorbed into the CoW-shared
    /// snapshot at fork time (0 for ordinary requests). Admission charges the
    /// branch's page demand *incrementally* — the shared prefix is already
    /// paid for by the parent — but only while the snapshot is parked; once a
    /// spill drops it to a replay, the demand is genuinely the full estimate.
    fork_base_tokens: usize,
}

/// Where a sequence's feed stands: its full executor state (page tables
/// pointing at hot, cold or shared pages, selector history, position
/// counters) plus the bookkeeping needed to continue exactly from it. A
/// running sequence advances one; a swap-preempted sequence's — and a fork
/// branch's CoW snapshot of its parent's — waits parked in the queue. Every
/// executor call runs on a reservation, so a state is never half-written.
#[derive(Debug)]
struct Feed {
    state: SequenceState,
    /// Feed tokens (prompt + resume_feed) consumed so far.
    fed: usize,
    /// Tokens generated before the last replay preemption, re-fed after the
    /// prompt so the cache is reconstructed exactly (frozen at preemption
    /// time, so `feed_token` stays stable while `generated` keeps growing).
    resume_feed: Vec<u32>,
    /// Most recently emitted token, not yet consumed by a decode step.
    last_token: Option<u32>,
}

/// A request waiting for (re-)admission; carries generation progress across
/// preemptions.
#[derive(Debug)]
struct QueuedSeq {
    core: SeqCore,
    /// Tokens already generated (and emitted) before a preemption.
    generated: Vec<u32>,
    progress: RequestProgress,
    /// Present when the sequence was swapped out instead of released: admission
    /// promotes its cold pages back and resumes without any re-feeding.
    swap: Option<Feed>,
}

/// A running sequence: where its feed stands plus generation progress.
#[derive(Debug)]
struct SchedSeq {
    core: SeqCore,
    feed: Feed,
    /// All tokens emitted for this request (including pre-preemption ones).
    generated: Vec<u32>,
    progress: RequestProgress,
}

impl SchedSeq {
    fn feed_len(&self) -> usize {
        self.core.prompt.len() + self.feed.resume_feed.len()
    }

    fn feed_token(&self, i: usize) -> u32 {
        if i < self.core.prompt.len() {
            self.core.prompt[i]
        } else {
            self.feed.resume_feed[i - self.core.prompt.len()]
        }
    }
}

/// Where a known request id currently lives — the O(1) backing of
/// [`Scheduler::status`] (indices point into the report's `completed` /
/// `cancelled` vectors, which only ever grow).
#[derive(Debug, Clone, Copy)]
enum Phase {
    Queued,
    Running,
    Finished(usize),
    Cancelled(usize),
    Rejected,
}

/// Continuous-batching scheduler over one shared page pool.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use lserve_core::{
///     EngineConfig, ModelExecutor, RequestSpec, Scheduler, SchedulerConfig, ServingEvent,
///     SloClass,
/// };
/// use lserve_model::{ModelConfig, ModelWeights};
///
/// let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 3));
/// let exec = Arc::new(ModelExecutor::new(weights, EngineConfig::lserve_fp16()));
/// let mut scfg = SchedulerConfig::new(2048);
/// scfg.chunk_tokens = 4; // prompts longer than 4 tokens prefill across iterations
/// let mut sched = Scheduler::new(exec, scfg);
/// let handle = sched.submit(
///     RequestSpec::new(1, (0..16).collect())
///         .max_new_tokens(4)
///         .class(SloClass::Interactive),
/// );
/// while !handle.is_terminal() {
///     sched.step();
/// }
/// let events = handle.drain_events();
/// assert_eq!(events.first(), Some(&ServingEvent::Admitted));
/// assert!(matches!(events.last(), Some(ServingEvent::Finished { tokens, .. }) if tokens.len() == 4));
/// ```
#[derive(Debug)]
pub struct Scheduler {
    exec: Arc<ModelExecutor>,
    scfg: SchedulerConfig,
    pool: PagePool,
    queue: VecDeque<QueuedSeq>,
    running: Vec<SchedSeq>,
    /// The counters only the scheduler keeps; the fields a ledger elsewhere
    /// owns stay at their defaults here and are filled in by
    /// [`Scheduler::report_snapshot`].
    report: ServingReport,
    next_arrival: u64,
    /// Monotone clock: tokens pushed through the forward pass across all
    /// sequences (tile prefill, prompt-continuation feed, and decode), plus
    /// the modeled transfer work of swap-resume promotions.
    work_tokens: u64,
    /// Cross-request KV prefix cache (unused unless `scfg.prefix_cache`).
    prefix: PrefixCache<CachedPrefix>,
    /// id → lifecycle phase, the O(1) index behind [`Scheduler::status`] and
    /// the duplicate-id check.
    index: HashMap<u64, Phase>,
    /// session id → recorded conversation (effective prompt + output of the
    /// session's last *completed* turn; in-flight turns are invisible here —
    /// the sequential-turns contract of [`RequestSpec::session`]).
    sessions: HashMap<u64, Vec<u32>>,
    /// Multi-device placement state: per-layer head → device assignments plus
    /// the load history the periodic rebalancer acts on. Persistent across
    /// steps by design — placement must be sticky for head migration to mean
    /// anything.
    plan: ShardingPlan,
    /// The request-DAG branch graph: fork groups, join policies, and
    /// parent→child edges for cascade-cancel.
    dag: DagStore,
}

impl Scheduler {
    /// Creates a scheduler over `exec` with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `scfg` is inconsistent (see [`SchedulerConfig::validate`]).
    pub fn new(exec: Arc<ModelExecutor>, scfg: SchedulerConfig) -> Self {
        if let Err(error) = scfg.validate() {
            panic!("{error}");
        }
        let mut pool = PagePool::new_with_tiers(
            exec.config().paging,
            scfg.pool_pages,
            exec.weights().config.head_dim,
            scfg.migration,
            TierConfig {
                host_pages: scfg.host_pages,
                nvme: scfg.nvme,
            },
        );
        // One shared handle: the pool emission sites (copy engine, prefetch)
        // and the executor (which reaches the tracer through the pool) record
        // into the same ring as the scheduler's lifecycle events.
        pool.set_tracer(scfg.tracer.clone());
        let report = ServingReport {
            decode_threads: scfg.decode_threads,
            preemption: scfg.preemption,
            migration: scfg.migration,
            devices: scfg.devices,
            host_pages: scfg.host_pages,
            nvme: scfg.nvme,
            ..ServingReport::default()
        };
        let model = &exec.weights().config;
        let mut plan = ShardingPlan::new(
            Topology::symmetric(scfg.devices, DEFAULT_GATHER_COST_TOKENS),
            scfg.placement,
            model.num_layers,
            model.num_kv_heads,
        );
        plan.rebalance_interval = scfg.rebalance_interval;
        plan.rebalance_threshold = scfg.rebalance_threshold;
        Self {
            exec,
            scfg,
            pool,
            queue: VecDeque::new(),
            running: Vec::new(),
            report,
            next_arrival: 0,
            work_tokens: 0,
            prefix: PrefixCache::new(),
            index: HashMap::new(),
            sessions: HashMap::new(),
            plan,
            dag: DagStore::new(),
        }
    }

    /// An instant on request `id`'s track of the scheduler lane.
    fn note(&self, name: &'static str, id: u64, args: &[(&'static str, u64)]) {
        self.scfg
            .tracer
            .instant(name, "scheduler", lane::SCHEDULER, id, args);
    }

    /// Closes the `queued` / `running` span request `id` opened at `since`.
    fn close_phase(&self, name: &'static str, id: u64, since: u64, args: &[(&'static str, u64)]) {
        self.scfg
            .tracer
            .span(name, "scheduler", lane::SCHEDULER, id, since, args);
    }

    /// The shared executor.
    pub fn executor(&self) -> &Arc<ModelExecutor> {
        &self.exec
    }

    /// The scheduling policy.
    pub fn config(&self) -> &SchedulerConfig {
        &self.scfg
    }

    /// The scheduling rank of a spec at the current work clock: strict
    /// priority by class, EDF within a class over `submit work + deadline`
    /// (no-deadline requests age in after `no_deadline_slack`), FCFS arrival
    /// as the tiebreak. With `class_aware` off everything collapses to
    /// arrival order.
    fn slo_key(&self, spec: &RequestSpec, arrival: u64) -> SloKey {
        if !self.scfg.class_aware {
            return SloKey {
                class: 0,
                vdeadline: 0,
                arrival,
            };
        }
        let slack = spec
            .deadline_work_tokens
            .unwrap_or(self.scfg.no_deadline_slack);
        SloKey {
            class: spec.class.rank(),
            vdeadline: self.work_tokens.saturating_add(slack),
            arrival,
        }
    }

    /// Submits a request and returns its lifecycle handle. The queue is
    /// ordered by scheduling rank (class, then virtual deadline, then
    /// arrival), so an interactive or tight-deadline request enters ahead of
    /// queued batch traffic. A spec whose id the scheduler already knows is
    /// rejected immediately with [`RejectReason::DuplicateId`] (the earlier
    /// request is untouched), and a degenerate one (see
    /// [`RejectReason::Invalid`]) with `Invalid`.
    pub fn submit(&mut self, spec: RequestSpec) -> RequestHandle {
        if self.index.contains_key(&spec.id) {
            return self.reject_at_submit(spec.id, RejectReason::DuplicateId);
        }
        let history = spec.session.and_then(|sid| self.sessions.get(&sid));
        let mut prompt = history.cloned().unwrap_or_default();
        prompt.extend_from_slice(&spec.prompt);
        // Degenerate specs are rejected here, before they consume an arrival
        // slot — an empty (resolved) prompt has nothing to prefill, a token
        // outside the vocabulary has no embedding (the step that fed it would
        // panic, taking every other request down with it), a zero decode
        // budget has nothing to generate, and a streaming-window override
        // past position 0 can never be honoured (a streaming head's table
        // takes its window at sequence creation).
        if prompt.is_empty()
            || !self.in_vocabulary(&prompt)
            || spec.max_new_tokens == 0
            || spec.sparsity.has_late_window_override()
        {
            self.index.insert(spec.id, Phase::Rejected);
            self.report.rejected.push(spec.id);
            return self.reject_at_submit(spec.id, RejectReason::Invalid);
        }
        self.note(
            "submit",
            spec.id,
            &[
                ("prompt", prompt.len() as u64),
                ("class", u64::from(spec.class.rank())),
            ],
        );
        self.enqueue_new(spec, prompt, None)
    }

    /// Whether every token of `tokens` has an embedding in the model.
    fn in_vocabulary(&self, tokens: &[u32]) -> bool {
        let vocab = self.exec.weights().config.vocab;
        tokens.iter().all(|&t| (t as usize) < vocab)
    }

    /// A rejection made before the request owned a queue slot: the terminal
    /// event on a handle of its own, and the reasons vector.
    fn reject_at_submit(&mut self, id: u64, reason: RejectReason) -> RequestHandle {
        let handle = RequestHandle::new(id);
        handle.push(ServingEvent::Rejected { reason });
        self.report.rejections.push((id, reason));
        handle
    }

    /// Enters a new request into the queue at its rank and returns its
    /// handle: a fresh submission, or (`parked`) a fork branch that continues
    /// from a CoW snapshot of its parent.
    fn enqueue_new(
        &mut self,
        spec: RequestSpec,
        prompt: Vec<u32>,
        parked: Option<Feed>,
    ) -> RequestHandle {
        let handle = RequestHandle::new(spec.id);
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        let key = self.slo_key(&spec, arrival);
        self.index.insert(spec.id, Phase::Queued);
        self.enqueue(QueuedSeq {
            core: SeqCore {
                spec,
                prompt,
                arrival,
                key,
                handle: handle.clone(),
                fork_base_tokens: parked.as_ref().map_or(0, |p| p.fed),
            },
            generated: Vec::new(),
            swap: parked,
            progress: RequestProgress {
                submit_iter: self.report.scheduler_steps,
                submit_work: self.work_tokens,
                first_token: None,
                last_token_iter: 0,
                preemptions: 0,
                cached_tokens: 0,
                ever_admitted: false,
                trace_mark: self.scfg.tracer.now(),
            },
        });
        handle
    }

    /// The monotone work clock: tokens pushed through the forward pass across
    /// all sequences plus modeled swap-resume transfer work — the denominator
    /// of every work-normalized metric, exposed for cost comparisons (e.g.
    /// speculative fork-out vs. solo runs).
    pub fn work_tokens(&self) -> u64 {
        self.work_tokens
    }

    /// Requests waiting for admission (fresh or preempted).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently prefilling or decoding.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Hot (device) pages currently in use in the shared pool.
    pub fn pool_in_use(&self) -> usize {
        self.pool.in_use()
    }

    /// Cold (host) pages currently in use in the shared pool — swapped-out
    /// victims and selection-demoted stale context.
    pub fn pool_cold_in_use(&self) -> usize {
        self.pool.cold_in_use()
    }

    /// Nvme-tier pages currently in use in the shared pool (always 0 without
    /// the modeled nvme tier).
    pub fn pool_nvme_in_use(&self) -> usize {
        self.pool.nvme_in_use()
    }

    /// The report so far (unsorted), assembled now: the scheduler's own
    /// counters plus the pool's tier ledger, the copy engine's prefetch and
    /// hidden/unhidden split, the prefix cache's hit and insert counters
    /// (evictions stay scheduler-side: pressure evictions only, not flushes),
    /// the placement plan's rebalance ledger and the branch graph's
    /// fork/join/cancel counters, each as it stands at the call — so the
    /// report cannot drift from `PagePool::tier_stats` /
    /// `PagePool::migration_stats` / [`Scheduler::prefix_cache_stats`].
    pub fn report_snapshot(&self) -> ServingReport {
        let tier = self.pool.tier_stats();
        let mig = self.pool.migration_stats();
        let prefix = self.prefix.stats();
        ServingReport {
            peak_pages: self.pool.peak_in_use(),
            pages_demoted: tier.pages_demoted,
            pages_promoted: tier.pages_promoted,
            pages_spilled: tier.pages_spilled,
            pages_recalled: tier.pages_recalled,
            prefetch_issued: mig.prefetch_issued,
            prefetch_hits: mig.prefetch_hits,
            prefetch_wasted: mig.prefetch_wasted,
            hidden_transfer_tokens: mig.hidden_transfer_tokens(),
            migration_stall_tokens: mig.migration_stall_tokens(),
            prefix_hit_tokens: prefix.hit_tokens,
            prefix_insertions: prefix.insertions,
            rebalances: self.plan.stats.rebalances,
            heads_migrated: self.plan.stats.heads_migrated,
            rebalance_migration_tokens: self.plan.stats.migration_cost_tokens,
            dag: self.dag.stats(),
            ..self.report.clone()
        }
    }

    /// Prefixes currently cached in the radix tree.
    pub fn prefix_cache_entries(&self) -> usize {
        self.prefix.entries()
    }

    /// Page references the prefix cache currently holds (shared pages counted
    /// once per referencing entry; the physical footprint is bounded by
    /// `pool_in_use`).
    pub fn prefix_cached_page_refs(&self) -> usize {
        self.prefix.page_refs()
    }

    /// Lifetime hit/miss/eviction counters of the prefix cache.
    pub fn prefix_cache_stats(&self) -> PrefixCacheStats {
        self.prefix.stats()
    }

    /// Evicts every cached prefix, returning its pages to the pool (pages shared
    /// with running sequences survive until those release them). After a run has
    /// drained, `pool_in_use` returns to zero once this is called.
    pub fn flush_prefix_cache(&mut self) {
        self.prefix.clear(&mut self.pool);
    }

    /// Lifecycle state of request `id`, or `None` for an unknown id — an O(1)
    /// index lookup. A preempted request reports [`RequestStatus::Queued`]
    /// until it is re-admitted. Duplicate submissions never enter the index
    /// (they are rejected at submit time), so every id maps to exactly one
    /// lifecycle.
    pub fn status(&self, id: u64) -> Option<RequestStatus> {
        Some(match *self.index.get(&id)? {
            Phase::Queued => RequestStatus::Queued,
            Phase::Running => RequestStatus::Running,
            Phase::Finished(i) => RequestStatus::Finished(self.report.completed[i].1.clone()),
            Phase::Cancelled(i) => RequestStatus::Cancelled(self.report.cancelled[i].1.clone()),
            Phase::Rejected => RequestStatus::Rejected,
        })
    }

    /// One scheduler iteration: apply pending cancellations, admit, feed
    /// prompt chunks, reserve decode pages (preempting on pressure), then
    /// advance every ready sequence by one decode step (continuous batching).
    pub fn step(&mut self) {
        self.report.scheduler_steps += 1;
        let now = self.report.scheduler_steps;
        let step_start = self.scfg.tracer.now();
        self.apply_cancellations();
        self.admit();
        self.report.peak_running = self.report.peak_running.max(self.running.len());
        self.report.running_seq_steps += self.running.len() as u64;
        self.prefill_phase(now);
        self.decode_phase(now);
        self.rebalance_phase();
        if self.scfg.tracer.is_enabled() {
            let tracer = &self.scfg.tracer;
            tracer.span(
                "step",
                "scheduler",
                lane::SCHEDULER,
                lserve_trace::CONTROL_TID,
                step_start,
                &[("iter", now)],
            );
            // Counter tracks: pool residency and batch occupancy, sampled at
            // every step boundary — Perfetto renders these as area charts
            // above the lanes.
            tracer.counter(
                "pages",
                lane::SCHEDULER,
                &[
                    ("hot", self.pool.in_use() as u64),
                    ("cold", self.pool.cold_in_use() as u64),
                    ("nvme", self.pool.nvme_in_use() as u64),
                ],
            );
            tracer.counter(
                "sequences",
                lane::SCHEDULER,
                &[
                    ("running", self.running.len() as u64),
                    ("queued", self.queue.len() as u64),
                ],
            );
        }
        // Sampled at the step boundary: the pool keeps no high-water mark
        // below the hot tier.
        self.report.peak_cold_pages = self.report.peak_cold_pages.max(self.pool.cold_in_use());
        self.report.peak_nvme_pages = self.report.peak_nvme_pages.max(self.pool.nvme_in_use());
    }

    /// Checks the multi-device placement for staleness and, when the
    /// rebalancer fires, charges the head migration's interconnect cost into
    /// the work clock (the copy engine's token-unit price over the mesh
    /// link) and traces it on the copy lane. A single-device plan only ticks
    /// its step clock, so runs with and without devices stay comparable.
    fn rebalance_phase(&mut self) {
        let running = &self.running;
        let pool = &self.pool;
        let outcome = self.plan.maybe_rebalance(|l, kv| {
            running
                .iter()
                .map(|s| s.feed.state.kv_head_resident_tokens(pool, l, kv))
                .sum()
        });
        if let Some(o) = outcome {
            self.work_tokens += o.cost_tokens;
            if self.scfg.tracer.is_enabled() {
                let tracer = &self.scfg.tracer;
                let start = tracer.now();
                tracer.advance(o.cost_tokens);
                tracer.span(
                    "rebalance.migrate",
                    "copy",
                    lane::COPY,
                    1,
                    start,
                    &[
                        ("heads", o.heads_migrated),
                        ("token_units", o.token_units),
                        ("cost", o.cost_tokens),
                    ],
                );
            }
        }
    }

    /// Runs until every request completes or `max_steps` scheduler iterations
    /// pass. Returns the report (sorted by request id).
    pub fn run_to_completion(&mut self, max_steps: u64) -> ServingReport {
        let mut steps = 0;
        while (!self.queue.is_empty() || !self.running.is_empty()) && steps < max_steps {
            self.step();
            steps += 1;
        }
        let mut report = self.report_snapshot();
        report.completed.sort_by_key(|(id, _)| *id);
        report.rejected.sort_unstable();
        report.rejections.sort_by_key(|(id, _)| *id);
        report.cancelled.sort_by_key(|(id, _)| *id);
        report.request_metrics.sort_by_key(|m| m.id);
        report
    }

    /// Terminal rejection bookkeeping for a request that owned a queue/running
    /// slot: the event, the status index, and both report vectors move
    /// together. (Duplicate-id rejections at submit time deliberately bypass
    /// this — they never owned a slot, so only the handle event and the
    /// reasons vector apply there.)
    fn finish_rejected(&mut self, core: SeqCore, reason: RejectReason) {
        self.note("reject", core.spec.id, &[]);
        core.handle.push(ServingEvent::Rejected { reason });
        self.index.insert(core.spec.id, Phase::Rejected);
        self.report.rejected.push(core.spec.id);
        self.report.rejections.push((core.spec.id, reason));
    }

    /// Inserts a request into the queue, keeping it sorted by scheduling rank
    /// ([`SloKey`]: class, virtual deadline, arrival). Fresh submissions and
    /// preempted requeues share this path, so admission order always reflects
    /// the SLO policy while within-class FCFS survives preemption.
    fn enqueue(&mut self, q: QueuedSeq) {
        let pos = self
            .queue
            .iter()
            .position(|other| other.core.key > q.core.key)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, q);
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn single_request_completes() {
        let mut srv = fcfs(weights(), EngineConfig::lserve_fp16(), 2048);
        srv.submit(request(1, 8, 5));
        let r = srv.run_to_completion(1000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].1.len(), 5);
        assert!(r.rejected.is_empty());
        assert_eq!(srv.pool_in_use(), 0, "all pages returned");
    }

    #[test]
    fn serving_output_matches_standalone_executor() {
        let w = weights();
        let mut srv = fcfs(Arc::clone(&w), EngineConfig::dense(), 4096);
        srv.submit(request(1, 6, 6));
        let r = srv.run_to_completion(1000);
        let cfg = EngineConfig::dense();
        let mut pool = cfg.make_pool_for(&w.config, 64);
        let exec = ModelExecutor::new(w, cfg);
        let prompt = request(1, 6, 6).prompt;
        let want = exec
            .generate(&mut exec.new_sequence(), &mut pool, &prompt, 6)
            .unwrap();
        assert_eq!(r.completed[0].1, want);
    }

    #[test]
    fn batch_of_requests_all_complete() {
        let mut srv = fcfs(weights(), EngineConfig::lserve_fp16(), 8192);
        for id in 0..6 {
            srv.submit(request(id, 6 + id as usize, 4));
        }
        let r = srv.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 6);
        let ids: Vec<u64> = r.completed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn status_tracks_request_lifecycle() {
        // 24 pages: request 1 (est. 14 pages) fits, request 2 (est. 32) never can.
        let mut srv = fcfs(weights(), EngineConfig::lserve_fp16(), 24);
        assert_eq!(srv.status(1), None);
        srv.submit(request(1, 4, 20));
        srv.submit(request(2, 600, 4)); // can never fit: rejected at admission
        assert_eq!(srv.status(1), Some(RequestStatus::Queued));
        srv.step();
        assert_eq!(srv.status(1), Some(RequestStatus::Running));
        assert_eq!(srv.status(2), Some(RequestStatus::Rejected));
        let r = srv.run_to_completion(1000);
        match srv.status(1) {
            Some(RequestStatus::Finished(tokens)) => {
                assert_eq!(tokens.len(), 20);
                assert_eq!(tokens, r.completed[0].1);
            }
            other => panic!("expected finished, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_specs_rejected_at_submit_not_stuck() {
        let mut srv = fcfs(weights(), EngineConfig::lserve_fp16(), 2048);
        let h_empty = srv.submit(request(1, 0, 3)); // empty prompt
        srv.submit(request(2, 4, 3));
        let h_zero = srv.submit(request(3, 4, 0)); // nothing to generate
                                                   // Degenerate specs are rejected synchronously at submit...
        assert_eq!(
            h_empty.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::Invalid
            }]
        );
        assert_eq!(
            h_zero.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::Invalid
            }]
        );
        // ...and their ids are burned like any other known id.
        assert!(matches!(srv.status(1), Some(RequestStatus::Rejected)));
        let r = srv.run_to_completion(1000);
        assert_eq!(r.rejected, vec![1, 3]);
        assert_eq!(
            r.rejections,
            vec![(1, RejectReason::Invalid), (3, RejectReason::Invalid)]
        );
        assert_eq!(r.completed.len(), 1);
        assert!(r.scheduler_steps < 100, "must not spin to the step cap");
    }

    #[test]
    fn a_prompt_token_outside_the_vocabulary_is_rejected_at_submit() {
        let mut srv = fcfs(weights(), EngineConfig::lserve_fp16(), 2048);
        let vocab = srv.executor().weights().config.vocab as u32;
        srv.submit(request(1, 4, 3));
        let h = srv.submit(RequestSpec::new(2, vec![1, vocab]).max_new_tokens(3));
        assert_eq!(
            h.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::Invalid
            }]
        );
        // No step embeds it, so its neighbour runs to the end.
        let r = srv.run_to_completion(1000);
        assert_eq!(r.rejections, vec![(2, RejectReason::Invalid)]);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(srv.pool_in_use(), 0);
    }

    #[test]
    fn continuous_batching_interleaves() {
        let mut srv = fcfs(weights(), EngineConfig::lserve_fp16(), 8192);
        srv.submit(request(1, 4, 10));
        srv.submit(request(2, 4, 10));
        srv.step();
        assert_eq!(srv.running(), 2, "both admitted in one step");
    }

    #[test]
    fn handle_streams_events_in_lifecycle_order() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let handle = sched.submit(request(1, 20, 5));
        assert_eq!(handle.id(), 1);
        assert!(!handle.is_terminal());
        let mut events = Vec::new();
        while !handle.is_terminal() {
            sched.step();
            events.extend(handle.drain_events());
        }
        events.extend(handle.drain_events());
        assert_eq!(events.first(), Some(&ServingEvent::Admitted));
        let streamed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ServingEvent::FirstToken { token } | ServingEvent::Token { token } => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(streamed.len(), 5);
        match events.last() {
            Some(ServingEvent::Finished {
                reason: FinishReason::Length,
                tokens,
            }) => assert_eq!(tokens, &streamed),
            other => panic!("expected Finished(Length), got {other:?}"),
        }
        // Exactly one FirstToken, before every Token.
        let first_pos = events
            .iter()
            .position(|e| matches!(e, ServingEvent::FirstToken { .. }))
            .expect("first token streamed");
        assert!(events
            .iter()
            .enumerate()
            .all(|(i, e)| !matches!(e, ServingEvent::Token { .. }) || i > first_pos));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ServingEvent::FirstToken { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn duplicate_id_rejected_with_reason_original_untouched() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let h1 = sched.submit(request(1, 12, 4));
        let h_dup = sched.submit(request(1, 6, 2));
        assert!(h_dup.is_terminal(), "duplicate rejected at submit time");
        assert_eq!(
            h_dup.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::DuplicateId
            }]
        );
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].1.len(), 4, "original request served intact");
        assert!(r.rejected.is_empty(), "admission-level rejects unaffected");
        assert_eq!(r.rejections, vec![(1, RejectReason::DuplicateId)]);
        assert!(h1.is_terminal());
        // A terminal id stays taken: re-submitting after completion is still a
        // duplicate (ids are unique across the scheduler's lifetime).
        let h_dup2 = sched.submit(request(1, 6, 2));
        assert_eq!(
            h_dup2.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::DuplicateId
            }]
        );
    }

    #[test]
    fn session_continues_prior_turn() {
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg.clone(), scfg);
        let turn1 = request(1, 32, 8).session(7);
        sched.submit(turn1.clone());
        let r1 = sched.run_to_completion(10_000);
        let out1 = r1.completed[0].1.clone();
        // Turn 2 carries only the *new* tokens; the session store prepends the
        // recorded conversation.
        let new_tokens = vec![33u32, 44, 55, 66];
        sched.submit(
            RequestSpec::new(2, new_tokens.clone())
                .max_new_tokens(4)
                .session(7),
        );
        let r2 = sched.run_to_completion(10_000);
        let out2 = r2
            .completed
            .iter()
            .find(|(id, _)| *id == 2)
            .unwrap()
            .1
            .clone();
        let m2 = r2.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m2.cached_prompt_tokens > 0,
            "session turn must start warm from the donated conversation"
        );
        // Reference: a fresh scheduler fed the concatenated conversation
        // explicitly produces the same tokens.
        let mut fresh_cfg = SchedulerConfig::new(8192);
        fresh_cfg.chunk_tokens = 8;
        let mut fresh = scheduler(cfg, fresh_cfg);
        let mut full_prompt = turn1.prompt.clone();
        full_prompt.extend_from_slice(&out1);
        full_prompt.extend_from_slice(&new_tokens);
        fresh.submit(RequestSpec::new(9, full_prompt).max_new_tokens(4));
        let want = fresh.run_to_completion(10_000).completed[0].1.clone();
        assert_eq!(
            out2, want,
            "session continuation must match explicit concat"
        );
    }

    /// The report view reads its ledgers when asked, not at the end of the
    /// last step: a fork and a cache flush show in the very next snapshot.
    #[test]
    fn report_snapshot_is_fresh_without_a_step() {
        use crate::dag::{BranchSpec, JoinPolicy};
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 32, 12));
        while sched.report_snapshot().decode_steps == 0 {
            sched.step();
        }
        assert_eq!(sched.report_snapshot().dag.forks, 0);
        let branches = [BranchSpec::new(10, vec![7]), BranchSpec::new(11, vec![8])];
        sched.fork(1, JoinPolicy::All, &branches).unwrap();
        let r = sched.report_snapshot();
        assert_eq!(r.dag, sched.dag.stats());
        assert_eq!((r.dag.forks, r.dag.branches_spawned), (1, 2));
        sched.run_to_completion(10_000);
        sched.flush_prefix_cache();
        let (r, cache) = (sched.report_snapshot(), sched.prefix_cache_stats());
        assert!(cache.insertions > 0, "the run donated prefixes");
        assert_eq!(
            (r.prefix_hit_tokens, r.prefix_insertions),
            (cache.hit_tokens, cache.insertions)
        );
        assert_eq!(r.dag, sched.dag.stats());
    }

    /// After every step of the overcommitted scene with its pressure from
    /// decode growth (cache off and on) and of a shared-prefix scene under
    /// the same policy, every report field a ledger elsewhere owns equals
    /// that ledger.
    #[test]
    fn report_equals_the_ledgers_after_every_step() {
        use lserve_workloads::{shared_prefix_workload, SharedPrefixConfig};
        let (cfg, unshared, one) = overcommit_scene(96);
        let exec = Arc::new(ModelExecutor::new(weights(), cfg));
        let shared: Vec<RequestSpec> = shared_prefix_workload(&SharedPrefixConfig::cluster())
            .into_iter()
            .enumerate()
            .map(|(i, p)| RequestSpec::new(i as u64, p.prompt).max_new_tokens(p.max_new_tokens))
            .collect();
        let scenes = [(&unshared, false), (&unshared, true), (&shared, true)];
        for (scene, (specs, prefix_cache)) in scenes.into_iter().enumerate() {
            let mut scfg = overcommit_policy(one, prefix_cache);
            scfg.devices = 2;
            scfg.rebalance_interval = 4;
            let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
            for spec in specs {
                sched.submit(spec.clone());
            }
            while sched.queued() + sched.running() > 0 {
                sched.step();
                let r = sched.report_snapshot();
                let at = format!("scene {scene}, step {}", r.scheduler_steps);
                let tier = sched.pool.tier_stats();
                assert_eq!(
                    (
                        r.pages_demoted,
                        r.pages_promoted,
                        r.pages_spilled,
                        r.pages_recalled
                    ),
                    (
                        tier.pages_demoted,
                        tier.pages_promoted,
                        tier.pages_spilled,
                        tier.pages_recalled
                    ),
                    "{at}: tier ledger"
                );
                let mig = sched.pool.migration_stats();
                assert_eq!(
                    (r.prefetch_issued, r.prefetch_hits, r.prefetch_wasted),
                    (mig.prefetch_issued, mig.prefetch_hits, mig.prefetch_wasted),
                    "{at}: prefetch ledger"
                );
                assert_eq!(
                    (r.hidden_transfer_tokens, r.migration_stall_tokens),
                    (mig.hidden_transfer_tokens(), mig.migration_stall_tokens()),
                    "{at}: copy-engine ledger"
                );
                let cache = sched.prefix_cache_stats();
                assert_eq!(
                    (r.prefix_hit_tokens, r.prefix_insertions),
                    (cache.hit_tokens, cache.insertions),
                    "{at}: prefix-cache ledger"
                );
                let plan = &sched.plan.stats;
                assert_eq!(
                    (r.rebalances, r.heads_migrated, r.rebalance_migration_tokens),
                    (
                        plan.rebalances,
                        plan.heads_migrated,
                        plan.migration_cost_tokens
                    ),
                    "{at}: placement ledger"
                );
                assert_eq!(r.peak_pages, sched.pool.peak_in_use(), "{at}: pool peak");
            }
            let r = sched.report_snapshot();
            assert_eq!(r.completed.len(), specs.len(), "scene {scene}");
            assert!(
                r.pages_demoted > 0 && r.preemptions > 0,
                "scene {scene}: no pressure"
            );
            assert_eq!(prefix_cache, r.prefix_insertions > 0, "scene {scene}");
        }
    }
}
