//! The request-facing types of the serving layer: what a caller submits
//! ([`RequestSpec`]), what it gets back ([`RequestHandle`], a drainable stream
//! of [`ServingEvent`]s), and the policy the scheduler runs under
//! ([`SchedulerConfig`]). The state machines that act on them live in
//! [`crate::scheduler`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use lserve_costmodel::PlacementPolicy;
use lserve_kvcache::MigrationMode;
use lserve_trace::Tracer;

use crate::config::RuntimeConfig;
use crate::dag::{SparsityOverride, SparsitySchedule};

/// Service-level-objective class of a request. Scheduling is strict-priority
/// across classes (admission ordering and preemption victim selection both
/// consult it) and starvation-free *within* a class (EDF over virtual
/// deadlines whose no-deadline fallback ages with the work clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SloClass {
    /// Latency-sensitive traffic: admitted ahead of other classes and shielded
    /// from preemption while any lower class is running.
    Interactive,
    /// Throughput traffic with ordinary guarantees — the default, and the
    /// behaviour of the pre-SLO scheduler when every request uses it.
    #[default]
    Batch,
    /// Scavenger traffic: first to be preempted, last to be admitted.
    BestEffort,
}

impl SloClass {
    /// Strict-priority rank: lower is more important.
    pub(crate) fn rank(self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Batch => 1,
            SloClass::BestEffort => 2,
        }
    }
}

/// Why a request finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated its full `max_new_tokens` budget.
    Length,
    /// Emitted a token in [`RequestSpec::stop_tokens`]; the stop token itself
    /// is excluded from the output (and never streamed).
    StopToken,
    /// The generated tail matched a [`RequestSpec::stop_sequences`] entry; the
    /// matched sequence is *included* in the output (its tokens were already
    /// streamed before the match completed).
    StopSequence,
    /// Bounded-memory truncation: the lone running sequence could not grow any
    /// further and was finished with what it had.
    Truncated,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The spec is degenerate: an empty (resolved) prompt, a zero
    /// `max_new_tokens` budget, or a streaming-window override scheduled past
    /// position 0 (the ring is built at sequence creation). Rejected at
    /// `submit` so a degenerate sequence never reaches admission.
    Invalid,
    /// The estimated full footprint can never fit the pool.
    TooLarge,
    /// A request with this id is already known to the scheduler (live or
    /// terminal). The earlier request is untouched; duplicate ids are an
    /// explicit rejection instead of silent shadowing.
    DuplicateId,
}

/// A generation request under the handle-based API: what to generate, how it
/// terminates, and how the scheduler should treat it relative to other
/// traffic.
///
/// Built with the builder methods:
///
/// ```
/// use lserve_core::{RequestSpec, SloClass};
///
/// let spec = RequestSpec::new(7, vec![1, 2, 3])
///     .max_new_tokens(32)
///     .class(SloClass::Interactive)
///     .deadline_work_tokens(400)
///     .stop_token(0)
///     .stop_sequence(vec![5, 6])
///     .session(1);
/// assert_eq!(spec.id, 7);
/// assert_eq!(spec.class, SloClass::Interactive);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Caller-chosen identifier; must be unique across the scheduler's
    /// lifetime (duplicates are rejected with [`RejectReason::DuplicateId`]).
    pub id: u64,
    /// Prompt token ids for this turn. With a [`RequestSpec::session`], the
    /// effective prompt is the session's recorded conversation followed by
    /// these tokens.
    pub prompt: Vec<u32>,
    /// Generation budget (greedy). Defaults to 16.
    pub max_new_tokens: usize,
    /// SLO class (defaults to [`SloClass::Batch`]).
    pub class: SloClass,
    /// Optional TTFT deadline in *work tokens* (forward-pass tokens across all
    /// sequences) from submission. Within a class, admission and victim
    /// selection order by earliest virtual deadline; [`crate::RequestMetrics`]
    /// records whether it was met.
    pub deadline_work_tokens: Option<u64>,
    /// Generation stops when an emitted token is in this set; the stop token
    /// is excluded from the output.
    pub stop_tokens: Vec<u32>,
    /// Generation stops when the generated tail matches any of these
    /// sequences; the matched sequence stays in the output (its tokens were
    /// already streamed).
    pub stop_sequences: Vec<Vec<u32>>,
    /// Optional session id: the request continues the session's conversation
    /// (prior effective prompt + output), and its own conversation is recorded
    /// back on completion — multi-turn chat over the prefix cache.
    ///
    /// Turns of one session are sequential by contract: submit a follow-up
    /// only after the prior turn's terminal event. A turn submitted while the
    /// session's previous turn is still in flight sees the conversation as it
    /// was last *recorded* (it does not wait), and concurrent turns of one
    /// session record last-completion-wins.
    pub session: Option<u64>,
    /// Positional sparsity-override schedule: each phase applies its knobs
    /// (selection budget, retention ratio, streaming window) from an absolute
    /// token position onward. Empty = engine defaults. Requests carrying
    /// overrides are excluded from prefix-cache sharing in both directions:
    /// their selector history is budget-dependent, so their pages are only
    /// reusable by a consumer replaying the identical schedule.
    pub sparsity: SparsitySchedule,
}

impl RequestSpec {
    /// A spec with the defaults: 16 new tokens, [`SloClass::Batch`], no
    /// deadline, no stop conditions, no session.
    pub fn new(id: u64, prompt: Vec<u32>) -> Self {
        Self {
            id,
            prompt,
            max_new_tokens: 16,
            class: SloClass::Batch,
            deadline_work_tokens: None,
            stop_tokens: Vec::new(),
            stop_sequences: Vec::new(),
            session: None,
            sparsity: SparsitySchedule::new(),
        }
    }

    /// Sets the generation budget.
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new_tokens = n;
        self
    }

    /// Sets the SLO class.
    pub fn class(mut self, class: SloClass) -> Self {
        self.class = class;
        self
    }

    /// Sets a TTFT deadline in work tokens from submission.
    pub fn deadline_work_tokens(mut self, deadline: u64) -> Self {
        self.deadline_work_tokens = Some(deadline);
        self
    }

    /// Adds a stop token (excluded from the output when hit).
    pub fn stop_token(mut self, token: u32) -> Self {
        self.stop_tokens.push(token);
        self
    }

    /// Adds a stop sequence (included in the output when matched). Empty
    /// sequences are ignored.
    pub fn stop_sequence(mut self, seq: Vec<u32>) -> Self {
        self.stop_sequences.push(seq);
        self
    }

    /// Attaches the request to a multi-turn session. Session turns are
    /// sequential by contract: submit a follow-up turn only after the prior
    /// turn's terminal event (see [`RequestSpec::session`]).
    pub fn session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }

    /// Applies a sparsity override from position 0 (the whole request).
    pub fn sparsity(self, over: SparsityOverride) -> Self {
        self.sparsity_from(0, over)
    }

    /// Applies a sparsity override from absolute token position `from`
    /// onward — the knob a solo run uses to replay a branch's exact budget
    /// timeline (override active only past the fork point).
    pub fn sparsity_from(mut self, from: usize, over: SparsityOverride) -> Self {
        self.sparsity.push(from, over);
        self
    }
}

/// One step of a request's lifecycle, streamed through its
/// [`RequestHandle`] as the scheduler produces it.
///
/// Event-stream invariants (pinned by the test suite): events arrive in
/// lifecycle order — `Admitted` first, token events only between
/// `Admitted`/`Resumed` and the next `Preempted` or terminal event,
/// `FirstToken` exactly once before any `Token`, every `Resumed` preceded by a
/// matching `Preempted` — and every request sees **exactly one terminal
/// event** (`Finished`, `Cancelled`, or `Rejected`), always last. The
/// concatenated payloads of `FirstToken` + `Token` equal the terminal event's
/// `tokens`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingEvent {
    /// The request was admitted into the running batch for the first time.
    Admitted,
    /// The first output token.
    FirstToken {
        /// The token id.
        token: u32,
    },
    /// A subsequent output token.
    Token {
        /// The token id.
        token: u32,
    },
    /// The request was preempted under pool pressure; it keeps its progress
    /// and will resume.
    Preempted {
        /// How the victim's pages were handled (released for replay, or
        /// demoted for swap-resume).
        policy: PreemptionPolicy,
    },
    /// The request re-entered the running batch after a preemption.
    Resumed,
    /// Terminal: the request completed with `tokens` as its output.
    Finished {
        /// Why generation stopped.
        reason: FinishReason,
        /// The full output (stop-token truncation already applied).
        tokens: Vec<u32>,
    },
    /// Terminal: the request was cancelled; `tokens` is the output produced
    /// before cancellation took effect.
    Cancelled {
        /// Output tokens emitted before the cancellation boundary.
        tokens: Vec<u32>,
    },
    /// Terminal: the request was rejected.
    Rejected {
        /// Why it could not be served.
        reason: RejectReason,
    },
}

impl ServingEvent {
    /// True for `Finished`, `Cancelled`, and `Rejected` — the events that end
    /// a request's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ServingEvent::Finished { .. }
                | ServingEvent::Cancelled { .. }
                | ServingEvent::Rejected { .. }
        )
    }
}

/// The scheduler/handle shared half of a request's lifecycle: the event
/// queue, the cancellation flag, and the terminal marker.
#[derive(Debug)]
struct HandleShared {
    id: u64,
    events: Mutex<VecDeque<ServingEvent>>,
    cancel: AtomicBool,
    terminal: AtomicBool,
}

/// A caller's view of one submitted request: a drainable stream of
/// [`ServingEvent`]s plus cooperative cancellation.
///
/// Handles are cheap to clone (an `Arc`) and `Send`, so a driver thread can
/// hand them out; dropping a handle never affects the request — events simply
/// accumulate until the terminal event, after which the scheduler drops its
/// side.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    shared: Arc<HandleShared>,
}

impl RequestHandle {
    pub(crate) fn new(id: u64) -> Self {
        let shared = HandleShared {
            id,
            events: Mutex::new(VecDeque::new()),
            cancel: AtomicBool::new(false),
            terminal: AtomicBool::new(false),
        };
        Self {
            shared: Arc::new(shared),
        }
    }

    /// The scheduler's side of the stream.
    pub(crate) fn push(&self, event: ServingEvent) {
        let shared = &self.shared;
        debug_assert!(
            !self.is_terminal(),
            "event after terminal for request {}",
            shared.id
        );
        let terminal = event.is_terminal();
        let mut events = self.events();
        events.push_back(event);
        if terminal {
            // Flagged only after the event is enqueued (and while the queue
            // lock is still held), so a consumer that observes
            // `is_terminal() == true` is guaranteed to find the terminal
            // event in its next drain.
            shared.terminal.store(true, Ordering::Release);
        }
    }

    fn events(&self) -> MutexGuard<'_, VecDeque<ServingEvent>> {
        let events = self.shared.events.lock();
        events.expect("event queue lock poisoned")
    }

    pub(crate) fn cancel_requested(&self) -> bool {
        self.shared.cancel.load(Ordering::Acquire)
    }

    /// The request id this handle tracks.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Requests cancellation. The scheduler acts at the next
    /// [`crate::Scheduler::step`] boundary: pages are released, the completed prefix
    /// is donated to the prefix cache, and the terminal
    /// [`ServingEvent::Cancelled`] is pushed. Cancelling an already-terminal
    /// request is a no-op.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Pops the oldest undrained event, if any.
    pub fn try_next_event(&self) -> Option<ServingEvent> {
        self.events().pop_front()
    }

    /// Drains every currently queued event.
    pub fn drain_events(&self) -> Vec<ServingEvent> {
        self.events().drain(..).collect()
    }

    /// True once a terminal event (`Finished`/`Cancelled`/`Rejected`) has been
    /// *produced* — it may still be waiting in the queue to be drained.
    pub fn is_terminal(&self) -> bool {
        self.shared.terminal.load(Ordering::Acquire)
    }
}

/// Lifecycle state of a request inside the serving engine — the poll-style
/// compatibility view over the event stream ([`crate::Scheduler::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStatus {
    /// Waiting for admission (fresh or preempted).
    Queued,
    /// Currently prefilling or decoding.
    Running,
    /// Completed with the generated tokens.
    Finished(Vec<u32>),
    /// Cancelled via its handle, with the tokens generated before the
    /// cancellation boundary.
    Cancelled(Vec<u32>),
    /// Could never fit in the pool (or was otherwise rejected at admission).
    Rejected,
}

/// How the scheduler relieves pool pressure when decode demand exceeds the
/// free hot tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionPolicy {
    /// Release every page the victim holds and re-queue it; on re-admission
    /// its prompt *plus* already-generated tokens are re-fed through the
    /// deterministic pipeline (the classic recompute-based preemption).
    #[default]
    Replay,
    /// Demote the victim's sole-owned pages to the cold (host) tier and park
    /// its sequence state; on re-admission the cold pages are promoted back —
    /// modeled transfer work instead of recompute — and decode continues
    /// exactly where it stopped. Pages co-owned with the prefix cache or
    /// another sequence stay hot for their other readers (the CoW/refcount
    /// discipline), so a swap never disturbs shared prefixes. Outputs are
    /// bit-identical to [`PreemptionPolicy::Replay`].
    Swap,
}

/// How the scheduler decides a queued request may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit only when the estimated *full* footprint (prompt + all generated
    /// tokens) fits the free pool. Conservative: preemption is rare, utilization
    /// lower.
    FullFootprint,
    /// Admit as soon as the first prefill chunk fits. Aggressive: memory
    /// oversubscription is resolved by preemption.
    FirstChunk,
}

/// Scheduler policy knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Physical pages in the shared pool (the device-memory budget).
    pub pool_pages: usize,
    /// Per-sequence prompt tokens fed per scheduler iteration, and the size of the
    /// fused tile-prefill first chunk. Larger values lower prefill cost but stall
    /// the decode batch longer per iteration.
    pub chunk_tokens: usize,
    /// Maximum concurrently running sequences.
    pub max_batch: usize,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Enables the cross-request KV prefix cache: admission matches prompts
    /// against previously computed prefixes, prefill donates anchors on tile-grid
    /// boundaries, completed (and cancelled) sequences donate their
    /// conversation, and cached entries are LRU-evicted under pool pressure
    /// (before any preemption). Outputs are token-identical with the cache on
    /// or off.
    pub prefix_cache: bool,
    /// Worker threads for the sharded attention phases of prefill and decode
    /// (the *(sequence × KV-head)* LPT-balanced executor). Defaults to the
    /// `LSERVE_DECODE_THREADS` environment variable (1 when unset). Outputs
    /// are bit-identical for every value — the knob trades wall-clock only.
    pub decode_threads: usize,
    /// Simulated devices decode attention is placed onto
    /// ([`crate::ShardingPlan`]-driven head-parallel sharding). Defaults to the
    /// `LSERVE_DEVICES` environment variable (1 when unset). Outputs are
    /// bit-identical for every value — devices move modeled cost and trace
    /// lanes only.
    pub devices: usize,
    /// How KV heads are assigned to those devices: sparsity-aware device-level
    /// LPT (the default) or the round-robin baseline.
    pub placement: PlacementPolicy,
    /// Scheduler steps between the sharding plan's device-imbalance checks.
    pub rebalance_interval: u64,
    /// Max-over-mean device load ratio past which the plan recomputes
    /// placement and migrates heads (charging their KV across the modeled
    /// interconnect).
    pub rebalance_threshold: f64,
    /// How pool pressure is relieved: recompute-based [`PreemptionPolicy::Replay`]
    /// or the tiered memory's [`PreemptionPolicy::Swap`]. Defaults to the
    /// `LSERVE_PREEMPTION` environment variable (replay when unset). Outputs
    /// are bit-identical for both values.
    pub preemption: PreemptionPolicy,
    /// How tier migrations are executed and accounted: inline
    /// [`MigrationMode::Sync`] (every transfer stalls its issuing step) or
    /// the overlapped [`MigrationMode::Async`] copy engine (transfers drain
    /// behind compute; only demand-forced remainders stall). Defaults to the
    /// `LSERVE_MIGRATION` environment variable (sync when unset). Outputs
    /// are bit-identical for both values — the knob trades modeled stall
    /// time only.
    pub migration: MigrationMode,
    /// Host (cold-tier) page capacity: `0` models an unbounded host — the
    /// historical behavior. A bounded host forces the pool to spill its
    /// oldest cold page to nvme before each demotion (when `nvme` is on) or
    /// to refuse the demotion entirely (drop-and-replay fallback). Defaults
    /// to the `LSERVE_HOST_PAGES` environment variable (0 when unset).
    /// Outputs are bit-identical for every value — tiers move modeled cost
    /// only.
    pub host_pages: usize,
    /// Enables the modeled nvme tier below the host ([`lserve_kvcache::
    /// NVME_TRANSFER_SPEEDUP`], an order of magnitude slower per hop than
    /// the host link). Defaults to the `LSERVE_NVME` environment variable
    /// (off when unset). Outputs are bit-identical either way.
    pub nvme: bool,
    /// Enables SLO-class- and deadline-aware scheduling (the default). When
    /// `false`, admission and victim selection fall back to class-blind FCFS
    /// arrival order — the baseline the interactive-class win is measured
    /// against. Outputs per request are bit-identical either way; only
    /// ordering (and therefore latency) changes.
    pub class_aware: bool,
    /// Virtual-deadline slack, in work tokens, assigned to requests that carry
    /// no explicit deadline. Within a class the scheduler orders by virtual
    /// deadline (`submit-time work clock + deadline-or-slack`), so this is the
    /// aging horizon: a deadline-less request outranks any later arrival once
    /// the work clock has advanced past the difference — starvation-freedom
    /// within the class.
    pub no_deadline_slack: u64,
    /// Shared trace handle threaded through the scheduler, the executor's
    /// per-layer phases, the attention shard workers, the copy engine, and the
    /// page selector. Defaults to the `LSERVE_TRACE` environment variable
    /// (disabled when unset). Tracing never changes outputs — the
    /// trace clock is a parallel work-token ledger, not a scheduling input.
    pub tracer: Tracer,
}

impl SchedulerConfig {
    /// Defaults: 128-token prefill chunks, batch of up to 64, first-chunk
    /// admission (preemption-backed), prefix cache off, class-aware
    /// scheduling on, and the seven `LSERVE_*` knobs as
    /// [`RuntimeConfig::from_env`] reads them — here, at construction, never
    /// cached process-wide, so tests and benches can vary the variables
    /// between scheduler constructions in one process.
    ///
    /// # Panics
    ///
    /// Panics if an `LSERVE_*` variable holds a value its knob does not accept.
    pub fn new(pool_pages: usize) -> Self {
        let env = RuntimeConfig::from_env();
        Self {
            pool_pages,
            chunk_tokens: 128,
            max_batch: 64,
            admission: AdmissionPolicy::FirstChunk,
            prefix_cache: false,
            decode_threads: env.decode_threads,
            devices: env.devices,
            placement: PlacementPolicy::SparsityAware,
            rebalance_interval: 16,
            rebalance_threshold: 1.5,
            preemption: env.preemption,
            migration: env.migration,
            host_pages: env.tiers.host_pages,
            nvme: env.tiers.nvme,
            class_aware: true,
            no_deadline_slack: 1 << 20,
            tracer: env.trace.tracer(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens`, `max_batch`, `pool_pages`, `decode_threads`
    /// or `no_deadline_slack` is zero.
    pub fn validate(&self) {
        assert!(self.pool_pages > 0, "pool must hold at least one page");
        assert!(self.chunk_tokens > 0, "chunk must be at least one token");
        assert!(self.max_batch > 0, "batch must admit at least one sequence");
        assert!(self.decode_threads > 0, "need at least one decode worker");
        assert!(self.devices > 0, "need at least one device");
        assert!(
            self.rebalance_interval > 0,
            "rebalance interval must be at least one step"
        );
        assert!(
            self.rebalance_threshold >= 1.0,
            "rebalance threshold is a max-over-mean ratio (>= 1.0)"
        );
        assert!(
            self.no_deadline_slack > 0,
            "aging horizon must be positive for starvation-freedom"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_every_field_over_the_defaults() {
        let spec = RequestSpec::new(3, vec![1, 2])
            .max_new_tokens(9)
            .class(SloClass::BestEffort)
            .deadline_work_tokens(77)
            .stop_token(5)
            .stop_sequence(vec![6, 7])
            .session(11);
        assert_eq!(spec.max_new_tokens, 9);
        assert_eq!(spec.class, SloClass::BestEffort);
        assert_eq!(spec.deadline_work_tokens, Some(77));
        assert_eq!(spec.stop_tokens, vec![5]);
        assert_eq!(spec.stop_sequences, vec![vec![6, 7]]);
        assert_eq!(spec.session, Some(11));
        let plain = RequestSpec::new(4, vec![9]);
        assert_eq!((plain.max_new_tokens, plain.class), (16, SloClass::Batch));
        assert_eq!((plain.deadline_work_tokens, plain.session), (None, None));
        assert!(plain.stop_tokens.is_empty() && plain.stop_sequences.is_empty());
        assert!(plain.sparsity.is_empty());
    }
}
