//! What a serving run reports: per-request latency metrics and the run-wide
//! [`ServingReport`], which [`crate::Scheduler::report_snapshot`] assembles
//! from the scheduler's own counters and the pool, copy-engine, prefix-cache,
//! placement and DAG ledgers.

use lserve_kvcache::MigrationMode;

use crate::api::{FinishReason, PreemptionPolicy, RejectReason, SloClass};
use crate::dag::DagStats;
use crate::stats::ParallelExecStats;

/// Per-request latency/scheduling metrics, in scheduler iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMetrics {
    /// Request id.
    pub id: u64,
    /// SLO class the request ran under.
    pub class: SloClass,
    /// Why generation stopped.
    pub finish: FinishReason,
    /// Iterations from submission until the first generated token (time to first
    /// token). Zero when the request finished without emitting any token.
    pub ttft_iters: u64,
    /// Model work (tokens pushed through the forward pass, all sequences counted)
    /// between submission and the first generated token. Unlike iterations, this
    /// is a faithful time proxy when per-iteration prefill work is unbounded —
    /// it is the unit in which chunked prefill's head-of-line win shows up.
    pub ttft_work_tokens: u64,
    /// Iterations between the first and the last generated token.
    pub decode_span_iters: u64,
    /// Tokens generated (output tokens; stop-token truncation applied).
    pub tokens: usize,
    /// Times this request was preempted (pages released, later re-prefilled).
    pub preemptions: u32,
    /// Prompt tokens served from the prefix cache at admission (the deepest
    /// value across admissions, for requests that were preempted and resumed).
    pub cached_prompt_tokens: usize,
    /// The TTFT deadline the request carried, if any (work tokens from
    /// submission).
    pub deadline_work_tokens: Option<u64>,
    /// Whether the deadline was met (`None` when no deadline was set; a
    /// request that never emitted a token misses by definition).
    pub deadline_met: Option<bool>,
}

impl RequestMetrics {
    /// Mean iterations between consecutive generated tokens (0 for fewer than two
    /// tokens).
    pub fn mean_tbt_iters(&self) -> f64 {
        if self.tokens > 1 {
            self.decode_span_iters as f64 / (self.tokens - 1) as f64
        } else {
            0.0
        }
    }
}

/// Summary of a serving run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingReport {
    /// `(request id, output tokens)` for every completed request.
    pub completed: Vec<(u64, Vec<u32>)>,
    /// Requests that could never be admitted (admission-time rejections;
    /// duplicate-id rejections appear only in [`ServingReport::rejections`]).
    pub rejected: Vec<u64>,
    /// Every rejection with its reason, including duplicate-id rejections
    /// made at submit time.
    pub rejections: Vec<(u64, RejectReason)>,
    /// `(request id, output tokens at the cancellation boundary)` for every
    /// cancelled request.
    pub cancelled: Vec<(u64, Vec<u32>)>,
    /// Scheduler iterations executed.
    pub scheduler_steps: u64,
    /// Total decode steps across all sequences (prompt-continuation feeding
    /// excluded).
    pub decode_steps: u64,
    /// High-water mark of pool pages in use.
    pub peak_pages: usize,
    /// Total preemption events across the run.
    pub preemptions: u64,
    /// Per-request latency metrics for completed requests, sorted by request
    /// id on completion.
    pub request_metrics: Vec<RequestMetrics>,
    /// Prompt tokens served from the prefix cache, summed over admission events
    /// (a preempted request that re-admits with a hit counts again, exactly as
    /// its recomputed tokens would).
    pub prefix_hit_tokens: u64,
    /// Prompt tokens actually computed by prefill (tile chunk + continuation runs),
    /// summed over admission events. Zero when the prefix cache is disabled.
    pub prefix_recomputed_tokens: u64,
    /// Prefixes donated into the cache (anchors, completed conversations, and
    /// cancelled requests' completed prefixes).
    pub prefix_insertions: u64,
    /// Prefix-cache entries evicted under pool pressure.
    pub prefix_evictions: u64,
    /// Worker threads the run's sharded attention phases were configured with.
    pub decode_threads: usize,
    /// Preemption policy the run was configured with.
    pub preemption: PreemptionPolicy,
    /// Pages migrated hot → cold over the run (selection-driven demotion plus
    /// swap-outs), from the pool's lifetime tier ledger.
    pub pages_demoted: u64,
    /// Pages migrated cold → hot over the run (selection re-picks plus
    /// swap-resume promotions).
    pub pages_promoted: u64,
    /// Modeled transfer work of swap-resume promotions specifically, in
    /// forward-pass token-equivalents — the number to hold against the replay
    /// tokens the swap policy avoided re-feeding. Counted into the `work
    /// tokens` clock, so TTFT under swap honestly pays for its transfers.
    pub swap_resume_work_tokens: u64,
    /// High-water mark of cold-tier (host) pages in use.
    pub peak_cold_pages: usize,
    /// High-water mark of nvme-tier pages in use (0 without the nvme tier).
    pub peak_nvme_pages: usize,
    /// Pages spilled host → nvme over the run (bounded-host relief), from
    /// the pool's lifetime tier ledger.
    pub pages_spilled: u64,
    /// Pages recalled nvme → host over the run (demand recalls plus
    /// prefetch-chained recalls).
    pub pages_recalled: u64,
    /// Prefix-cache entries spilled down-tier under pool pressure (the
    /// entry stays cached; contrast [`ServingReport::prefix_evictions`]).
    pub prefix_spills: u64,
    /// Host page capacity the run was configured with (0 = unbounded).
    pub host_pages: usize,
    /// Whether the modeled nvme tier was enabled.
    pub nvme: bool,
    /// Migration mode the run was configured with.
    pub migration: MigrationMode,
    /// Selector-driven prefetches issued into the copy engine (async mode;
    /// always zero under [`MigrationMode::Sync`]).
    pub prefetch_issued: u64,
    /// Prefetched pages a later demand actually read — each one a transfer
    /// that would otherwise have stalled a decode step.
    pub prefetch_hits: u64,
    /// Prefetched pages demoted or freed without ever being demanded (the
    /// cost of wrong guesses: wasted link bandwidth, never wasted hot slots).
    pub prefetch_wasted: u64,
    /// Modeled transfer work the copy engine hid behind compute, in
    /// forward-pass token-equivalents. Always zero under sync migration.
    pub hidden_transfer_tokens: u64,
    /// Modeled transfer work steps actually stalled on, in forward-pass
    /// token-equivalents: everything under sync migration, only demand
    /// fetches and forced completions under async. The cross-mode comparable
    /// stall metric — the async engine's win is this number shrinking while
    /// outputs stay bit-identical.
    pub migration_stall_tokens: u64,
    /// High-water mark of concurrently running sequences.
    pub peak_running: usize,
    /// Sum over scheduler iterations of the running-sequence count (after
    /// admission). `running_seq_steps / scheduler_steps` is the *sustained*
    /// concurrency of the run.
    pub running_seq_steps: u64,
    /// Aggregate parallel-execution counters across every prefill/decode
    /// phase (see [`ParallelExecStats`]).
    pub parallel: ParallelExecStats,
    /// Simulated devices the run's decode attention was placed onto.
    pub devices: usize,
    /// Rebalance passes that moved at least one head (see [`crate::ShardingPlan`]).
    pub rebalances: u64,
    /// (layer, head) placements changed across those passes.
    pub heads_migrated: u64,
    /// Modeled interconnect tokens head migrations charged into the work
    /// clock (priced per KV token-unit moved, like the copy engine's
    /// host-link transfers but over the faster device mesh).
    pub rebalance_migration_tokens: u64,
    /// Request-DAG counters (speculative fork/join branching): successful
    /// `fork()` calls, branches spawned, groups whose join policy resolved,
    /// and branch cancellations requested by join policies or cascade-cancel.
    pub dag: DagStats,
}

impl ServingReport {
    /// Measured mean worker utilization of the sharded attention phases, in
    /// `(0, 1]` (1.0 when no parallel phase ran).
    pub fn worker_utilization(&self) -> f64 {
        self.parallel.utilization()
    }

    /// Measured worker imbalance `>= 1` (critical path over perfect balance).
    pub fn worker_imbalance(&self) -> f64 {
        self.parallel.imbalance()
    }

    /// Mean concurrently running sequences per scheduler iteration (0 when no
    /// iteration ran) — the sustained-concurrency number the tiered memory's
    /// oversubscription win is measured by.
    pub fn mean_running(&self) -> f64 {
        share(self.running_seq_steps, self.scheduler_steps, 0.0)
    }

    /// Fraction of prompt-prefill tokens served from the prefix cache, in
    /// `[0, 1]` (0 when no prompt token was processed).
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hit_tokens + self.prefix_recomputed_tokens;
        share(self.prefix_hit_tokens, total, 0.0)
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`, e.g. 0.5 / 0.95) of `of` over
    /// completed requests — of one [`SloClass`] when given, the per-class SLO
    /// view — or the zero value when none completed.
    fn percentile<T: PartialOrd + Copy + Default>(
        &self,
        class: Option<SloClass>,
        q: f64,
        of: impl Fn(&RequestMetrics) -> T,
    ) -> T {
        let of_class = |m: &&RequestMetrics| class.is_none_or(|c| m.class == c);
        let mut v: Vec<T> = self
            .request_metrics
            .iter()
            .filter(of_class)
            .map(of)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
        nearest_rank(&v, q).copied().unwrap_or_default()
    }

    /// Nearest-rank percentile of per-request TTFT in work tokens.
    pub fn ttft_work_percentile(&self, q: f64) -> u64 {
        self.percentile(None, q, |m| m.ttft_work_tokens)
    }

    /// [`ServingReport::ttft_work_percentile`] restricted to one class.
    pub fn ttft_work_percentile_class(&self, class: SloClass, q: f64) -> u64 {
        self.percentile(Some(class), q, |m| m.ttft_work_tokens)
    }

    /// `(met, total)` deadline counts over completed requests that carried a
    /// deadline.
    pub fn deadlines(&self) -> (usize, usize) {
        let total = self
            .request_metrics
            .iter()
            .filter(|m| m.deadline_met.is_some())
            .count();
        let met = self
            .request_metrics
            .iter()
            .filter(|m| m.deadline_met == Some(true))
            .count();
        (met, total)
    }

    /// Fraction of this run's modeled transfer work the copy engine hid
    /// behind compute, in `[0, 1]` (1.0 when nothing migrated — no transfers
    /// means no stall). Sync migration hides nothing, so it reports 0 the
    /// moment any page moves; the async engine's overlap win is this ratio
    /// approaching 1.
    pub fn migration_overlap_ratio(&self) -> f64 {
        let total = self.hidden_transfer_tokens + self.migration_stall_tokens;
        share(self.hidden_transfer_tokens, total, 1.0)
    }

    /// Nearest-rank percentile of per-request mean time-between-tokens, in
    /// scheduler iterations.
    pub fn tbt_percentile(&self, q: f64) -> f64 {
        self.percentile(None, q, RequestMetrics::mean_tbt_iters)
    }

    /// [`ServingReport::tbt_percentile`] restricted to one class.
    pub fn tbt_percentile_class(&self, class: SloClass, q: f64) -> f64 {
        self.percentile(Some(class), q, RequestMetrics::mean_tbt_iters)
    }
}

/// `part / whole`, or `of_nothing` when there is no whole.
fn share(part: u64, whole: u64, of_nothing: f64) -> f64 {
    if whole == 0 {
        return of_nothing;
    }
    part as f64 / whole as f64
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn nearest_rank<T>(sorted: &[T], q: f64) -> Option<&T> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1)
}
