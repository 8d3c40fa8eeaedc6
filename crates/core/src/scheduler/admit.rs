//! Queue → running: rank-ordered admission from the queue head, by promotion
//! for a swap-parked (or forked) state and by prefix-cache seeding otherwise,
//! behind the page-footprint estimate that decides whether a request may start.

use lserve_model::ModelConfig;
use lserve_trace::lane;

use super::{Feed, Phase, QueuedSeq, RequestProgress, SchedSeq, Scheduler, SeqCore};
use crate::api::{AdmissionPolicy, RejectReason, RequestSpec, ServingEvent};
use crate::dag::SparsitySchedule;
use crate::executor::SequenceState;
use crate::EngineConfig;

impl Scheduler {
    /// Pages needed to hold `tokens` tokens under a request's own sparsity schedule
    /// (see [`sequence_pages_estimate_sparsity`]); identical to the base
    /// estimate for requests without overrides.
    pub(super) fn pages_estimate_spec(&self, spec: &RequestSpec, tokens: usize) -> usize {
        sequence_pages_estimate_sparsity(
            self.exec.config(),
            &self.exec.weights().config,
            tokens,
            &spec.sparsity,
        )
    }

    /// Admission headroom in *total* pages across the bounded tiers. With a
    /// bounded host and no nvme below it, every page an admission creates
    /// must eventually fit somewhere in hot + host — once both are full,
    /// demotion refuses and swap victims degrade to drop-and-replay, so
    /// reserving against free hot slots alone over-admits into thrash.
    /// An unbounded host or an nvme backstop lifts the constraint
    /// (`usize::MAX`): the hierarchy always has a tier to absorb demotions.
    pub(super) fn tier_free_total(&self) -> usize {
        let tiers = self.pool.tier_config();
        if tiers.host_pages == 0 || tiers.nvme {
            return usize::MAX;
        }
        (self.pool.capacity() + tiers.host_pages).saturating_sub(self.pool.total_in_use())
    }

    /// True when admitting `need` pages of new demand would overdraw either
    /// the free hot slots (the demotion-aware estimate) or the bounded
    /// hierarchy's total headroom ([`Scheduler::tier_free_total`]). Callers
    /// size `need` with the per-spec estimate so sparsity overrides are
    /// charged at their own footprint.
    pub(super) fn admission_blocked(&self, need: usize) -> bool {
        need > self.pool.free_pages() || need > self.tier_free_total()
    }

    /// Rank-ordered admission from the queue head, seeding from the prefix
    /// cache when a prompt matches a cached prefix. The queue is kept sorted
    /// by [`SloKey`], so the head is always the most entitled request
    /// (interactive before batch before best-effort; EDF within a class);
    /// admission never skips the head, which preserves within-class FCFS
    /// fairness under pressure.
    pub(super) fn admit(&mut self) {
        while self.running.len() < self.scfg.max_batch {
            let Some(front) = self.queue.front() else {
                break;
            };
            let full_tokens = front.core.prompt.len() + front.core.spec.max_new_tokens;
            // Capacity check, per-spec (a sparsity override changes the
            // footprint) and *incremental* for a fork branch whose CoW
            // snapshot is still parked: the pages up to the fork point are
            // already paid for by the parent, so only the branch's growth
            // beyond them is new demand. A spilled branch lost its snapshot
            // and replays from scratch — full demand again.
            let full_est = self.pages_estimate_spec(&front.core.spec, full_tokens);
            let base_est = if front.swap.is_some() && front.core.fork_base_tokens > 0 {
                self.pages_estimate_spec(&front.core.spec, front.core.fork_base_tokens)
            } else {
                0
            };
            if full_est.saturating_sub(base_est) > self.pool.capacity() {
                let q = self.queue.pop_front().expect("front checked");
                self.finish_rejected(q.core, RejectReason::TooLarge);
                continue;
            }
            // A swapped-out victim resumes by promotion, not by re-feeding:
            // its exact hot demand is its cold page count plus its own
            // demotions still in flight on the copy engine (forcing one frees
            // a slot but lands a new cold page — net-zero supply), plus the
            // pages its next token appends — resumed short of those, it
            // would be preempted again before taking a step. Evict idle
            // cached prefixes first, exactly like fresh admission does.
            if let Some(parked) = &front.swap {
                let need = self.pool.swap_in_demand(parked.state.page_ids())
                    + parked.state.pages_needed_for_next_token(&self.pool);
                while need > self.pool.free_pages() {
                    if !self.evict_prefix_one() {
                        break;
                    }
                }
                if need > self.pool.free_pages() {
                    // With nothing running, no future completion will free hot
                    // pages — spill a swap-parked state that holds some, or,
                    // when none does, this one (its swap-in can never fit),
                    // so admission always makes progress; then retry.
                    if self.running.is_empty() {
                        if !self.spill_swapped_queue(need) {
                            self.spill_parked(0);
                        }
                        continue;
                    }
                    break; // wait for hot pages to free up
                }
                let mut q = self.queue.pop_front().expect("front checked");
                let swap = q.swap.take().expect("checked above");
                let moved = self
                    .pool
                    .promote_all(swap.state.page_ids())
                    .expect("swap-in demand reserved above");
                // What the promotion made the scheduler wait for is accounted
                // work on the run's monotone clock: TTFT/TBT honestly pay for
                // the transfer, and the trace clock advances too, so the
                // resume instant lands *after* the promotion it paid for.
                // That is all of it under sync migration. The async engine
                // queues it instead, where it drains behind the very compute
                // that resumes the sequence — only remainders a decode step
                // demand-forces surface, in the pool's migration ledger.
                let cost = lserve_kvcache::transfer_cost_tokens(moved.unhidden);
                self.report.swap_resume_work_tokens += cost;
                self.work_tokens += cost;
                self.scfg.tracer.advance(cost);
                // A fork branch enters through this same promote path (its
                // CoW snapshot is parked like a swap victim's, with zero cold
                // pages), but it was never admitted before — its first event
                // is `Admitted`, not `Resumed`.
                self.start_running(q, swap, &[("swapped", 1)], ("units", moved.units));
                continue;
            }
            let feed_len = front.core.prompt.len() + front.generated.len();
            // A cached match makes the request cheaper to admit and must survive
            // the eviction loop below, so LRU-protect it before evicting and size
            // the first-chunk estimate by the uncached remainder.
            let bounds = self.match_bounds(&front.core);
            let matched = bounds
                .and_then(|(min, max)| self.prefix.touch(&front.core.prompt, min, max))
                .unwrap_or(0);
            let admit_tokens = match self.scfg.admission {
                AdmissionPolicy::FullFootprint => full_tokens,
                AdmissionPolicy::FirstChunk => self.scfg.chunk_tokens.min(feed_len - matched),
            };
            let need = self.pages_estimate_spec(&front.core.spec, admit_tokens);
            while self.admission_blocked(need) {
                if !self.evict_prefix_one() {
                    break;
                }
            }
            if self.admission_blocked(need) {
                // Swap-parked states can pin shared prefix pages the eviction
                // loop cannot free; with nothing running, spilling them back
                // to replay is the only way admission can make progress.
                if self.running.is_empty() && self.spill_swapped_queue(need) {
                    continue;
                }
                break; // wait for running sequences to finish or be preempted
            }
            let mut q = self.queue.pop_front().expect("front checked");
            let (cached, mut state) = self.seeded_state(&q.core);
            state.set_sparsity_schedule(q.core.spec.sparsity.clone());
            let id = q.core.spec.id;
            q.progress.cached_tokens = q.progress.cached_tokens.max(cached);
            let fresh = Feed {
                state,
                fed: cached,
                resume_feed: q.generated.clone(),
                last_token: None,
            };
            self.start_running(q, fresh, &[], ("cached", cached as u64));
            if cached > 0 {
                let tokens = [("tokens", cached as u64)];
                self.scfg
                    .tracer
                    .instant("prefix.hit", "prefix", lane::SCHEDULER, id, &tokens);
            }
        }
        // Resumed sequences have old (small) ranks; keep the running list in
        // rank order so the prefill phase serves the most entitled sequences
        // first and victim reasoning stays simple.
        self.running.sort_by_key(|s| s.core.key);
    }

    /// Queue → running, the step both admission paths end in: closes the
    /// `queued` span, streams `Admitted` (the first time) or `Resumed`, and
    /// enters the running batch continuing from `from` — `q`'s parked state,
    /// or a fresh one positioned after its cached prefix. `queued` and
    /// `admitted` are what the two trace events say about the path taken.
    fn start_running(
        &mut self,
        q: QueuedSeq,
        from: Feed,
        queued: &[(&'static str, u64)],
        admitted: (&'static str, u64),
    ) {
        let id = q.core.spec.id;
        let resumed = q.progress.ever_admitted;
        self.close_phase("queued", id, q.progress.trace_mark, queued);
        self.note(if resumed { "resume" } else { "admit" }, id, &[admitted]);
        q.core.handle.push(if resumed {
            ServingEvent::Resumed
        } else {
            ServingEvent::Admitted
        });
        self.index.insert(id, Phase::Running);
        self.running.push(SchedSeq {
            core: q.core,
            feed: from,
            generated: q.generated,
            progress: RequestProgress {
                ever_admitted: true,
                trace_mark: self.scfg.tracer.now(),
                ..q.progress
            },
        });
    }

    /// The depths at which a cached prefix may serve `core`'s prompt: at least
    /// the prefill tile grid (the suffix must run entirely on the
    /// position-stable decode path), at most `prompt_len - 1` (one token must
    /// be computed to produce first-token logits). `None` with the cache off,
    /// and for sparsity-overridden requests, which are excluded from prefix
    /// sharing in both directions: the selector history inside a cached
    /// snapshot is budget-dependent, so pages cached under the base budget
    /// would poison an overridden consumer's replay (and vice versa).
    fn match_bounds(&self, core: &SeqCore) -> Option<(usize, usize)> {
        let (min, max) = (self.scfg.chunk_tokens, core.prompt.len().saturating_sub(1));
        let shares = self.scfg.prefix_cache && core.spec.sparsity.is_empty();
        (shares && max >= min).then_some((min, max))
    }

    /// Seeds a sequence from the deepest usable cached prefix of `core`'s
    /// prompt, or creates a fresh one on a miss — where a position-0 window
    /// override is honoured: the streaming rings are built here.
    fn seeded_state(&mut self, core: &SeqCore) -> (usize, SequenceState) {
        if let Some((min, max)) = self.match_bounds(core) {
            if let Some((depth, hit)) = self.prefix.lookup(&core.prompt, min, max) {
                return (depth, hit.seed(&mut self.pool));
            }
        }
        let window = core.spec.sparsity.window_override();
        (0, self.exec.new_sequence_with_window(window))
    }
}

/// Pages needed to hold `tokens` tokens of context for one sequence under
/// `cfg` — dense heads grow with context, streaming heads are bounded by their
/// window. This is the footprint estimate the scheduler's admission control
/// uses; tests and benches that want to size a pool relative to "N sequences"
/// should use it instead of re-deriving the formula.
///
/// The estimate is of the **hot** footprint. When selection-driven demotion is
/// on (`demote_after_chunks` with a `dynamic_budget`), a dense head's
/// steady-state hot set is not its full residency: once history outgrows the
/// selection budget, the selector keeps roughly `budget` tokens hot and the
/// demotion sweep pushes the rest cold. The bound has to cover the demotion
/// *lag*, though — a page only demotes after going unselected for
/// `demote_after_chunks` consecutive fresh scorings, so in the worst case
/// (the top-k churning completely every rescore) up to `k` selections' worth
/// of pages plus `k × reuse_interval` freshly appended tokens are hot at
/// once, on top of the append page and the forced sink page. That caps the
/// per-head hot set at `k × (budget + reuse_interval) + 2 pages` — constant
/// in context length — instead of the whole history. Without demotion (or
/// while the context still fits inside that cap) the full-residency formula
/// stands.
pub fn sequence_pages_estimate(cfg: &EngineConfig, model: &ModelConfig, tokens: usize) -> usize {
    sequence_pages_estimate_sparsity(cfg, model, tokens, &SparsitySchedule::new())
}

/// [`sequence_pages_estimate`] under a per-request [`SparsitySchedule`]: the
/// effective selection budget at position `tokens` replaces the engine-wide
/// budget in the demotion-churn cap, and a position-0 window override replaces
/// the streaming-head window.
fn sequence_pages_estimate_sparsity(
    cfg: &EngineConfig,
    model: &ModelConfig,
    tokens: usize,
    sparsity: &SparsitySchedule,
) -> usize {
    let window = sparsity.window_override().unwrap_or(cfg.streaming_window);
    let streaming_heads =
        (cfg.streaming_sparsity * (model.num_layers * model.num_kv_heads) as f64).round() as usize;
    let dense_heads = model.num_layers * model.num_kv_heads - streaming_heads;
    let dense_hot_tokens = match (
        cfg.demote_after_chunks,
        sparsity.effective_budget(cfg.dynamic_budget, tokens),
    ) {
        (Some(k), Some(budget)) => {
            let churn = k.max(1) * (budget + cfg.reuse_interval.max(1));
            tokens.min(churn + 2 * cfg.paging.physical_page_size())
        }
        _ => tokens,
    };
    dense_heads * (cfg.paging.pages_for(dense_hot_tokens) + 1)
        + streaming_heads * (window.max_pages() + 2)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn oversized_request_rejected_not_deadlocked() {
        let mut srv = fcfs(weights(), EngineConfig::dense(), 16);
        let h1 = srv.submit(request(1, 512, 4)); // needs ~40 pages, can never fit in 16
        srv.submit(request(2, 4, 2));
        let r = srv.run_to_completion(1000);
        assert_eq!(r.rejected, vec![1]);
        assert_eq!(r.rejections, vec![(1, RejectReason::TooLarge)]);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].0, 2);
        assert_eq!(
            h1.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::TooLarge
            }]
        );
    }

    #[test]
    fn memory_pressure_serializes_admission() {
        // Pool fits roughly one dense sequence at a time; both must still finish.
        let w = weights();
        let cfg = EngineConfig::dense();
        let one_seq_pages = {
            let m = &w.config;
            m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(40) + 1)
        };
        let mut srv = fcfs(w, cfg, one_seq_pages + 4);
        srv.submit(request(1, 16, 8));
        srv.submit(request(2, 16, 8));
        let r = srv.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 2);
        assert!(r.peak_pages <= one_seq_pages + 4);
    }

    #[test]
    fn pages_estimate_tracks_demotion_peak_not_full_residency() {
        use lserve_kvcache::PagingConfig;
        use lserve_quant::KvPrecision;
        let w = weights();
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
        cfg.prefill_tile = 8;
        cfg.dynamic_budget = Some(24);
        cfg.demote_after_chunks = Some(1);
        cfg.reuse_interval = 2;
        let total = 264;
        let est = sequence_pages_estimate(&cfg, &w.config, total);
        let full = {
            let mut full_cfg = cfg.clone();
            full_cfg.demote_after_chunks = None;
            sequence_pages_estimate(&full_cfg, &w.config, total)
        };
        assert!(
            est * 2 < full,
            "demotion-aware estimate {est} must undercut full residency {full}"
        );
        // The tightened estimate must still bound the measured peak: feed the
        // whole context solo in a roomy pool and compare the pool high-water
        // mark against what admission would have reserved.
        let mut scfg = SchedulerConfig::new(full * 2);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(cfg, scfg);
        sched.submit(request(1, total - 16, 16));
        let report = sched.run_to_completion(100_000);
        assert_eq!(report.completed.len(), 1);
        assert!(
            report.peak_pages <= est,
            "estimate {est} must bound measured peak {}",
            report.peak_pages
        );
    }

    #[test]
    fn interactive_class_jumps_queue_and_batch_still_completes() {
        // Serialized admission (max_batch 1): under class-aware scheduling the
        // interactive request submitted *after* two batch requests runs first.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.max_batch = 1;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg.clone());
        sched.submit(request(1, 24, 6));
        sched.submit(request(2, 24, 6));
        sched.submit(request(3, 8, 4).class(SloClass::Interactive));
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 3);
        let m3 = r.request_metrics.iter().find(|m| m.id == 3).unwrap();
        let m2 = r.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m3.ttft_work_tokens < m2.ttft_work_tokens,
            "interactive must not wait behind queued batch traffic: {} vs {}",
            m3.ttft_work_tokens,
            m2.ttft_work_tokens
        );
        // Class-blind FCFS instead serves arrival order.
        let mut blind_cfg = scfg;
        blind_cfg.class_aware = false;
        let mut blind = scheduler(EngineConfig::lserve_fp16(), blind_cfg);
        blind.submit(request(1, 24, 6));
        blind.submit(request(2, 24, 6));
        blind.submit(request(3, 8, 4).class(SloClass::Interactive));
        let rb = blind.run_to_completion(10_000);
        let b3 = rb.request_metrics.iter().find(|m| m.id == 3).unwrap();
        assert!(
            b3.ttft_work_tokens > m3.ttft_work_tokens,
            "class-aware scheduling must beat FCFS for the interactive request"
        );
        // Identical outputs under both orderings (determinism).
        assert_eq!(r.completed, rb.completed);
    }

    #[test]
    fn deadline_edf_orders_within_class() {
        // Two batch requests; the later arrival carries a tight deadline and
        // must be admitted first under serialized admission.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.max_batch = 1;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 24, 6));
        sched.submit(request(2, 24, 6).deadline_work_tokens(40));
        let r = sched.run_to_completion(10_000);
        let m1 = r.request_metrics.iter().find(|m| m.id == 1).unwrap();
        let m2 = r.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m2.ttft_work_tokens < m1.ttft_work_tokens,
            "EDF must serve the tight deadline first: {} vs {}",
            m2.ttft_work_tokens,
            m1.ttft_work_tokens
        );
        assert_eq!(m2.deadline_work_tokens, Some(40));
        assert_eq!(m2.deadline_met, Some(m2.ttft_work_tokens <= 40));
        let (met, total) = r.deadlines();
        assert_eq!(total, 1);
        assert_eq!(met == 1, m2.deadline_met == Some(true));
    }
}
