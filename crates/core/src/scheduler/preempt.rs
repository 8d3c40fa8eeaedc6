//! Running → queue under pool pressure: class- and cost-aware victim choice,
//! then release-and-replay or demote-and-park.

use super::{Feed, Phase, QueuedSeq, RequestProgress, Scheduler, SeqCore, SloKey};
use crate::api::{PreemptionPolicy, ServingEvent};

impl Scheduler {
    /// Chooses the preemption victim among running sequences whose rank is
    /// strictly worse than `than` (all of them when `than` is `None`).
    ///
    /// Selection is class-first (the worst class present loses), then
    /// cost-aware within that class: under [`PreemptionPolicy::Swap`] the
    /// victim is the sequence with the smallest modeled promote-back cost
    /// ([`PagePool::promote_back_cost_units`] — shared hot pages free,
    /// sole-owned hot pages one round trip, cold pages one host hop, nvme
    /// pages recall plus hop), i.e. the cheapest to move across the tiers
    /// now *and* to bring back later, priced by where its pages actually
    /// sit (latest virtual deadline, then latest arrival, break ties) —
    /// while under [`PreemptionPolicy::Replay`] it is the least entitled
    /// sequence (latest virtual deadline, then latest arrival), whose
    /// replayed context is the least urgent work to redo.
    fn pick_victim(&self, than: Option<SloKey>) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.running.len())
            .filter(|&i| than.is_none_or(|k| self.running[i].core.key > k))
            .collect();
        let worst_class = candidates
            .iter()
            .map(|&i| self.running[i].core.key.class)
            .max()?;
        let same_class = candidates
            .into_iter()
            .filter(|&i| self.running[i].core.key.class == worst_class);
        // The cost-aware choice is part of SLO-aware scheduling; with
        // `class_aware` off the baseline is honestly class-blind FCFS under
        // *both* policies (latest arrival loses, exactly the pre-SLO rule).
        if self.scfg.class_aware && self.scfg.preemption == PreemptionPolicy::Swap {
            same_class.min_by_key(|&i| {
                let s = &self.running[i];
                (
                    self.pool.promote_back_cost_units(s.feed.state.page_ids()),
                    std::cmp::Reverse(s.core.key.vdeadline),
                    std::cmp::Reverse(s.core.key.arrival),
                )
            })
        } else {
            same_class.max_by_key(|&i| {
                let s = &self.running[i];
                (s.core.key.vdeadline, s.core.key.arrival)
            })
        }
    }

    /// Preempts the chosen victim among sequences ranked strictly worse than
    /// `than`. Returns `false` when no such victim exists.
    pub(super) fn make_room_below(&mut self, than: SloKey) -> bool {
        let victim = self.pick_victim(Some(than));
        victim.map(|v| self.preempt_index(v)).is_some()
    }

    /// Preempts running sequence `i` under the configured policy. The sequence
    /// must be at a clean step boundary (nothing half-written) — the unclean
    /// OOM fallbacks call [`Scheduler::preempt_index_replay`] directly.
    pub(super) fn preempt_index(&mut self, i: usize) {
        match self.scfg.preemption {
            PreemptionPolicy::Replay => self.preempt_index_replay(i),
            PreemptionPolicy::Swap => self.preempt_index_swap(i),
        }
    }

    /// Replay preemption: releases every page sequence `i` holds and re-queues
    /// it with its generation progress, to be re-fed later.
    pub(super) fn preempt_index_replay(&mut self, i: usize) {
        let mut seq = self.running.remove(i);
        seq.feed.state.release(&mut self.pool);
        self.requeue(seq.core, seq.generated, seq.progress, None);
    }

    /// Swap preemption: demotes every sole-owned page sequence `i` holds to
    /// the cold tier (pages co-owned with the prefix cache or other sequences
    /// stay hot for their readers) and parks the intact sequence state in the
    /// queue. Resume is an accounted promotion instead of a replay.
    ///
    /// Drop-and-replay is the final fallback: when a bounded host (with no
    /// nvme below it) refuses the *entire* swap-out — nothing demoted while
    /// the victim still holds sole-owned hot pages — parking the state would
    /// relieve no hot pressure at all, so the preemption degrades to
    /// [`Scheduler::preempt_index_replay`] and releases the pages instead.
    /// A partially refused swap-out still parks: every page that did move is
    /// a hot slot relieved, and the remainder stays hot for a cheap resume.
    /// A victim that holds no page yet has nothing to swap either, and
    /// requeues as the fresh admission it still is.
    fn preempt_index_swap(&mut self, i: usize) {
        let state = &self.running[i].feed.state;
        let moved = self.pool.demote_all(state.page_ids()).pages;
        if moved == 0
            && (state.resident_pages() == 0 || self.pool.sole_owned_hot_pages(state.page_ids()) > 0)
        {
            self.preempt_index_replay(i);
            return;
        }
        let seq = self.running.remove(i);
        self.requeue(seq.core, seq.generated, seq.progress, Some(seq.feed));
    }

    /// Running → queue: counts the preemption, closes the `running` span,
    /// streams `Preempted`, and re-enqueues at the request's rank — parked
    /// (`swap`) or to be replayed.
    fn requeue(
        &mut self,
        core: SeqCore,
        generated: Vec<u32>,
        progress: RequestProgress,
        swap: Option<Feed>,
    ) {
        self.report.preemptions += 1;
        let id = core.spec.id;
        self.close_phase("running", id, progress.trace_mark, &[]);
        self.note("preempt", id, &[("swap", u64::from(swap.is_some()))]);
        let policy = match swap {
            Some(_) => PreemptionPolicy::Swap,
            None => PreemptionPolicy::Replay,
        };
        core.handle.push(ServingEvent::Preempted { policy });
        self.index.insert(id, Phase::Queued);
        let progress = RequestProgress {
            preemptions: progress.preemptions + 1,
            trace_mark: self.scfg.tracer.now(),
            ..progress
        };
        self.enqueue(QueuedSeq {
            core,
            generated,
            swap,
            progress,
        });
    }
}

#[cfg(test)]
mod tests {
    use lserve_kvcache::MigrationMode;

    use super::super::test_support::*;

    #[test]
    fn preemption_fires_and_everything_completes() {
        // First-chunk admission over a pool that cannot hold both sequences'
        // full footprint: the scheduler must preempt (not deadlock, not reject)
        // and still complete both requests.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        // Both prompts fit at admission; decoding both to completion overflows.
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);
        let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        sched.submit(request(1, 60, 10));
        sched.submit(request(2, 60, 10));
        let r = sched.run_to_completion(100_000);
        assert_eq!(r.completed.len(), 2, "rejected: {:?}", r.rejected);
        assert!(r.preemptions > 0, "pool pressure must trigger preemption");
        assert_eq!(sched.pool_in_use(), 0, "all pages returned");
        assert_eq!(r.completed[0].1.len(), 10);
        assert_eq!(r.completed[1].1.len(), 10);
    }

    #[test]
    fn preemption_does_not_change_tokens() {
        // The preempted-and-resumed run must emit exactly the tokens of an
        // unconstrained run.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let mut roomy_cfg = SchedulerConfig::new(8192);
        roomy_cfg.chunk_tokens = 16;
        let mut roomy = scheduler(cfg.clone(), roomy_cfg);
        roomy.submit(request(1, 60, 10));
        roomy.submit(request(2, 60, 10));
        let want = roomy.run_to_completion(100_000);
        assert_eq!(want.preemptions, 0);

        let mut tight_cfg = SchedulerConfig::new(one_seq_pages + 2);
        tight_cfg.chunk_tokens = 16;
        tight_cfg.admission = AdmissionPolicy::FirstChunk;
        let mut tight = scheduler(cfg, tight_cfg);
        tight.submit(request(1, 60, 10));
        tight.submit(request(2, 60, 10));
        let got = tight.run_to_completion(100_000);
        assert!(got.preemptions > 0);
        assert_eq!(got.completed, want.completed);
    }

    #[test]
    fn swap_preemption_matches_replay_and_reports_migrations() {
        // Same tight-pool workload as `preemption_does_not_change_tokens`, but
        // under PreemptionPolicy::Swap: victims demote their page set instead
        // of releasing it and resume by promotion — outputs must still be
        // bit-identical, and the tier counters must show real traffic.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let run = |policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
            scfg.chunk_tokens = 16;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = policy;
            let mut sched = scheduler(cfg.clone(), scfg);
            sched.submit(request(1, 60, 10));
            sched.submit(request(2, 60, 10));
            let r = sched.run_to_completion(100_000);
            assert_eq!(sched.pool_in_use(), 0, "hot pages leaked under {policy:?}");
            assert_eq!(
                sched.pool_cold_in_use(),
                0,
                "cold pages leaked under {policy:?}"
            );
            r
        };
        let replay = run(PreemptionPolicy::Replay);
        let swap = run(PreemptionPolicy::Swap);
        assert!(
            swap.preemptions > 0,
            "pool pressure must trigger preemption"
        );
        assert_eq!(swap.completed, replay.completed, "swap changed outputs");
        assert!(swap.pages_demoted > 0, "swap must demote victim pages");
        assert!(swap.pages_promoted > 0, "resume must promote them back");
        assert!(swap.peak_cold_pages > 0);
        assert_eq!(swap.preemption, PreemptionPolicy::Swap);
        assert_eq!(replay.pages_demoted, 0, "replay never touches the tiers");
        assert_eq!(replay.swap_resume_work_tokens, 0);
        // The resume-cost accounting is mode-split: sync migration charges
        // the promotion to the work clock at resume; the async copy engine
        // hides it behind re-admission compute instead (CI runs both legs).
        match swap.migration {
            MigrationMode::Sync => {
                assert!(swap.swap_resume_work_tokens > 0, "resume work accounted");
                // The whole point: resuming by transfer is far cheaper than
                // replaying the victim's context through the forward pass.
                let replayed_tokens: u64 = 60 + 10; // one victim replay, upper bound
                assert!(
                    swap.swap_resume_work_tokens < replayed_tokens,
                    "swap resume ({}) should undercut replay (~{replayed_tokens})",
                    swap.swap_resume_work_tokens
                );
            }
            MigrationMode::Async => {
                assert_eq!(
                    swap.swap_resume_work_tokens, 0,
                    "async resume promotions ride the copy engine, not the clock"
                );
                assert!(
                    swap.hidden_transfer_tokens > 0,
                    "overlapped resume transfers must be hidden"
                );
                // This pool holds one sequence, so the scene has one right
                // schedule: the victim goes out once, every unit of that
                // hidden behind the survivor's decode steps, and comes back
                // once the survivor is done — when its next step fits and
                // nothing is left running to hide the swap-in behind. A
                // second preemption is a resume taken before its step fit (5
                // of them bought the 0.83 overlap this scene once reported);
                // any other split of the units is a swap-out that stalled.
                assert_eq!(swap.preemptions, 1);
                assert_eq!(swap.pages_promoted, swap.pages_demoted);
                let one_way = lserve_kvcache::transfer_cost_tokens(
                    swap.pages_demoted * cfg.paging.physical_page_size() as u64,
                );
                assert_eq!(swap.hidden_transfer_tokens, one_way, "swap-out hidden");
                assert_eq!(swap.migration_stall_tokens, one_way, "swap-in not");
            }
        }
    }

    #[test]
    fn swap_preemption_never_demotes_shared_prefix_pages() {
        // A victim seeded from the prefix cache co-owns its prefix pages with
        // the tree. Swapping it out must leave those pages hot (the tree's
        // readers may need them) and demote only the sole-owned suffix.
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        scfg.preemption = PreemptionPolicy::Swap;
        let mut sched = scheduler(cfg, scfg);
        sched.submit(request(1, 32, 4));
        sched.run_to_completion(10_000);
        assert!(sched.prefix_cache_entries() > 0);
        let tree_pages = sched.pool_in_use();
        // Manually drive a second consumer to a running state, then swap it.
        sched.submit(request(2, 32, 30));
        while sched.running() == 0 {
            sched.step();
        }
        let report = sched.report_snapshot();
        let done = report.request_metrics.iter().any(|m| m.id == 2);
        assert!(!done, "request 2 still running");
        sched.preempt_index(0);
        assert_eq!(sched.running(), 0);
        assert!(
            sched.pool_in_use() >= tree_pages,
            "co-owned prefix pages must stay hot through a swap-out"
        );
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 2, "rejected: {:?}", r.rejected);
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0);
        assert_eq!(sched.pool_cold_in_use(), 0);
    }

    #[test]
    fn swap_victim_choice_prefers_fewest_sole_owned_hot_pages() {
        // Two running sequences of very different page footprints: under Swap
        // the cheap victim (fewer sole-owned hot pages) is chosen, under
        // Replay the least entitled (latest arrival).
        let run = |policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(8192);
            scfg.chunk_tokens = 64;
            scfg.preemption = policy;
            let mut sched = scheduler(small_page_dense(), scfg);
            sched.submit(request(1, 60, 10)); // large context, earliest arrival
            sched.submit(request(2, 8, 10)); // small context
            sched.step(); // both admitted and prefilled (chunk covers both)
            assert_eq!(sched.running(), 2);
            let victim = sched.pick_victim(None).expect("two candidates");
            sched.running[victim].core.spec.id
        };
        assert_eq!(
            run(PreemptionPolicy::Swap),
            2,
            "swap must pick the cheapest victim (fewest sole-owned hot pages)"
        );
        assert_eq!(
            run(PreemptionPolicy::Replay),
            2,
            "replay picks the least entitled (latest) arrival"
        );
        // With the arrivals reversed — the large sequence arriving last — the
        // two policies diverge: replay still takes the latest arrival (the
        // large one), swap takes the cheap one.
        let run_rev = |policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(8192);
            scfg.chunk_tokens = 64;
            scfg.preemption = policy;
            let mut sched = scheduler(small_page_dense(), scfg);
            sched.submit(request(1, 8, 10)); // small context, earliest arrival
            sched.submit(request(2, 60, 10)); // large context, latest arrival
            sched.step();
            assert_eq!(sched.running(), 2);
            let victim = sched.pick_victim(None).expect("two candidates");
            sched.running[victim].core.spec.id
        };
        assert_eq!(run_rev(PreemptionPolicy::Replay), 2);
        assert_eq!(
            run_rev(PreemptionPolicy::Swap),
            1,
            "swap-cost choice must override arrival order"
        );
    }

    #[test]
    fn victim_selection_spares_interactive_class() {
        // An interactive sequence is never preempted while a batch sequence
        // runs, regardless of arrival order or page footprint.
        for policy in [PreemptionPolicy::Replay, PreemptionPolicy::Swap] {
            let mut scfg = SchedulerConfig::new(8192);
            scfg.chunk_tokens = 64;
            scfg.preemption = policy;
            let mut sched = scheduler(EngineConfig::dense(), scfg);
            sched.submit(request(1, 8, 10).class(SloClass::Interactive));
            sched.submit(request(2, 60, 10)); // batch, huge footprint
            sched.step();
            assert_eq!(sched.running(), 2);
            let victim = sched.pick_victim(None).expect("two candidates");
            assert_eq!(
                sched.running[victim].core.spec.id, 2,
                "the batch sequence must lose under {policy:?}"
            );
        }
    }
}
