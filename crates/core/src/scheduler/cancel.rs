//! Cooperative cancellation, applied at the step boundary: running and queued
//! victims donate what they completed, release their pages and get their
//! terminal event; a cancelled parent takes its speculative subtree with it.

use super::{Phase, QueuedSeq, SchedSeq, Scheduler, SeqCore};
use crate::api::ServingEvent;

impl Scheduler {
    /// Acts on every pending [`RequestHandle::cancel`] at the step boundary:
    /// running victims donate their completed prefix to the cache (when
    /// enabled) and release their pages; queued victims release any swapped
    /// state. Each gets its terminal [`ServingEvent::Cancelled`] carrying the
    /// output produced so far.
    pub(super) fn apply_cancellations(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].core.handle.cancel_requested() {
                let seq = self.running.remove(i);
                self.cancel_running(seq);
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < self.queue.len() {
            if self.queue[j].core.handle.cancel_requested() {
                let q = self.queue.remove(j).expect("index in bounds");
                self.cancel_queued(q);
            } else {
                j += 1;
            }
        }
    }

    fn cancel_running(&mut self, mut seq: SchedSeq) {
        // Loser branches land here when a join policy cancels them: the
        // donation keeps the fork prefix (and the shared pages under it) warm
        // for the winner and for future forks.
        self.donate_tokens(&seq.core, &seq.generated, &seq.feed.state);
        seq.feed.state.release(&mut self.pool);
        self.close_phase("running", seq.core.spec.id, seq.progress.trace_mark, &[]);
        self.finish_cancelled(seq.core, seq.generated);
    }

    fn cancel_queued(&mut self, mut q: QueuedSeq) {
        if let Some(mut swap) = q.swap.take() {
            // The parked state is clean, so its completed prefix is donatable
            // like any other; its pages may sit in the cold tier, which the
            // prefix contract supports (a later consumer's residency pass
            // promotes on first use).
            self.donate_tokens(&q.core, &q.generated, &swap.state);
            swap.state.release(&mut self.pool);
        }
        self.close_phase("queued", q.core.spec.id, q.progress.trace_mark, &[]);
        self.finish_cancelled(q.core, q.generated);
    }

    fn finish_cancelled(&mut self, core: SeqCore, output: Vec<u32>) {
        self.note("cancel", core.spec.id, &[("tokens", output.len() as u64)]);
        core.handle.push(ServingEvent::Cancelled {
            tokens: output.clone(),
        });
        self.index
            .insert(core.spec.id, Phase::Cancelled(self.report.cancelled.len()));
        self.report.cancelled.push((core.spec.id, output));
        // Cascade-cancel: cancelling a request takes its whole speculative
        // subtree with it (the descendants' results can never be consumed).
        let cascade = self.dag.on_cancelled(core.spec.id);
        for id in cascade {
            self.flag_branch_cancel(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn cancel_mid_flight_releases_pages_and_survivor_matches_solo() {
        let w = weights();
        let cfg = EngineConfig::dense();
        // Solo reference for the survivor.
        let mut solo_cfg = SchedulerConfig::new(8192);
        solo_cfg.chunk_tokens = 8;
        let mut solo = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            solo_cfg,
        );
        solo.submit(request(2, 30, 10));
        let want = solo.run_to_completion(10_000).completed[0].1.clone();

        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        let victim = sched.submit(request(1, 40, 20));
        sched.submit(request(2, 30, 10));
        for _ in 0..4 {
            sched.step();
        }
        victim.cancel();
        victim.cancel(); // idempotent
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0], (2, want));
        assert_eq!(r.cancelled.len(), 1);
        assert_eq!(r.cancelled[0].0, 1);
        assert_eq!(sched.pool_in_use(), 0, "cancelled pages must be released");
        match sched.status(1) {
            Some(RequestStatus::Cancelled(tokens)) => assert_eq!(tokens, r.cancelled[0].1),
            other => panic!("expected cancelled, got {other:?}"),
        }
        match victim.drain_events().last() {
            Some(ServingEvent::Cancelled { tokens }) => assert_eq!(tokens, &r.cancelled[0].1),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancel_queued_request_never_runs() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.max_batch = 1;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 24, 30));
        let queued = sched.submit(request(2, 24, 4));
        sched.step();
        assert_eq!(sched.status(2), Some(RequestStatus::Queued));
        queued.cancel();
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.cancelled, vec![(2, vec![])]);
        assert_eq!(
            queued.drain_events(),
            vec![ServingEvent::Cancelled { tokens: vec![] }]
        );
    }

    #[test]
    fn cancel_donates_completed_prefix_to_cache() {
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg, scfg);
        let handle = sched.submit(request(1, 48, 20));
        // Step until the prompt is partially fed, then cancel mid-flight.
        for _ in 0..3 {
            sched.step();
        }
        handle.cancel();
        sched.step();
        assert!(handle.is_terminal());
        assert!(
            sched.prefix_cache_entries() > 0,
            "cancellation must donate the completed prefix"
        );
        // A follow-up with the same prompt starts warm from the donation.
        sched.submit(request(2, 48, 4));
        let r = sched.run_to_completion(10_000);
        let m2 = r.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m2.cached_prompt_tokens > 0,
            "follow-up must hit the cancelled request's donated prefix"
        );
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0);
        assert_eq!(sched.pool_cold_in_use(), 0);
    }

    #[test]
    fn cancel_swapped_queued_victim_releases_cold_pages() {
        // Drive a victim into the swap-parked state, cancel it there, and
        // verify both tiers drain.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);
        let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = PreemptionPolicy::Swap;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        let h1 = sched.submit(request(1, 60, 10));
        let h2 = sched.submit(request(2, 60, 10));
        // Run until one of them has been swap-preempted.
        for _ in 0..200 {
            sched.step();
            if sched.pool_cold_in_use() > 0 {
                break;
            }
        }
        assert!(sched.pool_cold_in_use() > 0, "no swap-out happened");
        let parked = if matches!(sched.status(1), Some(RequestStatus::Queued)) {
            &h1
        } else {
            assert_eq!(sched.status(2), Some(RequestStatus::Queued));
            &h2
        };
        parked.cancel();
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len() + r.cancelled.len(), 2);
        assert_eq!(r.cancelled.len(), 1);
        assert_eq!(sched.pool_in_use(), 0);
        assert_eq!(sched.pool_cold_in_use(), 0, "cold pages must drain");
    }
}
