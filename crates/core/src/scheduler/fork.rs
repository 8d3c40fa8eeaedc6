//! The request DAG on the scheduler: forking a running sequence into
//! speculative branches that CoW-share every page up to the fork point, join
//! resolution, and the cancel flags a resolved join or a cascade sets.

use lserve_trace::lane;

use super::{Feed, Scheduler};
use crate::api::{RequestSpec, SloClass};
use crate::dag::{BranchSpec, ForkError, ForkOutcome, JoinPolicy, JoinStatus};

impl Scheduler {
    /// Forks a *running* sequence into speculative branches that CoW-share
    /// every page up to the fork point.
    ///
    /// Each branch gets a [`crate::SequenceState::clone_shared`] snapshot of the
    /// parent — page tables, streaming rings, selector history, position
    /// counters — with one extra reference taken on every page and **zero
    /// pages copied** (copy-on-write happens lazily when either side appends
    /// into a shared page). The branch's effective prompt is the parent's
    /// full token history at the fork point (`prompt ++ generated`) followed
    /// by the branch suffix; the snapshot enters the queue parked like a
    /// swap victim, so admission promotes it at its *incremental* cost (zero
    /// for a fully-hot snapshot) and its first event is `Admitted`.
    ///
    /// Branches race under [`SloClass::BestEffort`]. When the group's
    /// [`JoinPolicy`] resolves, losers are cancelled with prefix donation so
    /// the winner's shared pages stay warm; track resolution with
    /// [`Scheduler::join_status`]. A branch's [`BranchSpec::sparsity`]
    /// override applies from the fork point onward, so a surviving branch is
    /// bit-identical to a solo run of its full history with the same
    /// override scheduled at the same position
    /// ([`RequestSpec::sparsity_from`]).
    ///
    /// # Errors
    ///
    /// [`ForkError::ParentNotRunning`] unless `parent` is currently in the
    /// running batch (fork is a live-sequence operation; queued or terminal
    /// parents have no snapshot to share), [`ForkError::NoBranches`] for an
    /// empty branch list, [`ForkError::DuplicateId`] for a branch id the
    /// scheduler already knows (or repeated within the call), and
    /// [`ForkError::InvalidBranch`] for a zero decode budget or a
    /// streaming-window override (children inherit the parent's rings —
    /// windows are admission-time-only).
    pub fn fork(
        &mut self,
        parent: u64,
        policy: JoinPolicy,
        branches: &[BranchSpec],
    ) -> Result<ForkOutcome, ForkError> {
        if branches.is_empty() {
            return Err(ForkError::NoBranches);
        }
        let Some(pi) = self.running.iter().position(|s| s.core.spec.id == parent) else {
            return Err(ForkError::ParentNotRunning(parent));
        };
        for (bi, b) in branches.iter().enumerate() {
            if self.index.contains_key(&b.id) || branches[..bi].iter().any(|o| o.id == b.id) {
                return Err(ForkError::DuplicateId(b.id));
            }
            if b.max_new_tokens == 0 || b.sparsity.streaming_window.is_some() {
                return Err(ForkError::InvalidBranch(b.id));
            }
        }
        let (full, absorbed, parent_schedule) = {
            let p = &self.running[pi];
            let mut full = p.core.prompt.clone();
            full.extend_from_slice(&p.generated);
            (
                full,
                p.feed.state.context_len(),
                p.feed.state.sparsity_schedule().clone(),
            )
        };
        debug_assert!(absorbed <= full.len(), "snapshot never ahead of history");
        self.scfg.tracer.instant(
            "fork",
            "dag",
            lane::DAG,
            parent,
            &[("branches", branches.len() as u64), ("at", absorbed as u64)],
        );
        let members: Vec<(u64, i64)> = branches.iter().map(|b| (b.id, b.score_bias)).collect();
        let group = self.dag.fork(parent, policy, &members);
        let mut handles = Vec::with_capacity(branches.len());
        for b in branches {
            // The CoW snapshot: clone the parent's tables/rings/selectors and
            // take one extra reference per page — refcounts rise, `in_use`
            // does not (pinned by the pool-accounting test).
            let mut snapshot = self.running[pi].feed.state.clone_shared();
            self.pool.retain_all(snapshot.page_ids());
            // The branch replays the parent's budget timeline and adds its
            // own override from the fork point (= the parent's full history
            // length, so the parent's still-pending token is fed under the
            // budget the parent itself would have used).
            let mut schedule = parent_schedule.clone();
            schedule.push(full.len(), b.sparsity);
            snapshot.set_sparsity_schedule(schedule.clone());
            let mut prompt = full.clone();
            prompt.extend_from_slice(&b.suffix);
            let mut spec = RequestSpec::new(b.id, prompt.clone())
                .max_new_tokens(b.max_new_tokens)
                .class(SloClass::BestEffort);
            spec.stop_tokens = b.stop_tokens.clone();
            spec.sparsity = schedule;
            self.scfg.tracer.instant(
                "branch.spawn",
                "dag",
                lane::DAG,
                b.id,
                &[("suffix", b.suffix.len() as u64)],
            );
            let parked = Feed {
                state: snapshot,
                fed: absorbed,
                resume_feed: Vec::new(),
                last_token: None,
            };
            handles.push(self.enqueue_new(spec, prompt, Some(parked)));
        }
        Ok(ForkOutcome { group, handles })
    }

    /// Resolution state of fork group `group` (the id in [`ForkOutcome`]):
    /// whether the join policy has fired, and the winning branch id if any
    /// branch finished.
    pub fn join_status(&self, group: u64) -> Option<JoinStatus> {
        self.dag.join_status(group)
    }

    /// Sets the cooperative cancel flag on a live request on behalf of the
    /// DAG (join-policy losers and cascade-cancel victims); the cancellation
    /// lands at the next `apply_cancellations` boundary, with prefix donation
    /// like any user cancellation. No-op for ids that are already terminal.
    pub(super) fn flag_branch_cancel(&mut self, id: u64) {
        let running = self.running.iter().map(|s| &s.core);
        let mut live = running.chain(self.queue.iter().map(|q| &q.core));
        if let Some(core) = live.find(|core| core.spec.id == id) {
            core.handle.cancel();
            self.scfg
                .tracer
                .instant("branch.cancel", "dag", lane::DAG, id, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use lserve_kvcache::StreamingWindow;

    use super::super::test_support::*;
    use super::*;
    use crate::dag::SparsityOverride;
    use crate::report::ServingReport;

    /// Output tokens drained so far from a handle's event stream.
    fn drained_tokens(events: &[ServingEvent]) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                ServingEvent::FirstToken { token } | ServingEvent::Token { token } => Some(*token),
                _ => None,
            })
            .collect()
    }

    /// Steps `sched` until request `parent` has generated at least `want`
    /// tokens, returning the tokens seen so far (the fork-time history).
    fn run_until_generated(sched: &mut Scheduler, h: &RequestHandle, want: usize) -> Vec<u32> {
        let mut got = Vec::new();
        for _ in 0..1000 {
            if got.len() >= want {
                return got;
            }
            sched.step();
            got.extend(drained_tokens(&h.drain_events()));
        }
        panic!("parent never generated {want} tokens (got {})", got.len());
    }

    #[test]
    fn fork_is_zero_copy_and_branches_admit_free() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 12));
        run_until_generated(&mut sched, &hp, 3);

        let in_use_before = sched.pool_in_use();
        assert!(in_use_before > 0, "parent holds pages");
        let out = sched
            .fork(
                1,
                JoinPolicy::All,
                &[
                    BranchSpec::new(2, vec![50, 51]).max_new_tokens(4),
                    BranchSpec::new(3, vec![52, 53]).max_new_tokens(4),
                ],
            )
            .unwrap();
        // Acceptance: zero page copies at fork time. Every branch CoW-shares
        // the parent's pages, so refcounts rise but `in_use` does not.
        assert_eq!(
            sched.pool_in_use(),
            in_use_before,
            "fork must not allocate or copy pages"
        );
        assert_eq!(out.handles.len(), 2);

        // A branch's snapshot is fully hot, so admission is free: its first
        // event is `Admitted` (never `Resumed` — it was never preempted).
        sched.step();
        let first = out.handles[0].drain_events();
        assert_eq!(first.first(), Some(&ServingEvent::Admitted));

        let r = sched.run_to_completion(100_000);
        assert_eq!(r.dag.forks, 1);
        assert_eq!(r.dag.branches_spawned, 2);
        assert_eq!(r.dag.joins, 1, "All policy resolves once");
        assert_eq!(r.completed.len(), 3);
        assert_eq!(sched.pool_in_use(), 0, "all pages returned");
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved);
        assert!(js.winner.is_some());
    }

    #[test]
    fn surviving_branch_matches_solo_replay() {
        // A branch forked mid-decode — with or without a per-branch sparsity
        // override — must emit exactly the tokens of a solo run over its full
        // token history with the same positional schedule.
        let cfg = EngineConfig::lserve_with_budget(16);
        let mk = || {
            let mut scfg = SchedulerConfig::new(4096);
            scfg.chunk_tokens = 8;
            scfg
        };
        let mut sched = scheduler(cfg.clone(), mk());
        let hp = sched.submit(request(1, 16, 24));
        let gen_at_fork = run_until_generated(&mut sched, &hp, 3);
        let boundary = 16 + gen_at_fork.len();
        let over = SparsityOverride::none().with_budget(8);
        sched
            .fork(
                1,
                JoinPolicy::All,
                &[
                    BranchSpec::new(2, vec![60, 61, 62])
                        .max_new_tokens(6)
                        .sparsity(over),
                    BranchSpec::new(3, vec![63, 64, 65]).max_new_tokens(6),
                ],
            )
            .unwrap();
        let r = sched.run_to_completion(100_000);
        let branch_out = |id: u64| {
            r.completed
                .iter()
                .find(|(i, _)| *i == id)
                .unwrap_or_else(|| panic!("branch {id} completed"))
                .1
                .clone()
        };

        // Solo reference: same full history, same positional schedule.
        let mut history = request(1, 16, 0).prompt;
        history.extend_from_slice(&gen_at_fork);
        for (id, suffix, over) in [
            (2u64, vec![60, 61, 62], Some(over)),
            (3u64, vec![63, 64, 65], None),
        ] {
            let mut solo = scheduler(cfg.clone(), mk());
            let mut prompt = history.clone();
            prompt.extend_from_slice(&suffix);
            let mut spec = RequestSpec::new(id, prompt).max_new_tokens(6);
            if let Some(over) = over {
                spec = spec.sparsity_from(boundary, over);
            }
            solo.submit(spec);
            let solo_r = solo.run_to_completion(100_000);
            assert_eq!(
                branch_out(id),
                solo_r.completed[0].1,
                "branch {id} must be bit-identical to its solo replay"
            );
        }
    }

    #[test]
    fn first_finished_join_cancels_losers_with_donation() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 8));
        run_until_generated(&mut sched, &hp, 2);
        let out = sched
            .fork(
                1,
                JoinPolicy::FirstFinished,
                &[
                    BranchSpec::new(2, vec![40]).max_new_tokens(2),
                    BranchSpec::new(3, vec![41]).max_new_tokens(40),
                ],
            )
            .unwrap();
        let h3 = out.handles[1].clone();
        let r = sched.run_to_completion(100_000);
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved);
        assert_eq!(js.winner, Some(2), "the short branch finishes first");
        assert_eq!(sched.status(2), Some(RequestStatus::Finished(branch2(&r))));
        assert!(matches!(sched.status(3), Some(RequestStatus::Cancelled(_))));
        assert!(h3
            .drain_events()
            .iter()
            .any(|e| matches!(e, ServingEvent::Cancelled { .. })));
        assert_eq!(r.dag.joins, 1);
        assert!(r.dag.branch_cancels >= 1, "the loser was cascade-cancelled");
        // Losers without sparsity overrides donate their prefix on the way out.
        assert!(sched.prefix_cache_entries() > 0);
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0, "only cache-held pages remained");
    }

    fn branch2(r: &ServingReport) -> Vec<u32> {
        r.completed
            .iter()
            .find(|(id, _)| *id == 2)
            .expect("branch 2 completed")
            .1
            .clone()
    }

    #[test]
    fn cancelling_parent_cascades_to_live_branches() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 200));
        run_until_generated(&mut sched, &hp, 2);
        let out = sched
            .fork(
                1,
                JoinPolicy::All,
                &[
                    BranchSpec::new(2, vec![40]).max_new_tokens(100),
                    BranchSpec::new(3, vec![41]).max_new_tokens(100),
                ],
            )
            .unwrap();
        hp.cancel();
        let r = sched.run_to_completion(100_000);
        assert!(matches!(sched.status(1), Some(RequestStatus::Cancelled(_))));
        assert!(matches!(sched.status(2), Some(RequestStatus::Cancelled(_))));
        assert!(matches!(sched.status(3), Some(RequestStatus::Cancelled(_))));
        assert_eq!(r.dag.branch_cancels, 2);
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved, "a fully-cancelled group still resolves");
        assert_eq!(js.winner, None);
        assert_eq!(sched.pool_in_use(), 0);
    }

    #[test]
    fn best_score_join_picks_biased_winner() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 8));
        run_until_generated(&mut sched, &hp, 2);
        let out = sched
            .fork(
                1,
                JoinPolicy::BestScore,
                &[
                    BranchSpec::new(2, vec![40]).max_new_tokens(3),
                    BranchSpec::new(3, vec![41])
                        .max_new_tokens(3)
                        .score_bias(100),
                    BranchSpec::new(4, vec![42]).max_new_tokens(3),
                ],
            )
            .unwrap();
        let r = sched.run_to_completion(100_000);
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved);
        assert_eq!(js.winner, Some(3), "bias dominates equal token counts");
        // BestScore waits for the whole panel: nobody is cancelled.
        assert_eq!(r.dag.branch_cancels, 0);
        assert_eq!(r.completed.len(), 4);
    }

    #[test]
    fn fork_rejects_invalid_requests() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        assert_eq!(
            sched
                .fork(9, JoinPolicy::All, &[BranchSpec::new(2, vec![1])])
                .unwrap_err(),
            ForkError::ParentNotRunning(9)
        );
        let hp = sched.submit(request(1, 16, 8));
        run_until_generated(&mut sched, &hp, 1);
        assert_eq!(
            sched.fork(1, JoinPolicy::All, &[]).unwrap_err(),
            ForkError::NoBranches
        );
        assert_eq!(
            sched
                .fork(1, JoinPolicy::All, &[BranchSpec::new(1, vec![1])])
                .unwrap_err(),
            ForkError::DuplicateId(1),
            "an id the scheduler already knows is rejected"
        );
        assert_eq!(
            sched
                .fork(
                    1,
                    JoinPolicy::All,
                    &[BranchSpec::new(2, vec![1]), BranchSpec::new(2, vec![2])]
                )
                .unwrap_err(),
            ForkError::DuplicateId(2),
            "intra-batch duplicates are rejected"
        );
        assert_eq!(
            sched
                .fork(
                    1,
                    JoinPolicy::All,
                    &[BranchSpec::new(2, vec![1]).max_new_tokens(0)]
                )
                .unwrap_err(),
            ForkError::InvalidBranch(2)
        );
        assert_eq!(
            sched
                .fork(
                    1,
                    JoinPolicy::All,
                    &[BranchSpec::new(2, vec![1]).sparsity(
                        SparsityOverride::none().with_window(StreamingWindow::new(1, 2))
                    )]
                )
                .unwrap_err(),
            ForkError::InvalidBranch(2),
            "window overrides are admission-time-only"
        );
        // A failed fork leaves no trace: the scheduler still drains cleanly.
        let r = sched.run_to_completion(100_000);
        assert_eq!(r.dag.forks, 0);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(sched.pool_in_use(), 0);
    }
}
