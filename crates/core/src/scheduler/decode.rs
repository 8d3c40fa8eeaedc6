//! One decode token for every sequence whose feed is complete: exact page
//! reservation (preempting on pressure), the batched step, token emission with
//! stop conditions, and completion.

use std::sync::Arc;

use lserve_model::greedy_next_token;
use lserve_trace::lane;

use super::{Phase, SchedSeq, Scheduler};
use crate::api::{FinishReason, ServingEvent};
use crate::executor::Run;
use crate::report::RequestMetrics;

impl Scheduler {
    /// Reserve pages for one decode token per ready sequence, preempting the
    /// cost- and class-chosen victim until demand fits, then run the batched
    /// decode step.
    pub(super) fn decode_phase(&mut self, now: u64) {
        let exec = Arc::clone(&self.exec);
        let reserved = loop {
            let demand: usize = self
                .running
                .iter()
                .filter(|s| s.feed.last_token.is_some())
                .map(|s| exec.step_page_demand(&s.feed.state, &self.pool))
                .sum();
            if demand <= self.pool.free_pages() {
                break demand;
            }
            // Cached-but-idle prefixes go first; preemption is the last resort.
            if self.evict_prefix_one() {
                continue;
            }
            if self.running.len() <= 1 {
                // Before truncating the lone sequence, get swap-parked
                // states that still hold hot pages out of the hot tier —
                // what the Replay policy would already have freed at
                // preemption time — which keeps bounded-memory truncation
                // policy-independent.
                if self.spill_swapped_queue(demand) {
                    continue;
                }
                // Then reclaim every page the cache still holds exclusively.
                if self.evict_prefix_all() {
                    continue;
                }
                // Nothing to preempt in favor of: the lone sequence cannot grow any
                // further. Finish it with what it has (bounded-memory truncation).
                if let Some(seq) = self.running.pop() {
                    self.complete(seq, FinishReason::Truncated);
                }
                return;
            }
            // Progress guarantee: the best-ranked running sequence is never a
            // victim here, so the most entitled live request always advances —
            // without this, the swap-cost choice could ping-pong a cheap
            // victim through resume/preempt cycles forever.
            let best = self
                .running
                .iter()
                .map(|s| s.core.key)
                .min()
                .expect("running list non-empty");
            let preempted = self.make_room_below(best);
            assert!(
                preempted,
                "more than one running sequence with unique ranks"
            );
        };
        // Batched decode: one token for every sequence whose feed is complete.
        let mut batch_idx: Vec<usize> = Vec::new();
        let mut batch: Vec<Run<'_>> = Vec::new();
        for (i, seq) in self.running.iter_mut().enumerate() {
            if let Some(t) = seq.feed.last_token.as_ref() {
                batch_idx.push(i);
                batch.push((&mut seq.feed.state, std::slice::from_ref(t)));
            }
        }
        if batch.is_empty() {
            return;
        }
        let results = exec.decode_batch_reserved(
            &mut self.pool,
            &mut batch,
            self.scfg.decode_threads,
            &mut self.plan,
            &mut self.report.parallel,
            reserved,
        );
        drop(batch);
        // Walk results in reverse index order so removals (completion, fallback
        // preemption) do not shift the indices still to be visited.
        for (&i, result) in batch_idx.iter().zip(results.iter()).rev() {
            match result {
                Ok(out) => {
                    self.report.decode_steps += 1;
                    self.work_tokens += 1;
                    let next = greedy_next_token(&out.logits);
                    self.emit_token(i, next, now);
                }
                Err(_) => {
                    // The batch's `step_page_demand` was reserved above and
                    // the executor spends free slots only within it: only an
                    // exchange a full bounded host (no nvme) refused reaches
                    // this arm. Replay, never swap: the state is unclean.
                    self.report.unclean_replays += 1;
                    self.preempt_index_replay(i);
                }
            }
        }
    }

    /// Records a newly generated token for running sequence `i`: streams the
    /// token event, applies stop conditions, and completes the request when it
    /// hits a stop or its token budget.
    pub(super) fn emit_token(&mut self, i: usize, token: u32, now: u64) {
        let work_now = self.work_tokens;
        let seq = &mut self.running[i];
        debug_assert!(seq.generated.len() < seq.core.spec.max_new_tokens);
        seq.generated.push(token);
        seq.feed.last_token = Some(token);
        let finished = if seq.core.spec.stop_tokens.contains(&token) {
            // The stop token terminates generation and is excluded from the
            // output (it is never streamed).
            Some(FinishReason::StopToken)
        } else {
            let first = seq.progress.first_token.is_none();
            if first {
                seq.progress.first_token = Some((now, work_now));
            }
            seq.progress.last_token_iter = now;
            // (Not `self.note`: `seq` holds `self.running` mutably.)
            self.scfg.tracer.instant(
                if first { "first_token" } else { "token" },
                "scheduler",
                lane::SCHEDULER,
                seq.core.spec.id,
                &[],
            );
            seq.core.handle.push(if first {
                ServingEvent::FirstToken { token }
            } else {
                ServingEvent::Token { token }
            });
            let stops = &seq.core.spec.stop_sequences;
            if stops
                .iter()
                .any(|s| !s.is_empty() && seq.generated.ends_with(s))
            {
                Some(FinishReason::StopSequence)
            } else if seq.generated.len() >= seq.core.spec.max_new_tokens {
                Some(FinishReason::Length)
            } else {
                None
            }
        };
        if let Some(reason) = finished {
            let seq = self.running.remove(i);
            self.complete(seq, reason);
        }
    }

    /// Releases a finished sequence — donating its conversation (prompt plus
    /// absorbed generated tokens) into the prefix cache first, so follow-up turns
    /// that extend this conversation start from its pages — then records its
    /// report entries, terminal event, and (for session requests) the session's
    /// updated conversation.
    pub(super) fn complete(&mut self, mut seq: SchedSeq, reason: FinishReason) {
        self.donate_tokens(&seq.core, &seq.generated, &seq.feed.state);
        seq.feed.state.release(&mut self.pool);
        let mut output = seq.generated;
        if reason == FinishReason::StopToken {
            output.pop();
        }
        let (id, p) = (seq.core.spec.id, seq.progress);
        self.close_phase("running", id, p.trace_mark, &[]);
        self.note("finish", id, &[("tokens", output.len() as u64)]);
        let (first_iter, first_work) = p.first_token.unzip();
        let ttft_work = first_work.map_or(0, |first| first - p.submit_work);
        let deadline = seq.core.spec.deadline_work_tokens;
        self.report.request_metrics.push(RequestMetrics {
            id,
            class: seq.core.spec.class,
            finish: reason,
            ttft_iters: first_iter.map_or(0, |first| first - p.submit_iter),
            ttft_work_tokens: ttft_work,
            decode_span_iters: first_iter.map_or(0, |first| p.last_token_iter - first),
            tokens: output.len(),
            preemptions: p.preemptions,
            cached_prompt_tokens: p.cached_tokens,
            deadline_work_tokens: deadline,
            deadline_met: deadline.map(|d| first_work.is_some() && ttft_work <= d),
        });
        if let Some(sid) = seq.core.spec.session {
            let mut conversation = seq.core.prompt.clone();
            conversation.extend_from_slice(&output);
            self.sessions.insert(sid, conversation);
        }
        seq.core.handle.push(ServingEvent::Finished {
            reason,
            tokens: output.clone(),
        });
        self.index
            .insert(id, Phase::Finished(self.report.completed.len()));
        // Join bookkeeping: a finishing branch may resolve its fork group,
        // in which case the policy's losers get their cancel flags now and
        // are cancelled (with prefix donation) at the next step boundary.
        let joins_before = self.dag.stats().joins;
        let losers = self.dag.on_finished(seq.core.spec.id, output.len());
        if self.dag.stats().joins > joins_before {
            self.scfg.tracer.instant(
                "join",
                "dag",
                lane::DAG,
                seq.core.spec.id,
                &[("losers", losers.len() as u64)],
            );
        }
        for id in losers {
            self.flag_branch_cancel(id);
        }
        self.report.completed.push((seq.core.spec.id, output));
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;

    #[test]
    fn stop_token_truncates_output_and_is_never_streamed() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg.clone());
        sched.submit(request(1, 20, 8));
        let reference = sched.run_to_completion(10_000).completed[0].1.clone();
        assert_eq!(reference.len(), 8);
        let stop_at = 4;
        let stop = reference[stop_at];
        // Guard against an earlier occurrence making the expectation ambiguous.
        assert!(!reference[..stop_at].contains(&stop));

        let mut sched2 = scheduler(EngineConfig::lserve_fp16(), scfg);
        let handle = sched2.submit(request(2, 20, 8).stop_token(stop));
        let r = sched2.run_to_completion(10_000);
        assert_eq!(r.completed[0].1, reference[..stop_at].to_vec());
        let m = r.request_metrics[0];
        assert_eq!(m.finish, FinishReason::StopToken);
        assert_eq!(m.tokens, stop_at);
        let events = handle.drain_events();
        assert!(
            events
                .iter()
                .all(|e| !matches!(e, ServingEvent::FirstToken { token } | ServingEvent::Token { token } if *token == stop)),
            "the stop token must never be streamed"
        );
        match events.last() {
            Some(ServingEvent::Finished { reason, tokens }) => {
                assert_eq!(*reason, FinishReason::StopToken);
                assert_eq!(tokens, &reference[..stop_at].to_vec());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
    }

    #[test]
    fn stop_sequence_completes_inclusively() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg.clone());
        sched.submit(request(1, 20, 8));
        let reference = sched.run_to_completion(10_000).completed[0].1.clone();
        let stop_seq = reference[3..5].to_vec();

        let mut sched2 = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched2.submit(request(2, 20, 8).stop_sequence(stop_seq.clone()));
        let r = sched2.run_to_completion(10_000);
        // Inclusive semantics: output ends with the matched sequence (its
        // tokens were already streamed when the match completed).
        let out = &r.completed[0].1;
        assert!(out.ends_with(&stop_seq));
        assert_eq!(out, &reference[..5].to_vec());
        assert_eq!(r.request_metrics[0].finish, FinishReason::StopSequence);
    }

    #[test]
    fn report_metrics_track_latency_and_preemptions() {
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 32, 6)); // 4 feed iterations before the first token
        sched.submit(request(2, 4, 6));
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.request_metrics.len(), 2);
        let m1 = r.request_metrics[0];
        let m2 = r.request_metrics[1];
        assert_eq!((m1.id, m2.id), (1, 2));
        assert!(
            m1.ttft_iters > m2.ttft_iters,
            "longer prompt must have higher TTFT: {} vs {}",
            m1.ttft_iters,
            m2.ttft_iters
        );
        assert_eq!(m1.tokens, 6);
        assert_eq!(m2.tokens, 6);
        assert_eq!(m1.finish, FinishReason::Length);
        assert_eq!(m1.class, SloClass::Batch);
        assert_eq!(m1.deadline_met, None);
        // Decode proceeds one token per iteration once feeding is done (the first
        // iteration emits two tokens — feed completion plus one decode — so the
        // mean sits just below 1).
        assert!(m2.mean_tbt_iters() > 0.0 && m2.mean_tbt_iters() <= 1.0);
        assert_eq!(m1.preemptions + m2.preemptions, 0);
    }
}
