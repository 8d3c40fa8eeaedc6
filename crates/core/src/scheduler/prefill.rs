//! The feed loop of a running sequence's prompt (and, after a replay
//! preemption, its already-generated tokens): the fused first chunk over the
//! fixed tile grid, then page-bounded runs of rows through the decode path.

use std::sync::Arc;

use lserve_model::greedy_next_token;
use lserve_trace::lane;

use super::Scheduler;
use crate::api::{RejectReason, SloClass};

impl Scheduler {
    /// Feeds prompt (and resume) tokens, up to `chunk_tokens` per sequence per
    /// iteration, in rank order.
    ///
    /// The interactive shield: while an `Interactive` sequence is running
    /// (feeding or decoding) at the start of the phase, a `Batch` or
    /// `BestEffort` sequence feeds nothing, so no lower-class chunk lands in
    /// a step that serves an interactive token. A held sequence feeds again
    /// once no interactive one runs, or once the work clock passes its
    /// virtual deadline (`deadline_work_tokens`, else `no_deadline_slack`),
    /// so nothing starves: a lower-class first token waits on the shield at
    /// most until that deadline. With `class_aware` off every rank has
    /// class 0 and nothing is held.
    pub(super) fn prefill_phase(&mut self, now: u64) {
        let exec = Arc::clone(&self.exec);
        let interactive = SloClass::Interactive.rank();
        let shielded = self.running.iter().any(|s| s.core.key.class == interactive);
        let order: Vec<u64> = self.running.iter().map(|s| s.core.arrival).collect();
        for ar in order {
            // Re-locate: earlier work in this phase may have preempted sequences.
            let Some(i) = self.running.iter().position(|s| s.core.arrival == ar) else {
                continue;
            };
            if self.running[i].feed.fed >= self.running[i].feed_len() {
                continue;
            }
            let my_key = self.running[i].core.key;
            if shielded && my_key.class > interactive && self.work_tokens <= my_key.vdeadline {
                continue;
            }
            let mut budget = self.scfg.chunk_tokens;
            // First grid cell: fused tile prefill over the fixed tile grid (a pure
            // function of absolute token position), so replays after preemption and
            // prefix-cached peers compute bit-identical KV. Sequences seeded from
            // the prefix cache start with `fed > 0` and never take this path.
            if self.running[i].feed.fed == 0 {
                let boundary =
                    tile_grid_boundary(self.scfg.chunk_tokens, self.running[i].core.prompt.len());
                let need = exec.prefill_page_demand(&self.running[i].feed.state, boundary);
                while need > self.pool.free_pages() && self.relieve(need, Some(my_key)) {}
                if need > self.pool.free_pages() {
                    // Wait for a later iteration — unless this sequence is
                    // alone, in which case it can never fit and must fail.
                    if self.running.len() == 1 && self.queue.is_empty() {
                        let seq = self.running.remove(i);
                        self.finish_rejected(seq.core, RejectReason::TooLarge);
                    }
                    continue;
                }
                let tokens: Vec<u32> = (0..boundary)
                    .map(|t| self.running[i].feed_token(t))
                    .collect();
                let chunk_start = self.scfg.tracer.now();
                let out = exec
                    .prefill_threads(
                        &mut self.running[i].feed.state,
                        &mut self.pool,
                        &tokens,
                        self.scfg.decode_threads,
                        &mut self.report.parallel,
                    )
                    .expect("the chunk's pages are free");
                self.scfg.tracer.span(
                    "prefill.chunk",
                    "scheduler",
                    lane::SCHEDULER,
                    self.running[i].core.spec.id,
                    chunk_start,
                    &[("tokens", boundary as u64)],
                );
                self.running[i].feed.fed = boundary;
                self.work_tokens += boundary as u64;
                if self.scfg.prefix_cache {
                    self.report.prefix_recomputed_tokens += boundary as u64;
                }
                budget = budget.saturating_sub(boundary);
                self.maybe_donate(i);
                if self.running[i].feed.fed == self.running[i].feed_len() {
                    // The feed is consumed: its last logits are the next token.
                    self.emit_token(i, greedy_next_token(&out.logits), now);
                    continue;
                }
            }
            // Continuation: runs of rows through the decode path. A run ends
            // wherever feeding one token at a time would do anything but feed
            // the next token — the step's budget, the end of the feed, the
            // donation points of `maybe_donate` (the tile grid, the end of
            // the prompt) — and at a physical-page boundary: past it the next
            // token allocates, so `need` below, the run's first token's
            // demand, is the whole run's. Numerically independent of where
            // any iteration cuts its runs.
            let cont_start = self.scfg.tracer.now();
            let cont_id = self.running[i].core.spec.id;
            let mut cont_fed = 0u64;
            let page = self.pool.config().physical_page_size();
            let chunk = self.scfg.chunk_tokens;
            while budget > 0 && self.running[i].feed.fed < self.running[i].feed_len() {
                let need = exec.step_page_demand(&self.running[i].feed.state, &self.pool);
                if need > self.pool.free_pages() {
                    if self.relieve(need, Some(my_key)) {
                        continue;
                    }
                    break; // wait for a later iteration
                }
                let seq = &mut self.running[i];
                let (fed, plen) = (seq.feed.fed, seq.core.prompt.len());
                let mut end = (fed + budget)
                    .min(seq.feed_len())
                    .min((fed / page + 1) * page)
                    .min((fed / chunk + 1) * chunk);
                if fed < plen {
                    end = end.min(plen);
                }
                let run: Vec<u32> = (fed..end).map(|t| seq.feed_token(t)).collect();
                let out = exec
                    .decode_batch_reserved(
                        &mut self.pool,
                        &mut [(&mut seq.feed.state, &run)],
                        self.scfg.decode_threads,
                        &mut self.plan,
                        &mut self.report.parallel,
                        need,
                    )
                    .pop()
                    .expect("one output per input sequence");
                seq.feed.fed = end;
                self.work_tokens += run.len() as u64;
                cont_fed += run.len() as u64;
                if self.scfg.prefix_cache && fed < plen {
                    self.report.prefix_recomputed_tokens += run.len() as u64;
                }
                budget -= run.len();
                self.maybe_donate(i);
                if self.running[i].feed.fed == self.running[i].feed_len() {
                    // The feed is consumed: its last logits are the next token.
                    self.emit_token(i, greedy_next_token(&out.logits), now);
                    break;
                }
            }
            if cont_fed > 0 {
                // One span per iteration's continuation feed (not per run):
                // the decode-path re-feed is the same "prompt chunk" unit to
                // the flame chart, however the scheduler sliced it.
                self.scfg.tracer.span(
                    "prefill.chunk",
                    "scheduler",
                    lane::SCHEDULER,
                    cont_id,
                    cont_start,
                    &[("tokens", cont_fed)],
                );
            }
        }
    }
}

/// The prefill tile grid: the fused tile-prefill path covers absolute token
/// positions `[0, chunk_tokens)` — the first grid cell — and every position at or
/// beyond the grid boundary is always fed through the decode path, as a row
/// computed the way a one-token step at that position computes it, no matter
/// how the scheduler slices iterations and runs, whether the sequence is
/// resuming from preemption, or how much of its prompt came from the prefix
/// cache.
///
/// Because the boundary is a pure function of absolute token position (not of how
/// much of this particular prompt remains), the KV written for any prompt prefix
/// of at least `chunk_tokens` tokens is bit-identical across requests that share
/// it — the invariant that lets the prefix cache hand one request's pages to
/// another without changing a single output token. A prompt shorter than the grid
/// cell lies entirely inside it and prefills in one fused call; such prompts are
/// below the cache's minimum match and are never shared.
pub fn tile_grid_boundary(chunk_tokens: usize, prompt_len: usize) -> usize {
    chunk_tokens.min(prompt_len)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn tile_grid_boundary_is_position_pure() {
        // The grid cell is [0, chunk): any prompt at least chunk long has the
        // same boundary, so shared prefixes >= chunk produce identical tile work.
        assert_eq!(tile_grid_boundary(8, 8), 8);
        assert_eq!(tile_grid_boundary(8, 100), 8);
        assert_eq!(tile_grid_boundary(8, 9), 8);
        // Prompts inside the first cell prefill whole (and are never shared: the
        // cache's minimum match is the grid boundary).
        assert_eq!(tile_grid_boundary(8, 5), 5);
    }

    #[test]
    fn chunked_prefill_interleaves_long_prompt_with_decode() {
        // One long prompt plus one short request: with chunked prefill, the short
        // request must finish long before the long prompt is even fully fed.
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 96, 4)); // 96-token prompt: 12 iterations of feeding
        sched.submit(request(2, 4, 3));
        let mut short_done_at = None;
        for iter in 1..200u64 {
            sched.step();
            if short_done_at.is_none()
                && sched
                    .report_snapshot()
                    .completed
                    .iter()
                    .any(|(id, _)| *id == 2)
            {
                short_done_at = Some(iter);
            }
            if sched.queued() == 0 && sched.running() == 0 {
                break;
            }
        }
        let r = sched.run_to_completion(1);
        assert_eq!(r.completed.len(), 2);
        let short_done_at = short_done_at.expect("short request completed");
        assert!(
            short_done_at <= 6,
            "short request head-of-line blocked until iteration {short_done_at}"
        );
    }

    #[test]
    fn a_held_batch_feed_ages_in_at_its_deadline() {
        // One interactive request decodes through the whole scene, so some
        // interactive sequence runs in every step. Request 2 (batch, a
        // 40-work-token deadline) is held until the work clock passes its
        // virtual deadline, then feeds while the interactive one still runs;
        // request 3 (batch, no deadline: 2^20 tokens of slack) is held until
        // the interactive one finishes.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 8, 120).class(SloClass::Interactive));
        sched.step();
        let submitted = sched.work_tokens();
        let aged = sched.submit(request(2, 24, 4).deadline_work_tokens(40));
        let held = sched.submit(request(3, 24, 4));
        let first_token = |h: &RequestHandle| {
            h.drain_events()
                .iter()
                .any(|e| matches!(e, ServingEvent::FirstToken { .. }))
        };
        let (mut aged_at, mut held_at) = (None, None);
        while sched.queued() + sched.running() > 0 {
            sched.step();
            let interactive_running = sched.status(1) == Some(RequestStatus::Running);
            if first_token(&aged) {
                aged_at = Some((sched.work_tokens(), interactive_running));
            }
            if first_token(&held) {
                held_at = Some(interactive_running);
            }
        }
        let (aged_work, beside_interactive) = aged_at.expect("request 2 got a first token");
        assert!(
            aged_work > submitted + 40,
            "request 2 fed before its deadline passed (clock {aged_work}, submitted at {submitted})"
        );
        assert!(
            beside_interactive,
            "request 2 waited for the interactive request to finish"
        );
        assert_eq!(
            held_at,
            Some(false),
            "request 3 fed beside the interactive request"
        );
        assert_eq!(sched.report_snapshot().completed.len(), 3);
    }

    /// Mixed-class traffic under `class_aware = false`, arriving over three
    /// steps: the report's step and work counts and each request's
    /// `(id, ttft_iters, decode_span_iters)`.
    fn class_blind_run(mixed: bool) -> (u64, u64, Vec<(u64, u64, u64)>) {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.class_aware = false;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let classes = [SloClass::Batch, SloClass::Interactive, SloClass::BestEffort];
        for id in 0..6u64 {
            let class = if mixed {
                classes[id as usize % 3]
            } else {
                SloClass::Batch
            };
            sched.submit(request(id, 20 + 6 * id as usize, 6).class(class));
            if id % 2 == 1 {
                sched.step();
            }
        }
        let r = sched.run_to_completion(10_000);
        let timing = r
            .request_metrics
            .iter()
            .map(|m| (m.id, m.ttft_iters, m.decode_span_iters))
            .collect();
        (r.scheduler_steps, sched.work_tokens(), timing)
    }

    #[test]
    fn class_blind_scheduling_ignores_the_classes() {
        // With `class_aware` off every rank has class 0, so no class rule
        // (admission order, victim choice, the interactive feed shield)
        // can tell the classes apart: a mixed-class run takes the steps of
        // the same traffic in one class, request by request, and the counts
        // this scene took before the shield existed.
        let mixed = class_blind_run(true);
        assert_eq!(mixed, class_blind_run(false));
        assert_eq!((mixed.0, mixed.1), (13, 240));
    }

    #[test]
    fn chunked_prefill_output_matches_monolithic_prefill() {
        // With FP16 paging and no sparsity interference, feeding the prompt in
        // chunks must not change the greedy output of a solo request (chunk
        // boundaries only move computation between the tile and decode paths of the
        // same deterministic pipeline; the greedy argmax survives the reordering
        // at this scale).
        let w = weights();
        // One page holds the whole prompt; then 8-token pages, which the
        // chunk is no multiple of and the 27-token prompt ends in the middle
        // of: continuation runs are cut by the tile grid, by page boundaries
        // and by the end of the prompt, in every order.
        for (cfg, len) in [(EngineConfig::dense(), 24), (small_page_dense(), 27)] {
            let mut mono = fcfs(Arc::clone(&w), cfg.clone(), 4096);
            mono.submit(request(7, len, 8));
            let want = mono.run_to_completion(10_000).completed[0].1.clone();

            let mut scfg = SchedulerConfig::new(4096);
            scfg.chunk_tokens = 7; // divides neither length: a ragged last chunk
            let mut sched = scheduler(cfg, scfg);
            sched.submit(request(7, len, 8));
            let r = sched.run_to_completion(10_000);
            assert_eq!(r.completed[0].1, want, "{len}-token prompt");
        }
    }
}
