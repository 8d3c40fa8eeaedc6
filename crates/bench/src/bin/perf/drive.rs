//! Drives one pass of a workload through `Scheduler::{new, submit, step}` and
//! `RequestHandle::drain_events`, timing every call itself, and checks the
//! outputs the pass produced.
//!
//! A pass is recorded as what happened ([`StepLog`]: who was submitted, how
//! much work the step did, which events it produced) and how long each call
//! took. Arrivals follow the scheduler's work clock, so the *what* is the
//! same in every pass of a scene; only the *how long* varies, and a run can
//! take each call's fastest execution across a group of passes ([`fastest`])
//! before it lays the latencies out ([`timeline`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lserve_core::{
    AdmissionPolicy, MigrationMode, ModelExecutor, PlacementPolicy, PreemptionPolicy,
    RequestHandle, Scheduler, SchedulerConfig, ServingEvent,
};
use lserve_trace::Tracer;

use crate::gen::{slo_limits, Arrival, Scale, Scene, Workload};
use crate::layers;
use crate::spans::Recorder;

/// A pass that has not drained after this long is reported as unfinished
/// rather than left to hang the benchmark.
const PASS_DEADLINE: Duration = Duration::from_secs(90);

/// How a pass is observed. End-to-end numbers come from `Plain` passes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Observe {
    /// Both tracers off.
    #[default]
    Plain,
    /// `perf`'s span recorder on.
    Spans,
    /// The scheduler's own ring tracer on (for `trace.sched_overhead_frac`).
    Ring,
    /// Both tracers off, prefix cache forced on: `overcommit_swap` as the
    /// issue first specified it, run once in the traced run for its ledger.
    CacheOn,
}

/// The scheduler policy of each workload. Every field `SchedulerConfig::new`
/// seeds from the environment is overwritten.
fn scheduler_config(
    workload: Workload,
    exec: &ModelExecutor,
    scene: &Scene,
    scale: Scale,
    observe: Observe,
) -> SchedulerConfig {
    let longest = scene
        .requests
        .iter()
        .map(|r| r.spec.prompt.len() + r.spec.max_new_tokens)
        .max()
        .expect("a scene has requests");
    let one = layers::sequence_pages(exec, longest);
    let ample = 2 * one * scene.requests.len() + 64;
    let mut c = SchedulerConfig::new(ample);
    c.chunk_tokens = 256 / scale.div();
    c.max_batch = 64;
    c.admission = AdmissionPolicy::FirstChunk;
    c.prefix_cache = false;
    c.decode_threads = 1;
    c.devices = 1;
    c.placement = PlacementPolicy::SparsityAware;
    c.preemption = PreemptionPolicy::Replay;
    c.migration = MigrationMode::Sync;
    c.host_pages = 0;
    c.nvme = false;
    c.class_aware = true;
    c.tracer = match observe {
        Observe::Ring => layers::ring_tracer(),
        _ => Tracer::disabled(),
    };
    match workload {
        // The whole prompt is one fused block-sparse tile prefill.
        Workload::LongPrefill => c.chunk_tokens = 4096 / scale.div(),
        Workload::LongDecode => {}
        Workload::OvercommitSwap => {
            c.pool_pages = one * 5 / 2;
            c.preemption = PreemptionPolicy::Swap;
            c.migration = MigrationMode::Async;
            c.host_pages = 2 * one;
            c.nvme = true;
        }
        Workload::ServeMixOpen => {
            c.pool_pages = 3 * one;
            c.preemption = PreemptionPolicy::Swap;
            c.migration = MigrationMode::Async;
            c.prefix_cache = true;
        }
    }
    if observe == Observe::CacheOn {
        c.prefix_cache = true;
    }
    c
}

/// Weights, executor and scheduler for one pass; returns the seconds it took.
pub fn set_up(
    workload: Workload,
    scene: &Scene,
    scale: Scale,
    observe: Observe,
) -> (Scheduler, f64) {
    let t = Instant::now();
    let exec = layers::new_executor(workload == Workload::OvercommitSwap);
    let scfg = scheduler_config(workload, &exec, scene, scale, observe);
    let sched = Scheduler::new(exec, scfg);
    (sched, t.elapsed().as_secs_f64())
}

/// Counts that depend on the seed, not the clock: identical across passes and
/// runs of a closed workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ledger {
    pub steps: u64,
    pub work_tokens: u64,
    pub preemptions: u64,
    pub batch_mean: f64,
    pub pages_demoted: u64,
    pub pages_promoted: u64,
    pub pages_spilled: u64,
    pub prefetch_issued: u64,
    pub prefetch_wasted: u64,
    pub overlap_frac: f64,
    pub pool_peak_util: f64,
    pub prefix_hit_tokens: u64,
    pub prefix_recomputed_tokens: u64,
    pub prefix_insertions: u64,
    pub prefix_evictions: u64,
    pub prefix_spills: u64,
}

impl Ledger {
    /// Every count, then every ratio, for the `--out` document.
    pub fn numbers(&self) -> Vec<f64> {
        let counts = [
            self.steps,
            self.work_tokens,
            self.preemptions,
            self.pages_demoted,
            self.pages_promoted,
            self.pages_spilled,
            self.prefetch_issued,
            self.prefetch_wasted,
            self.prefix_hit_tokens,
            self.prefix_recomputed_tokens,
            self.prefix_insertions,
            self.prefix_evictions,
            self.prefix_spills,
        ];
        let mut out: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        out.extend([self.batch_mean, self.overlap_frac, self.pool_peak_util]);
        out
    }
}

/// What a request did in a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Did {
    Admitted,
    FirstToken,
    Token,
    Finished,
    /// Cancelled or rejected.
    Failed,
}

/// When a request had fallen due, relative to its submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due {
    /// As it was submitted: a closed-loop client's next request, or an
    /// arrival the idle system skipped ahead to.
    AtSubmit,
    /// `num / den` of the way through the step before: the arrival clock
    /// crossed its due time there, and the driver, one thread, could only
    /// submit it once that step returned.
    During { num: u64, den: u64 },
}

/// One iteration of the driver loop: submissions, then a step, then a drain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepLog {
    /// `(request index, when it fell due)`, in submission order.
    pub submits: Vec<(usize, Due)>,
    /// Work-token delta of the step (0 if the scheduler had nothing to do).
    pub work: u64,
    /// `(request index, what it did)`, in drain order.
    pub events: Vec<(usize, Did)>,
}

/// Everything one pass recorded.
#[derive(Debug, Default)]
pub struct Pass {
    pub observe: Observe,
    pub setup_s: f64,
    pub log: Vec<StepLog>,
    /// Seconds inside `Scheduler::step`, one per log entry.
    pub step_s: Vec<f64>,
    /// Seconds inside `Scheduler::submit`, one per submission.
    pub submit_s: Vec<f64>,
    pub sent: usize,
    pub completed: usize,
    /// Rejected, cancelled or unfinished.
    pub failed: usize,
    /// Requests still in the system when the last one arrived.
    pub backlog_at_last_arrival: usize,
    pub ledger: Ledger,
    /// `(id, tokens)` of every finished request, in id order.
    pub outputs: Vec<(u64, Vec<u32>)>,
    /// Prompt tokens that went through the fused prefill: each request's
    /// first `chunk_tokens`.
    pub first_chunk_tokens: u64,
    /// Output checks that failed.
    pub violations: Vec<String>,
}

struct Track {
    handle: RequestHandle,
    id: u64,
    streamed: Vec<u32>,
    terminals: usize,
    finished: Option<Vec<u32>>,
}

/// Runs `scene` once. Spans go to `rec`, which is switched on for
/// [`Observe::Spans`] passes only.
pub fn run_pass(
    workload: Workload,
    scene: &Scene,
    scale: Scale,
    observe: Observe,
    rec: &mut Recorder,
) -> Pass {
    let (mut sched, setup_s) = set_up(workload, scene, scale, observe);
    rec.set_enabled(observe == Observe::Spans);
    let pool_pages = sched.config().pool_pages;
    let chunk = sched.config().chunk_tokens;
    let n = scene.requests.len();
    let mut tracks: Vec<Track> = Vec::with_capacity(n);
    let mut live: Vec<usize> = Vec::new();
    let mut p = Pass {
        observe,
        setup_s,
        first_chunk_tokens: scene
            .requests
            .iter()
            .map(|r| r.spec.prompt.len().min(chunk) as u64)
            .sum(),
        ..Pass::default()
    };

    let pass_span = rec.open("pass");
    let started = Instant::now();
    // The arrival clock is the work clock plus the idle stretches skipped;
    // `crossed` is the interval it covered during the previous step.
    let mut skipped = 0u64;
    let mut crossed: Option<(u64, u64)> = None;
    loop {
        let mut entry = StepLog::default();
        // Submit every request now due.
        while tracks.len() < n {
            let clock = sched.work_tokens() + skipped;
            let due = match scene.arrival {
                Arrival::Closed { clients } if live.len() < clients => Due::AtSubmit,
                Arrival::Closed { .. } => break,
                Arrival::Open => match scene.requests[tracks.len()].due_work {
                    at if at <= clock => match crossed {
                        Some((from, to)) if at > from => Due::During {
                            num: at - from,
                            den: to - from,
                        },
                        _ => Due::AtSubmit,
                    },
                    _ if !live.is_empty() => break,
                    // Nothing to do until the next arrival: skip to it.
                    at => {
                        skipped += at - clock;
                        crossed = None;
                        Due::AtSubmit
                    }
                },
            };
            let spec = scene.requests[tracks.len()].spec.clone();
            let id = spec.id;
            if tracks.len() + 1 == n {
                p.backlog_at_last_arrival = live.len();
            }
            let span = rec.open("sched.submit");
            let t = Instant::now();
            let handle = sched.submit(spec);
            p.submit_s.push(t.elapsed().as_secs_f64());
            rec.close(span, &[]);
            rec.touch(span, [id]);
            entry.submits.push((tracks.len(), due));
            live.push(tracks.len());
            tracks.push(Track {
                handle,
                id,
                streamed: Vec::new(),
                terminals: 0,
                finished: None,
            });
        }

        let mut step_span = None;
        let mut stepped_s = 0.0;
        let before = sched.work_tokens();
        if sched.queued() + sched.running() > 0 {
            step_span = rec.open("sched.step");
            let t = Instant::now();
            sched.step();
            stepped_s = t.elapsed().as_secs_f64();
            entry.work = sched.work_tokens() - before;
            rec.close(step_span, &[("work_tokens", entry.work)]);
            crossed = Some((before + skipped, before + entry.work + skipped));
        }

        // Drain every live handle.
        let drain_span = rec.open("handle.drain");
        let mut touched: Vec<u64> = Vec::new();
        live.retain(|&i| {
            let t = &mut tracks[i];
            let events = t.handle.drain_events();
            if !events.is_empty() {
                touched.push(t.id);
            }
            for e in events {
                let did = match e {
                    ServingEvent::Admitted => Did::Admitted,
                    ServingEvent::FirstToken { token } => {
                        t.streamed.push(token);
                        Did::FirstToken
                    }
                    ServingEvent::Token { token } => {
                        t.streamed.push(token);
                        Did::Token
                    }
                    ServingEvent::Preempted { .. } | ServingEvent::Resumed => continue,
                    ServingEvent::Finished { tokens, .. } => {
                        t.terminals += 1;
                        t.finished = Some(tokens);
                        Did::Finished
                    }
                    ServingEvent::Cancelled { .. } | ServingEvent::Rejected { .. } => {
                        t.terminals += 1;
                        Did::Failed
                    }
                };
                entry.events.push((i, did));
            }
            t.terminals == 0
        });
        rec.close(drain_span, &[("events", entry.events.len() as u64)]);
        rec.touch(step_span, touched.iter().copied());
        rec.touch(drain_span, touched);
        p.log.push(entry);
        p.step_s.push(stepped_s);

        if tracks.len() == n && live.is_empty() {
            break;
        }
        if started.elapsed() > PASS_DEADLINE {
            p.violations
                .push(format!("pass did not drain within {PASS_DEADLINE:?}"));
            break;
        }
    }
    rec.close(pass_span, &[("requests", n as u64)]);

    p.sent = tracks.len();
    let report = sched.report_snapshot();
    let moved = report.hidden_transfer_tokens + report.migration_stall_tokens;
    p.ledger = Ledger {
        steps: report.scheduler_steps,
        work_tokens: sched.work_tokens(),
        preemptions: report.preemptions,
        batch_mean: report.mean_running(),
        pages_demoted: report.pages_demoted,
        pages_promoted: report.pages_promoted,
        pages_spilled: report.pages_spilled,
        prefetch_issued: report.prefetch_issued,
        prefetch_wasted: report.prefetch_wasted,
        overlap_frac: report.hidden_transfer_tokens as f64 / moved.max(1) as f64,
        pool_peak_util: report.peak_pages as f64 / pool_pages as f64,
        prefix_hit_tokens: report.prefix_hit_tokens,
        prefix_recomputed_tokens: report.prefix_recomputed_tokens,
        prefix_insertions: report.prefix_insertions,
        prefix_evictions: report.prefix_evictions,
        prefix_spills: report.prefix_spills,
    };

    // Output checks.
    let (done, refused, dropped) = (
        report.completed.len(),
        report.rejected.len(),
        report.cancelled.len(),
    );
    if done + refused + dropped != p.sent || p.sent != n {
        p.violations.push(format!(
            "completed {done} + rejected {refused} + cancelled {dropped} != sent {} of {n}",
            p.sent
        ));
    }
    // The arrival clock must count forward-pass tokens and nothing modeled.
    if report.swap_resume_work_tokens != 0 {
        p.violations.push(format!(
            "{} work tokens of modeled transfer cost on the arrival clock",
            report.swap_resume_work_tokens
        ));
    }
    sched.flush_prefix_cache();
    if sched.pool_in_use() != 0 {
        p.violations.push(format!(
            "{} pages still in use after the pass",
            sched.pool_in_use()
        ));
    }
    for t in &mut tracks {
        let late = t.handle.drain_events();
        t.terminals += late.iter().filter(|e| e.is_terminal()).count();
        if t.terminals != 1 {
            p.violations.push(format!(
                "request {} saw {} terminal events",
                t.id, t.terminals
            ));
        }
        let Some(tokens) = t.finished.take() else {
            continue;
        };
        if tokens != t.streamed {
            p.violations.push(format!(
                "request {}: streamed tokens differ from its output",
                t.id
            ));
        }
        p.completed += 1;
        p.outputs.push((t.id, tokens));
    }
    p.failed = n - p.completed;
    p.outputs.sort_by_key(|(id, _)| *id);
    p
}

/// Each call's fastest execution across `passes`, which must share one log:
/// `(step_s, submit_s)`. The box alternates every few seconds between speed
/// levels up to 28 % apart and throws millisecond spikes besides, all of it
/// one-sided: a call is never faster than the code allows, and is slow in
/// every pass far less often than in one.
pub fn fastest<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> (Vec<f64>, Vec<f64>) {
    let mut passes = passes.into_iter();
    let first = passes.next().expect("at least one pass");
    let (mut step_s, mut submit_s) = (first.step_s.clone(), first.submit_s.clone());
    for p in passes {
        for (best, x) in step_s.iter_mut().zip(&p.step_s) {
            *best = best.min(*x);
        }
        for (best, x) in submit_s.iter_mut().zip(&p.submit_s) {
            *best = best.min(*x);
        }
    }
    (step_s, submit_s)
}

/// The latencies of one scene, laid out from a log and a duration per call.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Due to `FirstToken`, per request.
    pub ttft_s: Vec<f64>,
    /// Gaps between consecutive token events of a request, all requests.
    pub tbt_s: Vec<f64>,
    /// Due to the start of the step that admitted the request.
    pub queue_wait_s: Vec<f64>,
    /// Due to submission: how late the generator ran (open loop).
    pub gen_late_s: Vec<f64>,
    /// First submission to the last terminal event.
    pub makespan_s: f64,
    /// Time inside `submit` and `step`, start to end.
    pub wall_s: f64,
    pub output_tokens: u64,
    /// Finished within both limits of its class.
    pub good: usize,
    /// Time in steps that admitted a request: each runs one fused first chunk.
    pub admit_step_s: f64,
    /// `(seconds, work tokens)` of steps that fed prompt tokens (more work
    /// than tokens decoded), and of steps that only decoded.
    pub prompt_steps: (f64, u64),
    pub decode_steps: (f64, u64),
}

/// Lays `log` out on a clock that advances only inside `submit` and `step`,
/// by `submit_s` and `step_s`: the pass as it would have run had every call
/// taken that long. The harness's own drain time and the idle stretches it
/// skipped are not on it. Events are stamped when their step returns,
/// admissions when it begins (admission is the first thing a step does).
pub fn timeline(
    workload: Workload,
    scene: &Scene,
    log: &[StepLog],
    step_s: &[f64],
    submit_s: &[f64],
) -> Timeline {
    #[derive(Clone, Copy, Default)]
    struct Seen {
        due: f64,
        first: f64,
        last: f64,
        tokens: usize,
        finished: bool,
    }
    let mut seen = vec![Seen::default(); scene.requests.len()];
    let mut out = Timeline::default();
    let mut submit_s = submit_s.iter();
    let (mut now, mut before) = (0.0, (0.0, 0.0));
    for (entry, &stepped) in log.iter().zip(step_s) {
        for &(r, due) in &entry.submits {
            seen[r].due = match due {
                Due::AtSubmit => now,
                Due::During { num, den } => before.0 + before.1 * num as f64 / den as f64,
            };
            if scene.arrival == Arrival::Open {
                out.gen_late_s.push(now - seen[r].due);
            }
            now += submit_s.next().expect("one duration per submission");
        }
        let began = now;
        now += stepped;
        let (mut emitted, mut decoded, mut admitted) = (0u64, 0u64, false);
        for &(r, did) in &entry.events {
            let s = &mut seen[r];
            match did {
                Did::Admitted => {
                    admitted = true;
                    out.queue_wait_s.push((began - s.due).max(0.0));
                }
                Did::FirstToken => {
                    out.ttft_s.push(now - s.due);
                    s.first = now;
                }
                Did::Token => {
                    decoded += 1;
                    out.tbt_s.push(now - s.last);
                }
                Did::Finished => s.finished = true,
                Did::Failed => {}
            }
            match did {
                Did::FirstToken | Did::Token => {
                    s.last = now;
                    s.tokens += 1;
                    emitted += 1;
                }
                Did::Finished | Did::Failed => out.makespan_s = now,
                Did::Admitted => {}
            }
        }
        out.output_tokens += emitted;
        if admitted {
            out.admit_step_s += stepped;
        }
        // A decoded token is one work token; a first token is the last of
        // its prompt's.
        let kind = if entry.work > decoded {
            &mut out.prompt_steps
        } else {
            &mut out.decode_steps
        };
        kind.0 += stepped;
        kind.1 += entry.work;
        before = (began, stepped);
    }
    out.wall_s = now;
    for (s, r) in seen.iter().zip(&scene.requests) {
        let (ttft_limit, tpot_limit) = slo_limits(workload, r.spec.class);
        let tpot = (s.last - s.first) / (s.tokens.max(2) - 1) as f64;
        if s.finished && s.tokens > 0 && s.first - s.due <= ttft_limit && tpot <= tpot_limit {
            out.good += 1;
        }
    }
    out
}

/// Replays every 4th request of `pass` alone — a fresh scheduler with an
/// ample pool, no cache and no tiers on the same executor — and returns the
/// requests whose tokens inside the pass differ from their solo tokens.
pub fn check_against_solo(
    workload: Workload,
    scene: &Scene,
    scale: Scale,
    pass: &Pass,
) -> Vec<String> {
    let (shared, _) = set_up(workload, scene, scale, Observe::Plain);
    let mut solo_cfg = shared.config().clone();
    solo_cfg.pool_pages = 4 * layers::sequence_pages(shared.executor(), 8192) + 64;
    solo_cfg.prefix_cache = false;
    solo_cfg.preemption = PreemptionPolicy::Replay;
    solo_cfg.migration = MigrationMode::Sync;
    solo_cfg.host_pages = 0;
    solo_cfg.nvme = false;

    let mut bad = Vec::new();
    for r in scene.requests.iter().step_by(4) {
        let mut sched = Scheduler::new(Arc::clone(shared.executor()), solo_cfg.clone());
        let handle = sched.submit(r.spec.clone());
        while !handle.is_terminal() {
            sched.step();
        }
        let solo = handle.drain_events().into_iter().find_map(|e| match e {
            ServingEvent::Finished { tokens, .. } => Some(tokens),
            _ => None,
        });
        let inside = pass.outputs.iter().find(|(id, _)| *id == r.spec.id);
        if solo.is_none() || solo.as_ref() != inside.map(|(_, tokens)| tokens) {
            bad.push(format!(
                "request {}: tokens differ from its solo replay",
                r.spec.id
            ));
        }
    }
    bad
}
