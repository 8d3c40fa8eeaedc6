//! Work-token-clocked tracing and JSON metrics rendering for the LServe
//! reproduction.
//!
//! The engine is deterministic: every run advances a modeled **work-token
//! clock** instead of wall time, so two runs of the same workload produce the
//! same schedule. This crate makes that schedule visible without breaking the
//! property:
//!
//! * [`Tracer`] — a cheap, cloneable handle threaded through the scheduler,
//!   executor, page pool and selector. When disabled (the default) every
//!   emission is a branch on a [`None`]; when enabled it timestamps typed
//!   span/instant/counter events against the shared work-token clock.
//! * [`TraceSink`] — where events go. [`RingSink`] keeps the most recent
//!   `capacity` events (bounded memory regardless of run length, with a
//!   dropped-event count); [`NoopSink`] discards everything (for overhead
//!   measurements of event construction itself).
//! * [`chrome::chrome_trace_json`] — renders recorded events as a Chrome
//!   trace-event JSON document that Perfetto ([ui.perfetto.dev]) and
//!   `chrome://tracing` load directly: one process lane per engine layer,
//!   one thread lane per sequence/worker, plus counter tracks.
//! * [`Json`] — the workspace's deterministic JSON renderer (insertion-ordered
//!   keys, NaN rejection), shared with the metrics snapshot and `perf`'s
//!   result documents.
//!
//! Because timestamps are modeled work-token ticks, traces are bit-reproducible
//! and diffable across runs and policies — a scheduling change shows up as a
//! moved span, not as noise.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

pub mod chrome;
pub mod json;

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use json::{validate_json, Json};

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Process-lane (`pid`) constants: one lane per engine layer, so a loaded
/// trace groups tracks the way the system is layered.
pub mod lane {
    /// Scheduler lane: request lifecycle spans (tid = request id) and the
    /// per-iteration control track / counter tracks (tid = [`super::CONTROL_TID`]).
    pub const SCHEDULER: u32 = 1;
    /// Executor lane: per-layer serial/parallel phase spans.
    pub const EXECUTOR: u32 = 2;
    /// Attention-worker lane: per-shard spans laid out per worker
    /// (tid = worker index on a single device, or
    /// `device * DEVICE_TID_STRIDE + worker` under a multi-device placement)
    /// — the sparsity-imbalance flame chart.
    pub const WORKERS: u32 = 3;
    /// Stride between devices in the worker lane's `tid` space: worker `w` of
    /// device `d` renders on `tid = d * DEVICE_TID_STRIDE + w`. Device 0's
    /// tids coincide with the single-device layout, so single-device traces
    /// are unchanged by the encoding.
    pub const DEVICE_TID_STRIDE: u64 = 100;

    /// The worker-lane `tid` for worker `w` of simulated device `d`.
    pub fn device_worker_tid(device: usize, worker: usize) -> u64 {
        device as u64 * DEVICE_TID_STRIDE + worker as u64
    }
    /// Copy-engine lane: transfer issue/land/force/cancel instants
    /// (tid 0 = device→host, tid 1 = host→device).
    pub const COPY: u32 = 4;
    /// Selector lane: rescore and prefetch instants (tid = batch slot).
    pub const SELECTOR: u32 = 5;
    /// Request-DAG lane: fork/join/branch-cancel instants and branch spawns,
    /// one track per branch (tid = branch request id).
    pub const DAG: u32 = 6;
}

/// The `tid` used for lane-global (non-per-sequence) tracks.
pub const CONTROL_TID: u64 = 0;

/// Ring capacity used by `LSERVE_TRACE=1` (events, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What kind of trace-event record this is (mapped to Chrome `ph` on export).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval `[ts, ts + dur)` — Chrome "X" complete event.
    /// Spans are recorded at close, so every recorded span is closed by
    /// construction.
    Span,
    /// A point event — Chrome "i" instant.
    Instant,
    /// A sampled counter track value — Chrome "C" counter.
    Counter,
}

/// One typed trace record, timestamped in work-token ticks.
///
/// Args are `(key, value)` pairs of unsigned integers: every quantity the
/// engine traces (pages, tokens, costs, ids) is a count, and keeping args
/// numeric keeps event construction allocation-light on hot paths.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Record kind (span / instant / counter).
    pub kind: EventKind,
    /// Event name (counter events: the counter track name).
    pub name: Cow<'static, str>,
    /// Category, one per engine layer (`"scheduler"`, `"executor"`,
    /// `"attention"`, `"copy"`, `"selector"`).
    pub cat: &'static str,
    /// Process lane (see [`lane`]).
    pub pid: u32,
    /// Thread lane within the process lane (request id, worker index, …).
    pub tid: u64,
    /// Start time in work-token ticks.
    pub ts: u64,
    /// Duration in work-token ticks (spans only; 0 otherwise).
    pub dur: u64,
    /// Numeric arguments (counter events: the counter series).
    pub args: Vec<(&'static str, u64)>,
}

/// Destination for recorded events.
pub trait TraceSink: Send {
    /// Records one event (may evict an older one).
    fn record(&mut self, event: TraceEvent);
    /// Removes and returns all retained events plus the number of events the
    /// sink dropped (evicted or discarded) over its lifetime.
    fn drain(&mut self) -> (Vec<TraceEvent>, u64);
    /// Events currently retained.
    fn retained(&self) -> usize;
}

/// Bounded ring buffer: keeps the most recent `capacity` events, counting
/// evictions, so tracing an arbitrarily long run uses constant memory.
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        (std::mem::take(&mut self.buf).into(), self.dropped)
    }

    fn retained(&self) -> usize {
        self.buf.len()
    }
}

/// Discards every event (but still pays for constructing them) — the
/// measurement baseline separating event-construction overhead from
/// retention overhead.
#[derive(Debug, Default)]
pub struct NoopSink {
    discarded: u64,
}

impl TraceSink for NoopSink {
    fn record(&mut self, _event: TraceEvent) {
        self.discarded += 1;
    }

    fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        (Vec::new(), self.discarded)
    }

    fn retained(&self) -> usize {
        0
    }
}

struct TracerState {
    clock: u64,
    sink: Box<dyn TraceSink>,
}

/// Shared handle to the trace clock and sink.
///
/// Cloning is cheap (an [`Arc`] clone) and every clone feeds the same clock
/// and sink, which is what lets one handle thread through scheduler, executor,
/// pool and selector. A disabled tracer ([`Tracer::disabled`]) carries no
/// state at all: every method is a branch on [`None`], so untraced runs pay
/// nothing and stay bit-identical to traced ones.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerState>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => {
                let state = inner.lock().unwrap();
                write!(
                    f,
                    "Tracer(clock={}, retained={})",
                    state.clock,
                    state.sink.retained()
                )
            }
        }
    }
}

impl Tracer {
    /// The zero-cost disabled tracer (also [`Default`]).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer recording into a [`RingSink`] of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Self::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An enabled tracer that constructs and discards events ([`NoopSink`]).
    pub fn noop() -> Self {
        Self::with_sink(Box::<NoopSink>::default())
    }

    /// An enabled tracer with a caller-provided sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(TracerState { clock: 0, sink }))),
        }
    }

    /// True when events are being recorded. Guard expensive argument
    /// construction on this; the emit methods themselves already early-return.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock value in work-token ticks (0 when disabled).
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().unwrap().clock,
        }
    }

    /// Advances the clock by `ticks` modeled work units. The clock only moves
    /// forward and only via this method, so it is monotone by construction.
    #[inline]
    pub fn advance(&self, ticks: u64) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().clock += ticks;
        }
    }

    /// Records a span closing **now** that opened at `start` (from a prior
    /// [`Tracer::now`]). Emitting at close means no span is ever left open.
    #[inline]
    pub fn span(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        pid: u32,
        tid: u64,
        start: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().unwrap();
            let dur = state.clock.saturating_sub(start);
            state.sink.record(TraceEvent {
                kind: EventKind::Span,
                name: name.into(),
                cat,
                pid,
                tid,
                ts: start,
                dur,
                args: args.to_vec(),
            });
        }
    }

    /// Records a span with an explicit `[start, start + dur)` extent —
    /// used to lay out modeled schedules (e.g. per-worker shard placement)
    /// that don't follow the global clock.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_at(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        pid: u32,
        tid: u64,
        start: u64,
        dur: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().sink.record(TraceEvent {
                kind: EventKind::Span,
                name: name.into(),
                cat,
                pid,
                tid,
                ts: start,
                dur,
                args: args.to_vec(),
            });
        }
    }

    /// Records an instant event at the current clock.
    #[inline]
    pub fn instant(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        pid: u32,
        tid: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().unwrap();
            let ts = state.clock;
            state.sink.record(TraceEvent {
                kind: EventKind::Instant,
                name: name.into(),
                cat,
                pid,
                tid,
                ts,
                dur: 0,
                args: args.to_vec(),
            });
        }
    }

    /// Samples a multi-series counter track at the current clock (each arg is
    /// one stacked series in the rendered track).
    #[inline]
    pub fn counter(&self, name: &'static str, pid: u32, series: &[(&'static str, u64)]) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().unwrap();
            let ts = state.clock;
            state.sink.record(TraceEvent {
                kind: EventKind::Counter,
                name: Cow::Borrowed(name),
                cat: "counter",
                pid,
                tid: CONTROL_TID,
                ts,
                dur: 0,
                args: series.to_vec(),
            });
        }
    }

    /// Events currently retained by the sink (0 when disabled).
    pub fn retained(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().unwrap().sink.retained(),
        }
    }

    /// Removes and returns all retained events plus the sink's lifetime
    /// dropped-event count. Returns empty when disabled.
    pub fn drain(&self) -> (Vec<TraceEvent>, u64) {
        match &self.inner {
            None => (Vec::new(), 0),
            Some(inner) => inner.lock().unwrap().sink.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tracer: &Tracer) -> Vec<TraceEvent> {
        tracer.drain().0
    }

    #[test]
    fn disabled_tracer_records_nothing_and_reads_zero() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.advance(100);
        t.instant("x", "scheduler", lane::SCHEDULER, CONTROL_TID, &[]);
        t.span("y", "scheduler", lane::SCHEDULER, 1, 0, &[]);
        t.counter("c", lane::SCHEDULER, &[("v", 1)]);
        assert_eq!(t.now(), 0);
        assert_eq!(t.retained(), 0);
        assert_eq!(t.drain(), (Vec::new(), 0));
    }

    #[test]
    fn clock_is_strictly_monotone_under_advance() {
        let t = Tracer::ring(16);
        let mut last = t.now();
        for step in 1..50u64 {
            t.advance(step % 3 + 1);
            let now = t.now();
            assert!(now > last, "clock must move strictly forward");
            last = now;
        }
    }

    #[test]
    fn span_closes_with_elapsed_duration() {
        let t = Tracer::ring(16);
        let start = t.now();
        t.advance(7);
        t.span(
            "work",
            "executor",
            lane::EXECUTOR,
            CONTROL_TID,
            start,
            &[("n", 2)],
        );
        let events = ev(&t);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Span);
        assert_eq!((events[0].ts, events[0].dur), (0, 7));
        assert_eq!(events[0].args, vec![("n", 2)]);
    }

    #[test]
    fn every_recorded_span_is_closed_and_clock_ordered() {
        // Spans are recorded at close (X-style), so there is no way to leave
        // one open; this pins that the invariant survives interleaving.
        let t = Tracer::ring(64);
        let a = t.now();
        t.advance(3);
        let b = t.now();
        t.advance(4);
        t.span("inner", "executor", lane::EXECUTOR, 0, b, &[]);
        t.advance(1);
        t.span("outer", "scheduler", lane::SCHEDULER, 0, a, &[]);
        let events = ev(&t);
        for e in &events {
            assert!(e.ts + e.dur <= 8, "span extends past the clock: {e:?}");
        }
        assert_eq!(events[0].name, "inner");
        assert_eq!((events[0].ts, events[0].dur), (3, 4));
        assert_eq!((events[1].ts, events[1].dur), (0, 8));
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_drops() {
        let t = Tracer::ring(4);
        for i in 0..10u64 {
            t.advance(1);
            t.instant("tick", "scheduler", lane::SCHEDULER, i, &[]);
        }
        assert_eq!(t.retained(), 4);
        let (events, dropped) = t.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 6);
        // The ring keeps the *most recent* events.
        assert_eq!(events[0].tid, 6);
        assert_eq!(events[3].tid, 9);
    }

    #[test]
    fn noop_sink_retains_nothing() {
        let t = Tracer::noop();
        assert!(t.is_enabled());
        t.instant("x", "scheduler", lane::SCHEDULER, 0, &[]);
        assert_eq!(t.retained(), 0);
        let (events, discarded) = t.drain();
        assert!(events.is_empty());
        assert_eq!(discarded, 1);
    }

    #[test]
    fn clones_share_clock_and_sink() {
        let t = Tracer::ring(8);
        let u = t.clone();
        t.advance(5);
        assert_eq!(u.now(), 5);
        u.instant("from-clone", "scheduler", lane::SCHEDULER, 0, &[]);
        assert_eq!(t.retained(), 1);
    }
}
