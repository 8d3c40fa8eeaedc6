//! `perf`'s own wall-clock span recorder: spans around the calls into each
//! layer, kept in memory and written out as Chrome-trace JSON when a pass
//! ends. Spans *inside* the program are a later change (ROADMAP item 5).

use std::time::Instant;

use lserve_trace::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request ids the call touched.
    pub requests: Vec<u64>,
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle to an open span; `None` when the recorder is off.
pub type Open = Option<usize>;

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that is off, where every call is one branch, until
    /// [`Recorder::set_enabled`] turns it on.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Spans opened while the recorder is off are not recorded; switch only
    /// between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "switched inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            requests: Vec::new(),
            args: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
        self.stack.last().copied()
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open, args: &[(&'static str, u64)]) {
        let Some(i) = open else { return };
        assert_eq!(self.stack.pop(), Some(i), "spans close innermost first");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].args = args.to_vec();
    }

    /// Attributes request ids to a span after the fact: which requests a
    /// step touched is known only once its events are drained.
    pub fn touch(&mut self, open: Open, requests: impl IntoIterator<Item = u64>) {
        if let Some(i) = open {
            self.spans[i].requests.extend(requests);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, microsecond timestamps, parent and request ids in
    /// `args`.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![("id".to_string(), Json::Int(i as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Int(p as u64)));
                }
                if !s.requests.is_empty() {
                    let ids = s.requests.iter().map(|&r| Json::Int(r)).collect();
                    args.push(("requests".to_string(), Json::Arr(ids)));
                }
                args.extend(s.args.iter().map(|&(k, v)| (k.to_string(), Json::Int(v))));
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(layer_of(s.name).to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
    }
}

/// `probe.kvcache.append` -> `kvcache`; `sched.step` -> `sched`.
fn layer_of(name: &str) -> &str {
    let rest = name.strip_prefix("probe.").unwrap_or(name);
    rest.split('.').next().unwrap_or(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        let pass = rec.open("pass");
        let step = rec.open("sched.step");
        rec.close(step, &[("work", 5)]);
        rec.touch(step, [3, 4]);
        let probe = rec.open("probe.kvcache.append");
        rec.close(probe, &[]);
        rec.close(pass, &[]);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].requests, vec![3, 4]);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(rec.durations("sched.step").len(), 1);

        let json = rec.chrome_json().render();
        lserve_trace::validate_json(&json).expect("well-formed trace");
        assert!(json.contains(r#""name":"sched.step""#));
        assert!(json.contains(r#""cat":"kvcache""#));
        assert!(json.contains(r#""requests":[3,4]"#));
        assert!(json.contains(r#""parent":0"#));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new();
        let s = rec.open("pass");
        assert_eq!(s, None);
        rec.touch(s, [1]);
        rec.close(s, &[("x", 1)]);
        assert!(rec.spans().is_empty());
    }
}
