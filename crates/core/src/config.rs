//! Engine configuration and the policy presets compared in the paper.

use lserve_kvcache::{MigrationMode, PagePool, PagingConfig, StreamingWindow, TierConfig};
use lserve_model::ModelConfig;
use lserve_quant::KvPrecision;
use lserve_trace::{Tracer, DEFAULT_RING_CAPACITY};

use crate::api::PreemptionPolicy;

/// What `LSERVE_TRACE` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing (the zero-cost disabled tracer).
    #[default]
    Off,
    /// Record into a ring buffer of [`DEFAULT_RING_CAPACITY`] events.
    Ring,
    /// Construct and discard events (the overhead-measurement sink).
    Noop,
}

impl TraceMode {
    /// A fresh tracer of this mode.
    pub fn tracer(self) -> Tracer {
        match self {
            TraceMode::Off => Tracer::disabled(),
            TraceMode::Ring => Tracer::ring(DEFAULT_RING_CAPACITY),
            TraceMode::Noop => Tracer::noop(),
        }
    }
}

/// The seven `LSERVE_*` environment knobs, read in one place. Every one of
/// them trades wall-clock or modeled cost only: outputs are bit-identical for
/// every value, which is what lets CI run the whole suite under a second
/// setting of all of them.
///
/// | variable                | accepted (case-insensitive, trimmed)      | unset / empty |
/// |-------------------------|-------------------------------------------|---------------|
/// | `LSERVE_DECODE_THREADS` | an integer >= 1                           | 1             |
/// | `LSERVE_PREEMPTION`     | `replay`, `swap`                          | `replay`      |
/// | `LSERVE_MIGRATION`      | `sync`, `async`                           | `sync`        |
/// | `LSERVE_DEVICES`        | an integer >= 1                           | 1             |
/// | `LSERVE_HOST_PAGES`     | an integer >= 0 (`0` = unbounded host)    | 0             |
/// | `LSERVE_NVME`           | `1`/`true`/`on`, `0`/`false`/`off`        | off           |
/// | `LSERVE_TRACE`          | `1`/`on`/`ring`, `noop`, `0`/`off`        | off           |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads of the sharded attention phases.
    pub decode_threads: usize,
    /// How pool pressure is relieved.
    pub preemption: PreemptionPolicy,
    /// Whether tier transfers stall their step or drain behind compute.
    pub migration: MigrationMode,
    /// Simulated devices decode attention is placed onto.
    pub devices: usize,
    /// Host capacity and the nvme tier below it.
    pub tiers: TierConfig,
    /// Trace recording.
    pub trace: TraceMode,
}

impl RuntimeConfig {
    /// Reads the process environment — on every call, never cached
    /// process-wide, so tests and benches can vary a variable between two
    /// constructions. [`crate::SchedulerConfig::new`] and
    /// [`crate::ModelExecutor::new`] call it once and pin the result.
    ///
    /// # Panics
    ///
    /// Panics on a value the table above does not list: a mistyped variable
    /// silently selecting the default would re-test the default
    /// configuration and report it as the one asked for.
    pub fn from_env() -> Self {
        Self::parse(|name| std::env::var(name).ok()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RuntimeConfig::from_env`] over any variable lookup; `Err` names the
    /// variable, what it accepts and what it held.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let get = |name: &str| var(name).unwrap_or_default().trim().to_ascii_lowercase();
        fn bad<T>(name: &str, accepts: &str, got: &str) -> Result<T, String> {
            Err(format!("{name} must be {accepts}, got {got:?}"))
        }
        let count = |name: &str, default: usize, min: usize| match get(name).as_str() {
            "" => Ok(default),
            v => match v.parse() {
                Ok(n) if n >= min => Ok(n),
                _ => bad(name, &format!("an integer >= {min}"), v),
            },
        };
        Ok(Self {
            decode_threads: count("LSERVE_DECODE_THREADS", 1, 1)?,
            preemption: match get("LSERVE_PREEMPTION").as_str() {
                "" | "replay" => PreemptionPolicy::Replay,
                "swap" => PreemptionPolicy::Swap,
                v => return bad("LSERVE_PREEMPTION", "replay|swap", v),
            },
            migration: match get("LSERVE_MIGRATION").as_str() {
                "" | "sync" => MigrationMode::Sync,
                "async" => MigrationMode::Async,
                v => return bad("LSERVE_MIGRATION", "sync|async", v),
            },
            devices: count("LSERVE_DEVICES", 1, 1)?,
            tiers: TierConfig {
                host_pages: count("LSERVE_HOST_PAGES", 0, 0)?,
                nvme: match get("LSERVE_NVME").as_str() {
                    "" | "0" | "false" | "off" => false,
                    "1" | "true" | "on" => true,
                    v => return bad("LSERVE_NVME", "0|false|off|1|true|on", v),
                },
            },
            trace: match get("LSERVE_TRACE").as_str() {
                "" | "0" | "off" => TraceMode::Off,
                "1" | "on" | "ring" => TraceMode::Ring,
                "noop" => TraceMode::Noop,
                v => return bad("LSERVE_TRACE", "0|off|1|on|ring|noop", v),
            },
        })
    }
}

/// Which dynamic page-selection policy dense heads use during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// No dynamic sparsity: dense heads attend their full history.
    None,
    /// Flat, Quest-style physical-page statistics.
    Flat,
    /// LServe's hierarchical logical→physical scoring (§3.5.2).
    Hierarchical,
}

/// Full policy configuration of a [`crate::ModelExecutor`].
///
/// Presets mirror the paper's systems so accuracy comparisons isolate the policy:
/// everything runs on the same weights, caches and kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Page geometry and KV precision.
    pub paging: PagingConfig,
    /// Fraction of KV heads converted to streaming heads (0.0 disables static
    /// sparsity).
    pub streaming_sparsity: f64,
    /// Sink/local window of streaming heads, in physical pages.
    pub streaming_window: StreamingWindow,
    /// Dynamic sparsity token budget for dense heads (`None` = full attention).
    pub dynamic_budget: Option<usize>,
    /// Page-selector policy.
    pub selector: SelectorKind,
    /// Selector reuse interval `C` (§3.5.3); 1 = select every step.
    pub reuse_interval: usize,
    /// Square tile size for block-sparse prefill.
    pub prefill_tile: usize,
    /// MInference-style dynamic prefill sparsity on retrieval heads: `Some(keep)`
    /// retains `keep` top-affinity past blocks per query tile (plus diagonal and
    /// sinks) once the prompt exceeds [`EngineConfig::dynamic_prefill_after`].
    pub dynamic_prefill_keep: Option<usize>,
    /// Prompt length (tokens) beyond which dynamic prefill activates (§4.3 uses
    /// 128K).
    pub dynamic_prefill_after: usize,
    /// Seed for the synthetic DuoAttention gate values.
    pub gate_seed: u64,
    /// Selection-driven demotion for the tiered KV memory: `Some(k)` demotes a
    /// dense-head page to the cold (host) tier once the head's
    /// [`lserve_selector::ReusableSelector`] has skipped it for `k` consecutive
    /// fresh selection chunks; a later selection that picks a cold page
    /// triggers an accounted promote before the decode kernel runs. `None`
    /// keeps every page device-resident (the single-tier baseline). Outputs
    /// are bit-identical either way — the knob trades hot-tier footprint for
    /// modeled transfer work. Whether that work stalls the decode loop or is
    /// hidden behind it is a separate, orthogonal knob:
    /// [`lserve_kvcache::MigrationMode`] (env `LSERVE_MIGRATION`), which
    /// routes the transfers through the asynchronous copy engine.
    pub demote_after_chunks: Option<usize>,
}

impl EngineConfig {
    /// LServe defaults: INT4 KV, 64/16 hierarchical paging, 50% streaming heads,
    /// 4096-token dynamic budget, reuse interval 4.
    pub fn lserve() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Int4),
            streaming_sparsity: 0.5,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: Some(4096),
            selector: SelectorKind::Hierarchical,
            reuse_interval: 4,
            prefill_tile: 64,
            dynamic_prefill_keep: Some(64),
            dynamic_prefill_after: 131_072,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// Accuracy-test variant of [`EngineConfig::lserve`] with FP16 KV, so
    /// sparsity-induced error is isolated from quantization error.
    pub fn lserve_fp16() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Fp16),
            ..Self::lserve()
        }
    }

    /// Dense baseline: full attention everywhere, FP16 KV.
    pub fn dense() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Fp16),
            streaming_sparsity: 0.0,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: None,
            selector: SelectorKind::None,
            reuse_interval: 1,
            prefill_tile: 64,
            dynamic_prefill_keep: None,
            dynamic_prefill_after: usize::MAX,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// QServe-like: INT4 KV with large flat pages, no sparsity.
    pub fn qserve_like() -> Self {
        Self {
            paging: PagingConfig::flat(64, KvPrecision::Int4),
            ..Self::dense()
        }
    }

    /// Quest-like: FP16 KV, flat 16-token pages, selection every step, dense
    /// prefill (no streaming heads).
    pub fn quest_like(budget: usize) -> Self {
        Self {
            paging: PagingConfig::flat(16, KvPrecision::Fp16),
            dynamic_budget: Some(budget),
            selector: SelectorKind::Flat,
            ..Self::dense()
        }
    }

    /// DuoAttention-like: static sparsity only (50% streaming heads), FP16, dense
    /// retrieval heads.
    pub fn duo_like() -> Self {
        Self {
            streaming_sparsity: 0.5,
            ..Self::dense()
        }
    }

    /// LServe with a custom dynamic budget (`LServe-N` in Tables 3/6).
    pub fn lserve_with_budget(budget: usize) -> Self {
        Self {
            dynamic_budget: Some(budget),
            ..Self::lserve()
        }
    }

    /// Builds a page pool sized so one sequence of up to `max_tokens` fits under
    /// this configuration (dense heads grow with context; streaming heads are
    /// bounded by their window). The migration mode is read from
    /// `LSERVE_MIGRATION` (sync when unset), so single-sequence runs exercise
    /// the same copy-engine path the scheduler does under the async CI leg.
    pub fn make_pool_for(&self, model: &ModelConfig, max_tokens: usize) -> PagePool {
        let capacity = crate::sequence_pages_estimate(self, model, max_tokens) + 8;
        PagePool::new_with_tiers(
            self.paging,
            capacity,
            model.head_dim,
            RuntimeConfig::from_env().migration,
            TierConfig::default(),
        )
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a selector is configured without a budget or vice versa, or the
    /// reuse interval is zero.
    pub fn validate(&self) {
        assert!(self.reuse_interval >= 1, "reuse interval must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.streaming_sparsity),
            "streaming sparsity must be in [0,1]"
        );
        match (self.dynamic_budget, self.selector) {
            (Some(_), SelectorKind::None) => panic!("budget set but selector is None"),
            (None, SelectorKind::Flat | SelectorKind::Hierarchical) => {
                panic!("selector set but no budget")
            }
            _ => {}
        }
        assert!(self.prefill_tile > 0, "prefill tile must be positive");
        if let Some(keep) = self.dynamic_prefill_keep {
            assert!(keep > 0, "dynamic prefill keep budget must be positive");
        }
        if let Some(k) = self.demote_after_chunks {
            assert!(k >= 1, "demotion staleness must be at least one chunk");
            assert!(
                self.dynamic_budget.is_some(),
                "selection-driven demotion needs an active page selector"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variable x its accepted spellings x one bad value: an accepted
    /// spelling selects what the table says, the rest of the environment at
    /// its defaults; a bad value is an error naming the variable.
    #[test]
    fn runtime_config_accepts_the_listed_spellings_and_rejects_the_rest() {
        let with = |name: &'static str, value: &'static str| {
            RuntimeConfig::parse(move |n| (n == name).then(|| value.to_string()))
        };
        let unset = RuntimeConfig::parse(|_| None).unwrap();
        let bounded = |host_pages, nvme| TierConfig { host_pages, nvme };
        assert_eq!(
            unset,
            RuntimeConfig {
                decode_threads: 1,
                preemption: PreemptionPolicy::Replay,
                migration: MigrationMode::Sync,
                devices: 1,
                tiers: bounded(0, false),
                trace: TraceMode::Off,
            }
        );
        type Case = (
            &'static str,
            &'static [&'static str],
            RuntimeConfig,
            &'static str,
        );
        let (swap, asynch) = (PreemptionPolicy::Swap, MigrationMode::Async);
        #[rustfmt::skip]
        let cases: [Case; 14] = [
            ("LSERVE_DECODE_THREADS", &["", " ", "1"], unset, "0"),
            ("LSERVE_DECODE_THREADS", &["8", " 8 "], RuntimeConfig { decode_threads: 8, ..unset }, "eight"),
            ("LSERVE_PREEMPTION", &["", "replay", "Replay"], unset, "swpa"),
            ("LSERVE_PREEMPTION", &["swap", " SWAP "], RuntimeConfig { preemption: swap, ..unset }, "swap,"),
            ("LSERVE_MIGRATION", &["", "sync"], unset, "asnyc"),
            ("LSERVE_MIGRATION", &["async", "ASYNC"], RuntimeConfig { migration: asynch, ..unset }, "1"),
            ("LSERVE_DEVICES", &["", "1"], unset, "x"),
            ("LSERVE_DEVICES", &["4"], RuntimeConfig { devices: 4, ..unset }, "0"),
            ("LSERVE_HOST_PAGES", &["", "0"], unset, "abc"),
            ("LSERVE_HOST_PAGES", &["8"], RuntimeConfig { tiers: bounded(8, false), ..unset }, "-1"),
            ("LSERVE_NVME", &["", "0", "false", "off"], unset, "yes"),
            ("LSERVE_NVME", &["1", "true", "on", "ON"], RuntimeConfig { tiers: bounded(0, true), ..unset }, "2"),
            ("LSERVE_TRACE", &["", "0", "off"], unset, "typo"),
            ("LSERVE_TRACE", &["1", "on", "ring"], RuntimeConfig { trace: TraceMode::Ring, ..unset }, "rnig"),
        ];
        for (name, spellings, want, bad) in cases {
            for value in spellings {
                assert_eq!(with(name, value), Ok(want), "{name}={value:?}");
            }
            let err = with(name, bad).expect_err(bad);
            assert!(
                err.starts_with(name) && err.contains(bad),
                "{name}={bad:?}: {err}"
            );
        }
        let noop = RuntimeConfig {
            trace: TraceMode::Noop,
            ..unset
        };
        assert_eq!(with("LSERVE_TRACE", "noop"), Ok(noop));
        assert!(!TraceMode::Off.tracer().is_enabled());
        assert!(TraceMode::Ring.tracer().is_enabled() && TraceMode::Noop.tracer().is_enabled());
    }

    /// The CI leg's seven variables at once.
    #[test]
    fn runtime_config_reads_every_variable_together() {
        let leg = [
            ("LSERVE_DECODE_THREADS", "8"),
            ("LSERVE_PREEMPTION", "swap"),
            ("LSERVE_MIGRATION", "async"),
            ("LSERVE_DEVICES", "4"),
            ("LSERVE_HOST_PAGES", "8"),
            ("LSERVE_NVME", "1"),
            ("LSERVE_TRACE", "noop"),
        ];
        let got = RuntimeConfig::parse(|n| {
            let hit = leg.iter().find(|(name, _)| *name == n);
            Some(
                hit.expect("only the seven variables are read")
                    .1
                    .to_string(),
            )
        });
        let want = RuntimeConfig {
            decode_threads: 8,
            preemption: PreemptionPolicy::Swap,
            migration: MigrationMode::Async,
            devices: 4,
            tiers: TierConfig {
                host_pages: 8,
                nvme: true,
            },
            trace: TraceMode::Noop,
        };
        assert_eq!(got, Ok(want));
    }

    #[test]
    fn presets_validate() {
        EngineConfig::lserve().validate();
        EngineConfig::lserve_fp16().validate();
        EngineConfig::dense().validate();
        EngineConfig::qserve_like().validate();
        EngineConfig::quest_like(4096).validate();
        EngineConfig::duo_like().validate();
        EngineConfig::lserve_with_budget(8192).validate();
    }

    #[test]
    fn lserve_matches_paper_defaults() {
        let c = EngineConfig::lserve();
        assert_eq!(c.paging.physical_page_size(), 64);
        assert_eq!(c.paging.logical_page_size(), 16);
        assert_eq!(c.dynamic_budget, Some(4096));
        assert_eq!(c.reuse_interval, 4);
        assert_eq!(c.streaming_sparsity, 0.5);
    }

    #[test]
    #[should_panic(expected = "selector set but no budget")]
    fn inconsistent_config_rejected() {
        let mut c = EngineConfig::lserve();
        c.dynamic_budget = None;
        c.validate();
    }
}
