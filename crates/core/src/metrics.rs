//! Consolidated metrics registry: every counter family the serving stack
//! accumulates — scheduler lifecycle, parallel execution, tier migration,
//! prefix cache — rendered into one deterministic JSON document.
//!
//! [`MetricsSnapshot`] is the document behind [`crate::ClusterReport::rollup`]:
//! a caller registers one [`ServingReport`] (or any [`Json`] value) per
//! scenario under a stable name, and [`MetricsSnapshot::render`] emits a
//! single document whose keys and key order are pure functions of the
//! registration sequence. [`ServingReport::to_json`] is the per-report
//! projection it composes, and [`ServingReport::summary`] is the same data as
//! a human-readable multi-line block for example binaries. The modeled claims
//! these counters carry are asserted by `cargo test` (DESIGN.md,
//! "Claim tests"), not by a file.

use lserve_trace::Json;

use crate::api::{PreemptionPolicy, SloClass};
use crate::report::ServingReport;
use crate::MigrationMode;

/// A named collection of metric documents, rendered as one JSON object in
/// registration order (deterministic: the order is part of the artifact).
#[derive(Debug, Default)]
pub struct MetricsSnapshot {
    sections: Vec<(&'static str, Json)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — duplicate sections would
    /// silently shadow each other in consumers that parse the document as a
    /// map.
    pub fn insert(&mut self, name: &'static str, value: Json) -> &mut Self {
        assert!(
            self.sections.iter().all(|(n, _)| *n != name),
            "duplicate metrics section: {name}"
        );
        self.sections.push((name, value));
        self
    }

    /// Registers the full counter projection of a serving report (see
    /// [`ServingReport::to_json`]).
    pub fn add_report(&mut self, name: &'static str, report: &ServingReport) -> &mut Self {
        self.insert(name, report.to_json())
    }

    /// The snapshot as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(self.sections.iter().map(|(n, v)| (*n, v.clone())))
    }

    /// Renders the snapshot (no trailing newline). Deterministic: key order is
    /// registration order, floats are rejected unless finite.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

fn class_label(class: SloClass) -> &'static str {
    match class {
        SloClass::Interactive => "interactive",
        SloClass::Batch => "batch",
        SloClass::BestEffort => "best_effort",
    }
}

fn class_json(report: &ServingReport, class: SloClass) -> Json {
    let count = report
        .request_metrics
        .iter()
        .filter(|m| m.class == class)
        .count();
    Json::obj([
        ("completed", Json::from(count as u64)),
        (
            "ttft_work_p50",
            Json::from(report.ttft_work_percentile_class(class, 0.5)),
        ),
        (
            "ttft_work_p95",
            Json::from(report.ttft_work_percentile_class(class, 0.95)),
        ),
        (
            "tbt_iters_p50",
            Json::from(report.tbt_percentile_class(class, 0.5)),
        ),
        (
            "tbt_iters_p95",
            Json::from(report.tbt_percentile_class(class, 0.95)),
        ),
    ])
}

impl ServingReport {
    /// Every counter family of the run — serving lifecycle, per-class latency,
    /// parallel execution, tier migration, prefix cache — as one JSON object
    /// with deterministic key order. The unit of [`MetricsSnapshot`]
    /// registration.
    pub fn to_json(&self) -> Json {
        let (met, total) = self.deadlines();
        let serving = Json::obj([
            ("scheduler_steps", Json::from(self.scheduler_steps)),
            ("decode_steps", Json::from(self.decode_steps)),
            ("completed", Json::from(self.completed.len() as u64)),
            ("cancelled", Json::from(self.cancelled.len() as u64)),
            ("rejected", Json::from(self.rejections.len() as u64)),
            ("preemptions", Json::from(self.preemptions)),
            ("peak_running", Json::from(self.peak_running)),
            ("mean_running", Json::from(self.mean_running())),
            ("peak_hot_pages", Json::from(self.peak_pages)),
            ("peak_cold_pages", Json::from(self.peak_cold_pages)),
            ("peak_nvme_pages", Json::from(self.peak_nvme_pages)),
            ("ttft_work_p50", Json::from(self.ttft_work_percentile(0.5))),
            ("ttft_work_p95", Json::from(self.ttft_work_percentile(0.95))),
            ("tbt_iters_p50", Json::from(self.tbt_percentile(0.5))),
            ("tbt_iters_p95", Json::from(self.tbt_percentile(0.95))),
            ("deadlines_met", Json::from(met as u64)),
            ("deadlines_total", Json::from(total as u64)),
        ]);
        let mut classes: Vec<(&'static str, Json)> = Vec::new();
        for class in [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort] {
            if self.request_metrics.iter().any(|m| m.class == class) {
                classes.push((class_label(class), class_json(self, class)));
            }
        }
        let parallel = Json::obj([
            ("workers", Json::from(self.parallel.workers)),
            ("phases", Json::from(self.parallel.phases)),
            ("shards", Json::from(self.parallel.shards)),
            ("stolen", Json::from(self.parallel.stolen)),
            ("utilization", Json::from(self.worker_utilization())),
            ("imbalance", Json::from(self.worker_imbalance())),
            ("cost_total", Json::from(self.parallel.cost_total)),
            ("cost_critical", Json::from(self.parallel.cost_critical)),
        ]);
        let topology = Json::obj([
            ("devices", Json::from(self.devices)),
            (
                "device_utilization",
                Json::from(self.parallel.device_utilization()),
            ),
            (
                "device_imbalance",
                Json::from(self.parallel.device_imbalance()),
            ),
            (
                "interconnect_tokens",
                Json::from(self.parallel.interconnect_tokens),
            ),
            ("rebalances", Json::from(self.rebalances)),
            ("heads_migrated", Json::from(self.heads_migrated)),
            (
                "rebalance_migration_tokens",
                Json::from(self.rebalance_migration_tokens),
            ),
        ]);
        let migration = Json::obj([
            (
                "mode",
                Json::from(match self.migration {
                    MigrationMode::Sync => "sync",
                    MigrationMode::Async => "async",
                }),
            ),
            (
                "preemption",
                Json::from(match self.preemption {
                    PreemptionPolicy::Replay => "replay",
                    PreemptionPolicy::Swap => "swap",
                }),
            ),
            ("host_pages", Json::from(self.host_pages)),
            ("nvme", Json::from(self.nvme as u64)),
            ("pages_demoted", Json::from(self.pages_demoted)),
            ("pages_promoted", Json::from(self.pages_promoted)),
            ("pages_spilled", Json::from(self.pages_spilled)),
            ("pages_recalled", Json::from(self.pages_recalled)),
            (
                "swap_resume_work_tokens",
                Json::from(self.swap_resume_work_tokens),
            ),
            (
                "hidden_transfer_tokens",
                Json::from(self.hidden_transfer_tokens),
            ),
            (
                "migration_stall_tokens",
                Json::from(self.migration_stall_tokens),
            ),
            ("overlap_ratio", Json::from(self.migration_overlap_ratio())),
            ("prefetch_issued", Json::from(self.prefetch_issued)),
            ("prefetch_hits", Json::from(self.prefetch_hits)),
            ("prefetch_wasted", Json::from(self.prefetch_wasted)),
        ]);
        let prefix = Json::obj([
            ("hit_tokens", Json::from(self.prefix_hit_tokens)),
            (
                "recomputed_tokens",
                Json::from(self.prefix_recomputed_tokens),
            ),
            ("hit_rate", Json::from(self.prefix_hit_rate())),
            ("insertions", Json::from(self.prefix_insertions)),
            ("evictions", Json::from(self.prefix_evictions)),
            ("spills", Json::from(self.prefix_spills)),
        ]);
        let dag = Json::obj([
            ("forks", Json::from(self.dag.forks)),
            ("branches_spawned", Json::from(self.dag.branches_spawned)),
            ("joins", Json::from(self.dag.joins)),
            ("branch_cancels", Json::from(self.dag.branch_cancels)),
        ]);
        Json::obj([
            ("serving", serving),
            ("classes", Json::obj(classes)),
            ("parallel", parallel),
            ("topology", topology),
            ("migration", migration),
            ("prefix", prefix),
            ("dag", dag),
        ])
    }

    /// A human-readable multi-line rendering of the run — the standard footer
    /// of the example binaries. One line per counter family; no trailing
    /// newline.
    pub fn summary(&self) -> String {
        let (met, total) = self.deadlines();
        let policy = match self.preemption {
            PreemptionPolicy::Replay => "replay",
            PreemptionPolicy::Swap => "swap",
        };
        let mode = match self.migration {
            MigrationMode::Sync => "sync",
            MigrationMode::Async => "async",
        };
        let mut lines = vec![
            format!(
                "serving:   {} completed, {} cancelled, {} rejected in {} steps ({} decode steps)",
                self.completed.len(),
                self.cancelled.len(),
                self.rejections.len(),
                self.scheduler_steps,
                self.decode_steps,
            ),
            format!(
                "batch:     peak {} running (mean {:.1}); peak pages {} hot / {} cold{}; {} preemptions ({policy})",
                self.peak_running,
                self.mean_running(),
                self.peak_pages,
                self.peak_cold_pages,
                if self.nvme {
                    format!(" / {} nvme", self.peak_nvme_pages)
                } else {
                    String::new()
                },
                self.preemptions,
            ),
            format!(
                "latency:   ttft p50 {} / p95 {} work-tokens; tbt p50 {:.2} / p95 {:.2} iters{}",
                self.ttft_work_percentile(0.5),
                self.ttft_work_percentile(0.95),
                self.tbt_percentile(0.5),
                self.tbt_percentile(0.95),
                if total > 0 {
                    format!("; deadlines {met}/{total} met")
                } else {
                    String::new()
                },
            ),
            format!(
                "parallel:  {} workers, utilization {:.1}%, imbalance {:.2}x, {} shards ({} stolen)",
                self.parallel.workers,
                100.0 * self.worker_utilization(),
                self.worker_imbalance(),
                self.parallel.shards,
                self.parallel.stolen,
            ),
            format!(
                "migration: {mode}; {} demoted / {} promoted pages{}; {} stall / {} hidden tokens ({:.1}% overlap); prefetch {} issued / {} hit / {} wasted",
                self.pages_demoted,
                self.pages_promoted,
                if self.nvme {
                    format!(" / {} spilled / {} recalled", self.pages_spilled, self.pages_recalled)
                } else {
                    String::new()
                },
                self.migration_stall_tokens,
                self.hidden_transfer_tokens,
                100.0 * self.migration_overlap_ratio(),
                self.prefetch_issued,
                self.prefetch_hits,
                self.prefetch_wasted,
            ),
        ];
        if self.devices > 1 {
            lines.push(format!(
                "topology:  {} devices, device imbalance {:.2}x, {} interconnect tokens; {} rebalances moved {} heads ({} tokens)",
                self.devices,
                self.parallel.device_imbalance(),
                self.parallel.interconnect_tokens,
                self.rebalances,
                self.heads_migrated,
                self.rebalance_migration_tokens,
            ));
        }
        if self.prefix_hit_tokens + self.prefix_recomputed_tokens + self.prefix_insertions > 0 {
            lines.push(format!(
                "prefix:    hit rate {:.1}% ({} hit / {} recomputed tokens); {} insertions, {} evictions",
                100.0 * self.prefix_hit_rate(),
                self.prefix_hit_tokens,
                self.prefix_recomputed_tokens,
                self.prefix_insertions,
                self.prefix_evictions,
            ));
        }
        if self.dag.forks > 0 {
            lines.push(format!(
                "dag:       {} forks spawned {} branches; {} joins, {} branch cancels",
                self.dag.forks, self.dag.branches_spawned, self.dag.joins, self.dag.branch_cancels,
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_trace::validate_json;

    fn tiny_report() -> ServingReport {
        ServingReport {
            scheduler_steps: 10,
            decode_steps: 24,
            completed: vec![(1, vec![5, 6, 7]), (2, vec![8])],
            peak_running: 2,
            running_seq_steps: 15,
            peak_pages: 12,
            ..ServingReport::default()
        }
    }

    #[test]
    fn report_json_validates_and_covers_families() {
        let rendered = tiny_report().to_json().render();
        validate_json(&rendered).unwrap();
        for family in [
            "\"serving\"",
            "\"parallel\"",
            "\"migration\"",
            "\"prefix\"",
            "\"dag\"",
        ] {
            assert!(rendered.contains(family), "missing {family} in {rendered}");
        }
        for key in [
            "\"peak_nvme_pages\"",
            "\"host_pages\"",
            "\"nvme\"",
            "\"pages_spilled\"",
            "\"pages_recalled\"",
            "\"spills\"",
        ] {
            assert!(rendered.contains(key), "missing tier key {key}");
        }
        assert!(rendered.contains("\"completed\":2"));
    }

    #[test]
    fn snapshot_renders_in_registration_order() {
        let mut snap = MetricsSnapshot::new();
        snap.insert("b_second", Json::from(2u64));
        snap.insert("a_first", Json::from(1u64));
        let s = snap.render();
        validate_json(&s).unwrap();
        assert!(s.find("b_second").unwrap() < s.find("a_first").unwrap());
    }

    #[test]
    #[should_panic(expected = "duplicate metrics section")]
    fn snapshot_rejects_duplicate_names() {
        let mut snap = MetricsSnapshot::new();
        snap.insert("x", Json::from(1u64));
        snap.insert("x", Json::from(2u64));
    }

    #[test]
    fn summary_mentions_every_family() {
        let s = tiny_report().summary();
        for family in ["serving:", "batch:", "latency:", "parallel:", "migration:"] {
            assert!(s.contains(family), "missing {family} in\n{s}");
        }
        // Prefix line only appears when the cache saw traffic.
        assert!(!s.contains("prefix:"));
        let mut r = tiny_report();
        r.prefix_insertions = 3;
        assert!(r.summary().contains("prefix:"));
        // DAG line only appears when a fork happened.
        assert!(!s.contains("dag:"));
        let mut r = tiny_report();
        r.dag.forks = 1;
        r.dag.branches_spawned = 4;
        assert!(r.summary().contains("dag:"));
    }
}
