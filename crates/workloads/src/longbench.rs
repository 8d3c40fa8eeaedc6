//! LongBench-proxy task panel (Table 2 / Table 8).
//!
//! Each LongBench suite is represented by a retrieval profile — haystack size,
//! number of salient spans, signal sharpness — chosen to reflect the task family
//! (multi-hop QA needs several spans, summarization needs broad coverage, few-shot
//! tasks need sharp recall of specific demonstrations). The measured quantity is
//! retrieval **fidelity** in `[0, 1]` (mean salient-span recall of the sparse
//! policy); Table 2's row in `tests/quality_gates.rs` multiplies it by the paper's
//! dense score to present paper-comparable numbers, the dense baseline's own
//! fidelity being 1.0.

use crate::niah::NiahConfig;
use crate::ruler::MultiNeedleCase;

/// One LongBench suite stand-in.
#[derive(Debug, Clone, PartialEq)]
pub struct LongBenchTask {
    /// Suite name as it appears in Table 2.
    pub name: &'static str,
    /// Paper's dense score for Llama-3-8B.
    pub dense_llama3: f64,
    /// Paper's dense score for Llama-2-7B.
    pub dense_llama2: f64,
    /// Haystack length in tokens.
    pub seq_len: usize,
    /// Salient spans the task requires.
    pub needles: usize,
    /// Signal sharpness (spike magnitude) of the salient spans.
    pub spike: f32,
}

impl LongBenchTask {
    /// Generates `trials` cases for this task, seeded deterministically.
    pub fn cases(&self, trials: usize, seed: u64) -> Vec<MultiNeedleCase> {
        let cfg = NiahConfig {
            spike: self.spike,
            ..NiahConfig::standard(self.seq_len)
        };
        (0..trials)
            .map(|i| MultiNeedleCase::generate(cfg, self.needles, seed ^ (i as u64 * 0x9E37_79B9)))
            .collect()
    }
}

/// The eight suites of Table 2 with the paper's dense-baseline scores.
pub fn longbench_tasks() -> Vec<LongBenchTask> {
    vec![
        LongBenchTask {
            name: "2WikiMQA",
            dense_llama3: 30.3,
            dense_llama2: 35.4,
            seq_len: 16_384,
            needles: 2,
            spike: 3.0,
        },
        LongBenchTask {
            name: "DuReader",
            dense_llama3: 30.3,
            dense_llama2: 25.4,
            seq_len: 16_384,
            needles: 4,
            spike: 3.1,
        },
        LongBenchTask {
            name: "HotpotQA",
            dense_llama3: 41.7,
            dense_llama2: 47.4,
            seq_len: 16_384,
            needles: 2,
            spike: 3.2,
        },
        LongBenchTask {
            name: "MultiNews",
            dense_llama3: 27.7,
            dense_llama2: 26.6,
            seq_len: 8_192,
            needles: 6,
            spike: 2.5,
        },
        LongBenchTask {
            name: "Qasper",
            dense_llama3: 31.7,
            dense_llama2: 32.6,
            seq_len: 8_192,
            needles: 3,
            spike: 2.6,
        },
        LongBenchTask {
            name: "QMSum",
            dense_llama3: 23.8,
            dense_llama2: 21.0,
            seq_len: 16_384,
            needles: 5,
            spike: 3.2,
        },
        LongBenchTask {
            name: "SamSum",
            dense_llama3: 41.2,
            dense_llama2: 41.8,
            seq_len: 8_192,
            needles: 3,
            spike: 3.0,
        },
        LongBenchTask {
            name: "TriviaQA",
            dense_llama3: 84.9,
            dense_llama2: 86.2,
            seq_len: 8_192,
            needles: 1,
            spike: 3.4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_kvcache::PagingConfig;
    use lserve_quant::KvPrecision;
    use lserve_selector::{HierarchicalSelector, PageSelector};

    #[test]
    fn panel_has_eight_tasks() {
        let tasks = longbench_tasks();
        assert_eq!(tasks.len(), 8);
        let mut names: Vec<_> = tasks.iter().map(|t| t.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn cases_are_deterministic() {
        let t = &longbench_tasks()[0];
        let a = t.cases(2, 7);
        let b = t.cases(2, 7);
        assert_eq!(a[0].query(), b[0].query());
        assert_eq!(a[1].needle_ranges(), b[1].needle_ranges());
    }

    #[test]
    fn lserve_policy_keeps_high_fidelity() {
        // Table 2's claim in proxy form: hierarchical selection at the paper's
        // default budget preserves nearly all salient spans on every task.
        for task in longbench_tasks() {
            let mut total = 0.0;
            let cases = task.cases(3, 42);
            for case in &cases {
                let (pool, cache) = case.build_cache(PagingConfig::new(64, 16, KvPrecision::Fp16));
                let mut sel = HierarchicalSelector::new(true);
                let s = sel.select(&pool, &cache, &[case.query()], 4096, 0);
                total += case.accuracy(&s.pages, 64);
            }
            let fidelity = total / cases.len() as f64;
            assert!(fidelity >= 0.7, "{}: fidelity {fidelity}", task.name);
        }
    }
}
