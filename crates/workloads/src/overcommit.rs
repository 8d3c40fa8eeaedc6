//! Overcommit workload: bursty long-context arrivals that oversubscribe the
//! hot KV tier.
//!
//! The tiered KV memory's two policies — selection-driven demotion and
//! swap-based preemption — only earn their keep when the *aggregate* KV demand
//! of concurrently live sequences exceeds device memory. This generator
//! synthesizes exactly that traffic: bursts of long-context prompts arriving
//! together (an agent fleet waking up, a batch-inference window opening), each
//! prompt unshared with its peers so the prefix cache cannot absorb the
//! pressure, with generation long enough that the burst must coexist through
//! many decode iterations.
//!
//! Like the other generators in this crate, it emits plain `(prompt,
//! max_new_tokens)` specs; serving layers wrap them in their own request type
//! and pick the hot-tier size (a pool well below `total_requests() ×
//! per-sequence footprint` is the interesting regime — swap vs replay is then
//! the difference between continuing a victim for the cost of a transfer and
//! re-feeding its whole context).

use lserve_tensor::SeededGaussian;

use crate::shared_prefix::PromptSpec;

/// Geometry of an overcommit workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OvercommitConfig {
    /// Number of arrival bursts.
    pub bursts: usize,
    /// Long-context requests arriving together in each burst.
    pub requests_per_burst: usize,
    /// Base prompt length of every request (the "long context").
    pub context_tokens: usize,
    /// Per-request prompt-length jitter: request `i` of a burst adds
    /// `i * context_jitter` tokens, so footprints differ and victim selection
    /// is exercised at several sizes.
    pub context_jitter: usize,
    /// Generation budget per request — long enough that a burst's sequences
    /// must coexist through many decode iterations.
    pub max_new_tokens: usize,
    /// Vocabulary size tokens are drawn from.
    pub vocab: u32,
    /// RNG seed; equal seeds produce identical workloads.
    pub seed: u64,
}

impl OvercommitConfig {
    /// A toy-scale default: 2 bursts × 4 requests, 160-token contexts with
    /// 16-token jitter, 16 generated tokens each.
    pub fn small() -> Self {
        Self {
            bursts: 2,
            requests_per_burst: 4,
            context_tokens: 160,
            context_jitter: 16,
            max_new_tokens: 16,
            vocab: 90,
            seed: 0xC01D,
        }
    }

    /// The migration scene: the `small` geometry with a doubled generation
    /// budget, so a burst's sequences coexist through enough decode
    /// iterations that an asynchronous copy engine has compute to hide
    /// transfers behind. The sync-vs-async claim (stall cut >= 2x, prefetch
    /// waste < 0.80) is asserted on it by
    /// `async_migration_halves_the_overcommit_stall_and_bounds_prefetch_waste`
    /// in `tests/proptest_migration.rs`.
    pub fn migration_bench() -> Self {
        Self {
            max_new_tokens: 32,
            seed: 0xA51C,
            ..Self::small()
        }
    }

    /// The hierarchy scene: the `migration_bench` geometry with a third
    /// burst, so swap-parked victims pile up faster than a bounded host tier
    /// can absorb and the modeled nvme tier below it sees real traffic. The
    /// memory-hierarchy claim (bounded host + nvme sustains >= 1.2x the mean
    /// running sequences of drop-to-replay with every page resident) is
    /// asserted on it by
    /// `bounded_host_over_nvme_sustains_more_running_sequences_than_resident_replay`
    /// in `tests/proptest_hierarchy.rs`.
    pub fn hierarchy_bench() -> Self {
        Self {
            bursts: 3,
            seed: 0x9E1A,
            ..Self::migration_bench()
        }
    }

    /// Total requests the workload generates.
    pub fn total_requests(&self) -> usize {
        self.bursts * self.requests_per_burst
    }

    /// Prompt length of request `i` within a burst.
    pub fn prompt_len(&self, i: usize) -> usize {
        self.context_tokens + i * self.context_jitter
    }

    /// The largest prompt any request carries.
    pub fn max_prompt_len(&self) -> usize {
        self.prompt_len(self.requests_per_burst.saturating_sub(1))
    }
}

/// Generates the overcommit workload: `bursts × requests_per_burst` prompts in
/// arrival order, burst-major (`PromptSpec::persona` carries the burst index).
/// Every prompt is an independent token stream — deliberately zero sharing, so
/// the only relief valves under pressure are preemption and tier migration.
///
/// # Example
///
/// ```
/// use lserve_workloads::{overcommit_workload, OvercommitConfig};
///
/// let cfg = OvercommitConfig::small();
/// let reqs = overcommit_workload(&cfg);
/// assert_eq!(reqs.len(), cfg.total_requests());
/// assert!(reqs.iter().all(|r| r.prompt_len() >= cfg.context_tokens));
/// // No two prompts share a prefix worth caching.
/// assert_ne!(reqs[0].prompt[..8], reqs[1].prompt[..8]);
/// ```
pub fn overcommit_workload(cfg: &OvercommitConfig) -> Vec<PromptSpec> {
    let mut g = SeededGaussian::new(cfg.seed);
    let mut out = Vec::with_capacity(cfg.total_requests());
    for burst in 0..cfg.bursts {
        for i in 0..cfg.requests_per_burst {
            let len = cfg.prompt_len(i);
            let prompt: Vec<u32> = (0..len)
                .map(|_| g.index(cfg.vocab as usize) as u32)
                .collect();
            out.push(PromptSpec {
                persona: burst,
                prompt,
                max_new_tokens: cfg.max_new_tokens,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let cfg = OvercommitConfig::small();
        let a = overcommit_workload(&cfg);
        assert_eq!(a, overcommit_workload(&cfg));
        assert_eq!(a.len(), 8);
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(a, overcommit_workload(&other));
    }

    #[test]
    fn burst_structure_and_jitter() {
        let cfg = OvercommitConfig::small();
        let reqs = overcommit_workload(&cfg);
        for (n, r) in reqs.iter().enumerate() {
            assert_eq!(r.persona, n / cfg.requests_per_burst, "burst-major order");
            let i = n % cfg.requests_per_burst;
            assert_eq!(r.prompt_len(), cfg.prompt_len(i));
            assert!(r.prompt.iter().all(|&t| t < cfg.vocab));
        }
        assert_eq!(reqs[3].prompt_len(), cfg.max_prompt_len());
    }

    #[test]
    fn migration_bench_extends_the_decode_phase() {
        let small = OvercommitConfig::small();
        let bench = OvercommitConfig::migration_bench();
        assert!(bench.max_new_tokens > small.max_new_tokens);
        assert_eq!(bench.total_requests(), small.total_requests());
        assert_ne!(
            overcommit_workload(&bench)[0].prompt,
            overcommit_workload(&small)[0].prompt,
            "distinct seed: the scenes must not alias"
        );
    }

    #[test]
    fn hierarchy_bench_adds_a_burst() {
        let mig = OvercommitConfig::migration_bench();
        let hier = OvercommitConfig::hierarchy_bench();
        assert!(hier.bursts > mig.bursts, "more bursts: deeper backlog");
        assert_eq!(hier.max_new_tokens, mig.max_new_tokens);
        assert_ne!(
            overcommit_workload(&hier)[0].prompt,
            overcommit_workload(&mig)[0].prompt,
            "distinct seed: the scenes must not alias"
        );
    }

    #[test]
    fn aggregate_demand_exceeds_any_single_request() {
        let cfg = OvercommitConfig::small();
        // KV-bearing tokens live if every request ran at once.
        let aggregate: usize = overcommit_workload(&cfg)
            .iter()
            .map(|r| r.prompt.len() + cfg.max_new_tokens)
            .sum();
        assert!(
            aggregate > 4 * (cfg.max_prompt_len() + cfg.max_new_tokens),
            "the workload must be able to oversubscribe a single-sequence tier"
        );
    }

    #[test]
    fn prompts_are_pairwise_unshared() {
        let reqs = overcommit_workload(&OvercommitConfig::small());
        for a in 0..reqs.len() {
            for b in a + 1..reqs.len() {
                assert_ne!(
                    reqs[a].prompt[..16],
                    reqs[b].prompt[..16],
                    "requests {a} and {b} share a prefix"
                );
            }
        }
    }
}
