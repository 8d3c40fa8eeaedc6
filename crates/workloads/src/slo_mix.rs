//! SLO-mix workload: long batch prompts interleaved with short interactive
//! requests arriving behind them.
//!
//! The traffic shape that makes class-aware scheduling pay off: each wave
//! opens with one (or more) long-context batch prompts — summarization jobs,
//! offline evals — and a burst of short interactive requests lands right
//! behind them. Under class-blind FCFS the interactive requests queue behind
//! the batch admissions and inherit their prefill latency; a class-aware
//! scheduler admits them first and picks batch victims under pressure, so
//! interactive TTFT collapses while total throughput (everyone completes the
//! same work) is unchanged.
//!
//! Like the other generators in this crate, it emits plain prompt specs plus
//! an `interactive` marker; serving layers map the marker onto their own SLO
//! class and attach deadlines as they see fit.

use lserve_tensor::SeededGaussian;

use crate::shared_prefix::PromptSpec;

/// One request of the mixed workload: the prompt spec plus which side of the
/// SLO divide it falls on. Requests are emitted in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloMixRequest {
    /// True for the short latency-sensitive requests, false for the long
    /// batch prompts.
    pub interactive: bool,
    /// The prompt spec (`persona` carries the wave index).
    pub spec: PromptSpec,
}

/// Geometry of an SLO-mix workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloMixConfig {
    /// Number of arrival waves.
    pub waves: usize,
    /// Long batch prompts opening each wave.
    pub batch_per_wave: usize,
    /// Short interactive requests arriving behind them in each wave.
    pub interactive_per_wave: usize,
    /// Prompt length of a batch request.
    pub batch_prompt_tokens: usize,
    /// Prompt length of an interactive request.
    pub interactive_prompt_tokens: usize,
    /// Generation budget of a batch request.
    pub batch_new_tokens: usize,
    /// Generation budget of an interactive request.
    pub interactive_new_tokens: usize,
    /// Vocabulary size tokens are drawn from.
    pub vocab: u32,
    /// RNG seed; equal seeds produce identical workloads.
    pub seed: u64,
}

impl SloMixConfig {
    /// A toy-scale default: 2 waves of 2×160-token batch prompts followed by
    /// 4×12-token interactive requests each.
    pub fn small() -> Self {
        Self {
            waves: 2,
            batch_per_wave: 2,
            interactive_per_wave: 4,
            batch_prompt_tokens: 160,
            interactive_prompt_tokens: 12,
            batch_new_tokens: 16,
            interactive_new_tokens: 8,
            vocab: 90,
            seed: 0x510,
        }
    }

    /// Total requests the workload generates.
    pub fn total_requests(&self) -> usize {
        self.waves * (self.batch_per_wave + self.interactive_per_wave)
    }
}

/// Generates the SLO-mix workload in arrival order, wave-major: each wave's
/// batch prompts first, its interactive burst right behind them. Prompts are
/// pairwise unshared (independent token streams), so the prefix cache cannot
/// absorb the head-of-line pressure — only scheduling policy can.
///
/// # Example
///
/// ```
/// use lserve_workloads::{slo_mix_workload, SloMixConfig};
///
/// let cfg = SloMixConfig::small();
/// let reqs = slo_mix_workload(&cfg);
/// assert_eq!(reqs.len(), cfg.total_requests());
/// assert_eq!(
///     reqs.iter().filter(|r| r.interactive).count(),
///     cfg.waves * cfg.interactive_per_wave
/// );
/// // Wave structure: batch prompts open each wave.
/// assert!(!reqs[0].interactive);
/// assert!(reqs[cfg.batch_per_wave].interactive);
/// ```
pub fn slo_mix_workload(cfg: &SloMixConfig) -> Vec<SloMixRequest> {
    let mut g = SeededGaussian::new(cfg.seed);
    let mut prompt = |len: usize| -> Vec<u32> {
        (0..len)
            .map(|_| g.index(cfg.vocab as usize) as u32)
            .collect()
    };
    let mut out = Vec::with_capacity(cfg.total_requests());
    for wave in 0..cfg.waves {
        for _ in 0..cfg.batch_per_wave {
            out.push(SloMixRequest {
                interactive: false,
                spec: PromptSpec {
                    persona: wave,
                    prompt: prompt(cfg.batch_prompt_tokens),
                    max_new_tokens: cfg.batch_new_tokens,
                },
            });
        }
        for _ in 0..cfg.interactive_per_wave {
            out.push(SloMixRequest {
                interactive: true,
                spec: PromptSpec {
                    persona: wave,
                    prompt: prompt(cfg.interactive_prompt_tokens),
                    max_new_tokens: cfg.interactive_new_tokens,
                },
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
        let cfg = SloMixConfig::small();
        let a = slo_mix_workload(&cfg);
        assert_eq!(a, slo_mix_workload(&cfg));
        assert_eq!(a.len(), cfg.total_requests());
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(a, slo_mix_workload(&other));
    }

    #[test]
    fn wave_structure_and_lengths() {
        let cfg = SloMixConfig::small();
        let reqs = slo_mix_workload(&cfg);
        let per_wave = cfg.batch_per_wave + cfg.interactive_per_wave;
        for (n, r) in reqs.iter().enumerate() {
            let wave = n / per_wave;
            let in_wave = n % per_wave;
            assert_eq!(r.spec.persona, wave, "wave-major arrival order");
            assert_eq!(r.interactive, in_wave >= cfg.batch_per_wave);
            let want_len = if r.interactive {
                cfg.interactive_prompt_tokens
            } else {
                cfg.batch_prompt_tokens
            };
            assert_eq!(r.spec.prompt_len(), want_len);
            assert!(r.spec.prompt.iter().all(|&t| t < cfg.vocab));
        }
    }

    #[test]
    fn prompts_are_pairwise_unshared() {
        let reqs = slo_mix_workload(&SloMixConfig::small());
        for a in 0..reqs.len() {
            for b in a + 1..reqs.len() {
                assert_ne!(
                    reqs[a].spec.prompt[..8],
                    reqs[b].spec.prompt[..8],
                    "requests {a} and {b} share a prefix"
                );
            }
        }
    }
}
