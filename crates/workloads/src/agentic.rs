//! Agentic request-DAG workloads: speculative tool-call branching and
//! best-of-N candidate panels.
//!
//! Agent frameworks turn one user request into a *tree* of model calls: a
//! runtime launches the continuation for every plausible tool result before
//! the tool returns (speculative tool calls), a ranker samples N candidate
//! answers and keeps the best (best-of-N). Every branch shares the whole
//! conversation up to the fork point, which is exactly the shape the
//! scheduler's CoW `fork()` exploits: zero-copy prefix sharing, per-branch
//! sparsity overrides, and join policies that cancel the losers.
//!
//! Like [`shared_prefix`](crate::shared_prefix), these generators emit plain
//! token-vec structs rather than serving requests — this crate sits below
//! `lserve-core`, so a caller maps [`BranchPrompt`] fields onto its own
//! `BranchSpec` type.

use lserve_tensor::SeededGaussian;

/// One speculative branch of an agent DAG: what to append at the fork point
/// and how to run it. Serving layers map this 1:1 onto their branch spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPrompt {
    /// Tokens appended after the shared fork-point history (the sub-query,
    /// the speculated tool result, or the candidate's sampling nonce).
    pub suffix: Vec<u32>,
    /// Generation budget for this branch.
    pub max_new_tokens: usize,
    /// Join-policy tiebreaker: a ranker's score for best-of-N panels, zero
    /// elsewhere.
    pub score_bias: i64,
    /// Tokens that end this branch early (a tool-result terminator), empty
    /// elsewhere.
    pub stop_tokens: Vec<u32>,
}

/// One agent scene: a root conversation plus the branches it forks into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentScene {
    /// The shared conversation up to the fork point.
    pub root_prompt: Vec<u32>,
    /// Generation budget for the root request (it keeps decoding while the
    /// branches race).
    pub root_new_tokens: usize,
    /// The speculative branches, in spawn order.
    pub branches: Vec<BranchPrompt>,
}

/// Geometry of an agentic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgenticConfig {
    /// Tokens in the shared root conversation.
    pub root_tokens: usize,
    /// Branches per fork.
    pub branches: usize,
    /// Tokens appended per branch (sub-query / tool result / nonce).
    pub suffix_tokens: usize,
    /// Generation budget per branch.
    pub branch_new_tokens: usize,
    /// Vocabulary size tokens are drawn from.
    pub vocab: u32,
    /// RNG seed; equal seeds produce identical scenes.
    pub seed: u64,
}

fn tokens(g: &mut SeededGaussian, n: usize, vocab: u32) -> Vec<u32> {
    (0..n).map(|_| g.index(vocab as usize) as u32).collect()
}

/// Speculative tool-call branching: the runtime launches the continuation
/// for every plausible tool result before the tool returns. Branch `i`
/// speculates a different result payload; deeper alternatives get larger
/// budgets (the cheap common case resolves first), and every branch stops
/// early at the shared tool-result terminator token. Run under a
/// `FirstFinished` join; the losers are cancelled the moment one
/// continuation completes.
pub fn tool_call_branches(cfg: &AgenticConfig) -> AgentScene {
    let mut g = SeededGaussian::new(cfg.seed);
    let root_prompt = tokens(&mut g, cfg.root_tokens, cfg.vocab);
    let terminator = g.index(cfg.vocab as usize) as u32;
    let branches = (0..cfg.branches)
        .map(|i| BranchPrompt {
            suffix: tokens(&mut g, cfg.suffix_tokens, cfg.vocab),
            max_new_tokens: cfg.branch_new_tokens * (i + 1),
            score_bias: 0,
            stop_tokens: vec![terminator],
        })
        .collect();
    AgentScene {
        root_prompt,
        root_new_tokens: cfg.branch_new_tokens,
        branches,
    }
}

/// Best-of-N candidate panel: N branches sample alternative answers to the
/// same question — a per-branch nonce suffix stands in for sampling
/// temperature (decode is deterministic, so identical suffixes would yield
/// identical candidates) — and a seeded ranker score stands in for the
/// reward model. Run under a `BestScore` join; the panel waits for every
/// candidate and keeps the highest-scored one.
pub fn best_of_n(cfg: &AgenticConfig) -> AgentScene {
    let mut g = SeededGaussian::new(cfg.seed);
    let root_prompt = tokens(&mut g, cfg.root_tokens, cfg.vocab);
    let branches = (0..cfg.branches)
        .map(|_| BranchPrompt {
            suffix: tokens(&mut g, cfg.suffix_tokens, cfg.vocab),
            max_new_tokens: cfg.branch_new_tokens,
            // Distinct by construction: index() over a wide range collides
            // with negligible probability, and the spread gives the join a
            // clear winner.
            score_bias: g.index(1 << 16) as i64,
            stop_tokens: Vec::new(),
        })
        .collect();
    AgentScene {
        root_prompt,
        root_new_tokens: cfg.branch_new_tokens,
        branches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 32-token root forking into 4 branches of 8-token suffixes.
    const CFG: AgenticConfig = AgenticConfig {
        root_tokens: 32,
        branches: 4,
        suffix_tokens: 8,
        branch_new_tokens: 8,
        vocab: 90,
        seed: 0xA9E7,
    };

    #[test]
    fn scenes_are_deterministic_and_seed_sensitive() {
        assert_eq!(tool_call_branches(&CFG), tool_call_branches(&CFG));
        assert_eq!(best_of_n(&CFG), best_of_n(&CFG));
        let other = AgenticConfig {
            seed: CFG.seed ^ 1,
            ..CFG
        };
        assert_ne!(tool_call_branches(&CFG), tool_call_branches(&other));
        assert_ne!(best_of_n(&CFG), best_of_n(&other));
    }

    #[test]
    fn tool_branches_share_a_terminator_and_stagger_budgets() {
        let scene = tool_call_branches(&CFG);
        let terminator = scene.branches[0].stop_tokens[0];
        for (i, b) in scene.branches.iter().enumerate() {
            assert_eq!(b.stop_tokens, vec![terminator]);
            assert_eq!(b.max_new_tokens, CFG.branch_new_tokens * (i + 1));
        }
    }

    #[test]
    fn best_of_n_scores_break_ties() {
        let scene = best_of_n(&CFG);
        let mut scores: Vec<i64> = scene.branches.iter().map(|b| b.score_bias).collect();
        scores.sort_unstable();
        scores.dedup();
        assert_eq!(scores.len(), CFG.branches, "ranker scores are distinct");
        for w in scene.branches.windows(2) {
            assert_ne!(w[0].suffix, w[1].suffix, "nonces differentiate candidates");
        }
    }
}
