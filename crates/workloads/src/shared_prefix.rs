//! Shared-prefix and multi-turn prompt workloads.
//!
//! Modern serving traffic is dominated by *reusable* prefill: agents and domain
//! Q&A re-send a long system prompt on every call, and chat turns re-send the
//! whole conversation so far. These generators synthesize that structure — a
//! common system prompt, `N` personas layered on top of it, and `M` queries per
//! persona — so prefix-cache behaviour (hit depth, eviction pressure, TTFT wins)
//! is benchable end to end with deterministic, seeded token streams.
//!
//! The generators emit plain `(prompt, max_new_tokens)` specs rather than serving
//! `RequestSpec`s: this crate sits below `lserve-core`, so serving layers wrap
//! the specs in their own request type (see `examples/serving_tour.rs`).

use lserve_tensor::SeededGaussian;

/// One generated prompt: token ids plus the generation budget a serving layer
/// should attach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptSpec {
    /// Which persona (0-based) this prompt belongs to.
    pub persona: usize,
    /// Prompt token ids: `system ++ persona ++ query`.
    pub prompt: Vec<u32>,
    /// Suggested number of tokens to generate.
    pub max_new_tokens: usize,
}

impl PromptSpec {
    /// Length of the prompt in tokens.
    pub fn prompt_len(&self) -> usize {
        self.prompt.len()
    }
}

/// Geometry of a shared-prefix workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefixConfig {
    /// Tokens in the system prompt shared by *every* request.
    pub system_tokens: usize,
    /// Number of personas (each adds its own block on top of the system prompt).
    pub personas: usize,
    /// Tokens in each persona block.
    pub persona_tokens: usize,
    /// Queries issued per persona.
    pub queries_per_persona: usize,
    /// Tokens in each query (the only unshared part of a prompt).
    pub query_tokens: usize,
    /// Generation budget per request.
    pub max_new_tokens: usize,
    /// Vocabulary size tokens are drawn from.
    pub vocab: u32,
    /// RNG seed; equal seeds produce identical workloads.
    pub seed: u64,
}

impl SharedPrefixConfig {
    /// A small default that exercises deep sharing at toy scale: 96 shared system
    /// tokens, 4 personas x 3 queries, 8-token queries.
    pub fn small() -> Self {
        Self {
            system_tokens: 96,
            personas: 4,
            persona_tokens: 24,
            queries_per_persona: 3,
            query_tokens: 8,
            max_new_tokens: 8,
            vocab: 90,
            seed: 0x5EED,
        }
    }

    /// A front-door-sized preset for cluster routing experiments: a short
    /// system prompt with 4 personas x 3 queries, small enough that a
    /// multi-replica run stays fast while still giving a prefix-affinity
    /// router real families to keep together.
    pub fn cluster() -> Self {
        Self {
            system_tokens: 32,
            personas: 4,
            persona_tokens: 16,
            queries_per_persona: 3,
            query_tokens: 8,
            max_new_tokens: 6,
            vocab: 90,
            seed: 0x5EED,
        }
    }

    /// Total requests the workload generates.
    pub fn total_requests(&self) -> usize {
        self.personas * self.queries_per_persona
    }

    /// Prompt tokens that identify a request's persona family — the depth a
    /// prefix-affinity router should hash (`system + persona`; hashing less
    /// collapses every persona into one family, hashing more splits queries).
    pub fn affinity_prefix_len(&self) -> usize {
        self.system_tokens + self.persona_tokens
    }

    /// Prompt length of every generated request (all requests are equal-length:
    /// `system + persona + query`).
    pub fn prompt_len(&self) -> usize {
        self.system_tokens + self.persona_tokens + self.query_tokens
    }
}

fn tokens(g: &mut SeededGaussian, n: usize, vocab: u32) -> Vec<u32> {
    (0..n).map(|_| g.index(vocab as usize) as u32).collect()
}

/// Generates the persona workload: every request's prompt is
/// `system ++ persona[p] ++ query`, with queries interleaved round-robin across
/// personas (the arrival order a multi-tenant endpoint would see, which maximizes
/// pressure on the cache's LRU policy).
///
/// Two requests of the same persona share `system_tokens + persona_tokens`
/// prompt tokens; requests of different personas share `system_tokens`.
///
/// # Example
///
/// ```
/// use lserve_workloads::{shared_prefix_workload, SharedPrefixConfig};
///
/// let cfg = SharedPrefixConfig::small();
/// let reqs = shared_prefix_workload(&cfg);
/// assert_eq!(reqs.len(), cfg.total_requests());
/// // Same persona: prompts agree up to the query.
/// let same: Vec<_> = reqs.iter().filter(|r| r.persona == 0).collect();
/// let shared = cfg.system_tokens + cfg.persona_tokens;
/// assert_eq!(same[0].prompt[..shared], same[1].prompt[..shared]);
/// assert_ne!(same[0].prompt[shared..], same[1].prompt[shared..]);
/// ```
pub fn shared_prefix_workload(cfg: &SharedPrefixConfig) -> Vec<PromptSpec> {
    let mut g = SeededGaussian::new(cfg.seed);
    let system = tokens(&mut g, cfg.system_tokens, cfg.vocab);
    let personas: Vec<Vec<u32>> = (0..cfg.personas)
        .map(|_| tokens(&mut g, cfg.persona_tokens, cfg.vocab))
        .collect();
    let mut out = Vec::with_capacity(cfg.total_requests());
    for _round in 0..cfg.queries_per_persona {
        for (p, persona) in personas.iter().enumerate() {
            let mut prompt = system.clone();
            prompt.extend_from_slice(persona);
            prompt.extend(tokens(&mut g, cfg.query_tokens, cfg.vocab));
            out.push(PromptSpec {
                persona: p,
                prompt,
                max_new_tokens: cfg.max_new_tokens,
            });
        }
    }
    out
}

/// Generates a multi-turn conversation workload for one persona: turn `t`'s
/// prompt is turn `t-1`'s prompt extended by a deterministic stand-in for the
/// assistant's reply (`reply_tokens` tokens) and a fresh user query. Consecutive
/// turns therefore share everything but the newest query — the traffic shape
/// where conversation-granular prefix caching pays off most.
///
/// (Real replays would splice in the tokens the model actually generated; the
/// serving example does exactly that using `ServingReport::completed`. This
/// generator is for workloads that only need the *shape*.)
pub fn multi_turn_workload(
    turns: usize,
    system_tokens: usize,
    query_tokens: usize,
    reply_tokens: usize,
    vocab: u32,
    seed: u64,
) -> Vec<PromptSpec> {
    let mut g = SeededGaussian::new(seed);
    let mut history = tokens(&mut g, system_tokens, vocab);
    let mut out = Vec::with_capacity(turns);
    for t in 0..turns {
        if t > 0 {
            history.extend(tokens(&mut g, reply_tokens, vocab));
        }
        history.extend(tokens(&mut g, query_tokens, vocab));
        out.push(PromptSpec {
            persona: 0,
            prompt: history.clone(),
            max_new_tokens: reply_tokens,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let cfg = SharedPrefixConfig::small();
        assert_eq!(shared_prefix_workload(&cfg), shared_prefix_workload(&cfg));
        let mut other = cfg;
        other.seed ^= 1;
        assert_ne!(shared_prefix_workload(&cfg), shared_prefix_workload(&other));
    }

    #[test]
    fn sharing_structure_is_exact() {
        let cfg = SharedPrefixConfig::small();
        let reqs = shared_prefix_workload(&cfg);
        assert_eq!(reqs.len(), 12);
        for r in &reqs {
            assert_eq!(r.prompt_len(), cfg.prompt_len());
            assert!(r.prompt.iter().all(|&t| t < cfg.vocab));
        }
        // All requests share exactly the system prompt across personas.
        let a = &reqs[0];
        let b = reqs.iter().find(|r| r.persona != a.persona).unwrap();
        assert_eq!(a.prompt[..cfg.system_tokens], b.prompt[..cfg.system_tokens]);
        assert_ne!(
            a.prompt[cfg.system_tokens..cfg.system_tokens + cfg.persona_tokens],
            b.prompt[cfg.system_tokens..cfg.system_tokens + cfg.persona_tokens]
        );
        // Round-robin interleaving: consecutive requests rotate personas.
        let order: Vec<usize> = reqs.iter().map(|r| r.persona).take(4).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_turn_prompts_nest() {
        let turns = multi_turn_workload(4, 32, 6, 10, 90, 9);
        assert_eq!(turns.len(), 4);
        for w in turns.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            assert!(next.prompt_len() > prev.prompt_len());
            assert_eq!(
                next.prompt[..prev.prompt_len()],
                prev.prompt[..],
                "each turn extends the previous one"
            );
        }
        assert_eq!(turns[0].prompt_len(), 32 + 6);
        assert_eq!(turns[1].prompt_len(), 32 + 6 + 10 + 6);
    }
}
