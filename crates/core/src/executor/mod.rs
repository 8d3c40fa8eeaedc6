//! The shared/immutable vs per-sequence split of the inference engine.
//!
//! [`ModelExecutor`] owns everything that is identical for every request served by
//! one model deployment: the weights handle, the policy configuration, the RoPE
//! table, the attention-kernel configuration, and the offline §3.3 head
//! classification. It is cheap to share (`Arc`) and never mutated after
//! construction.
//!
//! [`SequenceState`] owns everything that belongs to one request: the per-layer
//! two-way KV caches, the per-head reusable-selector state, the position counters,
//! and the work stats. It is created by [`ModelExecutor::new_sequence`], costs no
//! pool pages until tokens are appended, and releases all its pages with
//! [`SequenceState::release`].
//!
//! This split is what makes a real serving loop possible: a scheduler holds one
//! executor and N sequence states, batches decode across states, and can drop
//! or rebuild any state independently (preemption and resume).
//!
//! After a sequence's fused first chunk ([`ModelExecutor::prefill`]) the unit
//! the executor advances is a **run of rows**, not a token: one body
//! (`decode_batch_reserved`) in which every batch entry feeds a run of
//! consecutive tokens — one for a decoding sequence, up to a page of prompt
//! continuation for a prefilling one — with layers in the outer loop and the
//! rows of all runs stacked into one matrix, so a layer's seven weight
//! matrices are read once per call, by GEMMs of `rows` rows, not once per
//! token. Only attention stays per row (a row reads the keys up to its own).
//! A run ends where the scheduler would do anything other than feed the
//! sequence's next token, and before the next physical KV page begins.
//! [`ModelExecutor::decode_step`] and [`ModelExecutor::decode_batch_sharded`]
//! are the one-token-per-sequence wrappers over that body.
//!
//! The files: `state` is [`SequenceState`]; this one holds the executor, its
//! sequence factory and the fused first chunk; `run` is the row-feeding body
//! and its wrappers; `residency` is what a row does between its KV append and
//! its attention — page selection, the tiered-memory residency pass with
//! promotion by exchange, prefetch — and the page demand that reserves for it.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lserve_attention::{fused_prefill_layer, HeadKind, LayerAttnConfig};
use lserve_kvcache::{LayerKvCache, PagePool, StreamingWindow, HOST_TRANSFER_SPEEDUP};
use lserve_model::forward::{ffn_block, logits, post_attention, pre_attention};
use lserve_model::{greedy_next_token, ModelWeights};
use lserve_selector::{FlatSelector, HierarchicalSelector, ReusableSelector};
use lserve_tensor::rope::RopeTable;
use lserve_trace::{lane, CONTROL_TID};
use lserve_workloads::duo_gates;

use crate::config::RuntimeConfig;
use crate::dag::SparsitySchedule;
use crate::stats::ParallelExecStats;
use crate::{streaming_masks_from_gates, EngineConfig, EngineStats, SelectorKind};

mod residency;
mod run;
mod state;

pub(crate) use run::Run;
use state::Scorer;
pub use state::SequenceState;

/// The KV page pool is exhausted; the sequence cannot grow.
///
/// Serving layers use this for admission control, preemption, and retry; it is not
/// a bug, it is the backpressure signal of a memory-constrained device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfPagesError;

impl fmt::Display for OutOfPagesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kv page pool exhausted")
    }
}

impl Error for OutOfPagesError {}

/// Result of a prefill call.
#[derive(Debug, Clone)]
pub struct PrefillOutput {
    /// Logits of the last prompt token (`vocab` wide) — the distribution of the
    /// first generated token.
    pub logits: Vec<f32>,
}

/// Result of one decode step.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// Next-token logits (`vocab` wide).
    pub logits: Vec<f32>,
}

/// The immutable, shareable half of the engine: weights, policy, RoPE table, and
/// the offline head classification. One executor serves any number of concurrent
/// [`SequenceState`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use lserve_core::{EngineConfig, ModelExecutor};
/// use lserve_model::{ModelConfig, ModelWeights};
///
/// let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 1));
/// let cfg = EngineConfig::lserve_fp16();
/// let mut pool = cfg.clone().make_pool_for(&weights.config, 512);
/// let exec = ModelExecutor::new(weights, cfg);
/// let mut seq = exec.new_sequence();
/// let out = exec.prefill(&mut seq, &mut pool, &[1, 2, 3, 4]).unwrap();
/// assert_eq!(out.logits.len(), 97);
/// seq.release(&mut pool);
/// ```
#[derive(Debug)]
pub struct ModelExecutor {
    weights: Arc<ModelWeights>,
    cfg: EngineConfig,
    attn_cfg: LayerAttnConfig,
    rope: RopeTable,
    masks: Vec<Vec<bool>>,
    kinds: Vec<Vec<HeadKind>>,
    /// `LSERVE_DECODE_THREADS` and `LSERVE_DEVICES` as they stood at
    /// construction: the worker count and device mesh of the entry points
    /// that take neither ([`ModelExecutor::prefill`],
    /// [`ModelExecutor::decode_step`]). Read once here, not per token.
    default_threads: usize,
    default_devices: usize,
}

impl ModelExecutor {
    /// Creates an executor for `weights` under `cfg`.
    ///
    /// Head classification runs here, offline, from synthetic DuoAttention gates
    /// seeded by `cfg.gate_seed` (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is internally inconsistent (see
    /// [`EngineConfig::validate`]), or if an `LSERVE_*` variable holds a value
    /// its knob does not accept ([`RuntimeConfig::from_env`]).
    pub fn new(weights: Arc<ModelWeights>, cfg: EngineConfig) -> Self {
        cfg.validate();
        let env = RuntimeConfig::from_env();
        let model = &weights.config;
        let gates = duo_gates(model.num_layers, model.num_kv_heads, cfg.gate_seed);
        let masks = streaming_masks_from_gates(&gates, cfg.streaming_sparsity);
        let kinds: Vec<Vec<HeadKind>> = masks
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|&s| {
                        if s {
                            HeadKind::Streaming
                        } else {
                            HeadKind::Dense
                        }
                    })
                    .collect()
            })
            .collect();
        let attn_cfg = LayerAttnConfig {
            num_q_heads: model.num_q_heads,
            num_kv_heads: model.num_kv_heads,
            head_dim: model.head_dim,
            tile: cfg.prefill_tile,
            sink_blocks: cfg.streaming_window.sink_pages,
            local_blocks: cfg.streaming_window.local_pages,
        };
        let rope = RopeTable::new(model.head_dim, model.rope_base);
        Self {
            weights,
            cfg,
            attn_cfg,
            rope,
            masks,
            kinds,
            default_threads: env.decode_threads,
            default_devices: env.devices,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The model weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Per-layer streaming masks decided at construction.
    pub fn head_kinds(&self) -> &[Vec<HeadKind>] {
        &self.kinds
    }

    /// Creates an empty per-request state (the selector factory): per-layer two-way
    /// KV caches plus one reusable selector per dense head when dynamic sparsity is
    /// configured. Holds no pool pages until tokens are appended.
    pub fn new_sequence(&self) -> SequenceState {
        self.new_sequence_with_window(None)
    }

    /// [`ModelExecutor::new_sequence`] with a per-request streaming-window
    /// override (`None` inherits the engine config). The window shapes each
    /// streaming head's sink/local ring, which is built here and never resized
    /// — which is why window overrides are admission-time-only and rejected at
    /// fork (children inherit the parent's ring).
    pub fn new_sequence_with_window(&self, window: Option<StreamingWindow>) -> SequenceState {
        let window = window.unwrap_or(self.cfg.streaming_window);
        let layers: Vec<LayerKvCache> = self
            .masks
            .iter()
            .map(|mask| LayerKvCache::new(mask, window))
            .collect();
        let selectors = self
            .masks
            .iter()
            .map(|mask| {
                mask.iter()
                    .map(|&streaming| {
                        if streaming || self.cfg.dynamic_budget.is_none() {
                            return None;
                        }
                        let scorer = match self.cfg.selector {
                            SelectorKind::Flat => Scorer::Flat(FlatSelector::new(true)),
                            SelectorKind::Hierarchical => {
                                Scorer::Hierarchical(HierarchicalSelector::new(true))
                            }
                            SelectorKind::None => unreachable!("validated"),
                        };
                        Some(ReusableSelector::new(scorer, self.cfg.reuse_interval))
                    })
                    .collect()
            })
            .collect();
        SequenceState {
            layers,
            selectors,
            tokens_processed: 0,
            decode_step_idx: 0,
            sparsity: SparsitySchedule::new(),
            stats: EngineStats::default(),
        }
    }

    /// Processes a whole prompt (or the first chunk of one) with the fused
    /// block-sparse prefill pipeline and writes KV into the two-way paged cache.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] if the pool cannot hold the prompt's KV; the
    /// state holds a partial cache and should then be [`SequenceState::release`]d.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the state already holds context.
    pub fn prefill(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        tokens: &[u32],
    ) -> Result<PrefillOutput, OutOfPagesError> {
        let mut stats = ParallelExecStats::default();
        self.prefill_threads(state, pool, tokens, self.default_threads, &mut stats)
    }

    /// [`ModelExecutor::prefill`] with an explicit worker-thread count: each
    /// layer's per-head attention runs as cost-balanced shards on up to
    /// `threads` scoped worker threads (dense heads cost quadratic tiles,
    /// streaming heads linear — the LPT assignment balances that asymmetry).
    /// Outputs are bit-identical for every thread count; `exec_stats`
    /// accumulates per-phase worker utilization and cost-balance counters.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] exactly as [`ModelExecutor::prefill`] does.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the state already holds context.
    pub fn prefill_threads(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        tokens: &[u32],
        threads: usize,
        exec_stats: &mut ParallelExecStats,
    ) -> Result<PrefillOutput, OutOfPagesError> {
        assert!(!tokens.is_empty(), "empty prompt");
        assert_eq!(state.tokens_processed, 0, "prefill on a non-empty sequence");
        let model = &self.weights.config;
        // MInference-style dynamic prefill on retrieval heads, only past the
        // activation threshold (§4.3: "activated after 128K").
        let dynamic_keep = self
            .cfg
            .dynamic_prefill_keep
            .filter(|_| tokens.len() > self.cfg.dynamic_prefill_after);
        let tracer = pool.tracer().clone();
        let angles = self.rope.angles(0..tokens.len());
        let mut x = self.weights.embed_tokens(tokens);
        for (l, lw) in self.weights.layers.iter().enumerate() {
            let serial_start = tracer.now();
            let acts = pre_attention(model, lw, &x, &angles);
            for t in 0..tokens.len() {
                if !state.layers[l].append_token(pool, acts.k.row(t), acts.v.row(t), model.head_dim)
                {
                    return Err(OutOfPagesError);
                }
            }
            // The serial phase costs one clock tick per prompt token (QKV,
            // RoPE, KV writeback all scale with the chunk).
            tracer.advance(tokens.len() as u64);
            tracer.span(
                "prefill.serial",
                "executor",
                lane::EXECUTOR,
                CONTROL_TID,
                serial_start,
                &[("layer", l as u64)],
            );
            let par_start = tracer.now();
            let (attn, dense_stats, stream_stats, balance) = fused_prefill_layer(
                &acts.q,
                &acts.k,
                &acts.v,
                &self.attn_cfg,
                &self.kinds[l],
                dynamic_keep,
                threads,
            );
            exec_stats.absorb(&balance, 0);
            if tracer.is_enabled() {
                // The parallel phase costs its modeled critical path; worker
                // lanes get one merged span per worker (their LPT-assigned
                // load) so prefill imbalance shows in the flame chart.
                tracer.advance(balance.cost_critical());
                tracer.span(
                    "prefill.attention",
                    "executor",
                    lane::EXECUTOR,
                    CONTROL_TID,
                    par_start,
                    &[("layer", l as u64), ("shards", balance.shards)],
                );
                for (w, &c) in balance.assigned_cost.iter().enumerate() {
                    if c > 0 {
                        tracer.span_at(
                            "shard",
                            "attention",
                            lane::WORKERS,
                            w as u64,
                            par_start,
                            c,
                            &[("cost", c)],
                        );
                    }
                }
            }
            state.stats.add_prefill(dense_stats, stream_stats);
            post_attention(lw, &mut x, &attn);
            ffn_block(lw, &mut x);
        }
        state.tokens_processed = tokens.len();
        // Prefill compute drains in-flight transfers like decode compute does
        // — one prompt token hides `HOST_TRANSFER_SPEEDUP` token-units. This
        // is what lets a swap-resume promotion overlap re-admission prefill.
        pool.advance_transfer_units(tokens.len() as u64 * HOST_TRANSFER_SPEEDUP);
        let last = x.slice_rows(tokens.len() - 1, tokens.len());
        let out = logits(&self.weights, &last);
        Ok(PrefillOutput {
            logits: out.row(0).to_vec(),
        })
    }

    /// Greedy generation: prefill `prompt` into the empty `state`, then decode
    /// `max_new_tokens` tokens (argmax sampling). Returns the generated tokens.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] on pool exhaustion; tokens generated before
    /// the failure are lost (callers needing partial output should drive
    /// [`ModelExecutor::decode_step`] themselves).
    pub fn generate(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        prompt: &[u32],
        max_new_tokens: usize,
    ) -> Result<Vec<u32>, OutOfPagesError> {
        let mut next = greedy_next_token(&self.prefill(state, pool, prompt)?.logits);
        let mut out = Vec::with_capacity(max_new_tokens);
        for _ in 0..max_new_tokens {
            out.push(next);
            next = greedy_next_token(&self.decode_step(state, pool, next)?.logits);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_model::{reference_forward_full, ModelConfig};

    fn tiny_weights() -> Arc<ModelWeights> {
        Arc::new(ModelWeights::random(&ModelConfig::tiny(), 42))
    }

    #[test]
    fn sequences_share_one_executor() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 512);
        let exec = ModelExecutor::new(w, cfg);
        let mut a = exec.new_sequence();
        let mut b = exec.new_sequence();
        exec.prefill(&mut a, &mut pool, &[1, 2, 3]).unwrap();
        exec.prefill(&mut b, &mut pool, &[4, 5, 6, 7]).unwrap();
        assert_eq!(a.context_len(), 3);
        assert_eq!(b.context_len(), 4);
        a.release(&mut pool);
        b.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    fn run_engine(cfg: EngineConfig, prompt: &[u32], steps: usize) -> (Vec<u32>, EngineStats) {
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, prompt.len() + steps + 8);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        let toks = exec.generate(&mut s, &mut pool, prompt, steps).unwrap();
        (toks, s.stats())
    }

    #[test]
    fn dense_engine_matches_reference_forward() {
        let w = tiny_weights();
        let cfg = EngineConfig::dense();
        let mut pool = cfg.make_pool_for(&w.config, 64);
        let exec = ModelExecutor::new(Arc::clone(&w), cfg);
        let mut s = exec.new_sequence();
        let prompt = [3u32, 14, 15, 92, 65, 35];
        let out = exec.prefill(&mut s, &mut pool, &prompt).unwrap();
        let want = reference_forward_full(&w, &prompt);
        for (a, b) in out.logits.iter().zip(want.row(prompt.len() - 1)) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_decode_matches_reference_incrementally() {
        let w = tiny_weights();
        let cfg = EngineConfig::dense();
        let mut pool = cfg.make_pool_for(&w.config, 64);
        let exec = ModelExecutor::new(Arc::clone(&w), cfg);
        let mut s = exec.new_sequence();
        let prompt = [1u32, 2, 3];
        let mut seq = prompt.to_vec();
        let mut logits_row = exec.prefill(&mut s, &mut pool, &prompt).unwrap().logits;
        for _ in 0..5 {
            let next = greedy_next_token(&logits_row);
            seq.push(next);
            logits_row = exec.decode_step(&mut s, &mut pool, next).unwrap().logits;
            let want = reference_forward_full(&w, &seq);
            let want_row = want.row(seq.len() - 1);
            for (a, b) in logits_row.iter().zip(want_row) {
                assert!((a - b).abs() < 2e-3, "{a} vs {b} at len {}", seq.len());
            }
        }
    }

    #[test]
    fn dense_and_reference_generate_identically() {
        let w = tiny_weights();
        let prompt = [7u32, 8, 9, 10];
        let (engine_tokens, _) = run_engine(EngineConfig::dense(), &prompt, 8);
        // Reference greedy decode recomputing the full forward each step.
        let mut seq = prompt.to_vec();
        let mut ref_tokens = Vec::new();
        for _ in 0..8 {
            let l = reference_forward_full(&w, &seq);
            let next = greedy_next_token(l.row(seq.len() - 1));
            ref_tokens.push(next);
            seq.push(next);
        }
        assert_eq!(engine_tokens, ref_tokens);
    }

    #[test]
    fn lserve_with_huge_budget_matches_dense_generation() {
        // Budget >= context and FP16 paging: dynamic sparsity selects everything, so
        // generation must match the dense engine exactly. (Streaming heads off to
        // isolate the selector.)
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.streaming_sparsity = 0.0;
        cfg.dynamic_budget = Some(1 << 20);
        let prompt = [5u32, 6, 7, 8, 9];
        let (a, _) = run_engine(cfg, &prompt, 10);
        let (b, _) = run_engine(EngineConfig::dense(), &prompt, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_heads_bound_pool_growth() {
        let w = tiny_weights();
        let cfg = EngineConfig::duo_like();
        let mut pool = cfg.make_pool_for(&w.config, 640);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..96).map(|i| (i % 90) as u32).collect();
        exec.prefill(&mut s, &mut pool, &prompt).unwrap();
        let after_prefill = pool.in_use();
        for _ in 0..128 {
            let t = exec.decode_step(&mut s, &mut pool, 1).unwrap();
            let _ = t;
        }
        let after_decode = pool.in_use();
        // Dense heads grow; streaming heads must not. With 50% streaming the growth
        // must be well below the all-dense growth of the same span.
        let dense_cfg = EngineConfig::dense();
        let mut dense_pool = dense_cfg.make_pool_for(&tiny_weights().config, 640);
        let dexec = ModelExecutor::new(tiny_weights(), dense_cfg);
        let mut ds = dexec.new_sequence();
        dexec.prefill(&mut ds, &mut dense_pool, &prompt).unwrap();
        let d0 = dense_pool.in_use();
        for _ in 0..128 {
            dexec.decode_step(&mut ds, &mut dense_pool, 1).unwrap();
        }
        let d1 = dense_pool.in_use();
        assert!(
            after_decode - after_prefill < (d1 - d0),
            "streaming growth {} must be below dense growth {}",
            after_decode - after_prefill,
            d1 - d0
        );
    }

    #[test]
    fn prefill_sparsity_reported_for_streaming_heads() {
        let prompt: Vec<u32> = (0..96).map(|i| (i % 90) as u32).collect();
        // Small tiles so the 96-token prompt spans many blocks and the Λ pattern
        // actually skips some.
        let mut duo = EngineConfig::duo_like();
        duo.prefill_tile = 8;
        let (_, stats) = run_engine(duo, &prompt, 1);
        assert!(stats.prefill_sparsity() > 0.0, "streaming must skip tiles");
        let (_, dense_stats) = run_engine(EngineConfig::dense(), &prompt, 1);
        assert_eq!(dense_stats.prefill_sparsity(), 0.0);
    }

    #[test]
    fn dynamic_budget_caps_decode_pages() {
        // Tiny model, tiny pages: budget of 8 tokens over ~96-token history.
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.streaming_sparsity = 0.0;
        cfg.paging = lserve_kvcache::PagingConfig::new(4, 2, lserve_quant::KvPrecision::Fp16);
        cfg.dynamic_budget = Some(8);
        cfg.prefill_tile = 4;
        let prompt: Vec<u32> = (0..64).map(|i| (i % 90) as u32).collect();
        let (_, stats) = run_engine(cfg, &prompt, 16);
        assert!(
            stats.decode_sparsity() > 0.5,
            "selector must skip most pages: {}",
            stats.decode_sparsity()
        );
    }

    #[test]
    fn reuse_interval_cuts_selector_invocations() {
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.streaming_sparsity = 0.0;
        cfg.paging = lserve_kvcache::PagingConfig::new(4, 2, lserve_quant::KvPrecision::Fp16);
        cfg.dynamic_budget = Some(8);
        cfg.prefill_tile = 4;
        cfg.reuse_interval = 4;
        let prompt: Vec<u32> = (0..64).map(|i| (i % 90) as u32).collect();
        let (_, s4) = run_engine(cfg.clone(), &prompt, 16);
        cfg.reuse_interval = 1;
        let (_, s1) = run_engine(cfg, &prompt, 16);
        assert!(s4.selector_reuses > 0);
        assert_eq!(s1.selector_reuses, 0);
        assert!(
            s4.selector_invocations * 3 < s1.selector_invocations,
            "reuse must cut invocations: {} vs {}",
            s4.selector_invocations,
            s1.selector_invocations
        );
    }

    #[test]
    fn quantized_engine_generates_plausibly() {
        // INT4 KV shifts logits slightly; generation still completes and matches the
        // dense output on a decent prefix.
        let prompt = [11u32, 22, 33, 44];
        let (q, _) = run_engine(EngineConfig::lserve(), &prompt, 12);
        let (d, _) = run_engine(EngineConfig::dense(), &prompt, 12);
        assert_eq!(q.len(), 12);
        let matches = q.iter().zip(&d).filter(|(a, b)| a == b).count();
        assert!(matches >= 6, "int4+sparse should track dense: {matches}/12");
    }

    #[test]
    fn dynamic_prefill_activates_past_threshold() {
        let w = tiny_weights();
        let prompt: Vec<u32> = (0..96).map(|i| (i % 90) as u32).collect();
        // Below threshold: dense prefill on retrieval heads.
        let mut cfg = EngineConfig::dense();
        cfg.prefill_tile = 8;
        cfg.dynamic_prefill_keep = Some(1);
        cfg.dynamic_prefill_after = 1000;
        let mut pool = cfg.make_pool_for(&w.config, 128);
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let mut s = exec.new_sequence();
        exec.prefill(&mut s, &mut pool, &prompt).unwrap();
        assert_eq!(s.stats().prefill_sparsity(), 0.0);
        // Above threshold: tiles skipped.
        cfg.dynamic_prefill_after = 32;
        let mut pool2 = cfg.make_pool_for(&w.config, 128);
        let exec2 = ModelExecutor::new(Arc::clone(&w), cfg);
        let mut s2 = exec2.new_sequence();
        exec2.prefill(&mut s2, &mut pool2, &prompt).unwrap();
        assert!(
            s2.stats().prefill_sparsity() > 0.3,
            "{}",
            s2.stats().prefill_sparsity()
        );
    }

    #[test]
    fn dynamic_prefill_with_huge_keep_matches_dense_logits() {
        let w = tiny_weights();
        let prompt: Vec<u32> = (0..40).map(|i| (i % 90) as u32).collect();
        let prefill = |cfg: EngineConfig| {
            let mut pool = cfg.make_pool_for(&w.config, 64);
            let exec = ModelExecutor::new(Arc::clone(&w), cfg);
            exec.prefill(&mut exec.new_sequence(), &mut pool, &prompt)
                .unwrap()
        };
        let dense = prefill(EngineConfig::dense());
        let mut cfg = EngineConfig::dense();
        cfg.prefill_tile = 8;
        cfg.dynamic_prefill_keep = Some(1000);
        cfg.dynamic_prefill_after = 8;
        let out = prefill(cfg);
        for (a, b) in out.logits.iter().zip(&dense.logits) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let w = tiny_weights();
        let cfg = EngineConfig::dense();
        let mut pool = PagePool::new(cfg.paging, 4, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..90).map(|i| i as u32).collect();
        assert!(matches!(
            exec.prefill(&mut s, &mut pool, &prompt),
            Err(OutOfPagesError)
        ));
    }

    #[test]
    fn release_recycles_all_pages() {
        let w = tiny_weights();
        let cfg = EngineConfig::lserve_fp16();
        let mut pool = cfg.make_pool_for(&w.config, 128);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        exec.generate(&mut s, &mut pool, &[1, 2, 3, 4, 5, 6, 7, 8], 8)
            .unwrap();
        assert!(pool.in_use() > 0);
        s.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
        // The state is reusable after release.
        let out = exec.prefill(&mut s, &mut pool, &[9, 10, 11]).unwrap();
        assert_eq!(out.logits.len(), 97);
    }
}
