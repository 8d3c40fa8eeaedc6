//! The shared/immutable vs per-sequence split of the inference engine.
//!
//! [`ModelExecutor`] owns everything that is identical for every request served by
//! one model deployment: the weights handle, the policy configuration, the RoPE
//! table, the attention-kernel configuration, and the offline §3.3 head
//! classification. It is cheap to share (`Arc`) and never mutated after
//! construction.
//!
//! [`SequenceState`] owns everything that belongs to one request: the per-layer
//! two-way KV caches and the head policy beside each (with its reusable
//! selector), the request's sparsity schedule, the position counters, and
//! the work stats. It is created by [`ModelExecutor::new_sequence`], or
//! [`ModelExecutor::new_sequence_under`] a per-request schedule, costs no
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
//! The files: `state` is [`SequenceState`], `policy` a head's policy; this one
//! holds the executor, its sequence factory and the fused first chunk; `run`
//! is the row-feeding body and its wrappers; `residency` is what a row does
//! between its KV append and its attention — page selection, the tiered-memory
//! residency pass with promotion by exchange, prefetch — and the page demand
//! that reserves for it.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lserve_attention::{LayerAttnConfig, LayerPrefill};
use lserve_kvcache::{append_token, DenseHeadCache, PagePool, HOST_TRANSFER_SPEEDUP};
use lserve_model::forward::{ffn_block, logits, post_attention, pre_attention, LayerActivations};
use lserve_model::{greedy_next_token, ModelWeights};
use lserve_tensor::rope::RopeTable;
use lserve_trace::{lane, CONTROL_TID};
use lserve_workloads::duo_gates;

use crate::dag::SparsitySchedule;
use crate::stats::ParallelExecStats;
use crate::{streaming_masks_from_gates, EngineConfig, EngineStats};

mod policy;
mod residency;
mod run;
mod state;

pub(crate) use policy::HeadPolicy;
pub(crate) use residency::DEMOTE_AFTER_CHUNKS;
pub(crate) use run::Run;
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
    /// [`EngineConfig::validate`]).
    pub fn new(weights: Arc<ModelWeights>, cfg: EngineConfig) -> Self {
        if let Err(error) = cfg.validate() {
            panic!("{error}");
        }
        let model = &weights.config;
        let gates = duo_gates(model.num_layers, model.num_kv_heads, cfg.gate_seed);
        let masks = streaming_masks_from_gates(&gates, cfg.streaming_sparsity);
        let attn_cfg = LayerAttnConfig {
            num_q_heads: model.num_q_heads,
            num_kv_heads: model.num_kv_heads,
            head_dim: model.head_dim,
            tile: cfg.prefill_tile,
        };
        let rope = RopeTable::new(model.head_dim, model.rope_base);
        Self {
            weights,
            cfg,
            attn_cfg,
            rope,
            masks,
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

    /// Per-layer streaming masks decided at construction: `true` for a KV
    /// head whose table gets a streaming window.
    pub fn streaming_masks(&self) -> &[Vec<bool>] {
        &self.masks
    }

    /// Creates an empty per-request state: per-layer two-way KV caches, each
    /// beside its head policy (a dense head's with a reusable selector under
    /// dynamic sparsity). Holds no pool pages until tokens are appended.
    pub fn new_sequence(&self) -> SequenceState {
        self.new_sequence_under(&SparsitySchedule::new())
    }

    /// [`ModelExecutor::new_sequence`] under a per-request sparsity
    /// schedule, which the state keeps for the budget of every later row.
    /// The schedule's window override (none inherits the engine config) is
    /// set on each streaming head's table and policy here and never changed
    /// — which is why window overrides are admission-time-only and rejected
    /// at fork (children inherit the parent's tables, windows included). A
    /// dense head's dynamic prefill mask keeps this window's sink too.
    pub fn new_sequence_under(&self, schedule: &SparsitySchedule) -> SequenceState {
        let window = schedule
            .window_override()
            .unwrap_or(self.cfg.streaming_window);
        let policy = |&s: &bool| HeadPolicy::new(&self.cfg, window, s);
        let policies: Vec<Vec<_>> = self
            .masks
            .iter()
            .map(|m| m.iter().map(policy).collect())
            .collect();
        let table = |p: &HeadPolicy| DenseHeadCache::with_window(p.window());
        let layers = policies
            .iter()
            .map(|l| l.iter().map(table).collect())
            .collect();
        SequenceState {
            layers,
            policies,
            tokens_processed: 0,
            decode_step_idx: 0,
            sparsity: schedule.clone(),
            stats: EngineStats::default(),
        }
    }

    /// Free hot pages the fused first chunk of `tokens` tokens takes in the
    /// empty `state`, exactly: per head, the pages its table holds after the
    /// chunk — all of them for a dense head, at most its window's for a
    /// streaming one. A windowed head takes its next page before it frees
    /// its oldest, so when the last head the chunk appends to (the last
    /// layer's last) is one whose window overflows, the chunk's peak is one
    /// page above what it keeps. A fresh table shares no page and moves
    /// nothing between tiers, so that is all of it.
    pub fn prefill_page_demand(&self, state: &SequenceState, tokens: usize) -> usize {
        let pages = self.cfg.paging.pages_for(tokens);
        let kept = |p: &HeadPolicy| p.window().map_or(pages, |w| pages.min(w.max_pages()));
        let last = state.policies.last().and_then(|l| l.last());
        let overflows = last
            .and_then(HeadPolicy::window)
            .is_some_and(|w| pages > w.max_pages());
        state.policies.iter().flatten().map(kept).sum::<usize>() + usize::from(overflows)
    }

    /// Processes a whole prompt (or the first chunk of one) with the fused
    /// block-sparse prefill pipeline and writes KV into the two-way paged
    /// cache, on one worker thread.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`], with nothing written, if the pool's free
    /// pages are fewer than the chunk's [`ModelExecutor::prefill_page_demand`].
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
        self.prefill_threads(state, pool, tokens, 1, &mut stats)
    }

    /// [`ModelExecutor::prefill`] with an explicit worker-thread count: each
    /// layer runs one prefill tile of rows at a time, and a tile's per-head
    /// attention runs as cost-balanced shards on up to `threads` scoped
    /// worker threads (dense heads cost quadratic tiles, streaming heads
    /// linear — the LPT assignment balances that asymmetry). Outputs are
    /// bit-identical for every thread count; `exec_stats` accumulates one
    /// phase per layer: worker utilization and cost-balance counters.
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
        if self.prefill_page_demand(state, tokens.len()) > pool.free_pages() {
            return Err(OutOfPagesError);
        }
        let model = &self.weights.config;
        let tracer = pool.tracer().clone();
        let (n, tile, cols) = (tokens.len(), self.attn_cfg.tile, model.hidden);
        let angles = self.rope.angles(0..n);
        let per_row = model.head_dim / 2;
        let mut x = self.weights.embed_tokens(tokens);
        for (l, lw) in self.weights.layers.iter().enumerate() {
            let serial_start = tracer.now();
            let masks: Vec<_> = (state.policies[l].iter())
                .map(|p| p.prefill_mask(n))
                .collect();
            // The layer runs one tile of rows at a time, in token order: the
            // rows' K/V go to the pool and to the attention state, which
            // keeps what later tiles read; their queries become their
            // attention output, and the layer tail finishes the rows.
            let mut attention = LayerPrefill::new(&self.attn_cfg, &masks, n);
            for start in (0..n).step_by(tile) {
                let end = (start + tile).min(n);
                let mut rows = x.slice_rows(start, end);
                let angles = &angles[start * per_row..end * per_row];
                let LayerActivations { mut q, k, v } = pre_attention(model, lw, &rows, angles);
                for t in 0..end - start {
                    let fits = append_token(&mut state.layers[l], pool, k.row(t), v.row(t));
                    assert!(fits, "the chunk's pages were free");
                }
                attention.attend_tile(&mut q, &k, &v, threads);
                drop((k, v));
                post_attention(lw, &mut rows, &q);
                drop(q);
                ffn_block(lw, &mut rows);
                x.as_mut_slice()[start * cols..end * cols].copy_from_slice(rows.as_slice());
            }
            let (head_stats, balance) = attention.finish();
            // The serial phase costs one clock tick per prompt token (QKV,
            // RoPE, KV writeback all scale with the chunk).
            tracer.advance(n as u64);
            tracer.span(
                "prefill.serial",
                "executor",
                lane::EXECUTOR,
                CONTROL_TID,
                serial_start,
                &[("layer", l as u64)],
            );
            let par_start = tracer.now();
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
            for (table, head) in state.layers[l].iter().zip(head_stats) {
                state.stats.add_prefill(table, head);
            }
        }
        state.tokens_processed = n;
        // Prefill compute drains in-flight transfers like decode compute does
        // — one prompt token hides `HOST_TRANSFER_SPEEDUP` token-units. This
        // is what lets a swap-resume promotion overlap re-admission prefill.
        pool.advance_transfer_units(n as u64 * HOST_TRANSFER_SPEEDUP);
        let last = x.slice_rows(n - 1, n);
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

    /// FNV-1a over the bits of `rows`, one row after another.
    fn bits_hash<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in rows.into_iter().flatten() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The bits of a fused first chunk, pinned: per (preset, prompt length),
    /// the FNV-1a hash of the prefill logits and of the logits of the four
    /// greedy decode steps after it, which read the pages the chunk wrote.
    /// The lengths straddle the 64-row prefill tile (one row, a tile less
    /// one, a tile, a tile and one row, two and a bit, sixteen and a bit);
    /// the presets run a streaming head beside a dense one (`lserve`), every
    /// head dense (`dense`) and a dense head under a dynamic mask that keeps
    /// one past tile (`lserve` from 0 tokens). Every thread count must give
    /// the same row.
    #[test]
    fn prefill_bits_are_pinned() {
        const LENGTHS: [usize; 6] = [1, 63, 64, 65, 130, 1041];
        #[rustfmt::skip]
        const PINNED: [[(u64, u64); 6]; 3] = [
            // lserve
            [(0x1c87c138a078a108, 0xaf509c53031b17f5), (0x8b8b390ab591aae5, 0x65818672904d646c), (0xf5919cdea57ab070, 0xd4b0b718b00a0e30), (0x207a5a7675b6462b, 0x79efeb611f126fb0), (0xecf60ba88400a2d1, 0x0320eb2078d2cbc3), (0x52507a74332bf5e2, 0xaa28afb96bb9cd3d)],
            // dense
            [(0x1c87c138a078a108, 0x98b9f9ffcd3c159e), (0x8b8b390ab591aae5, 0x029342550e2aaaa0), (0xf5919cdea57ab070, 0x068b1464480c7f94), (0x207a5a7675b6462b, 0x93eddf4784c5da64), (0xecf60ba88400a2d1, 0x1def4b7283bc7d76), (0xd2c8f7b7e71e4e8e, 0xfe427b20985d8df1)],
            // lserve, dynamic prefill keeping one tile
            [(0x1c87c138a078a108, 0xaf509c53031b17f5), (0x8b8b390ab591aae5, 0x65818672904d646c), (0xf5919cdea57ab070, 0xd4b0b718b00a0e30), (0x207a5a7675b6462b, 0x79efeb611f126fb0), (0xecf60ba88400a2d1, 0x0320eb2078d2cbc3), (0x3e56d2f27ed79829, 0x4645793bff436791)],
        ];
        let presets = [
            EngineConfig::lserve(),
            EngineConfig::dense(),
            EngineConfig {
                dynamic_prefill_after: 0,
                dynamic_prefill_keep: Some(1),
                ..EngineConfig::lserve()
            },
        ];
        let w = tiny_weights();
        let mut got = [[(0u64, 0u64); 6]; 3];
        for (p, cfg) in presets.iter().enumerate() {
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            for (i, &n) in LENGTHS.iter().enumerate() {
                let prompt: Vec<u32> = (0..n).map(|t| ((t * 37 + 11) % 97) as u32).collect();
                let rows: Vec<(u64, u64)> = [1, 2, 8]
                    .into_iter()
                    .map(|threads| {
                        let mut pool = cfg.make_pool_for(&w.config, n + 8);
                        let mut s = exec.new_sequence();
                        let mut stats = ParallelExecStats::default();
                        let first = exec
                            .prefill_threads(&mut s, &mut pool, &prompt, threads, &mut stats)
                            .unwrap()
                            .logits;
                        let mut next = greedy_next_token(&first);
                        let decoded: Vec<Vec<f32>> = (0..4)
                            .map(|_| {
                                let l = exec.decode_step(&mut s, &mut pool, next).unwrap().logits;
                                next = greedy_next_token(&l);
                                l
                            })
                            .collect();
                        let decoded = bits_hash(decoded.iter().map(Vec::as_slice));
                        (bits_hash([first.as_slice()]), decoded)
                    })
                    .collect();
                assert!(
                    rows.iter().all(|r| *r == rows[0]),
                    "preset {p}, {n} tokens: threads disagree {rows:x?}"
                );
                got[p][i] = rows[0];
            }
        }
        let table: Vec<String> = got
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|(a, b)| format!("({a:#018x}, {b:#018x})"))
                    .collect();
                format!("[{}],", cells.join(", "))
            })
            .collect();
        assert_eq!(
            got,
            PINNED,
            "the prefill moved a bit; now:\n{}",
            table.join("\n")
        );
    }
}
