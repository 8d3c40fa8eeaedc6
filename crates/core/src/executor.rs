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
//! [`ModelExecutor::decode_step`] and the `decode_batch*` family are the
//! one-token-per-sequence wrappers over that body.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lserve_attention::{
    fused_prefill_layer_threads, lpt_assign, run_decode_shard, run_placed, run_sharded,
    BalanceStats, DecodeShard, DecodeStats, HeadKind, LayerAttnConfig, PlacedBalance,
};
use lserve_costmodel::Topology;
use lserve_kvcache::{
    HeadCache, LayerKvCache, MigrationMode, PageId, PagePool, StreamingWindow,
    HOST_TRANSFER_SPEEDUP,
};
use lserve_model::forward::{ffn_block, logits, post_attention, pre_attention};
use lserve_model::ModelWeights;
use lserve_selector::{FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector};
use lserve_tensor::rope::RopeTable;
use lserve_tensor::Matrix;
use lserve_trace::{lane, Tracer, CONTROL_TID};
use lserve_workloads::duo_gates;

use crate::config::decode_threads_from_env;
use crate::dag::SparsitySchedule;
use crate::sharding::ShardingPlan;
use crate::stats::{MigrationDelta, ParallelExecStats};
use crate::{streaming_masks_from_gates, EngineConfig, EngineStats, SelectorKind};

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

/// Concrete selector stack chosen by [`SelectorKind`] (kept as an enum rather than a
/// trait object so sequence state stays `Debug` + `Clone` + cheap).
#[derive(Debug, Clone)]
enum SelectorBox {
    Flat(ReusableSelector<FlatSelector>),
    Hierarchical(ReusableSelector<HierarchicalSelector>),
}

impl SelectorBox {
    fn select(
        &mut self,
        pool: &PagePool,
        cache: &lserve_kvcache::DenseHeadCache,
        queries: &[&[f32]],
        budget: usize,
        step: usize,
    ) -> lserve_selector::Selection {
        match self {
            SelectorBox::Flat(s) => s.select(pool, cache, queries, budget, step),
            SelectorBox::Hierarchical(s) => s.select(pool, cache, queries, budget, step),
        }
    }

    fn reset(&mut self) {
        match self {
            SelectorBox::Flat(s) => s.reset(),
            SelectorBox::Hierarchical(s) => s.reset(),
        }
    }

    /// Last-use tracking for selection-driven demotion: page indices this
    /// head's selector has skipped for at least `k` fresh selection chunks.
    fn stale_pages(&self, k: usize) -> Vec<usize> {
        match self {
            SelectorBox::Flat(s) => s.stale_pages(k),
            SelectorBox::Hierarchical(s) => s.stale_pages(k),
        }
    }

    /// The selection chunk that last picked `page`: the key an exchange gives
    /// pages up by, lowest first. A page the selector has not ranked yet
    /// sorts last.
    fn last_selected(&self, page: usize) -> u64 {
        let chunk = match self {
            SelectorBox::Flat(s) => s.last_selected_chunk(page),
            SelectorBox::Hierarchical(s) => s.last_selected_chunk(page),
        };
        chunk.unwrap_or(u64::MAX)
    }

    /// The decode step at which this head's next fresh scoring lands — the
    /// trigger for issuing prefetches one step ahead of the selection.
    fn next_fresh_step(&self) -> Option<usize> {
        match self {
            SelectorBox::Flat(s) => s.next_fresh_step(),
            SelectorBox::Hierarchical(s) => s.next_fresh_step(),
        }
    }

    /// Predicted-hot pages for the next fresh selection, most recently
    /// selected first, restricted to pages that dropped out of the selection
    /// within the last `window` rescores (residency-blind; the caller filters
    /// and caps).
    fn prefetch_candidates(&self, window: u64) -> Vec<usize> {
        match self {
            SelectorBox::Flat(s) => s.prefetch_candidates(window),
            SelectorBox::Hierarchical(s) => s.prefetch_candidates(window),
        }
    }
}

/// Per-request mutable state: KV caches, selector state, position, stats.
///
/// Created by [`ModelExecutor::new_sequence`]; every compute method on the executor
/// takes the state it operates on explicitly. Dropping a state without calling
/// [`SequenceState::release`] leaks its pool pages, so serving layers must release
/// on every exit path (completion, rejection, preemption).
#[derive(Debug, Clone)]
pub struct SequenceState {
    layers: Vec<LayerKvCache>,
    selectors: Vec<Vec<Option<SelectorBox>>>,
    tokens_processed: usize,
    decode_step_idx: usize,
    sparsity: SparsitySchedule,
    stats: EngineStats,
}

impl SequenceState {
    /// Tokens absorbed so far (prompt + generated).
    pub fn context_len(&self) -> usize {
        self.tokens_processed
    }

    /// Cumulative work counters for this sequence.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The positional sparsity-override schedule governing this sequence's
    /// selection budget (empty = engine defaults). Cloned by
    /// [`SequenceState::clone_shared`], so a fork snapshot replays the exact
    /// budget timeline the parent lived under.
    pub fn sparsity_schedule(&self) -> &SparsitySchedule {
        &self.sparsity
    }

    /// Installs the sparsity-override schedule (serving layer, at admission or
    /// fork time).
    pub fn set_sparsity_schedule(&mut self, schedule: SparsitySchedule) {
        self.sparsity = schedule;
    }

    /// Exact number of fresh pool pages one more token will allocate across all
    /// layers and heads (the reservation a scheduler must check before a decode
    /// step to guarantee the step cannot fail mid-layer).
    pub fn pages_needed_for_next_token(&self, pool: &PagePool) -> usize {
        self.layers
            .iter()
            .map(|l| l.pages_needed_for_next_token(pool))
            .sum()
    }

    /// Frees every page this sequence holds and resets it for reuse (fresh prefill).
    pub fn release(&mut self, pool: &mut PagePool) {
        for layer in &mut self.layers {
            layer.release(pool);
        }
        self.tokens_processed = 0;
        self.decode_step_idx = 0;
        for layer in &mut self.selectors {
            for s in layer.iter_mut().flatten() {
                s.reset();
            }
        }
    }

    /// Total pool pages this sequence currently references, across all layers and
    /// heads.
    pub fn resident_pages(&self) -> usize {
        self.layers.iter().map(|l| l.resident_pages()).sum()
    }

    /// Every pool page this sequence references, across all layers and heads.
    pub fn page_ids(&self, pool: &PagePool) -> Vec<PageId> {
        let heads = self.layers.iter();
        let heads = heads.flat_map(|l| (0..l.num_heads()).map(move |h| l.head(h)));
        heads
            .flat_map(|head| match head {
                HeadCache::Dense(c) => c.page_table().to_vec(),
                HeadCache::Streaming(c) => c.page_table(pool).into_iter().map(|p| p.1).collect(),
            })
            .collect()
    }

    /// Swap-out: demotes every sole-owned hot page this sequence holds to the
    /// cold tier, freeing their hot slots while keeping every page table,
    /// selector history and position counter intact. Pages co-owned with the
    /// prefix cache or another sequence stay hot (they are someone else's
    /// working set). Returns `(pages moved, token-units moved)`.
    pub fn demote_resident(&self, pool: &mut PagePool) -> (u64, u64) {
        self.layers.iter().fold((0, 0), |(p, u), l| {
            let (lp, lu) = l.demote_all(pool);
            (p + lp, u + lu)
        })
    }

    /// Swap-in: promotes every cold page this sequence holds back to the hot
    /// tier so decode can continue exactly where it left off. Returns
    /// `(pages moved, token-units moved)`, or `None` when the hot tier cannot
    /// fit them (callers reserve [`SequenceState::cold_pages`] free slots
    /// first; pages promoted before the failure stay hot).
    pub fn promote_resident(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        for l in &self.layers {
            let (lp, lu) = l.promote_all(pool)?;
            pages += lp;
            units += lu;
        }
        Some((pages, units))
    }

    /// Resident KV tokens one layer's KV head currently reads (a streaming
    /// head's sink+local window, a dense head's full history) — the token
    /// volume the rebalancer must move across the interconnect when it
    /// migrates that head to another device.
    pub fn kv_head_resident_tokens(&self, pool: &PagePool, layer: usize, kv: usize) -> u64 {
        match self.layers[layer].head(kv) {
            HeadCache::Streaming(c) => c.resident_tokens(pool) as u64,
            HeadCache::Dense(c) => c.tokens() as u64,
        }
    }

    /// Pages this sequence holds that currently sit in the cold tier.
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        self.layers.iter().map(|l| l.cold_pages(pool)).sum()
    }

    /// The exact hot-tier reservation a swap-in of this sequence needs: cold
    /// pages plus this sequence's own outbound transfers still in flight.
    /// The pool counts an in-flight demotion as a reclaimable free slot, but
    /// forcing one of *ours* lands the page cold and re-enters it as promote
    /// demand — net-zero supply, so it must be reserved as demand up front.
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        self.layers.iter().map(|l| l.swap_in_demand(pool)).sum()
    }

    /// Pages this sequence holds that are both sole-owned and hot — exactly
    /// what [`SequenceState::demote_resident`] would move, and therefore the
    /// swap-out (and later swap-in) transfer cost of preempting this sequence
    /// under the swap policy. Pages co-owned with the prefix cache or another
    /// sequence cost nothing: they stay hot for their other readers.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        self.layers
            .iter()
            .map(|l| l.sole_owned_hot_pages(pool))
            .sum()
    }

    /// Modeled ledger-unit cost of returning this sequence's full resident
    /// set to the hot tier: the bill a preemption victim pays at resume time.
    /// Shared hot pages are free (they never left), sole-owned hot pages cost
    /// one swap-out-plus-back round trip, cold pages one host hop, and nvme
    /// pages the recall plus the host hop. Victim selection minimizes this —
    /// the tier truth, not just a hot-page count.
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        self.layers
            .iter()
            .map(|l| l.promote_back_cost_units(pool))
            .sum()
    }

    /// Takes one additional reference on every page this sequence holds (prefix
    /// sharing: the caller co-owns the pages and must `release` its copy of the
    /// state).
    pub fn retain_pages(&self, pool: &mut PagePool) {
        for layer in &self.layers {
            layer.retain_all(pool);
        }
    }

    /// True when this state references at least one page no other owner shares —
    /// releasing it would return physical pages to the pool.
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        self.layers.iter().any(|l| l.holds_sole_reference(pool))
    }

    /// Deep-copies this state for prefix caching and seeding: page tables,
    /// selector state, position, and decode-step counter are cloned (page *ids*
    /// are copied — callers manage pool refcounts via
    /// [`SequenceState::retain_pages`]), while work counters restart at zero so a
    /// seeded consumer reports only its own work.
    ///
    /// The clone is positionally exact: a consumer continuing from it takes
    /// decode steps with the same step index and the same reusable-selector
    /// history a cold run would have at this context length, which is what makes
    /// cache-hit outputs bit-identical to cold runs.
    pub fn clone_shared(&self) -> SequenceState {
        SequenceState {
            stats: EngineStats::default(),
            ..self.clone()
        }
    }
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
    /// Worker count for the thread-count-free entry points
    /// ([`ModelExecutor::prefill`], [`ModelExecutor::decode_batch`]), resolved
    /// once from `LSERVE_DECODE_THREADS` at construction — the env read itself
    /// is uncached ([`decode_threads_from_env`]), so tests can vary the knob
    /// between executor constructions without paying a per-token env lookup.
    default_threads: usize,
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
        cfg.validate();
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
            default_threads: decode_threads_from_env(),
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
                        Some(match self.cfg.selector {
                            SelectorKind::Flat => SelectorBox::Flat(ReusableSelector::new(
                                FlatSelector::new(true),
                                self.cfg.reuse_interval,
                            )),
                            SelectorKind::Hierarchical => {
                                SelectorBox::Hierarchical(ReusableSelector::new(
                                    HierarchicalSelector::new(true),
                                    self.cfg.reuse_interval,
                                ))
                            }
                            SelectorKind::None => unreachable!("validated"),
                        })
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
            let (attn, dense_stats, stream_stats, balance) = fused_prefill_layer_threads(
                &acts.q,
                &acts.k,
                &acts.v,
                &self.attn_cfg,
                &self.kinds[l],
                dynamic_keep,
                threads,
            );
            exec_stats.absorb(&balance);
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

    /// Free hot pages one more token of `state` can claim: the pages its
    /// append allocates plus the promotions its residency pass cannot pay for
    /// by exchange. A head read whole (streaming window, or dense history
    /// within the budget) needs a slot for each page that holds none; a
    /// selecting head promotes at most a budget of pages and can exchange one
    /// of its own sole-owned slot-holding pages for each, so it needs slots
    /// only while it holds fewer of those than a budget. Reserve this much
    /// and the step cannot fail, short of a bounded host refusing a demotion.
    pub fn step_page_demand(&self, state: &SequenceState, pool: &PagePool) -> usize {
        let mut need = state.pages_needed_for_next_token(pool);
        if pool.total_in_use() == pool.in_use() && pool.in_flight_transfers() == 0 {
            return need; // nothing below the hot tier or on its way there
        }
        let np = pool.config().physical_page_size();
        let budget = state
            .sparsity
            .effective_budget(self.cfg.dynamic_budget, state.tokens_processed);
        for (layer, selectors) in state.layers.iter().zip(&state.selectors) {
            for (kv, selector) in selectors.iter().enumerate() {
                need += match (layer.head(kv), selector, budget) {
                    (HeadCache::Dense(c), Some(_), Some(b)) if c.tokens() + 1 > b => {
                        // The most pages one selection reads, so the most it
                        // promotes; each exchangeable page pays for one.
                        let mut unpaid = (b / np).max(lserve_selector::MAX_FORCED_PAGES);
                        let mut slotless = 0;
                        for &id in c.page_table() {
                            if !pool.holds_slot(id) {
                                slotless += 1;
                            } else if pool.refcount(id) == 1 {
                                unpaid -= 1;
                                if unpaid == 0 {
                                    break;
                                }
                            }
                        }
                        slotless.min(unpaid)
                    }
                    (head, ..) => head.swap_in_demand(pool),
                };
            }
        }
        need
    }

    /// Runs dynamic page selection for every dense head of layer `l` (§3.5)
    /// for the row at absolute position `pos` and decode step `step`, whose
    /// post-RoPE queries are `q_row`: fills `plan` with the per-KV-head
    /// selections plus the selector's sparsity-aware cost hints (estimated
    /// visited tokens per selected head) that feed the parallel shard balancer.
    fn select_pages(
        &self,
        state: &mut SequenceState,
        pool: &PagePool,
        l: usize,
        q_row: &[f32],
        (pos, step): (usize, usize),
        plan: &mut RowPlan,
    ) {
        let model = &self.weights.config;
        let d = model.head_dim;
        let group = model.gqa_group_size();
        plan.reset(model.num_kv_heads);
        // The per-sequence schedule may tighten (or replace) the engine-wide
        // budget from a given position onward — the per-branch sparsity dial.
        let Some(budget) = state
            .sparsity
            .effective_budget(self.cfg.dynamic_budget, pos)
        else {
            return;
        };
        let mut queries: Vec<&[f32]> = Vec::with_capacity(group);
        for kv in 0..model.num_kv_heads {
            let Some(selector) = state.selectors[l][kv].as_mut() else {
                continue;
            };
            let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                continue;
            };
            // Skip selection entirely while the history fits the budget —
            // the offline-profiled "no slowdown at short contexts" rule
            // (§5.5).
            if cache.tokens() <= budget {
                continue;
            }
            queries.clear();
            queries.extend(q_row[kv * group * d..(kv + 1) * group * d].chunks_exact(d));
            let sel = selector.select(pool, cache, &queries, budget, step);
            state.stats.selector_logical_scored += sel.logical_pages_scored;
            if sel.reused {
                state.stats.selector_reuses += 1;
            } else {
                state.stats.selector_invocations += 1;
                plan.fresh[kv] = true;
            }
            plan.hints[kv] = Some(sel.estimated_cost_tokens(pool, cache));
            plan.selections[kv] = Some(sel.pages);
        }
    }

    /// The residency pass of the tiered KV memory, run per layer between page
    /// selection and the attention kernels:
    ///
    /// 1. **Selection-driven demotion** (when
    ///    [`EngineConfig::demote_after_chunks`] is `Some(k)`): dense-head
    ///    pages the head's reusable selector has skipped for `k` consecutive
    ///    fresh selection chunks are demoted to the cold tier — except pages
    ///    in the current selection, the table's final page (append target),
    ///    and pages co-owned with the prefix cache or another sequence (the
    ///    pool refuses those). The sweep runs only on steps whose selection
    ///    was freshly scored (`fresh[kv]`): the stale set is a pure function
    ///    of the chunk clock, so reuse steps cannot change it.
    /// 2. **Promotion**: every cold page the current selection picks is
    ///    promoted back before the kernel runs, satisfying the kernels'
    ///    hot-residency precondition. The accounted fetch units land in
    ///    `plan.fetch_units` per KV head so the LPT shard costing can charge
    ///    the fetch to the shard that caused it. A promotion takes a free hot slot only while
    ///    more are free than `reserved` — the slots this batch's appends and
    ///    unexchangeable promotions still need (see
    ///    [`ModelExecutor::step_page_demand`]) — and otherwise pays for its
    ///    slot by **exchange** ([`ModelExecutor::exchange_out`]): one modeled
    ///    transfer each way, zero net hot pages.
    ///
    /// Migrations move data, never mutate it, so outputs are bit-identical to
    /// the always-resident baseline — and, because the async copy engine only
    /// changes *when* transfers are accounted (never what the kernels read),
    /// bit-identical across [`MigrationMode`]s too.
    ///
    /// Under [`MigrationMode::Async`] demotions are issued into the copy
    /// engine (the hot slot frees when the transfer lands, or earlier if an
    /// allocation forces it), promotions ride [`PagePool::ensure_hot`] so a
    /// page already in flight costs only its unhidden remainder, and the
    /// per-head fetch units carry **only the unhidden fraction** —
    /// transfer work the step genuinely stalls on. Under
    /// [`MigrationMode::Sync`] every moved unit is unhidden and the behavior
    /// is exactly the pre-engine baseline.
    ///
    /// All migration accounting funnels through one
    /// [`EngineStats::add_migration`] call per pass, on success and failure
    /// alike.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] when a required promotion finds neither a
    /// free hot slot nor a page of this sequence to exchange for one; the
    /// scheduler treats this like any other out-of-memory decode failure
    /// (release and replay).
    fn apply_residency(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        plan: &mut RowPlan,
        reserved: &mut usize,
    ) -> Result<(), OutOfPagesError> {
        let sync = pool.migration_mode() == MigrationMode::Sync;
        let mut delta = MigrationDelta::default();
        let RowPlan {
            selections,
            fresh,
            fetch_units,
            ..
        } = plan;
        let result = 'pass: {
            for (kv, selection) in selections.iter().enumerate() {
                let Some(sel) = selection else {
                    // No selection this step: the kernel reads this head's
                    // whole page table (full-history dense attention, or a
                    // streaming window), so every page must be readable
                    // first. Non-resident pages appear here only on sequences
                    // seeded from a prefix snapshot captured after demotion —
                    // the common case is a no-op scan.
                    let Some((p, u, unhidden)) = state.layers[l].head(kv).ensure_resident(pool)
                    else {
                        break 'pass Err(OutOfPagesError);
                    };
                    *reserved = reserved.saturating_sub(p as usize);
                    delta.pages_promoted += p;
                    delta.token_units += u;
                    delta.unhidden_units += unhidden;
                    fetch_units[kv] += unhidden;
                    continue;
                };
                let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                    continue;
                };
                let table = cache.page_table();
                if let (Some(k), true) = (self.cfg.demote_after_chunks, fresh[kv]) {
                    if let Some(selector) = state.selectors[l][kv].as_ref() {
                        for p in selector.stale_pages(k) {
                            // Never demote the append target (the table's
                            // final page) or anything the current selection
                            // reads.
                            if p + 1 >= table.len() || sel.contains(&p) {
                                continue;
                            }
                            if let Some(u) = pool.demote(table[p]) {
                                delta.add_demotion(u, sync);
                            }
                        }
                    }
                }
                for &p in sel {
                    let id = table[p];
                    let mut moved = None;
                    if pool.holds_slot(id) || pool.free_pages() > *reserved {
                        moved = pool.ensure_hot(id);
                    }
                    if moved.is_none() {
                        match Self::exchange_out(state, pool, l, selections, kv) {
                            Some((head, out, units)) => {
                                delta.add_demotion(units, sync);
                                pool.tracer().instant(
                                    "exchange",
                                    "kvcache",
                                    lane::COPY,
                                    1,
                                    &[
                                        ("layer", l as u64),
                                        ("head", head as u64),
                                        ("page_out", out.index() as u64),
                                        ("page_in", id.index() as u64),
                                    ],
                                );
                            }
                            // Nothing to exchange: the slot, if one is free,
                            // is one this promotion had reserved.
                            None => *reserved = reserved.saturating_sub(1),
                        }
                        moved = pool.ensure_hot(id);
                    }
                    let Some((u, unhidden)) = moved else {
                        break 'pass Err(OutOfPagesError);
                    };
                    if u > 0 {
                        delta.pages_promoted += 1;
                    }
                    delta.token_units += u;
                    delta.unhidden_units += unhidden;
                    fetch_units[kv] += unhidden;
                }
            }
            Ok(())
        };
        state.stats.add_migration(&delta);
        result
    }

    /// Promotion by exchange: frees one hot slot for a page that head `kv` of
    /// layer `l` selected, by demoting one of the same sequence's own pages
    /// that no kernel reads this step — `kv`'s own first, then the layer's
    /// other dense heads', each longest unselected first (the selector's
    /// last-use order; oldest page on ties, unranked pages last). Never a
    /// page in this step's selections, a table's final page (the append
    /// target), a head read whole, or a co-owned page ([`PagePool::demote`]
    /// refuses those: a batch peer may be about to read it). Returns `(head,
    /// page, transfer units)` given up, or `None` when nothing is
    /// exchangeable.
    fn exchange_out(
        state: &SequenceState,
        pool: &mut PagePool,
        l: usize,
        selections: &[Option<Vec<usize>>],
        kv: usize,
    ) -> Option<(usize, PageId, u64)> {
        let heads = std::iter::once(kv).chain((0..selections.len()).filter(|&h| h != kv));
        for head in heads {
            let (Some(sel), HeadCache::Dense(cache), Some(selector)) = (
                selections[head].as_ref(),
                state.layers[l].head(head),
                state.selectors[l][head].as_ref(),
            ) else {
                continue;
            };
            let table = cache.page_table();
            let stalest = (0..table.len().saturating_sub(1))
                .filter(|p| {
                    !sel.contains(p) && pool.holds_slot(table[*p]) && pool.refcount(table[*p]) == 1
                })
                .min_by_key(|&p| selector.last_selected(p));
            if let Some(p) = stalest {
                // Sole-owned and holding a slot: only a full bounded host
                // with no nvme below it refuses, and it refuses every page.
                return pool.demote(table[p]).map(|units| (head, table[p], units));
            }
        }
        None
    }

    /// Transfers issued per head per step: only the single most recently
    /// displaced page — the one whose re-pick odds the selector's recency
    /// ranking rates highest — so every bad guess costs at most one transfer.
    const PREFETCH_PER_HEAD: usize = 1;

    /// Fresh rescores a page may have sat unselected and still qualify for
    /// prefetch. Beyond this the query has drifted: the page's re-pick odds
    /// no longer justify a speculative transfer, and issuing one is how the
    /// copy channel fills with `prefetch_wasted` traffic.
    const PREFETCH_RECENCY_WINDOW: u64 = 2;

    /// Cap on speculative transfers a single sequence may have issued per
    /// step across **all** layers and heads. The per-head cap alone lets a
    /// deep model multiply guesses by layers × heads; the per-sequence
    /// budget keeps one sequence's speculation from starving demand traffic.
    const PREFETCH_PER_SEQ: usize = 4;

    /// Selector-driven prefetch (async mode only): for every dense head whose
    /// reusable selector will score afresh on the decode step after `step`, start
    /// host→device transfers for the pages that selection is most likely to
    /// re-pick — ranked by selection recency, dropped entirely once they fall
    /// outside [`Self::PREFETCH_RECENCY_WINDOW`] — so by the time the fresh
    /// selection demands them the copy has already ridden one step of
    /// overlapped bandwidth. Wrong guesses cost only spare link bandwidth and
    /// a genuinely free hot slot ([`PagePool::prefetch`] never evicts), and
    /// are tallied as `prefetch_wasted` in [`lserve_kvcache::MigrationStats`].
    /// `budget` is the sequence's remaining step-wide allowance
    /// ([`Self::PREFETCH_PER_SEQ`]), decremented across layers; `reserved`
    /// free slots are left for the batch's own appends and promotions.
    fn issue_prefetches(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        step: usize,
        budget: &mut usize,
        reserved: usize,
    ) {
        let next_step = step + 1;
        for kv in 0..state.selectors[l].len() {
            if *budget == 0 {
                return;
            }
            let Some(selector) = state.selectors[l][kv].as_ref() else {
                continue;
            };
            if selector.next_fresh_step() != Some(next_step) {
                continue;
            }
            let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                continue;
            };
            let table = cache.page_table();
            let mut issued = 0;
            for p in selector.prefetch_candidates(Self::PREFETCH_RECENCY_WINDOW) {
                // Speculation never takes a slot the batch has reserved.
                if issued >= Self::PREFETCH_PER_HEAD
                    || *budget == 0
                    || pool.free_pages() <= reserved
                {
                    break;
                }
                // Never the append target (the table's final page).
                if p + 1 >= table.len() {
                    continue;
                }
                if pool.prefetch(table[p]) {
                    issued += 1;
                    *budget -= 1;
                }
            }
        }
    }

    /// Runs one decode step for one sequence: absorbs `token`, returns next-token
    /// logits.
    ///
    /// Dense heads go through dynamic page selection (when configured) and the
    /// fused decode kernel; streaming heads attend their sink+local pages.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] when the pool cannot hold the new token's KV;
    /// the sequence's cache is then partially written and the state must be
    /// released (and, in a serving loop, replayed) rather than advanced.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ModelExecutor::prefill`].
    pub fn decode_step(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        token: u32,
    ) -> Result<DecodeOutput, OutOfPagesError> {
        let mut out = self.decode_batch(pool, &mut [(state, token)]);
        out.pop().expect("one result per input sequence")
    }

    /// Batched decode: one token for every sequence in `batch`, walking **layers in
    /// the outer loop** with the batch's tokens stacked as the rows of one
    /// matrix, so each layer's weights are read once for the whole batch
    /// (iteration-level batching, the memory-access pattern real batched
    /// decode kernels use). Uses the process-wide default thread count
    /// ([`decode_threads_from_env`]).
    ///
    /// Each sequence's computation is independent, so outputs are bit-identical to
    /// calling [`ModelExecutor::decode_step`] per sequence in any order — the
    /// property the scheduler's determinism guarantee rests on.
    ///
    /// Returns one result per sequence, in input order. A sequence that runs out of
    /// pages mid-step gets `Err(OutOfPagesError)` and is left partially written
    /// (release/replay it); the other sequences are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if any sequence has no context yet (prefill first).
    pub fn decode_batch(
        &self,
        pool: &mut PagePool,
        batch: &mut [(&mut SequenceState, u32)],
    ) -> Vec<Result<DecodeOutput, OutOfPagesError>> {
        let mut stats = ParallelExecStats::default();
        self.decode_batch_threads(pool, batch, self.default_threads, &mut stats)
    }

    /// [`ModelExecutor::decode_batch`] with an explicit worker-thread count.
    ///
    /// Every layer runs in three phases:
    ///
    /// 1. **Stacked projections, serial writeback**: QKV + RoPE for every row
    ///    at once, then per sequence, in batch order, the KV append into the
    ///    paged cache (the only pool mutation) and dynamic page selection.
    ///    Allocation order is identical to the serial path.
    /// 2. **Parallel attention**: one shard per *(sequence × KV-head)*, each
    ///    costed by the sparsity-aware estimate (streaming ≈ resident window,
    ///    selected dense ≈ the selector's page set, unselected dense ≈ full
    ///    history), LPT-assigned across up to `threads` scoped workers with
    ///    work-stealing for stragglers. Every shard writes only its own
    ///    preallocated output slice — no locks on the hot path.
    /// 3. **Stacked reduction**: output projection and FFN over every row
    ///    (a GEMM row's value does not depend on its neighbours).
    ///
    /// Shards read only shared immutable state and own disjoint outputs, and
    /// the serial phase runs in fixed batch order, so the result is
    /// **bit-identical for every thread count** — the property
    /// `tests/proptest_scheduler.rs` and the golden suite pin down.
    ///
    /// `exec_stats` accumulates one [`ParallelExecStats`] phase per layer and token:
    /// measured worker busy time (utilization/imbalance) plus the
    /// deterministic cost-model critical path (modeled speedup).
    ///
    /// # Panics
    ///
    /// Panics if any sequence has no context yet (prefill first).
    pub fn decode_batch_threads(
        &self,
        pool: &mut PagePool,
        batch: &mut [(&mut SequenceState, u32)],
        threads: usize,
        exec_stats: &mut ParallelExecStats,
    ) -> Vec<Result<DecodeOutput, OutOfPagesError>> {
        // Transient per-call plan seeded from `LSERVE_DEVICES` (read here, per
        // call, like every other env knob). Callers that need placement to
        // persist across steps — the scheduler, whose rebalancer tracks load
        // history — hold their own plan and call `decode_batch_sharded`.
        let model = &self.weights.config;
        let mut plan = ShardingPlan::new(
            Topology::from_env(),
            lserve_costmodel::PlacementPolicy::SparsityAware,
            model.num_layers,
            model.num_kv_heads,
        );
        self.decode_batch_sharded(pool, batch, threads, &mut plan, exec_stats)
    }

    /// [`ModelExecutor::decode_batch_threads`] against an explicit, caller-owned
    /// [`ShardingPlan`]: parallel attention executes placed — each shard runs on
    /// its KV head's simulated device (per-device LPT worker queues,
    /// device-local stealing), a sequence's shards on non-home devices charge
    /// the topology's modeled interconnect gather cost into `exec_stats` and
    /// the trace, and the plan accumulates the per-head cost signal its
    /// rebalancer acts on.
    ///
    /// With a single-device plan this is exactly the anonymous-pool path.
    /// Outputs are bit-identical for every topology, placement policy, and
    /// thread count — devices are simulated, so placement moves modeled cost,
    /// never arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if any sequence has no context yet (prefill first), or if the
    /// plan's layer/head geometry disagrees with the model's.
    pub fn decode_batch_sharded(
        &self,
        pool: &mut PagePool,
        batch: &mut [(&mut SequenceState, u32)],
        threads: usize,
        plan: &mut ShardingPlan,
        exec_stats: &mut ParallelExecStats,
    ) -> Vec<Result<DecodeOutput, OutOfPagesError>> {
        let reserved = batch
            .iter()
            .map(|(state, _)| self.step_page_demand(state, pool))
            .sum();
        let mut runs: Vec<Run<'_>> = batch
            .iter_mut()
            .map(|(state, token)| (&mut **state, std::slice::from_ref(&*token)))
            .collect();
        self.decode_batch_reserved(pool, &mut runs, threads, plan, exec_stats, reserved)
    }

    /// The one body every token goes through after a sequence's fused first
    /// chunk: each batch entry feeds a [`Run`] — one token for a decoding
    /// sequence, up to a page of prompt continuation for a prefilling one.
    /// The rows of all runs are stacked into one matrix, so each layer's
    /// weights are walked once per call (one GEMM of `rows` rows per
    /// projection) rather than once per token. Between the stacked
    /// projections a layer's rows are taken in **rounds** — round `r` holds
    /// row `r` of every run — and a round is the old one-token step: serial
    /// append → select → residency → prefetch per entry, then the sharded
    /// attention of all the round's rows. A sequence's rows therefore pass a
    /// layer in token order, each at its own position and decode-step index,
    /// so row `t` reads exactly the keys `≤ t` and meets the selector state
    /// row `t - 1` left. Caches and selectors are per layer, which is what
    /// makes finishing a layer's rows before the next layer starts
    /// bit-identical to finishing a token's layers before the next token.
    ///
    /// What does see the order is the pool: free slots, the copy engine's
    /// in-flight set (drained once per call, by `rows` tokens of compute) and
    /// `reserved` are shared by all layers, so *which* promotions exchange
    /// and which transfers are still in flight — ledger entries, never data —
    /// can differ from a token-by-token feed.
    ///
    /// `reserved` is the sum of the entries' [`ModelExecutor::step_page_demand`],
    /// just checked against the pool by the caller (the scheduler): the free
    /// hot slots the runs' first tokens still need for their appends and
    /// unexchangeable promotions. Exchangeable promotions and prefetches leave
    /// them alone. That covers a run that stays inside one physical page: its
    /// later tokens append without allocating, so its demand is its first
    /// token's. (A run that crosses a page computes the same bits; it is only
    /// not reserved for.)
    ///
    /// Returns, per entry, the logits after its run's last token.
    pub(crate) fn decode_batch_reserved(
        &self,
        pool: &mut PagePool,
        batch: &mut [Run<'_>],
        threads: usize,
        plan: &mut ShardingPlan,
        exec_stats: &mut ParallelExecStats,
        mut reserved: usize,
    ) -> Vec<Result<DecodeOutput, OutOfPagesError>> {
        let model = &self.weights.config;
        let d = model.head_dim;
        let group = model.gqa_group_size();
        let width = model.q_width();
        // Entry `i` owns rows `first[i]..first[i + 1]` of every stacked matrix.
        let mut first = vec![0usize; batch.len() + 1];
        let mut positions = Vec::new();
        for (i, (state, run)) in batch.iter().enumerate() {
            assert!(state.tokens_processed > 0, "decode before prefill");
            assert!(!run.is_empty(), "empty run");
            first[i + 1] = first[i] + run.len();
            positions.extend(state.tokens_processed..state.tokens_processed + run.len());
        }
        let rows = positions.len();
        let rounds = batch.iter().map(|(_, run)| run.len()).max().unwrap_or(0);
        let angles = self.rope.angles(positions);
        let tokens: Vec<u32> = batch
            .iter()
            .flat_map(|(_, run)| run.iter().copied())
            .collect();
        let mut x = self.weights.embed_tokens(&tokens);
        let mut live = vec![true; batch.len()];
        let mut plans: Vec<RowPlan> = batch.iter().map(|_| RowPlan::default()).collect();
        let tracer = pool.tracer().clone();
        // Token-wide speculative-transfer allowance per row, spent by
        // issue_prefetches across all layers (async migration only).
        let mut prefetch_budget: Vec<usize> = vec![Self::PREFETCH_PER_SEQ; rows];
        for (l, lw) in self.weights.layers.iter().enumerate() {
            let acts = pre_attention(model, lw, &x, &angles);
            let mut attn = Matrix::zeros(rows, width);
            let mut attn_rows: Vec<&mut [f32]> = attn.as_mut_slice().chunks_mut(width).collect();
            for r in 0..rounds {
                // Phase 1 (serial, batch order): KV writeback, dynamic page
                // selection, residency. A failed append kills only that
                // sequence.
                let serial_start = tracer.now();
                for (i, (state, run)) in batch.iter_mut().enumerate() {
                    plans[i].row = None;
                    if !live[i] || r >= run.len() {
                        continue;
                    }
                    let row = first[i] + r;
                    let appended = state.layers[l].pages_needed_for_next_token(pool);
                    if !state.layers[l].append_token(pool, acts.k.row(row), acts.v.row(row), d) {
                        live[i] = false;
                        continue;
                    }
                    reserved = reserved.saturating_sub(appended);
                    let at = (state.tokens_processed + r, state.decode_step_idx + r);
                    self.select_pages(state, pool, l, acts.q.row(row), at, &mut plans[i]);
                    if tracer.is_enabled() {
                        for (kv, &f) in plans[i].fresh.iter().enumerate() {
                            if f {
                                tracer.instant(
                                    "rescore",
                                    "selector",
                                    lane::SELECTOR,
                                    i as u64,
                                    &[("layer", l as u64), ("head", kv as u64)],
                                );
                            }
                        }
                    }
                    // Residency pass: demote selector-stale pages, promote any
                    // cold page the selection wants, before the kernels read.
                    // A required promotion that finds no slot and nothing to
                    // exchange fails the sequence like any other OOM; the
                    // serving layer replays it.
                    if self
                        .apply_residency(state, pool, l, &mut plans[i], &mut reserved)
                        .is_err()
                    {
                        live[i] = false;
                        continue;
                    }
                    plans[i].row = Some(row);
                    // Overlap window: promotions issued above ride the rest of
                    // this call's compute; prefetches below start a step early.
                    if pool.migration_mode() == MigrationMode::Async {
                        let budget = &mut prefetch_budget[row];
                        self.issue_prefetches(state, pool, l, at.1, budget, reserved);
                    }
                }
                // The serial phase costs one clock tick per live row.
                tracer.advance(plans.iter().filter(|p| p.row.is_some()).count() as u64);
                tracer.span(
                    "decode.serial",
                    "executor",
                    lane::EXECUTOR,
                    CONTROL_TID,
                    serial_start,
                    &[("layer", l as u64)],
                );
                let par_start = tracer.now();
                // Phase 2 (parallel): sharded attention into disjoint
                // per-(sequence × KV-head) slices of the round's output rows.
                let shard_stats: Vec<(usize, DecodeStats, DecodeStats)> = {
                    let pool_ref: &PagePool = pool;
                    let scale = self.attn_cfg.scale();
                    let mut shards: Vec<DecodeShard<'_>> = Vec::new();
                    let mut shard_seq: Vec<usize> = Vec::new();
                    let mut shard_kv: Vec<usize> = Vec::new();
                    let mut costs: Vec<u64> = Vec::new();
                    for (i, ((state, _), fed)) in batch.iter().zip(&plans).enumerate() {
                        let Some(row) = fed.row else { continue };
                        let q = acts.q.row(row);
                        let cache = &state.layers[l];
                        let out = std::mem::take(&mut attn_rows[row]);
                        for (kv, out_chunk) in out.chunks_mut(group * d).enumerate() {
                            let selection = fed.selections[kv].as_deref();
                            costs.push(decode_shard_cost(
                                pool_ref,
                                cache.head(kv),
                                selection,
                                fed.hints[kv],
                                fed.fetch_units[kv],
                                group,
                            ));
                            shard_seq.push(i);
                            shard_kv.push(kv);
                            shards.push(DecodeShard {
                                head: cache.head(kv),
                                queries: &q[kv * group * d..(kv + 1) * group * d],
                                selection,
                                head_dim: d,
                                scale,
                                out: out_chunk,
                                dense: DecodeStats::default(),
                                streaming: DecodeStats::default(),
                            });
                        }
                    }
                    let devices = plan.devices();
                    if devices <= 1 {
                        let balance = run_sharded(threads, &costs, &mut shards, |shard| {
                            run_decode_shard(pool_ref, shard)
                        });
                        exec_stats.absorb(&balance);
                        trace_attention_phase(&tracer, par_start, l, &balance, &costs, &shard_seq);
                    } else {
                        // Per-head cost signal for this phase: the placement (and
                        // later the rebalancer) act on exactly what the worker-level
                        // LPT balances.
                        let mut head_costs = vec![0u64; model.num_kv_heads];
                        for (s, &kv) in shard_kv.iter().enumerate() {
                            head_costs[kv] += costs[s];
                        }
                        let assign = plan.layer_assignment(l, &head_costs).to_vec();
                        // A sequence's home device is where the plurality of its
                        // shard cost lives (ties to the lower device id): its other
                        // shards' outputs must cross the mesh before the serial
                        // output projection, and each such gather charges the
                        // topology's modeled interconnect cost — onto the shard
                        // (the gather delays it) and into the interconnect ledger.
                        let mut seq_dev_cost = vec![vec![0u64; devices]; batch.len()];
                        for s in 0..costs.len() {
                            seq_dev_cost[shard_seq[s]][assign[shard_kv[s]]] += costs[s];
                        }
                        let home: Vec<usize> = seq_dev_cost
                            .iter()
                            .map(|loads| {
                                (0..devices)
                                    .max_by_key(|&dev| (loads[dev], std::cmp::Reverse(dev)))
                                    .expect("devices > 0")
                            })
                            .collect();
                        let gather = plan.topology().gather_cost_tokens();
                        let mut device_of = vec![0usize; costs.len()];
                        let mut placed_costs = costs.clone();
                        let mut gather_tokens = 0u64;
                        for s in 0..costs.len() {
                            let dev = assign[shard_kv[s]];
                            device_of[s] = dev;
                            if dev != home[shard_seq[s]] {
                                placed_costs[s] += gather;
                                gather_tokens += gather;
                            }
                        }
                        let placed = run_placed(
                            threads,
                            devices,
                            &device_of,
                            &placed_costs,
                            &mut shards,
                            |shard| run_decode_shard(pool_ref, shard),
                        );
                        exec_stats.absorb_placed(&placed, gather_tokens);
                        trace_attention_phase_placed(
                            &tracer,
                            par_start,
                            l,
                            &placed,
                            &placed_costs,
                            &shard_seq,
                            &device_of,
                            exec_stats.interconnect_tokens,
                        );
                    }
                    shard_seq
                        .iter()
                        .zip(shards.iter())
                        .map(|(&i, s)| (i, s.dense, s.streaming))
                        .collect()
                };
                // Work counters attributed per sequence in shard-construction
                // order, so stats stay deterministic too.
                for (i, dense, streaming) in shard_stats {
                    batch[i].0.stats.add_decode(dense, streaming);
                }
            }
            drop(attn_rows);
            // Phase 3 (stacked): output projection + FFN over every row.
            post_attention(lw, &mut x, &attn);
            ffn_block(lw, &mut x);
        }
        // A token of compute hides a token of host-link bandwidth: each fed
        // row buys `HOST_TRANSFER_SPEEDUP` token-units of transfer drain, the
        // exact inverse of `transfer_cost_tokens`. A transfer fully drained by
        // these advances cost the call nothing — that is the overlap the async
        // engine models. (No-op in sync mode.)
        pool.advance_transfer_units(rows as u64 * HOST_TRANSFER_SPEEDUP);
        // Logits of each surviving run's last row, one stacked GEMM.
        let mut last = Vec::new();
        for i in (0..batch.len()).filter(|&i| live[i]) {
            last.extend_from_slice(x.row(first[i + 1] - 1));
        }
        let last = Matrix::from_vec(last.len() / model.hidden, model.hidden, last);
        let out = logits(&self.weights, &last);
        let mut out_rows = (0..out.rows()).map(|r| out.row(r).to_vec());
        batch
            .iter_mut()
            .zip(live)
            .map(|((state, run), live)| {
                if !live {
                    return Err(OutOfPagesError);
                }
                state.tokens_processed += run.len();
                state.decode_step_idx += run.len();
                state.stats.decode_steps += run.len() as u64;
                let logits = out_rows.next().expect("one logits row per live run");
                Ok(DecodeOutput { logits })
            })
            .collect()
    }
}

/// One entry of a step's batch: a sequence and the run of consecutive tokens
/// it absorbs, which the scheduler keeps inside one physical KV page so that
/// the reservation covers it (see [`ModelExecutor::decode_batch_reserved`]).
pub(crate) type Run<'a> = (&'a mut SequenceState, &'a [u32]);

/// One batch entry's plan for the row it feeds through a layer, refilled row
/// after row: the stacked-matrix row (`None` when the entry has none this
/// round — its run is shorter, or it ran out of pages), and per KV head the
/// selected page set, the selector's cost hint for LPT balancing, whether the
/// selection was freshly scored (the demotion sweep runs only then), and the
/// unhidden transfer units its promotions stalled the shard for.
#[derive(Debug, Default)]
struct RowPlan {
    row: Option<usize>,
    selections: Vec<Option<Vec<usize>>>,
    hints: Vec<Option<u64>>,
    fresh: Vec<bool>,
    fetch_units: Vec<u64>,
}

impl RowPlan {
    /// Empties the plan for a row of `heads` KV heads, keeping the buffers.
    fn reset(&mut self, heads: usize) {
        self.selections.clear();
        self.selections.resize(heads, None);
        self.hints.clear();
        self.hints.resize(heads, None);
        self.fresh.clear();
        self.fresh.resize(heads, false);
        self.fetch_units.clear();
        self.fetch_units.resize(heads, 0);
    }
}

/// Emits one decode layer's parallel-phase trace: advances the work-token
/// clock by the phase's modeled critical path, closes the `decode.attention`
/// span, and lays per-shard spans on the worker lanes.
///
/// The worker lanes show the *modeled LPT schedule* — [`lpt_assign`] re-run
/// over the same deterministic costs [`run_sharded`] balanced with — not the
/// measured execution (work stealing may move a straggler shard at runtime).
/// That is the right chart for imbalance analysis: it is bit-reproducible,
/// and the per-shard `cost` args are exactly the sparsity-aware estimates the
/// balancer acted on.
fn trace_attention_phase(
    tracer: &Tracer,
    par_start: u64,
    l: usize,
    balance: &BalanceStats,
    costs: &[u64],
    shard_seq: &[usize],
) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.advance(balance.cost_critical());
    tracer.span(
        "decode.attention",
        "executor",
        lane::EXECUTOR,
        CONTROL_TID,
        par_start,
        &[("layer", l as u64), ("shards", balance.shards)],
    );
    if costs.is_empty() {
        return;
    }
    for (w, queue) in lpt_assign(costs, balance.workers.max(1)).iter().enumerate() {
        let mut cursor = par_start;
        for &s in queue {
            tracer.span_at(
                "shard",
                "attention",
                lane::WORKERS,
                w as u64,
                cursor,
                costs[s],
                &[("seq", shard_seq[s] as u64), ("cost", costs[s])],
            );
            cursor += costs[s];
        }
    }
}

/// [`trace_attention_phase`] for a placed phase: per-shard spans land on
/// per-device worker lanes (`tid = device * DEVICE_TID_STRIDE + worker`, the
/// same per-device LPT schedule [`run_placed`] executed), and the cumulative
/// cross-device gather charge is emitted as an `interconnect` counter track.
#[allow(clippy::too_many_arguments)]
fn trace_attention_phase_placed(
    tracer: &Tracer,
    par_start: u64,
    l: usize,
    placed: &PlacedBalance,
    costs: &[u64],
    shard_seq: &[usize],
    device_of: &[usize],
    interconnect_total: u64,
) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.advance(placed.stats.cost_critical());
    tracer.span(
        "decode.attention",
        "executor",
        lane::EXECUTOR,
        CONTROL_TID,
        par_start,
        &[
            ("layer", l as u64),
            ("shards", placed.stats.shards),
            ("devices", placed.devices as u64),
        ],
    );
    for dev in 0..placed.devices {
        let group: Vec<usize> = (0..costs.len()).filter(|&s| device_of[s] == dev).collect();
        if group.is_empty() {
            continue;
        }
        let local_costs: Vec<u64> = group.iter().map(|&s| costs[s]).collect();
        let workers = placed.device_workers[dev].max(1);
        for (w, queue) in lpt_assign(&local_costs, workers).iter().enumerate() {
            let mut cursor = par_start;
            for &local in queue {
                let s = group[local];
                tracer.span_at(
                    "shard",
                    "attention",
                    lane::WORKERS,
                    lane::device_worker_tid(dev, w),
                    cursor,
                    costs[s],
                    &[("seq", shard_seq[s] as u64), ("cost", costs[s])],
                );
                cursor += costs[s];
            }
        }
    }
    // After the shard spans: the counter's tid-0 timestamp (the advanced
    // clock) must not precede device 0's span closes within the lane.
    tracer.counter(
        "interconnect",
        lane::WORKERS,
        &[("tokens", interconnect_total)],
    );
}

/// Sparsity-aware cost estimate of one *(sequence × KV-head)* decode shard, in
/// visited KV tokens times query heads served (the work the kernel actually
/// does):
///
/// * streaming head → resident sink+local window tokens (constant-bounded);
/// * selected dense head → the selector's cost hint (its selected page set),
///   clamped to the real history;
/// * unselected dense head → the full history;
/// * plus the modeled host-link fetch cost of any cold pages the residency
///   pass just promoted for this shard — a shard whose pages crossed the host
///   link is genuinely slower this step, and the LPT balancer should know.
fn decode_shard_cost(
    pool: &PagePool,
    head: &HeadCache,
    selection: Option<&[usize]>,
    hint: Option<u64>,
    fetch_units: u64,
    group: usize,
) -> u64 {
    let tokens = match head {
        HeadCache::Streaming(c) => c.resident_tokens(pool) as u64,
        HeadCache::Dense(c) => match (selection, hint) {
            (Some(_), Some(h)) => h.min(c.tokens() as u64),
            (Some(sel), None) => (sel.len() as u64 * pool.config().physical_page_size() as u64)
                .min(c.tokens() as u64),
            _ => c.tokens() as u64,
        },
    };
    (tokens * group as u64).max(1) + lserve_kvcache::transfer_cost_tokens(fetch_units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_kvcache::{Residency, TierConfig};
    use lserve_model::{greedy_next_token, ModelConfig};

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

    #[test]
    fn batched_decode_matches_sequential_decode() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let prompts: [&[u32]; 3] = [&[1, 2, 3, 4], &[9, 8, 7], &[20, 30, 40, 50, 60]];

        // Sequential: each sequence decoded alone (still sharing the pool).
        let mut pool_seq = cfg.make_pool_for(&w.config, 1024);
        let mut seq_states: Vec<SequenceState> =
            prompts.iter().map(|_| exec.new_sequence()).collect();
        let mut seq_tokens: Vec<Vec<u32>> = Vec::new();
        for (state, prompt) in seq_states.iter_mut().zip(prompts) {
            let first = exec.prefill(state, &mut pool_seq, prompt).unwrap();
            let mut next = greedy_next_token(&first.logits);
            let mut toks = vec![next];
            for _ in 0..6 {
                let out = exec.decode_step(state, &mut pool_seq, next).unwrap();
                next = greedy_next_token(&out.logits);
                toks.push(next);
            }
            seq_tokens.push(toks);
        }

        // Batched: all three advanced one token per decode_batch call.
        let mut pool_b = cfg.make_pool_for(&w.config, 1024);
        let mut b_states: Vec<SequenceState> =
            prompts.iter().map(|_| exec.new_sequence()).collect();
        let mut pending: Vec<u32> = b_states
            .iter_mut()
            .zip(prompts)
            .map(|(state, prompt)| {
                greedy_next_token(&exec.prefill(state, &mut pool_b, prompt).unwrap().logits)
            })
            .collect();
        let mut b_tokens: Vec<Vec<u32>> = pending.iter().map(|&t| vec![t]).collect();
        for _ in 0..6 {
            let mut batch: Vec<(&mut SequenceState, u32)> = b_states
                .iter_mut()
                .zip(pending.iter())
                .map(|(s, &t)| (s, t))
                .collect();
            let outs = exec.decode_batch(&mut pool_b, &mut batch);
            for (i, out) in outs.into_iter().enumerate() {
                let next = greedy_next_token(&out.unwrap().logits);
                pending[i] = next;
                b_tokens[i].push(next);
            }
        }
        assert_eq!(seq_tokens, b_tokens);
    }

    /// The tentpole invariant at the executor level: for every thread count,
    /// `decode_batch_threads` emits bit-identical logits to the serial path —
    /// including a mixed dense/streaming batch with active page selection.
    #[test]
    fn parallel_decode_bit_identical_across_thread_counts() {
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        cfg.dynamic_budget = Some(16); // selection active at toy context lengths
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let prompts: [&[u32]; 3] = [&[1, 2, 3, 4], &[9, 8, 7], &[20, 30, 40, 50, 60]];

        let run = |threads: usize| -> (Vec<Vec<Vec<f32>>>, u64) {
            let mut pool = cfg.make_pool_for(&w.config, 1024);
            let mut states: Vec<SequenceState> =
                prompts.iter().map(|_| exec.new_sequence()).collect();
            let mut exec_stats = ParallelExecStats::default();
            let mut pending: Vec<u32> = states
                .iter_mut()
                .zip(prompts)
                .map(|(state, prompt)| {
                    let out = exec
                        .prefill_threads(state, &mut pool, prompt, threads, &mut exec_stats)
                        .unwrap();
                    greedy_next_token(&out.logits)
                })
                .collect();
            let mut all_logits: Vec<Vec<Vec<f32>>> = prompts.iter().map(|_| Vec::new()).collect();
            for _ in 0..24 {
                let mut batch: Vec<(&mut SequenceState, u32)> = states
                    .iter_mut()
                    .zip(pending.iter())
                    .map(|(s, &t)| (s, t))
                    .collect();
                let outs =
                    exec.decode_batch_threads(&mut pool, &mut batch, threads, &mut exec_stats);
                for (i, out) in outs.into_iter().enumerate() {
                    let logits = out.unwrap().logits;
                    pending[i] = greedy_next_token(&logits);
                    all_logits[i].push(logits);
                }
            }
            (all_logits, exec_stats.shards)
        };

        let (want, shards1) = run(1);
        assert!(shards1 > 0);
        for threads in [2, 3, 8] {
            let (got, shards_t) = run(threads);
            assert_eq!(got, want, "logits diverged at {threads} threads");
            assert_eq!(shards_t, shards1, "shard count must not depend on threads");
        }
    }

    #[test]
    fn shard_cost_reflects_sparsity() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 2048);
        let exec = ModelExecutor::new(Arc::clone(&w), cfg);
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..200).map(|i| (i % 90) as u32).collect();
        exec.prefill(&mut s, &mut pool, &prompt).unwrap();
        let layer = &s.layers[0];
        let (dense_kv, stream_kv) = {
            let mut dense = None;
            let mut stream = None;
            for kv in 0..layer.num_heads() {
                match layer.head(kv) {
                    HeadCache::Dense(_) => dense = Some(kv),
                    HeadCache::Streaming(_) => stream = Some(kv),
                }
            }
            (dense.expect("mixed layer"), stream.expect("mixed layer"))
        };
        let full = decode_shard_cost(&pool, layer.head(dense_kv), None, None, 0, 2);
        let selected =
            decode_shard_cost(&pool, layer.head(dense_kv), Some(&[0, 1]), Some(128), 0, 2);
        let streaming = decode_shard_cost(&pool, layer.head(stream_kv), None, None, 0, 2);
        assert!(
            full > selected && full > streaming,
            "full {full}, selected {selected}, streaming {streaming}"
        );
        assert_eq!(full, 200 * 2, "unselected dense head costed by history");
        assert_eq!(selected, 128 * 2, "selected head costed by selector hint");
        // Streaming heads are window-bounded no matter how long the context.
        let window = exec.config().streaming_window;
        let np = pool.config().physical_page_size();
        assert!(streaming <= (window.max_pages() * np * 2) as u64);
        // A shard whose pages just crossed the host link costs strictly more.
        let fetched = decode_shard_cost(
            &pool,
            layer.head(dense_kv),
            Some(&[0, 1]),
            Some(128),
            256,
            2,
        );
        assert!(fetched > selected, "fetch cost must surface in the shard");
        s.release(&mut pool);
    }

    /// Selection-driven demotion (tiered KV memory): with `demote_after_chunks`
    /// on, selector-stale dense pages migrate to the cold tier and come back
    /// when a selection re-picks them — and the emitted logits are
    /// bit-identical to the always-resident baseline at every step.
    #[test]
    fn selection_driven_demotion_is_bit_identical_and_migrates() {
        let mut base = EngineConfig::lserve_fp16();
        base.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        base.dynamic_budget = Some(16);
        base.reuse_interval = 2;
        let w = tiny_weights();

        let run = |demote: Option<usize>| -> (Vec<Vec<f32>>, u64, u64, usize) {
            let mut cfg = base.clone();
            cfg.demote_after_chunks = demote;
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let mut pool = cfg.make_pool_for(&w.config, 1024);
            let mut s = exec.new_sequence();
            let prompt: Vec<u32> = (0..40).map(|i| (i % 90) as u32).collect();
            let first = exec.prefill(&mut s, &mut pool, &prompt).unwrap();
            let mut next = greedy_next_token(&first.logits);
            let mut all = Vec::new();
            let mut peak_cold = 0;
            for _ in 0..40 {
                let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
                next = greedy_next_token(&out.logits);
                peak_cold = peak_cold.max(pool.cold_in_use());
                all.push(out.logits);
            }
            let stats = s.stats();
            s.release(&mut pool);
            assert_eq!(pool.in_use(), 0);
            assert_eq!(pool.cold_in_use(), 0, "release must drain the cold tier");
            (all, stats.pages_demoted, stats.pages_promoted, peak_cold)
        };

        let (want, d0, p0, cold0) = run(None);
        assert_eq!((d0, p0, cold0), (0, 0, 0), "baseline stays resident");
        let (got, demoted, _promoted, peak_cold) = run(Some(1));
        assert_eq!(got, want, "demotion changed the logits");
        assert!(demoted > 0, "stale pages must actually demote");
        assert!(peak_cold > 0, "cold tier must hold the demoted pages");
    }

    /// The exchange tests' engine: 8-token pages, a four-page selection
    /// budget, a fresh scoring every other step.
    fn exchange_cfg(demote_after_chunks: Option<usize>) -> EngineConfig {
        EngineConfig {
            paging: lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16),
            dynamic_budget: Some(32),
            reuse_interval: 2,
            demote_after_chunks,
            ..EngineConfig::lserve_fp16()
        }
    }

    /// The tiny model with four KV heads, so that a layer has dense peers.
    fn wide_weights() -> Arc<ModelWeights> {
        let model = ModelConfig {
            num_q_heads: 8,
            num_kv_heads: 4,
            ..ModelConfig::tiny()
        };
        Arc::new(ModelWeights::random(&model, 42))
    }

    /// A sequence 24 decode steps past a 40-token prompt: every dense head is
    /// past its budget and its selector has a last-use history.
    fn past_budget(exec: &ModelExecutor, pool: &mut PagePool) -> (SequenceState, u32) {
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..40).map(|i| (i * 7 % 90) as u32).collect();
        let mut next = greedy_next_token(&exec.prefill(&mut s, pool, &prompt).unwrap().logits);
        for _ in 0..24 {
            next = greedy_next_token(&exec.decode_step(&mut s, pool, next).unwrap().logits);
        }
        (s, next)
    }

    /// A layer with two dense heads, as `(layer, head, peer)`.
    fn dense_pair(exec: &ModelExecutor) -> (usize, usize, usize) {
        exec.head_kinds()
            .iter()
            .enumerate()
            .find_map(|(l, kinds)| {
                let mut dense = (0..kinds.len()).filter(|&h| kinds[h] == HeadKind::Dense);
                Some((l, dense.next()?, dense.next()?))
            })
            .expect("a layer with two dense heads")
    }

    /// Selections that read the first and the last page of every dense head
    /// of layer `l` (streaming heads are read whole).
    fn first_and_last(s: &SequenceState, l: usize) -> Vec<Option<Vec<usize>>> {
        (0..s.layers[l].num_heads())
            .map(|h| match s.layers[l].head(h) {
                HeadCache::Dense(c) => Some(vec![0, c.num_pages() - 1]),
                HeadCache::Streaming(_) => None,
            })
            .collect()
    }

    #[test]
    fn exchange_gives_up_the_stalest_page_no_kernel_reads() {
        let cfg = exchange_cfg(None);
        let w = wide_weights();
        let mut pool = PagePool::new(cfg.paging, 4096, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let (s, _) = past_budget(&exec, &mut pool);
        let (l, kv, peer) = dense_pair(&exec);
        let mut selections = first_and_last(&s, l);
        let table = s.layers[l].head(kv).as_dense().page_table().to_vec();
        let selector = s.selectors[l][kv].as_ref().unwrap();

        // Its own head first, and there the page unselected the longest.
        let stalest = (1..=24)
            .rev()
            .map(|k| selector.stale_pages(k))
            .find_map(|stale| {
                let eligible: Vec<PageId> = stale
                    .into_iter()
                    .filter(|&p| p != 0 && p + 1 < table.len())
                    .map(|p| table[p])
                    .collect();
                (!eligible.is_empty()).then_some(eligible)
            })
            .expect("a head past its budget has unselected pages");
        let (head, out, units) =
            ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).unwrap();
        assert_eq!(head, kv);
        assert!(stalest.contains(&out), "{out:?} is not among {stalest:?}");
        assert_eq!(pool.residency(out), Residency::Cold);
        assert_eq!(units, 8, "one page of token-units");

        // Never a co-owned page: with every candidate but one shared, that one.
        let candidates: Vec<PageId> = table[1..table.len() - 1]
            .iter()
            .copied()
            .filter(|&id| id != out)
            .collect();
        for &id in &candidates[1..] {
            pool.retain(id);
        }
        let (head, sole, _) =
            ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).unwrap();
        assert_eq!((head, sole), (kv, candidates[0]));
        for &id in &candidates[1..] {
            pool.free(id);
        }

        // Never a selected page, and another head's only when its own has
        // nothing left: with all of `kv` selected, the peer gives one up.
        selections[kv] = Some((0..table.len()).collect());
        let (head, lent, _) =
            ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).unwrap();
        assert_eq!(head, peer);
        let peer_table = s.layers[l].head(peer).as_dense().page_table();
        let lent_at = peer_table.iter().position(|&id| id == lent).unwrap();
        assert!(lent_at != 0 && lent_at + 1 < peer_table.len());

        // Exhaust the layer: no peer gave up a page a kernel reads or an
        // append writes, streaming heads and other layers were never touched.
        while ModelExecutor::exchange_out(&s, &mut pool, l, &selections, kv).is_some() {}
        for (h, selection) in selections.iter().enumerate().filter(|&(h, _)| h != kv) {
            match (s.layers[l].head(h), selection) {
                (HeadCache::Dense(c), Some(sel)) => {
                    for (p, &id) in c.page_table().iter().enumerate() {
                        let read = sel.contains(&p) || p + 1 == c.num_pages();
                        assert!(pool.is_hot(id) || !read, "head {h} page {p}");
                    }
                }
                (head, _) => assert_eq!(head.cold_pages(&pool), 0, "head {h} is read whole"),
            }
        }
        for other in (0..s.layers.len()).filter(|&o| o != l) {
            assert_eq!(s.layers[other].cold_pages(&pool), 0);
        }
    }

    #[test]
    fn residency_fails_only_when_nothing_is_exchangeable() {
        let cfg = exchange_cfg(None);
        let w = wide_weights();
        let mut pool = PagePool::new(cfg.paging, 4096, w.config.head_dim);
        let exec = ModelExecutor::new(w, cfg);
        let (mut s, _) = past_budget(&exec, &mut pool);
        let (l, kv, _) = dense_pair(&exec);
        let mut plan = RowPlan::default();
        plan.reset(s.layers[l].num_heads());
        plan.selections = first_and_last(&s, l);

        // One cold page selected, and not one free hot slot.
        let wanted = s.layers[l].head(kv).as_dense().page_table()[1];
        pool.demote(wanted).unwrap();
        plan.selections[kv].as_mut().unwrap().insert(1, 1);
        while pool.allocate().is_some() {}
        let hot = pool.in_use();

        // Every page co-owned: nothing to exchange, the pass fails clean.
        s.retain_pages(&mut pool);
        let failed = exec.apply_residency(&mut s, &mut pool, l, &mut plan, &mut 0);
        assert_eq!(failed, Err(OutOfPagesError));
        assert_eq!(pool.residency(wanted), Residency::Cold);
        assert_eq!(s.stats().pages_demoted + s.stats().pages_promoted, 0);

        // Sole-owned again: one transfer each way, zero net hot pages.
        s.clone().release(&mut pool);
        exec.apply_residency(&mut s, &mut pool, l, &mut plan, &mut 0)
            .unwrap();
        assert!(pool.is_hot(wanted));
        assert_eq!(pool.in_use(), hot);
        assert_eq!((s.stats().pages_demoted, s.stats().pages_promoted), (1, 1));
        assert_eq!(s.stats().migrated_token_units, 16);
        assert_eq!(
            plan.fetch_units[kv], 8,
            "the promotion stalls its own shard"
        );
    }

    /// A hot tier with exactly the reserved pages free before every step —
    /// each promotion has to exchange — emits the logits of the
    /// always-resident run, bit for bit, under either migration engine and
    /// with or without a bounded host over an nvme tier.
    #[test]
    fn exchange_is_bit_identical_to_the_always_resident_run() {
        let w = wide_weights();
        let run = |tight: Option<(MigrationMode, TierConfig)>| {
            let cfg = exchange_cfg(tight.map(|_| 2));
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let (mode, tiers) = tight.unwrap_or_default();
            let mut pool =
                PagePool::new_with_tiers(cfg.paging, 4096, w.config.head_dim, mode, tiers);
            let tracer = Tracer::ring(1 << 16);
            pool.set_tracer(tracer.clone());
            let (mut s, mut next) = past_budget(&exec, &mut pool);
            let mut demoted = 0;
            if tight.is_some() {
                // Every other page starts cold, so selections keep finding some.
                for layer in &s.layers {
                    for h in (0..layer.num_heads()).filter(|&h| !layer.head(h).is_streaming()) {
                        for &id in layer
                            .head(h)
                            .as_dense()
                            .page_table()
                            .iter()
                            .skip(1)
                            .step_by(2)
                        {
                            demoted += u64::from(pool.demote(id).is_some());
                        }
                    }
                }
            }
            let mut fillers = Vec::new();
            let mut bits: Vec<Vec<u32>> = Vec::new();
            for _ in 0..40 {
                // Allocating lands in-flight demotions, which moves the
                // demand: settle on the fixed point.
                loop {
                    let need = exec.step_page_demand(&s, &pool);
                    if tight.is_some() && pool.free_pages() > need {
                        fillers.push(pool.allocate().unwrap());
                    } else if pool.free_pages() < need {
                        pool.free(fillers.pop().unwrap());
                    } else {
                        break;
                    }
                }
                let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
                next = greedy_next_token(&out.logits);
                bits.push(out.logits.iter().map(|x| x.to_bits()).collect());
            }
            let (events, _) = tracer.drain();
            let exchanges = events.iter().filter(|e| e.name == "exchange").count();
            // Sweeps and exchanges alike went through `add_migration`.
            assert_eq!(
                s.stats().pages_demoted + demoted,
                pool.tier_stats().pages_demoted
            );
            (bits, exchanges)
        };
        let (want, none) = run(None);
        assert_eq!(none, 0, "an always-resident run never exchanges");
        let bounded = TierConfig {
            host_pages: 6,
            nvme: true,
        };
        for mode in [MigrationMode::Sync, MigrationMode::Async] {
            for tiers in [TierConfig::default(), bounded] {
                let (got, exchanges) = run(Some((mode, tiers)));
                assert!(exchanges > 0, "{mode:?} {tiers:?}: nothing exchanged");
                assert_eq!(got, want, "{mode:?} {tiers:?}: logits diverged");
            }
        }
    }

    /// Rows, not tokens: feeding `n` tokens as one run leaves what feeding
    /// them through `n` one-token calls leaves — the last row's logits, every
    /// stored page, the work counters, and (four more decode steps) the
    /// selector state — to the bit, whether or not the history is past the
    /// budget, demotion is sweeping, transfers are in flight, or the run
    /// starts, ends or (a page-long run begun off the boundary) crosses a page.
    #[test]
    fn a_run_of_rows_is_its_tokens_fed_one_at_a_time() {
        const PAGE: usize = 8;
        let w = tiny_weights();
        let token = |t: usize| (t * 7 + 3) as u32 % 90;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        type Outcome = (Vec<Vec<u32>>, Vec<(usize, Vec<u32>, Vec<u32>)>, EngineStats);
        let feed = |cfg: &EngineConfig, mode, start: usize, n: usize, as_run: bool| -> Outcome {
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let tiers = TierConfig::default();
            let mut pool =
                PagePool::new_with_tiers(cfg.paging, 4096, w.config.head_dim, mode, tiers);
            let mut plan = ShardingPlan::new(
                Topology::from_env(),
                lserve_costmodel::PlacementPolicy::SparsityAware,
                w.config.num_layers,
                w.config.num_kv_heads,
            );
            let mut stats = ParallelExecStats::default();
            let mut s = exec.new_sequence();
            let prompt: Vec<u32> = (0..3 * PAGE).map(token).collect();
            exec.prefill(&mut s, &mut pool, &prompt).unwrap();
            let mut feed = |s: &mut SequenceState, pool: &mut PagePool, from: usize, to: usize| {
                let run: Vec<u32> = (from..to).map(token).collect();
                let need = exec.step_page_demand(s, pool);
                let mut batch = [(s, &run[..])];
                let mut out =
                    exec.decode_batch_reserved(pool, &mut batch, 1, &mut plan, &mut stats, need);
                bits(&out.pop().unwrap().unwrap().logits)
            };
            for t in 3 * PAGE..start {
                feed(&mut s, &mut pool, t, t + 1);
            }
            let mut logits = Vec::new();
            if as_run {
                logits.push(feed(&mut s, &mut pool, start, start + n));
            } else {
                for t in start..start + n {
                    logits = vec![feed(&mut s, &mut pool, t, t + 1)];
                }
            }
            if cfg.demote_after_chunks.is_some() {
                assert!(s.stats().pages_demoted > 0, "the sweep never demoted");
            }
            let pages = s.page_ids(&pool);
            let pages = pages.iter().map(|&id| pool.page(id));
            let pages = pages.map(|p| (p.len(), bits(p.key_lanes()), bits(p.value_rows())));
            let pages = pages.collect();
            let work = EngineStats {
                pages_demoted: 0,
                pages_promoted: 0,
                migrated_token_units: 0,
                unhidden_token_units: 0,
                ..s.stats()
            };
            for t in start + n..start + n + 4 {
                logits.push(feed(&mut s, &mut pool, t, t + 1));
            }
            (logits, pages, work)
        };
        for precision in [
            lserve_quant::KvPrecision::Fp16,
            lserve_quant::KvPrecision::Int4,
        ] {
            // History under the budget (no selection, so nothing to demote),
            // over it, and over it with the demotion sweep on.
            for (budget, demote) in [(1024, None), (16, None), (16, Some(1))] {
                let cfg = EngineConfig {
                    paging: lserve_kvcache::PagingConfig::new(PAGE, 4, precision),
                    dynamic_budget: Some(budget),
                    reuse_interval: 2,
                    demote_after_chunks: demote,
                    ..EngineConfig::lserve_fp16()
                };
                for mode in [MigrationMode::Sync, MigrationMode::Async] {
                    for n in [1, 3, PAGE - 1, PAGE] {
                        // Ending on a page boundary, and one short of it.
                        for end in [7 * PAGE, 7 * PAGE - 1] {
                            let run = feed(&cfg, mode, end - n, n, true);
                            let tokens = feed(&cfg, mode, end - n, n, false);
                            let case =
                                format!("{precision:?} {budget} {demote:?} {mode:?} {n} {end}");
                            assert_eq!(run.0, tokens.0, "{case}: logits");
                            assert!(run.1 == tokens.1, "{case}: page contents");
                            assert_eq!(run.2, tokens.2, "{case}: work counters");
                            if demote.is_some() {
                                assert!(run.2.selector_invocations > 0, "{case}: never selected");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn page_demand_reservation_is_exact() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 512);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        exec.prefill(&mut s, &mut pool, &[1, 2, 3, 4, 5]).unwrap();
        let mut next = 7u32;
        for _ in 0..80 {
            let need = s.pages_needed_for_next_token(&pool);
            let before = pool.in_use();
            let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
            // Streaming heads may free a page after allocating, so actual growth is
            // at most the predicted transient demand.
            assert!(
                pool.in_use() <= before + need,
                "grew {} but predicted {}",
                pool.in_use() - before,
                need
            );
            next = greedy_next_token(&out.logits);
        }
    }

    #[test]
    fn batch_failure_isolated_to_one_sequence() {
        let cfg = EngineConfig::dense();
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        // Both sequences start on one page per head (2 * lh pages). At the first
        // 64-token page boundary each wants `lh` more; capacity 3*lh + 2 lets the
        // first sequence allocate all of its pages and strands the second partway.
        let m = &w.config;
        let lh = m.num_layers * m.num_kv_heads;
        let mut pool = lserve_kvcache::PagePool::new(cfg.paging, 3 * lh + 2, m.head_dim);
        let mut a = exec.new_sequence();
        let mut b = exec.new_sequence();
        exec.prefill(&mut a, &mut pool, &[1, 2, 3, 4]).unwrap();
        exec.prefill(&mut b, &mut pool, &[5, 6, 7, 8]).unwrap();
        let mut results = Vec::new();
        for step in 0..200 {
            let mut batch: Vec<(&mut SequenceState, u32)> =
                vec![(&mut a, step as u32 % 90), (&mut b, (step + 1) as u32 % 90)];
            let out = exec.decode_batch(&mut pool, &mut batch);
            if out.iter().any(|r| r.is_err()) {
                results = out;
                break;
            }
        }
        assert!(!results.is_empty(), "pool should exhaust");
        // Exactly the failing sequence errored; at least one other succeeded.
        assert!(results.iter().any(|r| r.is_ok()));
        a.release(&mut pool);
        b.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }
}
