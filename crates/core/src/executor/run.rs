//! The row-feeding body every token goes through after a sequence's fused
//! first chunk ([`ModelExecutor::decode_batch_reserved`]), its one-token
//! wrappers, and the sharded attention phase: its shards' cost estimate,
//! the [`ShardTable`] the plan places them from
//! ([`ShardingPlan::place`]) and the phase's trace.

use lserve_attention::{
    placed_queues, run_decode_shard, run_placed, DecodeShard, DecodeStats, PlacedBalance,
};
use lserve_kvcache::{
    append_token, DenseHeadCache, MigrationMode, PagePool, HOST_TRANSFER_SPEEDUP,
};
use lserve_model::forward::{ffn_block, logits, post_attention, pre_attention};
use lserve_tensor::Matrix;
use lserve_trace::{lane, Tracer, CONTROL_TID};

use super::residency::RowPlan;
use super::{DecodeOutput, ModelExecutor, OutOfPagesError, SequenceState};
use crate::sharding::{PlacementPolicy, ShardingPlan, Topology};
use crate::stats::ParallelExecStats;

impl ModelExecutor {
    /// Runs one decode step for one sequence, on one worker thread and one
    /// device: absorbs `token`, returns next-token logits.
    ///
    /// Dense heads go through dynamic page selection (when configured) and the
    /// fused decode kernel; streaming heads attend their sink+local pages.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`], with nothing written, when the pool's
    /// free pages are fewer than the step's
    /// [`ModelExecutor::step_page_demand`].
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
        let mut plan = self.transient_plan();
        let mut stats = ParallelExecStats::default();
        let mut out =
            self.decode_batch_sharded(pool, &mut [(state, token)], 1, &mut plan, &mut stats);
        out.pop().expect("one result per input sequence")
    }

    /// A fresh plan over one device. Callers that need placement to persist
    /// across steps — the scheduler, whose rebalancer tracks load history —
    /// hold their own plan.
    fn transient_plan(&self) -> ShardingPlan {
        let model = &self.weights.config;
        ShardingPlan::new(
            Topology::symmetric(1, 0),
            PlacementPolicy::SparsityAware,
            model.num_layers,
            model.num_kv_heads,
        )
    }

    /// Batched decode: one token for every sequence in `batch`, walking **layers in
    /// the outer loop** with the batch's tokens stacked as the rows of one
    /// matrix, so each layer's weights are read once for the whole batch
    /// (iteration-level batching, the memory-access pattern real batched
    /// decode kernels use). Every layer runs in three phases:
    ///
    /// 1. **Stacked projections, serial writeback**: QKV + RoPE for every row
    ///    at once, then per sequence, in batch order, the KV append into the
    ///    paged cache (the only pool mutation) and dynamic page selection.
    /// 2. **Parallel attention**: one shard per *(sequence × KV-head)*, each
    ///    costed by the sparsity-aware estimate (streaming ≈ resident window,
    ///    selected dense ≈ the selector's page set, unselected dense ≈ full
    ///    history) and placed by the caller-owned [`ShardingPlan`] on its KV
    ///    head's simulated device — one device is a placement like any
    ///    other. A sequence's shards on non-home devices charge the
    ///    topology's modeled interconnect gather cost into `exec_stats` and
    ///    the trace, and the plan accumulates the per-head cost signal its
    ///    rebalancer acts on. Then one pool ([`run_placed`]): per-device LPT
    ///    queues over up to `threads` scoped workers each, device-local
    ///    work-stealing for stragglers — or, with one worker in total, the
    ///    in-order loop on this thread that every schedule must match.
    ///    Every shard writes only its own preallocated output slice — no
    ///    locks on the hot path.
    /// 3. **Stacked reduction**: output projection and FFN over every row
    ///    (a GEMM row's value does not depend on its neighbours).
    ///
    /// Each sequence's computation is independent, shards read only shared
    /// immutable state and own disjoint outputs, and the serial phase runs in
    /// fixed batch order, so outputs are bit-identical to calling
    /// [`ModelExecutor::decode_step`] per sequence in any order, for every
    /// thread count, topology and placement policy — devices are simulated,
    /// so placement moves modeled cost, never arithmetic. That is the
    /// property the scheduler's determinism guarantee, `tests/proptest_*.rs`
    /// and the golden suite rest on.
    ///
    /// Returns one result per sequence, in input order. Before anything is
    /// written, each sequence's [`ModelExecutor::step_page_demand`] is
    /// reserved in batch order: one whose demand no longer fits in the free
    /// pages gets `Err(OutOfPagesError)` and is left untouched, and the
    /// others step as if it were not in the batch. `exec_stats` accumulates
    /// one [`ParallelExecStats`] phase per layer and token: measured worker
    /// busy time (utilization/imbalance) plus the deterministic cost-model
    /// critical path (modeled speedup).
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
        // In batch order, each sequence whose demand still fits is reserved
        // for; the others are left as they are.
        let mut reserved = 0;
        let fits: Vec<bool> = batch
            .iter()
            .map(|(state, _)| {
                let need = self.step_page_demand(state, pool);
                let fits = reserved + need <= pool.free_pages();
                reserved += if fits { need } else { 0 };
                fits
            })
            .collect();
        let mut runs: Vec<Run<'_>> = batch
            .iter_mut()
            .zip(&fits)
            .filter(|(_, &fits)| fits)
            .map(|((state, token), _)| (&mut **state, std::slice::from_ref(&*token)))
            .collect();
        let out = self.decode_batch_reserved(pool, &mut runs, threads, plan, exec_stats, reserved);
        let mut out = out.into_iter().map(Ok);
        let result = |fits| match fits {
            true => out.next().expect("one output per reserved sequence"),
            false => Err(OutOfPagesError),
        };
        fits.into_iter().map(result).collect()
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
    /// **Run folding.** A row's attention is arithmetic the pool never sees,
    /// so it may wait: while the next row of the same run will read the same
    /// pages ([`ModelExecutor::next_row_reads_the_same_pages`] — every row
    /// under the budget, the rows of one reuse chunk above it), the row's
    /// shard only counts its work, and the row that ends the wait — one
    /// whose successor rescores or allocates a page, or the run's last —
    /// folds each page once for all the waiting rows, the tail page under a
    /// causal mask. Each row still folds exactly its keys in the same order,
    /// so the bits are the per-row ones; the serial phase, the shards'
    /// costs, placement, stats and trace stay per round.
    ///
    /// What does see the order is the pool: free slots, the copy engine's
    /// in-flight set (drained once per call, by `rows` tokens of compute) and
    /// `reserved` are shared by all layers, so *which* promotions exchange
    /// and which transfers are still in flight — ledger entries, never data —
    /// can differ from a token-by-token feed.
    ///
    /// `reserved` is the sum of the entries' [`ModelExecutor::step_page_demand`],
    /// just checked against the pool by the caller: the free hot slots the
    /// runs' first tokens still need for their appends and unexchangeable
    /// promotions. Exchangeable promotions and prefetches leave them alone.
    /// That covers a run that stays inside one physical page: its later
    /// tokens append without allocating, so its demand is its first token's.
    /// (A run that crosses a page computes the same bits; it is only not
    /// reserved for.) A debug build asserts that no draw the demand counted
    /// exceeds what is left of `reserved`, so a demand that falls short
    /// fails at its own step.
    ///
    /// Returns, per entry, the logits after its run's last token.
    ///
    /// # Panics
    ///
    /// Panics if the pool runs out of pages: the caller reserved less than
    /// the runs take.
    pub(crate) fn decode_batch_reserved(
        &self,
        pool: &mut PagePool,
        batch: &mut [Run<'_>],
        threads: usize,
        plan: &mut ShardingPlan,
        exec_stats: &mut ParallelExecStats,
        mut reserved: usize,
    ) -> Vec<DecodeOutput> {
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
        let mut plans: Vec<RowPlan> = batch.iter().map(|_| RowPlan::default()).collect();
        let mut table = ShardTable::default();
        let tracer = pool.tracer().clone();
        // Token-wide speculative-transfer allowance per row, spent by
        // issue_prefetches across all layers (async migration only).
        let mut prefetch_budget: Vec<usize> = vec![Self::PREFETCH_PER_SEQ; rows];
        // Per entry: rows of its run whose attention waits for a later row
        // that reads the same pages, and whether this round's row folds them.
        let mut deferred = vec![0usize; batch.len()];
        let mut flush = vec![false; batch.len()];
        // This round's shards' query rows and outputs, gathered per shard.
        let (mut queries, mut outs) = (Vec::new(), Vec::new());
        for (l, lw) in self.weights.layers.iter().enumerate() {
            let acts = pre_attention(model, lw, &x, &angles);
            let mut attn = Matrix::zeros(rows, width);
            deferred.fill(0);
            for r in 0..rounds {
                // Phase 1 (serial, batch order): KV writeback, dynamic page
                // selection, residency.
                let serial_start = tracer.now();
                for (i, (state, run)) in batch.iter_mut().enumerate() {
                    plans[i].row = None;
                    if r >= run.len() {
                        continue;
                    }
                    let row = first[i] + r;
                    let heads = &mut state.layers[l];
                    let appended = heads
                        .iter()
                        .filter(|h| h.needs_page_for_next_append(pool))
                        .count();
                    let fits = append_token(heads, pool, acts.k.row(row), acts.v.row(row));
                    assert!(fits, "an append's pages are reserved");
                    // The demand counted a run's first row; a later row
                    // allocates only in a run that crosses a page.
                    debug_assert!(r > 0 || appended <= reserved, "reservation overdrawn");
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
                    self.apply_residency(state, pool, l, &mut plans[i], &mut reserved);
                    plans[i].row = Some(row);
                    // Run folding: the row's attention waits while the next
                    // row of its run reads the same pages, and the row that
                    // ends the wait folds each page once for all of them.
                    // The pool sees the serial phase in round order either
                    // way, and the work is costed and counted per round.
                    flush[i] = r + 1 == run.len()
                        || !self.next_row_reads_the_same_pages(state, pool, l, &plans[i], at);
                    // Overlap window: promotions issued above ride the rest of
                    // this call's compute; prefetches below start a step early.
                    if pool.migration_mode() == MigrationMode::Async {
                        let budget = &mut prefetch_budget[row];
                        self.issue_prefetches(state, pool, l, at.1, budget, reserved);
                    }
                }
                // The serial phase costs one clock tick per row this round.
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
                // Phase 2 (parallel): sharded attention, one shard per
                // (sequence × KV-head), each into its own gathered slice.
                table.clear();
                queries.clear();
                for (i, fed) in plans.iter().enumerate() {
                    let Some(row) = fed.row else { continue };
                    let folded = if flush[i] {
                        row - deferred[i]..row + 1
                    } else {
                        0..0
                    };
                    for kv in 0..model.num_kv_heads {
                        for row in folded.clone() {
                            queries
                                .extend_from_slice(&acts.q.row(row)[kv * group * d..][..group * d]);
                        }
                    }
                }
                outs.clear();
                outs.resize(queries.len(), 0.0);
                {
                    let pool_ref: &PagePool = pool;
                    let scale = self.attn_cfg.scale();
                    let (mut q_left, mut out_left) = (&queries[..], &mut outs[..]);
                    let mut shards: Vec<DecodeShard<'_>> = Vec::new();
                    for (i, ((state, _), fed)) in batch.iter().zip(&plans).enumerate() {
                        if fed.row.is_none() {
                            continue;
                        }
                        let folded = if flush[i] { deferred[i] + 1 } else { 0 };
                        for (kv, head) in state.layers[l].iter().enumerate() {
                            let selection = fed.selections[kv].as_deref();
                            let cost = decode_shard_cost(
                                pool_ref,
                                head,
                                selection,
                                fed.fetch_units[kv],
                                group,
                            );
                            table.push(i, kv, cost);
                            let (q, rest) = q_left.split_at(folded * group * d);
                            let (out, out_rest) =
                                std::mem::take(&mut out_left).split_at_mut(q.len());
                            (q_left, out_left) = (rest, out_rest);
                            shards.push(DecodeShard {
                                head,
                                queries: q,
                                group,
                                selection,
                                head_dim: d,
                                scale,
                                out,
                                stats: DecodeStats::default(),
                            });
                        }
                    }
                    let gather_tokens =
                        plan.place(l, &table.seq, &table.kv, &mut table.cost, &mut table.device);
                    let placed = run_placed(
                        threads,
                        plan.devices(),
                        &table.device,
                        &table.cost,
                        &mut shards,
                        |shard| run_decode_shard(pool_ref, shard),
                    );
                    exec_stats.absorb(&placed, gather_tokens);
                    let charged = exec_stats.interconnect_tokens;
                    table.trace(&tracer, par_start, l, threads, &placed, charged);
                    table.stats.extend(shards.iter().map(|s| s.stats));
                }
                // Scatter the folded rows' outputs back, in gather order.
                let mut out_rows = outs.chunks_exact(group * d);
                for (i, fed) in plans.iter().enumerate() {
                    let Some(row) = fed.row else { continue };
                    if !flush[i] {
                        deferred[i] += 1;
                        continue;
                    }
                    for kv in 0..model.num_kv_heads {
                        for row in row - deferred[i]..=row {
                            let out = out_rows.next().expect("one output per gathered row");
                            attn.row_mut(row)[kv * group * d..][..group * d].copy_from_slice(out);
                        }
                    }
                    deferred[i] = 0;
                }
                // Work counters attributed per sequence in shard-construction
                // order, so stats stay deterministic too.
                for ((&i, &kv), &stats) in table.seq.iter().zip(&table.kv).zip(&table.stats) {
                    let state = &mut *batch[i].0;
                    state.stats.add_decode(&state.layers[l][kv], stats);
                }
            }
            // Phase 3 (stacked): output projection + FFN over every row.
            post_attention(lw, &mut x, &attn);
            ffn_block(lw, &mut x);
        }
        // A token of compute hides a token of host-link bandwidth: each fed
        // row buys `HOST_TRANSFER_SPEEDUP` token-units of transfer drain, the
        // exact inverse of `transfer_cost_tokens`. A transfer fully drained by
        // these advances cost the call nothing — that is the overlap the async
        // engine models. (Nothing is in flight in sync mode.)
        pool.advance_transfer_units(rows as u64 * HOST_TRANSFER_SPEEDUP);
        // Logits of each run's last row, one stacked GEMM.
        let mut last = Vec::new();
        for i in 0..batch.len() {
            last.extend_from_slice(x.row(first[i + 1] - 1));
        }
        let last = Matrix::from_vec(batch.len(), model.hidden, last);
        let out = logits(&self.weights, &last);
        batch
            .iter_mut()
            .enumerate()
            .map(|(i, (state, run))| {
                state.tokens_processed += run.len();
                state.decode_step_idx += run.len();
                state.stats.decode_steps += run.len() as u64;
                DecodeOutput {
                    logits: out.row(i).to_vec(),
                }
            })
            .collect()
    }
}

/// One entry of a step's batch: a sequence and the run of consecutive tokens
/// it absorbs, which the scheduler keeps inside one physical KV page so that
/// the reservation covers it (see [`ModelExecutor::decode_batch_reserved`]).
pub(crate) type Run<'a> = (&'a mut SequenceState, &'a [u32]);

/// One round's shards as parallel arrays, in construction order (batch order,
/// then KV head): allocated once per call beside the [`RowPlan`]s and
/// refilled every round.
#[derive(Default)]
struct ShardTable {
    /// Batch entry of each shard.
    seq: Vec<usize>,
    /// KV head of each shard.
    kv: Vec<usize>,
    /// [`decode_shard_cost`] of each shard; once placed, plus its gather charge.
    cost: Vec<u64>,
    /// Simulated device of each shard, once placed.
    device: Vec<usize>,
    /// Work counters of each shard, once run.
    stats: Vec<DecodeStats>,
}

impl ShardTable {
    fn clear(&mut self) {
        self.seq.clear();
        self.kv.clear();
        self.cost.clear();
        self.device.clear();
        self.stats.clear();
    }

    fn push(&mut self, seq: usize, kv: usize, cost: u64) {
        self.seq.push(seq);
        self.kv.push(kv);
        self.cost.push(cost);
    }

    /// Emits one decode layer's parallel-phase trace: advances the
    /// work-token clock by the phase's modeled critical path, closes the
    /// `decode.attention` span, and lays per-shard spans on the worker lanes
    /// (`tid = device * DEVICE_TID_STRIDE + worker`; device 0's tids are the
    /// single-device layout). A mesh also names its size and emits the
    /// cumulative cross-device gather charge as an `interconnect` counter.
    ///
    /// The worker lanes show the *modeled schedule* — the [`placed_queues`]
    /// [`run_placed`] was handed, over the same deterministic costs — not the
    /// measured execution (work stealing may move a straggler shard at
    /// runtime, and a lone worker runs in task order). That is the right
    /// chart for imbalance analysis: it is bit-reproducible, and the
    /// per-shard `cost` args are exactly the sparsity-aware estimates the
    /// balancer acted on.
    fn trace(
        &self,
        tracer: &Tracer,
        par_start: u64,
        l: usize,
        threads: usize,
        placed: &PlacedBalance,
        interconnect_total: u64,
    ) {
        if !tracer.is_enabled() {
            return;
        }
        let mesh = placed.devices > 1;
        tracer.advance(placed.cost_critical());
        let mut args = vec![("layer", l as u64), ("shards", placed.shards)];
        args.extend(mesh.then_some(("devices", placed.devices as u64)));
        tracer.span(
            "decode.attention",
            "executor",
            lane::EXECUTOR,
            CONTROL_TID,
            par_start,
            &args,
        );
        let queues = placed_queues(threads, placed.devices, &self.device, &self.cost);
        for (dev, workers) in queues.iter().enumerate() {
            for (w, queue) in workers.iter().enumerate() {
                let mut cursor = par_start;
                for &s in queue {
                    tracer.span_at(
                        "shard",
                        "attention",
                        lane::WORKERS,
                        lane::device_worker_tid(dev, w),
                        cursor,
                        self.cost[s],
                        &[("seq", self.seq[s] as u64), ("cost", self.cost[s])],
                    );
                    cursor += self.cost[s];
                }
            }
        }
        // After the shard spans: the counter's tid-0 timestamp (the advanced
        // clock) must not precede device 0's span closes within the lane.
        if mesh {
            tracer.counter(
                "interconnect",
                lane::WORKERS,
                &[("tokens", interconnect_total)],
            );
        }
    }
}

/// Sparsity-aware cost estimate of one *(sequence × KV-head)* decode shard, in
/// visited KV tokens times query heads served (the work the kernel actually
/// does):
///
/// * selected head → the tokens of its selected pages: every page but the
///   table's final one is full, so that is exact (a page's length is
///   metadata, readable on every tier);
/// * unselected head → the tokens its table holds: a dense head's full
///   history, a streaming head's window (constant-bounded);
/// * plus the modeled host-link fetch cost of any cold pages the residency
///   pass just promoted for this shard — a shard whose pages crossed the host
///   link is genuinely slower this step, and the LPT balancer should know.
fn decode_shard_cost(
    pool: &PagePool,
    head: &DenseHeadCache,
    selection: Option<&[usize]>,
    fetch_units: u64,
    group: usize,
) -> u64 {
    let tokens = match selection {
        Some(pages) => {
            let table = head.page_table();
            pages.iter().map(|&p| pool.page(table[p]).len()).sum()
        }
        None => head.resident_tokens(pool),
    };
    (tokens as u64 * group as u64).max(1) + lserve_kvcache::transfer_cost_tokens(fetch_units)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lserve_kvcache::TierConfig;
    use lserve_model::{greedy_next_token, ModelConfig, ModelWeights};

    use super::*;
    use crate::{EngineConfig, EngineStats};

    fn tiny_weights() -> Arc<ModelWeights> {
        Arc::new(ModelWeights::random(&ModelConfig::tiny(), 42))
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

        // Batched: all three advanced one token per `decode_batch_sharded` call.
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
        let mut plan = exec.transient_plan();
        let mut stats = ParallelExecStats::default();
        for _ in 0..6 {
            let mut batch: Vec<(&mut SequenceState, u32)> = b_states
                .iter_mut()
                .zip(pending.iter())
                .map(|(s, &t)| (s, t))
                .collect();
            let outs = exec.decode_batch_sharded(&mut pool_b, &mut batch, 1, &mut plan, &mut stats);
            for (i, out) in outs.into_iter().enumerate() {
                let next = greedy_next_token(&out.unwrap().logits);
                pending[i] = next;
                b_tokens[i].push(next);
            }
        }
        assert_eq!(seq_tokens, b_tokens);
    }

    /// The tentpole invariant at the executor level: for every thread count,
    /// `decode_batch_sharded` emits bit-identical logits to the serial path —
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
            let mut plan = exec.transient_plan();
            for _ in 0..24 {
                let mut batch: Vec<(&mut SequenceState, u32)> = states
                    .iter_mut()
                    .zip(pending.iter())
                    .map(|(s, &t)| (s, t))
                    .collect();
                let outs = exec.decode_batch_sharded(
                    &mut pool,
                    &mut batch,
                    threads,
                    &mut plan,
                    &mut exec_stats,
                );
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
            for (kv, head) in layer.iter().enumerate() {
                match head.window() {
                    None => dense = Some(kv),
                    Some(_) => stream = Some(kv),
                }
            }
            (dense.expect("mixed layer"), stream.expect("mixed layer"))
        };
        let full = decode_shard_cost(&pool, &layer[dense_kv], None, 0, 2);
        let selected = decode_shard_cost(&pool, &layer[dense_kv], Some(&[0, 1]), 0, 2);
        let streaming = decode_shard_cost(&pool, &layer[stream_kv], None, 0, 2);
        assert!(
            full > selected && full > streaming,
            "full {full}, selected {selected}, streaming {streaming}"
        );
        assert_eq!(full, 200 * 2, "unselected dense head costed by history");
        assert_eq!(selected, 128 * 2, "selected head costed by its pages");
        // The final page holds 200 - 3 * 64 = 8 tokens: costed by its
        // occupancy, not a full page.
        let np = pool.config().physical_page_size();
        assert_eq!(np, 64);
        let last = decode_shard_cost(&pool, &layer[dense_kv], Some(&[0, 3]), 0, 2);
        assert_eq!(last, (64 + 8) * 2, "a partial final page costs its tokens");
        // Streaming heads are window-bounded no matter how long the context.
        let window = exec.config().streaming_window;
        assert!(streaming <= (window.max_pages() * np * 2) as u64);
        // A shard whose pages just crossed the host link costs strictly more.
        let fetched = decode_shard_cost(&pool, &layer[dense_kv], Some(&[0, 1]), 256, 2);
        assert!(fetched > selected, "fetch cost must surface in the shard");
        s.release(&mut pool);
    }

    /// Rows, not tokens: feeding `n` tokens as one run leaves what feeding
    /// them through `n` one-token calls leaves — the last row's logits, every
    /// stored page, the work counters, and (four more decode steps) the
    /// selector state — to the bit, whether or not the history is past the
    /// budget (so demotion sweeping), transfers are in flight, or the run
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
            let mut plan = exec.transient_plan();
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
                bits(&out.pop().unwrap().logits)
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
            if cfg.dynamic_budget.is_some_and(|budget| budget < start) {
                assert!(s.stats().pages_demoted > 0, "the sweep never demoted");
            }
            // Every stored row, read element by element on whatever tier.
            let pages = s.page_ids().map(|id| pool.page(id));
            let pages = pages.map(|p| {
                let keys = (0..p.len()).flat_map(|t| bits(&p.key_row(t)));
                let values = (0..p.len()).flat_map(|t| bits(&p.value_row(t)));
                (p.len(), keys.collect(), values.collect())
            });
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
            // and over it, the demotion sweep running.
            for budget in [1024, 16] {
                let cfg = EngineConfig {
                    paging: lserve_kvcache::PagingConfig::new(PAGE, 4, precision),
                    dynamic_budget: Some(budget),
                    reuse_interval: 2,
                    ..EngineConfig::lserve_fp16()
                };
                for mode in [MigrationMode::Sync, MigrationMode::Async] {
                    for n in [1, 3, PAGE - 1, PAGE] {
                        // Ending on a page boundary, and one short of it.
                        for end in [7 * PAGE, 7 * PAGE - 1] {
                            let run = feed(&cfg, mode, end - n, n, true);
                            let tokens = feed(&cfg, mode, end - n, n, false);
                            let case = format!("{precision:?} {budget} {mode:?} {n} {end}");
                            assert_eq!(run.0, tokens.0, "{case}: logits");
                            assert!(run.1 == tokens.1, "{case}: page contents");
                            assert_eq!(run.2, tokens.2, "{case}: work counters");
                            if budget < end {
                                assert!(run.2.selector_invocations > 0, "{case}: never selected");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_failure_isolated_to_one_sequence() {
        let cfg = EngineConfig::dense();
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        // Both sequences start on one page per head (2 * lh pages). At the first
        // 64-token page boundary each wants `lh` more; capacity 3*lh + 2 holds
        // the first sequence's pages and leaves the second short.
        let m = &w.config;
        let lh = m.num_layers * m.num_kv_heads;
        let mut pool = lserve_kvcache::PagePool::new(cfg.paging, 3 * lh + 2, m.head_dim);
        let mut a = exec.new_sequence();
        let mut b = exec.new_sequence();
        exec.prefill(&mut a, &mut pool, &[1, 2, 3, 4]).unwrap();
        exec.prefill(&mut b, &mut pool, &[5, 6, 7, 8]).unwrap();
        let mut results = Vec::new();
        let mut plan = exec.transient_plan();
        let mut stats = ParallelExecStats::default();
        for step in 0..200 {
            let mut batch: Vec<(&mut SequenceState, u32)> =
                vec![(&mut a, step as u32 % 90), (&mut b, (step + 1) as u32 % 90)];
            let out = exec.decode_batch_sharded(&mut pool, &mut batch, 1, &mut plan, &mut stats);
            if out.iter().any(|r| r.is_err()) {
                results = out;
                break;
            }
        }
        assert!(!results.is_empty(), "pool should exhaust");
        // Exactly the failing sequence errored, before writing anything; at
        // least one other succeeded.
        assert!(results.iter().any(|r| r.is_ok()));
        assert_eq!(a.context_len(), b.context_len() + 1);
        a.release(&mut pool);
        b.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }
}
