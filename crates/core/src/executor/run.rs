//! The row-feeding body every token goes through after a sequence's fused
//! first chunk ([`ModelExecutor::decode_batch_reserved`]), its one-token
//! wrappers, and the sharded attention phase: its shards' cost estimate,
//! their placement ([`ShardTable`]) and the phase's trace.

use lserve_attention::{
    placed_queues, run_decode_shard, run_placed, DecodeShard, DecodeStats, PlacedBalance,
};
use lserve_costmodel::{PlacementPolicy, Topology, DEFAULT_GATHER_COST_TOKENS};
use lserve_kvcache::{HeadCache, MigrationMode, PagePool, HOST_TRANSFER_SPEEDUP};
use lserve_model::forward::{ffn_block, logits, post_attention, pre_attention};
use lserve_tensor::Matrix;
use lserve_trace::{lane, Tracer, CONTROL_TID};

use super::residency::RowPlan;
use super::{DecodeOutput, ModelExecutor, OutOfPagesError, SequenceState};
use crate::sharding::ShardingPlan;
use crate::stats::ParallelExecStats;

impl ModelExecutor {
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
        let mut plan = self.transient_plan();
        let mut stats = ParallelExecStats::default();
        let threads = self.default_threads;
        let mut out =
            self.decode_batch_sharded(pool, &mut [(state, token)], threads, &mut plan, &mut stats);
        out.pop().expect("one result per input sequence")
    }

    /// A fresh plan over the construction-time `LSERVE_DEVICES` mesh. Callers
    /// that need placement to persist across steps — the scheduler, whose
    /// rebalancer tracks load history — hold their own plan.
    fn transient_plan(&self) -> ShardingPlan {
        let model = &self.weights.config;
        ShardingPlan::new(
            Topology::symmetric(self.default_devices, DEFAULT_GATHER_COST_TOKENS),
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
    /// Returns one result per sequence, in input order. A sequence that runs out of
    /// pages mid-step gets `Err(OutOfPagesError)` and is left partially written
    /// (release/replay it); the other sequences are unaffected. `exec_stats`
    /// accumulates one [`ParallelExecStats`] phase per layer and token:
    /// measured worker busy time (utilization/imbalance) plus the
    /// deterministic cost-model critical path (modeled speedup).
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
        let mut table = ShardTable::new(batch.len(), plan.devices(), model.num_kv_heads);
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
                table.clear();
                {
                    let pool_ref: &PagePool = pool;
                    let scale = self.attn_cfg.scale();
                    let mut shards: Vec<DecodeShard<'_>> = Vec::new();
                    for (i, ((state, _), fed)) in batch.iter().zip(&plans).enumerate() {
                        let Some(row) = fed.row else { continue };
                        let q = acts.q.row(row);
                        let cache = &state.layers[l];
                        let out = std::mem::take(&mut attn_rows[row]);
                        for (kv, out_chunk) in out.chunks_mut(group * d).enumerate() {
                            let selection = fed.selections[kv].as_deref();
                            let cost = decode_shard_cost(
                                pool_ref,
                                cache.head(kv),
                                selection,
                                fed.hints[kv],
                                fed.fetch_units[kv],
                                group,
                            );
                            table.push(i, kv, cost);
                            shards.push(DecodeShard {
                                head: cache.head(kv),
                                queries: &q[kv * group * d..(kv + 1) * group * d],
                                selection,
                                head_dim: d,
                                scale,
                                out: out_chunk,
                                stats: DecodeStats::default(),
                            });
                        }
                    }
                    let gather_tokens = table.place(plan, l);
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
                // Work counters attributed per sequence in shard-construction
                // order, so stats stay deterministic too.
                for ((&i, &kv), &stats) in table.seq.iter().zip(&table.kv).zip(&table.stats) {
                    let state = &mut *batch[i].0;
                    let streaming = state.layers[l].head(kv).is_streaming();
                    state.stats.add_decode(streaming, stats);
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

/// One round's shards as parallel arrays, in construction order (batch order,
/// then KV head), plus the scratch their placement needs: allocated once per
/// call beside the [`RowPlan`]s and refilled every round.
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
    /// This round's cost per KV head: the signal placement acts on.
    head_costs: Vec<u64>,
    /// This round's cost per `(batch entry, device)`, entry-major.
    seq_loads: Vec<u64>,
}

impl ShardTable {
    fn new(entries: usize, devices: usize, kv_heads: usize) -> Self {
        Self {
            seq: Vec::new(),
            kv: Vec::new(),
            cost: Vec::new(),
            device: Vec::new(),
            stats: Vec::new(),
            head_costs: vec![0; kv_heads],
            seq_loads: vec![0; entries * devices],
        }
    }

    fn clear(&mut self) {
        self.seq.clear();
        self.kv.clear();
        self.cost.clear();
        self.device.clear();
        self.stats.clear();
        self.head_costs.fill(0);
        self.seq_loads.fill(0);
    }

    fn push(&mut self, seq: usize, kv: usize, cost: u64) {
        self.seq.push(seq);
        self.kv.push(kv);
        self.cost.push(cost);
        self.head_costs[kv] += cost;
    }

    /// Places every shard on its KV head's device under layer `l`'s
    /// assignment — seeded from, and accumulating, this round's per-head
    /// costs: exactly what the worker-level LPT balances — and charges the
    /// cross-device gathers; returns the charge.
    ///
    /// A sequence's home device is where the plurality of its shard cost
    /// lives (ties to the lower device id): its other shards' outputs must
    /// cross the mesh before the serial output projection, and each such
    /// gather costs the topology's modeled interconnect tokens — onto the
    /// shard (the gather delays it) and into the interconnect ledger. On one
    /// device every shard is at home.
    fn place(&mut self, plan: &mut ShardingPlan, l: usize) -> u64 {
        let devices = plan.devices();
        let gather = plan.topology().gather_cost_tokens();
        let assign = plan.layer_assignment(l, &self.head_costs);
        for s in 0..self.cost.len() {
            let dev = assign[self.kv[s]];
            self.device.push(dev);
            self.seq_loads[self.seq[s] * devices + dev] += self.cost[s];
        }
        let mut gather_tokens = 0;
        for s in 0..self.cost.len() {
            let loads = &self.seq_loads[self.seq[s] * devices..][..devices];
            let home = (0..devices)
                .max_by_key(|&dev| (loads[dev], std::cmp::Reverse(dev)))
                .expect("devices > 0");
            if self.device[s] != home {
                self.cost[s] += gather;
                gather_tokens += gather;
            }
        }
        gather_tokens
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
        let (threads, mut plan) = (exec.default_threads, exec.transient_plan());
        let mut stats = ParallelExecStats::default();
        for _ in 0..6 {
            let mut batch: Vec<(&mut SequenceState, u32)> = b_states
                .iter_mut()
                .zip(pending.iter())
                .map(|(s, &t)| (s, t))
                .collect();
            let outs =
                exec.decode_batch_sharded(&mut pool_b, &mut batch, threads, &mut plan, &mut stats);
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
            let pages = s.page_ids().map(|id| pool.page(id));
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
        let (threads, mut plan) = (exec.default_threads, exec.transient_plan());
        let mut stats = ParallelExecStats::default();
        for step in 0..200 {
            let mut batch: Vec<(&mut SequenceState, u32)> =
                vec![(&mut a, step as u32 % 90), (&mut b, (step + 1) as u32 % 90)];
            let out =
                exec.decode_batch_sharded(&mut pool, &mut batch, threads, &mut plan, &mut stats);
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
