//! The pinned surface below the scheduler: every call `perf` makes into a
//! crate other than through `Scheduler` lives in this file, so an API change
//! that breaks the benchmark breaks it here and nowhere else. The README
//! lists the functions.
//!
//! Two halves: building the fixed system under test, and the per-layer
//! probes — timed direct calls on inputs with the workloads' geometry.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lserve_attention::{
    decode_dense_head, decode_streaming_head, prefill_attention, DensePattern, StreamingPattern,
};
use lserve_core::{
    sequence_pages_estimate, EngineConfig, ModelExecutor, ParallelExecStats, PlacementPolicy,
    SequenceState, ShardingPlan, Topology,
};
use lserve_kvcache::{
    DenseHeadCache, MigrationMode, PageId, PagePool, PagingConfig, StreamingHeadCache,
    StreamingWindow, TierConfig,
};
use lserve_model::{ModelConfig, ModelWeights};
use lserve_quant::{KvPrecision, QuantizedTensor};
use lserve_selector::{HierarchicalSelector, PageSelector, ReusableSelector};
use lserve_tensor::{ops::dot, SeededGaussian};
use lserve_trace::{lane, Tracer};
use lserve_workloads::{overcommit_workload, NiahCase, NiahConfig, OvercommitConfig};

use crate::gen::{Rng, Scale};
use crate::spans::Recorder;

pub const VOCAB: usize = 97;
const HEAD_DIM: usize = 32;
const WEIGHT_SEED: u64 = 6;
/// The paper's 4096-of-64K+ selection budget, scaled to CPU-sized contexts.
const DYNAMIC_BUDGET: usize = 1024;

/// Model `bench-2l`: small enough that a 4096-token prefill takes seconds on
/// one core, large enough that GEMMs and attention both show.
fn bench_model() -> ModelConfig {
    ModelConfig {
        name: "bench-2l".into(),
        num_layers: 2,
        hidden: 128,
        num_q_heads: 8,
        num_kv_heads: 4,
        head_dim: HEAD_DIM,
        ffn_hidden: 256,
        vocab: VOCAB,
        rope_base: 10_000.0,
    }
}

/// `EngineConfig::lserve()` with the scaled budget; `demote` turns on
/// selection-driven demotion (the tiered workload only).
fn engine_config(demote: bool) -> EngineConfig {
    EngineConfig {
        dynamic_budget: Some(DYNAMIC_BUDGET),
        demote_after_chunks: demote.then_some(2),
        ..EngineConfig::lserve()
    }
}

/// Weights plus executor: the part of set-up below the scheduler.
pub fn new_executor(demote: bool) -> Arc<ModelExecutor> {
    let weights = Arc::new(ModelWeights::random(&bench_model(), WEIGHT_SEED));
    Arc::new(ModelExecutor::new(weights, engine_config(demote)))
}

/// Hot pages one sequence of `tokens` tokens needs under `exec`'s policy.
pub fn sequence_pages(exec: &ModelExecutor, tokens: usize) -> usize {
    sequence_pages_estimate(exec.config(), &exec.weights().config, tokens)
}

/// `overcommit_workload` at the benchmark's geometry: `bursts` x 4 unshared
/// prompts of 1024 (+128 per position in the burst) tokens, 192 output
/// tokens, as `(prompt, max_new_tokens)`.
pub fn overcommit_prompts(seed: u64, bursts: usize, div: usize) -> Vec<(Vec<u32>, usize)> {
    overcommit_workload(&OvercommitConfig {
        bursts,
        requests_per_burst: 4,
        context_tokens: 1024 / div,
        context_jitter: 128 / div,
        max_new_tokens: 192 / div,
        vocab: VOCAB as u32,
        seed,
    })
    .into_iter()
    .map(|p| (p.prompt, p.max_new_tokens))
    .collect()
}

/// A scheduler-side tracer recording into the bounded ring, for the
/// `trace.sched_overhead_frac` paired pass.
pub fn ring_tracer() -> Tracer {
    Tracer::ring(lserve_trace::DEFAULT_RING_CAPACITY)
}

/// One probe row: the value, and the operation count behind it.
#[derive(Debug, Default)]
pub struct ProbeTable {
    pub rows: Vec<(&'static str, f64, f64)>,
}

impl ProbeTable {
    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("probe {name} did not run"))
            .1
    }
}

/// What every probe needs: where spans go, where rows go, and the geometry.
struct Probes<'a> {
    rec: &'a mut Recorder,
    out: ProbeTable,
    scale: Scale,
}

impl Probes<'_> {
    /// Times `f` as a `probe.<layer>.<op>` span and returns the nanoseconds
    /// of the best of `reps` runs: the minimum is the steadiest estimate of a
    /// deterministic kernel's cost on a shared box. The smoke geometry runs
    /// once.
    fn timed(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let reps = if self.scale == Scale::Smoke { 1 } else { reps };
        let span = self.rec.open(name);
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        self.rec.close(span, &[("reps", reps as u64)]);
        best
    }

    /// Records `metric` as `ns` over `ops` natural units.
    fn per_op(&mut self, metric: &'static str, ns: f64, ops: usize) {
        self.out.rows.push((metric, ns / ops as f64, ops as f64));
    }

    fn ratio(&mut self, metric: &'static str, num: u64, den: u64) {
        self.out
            .rows
            .push((metric, num as f64 / den.max(1) as f64, den as f64));
    }
}

fn single_device_plan(model: &ModelConfig) -> ShardingPlan {
    ShardingPlan::new(
        Topology::symmetric(1, 0),
        PlacementPolicy::SparsityAware,
        model.num_layers,
        model.num_kv_heads,
    )
}

fn prompt(len: usize, seed: u64) -> Vec<u32> {
    Rng::new(seed).tokens(len)
}

/// Prefills a fresh sequence with `len` tokens through the fused path.
fn prefilled(exec: &ModelExecutor, pool: &mut PagePool, len: usize, seed: u64) -> SequenceState {
    let mut state = exec.new_sequence();
    exec.prefill_threads(
        &mut state,
        pool,
        &prompt(len, seed),
        1,
        &mut ParallelExecStats::default(),
    )
    .expect("probe pool is ample");
    state
}

fn executor_probes(p: &mut Probes) {
    let d = p.scale.div();
    let exec = new_executor(false);
    let model = exec.weights().config.clone();
    let mut pool = PagePool::new(exec.config().paging, 1 << 20, model.head_dim);
    let mut stats = ParallelExecStats::default();

    // One whole-prompt fused prefill at long_prefill's size.
    let n = 4096 / d;
    let tokens = prompt(n, 11);
    let ns = p.timed("probe.executor.prefill", 2, || {
        let mut state = exec.new_sequence();
        black_box(
            exec.prefill_threads(&mut state, &mut pool, &tokens, 1, &mut stats)
                .expect("probe pool is ample"),
        );
        state.release(&mut pool);
    });
    p.per_op("executor.prefill_ns_per_tok", ns, n);

    // Batched decode at long_decode's geometry: 4 sequences past the budget.
    let (ctx, steps) = (2048 / d, 256 / d);
    let mut plan = single_device_plan(&model);
    let mut states: Vec<SequenceState> = (0..4)
        .map(|i| prefilled(&exec, &mut pool, ctx, 20 + i))
        .collect();
    let ns = p.timed("probe.executor.decode_b4", 1, || {
        for s in 0..steps {
            let mut batch: Vec<(&mut SequenceState, u32)> = states
                .iter_mut()
                .map(|st| (st, (s % VOCAB) as u32))
                .collect();
            black_box(exec.decode_batch_sharded(&mut pool, &mut batch, 1, &mut plan, &mut stats));
        }
    });
    p.per_op("executor.decode_ns_per_tok", ns, 4 * steps);
    let (mut visited, mut resident, mut invocations, mut reuses) = (0u64, 0u64, 0u64, 0u64);
    for st in &states {
        let s = st.stats();
        visited += s.decode_tokens_visited;
        invocations += s.selector_invocations;
        reuses += s.selector_reuses;
        // Tokens resident, summed over the decode steps just taken and the
        // query heads that each could attend all of them.
        let heads = (model.num_layers * model.num_q_heads) as u64;
        let end = st.context_len() as u64;
        resident += heads * (end - steps as u64 + 1..=end).sum::<u64>();
    }
    p.ratio("executor.decode_visit_frac", visited, resident);
    p.ratio("selector.reuse_frac", reuses, reuses + invocations);
    for mut st in states {
        st.release(&mut pool);
    }

    // Batch of one: the prompt-continuation path every chunked prompt takes
    // past its first `chunk_tokens`.
    let mut one = prefilled(&exec, &mut pool, 256 / d, 31);
    let cont = 768 / d;
    let ns = p.timed("probe.executor.decode_b1", 1, || {
        for s in 0..cont {
            let mut batch = [(&mut one, (s % VOCAB) as u32)];
            black_box(exec.decode_batch_sharded(&mut pool, &mut batch, 1, &mut plan, &mut stats));
        }
    });
    p.per_op("executor.decode_ns_per_tok_b1", ns, cont);
    one.release(&mut pool);
}

fn attention_and_selector_probes(p: &mut Probes) {
    let div = p.scale.div();
    let d = HEAD_DIM;
    let qscale = 1.0 / (d as f32).sqrt();

    // Tiled prefill kernel under the two static patterns.
    let (n, tile) = (2048 / div, 64usize);
    let mut g = SeededGaussian::new(1);
    let (q, k, v) = (
        g.matrix(n, d, 1.0),
        g.matrix(n, d, 1.0),
        g.matrix(n, d, 1.0),
    );
    let mut tiles = 0u64;
    let ns = p.timed("probe.attention.prefill_dense", 2, || {
        let (o, s) = prefill_attention(&q, &k, &v, qscale, tile, tile, &DensePattern);
        tiles = s.tiles_visited;
        black_box(o);
    });
    p.per_op("attention.prefill_dense_ns_per_tile", ns, tiles as usize);
    let streaming = StreamingPattern::new(1, 2);
    let ns = p.timed("probe.attention.prefill_stream", 4, || {
        let (o, s) = prefill_attention(&q, &k, &v, qscale, tile, tile, &streaming);
        tiles = s.tiles_visited;
        black_box(o);
    });
    p.per_op("attention.prefill_stream_ns_per_tile", ns, tiles as usize);

    // Decode kernels and the selector on one needle-in-a-haystack cache.
    let seq = 8192 / div;
    let config = NiahConfig {
        head_dim: d,
        ..NiahConfig::standard(seq)
    };
    let case = NiahCase::generate(config, 0.5, 3);
    let paging = PagingConfig::new(64, 16, KvPrecision::Int4);
    let (pool, cache) = case.build_cache(paging);
    let query = case.query().to_vec();
    let stride = (cache.num_pages() / 16).max(1);
    let selected: Vec<usize> = (0..cache.num_pages()).step_by(stride).take(16).collect();
    let reps = 20;
    let mut visited = 0u64;
    let ns = p.timed("probe.attention.decode_sel", reps, || {
        let (o, s) = decode_dense_head(&pool, &cache, &query, qscale, Some(&selected));
        visited = s.tokens_visited;
        black_box(o);
    });
    p.per_op(
        "attention.decode_sel_ns_per_tok_visited",
        ns,
        visited as usize,
    );
    let ns = p.timed("probe.attention.decode_full", reps, || {
        let (o, s) = decode_dense_head(&pool, &cache, &query, qscale, None);
        visited = s.tokens_visited;
        black_box(o);
    });
    p.per_op(
        "attention.decode_full_ns_per_tok_visited",
        ns,
        visited as usize,
    );
    let mut spool = PagePool::new(paging, 16, d);
    let mut stream = StreamingHeadCache::new(StreamingWindow::new(1, 2));
    for t in 0..seq {
        assert!(stream.append(&mut spool, case.key(t), case.key(t)));
    }
    let ns = p.timed("probe.attention.decode_stream", 4 * reps, || {
        let (o, s) = decode_streaming_head(&spool, &stream, &query, qscale);
        visited = s.tokens_visited;
        black_box(o);
    });
    p.per_op(
        "attention.decode_stream_ns_per_tok_visited",
        ns,
        visited as usize,
    );

    let budget = DYNAMIC_BUDGET / div;
    let mut fresh = HierarchicalSelector::new(true);
    let mut scored = 0u64;
    let mut picked = Vec::new();
    let ns = p.timed("probe.selector.score", reps, || {
        let s = fresh.select(&pool, &cache, &[&query], budget, 0);
        scored = s.logical_pages_scored;
        picked = s.pages;
    });
    p.per_op("selector.score_ns_per_logical_page", ns, scored as usize);
    let page = paging.physical_page_size();
    let recall = case.recall(&picked, page);
    p.out.rows.push((
        "selector.recall_niah",
        recall,
        case.needle_pages(page).len() as f64,
    ));
    // Steps 1..interval after a fresh selection are reuse hits.
    let mut reusable = ReusableSelector::new(HierarchicalSelector::new(true), 4);
    reusable.select(&pool, &cache, &[&query], budget, 0);
    let hits = 3usize;
    let ns = p.timed("probe.selector.reused", 1, || {
        for step in 1..=hits {
            let s = reusable.select(&pool, &cache, &[&query], budget, step);
            assert!(s.reused, "within the reuse interval");
            black_box(s);
        }
    });
    p.per_op("selector.reused_ns_per_call", ns, hits);
}

fn kvcache_probes(p: &mut Probes) {
    let d = HEAD_DIM;
    let paging = PagingConfig::new(64, 16, KvPrecision::Int4);
    let tokens = 4096 / p.scale.div();
    let pages = paging.pages_for(tokens);
    let rows = SeededGaussian::new(5).matrix(tokens, d, 1.0);
    let filled = |pool: &mut PagePool| {
        let mut cache = DenseHeadCache::new();
        for t in 0..tokens {
            assert!(cache.append(pool, rows.row(t), rows.row(t)));
        }
        cache
    };

    // INT4 quantise-on-append, the write side of every prefill.
    let mut pool = PagePool::new(paging, pages + 1, d);
    let ns = p.timed("probe.kvcache.append", 3, || {
        filled(&mut pool).release(&mut pool)
    });
    p.per_op("kvcache.append_ns_per_tok", ns, tokens);

    let n = 4096 / p.scale.div();
    let mut pool = PagePool::new(paging, n, d);
    let ns = p.timed("probe.kvcache.alloc_free", 5, || {
        let ids: Vec<PageId> = (0..n).map(|_| pool.allocate().expect("sized")).collect();
        for id in ids {
            pool.free(id);
        }
    });
    p.per_op("kvcache.alloc_free_ns_per_op", ns, 2 * n);

    // Copy-on-write fork of shared, full pages.
    let mut pool = PagePool::new(paging, pages + 2, d);
    let table: Vec<PageId> = filled(&mut pool).page_table().to_vec();
    let ns = p.timed("probe.kvcache.fork", 3, || {
        for &id in &table {
            pool.retain(id);
            let copy = pool.fork(id).expect("shared page forks");
            pool.free(copy);
        }
    });
    p.per_op("kvcache.fork_ns_per_page", ns, table.len());

    // A round trip through the host tier, inline and through the copy engine.
    for (name, metric, mode) in [
        (
            "probe.kvcache.tier_sync",
            "kvcache.tier_sync_ns_per_page",
            MigrationMode::Sync,
        ),
        (
            "probe.kvcache.tier_async",
            "kvcache.tier_async_ns_per_page",
            MigrationMode::Async,
        ),
    ] {
        let mut pool = PagePool::new_with_tiers(paging, pages + 1, d, mode, TierConfig::default());
        let table: Vec<PageId> = filled(&mut pool).page_table().to_vec();
        let ns = p.timed(name, 3, || {
            for &id in &table {
                pool.demote(id).expect("sole-owned hot page demotes");
            }
            pool.advance_transfer_units(u64::MAX / 2);
            for &id in &table {
                pool.ensure_hot(id).expect("hot tier has room");
            }
            pool.advance_transfer_units(u64::MAX / 2);
        });
        p.per_op(metric, ns, table.len());
    }
}

fn arithmetic_probes(p: &mut Probes) {
    let (tokens, dim) = (64usize, HEAD_DIM);
    let mut g = SeededGaussian::new(4);
    let data: Vec<f32> = (0..tokens * dim).map(|_| g.sample()).collect();
    let query: Vec<f32> = (0..dim).map(|_| g.sample()).collect();
    // One page per iteration; enough iterations to outlast the clock's grain.
    let inner = 256 / p.scale.div();
    let elems = tokens * dim * inner;

    let ns = p.timed("probe.quant.quantize", 5, || {
        for _ in 0..inner {
            black_box(QuantizedTensor::quantize(
                black_box(&data),
                tokens,
                dim,
                KvPrecision::Int4,
            ));
        }
    });
    p.per_op("quant.quantize_ns_per_elem", ns, elems);
    let page = QuantizedTensor::quantize(&data, tokens, dim, KvPrecision::Int4);
    let ns = p.timed("probe.quant.int4_dot", 5, || {
        for _ in 0..inner {
            let mut acc = 0.0f32;
            for row in 0..tokens {
                acc += page.dot_row(row, black_box(&query));
            }
            black_box(acc);
        }
    });
    p.per_op("quant.int4_dot_ns_per_elem", ns, elems);
    let ns = p.timed("probe.tensor.dot", 5, || {
        for _ in 0..inner {
            let mut acc = 0.0f32;
            for row in data.chunks_exact(dim) {
                acc += dot(row, black_box(&query));
            }
            black_box(acc);
        }
    });
    p.per_op("tensor.dot_ns_per_elem", ns, elems);
    // The model's FFN up-projection shape.
    let (m, k, n) = (128 / p.scale.div().min(4), 128usize, 256usize);
    let (a, b) = (g.matrix(m, k, 1.0), g.matrix(k, n, 1.0));
    let ns = p.timed("probe.tensor.matmul", 5, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    p.per_op("tensor.matmul_ns_per_mac", ns, m * k * n);
}

fn trace_probe(p: &mut Probes) {
    let tracer = ring_tracer();
    let events = 65_536 / p.scale.div();
    let ns = p.timed("probe.trace.ring_span", 3, || {
        for i in 0..events {
            let start = tracer.now();
            tracer.advance(1);
            tracer.span(
                "probe",
                "bench",
                lane::SCHEDULER,
                0,
                start,
                &[("i", i as u64)],
            );
        }
        black_box(tracer.drain());
    });
    p.per_op("trace.ring_span_ns_per_event", ns, events);
}

/// Runs every probe, recording one `probe.<layer>.<op>` span each.
pub fn run_probes(rec: &mut Recorder, scale: Scale) -> ProbeTable {
    let mut p = Probes {
        rec,
        out: ProbeTable::default(),
        scale,
    };
    executor_probes(&mut p);
    attention_and_selector_probes(&mut p);
    kvcache_probes(&mut p);
    arithmetic_probes(&mut p);
    trace_probe(&mut p);
    p.out
}
