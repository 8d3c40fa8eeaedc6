//! Fused layer-level hybrid prefill attention (§3.2 prefill dataflow).
//!
//! One call processes every head of a layer: dense (retrieval) heads with full causal
//! or dynamically masked attention and streaming heads with the Λ pattern, mirroring the
//! single fused CUDA kernel that "enables different sparsity patterns to be applied
//! independently on each head". GQA's query→KV head mapping (`h_kv = h / n`, Eq. 1)
//! is applied here. The decode side of the same kernel is one
//! [`crate::parallel::DecodeShard`] per KV head, which the executor builds itself.

use lserve_tensor::Matrix;

use crate::dynamic::build_dynamic_prefill_mask;
use crate::parallel::{run_placed, PlacedBalance};
use crate::pattern::{BlockPattern, DensePattern, StreamingPattern};
use crate::prefill::{prefill_head, KeyTiles, PrefillStats};

/// Static classification of one KV head (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// Retrieval head: full history, eligible for dynamic page sparsity.
    Dense,
    /// Streaming head: Λ mask (sink + local blocks).
    Streaming,
}

/// Geometry of a layer's attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerAttnConfig {
    /// Number of query heads `H`.
    pub num_q_heads: usize,
    /// Number of KV heads `Ĥ` (equal to `H` for MHA, smaller for GQA).
    pub num_kv_heads: usize,
    /// Per-head feature dimension `D`.
    pub head_dim: usize,
    /// Square tile size (`TQ = TK`) for prefill block sparsity.
    pub tile: usize,
    /// Streaming pattern for streaming heads (in blocks of `tile` tokens for
    /// prefill; in physical pages for decode).
    pub sink_blocks: usize,
    /// Local blocks of the streaming pattern.
    pub local_blocks: usize,
}

impl LayerAttnConfig {
    /// Query heads per KV head (`n` in Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `num_q_heads` is not a multiple of `num_kv_heads`.
    pub fn group_size(&self) -> usize {
        assert_eq!(
            self.num_q_heads % self.num_kv_heads,
            0,
            "query heads must divide into KV heads"
        );
        self.num_q_heads / self.num_kv_heads
    }

    /// KV head serving query head `h`.
    pub fn kv_head_of(&self, h: usize) -> usize {
        h / self.group_size()
    }

    /// Logit scale `1/sqrt(D)`.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }
}

/// Extracts head `h`'s column block from a `(N x heads*D)` activation matrix.
fn head_slice(m: &Matrix, h: usize, d: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), d);
    for r in 0..m.rows() {
        out.row_mut(r)
            .copy_from_slice(&m.row(r)[h * d..(h + 1) * d]);
    }
    out
}

/// One KV head's keys and values as the prefill kernel reads them, built once
/// and shared by the query heads of its group.
struct PrefillKv {
    kind: HeadKind,
    keys: KeyTiles,
    values: Matrix,
    /// Row-major keys, which only the dynamic mask of a dense head reads.
    key_rows: Option<Matrix>,
}

/// One query head's unit of prefill work inside the sharded layer kernel.
struct PrefillShard<'a> {
    h: usize,
    qh: Matrix,
    kv: &'a PrefillKv,
    out: Matrix,
    stats: PrefillStats,
}

/// Fused block-sparse prefill over all heads of one layer.
///
/// `q` is `(N x H·D)`; `k`, `v` are `(N x Ĥ·D)`; `kinds` classifies each **KV** head
/// (query heads inherit their KV head's kind, since streaming heads drop the KV that
/// grouped query heads would need). Dense heads run full causal attention
/// (`dynamic_keep: None`) or MInference-style *dynamic* block sparsity
/// (`Some(keep)`): each head builds its own query-aware mask keeping the diagonal,
/// the sink blocks, and `keep` top-affinity past blocks per query tile (§4.3,
/// activated for very long prompts).
///
/// Each query head is one shard of a one-device phase ([`run_placed`]): up to
/// `threads` scoped workers, LPT-assigned by estimated tile cost (dense heads grow
/// quadratically with the prompt, streaming heads linearly — the per-head
/// sparsity asymmetry that makes naive partitioning unbalanced). Outputs are
/// bit-identical for every thread count: each shard computes into its own buffer
/// with the same kernel on the same inputs, and the scatter into the layer output
/// runs serially in head order.
///
/// Returns the `(N x H·D)` attention output, aggregate tile counters split by
/// head kind (dense, streaming), and the phase's balance.
///
/// # Panics
///
/// Panics on shape mismatches or if `kinds.len() != num_kv_heads`.
pub fn fused_prefill_layer(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &LayerAttnConfig,
    kinds: &[HeadKind],
    dynamic_keep: Option<usize>,
    threads: usize,
) -> (Matrix, PrefillStats, PrefillStats, PlacedBalance) {
    let n = q.rows();
    let d = cfg.head_dim;
    assert_eq!(q.cols(), cfg.num_q_heads * d, "Q width mismatch");
    assert_eq!(k.cols(), cfg.num_kv_heads * d, "K width mismatch");
    assert_eq!(v.cols(), cfg.num_kv_heads * d, "V width mismatch");
    assert_eq!(k.rows(), n, "K rows mismatch");
    assert_eq!(kinds.len(), cfg.num_kv_heads, "kinds length mismatch");

    let streaming = StreamingPattern::new(cfg.sink_blocks, cfg.local_blocks);
    let nt = n.div_ceil(cfg.tile) as u64;
    let causal_tiles = nt * (nt + 1) / 2;
    let kv_heads: Vec<PrefillKv> = (0..cfg.num_kv_heads)
        .map(|kv| PrefillKv {
            kind: kinds[kv],
            keys: KeyTiles::new(k, kv * d, d, cfg.tile),
            values: head_slice(v, kv, d),
            key_rows: (kinds[kv] == HeadKind::Dense && dynamic_keep.is_some())
                .then(|| head_slice(k, kv, d)),
        })
        .collect();
    let mut shards: Vec<PrefillShard<'_>> = Vec::with_capacity(cfg.num_q_heads);
    let mut costs: Vec<u64> = Vec::with_capacity(cfg.num_q_heads);
    for h in 0..cfg.num_q_heads {
        let kv = cfg.kv_head_of(h);
        // Estimated tiles the shard will visit: the sparsity-aware signal the
        // LPT assignment balances on.
        let cost = match (kinds[kv], dynamic_keep) {
            (HeadKind::Streaming, _) => {
                (nt * (cfg.sink_blocks + cfg.local_blocks + 1) as u64).min(causal_tiles)
            }
            (HeadKind::Dense, Some(keep)) => {
                (nt * (keep + cfg.sink_blocks + 1) as u64).min(causal_tiles)
            }
            (HeadKind::Dense, None) => causal_tiles,
        };
        costs.push(cost.max(1));
        shards.push(PrefillShard {
            h,
            qh: head_slice(q, h, d),
            kv: &kv_heads[kv],
            out: Matrix::zeros(0, 0),
            stats: PrefillStats::default(),
        });
    }

    let on_one_device = vec![0; shards.len()];
    let balance = run_placed(threads, 1, &on_one_device, &costs, &mut shards, |s| {
        let attend = |pattern: &dyn BlockPattern| {
            prefill_head(
                &s.qh,
                &s.kv.keys,
                &s.kv.values,
                cfg.scale(),
                cfg.tile,
                pattern,
            )
        };
        (s.out, s.stats) = match (s.kv.kind, &s.kv.key_rows) {
            (HeadKind::Streaming, _) => attend(&streaming),
            (HeadKind::Dense, None) => attend(&DensePattern),
            (HeadKind::Dense, Some(kh)) => attend(&build_dynamic_prefill_mask(
                &s.qh,
                kh,
                cfg.tile,
                dynamic_keep.expect("row-major keys are kept for the dynamic mask only"),
                cfg.sink_blocks,
            )),
        };
    });

    let mut out = Matrix::zeros(n, cfg.num_q_heads * d);
    let mut dense_stats = PrefillStats::default();
    let mut stream_stats = PrefillStats::default();
    for s in &shards {
        let agg = match s.kv.kind {
            HeadKind::Dense => &mut dense_stats,
            HeadKind::Streaming => &mut stream_stats,
        };
        agg.tiles_visited += s.stats.tiles_visited;
        agg.tiles_total_causal += s.stats.tiles_total_causal;
        for r in 0..n {
            out.row_mut(r)[s.h * d..(s.h + 1) * d].copy_from_slice(s.out.row(r));
        }
    }
    (out, dense_stats, stream_stats, balance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_dense_head, decode_streaming_head, DecodeStats};
    use crate::parallel::{run_decode_shard, DecodeShard};
    use crate::reference::causal_attention_reference;
    use lserve_kvcache::{HeadCache, LayerKvCache, PagePool, PagingConfig, StreamingWindow};
    use lserve_quant::KvPrecision;
    use lserve_tensor::SeededGaussian;

    fn cfg() -> LayerAttnConfig {
        LayerAttnConfig {
            num_q_heads: 4,
            num_kv_heads: 2,
            head_dim: 8,
            tile: 4,
            sink_blocks: 1,
            local_blocks: 2,
        }
    }

    #[test]
    fn gqa_mapping() {
        let c = cfg();
        assert_eq!(c.group_size(), 2);
        assert_eq!(c.kv_head_of(0), 0);
        assert_eq!(c.kv_head_of(1), 0);
        assert_eq!(c.kv_head_of(2), 1);
        assert_eq!(c.kv_head_of(3), 1);
    }

    #[test]
    fn all_dense_prefill_matches_per_head_reference() {
        let c = cfg();
        let mut g = SeededGaussian::new(100);
        let n = 12;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Dense];
        let (out, dense, stream, _) = fused_prefill_layer(&q, &k, &v, &c, &kinds, None, 1);
        assert_eq!(stream.tiles_visited, 0);
        assert!(dense.tiles_visited > 0);
        for h in 0..c.num_q_heads {
            let kv = c.kv_head_of(h);
            let qh = head_slice(&q, h, c.head_dim);
            let kh = head_slice(&k, kv, c.head_dim);
            let vh = head_slice(&v, kv, c.head_dim);
            let want = causal_attention_reference(&qh, &kh, &vh, c.scale());
            let got = head_slice(&out, h, c.head_dim);
            assert!(got.max_abs_diff(&want) < 1e-4, "head {h}");
        }
    }

    #[test]
    fn mixed_kinds_split_tile_counters() {
        let c = cfg();
        let mut g = SeededGaussian::new(4);
        let n = 32;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Streaming];
        let (_, dense, stream, _) = fused_prefill_layer(&q, &k, &v, &c, &kinds, None, 1);
        assert!(dense.tiles_visited > 0 && stream.tiles_visited > 0);
        // Streaming heads must visit strictly fewer tiles than their causal total.
        assert!(stream.tiles_visited < stream.tiles_total_causal);
        assert_eq!(dense.tiles_visited, dense.tiles_total_causal);
    }

    /// A layer cache of one dense and one streaming KV head holding `n`
    /// tokens, and one token's query activations.
    fn decode_scene(
        c: &LayerAttnConfig,
        n: usize,
        seed: u64,
    ) -> (PagePool, LayerKvCache, Vec<f32>) {
        let pcfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(pcfg, 1024, c.head_dim);
        let mut cache = LayerKvCache::new(&[false, true], StreamingWindow::new(1, 2));
        let mut g = SeededGaussian::new(seed);
        let mut row = |width: usize| -> Vec<f32> { (0..width).map(|_| g.sample()).collect() };
        for _ in 0..n {
            let (keys, vals) = (
                row(c.num_kv_heads * c.head_dim),
                row(c.num_kv_heads * c.head_dim),
            );
            assert!(cache.append_token(&mut pool, &keys, &vals, c.head_dim));
        }
        let q = row(c.num_q_heads * c.head_dim);
        (pool, cache, q)
    }

    /// KV head `kv`'s shard over the full history: its output rows and counters.
    fn decode_shard(
        c: &LayerAttnConfig,
        pool: &PagePool,
        cache: &LayerKvCache,
        q: &[f32],
        kv: usize,
    ) -> (Vec<f32>, DecodeStats) {
        let width = c.group_size() * c.head_dim;
        let mut out = vec![0.0f32; width];
        let mut shard = DecodeShard {
            head: cache.head(kv),
            queries: &q[kv * width..(kv + 1) * width],
            selection: None,
            head_dim: c.head_dim,
            scale: c.scale(),
            out: &mut out,
            stats: DecodeStats::default(),
        };
        run_decode_shard(pool, &mut shard);
        let stats = shard.stats;
        (out, stats)
    }

    #[test]
    fn fused_decode_matches_single_head_kernels() {
        let c = cfg();
        let (pool, cache, q) = decode_scene(&c, 25, 55);
        let d = c.head_dim;
        // A GQA group's shard is its query heads' single-head kernels, row for row.
        let (dense, dstats) = decode_shard(&c, &pool, &cache, &q, 0);
        let (stream, sstats) = decode_shard(&c, &pool, &cache, &q, 1);
        assert!(dstats.tokens_visited > 0 && sstats.tokens_visited > 0);
        for (h, got) in dense.chunks(d).chain(stream.chunks(d)).enumerate() {
            let qh = &q[h * d..(h + 1) * d];
            let (want, _) = match cache.head(c.kv_head_of(h)) {
                HeadCache::Dense(head) => decode_dense_head(&pool, head, qh, c.scale(), None),
                HeadCache::Streaming(head) => decode_streaming_head(&pool, head, qh, c.scale()),
            };
            assert_eq!(got, want, "query head {h}");
        }
    }

    #[test]
    fn dynamic_prefill_skips_tiles_but_tracks_output_shape() {
        let c = cfg();
        let mut g = SeededGaussian::new(71);
        let n = 48;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Dense];
        let (out, dense, ..) = fused_prefill_layer(&q, &k, &v, &c, &kinds, Some(2), 1);
        assert_eq!(out.shape(), (n, c.num_q_heads * c.head_dim));
        assert!(dense.tiles_visited < dense.tiles_total_causal);
        // Enormous keep budget == dense attention exactly.
        let (full, stats_full, ..) = fused_prefill_layer(&q, &k, &v, &c, &kinds, Some(1000), 1);
        let (want, ..) = fused_prefill_layer(&q, &k, &v, &c, &kinds, None, 1);
        assert_eq!(stats_full.tiles_visited, stats_full.tiles_total_causal);
        assert!(full.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn threaded_prefill_bit_identical_to_serial() {
        let c = cfg();
        let mut g = SeededGaussian::new(23);
        let n = 40;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Streaming];
        for dynamic_keep in [None, Some(2)] {
            let (want, wd, ws, _) = fused_prefill_layer(&q, &k, &v, &c, &kinds, dynamic_keep, 1);
            for threads in [2, 3, 8] {
                let (got, gd, gs, balance) =
                    fused_prefill_layer(&q, &k, &v, &c, &kinds, dynamic_keep, threads);
                assert_eq!(got.max_abs_diff(&want), 0.0, "threads {threads}");
                assert_eq!((gd, gs), (wd, ws));
                assert_eq!(balance.shards, c.num_q_heads as u64);
                assert!(balance.workers() <= threads);
            }
        }
    }

    #[test]
    fn shared_kv_heads_give_the_bits_of_per_head_copies() {
        use crate::prefill::prefill_attention;
        let c = LayerAttnConfig {
            head_dim: 32,
            tile: 8,
            ..cfg()
        };
        let mut g = SeededGaussian::new(61);
        let n = 45;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Streaming];
        let (out, ..) = fused_prefill_layer(&q, &k, &v, &c, &kinds, None, 1);
        let streaming = StreamingPattern::new(c.sink_blocks, c.local_blocks);
        for h in 0..c.num_q_heads {
            let kv = c.kv_head_of(h);
            let pattern: &dyn BlockPattern = match kinds[kv] {
                HeadKind::Dense => &DensePattern,
                HeadKind::Streaming => &streaming,
            };
            let (want, _) = prefill_attention(
                &head_slice(&q, h, c.head_dim),
                &head_slice(&k, kv, c.head_dim),
                &head_slice(&v, kv, c.head_dim),
                c.scale(),
                c.tile,
                c.tile,
                pattern,
            );
            let got = head_slice(&out, h, c.head_dim);
            assert_eq!(got.max_abs_diff(&want), 0.0, "head {h}");
        }
    }

    #[test]
    fn streaming_decode_visits_fewer_pages() {
        let c = cfg();
        let (pool, cache, q) = decode_scene(&c, 100, 9);
        let (_, dstats) = decode_shard(&c, &pool, &cache, &q, 0);
        let (_, sstats) = decode_shard(&c, &pool, &cache, &q, 1);
        // The dense kv head serves 2 query heads over 25 pages each; the
        // streaming one at most its window's 3 pages.
        assert_eq!(dstats.pages_visited, 50);
        assert!(sstats.pages_visited <= 6);
    }
}
