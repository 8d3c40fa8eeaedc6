//! Fused layer-level hybrid prefill attention (§3.2 prefill dataflow).
//!
//! One call processes every head of a layer, mirroring the single fused CUDA kernel
//! that "enables different sparsity patterns to be applied independently on each
//! head": each KV head brings its own [`PrefillMask`] (its streaming window's Λ
//! pattern, causal, or a dynamic query-aware mask). GQA's query→KV head mapping
//! (`h_kv = h / n`, Eq. 1) is applied here. The decode side of the same kernel is
//! one [`crate::parallel::DecodeShard`] per KV head, which the executor builds.

use std::sync::Mutex;

use lserve_kvcache::StreamingWindow;
use lserve_tensor::Matrix;

use crate::dynamic::build_dynamic_prefill_mask;
use crate::parallel::{run_placed, PlacedBalance};
use crate::pattern::{BlockPattern, DensePattern, StreamingPattern};
use crate::prefill::{prefill_head, KeyTiles, PrefillStats};

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
}

/// What one KV head's prefill visits, tile by tile; its query heads inherit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillMask {
    /// Full causal attention.
    Causal,
    /// The Λ pattern of a streaming window, one block per page.
    Window(StreamingWindow),
    /// MInference-style query-aware block sparsity (§4.3), built per query
    /// head: each query tile keeps its diagonal, the first `sink` blocks and
    /// the `keep` past blocks of highest affinity.
    Dynamic { keep: usize, sink: usize },
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
    mask: PrefillMask,
    keys: KeyTiles,
    values: Matrix,
    /// Row-major keys, which only a dynamic mask reads.
    key_rows: Option<Matrix>,
}

/// One query head's unit of prefill work inside the sharded layer kernel.
struct PrefillShard<'a> {
    h: usize,
    kv: &'a PrefillKv,
    stats: PrefillStats,
}

/// Fused block-sparse prefill over all heads of one layer.
///
/// `q` is `(N x H·D)`; `k`, `v` are `(N x Ĥ·D)`; `masks` holds each **KV** head's
/// [`PrefillMask`]. Each activation is held once: every KV head's keys are
/// regrouped into K tiles before `k` is dropped, its values sliced out before
/// `v` is, and `q` becomes the attention output in place.
///
/// Each query head is one shard of a one-device phase ([`run_placed`]): up to
/// `threads` scoped workers, LPT-assigned by estimated tile cost (dense heads grow
/// quadratically with the prompt, streaming heads linearly — the per-head
/// sparsity asymmetry that makes naive partitioning unbalanced). Shard `h` is
/// the only reader and writer of `q`'s columns `h·D..(h+1)·D`, and writes each
/// finished query tile over the queries it has just read, so outputs are
/// bit-identical for every thread count: the same kernel runs on the same
/// inputs whichever worker runs it. `q` sits behind one lock, taken per tile
/// outside the fold.
///
/// Returns the `(N x H·D)` attention output, the tile counters of each KV head
/// (summed over its query heads), and the phase's balance.
///
/// # Panics
///
/// Panics on shape mismatches or if `masks.len() != num_kv_heads`.
pub fn fused_prefill_layer(
    q: Matrix,
    k: Matrix,
    v: Matrix,
    cfg: &LayerAttnConfig,
    masks: &[PrefillMask],
    threads: usize,
) -> (Matrix, Vec<PrefillStats>, PlacedBalance) {
    let n = q.rows();
    let d = cfg.head_dim;
    assert_eq!(q.cols(), cfg.num_q_heads * d, "Q width mismatch");
    assert_eq!(k.cols(), cfg.num_kv_heads * d, "K width mismatch");
    assert_eq!(v.cols(), cfg.num_kv_heads * d, "V width mismatch");
    assert_eq!(k.rows(), n, "K rows mismatch");
    assert_eq!(masks.len(), cfg.num_kv_heads, "masks length mismatch");

    let nt = n.div_ceil(cfg.tile) as u64;
    let causal_tiles = nt * (nt + 1) / 2;
    let mut kv_heads: Vec<PrefillKv> = masks
        .iter()
        .enumerate()
        .map(|(kv, &mask)| PrefillKv {
            mask,
            keys: KeyTiles::new(&k, kv * d, d, cfg.tile),
            values: Matrix::default(),
            key_rows: matches!(mask, PrefillMask::Dynamic { .. }).then(|| head_slice(&k, kv, d)),
        })
        .collect();
    drop(k);
    for (kv, head) in kv_heads.iter_mut().enumerate() {
        head.values = head_slice(&v, kv, d);
    }
    drop(v);
    let mut shards: Vec<PrefillShard<'_>> = Vec::with_capacity(cfg.num_q_heads);
    let mut costs: Vec<u64> = Vec::with_capacity(cfg.num_q_heads);
    for h in 0..cfg.num_q_heads {
        let kv = cfg.kv_head_of(h);
        // Estimated tiles the shard will visit: the sparsity-aware signal the
        // LPT assignment balances on.
        let cost = match masks[kv] {
            PrefillMask::Causal => causal_tiles,
            PrefillMask::Window(w) => nt * (w.sink_pages() + w.local_pages() + 1) as u64,
            PrefillMask::Dynamic { keep, sink } => nt * (keep + sink + 1) as u64,
        };
        costs.push(cost.min(causal_tiles).max(1));
        shards.push(PrefillShard {
            h,
            kv: &kv_heads[kv],
            stats: PrefillStats::default(),
        });
    }

    let qo = Mutex::new(q);
    let on_one_device = vec![0; shards.len()];
    let balance = run_placed(threads, 1, &on_one_device, &costs, &mut shards, |s| {
        let attend = |pattern: &dyn BlockPattern| {
            prefill_head(
                &qo,
                s.h * d,
                &s.kv.keys,
                &s.kv.values,
                cfg.scale(),
                cfg.tile,
                pattern,
            )
        };
        s.stats = match s.kv.mask {
            PrefillMask::Causal => attend(&DensePattern),
            PrefillMask::Window(w) => {
                attend(&StreamingPattern::new(w.sink_pages(), w.local_pages()))
            }
            PrefillMask::Dynamic { keep, sink } => {
                // The mask reads every query of the head: take them all
                // before the first tile's output lands over them.
                let qh = head_slice(&qo.lock().expect("query buffer poisoned"), s.h, d);
                let kh = s.kv.key_rows.as_ref().expect("kept for a dynamic mask");
                let mask = build_dynamic_prefill_mask(&qh, kh, cfg.tile, keep, sink);
                drop(qh);
                attend(&mask)
            }
        };
    });

    let mut stats = vec![PrefillStats::default(); cfg.num_kv_heads];
    for s in &shards {
        let agg = &mut stats[cfg.kv_head_of(s.h)];
        agg.tiles_visited += s.stats.tiles_visited;
        agg.tiles_total_causal += s.stats.tiles_total_causal;
    }
    let out = qo.into_inner().expect("query buffer poisoned");
    (out, stats, balance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{attend_pages, DecodeStats};
    use crate::parallel::{run_decode_shard, DecodeShard};
    use crate::reference::causal_attention_reference;
    use lserve_kvcache::{append_token, DenseHeadCache, PagePool, PagingConfig, StreamingWindow};
    use lserve_quant::KvPrecision;
    use lserve_tensor::SeededGaussian;

    fn cfg() -> LayerAttnConfig {
        LayerAttnConfig {
            num_q_heads: 4,
            num_kv_heads: 2,
            head_dim: 8,
            tile: 4,
        }
    }

    /// [`fused_prefill_layer`] on copies of activations the test reuses.
    fn fused(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        c: &LayerAttnConfig,
        masks: &[PrefillMask],
        threads: usize,
    ) -> (Matrix, Vec<PrefillStats>, PlacedBalance) {
        fused_prefill_layer(q.clone(), k.clone(), v.clone(), c, masks, threads)
    }

    /// KV head 0 under `dense`, KV head 1 with a window of one sink and two
    /// local pages.
    fn mixed(dense: PrefillMask) -> [PrefillMask; 2] {
        [dense, PrefillMask::Window(StreamingWindow::new(1, 2))]
    }

    /// A dynamic mask keeping `keep` past blocks and one sink block.
    fn dynamic(keep: usize) -> PrefillMask {
        PrefillMask::Dynamic { keep, sink: 1 }
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
        let (out, stats, _) = fused(&q, &k, &v, &c, &[PrefillMask::Causal; 2], 1);
        for head in stats {
            assert!(head.tiles_visited > 0);
            assert_eq!(head.tiles_visited, head.tiles_total_causal);
        }
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
        let (_, stats, _) = fused(&q, &k, &v, &c, &mixed(PrefillMask::Causal), 1);
        let [dense, stream] = stats[..] else {
            panic!("one counter per KV head")
        };
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
    ) -> (PagePool, Vec<DenseHeadCache>, Vec<f32>) {
        let pcfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(pcfg, 1024, c.head_dim);
        let window = StreamingWindow::new(1, 2);
        let mut cache: Vec<DenseHeadCache> = [false, true]
            .map(|s| DenseHeadCache::with_window(s.then_some(window)))
            .into();
        let mut g = SeededGaussian::new(seed);
        let mut row = |width: usize| -> Vec<f32> { (0..width).map(|_| g.sample()).collect() };
        for _ in 0..n {
            let (keys, vals) = (
                row(c.num_kv_heads * c.head_dim),
                row(c.num_kv_heads * c.head_dim),
            );
            assert!(append_token(&mut cache, &mut pool, &keys, &vals));
        }
        let q = row(c.num_q_heads * c.head_dim);
        (pool, cache, q)
    }

    /// KV head `kv`'s shard over the full history: its output rows and counters.
    fn decode_shard(
        c: &LayerAttnConfig,
        pool: &PagePool,
        cache: &[DenseHeadCache],
        q: &[f32],
        kv: usize,
    ) -> (Vec<f32>, DecodeStats) {
        let width = c.group_size() * c.head_dim;
        let mut out = vec![0.0f32; width];
        let mut shard = DecodeShard {
            head: &cache[kv],
            queries: &q[kv * width..(kv + 1) * width],
            group: c.group_size(),
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
            let (want, _) = attend_pages(&pool, &cache[c.kv_head_of(h)], qh, c.scale(), None);
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
        let (out, stats, _) = fused(&q, &k, &v, &c, &[dynamic(2); 2], 1);
        assert_eq!(out.shape(), (n, c.num_q_heads * c.head_dim));
        assert!(stats.iter().all(|s| s.tiles_visited < s.tiles_total_causal));
        // Enormous keep budget == dense attention exactly.
        let (full, stats_full, _) = fused(&q, &k, &v, &c, &[dynamic(1000); 2], 1);
        let (want, ..) = fused(&q, &k, &v, &c, &[PrefillMask::Causal; 2], 1);
        assert!(stats_full
            .iter()
            .all(|s| s.tiles_visited == s.tiles_total_causal));
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
        for dense in [PrefillMask::Causal, dynamic(2)] {
            let (want, want_stats, _) = fused(&q, &k, &v, &c, &mixed(dense), 1);
            for threads in [2, 3, 8] {
                let (got, stats, balance) = fused(&q, &k, &v, &c, &mixed(dense), threads);
                assert_eq!(got.max_abs_diff(&want), 0.0, "threads {threads}");
                assert_eq!(stats, want_stats);
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
        let d = c.head_dim;
        let mut g = SeededGaussian::new(61);
        let n = 45;
        let q = g.matrix(n, c.num_q_heads * d, 1.0);
        let k = g.matrix(n, c.num_kv_heads * d, 1.0);
        let v = g.matrix(n, c.num_kv_heads * d, 1.0);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let layers = [
            [
                PrefillMask::Causal,
                PrefillMask::Window(StreamingWindow::new(2, 1)),
            ],
            [
                PrefillMask::Dynamic { keep: 2, sink: 1 },
                PrefillMask::Window(StreamingWindow::new(1, 2)),
            ],
        ];
        for masks in layers {
            for threads in [1, 2, 3, 8] {
                let (out, ..) = fused(&q, &k, &v, &c, &masks, threads);
                for h in 0..c.num_q_heads {
                    let kv = c.kv_head_of(h);
                    let qh = head_slice(&q, h, d);
                    let kh = head_slice(&k, kv, d);
                    // A windowed head's Λ pattern is its own window's; a
                    // dynamic head's mask is the one its own queries build.
                    let pattern: Box<dyn BlockPattern> = match masks[kv] {
                        PrefillMask::Causal => Box::new(DensePattern),
                        PrefillMask::Window(w) => {
                            Box::new(StreamingPattern::new(w.sink_pages(), w.local_pages()))
                        }
                        PrefillMask::Dynamic { keep, sink } => {
                            Box::new(build_dynamic_prefill_mask(&qh, &kh, c.tile, keep, sink))
                        }
                    };
                    let vh = head_slice(&v, kv, d);
                    let (want, _) =
                        prefill_attention(&qh, &kh, &vh, c.scale(), c.tile, c.tile, &*pattern);
                    let got = head_slice(&out, h, d);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{masks:?} threads {threads} head {h}"
                    );
                }
            }
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
