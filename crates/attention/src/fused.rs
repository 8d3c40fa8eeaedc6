//! Fused layer-level hybrid prefill attention (§3.2 prefill dataflow).
//!
//! One [`LayerPrefill`] processes every head of a layer, mirroring the single
//! fused CUDA kernel that "enables different sparsity patterns to be applied
//! independently on each head": each KV head brings its own [`PrefillMask`]
//! (its streaming window's Λ pattern, causal, or a dynamic query-aware mask).
//! GQA's query→KV head mapping (`h_kv = h / n`, Eq. 1) is applied here. The
//! layer takes its chunk one tile of rows at a time, and each KV head keeps
//! only what later tiles read of it. The decode side of the same kernel is one
//! [`crate::parallel::DecodeShard`] per KV head, which the executor builds.

use lserve_kvcache::{LogicalPageStats, StreamingWindow};
use lserve_tensor::Matrix;

use crate::block::RowState;
use crate::dynamic::{block_key_stats, dynamic_mask_row};
use crate::parallel::{run_placed, PlacedBalance};
use crate::pattern::{BlockPattern, DensePattern, StreamingPattern};
use crate::prefill::{fold_query_tile, KeyTiles, PrefillStats};

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

/// One KV head's keys and values as the prefill kernel reads them, shared by
/// the query heads of its group and grown one tile at a time. A causal or
/// dynamic head keeps every tile; a windowed head a ring of its sink and
/// local tiles, the only ones its Λ pattern reads.
#[derive(Debug)]
struct PrefillKv {
    mask: PrefillMask,
    keys: KeyTiles,
    /// Value rows, `tile x D` a slot (the last tile of the chunk may be short).
    values: Vec<f32>,
    /// Each tile's key statistics, which only a dynamic mask reads.
    stats: Vec<LogicalPageStats>,
}

impl PrefillKv {
    /// The slot tile `kb` is kept in.
    fn slot(&self, kb: usize) -> usize {
        match self.mask {
            PrefillMask::Window(w) if kb >= w.sink_pages() => {
                w.sink_pages() + (kb - w.sink_pages()) % w.local_pages()
            }
            _ => kb,
        }
    }
}

/// One query head's unit of prefill work inside the sharded layer kernel: its
/// columns of the current query tile, their output, and its counters.
#[derive(Debug)]
struct PrefillShard {
    h: usize,
    kv: usize,
    queries: Vec<f32>,
    out: Vec<f32>,
    rows: Vec<RowState>,
    stats: PrefillStats,
}

/// Fused block-sparse prefill over all heads of one layer, for a chunk of
/// `n` tokens taken one tile of rows at a time ([`LayerPrefill::attend_tile`]).
///
/// Query tile `qt` reads only key tiles up to its own, and a dynamic mask
/// row only its own queries and the key tiles before it, so a tile's output
/// is complete when its rows arrive: the state holds the KV heads' kept
/// tiles, never the layer's whole Q, K or V.
///
/// Each query head is one shard of a one-device phase ([`run_placed`]), run
/// once a tile: up to `threads` scoped workers, LPT-assigned by the shard's
/// estimated tiles over the whole chunk (dense heads grow quadratically with
/// the prompt, streaming heads linearly — the per-head sparsity asymmetry that
/// makes naive partitioning unbalanced). A shard reads its query columns from
/// its own copy and writes its own output buffer, so outputs are
/// bit-identical for every thread count: the same kernel runs on the same
/// inputs whichever worker runs it.
#[derive(Debug)]
pub struct LayerPrefill {
    cfg: LayerAttnConfig,
    n: usize,
    heads: Vec<PrefillKv>,
    shards: Vec<PrefillShard>,
    costs: Vec<u64>,
    /// Tiles taken so far.
    tiles: usize,
    balance: Option<PlacedBalance>,
}

impl LayerPrefill {
    /// The empty state of a layer whose chunk is `n` tokens, under one
    /// [`PrefillMask`] per **KV** head.
    ///
    /// # Panics
    ///
    /// Panics if `n` or the tile is zero or `masks.len() != num_kv_heads`.
    pub fn new(cfg: &LayerAttnConfig, masks: &[PrefillMask], n: usize) -> Self {
        let (d, t) = (cfg.head_dim, cfg.tile);
        assert!(n > 0 && t > 0, "an empty chunk or tile");
        assert_eq!(masks.len(), cfg.num_kv_heads, "masks length mismatch");
        let nt = n.div_ceil(t);
        let heads = (masks.iter())
            .map(|&mask| {
                let slots = match mask {
                    PrefillMask::Window(w) => nt.min(w.sink_pages() + w.local_pages()),
                    _ => nt,
                };
                let dynamic = matches!(mask, PrefillMask::Dynamic { .. });
                PrefillKv {
                    mask,
                    keys: KeyTiles::with_capacity(d, t, slots),
                    values: Vec::with_capacity((slots * t).min(n) * d),
                    stats: Vec::with_capacity(if dynamic { nt } else { 0 }),
                }
            })
            .collect();
        let causal_tiles = (nt * (nt + 1) / 2) as u64;
        let nt = nt as u64;
        let (mut shards, mut costs) = (Vec::new(), Vec::new());
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
                kv,
                queries: Vec::with_capacity(t * d),
                out: Vec::with_capacity(t * d),
                rows: Vec::with_capacity(t),
                stats: PrefillStats::default(),
            });
        }
        Self {
            cfg: *cfg,
            n,
            heads,
            shards,
            costs,
            tiles: 0,
            balance: None,
        }
    }

    /// Takes the chunk's next tile of rows: `k` and `v` are its keys and
    /// values (`rows x Ĥ·D`), which every KV head keeps as its mask needs,
    /// and `q` its queries (`rows x H·D`), which become the tile's attention
    /// output in place. A tile is `tile` rows, the chunk's last one up to
    /// that.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or rows past the chunk.
    pub fn attend_tile(&mut self, q: &mut Matrix, k: &Matrix, v: &Matrix, threads: usize) {
        let (d, t, n) = (self.cfg.head_dim, self.cfg.tile, self.n);
        let (qt, rows) = (self.tiles, q.rows());
        let start = qt * t;
        assert!(
            rows > 0 && (rows == t && start + t <= n || start + rows == n),
            "a tile of rows of the chunk"
        );
        assert_eq!(q.cols(), self.cfg.num_q_heads * d, "Q width mismatch");
        assert_eq!(
            k.shape(),
            (rows, self.cfg.num_kv_heads * d),
            "K shape mismatch"
        );
        assert_eq!(v.shape(), k.shape(), "V shape mismatch");
        for (kv, head) in self.heads.iter_mut().enumerate() {
            let cols = kv * d..(kv + 1) * d;
            let slot = head.slot(qt);
            head.keys
                .put(slot, (0..rows).map(|r| &k.row(r)[cols.clone()]));
            let at = slot * t * d;
            if at == head.values.len() {
                head.values.resize(at + rows * d, 0.0);
            }
            for (r, dst) in head.values[at..at + rows * d]
                .chunks_exact_mut(d)
                .enumerate()
            {
                dst.copy_from_slice(&v.row(r)[cols.clone()]);
            }
            if matches!(head.mask, PrefillMask::Dynamic { .. }) {
                let keys = (0..rows).map(|r| &k.row(r)[cols.clone()]);
                head.stats.push(block_key_stats(keys, d));
            }
        }
        for s in &mut self.shards {
            s.queries.clear();
            for r in 0..rows {
                s.queries
                    .extend_from_slice(&q.row(r)[s.h * d..(s.h + 1) * d]);
            }
            s.out.resize(rows * d, 0.0);
        }

        let (cfg, heads) = (&self.cfg, &self.heads);
        let on_one_device = vec![0; self.shards.len()];
        let balance = run_placed(
            threads,
            1,
            &on_one_device,
            &self.costs,
            &mut self.shards,
            |s| {
                let head = &heads[s.kv];
                let blocks = match head.mask {
                    PrefillMask::Causal => DensePattern.blocks_for_tile(qt, t, t, n),
                    PrefillMask::Window(w) => {
                        StreamingPattern::new(w.sink_pages(), w.local_pages())
                            .blocks_for_tile(qt, t, t, n)
                    }
                    PrefillMask::Dynamic { keep, sink } => {
                        let mut kept = Vec::new();
                        dynamic_mask_row(&s.queries, d, &head.stats[..qt], keep, sink, &mut kept);
                        (0..=qt)
                            .filter(|&kb| kept[kb])
                            .map(|kb| (kb, DensePattern.decide(qt, kb, t, t, n)))
                            .collect()
                    }
                };
                let blocks = blocks.into_iter().map(|(kb, decision)| {
                    let slot = head.slot(kb);
                    let keys = ((kb + 1) * t).min(n) - kb * t;
                    let values = &head.values[slot * t * d..][..keys * d];
                    (kb * t, head.keys.tile(slot), values, decision)
                });
                s.stats.tiles_visited += fold_query_tile(
                    d,
                    &s.queries,
                    cfg.scale(),
                    start,
                    blocks,
                    &mut s.rows,
                    &mut s.out,
                );
            },
        );
        match &mut self.balance {
            None => self.balance = Some(balance),
            Some(layer) => {
                for (total, busy) in layer.busy_ns.iter_mut().zip(&balance.busy_ns) {
                    *total += busy;
                }
                layer.stolen += balance.stolen;
            }
        }

        for s in &self.shards {
            for (r, out) in s.out.chunks_exact(d).enumerate() {
                q.row_mut(r)[s.h * d..(s.h + 1) * d].copy_from_slice(out);
            }
        }
        self.tiles += 1;
    }

    /// Ends the layer: the tile counters of each KV head (summed over its
    /// query heads), and the balance of its attention phase — one phase of
    /// a shard per query head, its modeled costs those of the whole chunk and
    /// its measured busy time summed over the tiles.
    ///
    /// # Panics
    ///
    /// Panics if rows of the chunk were never taken.
    pub fn finish(self) -> (Vec<PrefillStats>, PlacedBalance) {
        let t = self.cfg.tile;
        assert!(self.tiles * t >= self.n, "rows of the chunk never came");
        let total = DensePattern.tile_counts(t, t, self.n).1;
        let mut stats = vec![PrefillStats::default(); self.cfg.num_kv_heads];
        for s in &self.shards {
            let agg = &mut stats[s.kv];
            agg.tiles_visited += s.stats.tiles_visited;
            agg.tiles_total_causal += total;
        }
        (stats, self.balance.expect("a chunk has a tile"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{attend_pages, DecodeStats};
    use crate::dynamic::build_dynamic_prefill_mask;
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

    /// Head `h`'s columns of a `(N x heads*D)` activation matrix.
    fn columns(m: &Matrix, h: usize, d: usize) -> Matrix {
        let mut out = Matrix::zeros(m.rows(), d);
        for r in 0..m.rows() {
            out.row_mut(r)
                .copy_from_slice(&m.row(r)[h * d..(h + 1) * d]);
        }
        out
    }

    /// A [`LayerPrefill`] over the whole of `q`, `k` and `v`, fed one tile of
    /// rows at a time: the attention output and what the layer reports.
    fn fused(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        c: &LayerAttnConfig,
        masks: &[PrefillMask],
        threads: usize,
    ) -> (Matrix, Vec<PrefillStats>, PlacedBalance) {
        let n = q.rows();
        let mut layer = LayerPrefill::new(c, masks, n);
        let mut out = Matrix::zeros(n, q.cols());
        for start in (0..n).step_by(c.tile) {
            let end = (start + c.tile).min(n);
            let mut tile = q.slice_rows(start, end);
            let (kt, vt) = (k.slice_rows(start, end), v.slice_rows(start, end));
            layer.attend_tile(&mut tile, &kt, &vt, threads);
            let width = q.cols();
            out.as_mut_slice()[start * width..end * width].copy_from_slice(tile.as_slice());
        }
        let (stats, balance) = layer.finish();
        (out, stats, balance)
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
            let qh = columns(&q, h, c.head_dim);
            let kh = columns(&k, kv, c.head_dim);
            let vh = columns(&v, kv, c.head_dim);
            let want = causal_attention_reference(&qh, &kh, &vh, c.scale());
            let got = columns(&out, h, c.head_dim);
            assert!(got.max_abs_diff(&want) < 1e-4, "head {h}");
        }
    }

    #[test]
    fn a_windowed_head_keeps_its_sink_and_local_tiles_only() {
        let c = cfg();
        let (d, t) = (c.head_dim, c.tile);
        let mut g = SeededGaussian::new(8);
        let n = 10 * t + 1;
        let masks = mixed(PrefillMask::Causal);
        let mut layer = LayerPrefill::new(&c, &masks, n);
        for start in (0..n).step_by(t) {
            let rows = t.min(n - start);
            let mut q = g.matrix(rows, c.num_q_heads * d, 1.0);
            let k = g.matrix(rows, c.num_kv_heads * d, 1.0);
            let v = g.matrix(rows, c.num_kv_heads * d, 1.0);
            layer.attend_tile(&mut q, &k, &v, 1);
            // The dense head keeps every row so far; the window (1, 2) three
            // tiles, in a ring.
            let [dense, window] = &layer.heads[..] else {
                panic!("two KV heads")
            };
            assert_eq!(dense.values.len(), (start + rows) * d);
            assert!(window.values.len() <= 3 * t * d);
            assert!(window.values.capacity() <= 3 * t * d);
        }
        let (stats, _) = layer.finish();
        assert!(stats[1].tiles_visited < stats[0].tiles_visited);
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
            [
                PrefillMask::Window(StreamingWindow::new(0, 3)),
                PrefillMask::Dynamic { keep: 0, sink: 0 },
            ],
        ];
        for masks in layers {
            for threads in [1, 2, 3, 8] {
                let (out, ..) = fused(&q, &k, &v, &c, &masks, threads);
                for h in 0..c.num_q_heads {
                    let kv = c.kv_head_of(h);
                    let qh = columns(&q, h, d);
                    let kh = columns(&k, kv, d);
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
                    let vh = columns(&v, kv, d);
                    let (want, _) =
                        prefill_attention(&qh, &kh, &vh, c.scale(), c.tile, c.tile, &*pattern);
                    let got = columns(&out, h, d);
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
