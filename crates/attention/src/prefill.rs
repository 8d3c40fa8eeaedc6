//! Tiled block-sparse prefill attention kernel (§3.1, §3.4).
//!
//! The kernel walks the KV dimension tile-by-tile using a [`BlockPattern`] iterator
//! and folds each visited tile into the query tile's running softmax rows through
//! the shared block routine, so a skipped tile costs nothing — exactly how the CUDA
//! kernel shortens its sequential loop. Tiles are folded in the order the pattern
//! yields them and that order is part of the result: a fixed order gives fixed
//! bits, a different order agrees to rounding only (see `block.rs`).

use std::sync::Mutex;

use lserve_kvcache::{key_lane_offset, KEY_LANES};
use lserve_tensor::Matrix;

use crate::block::{finish_rows, fold_block, Causal, KvBlock, RowState};
use crate::pattern::{BlockDecision, BlockPattern};

/// Work counters for one prefill call.
///
/// `tiles_visited / tiles_total_causal` is `1 - r` where `r` is the block sparsity of
/// §3.1; the analytical cost model multiplies dense kernel time by this ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefillStats {
    /// Tiles actually computed (Full or Causal).
    pub tiles_visited: u64,
    /// Tiles a dense causal kernel would compute.
    pub tiles_total_causal: u64,
}

impl PrefillStats {
    /// Block sparsity `r` (fraction of causal tiles skipped).
    pub fn sparsity(&self) -> f64 {
        if self.tiles_total_causal == 0 {
            return 0.0;
        }
        1.0 - self.tiles_visited as f64 / self.tiles_total_causal as f64
    }
}

/// One head's keys regrouped for the block routine: K tile by K tile, each tile
/// d-major in lane groups like a KV page. Built once per KV head and shared by
/// every query head of its group.
#[derive(Debug)]
pub(crate) struct KeyTiles {
    data: Vec<f32>,
    /// Floats per tile: `d` dimensions of `tk` slots padded to whole lane groups.
    tile_len: usize,
    d: usize,
    tk: usize,
    n: usize,
}

impl KeyTiles {
    /// Regroups columns `col..col + d` of the `n`-row `k` into tiles of `tk` keys.
    pub fn new(k: &Matrix, col: usize, d: usize, tk: usize) -> Self {
        assert!(tk > 0, "tile sizes must be positive");
        let n = k.rows();
        let tile_len = d * tk.next_multiple_of(KEY_LANES);
        let mut data = vec![0.0f32; n.div_ceil(tk) * tile_len];
        for j in 0..n {
            let tile = &mut data[j / tk * tile_len..];
            for (i, &x) in k.row(j)[col..col + d].iter().enumerate() {
                tile[key_lane_offset(d, j % tk, i)] = x;
            }
        }
        Self {
            data,
            tile_len,
            d,
            tk,
            n,
        }
    }

    fn tile(&self, kb: usize) -> &[f32] {
        &self.data[kb * self.tile_len..(kb + 1) * self.tile_len]
    }
}

/// Block-sparse prefill attention for one head.
///
/// `q`, `k`, `v` are `(N x D)` matrices for the same `N`-token prompt; `scale` is the
/// logit scale (`1/sqrt(D)`); `tq`/`tk` the tile sizes; `pattern` decides which tiles
/// are computed. Returns the `(N x D)` output and the tile counters.
///
/// Queries whose every tile is skipped (impossible for causally sound patterns, which
/// always visit the diagonal) would produce zero rows.
///
/// # Panics
///
/// Panics if shapes disagree or tile sizes are zero.
///
/// # Example
///
/// ```
/// use lserve_attention::{prefill_attention, DensePattern};
/// use lserve_tensor::{Matrix, SeededGaussian};
///
/// let mut g = SeededGaussian::new(1);
/// let (q, k, v) = (g.matrix(8, 4, 1.0), g.matrix(8, 4, 1.0), g.matrix(8, 4, 1.0));
/// let (out, stats) = prefill_attention(&q, &k, &v, 0.5, 4, 4, &DensePattern);
/// assert_eq!(out.shape(), (8, 4));
/// assert_eq!(stats.sparsity(), 0.0);
/// ```
pub fn prefill_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
    tq: usize,
    tk: usize,
    pattern: &dyn BlockPattern,
) -> (Matrix, PrefillStats) {
    assert_eq!(k.rows(), q.rows(), "K rows mismatch");
    assert_eq!(k.cols(), q.cols(), "K dim mismatch");
    let keys = KeyTiles::new(k, 0, k.cols(), tk);
    let out = Mutex::new(q.clone());
    let stats = prefill_head(&out, 0, &keys, v, scale, tq, pattern);
    (out.into_inner().expect("query buffer poisoned"), stats)
}

/// [`prefill_attention`] on keys already regrouped into K tiles, in place:
/// the query head in columns `col..col + D` of `qo` becomes its attention
/// output.
///
/// Query tile by query tile, the tile's queries are copied into a `tq x D`
/// scratch, folded against the visited K tiles into a second one, and the
/// finished rows are written back over the same rows and columns. No later
/// tile reads them, so the caller only has to be the one reader and writer of
/// these columns while the call runs; the lock is taken twice a tile, outside
/// the fold.
pub(crate) fn prefill_head(
    qo: &Mutex<Matrix>,
    col: usize,
    keys: &KeyTiles,
    v: &Matrix,
    scale: f32,
    tq: usize,
    pattern: &dyn BlockPattern,
) -> PrefillStats {
    let KeyTiles { d, tk, n, .. } = *keys;
    assert!(tq > 0, "tile sizes must be positive");
    {
        let qo = qo.lock().expect("query buffer poisoned");
        assert_eq!(qo.rows(), n, "K rows mismatch");
        assert!(col + d <= qo.cols(), "query head out of range");
    }
    assert_eq!(v.rows(), n, "V rows mismatch");
    assert_eq!(v.cols(), d, "V dim mismatch");

    let mut stats = PrefillStats::default();
    let mut rows = Vec::with_capacity(tq);
    let (mut queries, mut out) = (vec![0.0f32; tq * d], vec![0.0f32; tq * d]);

    for qt in 0..n.div_ceil(tq) {
        let q_start = qt * tq;
        let q_end = ((qt + 1) * tq).min(n);
        let len = (q_end - q_start) * d;
        let (queries, out) = (&mut queries[..len], &mut out[..len]);
        {
            let qo = qo.lock().expect("query buffer poisoned");
            for (r, dst) in (q_start..q_end).zip(queries.chunks_exact_mut(d)) {
                dst.copy_from_slice(&qo.row(r)[col..col + d]);
            }
        }
        out.fill(0.0);
        rows.clear();
        rows.resize(q_end - q_start, RowState::EMPTY);

        // The §3.4 iterator: only visited blocks, offsets derived from block index.
        for (kb, decision) in pattern.blocks_for_tile(qt, tq, tk, n) {
            stats.tiles_visited += 1;
            let k_start = kb * tk;
            let k_end = ((kb + 1) * tk).min(n);
            let block = KvBlock::Rows {
                keys: keys.tile(kb),
                values: &v.as_slice()[k_start * d..k_end * d],
            };
            // Elementwise mask only on the diagonal tile.
            let causal = (decision == BlockDecision::Causal).then_some(Causal {
                q0: q_start,
                k0: k_start,
                rows_per_position: 1,
            });
            fold_block(d, queries, scale, block, causal, &mut rows, out);
        }
        finish_rows(d, &rows, out);
        let mut qo = qo.lock().expect("query buffer poisoned");
        for (r, src) in (q_start..q_end).zip(out.chunks_exact(d)) {
            qo.row_mut(r)[col..col + d].copy_from_slice(src);
        }
    }
    let (_, total) = crate::pattern::DensePattern.tile_counts(tq, tk, n);
    stats.tiles_total_causal = total;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{DensePattern, MaskPattern, StreamingPattern};
    use crate::reference::{causal_attention_reference, masked_attention_reference};
    use lserve_tensor::SeededGaussian;

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut g = SeededGaussian::new(seed);
        (
            g.matrix(n, d, 1.0),
            g.matrix(n, d, 1.0),
            g.matrix(n, d, 1.0),
        )
    }

    #[test]
    fn dense_pattern_matches_reference() {
        for &(n, tq, tk) in &[
            (16usize, 4usize, 4usize),
            (17, 4, 4),
            (32, 8, 4),
            (9, 16, 16),
        ] {
            let (q, k, v) = rand_qkv(n, 8, 77 + n as u64);
            let scale = 1.0 / (8f32).sqrt();
            let want = causal_attention_reference(&q, &k, &v, scale);
            let (got, stats) = prefill_attention(&q, &k, &v, scale, tq, tk, &DensePattern);
            assert!(
                got.max_abs_diff(&want) < 1e-4,
                "n={n} tq={tq} tk={tk}: diff {}",
                got.max_abs_diff(&want)
            );
            assert_eq!(stats.sparsity(), 0.0);
        }
    }

    #[test]
    fn streaming_pattern_matches_token_level_mask() {
        let n = 64;
        let b = 8;
        let (q, k, v) = rand_qkv(n, 8, 5);
        let scale = 1.0 / (8f32).sqrt();
        let p = StreamingPattern::new(1, 2);
        let (got, stats) = prefill_attention(&q, &k, &v, scale, b, b, &p);
        // Expand the block pattern to token level and use the masked reference.
        let want = masked_attention_reference(&q, &k, &v, scale, |i, j| {
            if j > i {
                return false;
            }
            let qt = i / b;
            let kb = j / b;
            kb < 1 || kb + 2 > qt
        });
        assert!(
            got.max_abs_diff(&want) < 1e-4,
            "diff {}",
            got.max_abs_diff(&want)
        );
        assert!(stats.sparsity() > 0.0);
    }

    #[test]
    fn mask_pattern_matches_token_level_mask() {
        let n = 40;
        let b = 8;
        let (q, k, v) = rand_qkv(n, 4, 9);
        let scale = 0.5;
        let m = MaskPattern::random_causal(n.div_ceil(b), n.div_ceil(b), 1, 123);
        let (got, _) = prefill_attention(&q, &k, &v, scale, b, b, &m);
        let want =
            masked_attention_reference(&q, &k, &v, scale, |i, j| j <= i && m.get(i / b, j / b));
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn stats_match_pattern_counts() {
        let n = 128;
        let p = StreamingPattern::new(1, 2);
        let (q, k, v) = rand_qkv(n, 4, 2);
        let (_, stats) = prefill_attention(&q, &k, &v, 0.5, 16, 16, &p);
        let (v_cnt, t_cnt) = p.tile_counts(16, 16, n);
        assert_eq!(stats.tiles_visited, v_cnt);
        assert_eq!(stats.tiles_total_causal, t_cnt);
    }

    #[test]
    fn theoretical_speedup_from_figure4() {
        let s = PrefillStats {
            tiles_visited: 10,
            tiles_total_causal: 21,
        };
        assert!((s.sparsity() - (1.0 - 10.0 / 21.0)).abs() < 1e-12);
        // §3.1: skipping a fraction r of the tiles is a 1/(1-r) speedup.
        assert!((1.0 / (1.0 - s.sparsity()) - 2.1).abs() < 1e-12);
    }

    #[test]
    fn single_token_prompt() {
        let (q, k, v) = rand_qkv(1, 4, 3);
        let (got, _) = prefill_attention(&q, &k, &v, 0.5, 16, 16, &DensePattern);
        assert!(
            got.max_abs_diff(&v) < 1e-5,
            "single token must return its value"
        );
    }
}
