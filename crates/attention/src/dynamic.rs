//! Query-aware dynamic block sparsity for prefill (MInference-style).
//!
//! The paper integrates MInference's prefill sparsity for very long prompts ("LServe
//! is also compatible with the prefilling dynamic sparsity in MInference, which we
//! activated after 128K", §4.3). This module builds the per-head block mask: every
//! query tile keeps its causal diagonal, the sink blocks, and the top-`k` past KV
//! blocks ranked by a Quest-style min/max affinity bound between the tile's pooled
//! query and each block's key statistics — the same Eq. 2 machinery the decode
//! selector uses, lifted to tiles.

use lserve_kvcache::LogicalPageStats;
use lserve_tensor::Matrix;

use crate::pattern::MaskPattern;

/// Builds a query-aware prefill block mask for one head.
///
/// `q`, `k` are the head's `(N x D)` activations; `tile` is the square block size;
/// `keep_per_tile` is the number of *extra* past blocks each query tile retains
/// beyond the always-kept diagonal and `sink_blocks`; the resulting density per row
/// is roughly `(keep_per_tile + sink_blocks + 1) / row_blocks`.
///
/// The scoring is an upper bound (channelwise min/max of keys against the tile-mean
/// query), so blocks containing any key strongly aligned with the tile's queries
/// rank high — the property that makes the mask safe for retrieval-style prompts.
///
/// # Panics
///
/// Panics if shapes disagree or `tile == 0`.
///
/// # Example
///
/// ```
/// use lserve_attention::dynamic::build_dynamic_prefill_mask;
/// use lserve_tensor::SeededGaussian;
///
/// let mut g = SeededGaussian::new(1);
/// let q = g.matrix(64, 8, 1.0);
/// let k = g.matrix(64, 8, 1.0);
/// let mask = build_dynamic_prefill_mask(&q, &k, 16, 1, 1);
/// // Diagonal always kept.
/// assert!(mask.get(3, 3));
/// ```
pub fn build_dynamic_prefill_mask(
    q: &Matrix,
    k: &Matrix,
    tile: usize,
    keep_per_tile: usize,
    sink_blocks: usize,
) -> MaskPattern {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(q.rows(), k.rows(), "Q/K rows mismatch");
    assert_eq!(q.cols(), k.cols(), "Q/K dim mismatch");
    let (n, d) = q.shape();
    let nb = n.div_ceil(tile);
    let rows_of = |b: usize| b * tile * d..((b + 1) * tile).min(n) * d;

    // Per-KV-block key statistics (kmin/kmax per channel).
    let block_stats: Vec<LogicalPageStats> = (0..nb)
        .map(|b| block_key_stats(k.as_slice()[rows_of(b)].chunks_exact(d), d))
        .collect();

    let mut mask = MaskPattern::new(nb, nb);
    let mut row = Vec::with_capacity(nb);
    for qt in 0..nb {
        let queries = &q.as_slice()[rows_of(qt)];
        dynamic_mask_row(
            queries,
            d,
            &block_stats[..qt],
            keep_per_tile,
            sink_blocks,
            &mut row,
        );
        for kb in (0..=qt).filter(|&kb| row[kb]) {
            mask.set(qt, kb);
        }
    }
    mask
}

/// The key statistics of one block whose `d`-dimensional keys are `keys`.
pub(crate) fn block_key_stats<'a>(
    keys: impl IntoIterator<Item = &'a [f32]>,
    d: usize,
) -> LogicalPageStats {
    let mut s = LogicalPageStats::new(d);
    for key in keys {
        s.update(key);
    }
    s
}

/// One query tile's row of the dynamic mask: `row[kb]` for each key block
/// `0..=qt` of query tile `qt = past.len()`, whose queries are `queries`
/// (rows of `d`) and whose strictly-past blocks' key statistics are `past`.
/// The row keeps the diagonal, the first `sink_blocks` blocks and the
/// `keep_per_tile` past non-sink blocks of highest affinity. It reads
/// nothing after the tile, so a prefill that takes its rows a tile at a time
/// builds each row as its tile arrives.
pub(crate) fn dynamic_mask_row(
    queries: &[f32],
    d: usize,
    past: &[LogicalPageStats],
    keep_per_tile: usize,
    sink_blocks: usize,
    row: &mut Vec<bool>,
) {
    let qt = past.len();
    // Pooled query for the tile: the mean row. Mean pooling is what MInference's
    // offline pattern search approximates online; the min/max bound on the key
    // side compensates for within-tile query variance.
    let mut q_mean = vec![0.0f32; d];
    for query in queries.chunks_exact(d) {
        for (acc, &x) in q_mean.iter_mut().zip(query) {
            *acc += x;
        }
    }
    let inv = 1.0 / (queries.len() / d) as f32;
    for x in &mut q_mean {
        *x *= inv;
    }

    // Always keep the diagonal and the sinks.
    row.clear();
    row.resize(qt + 1, false);
    row[qt] = true;
    for kept in row.iter_mut().take(sink_blocks) {
        *kept = true;
    }
    // Rank strictly-past, non-sink blocks.
    let mut scores: Vec<(usize, f32)> = (past.iter().enumerate().skip(sink_blocks))
        .map(|(kb, stats)| (kb, stats.importance(&q_mean)))
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for &(kb, _) in scores.iter().take(keep_per_tile) {
        row[kb] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{BlockDecision, BlockPattern};
    use crate::prefill::prefill_attention;
    use crate::reference::causal_attention_reference;
    use lserve_tensor::SeededGaussian;

    #[test]
    fn diagonal_and_sinks_always_kept() {
        let mut g = SeededGaussian::new(2);
        let q = g.matrix(96, 8, 1.0);
        let k = g.matrix(96, 8, 1.0);
        let mask = build_dynamic_prefill_mask(&q, &k, 16, 0, 1);
        for qt in 0..6 {
            assert!(mask.get(qt, qt), "diagonal tile {qt}");
            assert!(mask.get(qt, 0), "sink from tile {qt}");
        }
    }

    #[test]
    fn density_matches_keep_budget() {
        let mut g = SeededGaussian::new(3);
        let q = g.matrix(128, 8, 1.0);
        let k = g.matrix(128, 8, 1.0);
        let keep = 2;
        let mask = build_dynamic_prefill_mask(&q, &k, 16, keep, 1);
        for qt in 0..8 {
            let visited = mask.blocks_for_tile(qt, 16, 16, 128).len();
            // diagonal + sink + up to `keep` extras, capped by causality.
            assert!(visited <= 2 + keep, "tile {qt}: {visited}");
        }
    }

    #[test]
    fn high_affinity_block_is_retained() {
        // Plant a "needle" block whose keys align with the last tile's queries.
        let mut g = SeededGaussian::new(4);
        let n = 160;
        let d = 8;
        let tile = 16;
        let mut q = g.matrix(n, d, 0.3);
        let mut k = g.matrix(n, d, 0.3);
        let needle_block = 3usize;
        for t in needle_block * tile..(needle_block + 1) * tile {
            k.row_mut(t)[0] = 5.0;
        }
        let last_tile = n / tile - 1;
        for t in last_tile * tile..n {
            q.row_mut(t)[0] = 5.0;
        }
        let mask = build_dynamic_prefill_mask(&q, &k, tile, 1, 0);
        assert!(
            mask.get(last_tile, needle_block),
            "needle block must win the single keep slot"
        );
    }

    #[test]
    fn masked_prefill_tracks_reference_on_retrieval_structure() {
        // When attention mass concentrates in a few blocks, the dynamic mask's
        // output stays close to dense attention while visiting far fewer tiles.
        let mut g = SeededGaussian::new(5);
        let n = 128;
        let d = 8;
        let tile = 16;
        let mut q = g.matrix(n, d, 0.2);
        let mut k = g.matrix(n, d, 0.2);
        let v = g.matrix(n, d, 1.0);
        // Every query strongly attends block 1.
        for t in tile..2 * tile {
            k.row_mut(t)[2] = 4.0;
        }
        for t in 0..n {
            q.row_mut(t)[2] = 4.0;
        }
        let scale = 1.0 / (d as f32).sqrt();
        let mask = build_dynamic_prefill_mask(&q, &k, tile, 1, 1);
        let (sparse, stats) = prefill_attention(&q, &k, &v, scale, tile, tile, &mask);
        let dense = causal_attention_reference(&q, &k, &v, scale);
        assert!(
            stats.sparsity() > 0.3,
            "mask must skip tiles: {}",
            stats.sparsity()
        );
        // Compare on the late rows (early rows have few causal blocks anyway).
        let mut worst = 0.0f32;
        for r in n / 2..n {
            for c in 0..d {
                worst = worst.max((sparse[(r, c)] - dense[(r, c)]).abs());
            }
        }
        assert!(worst < 0.15, "sparse drifted from dense: {worst}");
    }

    #[test]
    fn mask_is_causally_sound() {
        let mut g = SeededGaussian::new(6);
        let q = g.matrix(80, 8, 1.0);
        let k = g.matrix(80, 8, 1.0);
        let mask = build_dynamic_prefill_mask(&q, &k, 16, 3, 1);
        for qt in 0..5 {
            for (kb, decision) in mask.blocks_for_tile(qt, 16, 16, 80) {
                assert!(kb <= qt);
                if kb == qt {
                    assert_eq!(decision, BlockDecision::Causal);
                }
            }
        }
    }
}
