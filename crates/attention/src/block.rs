//! The block routine under both attention kernels (§3.1, Figure 2): fold one
//! block of keys and values — a K tile in prefill, a KV page in decode — into
//! the running softmax state of a group of query rows.
//!
//! **Fixed order ⇒ fixed bits.** Online softmax is *not* invariant to the
//! order keys are folded in (float addition does not reassociate), so the
//! routine pins the order instead: every row folds the block's keys in slot
//! order, every score sums its dimensions `0..D` in order, and the per-key
//! max/rescale/accumulate is the textbook recurrence, one key at a time. What
//! changes against a one-key-at-a-time loop is only *which independent work
//! runs side by side*: keys are stored d-major, so the [`KEY_LANES`] scores of
//! a lane group are [`KEY_LANES`] independent add chains fed by contiguous
//! loads (one dependent chain per score was the kernel's whole latency), and
//! the group's rows reuse each lane group while it is hot. Outputs are
//! bit-identical to `crate::reference::scalar`, which tests hold it to.

use lserve_kvcache::KEY_LANES;

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
use crate::exp::Avx2Fma;
use crate::exp::{LaneOps, Libm};

/// A block of `n` keys and values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KvBlock<'a> {
    /// Keys, d-major in lane groups ([`lserve_kvcache::key_lane_offset`]):
    /// whole groups, so lanes past `n` exist and are never used.
    pub keys: &'a [f32],
    /// Values, row-major `n x D`.
    pub values: &'a [f32],
}

/// Running softmax state of one query row; its weighted value sum lives in the
/// caller's output row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowState {
    max: f32,
    sum: f32,
}

impl RowState {
    pub const EMPTY: Self = Self {
        max: f32::NEG_INFINITY,
        sum: 0.0,
    };
}

/// Folds `block` into `rows` (one per `D`-long row of `q` and of `acc`, which
/// starts zeroed). Every row attends the whole block, or under
/// `causal = Some((q0, k0))` — row `r` is the query at position `q0 + r`, the
/// block's first key is at position `k0` — only the keys at positions up to
/// its own. `acc` holds unnormalized sums until [`finish_rows`].
///
/// # Panics
///
/// Panics if the slice lengths disagree with `d` and `rows.len()`.
pub(crate) fn fold_block(
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<(usize, usize)>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    // One body, compiled twice. The AVX2+FMA copy differs only in its lane
    // operations, which make the scalar loop's decisions and have libm's
    // bits (`exp.rs`); Rust never contracts `a * b + c` into an FMA, so the
    // rest of the body keeps its bits too.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if let Some(ops) = Avx2Fma::detect() {
        // SAFETY: `detect` returned `ops`, so the host has AVX2 and FMA.
        return unsafe { fold_block_avx2(ops, d, q, scale, block, causal, rows, acc) };
    }
    fold_block_with(Libm, d, q, scale, block, causal, rows, acc);
}

/// [`fold_block`] compiled for AVX2 and FMA.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn fold_block_avx2(
    ops: Avx2Fma,
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<(usize, usize)>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    fold_block_with(ops, d, q, scale, block, causal, rows, acc);
}

/// [`fold_block`] with `ops` as its lane operations.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_block_with(
    ops: impl LaneOps,
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<(usize, usize)>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    // The head dimensions of the models this repo runs get an instantiation
    // with `D` known (loops unroll, a row's sums stay in registers); any other
    // dimension runs the same body with `D` read at run time.
    match d {
        32 => fold_block_d::<32>(ops, d, q, scale, block, causal, rows, acc),
        64 => fold_block_d::<64>(ops, d, q, scale, block, causal, rows, acc),
        128 => fold_block_d::<128>(ops, d, q, scale, block, causal, rows, acc),
        _ => fold_block_d::<0>(ops, d, q, scale, block, causal, rows, acc),
    }
}

/// Scores of `R` query rows against one lane group: lanes across keys, each
/// lane summing dimensions in order, each key column loaded once for all rows.
#[inline(always)]
fn scores<const R: usize>(q: [&[f32]; R], group: &[f32]) -> [[f32; KEY_LANES]; R] {
    let mut s = [[0.0f32; KEY_LANES]; R];
    let q = q.map(|q| &q[..group.len() / KEY_LANES]);
    for (i, column) in group.chunks_exact(KEY_LANES).enumerate() {
        for (s, q) in s.iter_mut().zip(q) {
            for (s, &k) in s.iter_mut().zip(column) {
                *s += q[i] * k;
            }
        }
    }
    s
}

/// Folds the first `lanes` keys of one lane group — their scores in `s`, their
/// `d`-long value rows leading `values` — into one row's state and sums.
#[inline(always)]
fn fold_row<const D: usize>(
    ops: impl LaneOps,
    s: &[f32; KEY_LANES],
    lanes: usize,
    scale: f32,
    values: &[f32],
    state: &mut RowState,
    acc: &mut [f32],
) {
    // The max/normalizer recurrence in three passes over the lane group: the
    // same operations on the same operands, in the same order, as one key at
    // a time. The exps get a pass of their own (one lane `exp` for all of
    // them) and no call interrupts the sums of the last. First the running
    // max ([`Folds::running_max`]).
    let RowState { mut max, mut sum } = *state;
    let mut folds = ops.running_max(s, lanes, scale, &mut max);
    // Then the exps: every weight lane at once (an unfolded lane's argument
    // is 0 and its weight unused), the rare corrections one by one.
    ops.exp(&mut folds.weight);
    let mut corrections = folds.corrected;
    while corrections != 0 {
        let lane = corrections.trailing_zeros() as usize;
        folds.correction[lane] = folds.correction[lane].exp();
        corrections &= corrections - 1;
    }
    // Then the normalizer and the weighted value sums, key by key.
    if D == 0 {
        folds.apply(values, &mut sum, acc);
    } else {
        let mut sums = [0.0f32; D];
        sums.copy_from_slice(acc);
        folds.apply(values, &mut sum, &mut sums);
        acc.copy_from_slice(&sums);
    }
    *state = RowState { max, sum };
}

/// The [`Folds`] mask of a whole lane group.
const ALL_LANES: u32 = (1 << KEY_LANES) - 1;

/// What the recurrence decided for the keys of one lane group.
#[derive(Default)]
pub(crate) struct Folds {
    /// Bit per lane: the key is folded in (visible, and its score not `-inf`).
    pub folded: u32,
    /// Bit per lane: the key raised the max, so `correction` applies first.
    pub rescaled: u32,
    /// Bit per lane: the key raised a finite max, so `correction` holds an
    /// argument still to go through `exp` (from `-inf` it stays 0).
    pub corrected: u32,
    pub weight: [f32; KEY_LANES],
    pub correction: [f32; KEY_LANES],
}

impl Folds {
    /// The running max over the first `lanes` scores of `s` (times `scale`),
    /// key by key: each folded key's weight argument `score − max`, and where
    /// the max rose, its correction argument `max_prev − score`. `max` goes
    /// in as the row's and comes out raised. The baseline copy's pass one.
    #[inline(always)]
    pub(crate) fn running_max(
        s: &[f32; KEY_LANES],
        lanes: usize,
        scale: f32,
        max: &mut f32,
    ) -> Self {
        let mut folds = Folds::default();
        for (lane, &s) in s[..lanes].iter().enumerate() {
            let score = s * scale;
            if score == f32::NEG_INFINITY {
                continue; // fully masked entry contributes nothing
            }
            if score > *max {
                if *max != f32::NEG_INFINITY {
                    folds.correction[lane] = *max - score;
                    folds.corrected |= 1 << lane;
                }
                *max = score;
                folds.rescaled |= 1 << lane;
            }
            folds.weight[lane] = score - *max;
            folds.folded |= 1 << lane;
        }
        folds
    }

    /// The normalizer `sum` and the weighted value sums, in key order.
    #[inline(always)]
    fn apply(&self, values: &[f32], sum: &mut f32, acc: &mut [f32]) {
        if self.folded == ALL_LANES && self.rescaled == 0 {
            // The common group, straight through: the same operations in the
            // same order as below, with no test per key.
            for (&w, value) in self.weight.iter().zip(values.chunks_exact(acc.len())) {
                *sum += w;
                for (a, &v) in acc.iter_mut().zip(value) {
                    *a += w * v;
                }
            }
            return;
        }
        for (lane, value) in values.chunks_exact(acc.len()).enumerate() {
            if self.folded & (1 << lane) == 0 {
                continue;
            }
            if self.rescaled & (1 << lane) != 0 {
                *sum *= self.correction[lane];
                for a in acc.iter_mut() {
                    *a *= self.correction[lane];
                }
            }
            *sum += self.weight[lane];
            for (a, &v) in acc.iter_mut().zip(value) {
                *a += self.weight[lane] * v;
            }
        }
    }
}

/// [`fold_block`] for head dimension `D`, or `d` when `D` is 0.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_block_d<const D: usize>(
    ops: impl LaneOps,
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<(usize, usize)>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    let d = if D == 0 { d } else { D };
    assert_eq!(q.len(), rows.len() * d, "one query row per state");
    assert_eq!(acc.len(), q.len(), "one output row per query row");
    assert_eq!(block.values.len() % d, 0, "ragged value rows");
    assert_eq!(
        block.keys.len() % (d * KEY_LANES),
        0,
        "ragged key lane groups"
    );
    assert!(
        block.values.len() <= block.keys.len(),
        "more values than key slots"
    );
    let n = block.values.len() / d;
    let groups = block.keys.chunks_exact(d * KEY_LANES);
    let values = block.values.chunks(d * KEY_LANES);
    for ((start, group), values) in (0..n).step_by(KEY_LANES).zip(groups).zip(values) {
        // Lanes of this group that row `r` attends.
        let visible = |r: usize| {
            let keys = causal.map_or(n, |(q0, k0)| (q0 + r + 1).saturating_sub(k0).min(n));
            keys.saturating_sub(start).min(KEY_LANES)
        };
        // Rows two at a time (a GQA group, a query tile): what fits the
        // register file next to the lanes. Later rows see no fewer keys.
        let pairs = rows
            .chunks_mut(2)
            .zip(q.chunks(2 * d).zip(acc.chunks_mut(2 * d)));
        for (pair, (states, (q, acc))) in pairs.enumerate() {
            let r = 2 * pair;
            match states {
                [state0, state1] if visible(r + 1) > 0 => {
                    let ((q0, q1), (acc0, acc1)) = (q.split_at(d), acc.split_at_mut(d));
                    let [s0, s1] = scores([q0, q1], group);
                    fold_row::<D>(ops, &s0, visible(r), scale, values, state0, acc0);
                    fold_row::<D>(ops, &s1, visible(r + 1), scale, values, state1, acc1);
                }
                [state0] if visible(r) > 0 => {
                    let [s0] = scores([q], group);
                    fold_row::<D>(ops, &s0, visible(r), scale, values, state0, acc);
                }
                _ => {}
            }
        }
    }
}

/// Normalizes the folded sums in place: each row becomes the softmax-weighted
/// mean of the values it attended, all zeros if it attended none.
pub(crate) fn finish_rows(d: usize, rows: &[RowState], acc: &mut [f32]) {
    assert_eq!(acc.len(), rows.len() * d, "one output row per state");
    for (state, acc) in rows.iter().zip(acc.chunks_mut(d)) {
        if state.sum != 0.0 {
            let inv = 1.0 / state.sum;
            for a in acc {
                *a *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use lserve_kvcache::{
        DenseHeadCache, PagePool, PagingConfig, StreamingHeadCache, StreamingWindow,
    };
    use lserve_quant::KvPrecision;
    use lserve_tensor::{Matrix, SeededGaussian};

    use crate::decode::{decode_dense_group, decode_streaming_group};
    use crate::exp::each_copy;
    use crate::pattern::{BlockPattern, DensePattern, MaskPattern, StreamingPattern};
    use crate::prefill::prefill_attention;
    use crate::reference::scalar;

    const HEAD_DIMS: [usize; 6] = [4, 5, 8, 32, 64, 128];
    const LAST_PAGE_FILLS: [usize; 6] = [1, 7, 8, 9, 63, 64];
    const PRECISIONS: [KvPrecision; 3] = [KvPrecision::Fp16, KvPrecision::Int8, KvPrecision::Int4];
    const GROUPS: [usize; 3] = [1, 2, 4];

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every case of the decode matrix: `pages` full 64-token pages before a
    /// last page of each fill.
    fn decode_cases(pages: usize) -> impl Iterator<Item = (usize, usize, KvPrecision, usize)> {
        HEAD_DIMS.into_iter().flat_map(move |d| {
            LAST_PAGE_FILLS.into_iter().flat_map(move |fill| {
                PRECISIONS.into_iter().flat_map(move |precision| {
                    GROUPS
                        .into_iter()
                        .map(move |group| (d, pages * 64 + fill, precision, group))
                })
            })
        })
    }

    #[test]
    fn dense_decode_is_bitwise_the_scalar_loop() {
        for (d, tokens, precision, group) in decode_cases(2) {
            let mut g = SeededGaussian::new((d * 1000 + tokens) as u64);
            let mut pool = PagePool::new(PagingConfig::new(64, 16, precision), 8, d);
            let mut cache = DenseHeadCache::new();
            let (k, v) = (g.matrix(tokens, d, 1.0), g.matrix(tokens, d, 1.0));
            for t in 0..tokens {
                assert!(cache.append(&mut pool, k.row(t), v.row(t)));
            }
            let queries = g.matrix(group, d, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            // Full history, then a permuted subset led by the partial last page.
            for selection in [None, Some(&[2usize, 0][..])] {
                let want: Vec<f32> = (0..group)
                    .flat_map(|r| {
                        scalar::decode_dense_head(&pool, &cache, queries.row(r), scale, selection)
                    })
                    .collect();
                each_copy(|copy| {
                    let mut out = vec![f32::NAN; group * d];
                    let stats = decode_dense_group(
                        &pool,
                        &cache,
                        d,
                        queries.as_slice(),
                        scale,
                        selection,
                        &mut out,
                    );
                    let visited = match selection {
                        None => tokens,
                        Some(_) => tokens - 64,
                    };
                    assert_eq!(stats.tokens_visited, (group * visited) as u64);
                    assert_eq!(stats.pages_total, (group * 3) as u64);
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "{copy}: d {d} tokens {tokens} {precision:?} group {group} {selection:?}"
                    );
                });
            }
        }
    }

    #[test]
    fn streaming_decode_is_bitwise_the_scalar_loop() {
        // Five full pages before the last: the window has slid past the sink.
        for (d, tokens, precision, group) in decode_cases(5) {
            let mut g = SeededGaussian::new((d * 2000 + tokens) as u64);
            let mut pool = PagePool::new(PagingConfig::new(64, 16, precision), 8, d);
            let mut cache = StreamingHeadCache::new(StreamingWindow::new(1, 2));
            for _ in 0..tokens {
                let (k, v) = (g.matrix(1, d, 1.0), g.matrix(1, d, 1.0));
                assert!(cache.append(&mut pool, k.row(0), v.row(0)));
            }
            let queries = g.matrix(group, d, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let want: Vec<f32> = (0..group)
                .flat_map(|r| scalar::decode_streaming_head(&pool, &cache, queries.row(r), scale))
                .collect();
            each_copy(|copy| {
                let mut out = vec![f32::NAN; group * d];
                let stats =
                    decode_streaming_group(&pool, &cache, d, queries.as_slice(), scale, &mut out);
                assert!(stats.pages_visited <= (group * 3) as u64);
                assert_eq!(
                    bits(&out),
                    bits(&want),
                    "{copy}: d {d} tokens {tokens} {precision:?} group {group}"
                );
            });
        }
    }

    #[test]
    fn prefill_is_bitwise_the_scalar_loop() {
        for d in [8usize, 32] {
            for n in [1usize, 17, 64, 65, 200] {
                for tile in [8usize, 64] {
                    let mut g = SeededGaussian::new((d * 3000 + n * 10 + tile) as u64);
                    let (q, k, v) = (
                        g.matrix(n, d, 1.0),
                        g.matrix(n, d, 1.0),
                        g.matrix(n, d, 1.0),
                    );
                    let blocks = n.div_ceil(tile);
                    let mask = MaskPattern::random_causal(blocks, blocks, 1, 41);
                    let patterns: [(&str, &dyn BlockPattern); 3] = [
                        ("dense", &DensePattern),
                        ("streaming", &StreamingPattern::new(1, 2)),
                        ("mask", &mask),
                    ];
                    for (name, pattern) in patterns {
                        let want = scalar::prefill_attention(&q, &k, &v, 0.3, tile, tile, pattern);
                        each_copy(|copy| {
                            let (got, _) = prefill_attention(&q, &k, &v, 0.3, tile, tile, pattern);
                            assert_eq!(
                                bits(got.as_slice()),
                                bits(want.as_slice()),
                                "{copy}: d {d} n {n} tile {tile} {name}"
                            );
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn prefill_tiles_need_not_be_square() {
        // A causal tile wider than the query tile: rows below its first key
        // see none of it.
        let mut g = SeededGaussian::new(9);
        let (q, k, v): (Matrix, Matrix, Matrix) = (
            g.matrix(50, 8, 1.0),
            g.matrix(50, 8, 1.0),
            g.matrix(50, 8, 1.0),
        );
        for (tq, tk) in [(4usize, 16usize), (16, 4), (8, 20)] {
            let want = scalar::prefill_attention(&q, &k, &v, 0.5, tq, tk, &DensePattern);
            each_copy(|copy| {
                let (got, _) = prefill_attention(&q, &k, &v, 0.5, tq, tk, &DensePattern);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "{copy}: tq {tq} tk {tk}"
                );
            });
        }
    }
}
