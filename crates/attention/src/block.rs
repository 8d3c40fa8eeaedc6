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
//!
//! **Codes in registers.** A quantized page's block is its codes: the fold
//! dequantizes each key column and value row as it reads them, `zero + code
//! as f32 * scale`, the f32 operations the scalar reference reads through
//! `QuantParams::dequantize`, so the operands — and the bits — are those of
//! an f32 copy. A pair of rows that both take a lane group straight through
//! dequantize each value row once for both, and a fold of more than a pair
//! (a run's deferred rows, a GQA group of four) dequantizes each lane group
//! once onto the stack and reads it there, so the unpacking is paid once a
//! lane group, not once a pair. Both measured faster than the plain
//! in-register read (DESIGN.md "Codes in registers").

use lserve_kvcache::{CodeLanes, PageCodes, PageData, KEY_LANES};

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
use crate::exp::Avx2Fma;
use crate::exp::{LaneOps, Libm};

/// A block of `n` keys and values: f32 rows (keys d-major in whole lane
/// groups, [`lserve_kvcache::key_lane_offset`], so lanes past `n` exist and
/// are never used; values row-major `n x D`), or a quantized page's codes.
pub(crate) type KvBlock<'a> = PageData<'a>;

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

/// A causal mask over a block: row `r` of a fold is the query at position
/// `q0 + r / rows_per_position` (a query tile has one row a position, a run of
/// decode rows a GQA group's), and the block's first key is at position `k0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Causal {
    pub q0: usize,
    pub k0: usize,
    pub rows_per_position: usize,
}

/// Folds `block` into `rows` (one per `D`-long row of `q` and of `acc`, which
/// starts zeroed). Every row attends the whole block, or under a [`Causal`]
/// mask only the keys at positions up to its own. `acc` holds unnormalized
/// sums until [`finish_rows`].
///
/// # Panics
///
/// Panics if the slice lengths disagree with `d` and `rows.len()`.
pub(crate) fn fold_block(
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<Causal>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    // One body, compiled twice. The AVX2+FMA copy differs only in its lane
    // operations, which make the scalar loop's decisions and have libm's
    // bits (`exp.rs`); Rust never contracts `a * b + c` into an FMA, so the
    // rest of the body keeps its bits too. Each copy is compiled once for
    // f32 rows and once for codes: in one function with the unpacking, the
    // f32 fold ran about 10 % slower.
    let codes = matches!(block, PageData::Codes(_));
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if let Some(ops) = Avx2Fma::detect() {
        // SAFETY: `detect` returned `ops`, so the host has AVX2 and FMA.
        return unsafe {
            match codes {
                false => fold_block_avx2::<false>(ops, d, q, scale, block, causal, rows, acc),
                true => fold_block_avx2::<true>(ops, d, q, scale, block, causal, rows, acc),
            }
        };
    }
    match codes {
        false => fold_block_with::<false>(Libm, d, q, scale, block, causal, rows, acc),
        true => fold_block_with::<true>(Libm, d, q, scale, block, causal, rows, acc),
    }
}

/// [`fold_block`] compiled for AVX2 and FMA, for f32 rows or for `CODES`.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn fold_block_avx2<const CODES: bool>(
    ops: Avx2Fma,
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<Causal>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    fold_block_with::<CODES>(ops, d, q, scale, block, causal, rows, acc);
}

/// [`fold_block`] with `ops` as its lane operations, for f32 rows or for
/// `CODES`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_block_with<const CODES: bool>(
    ops: impl LaneOps,
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<Causal>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    // The head dimensions of the models this repo runs get an instantiation
    // with `D` known (loops unroll, a row's sums stay in registers); any other
    // dimension runs the same body with `D` read at run time.
    match d {
        32 => fold_block_d::<32, CODES>(ops, d, q, scale, block, causal, rows, acc),
        64 => fold_block_d::<64, CODES>(ops, d, q, scale, block, causal, rows, acc),
        128 => fold_block_d::<128, CODES>(ops, d, q, scale, block, causal, rows, acc),
        _ => fold_block_d::<0, CODES>(ops, d, q, scale, block, causal, rows, acc),
    }
}

/// [`fold_block`] for head dimension `D`, or `d` when `D` is 0.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_block_d<const D: usize, const CODES: bool>(
    ops: impl LaneOps,
    d: usize,
    q: &[f32],
    scale: f32,
    block: KvBlock<'_>,
    causal: Option<Causal>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    let d = if D == 0 { d } else { D };
    assert_eq!(q.len(), rows.len() * d, "one query row per state");
    assert_eq!(acc.len(), q.len(), "one output row per query row");
    match block {
        PageData::Rows { keys, values } if !CODES => {
            assert_eq!(values.len() % d, 0, "ragged value rows");
            assert_eq!(keys.len() % (d * KEY_LANES), 0, "ragged key lane groups");
            assert!(values.len() <= keys.len(), "more values than key slots");
            let n = values.len() / d;
            let groups = keys
                .chunks_exact(d * KEY_LANES)
                .zip(values.chunks(d * KEY_LANES));
            for (start, group) in (0..n).step_by(KEY_LANES).zip(groups) {
                fold_rows::<D>(ops, d, q, scale, (n, start), group, causal, rows, acc);
            }
        }
        PageData::Codes(codes) if CODES && codes.is_int4() => {
            fold_codes::<D, true>(ops, d, q, scale, codes, causal, rows, acc)
        }
        PageData::Codes(codes) if CODES => {
            fold_codes::<D, false>(ops, d, q, scale, codes, causal, rows, acc)
        }
        _ => unreachable!("`fold_block` picks the instantiation by the block's kind"),
    }
}

/// Keys of the lane group at slots `start..` of a block of `n` that row `r`
/// attends.
#[inline(always)]
fn visible(causal: Option<Causal>, (n, start): (usize, usize), r: usize) -> usize {
    let keys = causal.map_or(n, |c| {
        // A query tile's rows are one a position: no division there.
        let position = match c.rows_per_position {
            1 => c.q0 + r,
            per => c.q0 + r / per,
        };
        (position + 1).saturating_sub(c.k0).min(n)
    });
    keys.saturating_sub(start).min(KEY_LANES)
}

/// Folds one lane group of f32 rows — `d x KEY_LANES` keys, up to
/// `KEY_LANES x d` values — slots `start..` of a block of `n`, into every
/// row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_rows<const D: usize>(
    ops: impl LaneOps,
    d: usize,
    q: &[f32],
    scale: f32,
    at: (usize, usize),
    (keys, values): (&[f32], &[f32]),
    causal: Option<Causal>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    // Rows two at a time (a GQA group, a query tile): what fits the
    // register file next to the lanes. Later rows see no fewer keys.
    let visible = |r: usize| visible(causal, at, r);
    let pairs = rows
        .chunks_mut(2)
        .zip(q.chunks(2 * d).zip(acc.chunks_mut(2 * d)));
    for (pair, (states, (q, acc))) in pairs.enumerate() {
        let r = 2 * pair;
        match states {
            [state0, state1] if visible(r + 1) > 0 => {
                let ((q0, q1), (acc0, acc1)) = (q.split_at(d), acc.split_at_mut(d));
                let [s0, s1] = scores([q0, q1], keys);
                fold_row::<D>(ops, &s0, visible(r), scale, values, state0, acc0);
                fold_row::<D>(ops, &s1, visible(r + 1), scale, values, state1, acc1);
            }
            [state0] if visible(r) > 0 => {
                let [s0] = scores([q], keys);
                fold_row::<D>(ops, &s0, visible(r), scale, values, state0, acc);
            }
            _ => {}
        }
    }
}

/// Scores of `R` query rows against one lane group of f32 keys: lanes across
/// keys, each lane summing dimensions in order, each key column loaded once
/// for all rows.
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
    // max ([`Folds::running_max`]), then the exps.
    let RowState { mut max, mut sum } = *state;
    let mut folds = ops.running_max(s, lanes, scale, &mut max);
    folds.exps(ops);
    // Then the normalizer and the weighted value sums, key by key, the sums
    // in registers for a known `D`.
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

    /// Pass two: the exps, every weight lane at once (an unfolded lane's
    /// argument is 0 and its weight unused), the rare corrections one by one.
    #[inline(always)]
    fn exps(&mut self, ops: impl LaneOps) {
        ops.exp(&mut self.weight);
        let mut corrections = self.corrected;
        while corrections != 0 {
            let lane = corrections.trailing_zeros() as usize;
            self.correction[lane] = self.correction[lane].exp();
            corrections &= corrections - 1;
        }
    }

    /// True when every lane is folded and none raised the max: the group
    /// goes straight through.
    #[inline(always)]
    fn straight(&self) -> bool {
        self.folded == ALL_LANES && self.rescaled == 0
    }

    /// Where key `lane` raised the max, rescales `sum` and `acc` by its
    /// correction before the key is added.
    #[inline(always)]
    fn correct(&self, lane: usize, sum: &mut f32, acc: &mut [f32]) {
        if self.rescaled & (1 << lane) != 0 {
            *sum *= self.correction[lane];
            for a in acc.iter_mut() {
                *a *= self.correction[lane];
            }
        }
    }

    /// The normalizer `sum` and the weighted value sums over f32 value rows,
    /// in key order.
    #[inline(always)]
    fn apply(&self, values: &[f32], sum: &mut f32, acc: &mut [f32]) {
        // The value rows zipped, not indexed: no bounds check per key.
        if self.straight() {
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
            self.correct(lane, sum, acc);
            *sum += self.weight[lane];
            for (a, &v) in acc.iter_mut().zip(value) {
                *a += self.weight[lane] * v;
            }
        }
    }
}

/// [`fold_block_d`] over a quantized page's codes. A pair of rows or fewer
/// reads each lane group in registers ([`CodeGroup`]). More rows would
/// unpack it once a pair, so then each lane group is dequantized once onto
/// the stack and folded as f32 rows (for a known `D`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_codes<const D: usize, const INT4: bool>(
    ops: impl LaneOps,
    d: usize,
    q: &[f32],
    scale: f32,
    codes: PageCodes<'_>,
    causal: Option<Causal>,
    rows: &mut [RowState],
    acc: &mut [f32],
) {
    let n = codes.len();
    let groups = (0..n).step_by(KEY_LANES).zip(codes.lane_groups());
    if D == 0 || rows.len() <= 2 {
        for (start, lanes) in groups {
            let group = CodeGroup::<INT4>(lanes);
            group.fold::<D>(ops, d, q, scale, (n, start), causal, rows, acc);
        }
        return;
    }
    // One lane group's keys and value rows, rewritten by every group: the
    // values past a last group's tokens are never read.
    let (mut keys, mut values) = ([[0.0f32; KEY_LANES]; D], [[0.0f32; D]; KEY_LANES]);
    for (start, lanes) in groups {
        lanes.dequantize_into::<INT4>(keys.as_flattened_mut(), values.as_flattened_mut());
        let group = (
            keys.as_flattened(),
            &values.as_flattened()[..(n - start).min(KEY_LANES) * D],
        );
        fold_rows::<D>(ops, d, q, scale, (n, start), group, causal, rows, acc);
    }
}

/// A lane group of INT4 (`INT4`) or INT8 codes, dequantized as it is read.
#[derive(Clone, Copy)]
struct CodeGroup<'a, const INT4: bool>(CodeLanes<'a>);

impl<const INT4: bool> CodeGroup<'_, INT4> {
    /// [`fold_rows`] for this lane group, slots `start..` of a block of `n`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn fold<const D: usize>(
        self,
        ops: impl LaneOps,
        d: usize,
        q: &[f32],
        scale: f32,
        at: (usize, usize),
        causal: Option<Causal>,
        rows: &mut [RowState],
        acc: &mut [f32],
    ) {
        let visible = |r: usize| visible(causal, at, r);
        let pairs = rows
            .chunks_mut(2)
            .zip(q.chunks(2 * d).zip(acc.chunks_mut(2 * d)));
        for (pair, (states, (q, acc))) in pairs.enumerate() {
            let r = 2 * pair;
            match states {
                [state0, state1] if visible(r + 1) > 0 => {
                    let ((q0, q1), (acc0, acc1)) = (q.split_at(d), acc.split_at_mut(d));
                    let [s0, s1] = self.scores(d, [q0, q1]);
                    let (lanes, states) = ([visible(r), visible(r + 1)], [state0, state1]);
                    self.fold_pair::<D>(ops, [&s0, &s1], lanes, scale, states, [acc0, acc1]);
                }
                [state0] if visible(r) > 0 => {
                    let [s0] = self.scores(d, [q]);
                    self.fold_row::<D>(ops, &s0, visible(r), scale, state0, acc);
                }
                _ => {}
            }
        }
    }

    /// [`scores`] against the group's keys, each key column unpacked once
    /// for all rows.
    #[inline(always)]
    fn scores<const R: usize>(self, d: usize, q: [&[f32]; R]) -> [[f32; KEY_LANES]; R] {
        let mut s = [[0.0f32; KEY_LANES]; R];
        let q = q.map(|q| &q[..d]);
        for i in 0..d {
            let column = self.0.key_column::<INT4>(i);
            for (s, q) in s.iter_mut().zip(q) {
                for (s, &k) in s.iter_mut().zip(&column) {
                    *s += q[i] * k;
                }
            }
        }
        s
    }

    /// [`fold_row`] over the group's value rows, each unpacked as it is
    /// added.
    #[inline(always)]
    fn fold_row<const D: usize>(
        self,
        ops: impl LaneOps,
        s: &[f32; KEY_LANES],
        lanes: usize,
        scale: f32,
        state: &mut RowState,
        acc: &mut [f32],
    ) {
        let RowState { mut max, mut sum } = *state;
        let mut folds = ops.running_max(s, lanes, scale, &mut max);
        folds.exps(ops);
        self.apply_row::<D>(&folds, &mut sum, acc);
        *state = RowState { max, sum };
    }

    /// [`Folds::apply`] over the group's value rows, the sums in registers
    /// for a known `D`.
    #[inline(always)]
    fn apply_row<const D: usize>(self, folds: &Folds, sum: &mut f32, acc: &mut [f32]) {
        if D == 0 {
            self.apply(folds, sum, acc);
        } else {
            let mut sums = [0.0f32; D];
            sums.copy_from_slice(acc);
            self.apply(folds, sum, &mut sums);
            acc.copy_from_slice(&sums);
        }
    }

    /// [`Folds::apply`] over the group's value rows.
    #[inline(always)]
    fn apply(self, folds: &Folds, sum: &mut f32, acc: &mut [f32]) {
        if folds.straight() {
            for (lane, &w) in folds.weight.iter().enumerate() {
                *sum += w;
                self.0.add_value::<INT4>(lane, w, acc);
            }
            return;
        }
        let mut folded = folds.folded;
        while folded != 0 {
            let lane = folded.trailing_zeros() as usize;
            folded &= folded - 1;
            folds.correct(lane, sum, acc);
            *sum += folds.weight[lane];
            self.0.add_value::<INT4>(lane, folds.weight[lane], acc);
        }
    }

    /// [`Self::fold_row`] for a pair of rows, except that where both take
    /// the group straight through (the common group) each value row is
    /// dequantized once for both. Each row's operations are its own, so the
    /// bits are [`Self::fold_row`]'s.
    #[inline(always)]
    fn fold_pair<const D: usize>(
        self,
        ops: impl LaneOps,
        [s0, s1]: [&[f32; KEY_LANES]; 2],
        [lanes0, lanes1]: [usize; 2],
        scale: f32,
        [state0, state1]: [&mut RowState; 2],
        [acc0, acc1]: [&mut [f32]; 2],
    ) {
        if D == 0 {
            self.fold_row::<D>(ops, s0, lanes0, scale, state0, acc0);
            self.fold_row::<D>(ops, s1, lanes1, scale, state1, acc1);
            return;
        }
        let mut folds0 = ops.running_max(s0, lanes0, scale, &mut state0.max);
        let mut folds1 = ops.running_max(s1, lanes1, scale, &mut state1.max);
        folds0.exps(ops);
        folds1.exps(ops);
        if !folds0.straight() || !folds1.straight() {
            self.apply_row::<D>(&folds0, &mut state0.sum, acc0);
            self.apply_row::<D>(&folds1, &mut state1.sum, acc1);
            return;
        }
        let (mut sums0, mut sums1, mut value) = ([0.0f32; D], [0.0f32; D], [0.0f32; D]);
        sums0.copy_from_slice(acc0);
        sums1.copy_from_slice(acc1);
        for (lane, (&w0, &w1)) in folds0.weight.iter().zip(&folds1.weight).enumerate() {
            state0.sum += w0;
            state1.sum += w1;
            self.0.value_row::<INT4>(lane, &mut value);
            for (a, &v) in sums0.iter_mut().zip(&value) {
                *a += w0 * v;
            }
            for (a, &v) in sums1.iter_mut().zip(&value) {
                *a += w1 * v;
            }
        }
        acc0.copy_from_slice(&sums0);
        acc1.copy_from_slice(&sums1);
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
    use lserve_kvcache::{DenseHeadCache, PagePool, PagingConfig, StreamingWindow};
    use lserve_quant::KvPrecision;
    use lserve_tensor::{Matrix, SeededGaussian};

    use crate::decode::decode_group;
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
                        scalar::attend_pages(&pool, &cache, queries.row(r), scale, selection)
                    })
                    .collect();
                each_copy(|copy| {
                    let mut out = vec![f32::NAN; group * d];
                    let stats = decode_group(
                        &pool,
                        &cache,
                        d,
                        group,
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

    /// Run folding: the last `m` positions of a head folded in one pass —
    /// the tail page under the causal mask, `group` rows a position — are
    /// each position attending the head as it stood when it was the last,
    /// bit for bit, over the decode matrix's dimensions and precisions,
    /// through both copies, the full history and a selection.
    #[test]
    fn a_run_of_positions_is_each_position_alone() {
        for (d, tokens, precision, group) in decode_cases(2).filter(|c| c.1 % 64 >= 5) {
            let mut g = SeededGaussian::new((d * 4000 + tokens) as u64);
            let (k, v) = (g.matrix(tokens, d, 1.0), g.matrix(tokens, d, 1.0));
            let fill = |n: usize| {
                let mut pool = PagePool::new(PagingConfig::new(64, 16, precision), 8, d);
                let mut cache = DenseHeadCache::new();
                for t in 0..n {
                    assert!(cache.append(&mut pool, k.row(t), v.row(t)));
                }
                (pool, cache)
            };
            // The head as it stood after each of its last five tokens.
            let alone: Vec<_> = (tokens - 4..=tokens).map(fill).collect();
            let (pool, cache) = &alone[4];
            let scale = 1.0 / (d as f32).sqrt();
            for m in [2, 5] {
                let queries = g.matrix(m * group, d, 1.0);
                for selection in [None, Some(&[2usize, 0][..])] {
                    let want: Vec<f32> = (0..m * group)
                        .flat_map(|r| {
                            let (pool, cache) = &alone[5 - m + r / group];
                            let q = queries.row(r);
                            scalar::attend_pages(pool, cache, q, scale, selection)
                        })
                        .collect();
                    each_copy(|copy| {
                        let mut out = vec![f32::NAN; m * group * d];
                        let q = queries.as_slice();
                        decode_group(pool, cache, d, group, q, scale, selection, &mut out);
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "{copy}: d {d} tokens {tokens} {precision:?} group {group} m {m} {selection:?}"
                        );
                    });
                }
            }
        }
    }

    #[test]
    fn streaming_decode_is_bitwise_the_scalar_loop() {
        // Five full pages before the last: the window has slid past the sink.
        for (d, tokens, precision, group) in decode_cases(5) {
            let mut g = SeededGaussian::new((d * 2000 + tokens) as u64);
            let mut pool = PagePool::new(PagingConfig::new(64, 16, precision), 8, d);
            let mut cache = DenseHeadCache::with_window(Some(StreamingWindow::new(1, 2)));
            for _ in 0..tokens {
                let (k, v) = (g.matrix(1, d, 1.0), g.matrix(1, d, 1.0));
                assert!(cache.append(&mut pool, k.row(0), v.row(0)));
            }
            let queries = g.matrix(group, d, 1.0);
            let scale = 1.0 / (d as f32).sqrt();
            let want: Vec<f32> = (0..group)
                .flat_map(|r| scalar::attend_pages(&pool, &cache, queries.row(r), scale, None))
                .collect();
            each_copy(|copy| {
                let mut out = vec![f32::NAN; group * d];
                let stats = decode_group(
                    &pool,
                    &cache,
                    d,
                    group,
                    queries.as_slice(),
                    scale,
                    None,
                    &mut out,
                );
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
