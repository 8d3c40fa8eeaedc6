//! Elementwise and reduction kernels: softmax (batch + online), RMSNorm, SiLU.

use crate::Matrix;

/// Numerically safe in-place softmax over each row of `m`.
///
/// Subtracts the row max before exponentiating, so arbitrarily large logits are fine.
/// Rows of `-inf` (fully masked) become uniform zeros rather than NaN.
///
/// # Example
///
/// ```
/// use lserve_tensor::{softmax_in_place, Matrix};
///
/// let mut m = Matrix::from_rows(&[&[0.0, 0.0]]);
/// softmax_in_place(&mut m);
/// assert!((m[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_in_place(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            row.fill(0.0);
            continue;
        }
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Index of the maximum element (first occurrence on ties).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// RMSNorm: `x_i * w_i / sqrt(mean(x^2) + eps)` applied to each row of `m`.
///
/// # Panics
///
/// Panics if `weight.len() != m.cols()`.
pub fn rms_norm(m: &mut Matrix, weight: &[f32], eps: f32) {
    assert_eq!(weight.len(), m.cols(), "rms_norm weight length mismatch");
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let ms: f32 = row.iter().map(|x| x * x).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (x, w) in row.iter_mut().zip(weight) {
            *x = *x * inv * w;
        }
    }
}

/// SiLU activation `x * sigmoid(x)` applied in place.
pub fn silu(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = *x / (1.0 + (-*x).exp());
    }
}

pub mod online_softmax {
    //! Streaming (flash-attention style) softmax accumulation.
    //!
    //! Block-sparse attention processes the KV history one block at a time. The
    //! [`OnlineSoftmax`] accumulator folds each block's scores and values into a running
    //! `(max, sum, weighted-output)` triple so the final output equals what a monolithic
    //! softmax over all visited blocks would produce — this is the numerical core of
    //! both the prefill and decode kernels in the LServe reproduction.

    /// Running softmax-weighted accumulator over value vectors of fixed dimension.
    ///
    /// # Example
    ///
    /// ```
    /// use lserve_tensor::OnlineSoftmax;
    ///
    /// let mut acc = OnlineSoftmax::new(2);
    /// acc.update(0.0, &[1.0, 0.0]);
    /// acc.update(0.0, &[0.0, 1.0]);
    /// let out = acc.finish();
    /// assert!((out[0] - 0.5).abs() < 1e-6 && (out[1] - 0.5).abs() < 1e-6);
    /// ```
    #[derive(Debug, Clone)]
    pub struct OnlineSoftmax {
        max: f32,
        sum: f32,
        acc: Vec<f32>,
    }

    impl OnlineSoftmax {
        /// Creates an accumulator for value vectors of dimension `dim`.
        pub fn new(dim: usize) -> Self {
            Self {
                max: f32::NEG_INFINITY,
                sum: 0.0,
                acc: vec![0.0; dim],
            }
        }

        /// Folds a single `(score, value)` pair into the accumulator.
        ///
        /// # Panics
        ///
        /// Panics if `value.len()` differs from the accumulator dimension.
        pub fn update(&mut self, score: f32, value: &[f32]) {
            assert_eq!(value.len(), self.acc.len(), "value dimension mismatch");
            if score == f32::NEG_INFINITY {
                return; // fully masked entry contributes nothing
            }
            if score > self.max {
                let correction = if self.max == f32::NEG_INFINITY {
                    0.0
                } else {
                    (self.max - score).exp()
                };
                self.sum *= correction;
                for a in &mut self.acc {
                    *a *= correction;
                }
                self.max = score;
            }
            let w = (score - self.max).exp();
            self.sum += w;
            for (a, v) in self.acc.iter_mut().zip(value) {
                *a += w * v;
            }
        }

        /// Number of value dimensions.
        pub fn dim(&self) -> usize {
            self.acc.len()
        }

        /// True if no unmasked score has been folded in yet.
        pub fn is_empty(&self) -> bool {
            self.sum == 0.0
        }

        /// Finalizes into the softmax-weighted mean of the folded values.
        ///
        /// Returns all-zeros if nothing was folded in (fully masked row).
        pub fn finish(self) -> Vec<f32> {
            if self.sum == 0.0 {
                return self.acc; // zeros
            }
            let inv = 1.0 / self.sum;
            self.acc.into_iter().map(|a| a * inv).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::online_softmax::OnlineSoftmax;
    use super::*;

    fn naive_softmax_weighted(scores: &[f32], values: &[Vec<f32>]) -> Vec<f32> {
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let ws: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f32 = ws.iter().sum();
        let dim = values[0].len();
        let mut out = vec![0.0; dim];
        for (w, v) in ws.iter().zip(values) {
            for (o, x) in out.iter_mut().zip(v) {
                *o += w / sum * x;
            }
        }
        out
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        softmax_in_place(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut m = Matrix::from_rows(&[&[1000.0, 1000.0]]);
        softmax_in_place(&mut m);
        assert!((m[(0, 0)] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_fully_masked_row_is_zero() {
        let mut m = Matrix::from_rows(&[&[f32::NEG_INFINITY, f32::NEG_INFINITY]]);
        softmax_in_place(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn online_matches_naive() {
        let scores = [0.3f32, -1.2, 2.5, 0.0, 7.0];
        let values: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32, 1.0 - i as f32, 0.5 * i as f32])
            .collect();
        let mut acc = OnlineSoftmax::new(3);
        for (s, v) in scores.iter().zip(&values) {
            acc.update(*s, v);
        }
        let got = acc.finish();
        let want = naive_softmax_weighted(&scores, &values);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn online_order_invariance() {
        let scores = [5.0f32, -3.0, 0.1, 2.2];
        let values: Vec<Vec<f32>> = (0..4).map(|i| vec![(i * i) as f32, -(i as f32)]).collect();
        let mut fwd = OnlineSoftmax::new(2);
        let mut rev = OnlineSoftmax::new(2);
        for (s, v) in scores.iter().zip(&values) {
            fwd.update(*s, v);
        }
        for (s, v) in scores.iter().zip(&values).rev() {
            rev.update(*s, v);
        }
        let a = fwd.finish();
        let b = rev.finish();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn online_masked_updates_are_ignored() {
        let mut acc = OnlineSoftmax::new(1);
        acc.update(f32::NEG_INFINITY, &[99.0]);
        acc.update(0.0, &[1.0]);
        assert_eq!(acc.finish(), vec![1.0]);
    }

    #[test]
    fn online_empty_finishes_to_zero() {
        let acc = OnlineSoftmax::new(3);
        assert!(acc.is_empty());
        assert_eq!(acc.finish(), vec![0.0; 3]);
    }

    #[test]
    fn rms_norm_unit_weight_normalizes() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0]]);
        rms_norm(&mut m, &[1.0, 1.0], 0.0);
        let ms: f32 = m.row(0).iter().map(|x| x * x).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn silu_known_points() {
        let mut xs = [0.0f32, 10.0];
        silu(&mut xs);
        assert!(xs[0].abs() < 1e-6);
        assert!((xs[1] - 10.0).abs() < 1e-3); // sigmoid(10) ~ 1
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
