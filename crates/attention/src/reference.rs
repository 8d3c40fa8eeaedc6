//! Naive reference attention implementations used as ground truth in tests.

use lserve_tensor::{softmax_in_place, Matrix};

/// Dense causal attention computed the naive way: full `QK^T`, explicit causal mask,
/// batch softmax, then `PV`. Quadratic memory; only for testing and tiny inputs.
///
/// `q`, `k`, `v` are `(N x D)` single-head matrices; `scale` is usually
/// `1/sqrt(D)`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn causal_attention_reference(q: &Matrix, k: &Matrix, v: &Matrix, scale: f32) -> Matrix {
    let n = q.rows();
    assert_eq!(k.rows(), n, "K rows mismatch");
    assert_eq!(v.rows(), n, "V rows mismatch");
    assert_eq!(q.cols(), k.cols(), "Q/K dim mismatch");
    let mut scores = q.matmul_nt(k);
    scores.scale(scale);
    for i in 0..n {
        for j in (i + 1)..n {
            scores[(i, j)] = f32::NEG_INFINITY;
        }
    }
    softmax_in_place(&mut scores);
    scores.matmul(v)
}

/// Attention under an arbitrary token-level visibility mask:
/// `visible(i, j) == true` means query `i` may attend key `j`. Causality is *not*
/// implied; pass it inside the closure.
///
/// Used to cross-check block patterns: expanding a block pattern to token level and
/// feeding it here must match the block-sparse kernel exactly.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn masked_attention_reference<F>(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
    visible: F,
) -> Matrix
where
    F: Fn(usize, usize) -> bool,
{
    let n = q.rows();
    let m = k.rows();
    assert_eq!(v.rows(), m, "K/V rows mismatch");
    assert_eq!(q.cols(), k.cols(), "Q/K dim mismatch");
    let mut scores = q.matmul_nt(k);
    scores.scale(scale);
    for i in 0..n {
        for j in 0..m {
            if !visible(i, j) {
                scores[(i, j)] = f32::NEG_INFINITY;
            }
        }
    }
    softmax_in_place(&mut scores);
    scores.matmul(v)
}

/// The kernels as they were before the block routine: one key at a time, one
/// dependent add chain per score, an [`OnlineSoftmax`] per query row. Slow and
/// obviously in order — the bits [`crate::block`] must reproduce exactly.
#[cfg(test)]
pub(crate) mod scalar {
    use lserve_kvcache::{DenseHeadCache, PageId, PagePool, StreamingHeadCache};
    use lserve_tensor::{Matrix, OnlineSoftmax};

    use crate::pattern::{BlockDecision, BlockPattern};

    fn fold_key(acc: &mut OnlineSoftmax, q: &[f32], key: &[f32], value: &[f32], scale: f32) {
        let mut s = 0.0f32;
        for (a, b) in q.iter().zip(key) {
            s += a * b;
        }
        acc.update(s * scale, value);
    }

    fn attend_pages(
        pool: &PagePool,
        pages: impl Iterator<Item = PageId>,
        q: &[f32],
        scale: f32,
    ) -> Vec<f32> {
        let mut acc = OnlineSoftmax::new(q.len());
        for id in pages {
            let page = pool.page(id);
            for t in 0..page.len() {
                fold_key(&mut acc, q, &page.key_row(t), page.value_row(t), scale);
            }
        }
        acc.finish()
    }

    /// One query row against a dense head's full or selected page table.
    pub fn decode_dense_head(
        pool: &PagePool,
        cache: &DenseHeadCache,
        q: &[f32],
        scale: f32,
        selected_pages: Option<&[usize]>,
    ) -> Vec<f32> {
        let table = cache.page_table();
        match selected_pages {
            Some(sel) => attend_pages(pool, sel.iter().map(|&p| table[p]), q, scale),
            None => attend_pages(pool, table.iter().copied(), q, scale),
        }
    }

    /// One query row against a streaming head's resident pages.
    pub fn decode_streaming_head(
        pool: &PagePool,
        cache: &StreamingHeadCache,
        q: &[f32],
        scale: f32,
    ) -> Vec<f32> {
        let pages = cache.page_table(pool).into_iter().map(|(_, id)| id);
        attend_pages(pool, pages, q, scale)
    }

    /// Block-sparse prefill for one head, row by row and key by key.
    pub fn prefill_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        scale: f32,
        tq: usize,
        tk: usize,
        pattern: &dyn BlockPattern,
    ) -> Matrix {
        let (n, d) = q.shape();
        let mut out = Matrix::zeros(n, d);
        for qt in 0..n.div_ceil(tq) {
            let q_start = qt * tq;
            let q_end = ((qt + 1) * tq).min(n);
            let mut accs: Vec<OnlineSoftmax> =
                (q_start..q_end).map(|_| OnlineSoftmax::new(d)).collect();
            for (kb, decision) in pattern.blocks_for_tile(qt, tq, tk, n) {
                let k_start = kb * tk;
                let k_end = ((kb + 1) * tk).min(n);
                for (qi_local, acc) in accs.iter_mut().enumerate() {
                    let qi = q_start + qi_local;
                    for kj in k_start..k_end {
                        if decision == BlockDecision::Causal && kj > qi {
                            continue; // elementwise mask only on the diagonal tile
                        }
                        fold_key(acc, q.row(qi), k.row(kj), v.row(kj), scale);
                    }
                }
            }
            for (qi_local, acc) in accs.into_iter().enumerate() {
                out.row_mut(q_start + qi_local)
                    .copy_from_slice(&acc.finish());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_tensor::SeededGaussian;

    #[test]
    fn causal_equals_masked_with_causal_closure() {
        let mut g = SeededGaussian::new(11);
        let q = g.matrix(6, 4, 1.0);
        let k = g.matrix(6, 4, 1.0);
        let v = g.matrix(6, 4, 1.0);
        let a = causal_attention_reference(&q, &k, &v, 0.5);
        let b = masked_attention_reference(&q, &k, &v, 0.5, |i, j| j <= i);
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn first_token_attends_only_itself() {
        let mut g = SeededGaussian::new(3);
        let q = g.matrix(4, 4, 1.0);
        let k = g.matrix(4, 4, 1.0);
        let v = g.matrix(4, 4, 1.0);
        let out = causal_attention_reference(&q, &k, &v, 0.5);
        for c in 0..4 {
            assert!((out[(0, c)] - v[(0, c)]).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_keys_average_values() {
        // All-zero queries and keys → uniform weights → row i is the mean of v[0..=i].
        let q = Matrix::zeros(3, 2);
        let k = Matrix::zeros(3, 2);
        let v = Matrix::from_rows(&[&[0.0, 3.0], &[2.0, 3.0], &[4.0, 3.0]]);
        let out = causal_attention_reference(&q, &k, &v, 1.0);
        assert!((out[(2, 0)] - 2.0).abs() < 1e-6);
        assert!((out[(2, 1)] - 3.0).abs() < 1e-6);
        assert!((out[(1, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fully_masked_row_yields_zeros() {
        let mut g = SeededGaussian::new(5);
        let q = g.matrix(2, 2, 1.0);
        let k = g.matrix(2, 2, 1.0);
        let v = g.matrix(2, 2, 1.0);
        let out = masked_attention_reference(&q, &k, &v, 1.0, |i, _| i != 0);
        assert_eq!(out.row(0), &[0.0, 0.0]);
    }
}
