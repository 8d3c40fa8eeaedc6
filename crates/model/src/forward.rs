//! Layer building blocks and a cache-free reference forward pass.
//!
//! Serving engines (in `lserve-core`) compose these blocks with their own attention
//! kernels and paged KV caches; the [`reference_forward_full`] path recomputes
//! attention naively over the whole sequence and is the ground truth that engine
//! tests compare against.

use lserve_tensor::rope::RopeTable;
use lserve_tensor::{argmax, rms_norm, silu, softmax_in_place, Matrix};

use crate::{LayerWeights, ModelConfig, ModelWeights};

/// Post-RoPE query/key/value activations of one layer for a token block.
#[derive(Debug, Clone)]
pub struct LayerActivations {
    /// Queries, `(N x H·D)`.
    pub q: Matrix,
    /// Keys, `(N x Ĥ·D)`.
    pub k: Matrix,
    /// Values, `(N x Ĥ·D)`.
    pub v: Matrix,
}

const RMS_EPS: f32 = 1e-5;

/// Applies RoPE to every `head_dim`-wide head slice of an activation block
/// whose row `t` rotates by `angles[t * head_dim / 2..][..head_dim / 2]`.
fn rope_heads(m: &mut Matrix, head_dim: usize, angles: &[(f32, f32)]) {
    for (r, angles) in angles.chunks_exact(head_dim / 2).enumerate() {
        for head in m.row_mut(r).chunks_exact_mut(head_dim) {
            RopeTable::rotate(head, angles);
        }
    }
}

/// Pre-attention block: RMSNorm then QKV projections with RoPE applied.
///
/// `x` is the residual-stream input `(N x hidden)`; its rows are tokens at any
/// absolute positions — consecutive ones of a prompt, or one each of several
/// sequences — and `angles` holds [`RopeTable::angles`] of those `N`
/// positions, computed once for all layers.
///
/// # Panics
///
/// Panics if `angles` is not `head_dim / 2` entries per row of `x`.
pub fn pre_attention(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    x: &Matrix,
    angles: &[(f32, f32)],
) -> LayerActivations {
    assert_eq!(angles.len(), x.rows() * cfg.head_dim / 2, "angles per row");
    let mut normed = x.clone();
    rms_norm(&mut normed, &lw.attn_norm, RMS_EPS);
    let mut q = normed.matmul(&lw.wq);
    let mut k = normed.matmul(&lw.wk);
    let v = normed.matmul(&lw.wv);
    rope_heads(&mut q, cfg.head_dim, angles);
    rope_heads(&mut k, cfg.head_dim, angles);
    LayerActivations { q, k, v }
}

/// Post-attention block: output projection plus residual connection, in place:
/// `x += attn_out · W_o`.
pub fn post_attention(lw: &LayerWeights, x: &mut Matrix, attn_out: &Matrix) {
    x.add_assign(&attn_out.matmul(&lw.wo));
}

/// SwiGLU FFN block with pre-norm and residual, in place:
/// `x += W_down(SiLU(xW_gate) ⊙ xW_up)`.
pub fn ffn_block(lw: &LayerWeights, x: &mut Matrix) {
    let mut normed = x.clone();
    rms_norm(&mut normed, &lw.ffn_norm, RMS_EPS);
    let mut gate = normed.matmul(&lw.w_gate);
    let up = normed.matmul(&lw.w_up);
    silu(gate.as_mut_slice());
    for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
        *g *= u;
    }
    x.add_assign(&gate.matmul(&lw.w_down));
}

/// Final norm + LM head over the given hidden rows, returning `(N x vocab)` logits.
pub fn logits(weights: &ModelWeights, x: &Matrix) -> Matrix {
    let mut normed = x.clone();
    rms_norm(&mut normed, &weights.final_norm, RMS_EPS);
    normed.matmul(&weights.lm_head)
}

/// Greedy (argmax) sampling from one logits row.
///
/// # Panics
///
/// Panics if `row` is empty.
pub fn greedy_next_token(row: &[f32]) -> u32 {
    argmax(row) as u32
}

/// Naive per-head causal attention (quadratic, no cache) — internal to the reference
/// path; engines use the block-sparse kernels instead.
fn naive_layer_attention(cfg: &ModelConfig, acts: &LayerActivations) -> Matrix {
    let n = acts.q.rows();
    let d = cfg.head_dim;
    let scale = 1.0 / (d as f32).sqrt();
    let group = cfg.gqa_group_size();
    let mut out = Matrix::zeros(n, cfg.q_width());
    for h in 0..cfg.num_q_heads {
        let kv = h / group;
        let mut scores = Matrix::zeros(n, n);
        for i in 0..n {
            let qi = &acts.q.row(i)[h * d..(h + 1) * d];
            for j in 0..=i {
                let kj = &acts.k.row(j)[kv * d..(kv + 1) * d];
                let mut s = 0.0f32;
                for (a, b) in qi.iter().zip(kj) {
                    s += a * b;
                }
                scores[(i, j)] = s * scale;
            }
            for j in (i + 1)..n {
                scores[(i, j)] = f32::NEG_INFINITY;
            }
        }
        softmax_in_place(&mut scores);
        for i in 0..n {
            let orow = &mut out.row_mut(i)[h * d..(h + 1) * d];
            for j in 0..=i {
                let w = scores[(i, j)];
                if w == 0.0 {
                    continue;
                }
                let vj = &acts.v.row(j)[kv * d..(kv + 1) * d];
                for (o, x) in orow.iter_mut().zip(vj) {
                    *o += w * x;
                }
            }
        }
    }
    out
}

/// Cache-free full forward pass: embeds `tokens`, runs every layer with naive dense
/// causal attention, and returns the `(N x vocab)` logits.
///
/// Ground truth for engine tests: a serving engine with sparsity disabled must
/// reproduce these logits to float tolerance.
///
/// # Panics
///
/// Panics if `tokens` is empty or contains out-of-vocabulary ids.
pub fn reference_forward_full(weights: &ModelWeights, tokens: &[u32]) -> Matrix {
    assert!(!tokens.is_empty(), "empty token sequence");
    let cfg = &weights.config;
    let rope = RopeTable::new(cfg.head_dim, cfg.rope_base);
    let angles = rope.angles(0..tokens.len());
    let mut x = weights.embed_tokens(tokens);
    for lw in &weights.layers {
        let acts = pre_attention(cfg, lw, &x, &angles);
        let attn = naive_layer_attention(cfg, &acts);
        post_attention(lw, &mut x, &attn);
        ffn_block(lw, &mut x);
    }
    logits(weights, &x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelWeights {
        ModelWeights::random(&ModelConfig::tiny(), 42)
    }

    #[test]
    fn reference_forward_shapes() {
        let w = tiny();
        let out = reference_forward_full(&w, &[1, 2, 3, 4]);
        assert_eq!(out.shape(), (4, w.config.vocab));
    }

    #[test]
    fn causality_prefix_logits_are_stable() {
        // Extending the sequence must not change logits of earlier positions.
        let w = tiny();
        let a = reference_forward_full(&w, &[5, 6, 7]);
        let b = reference_forward_full(&w, &[5, 6, 7, 8, 9]);
        for r in 0..3 {
            for c in 0..w.config.vocab {
                assert!((a[(r, c)] - b[(r, c)]).abs() < 1e-4, "pos {r} changed");
            }
        }
    }

    #[test]
    fn activations_stay_bounded() {
        let w = tiny();
        let out = reference_forward_full(&w, &[0; 16]);
        let max = out.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max.is_finite() && max < 1e3, "activations exploded: {max}");
    }

    #[test]
    fn greedy_decoding_is_deterministic() {
        let w = tiny();
        let l1 = reference_forward_full(&w, &[1, 2, 3]);
        let l2 = reference_forward_full(&w, &[1, 2, 3]);
        assert_eq!(greedy_next_token(l1.row(2)), greedy_next_token(l2.row(2)));
    }

    #[test]
    fn different_prompts_give_different_logits() {
        let w = tiny();
        let a = reference_forward_full(&w, &[1, 2, 3]);
        let b = reference_forward_full(&w, &[4, 5, 6]);
        assert!(a.max_abs_diff(&b) > 1e-3);
    }

    #[test]
    fn pre_attention_applies_rope_positions() {
        // Same token at different start positions must produce different keys.
        let w = tiny();
        let cfg = &w.config;
        let rope = RopeTable::new(cfg.head_dim, cfg.rope_base);
        let x = w.embed_tokens(&[7]);
        let a = pre_attention(cfg, &w.layers[0], &x, &rope.angles([0]));
        let b = pre_attention(cfg, &w.layers[0], &x, &rope.angles([5]));
        assert!(a.k.max_abs_diff(&b.k) > 1e-5);
        assert!(
            a.v.max_abs_diff(&b.v) < 1e-9,
            "values are position-independent"
        );
    }
}
