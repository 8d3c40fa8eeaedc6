//! Architectural shape presets for the paper's evaluation models.

/// Transformer architecture shapes.
///
/// The presets reproduce the published architectures of the three models the paper
/// evaluates; [`ModelConfig::tiny`] and [`ModelConfig::scaled_down`] keep the
/// attention geometry while shrinking everything orthogonal to it, for CPU-runnable
/// tests and examples.
///
/// # Example
///
/// ```
/// use lserve_model::ModelConfig;
///
/// let cfg = ModelConfig::llama3_8b();
/// assert_eq!(cfg.gqa_group_size(), 4); // 32 query heads over 8 KV heads
/// assert_eq!(ModelConfig::llama2_7b().gqa_group_size(), 1); // MHA: no KV sharing
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name used in benchmark output.
    pub name: String,
    /// Transformer layer count.
    pub num_layers: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Query head count `H`.
    pub num_q_heads: usize,
    /// KV head count `Ĥ` (`== H` for MHA).
    pub num_kv_heads: usize,
    /// Per-head dimension `D`.
    pub head_dim: usize,
    /// FFN intermediate dimension.
    pub ffn_hidden: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// RoPE base frequency.
    pub rope_base: f32,
}

impl ModelConfig {
    /// Llama-3-8B: 32 layers, GQA with 32 query / 8 KV heads of dim 128.
    pub fn llama3_8b() -> Self {
        Self {
            name: "Llama-3-8B".into(),
            num_layers: 32,
            hidden: 4096,
            num_q_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_hidden: 14336,
            vocab: 128_256,
            rope_base: 500_000.0,
        }
    }

    /// Llama-2-7B: 32 layers, MHA with 32 heads of dim 128.
    pub fn llama2_7b() -> Self {
        Self {
            name: "Llama-2-7B".into(),
            num_layers: 32,
            hidden: 4096,
            num_q_heads: 32,
            num_kv_heads: 32,
            head_dim: 128,
            ffn_hidden: 11008,
            vocab: 32_000,
            rope_base: 10_000.0,
        }
    }

    /// Minitron-4B: 32 layers, GQA with 24 query / 8 KV heads of dim 128
    /// (Muralidharan et al., 2024).
    pub fn minitron_4b() -> Self {
        Self {
            name: "Minitron-4B".into(),
            num_layers: 32,
            hidden: 3072,
            num_q_heads: 24,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_hidden: 9216,
            vocab: 256_000,
            rope_base: 10_000.0,
        }
    }

    /// A minimal config for unit tests: 2 layers, 4 query / 2 KV heads of dim 8.
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            num_layers: 2,
            hidden: 32,
            num_q_heads: 4,
            num_kv_heads: 2,
            head_dim: 8,
            ffn_hidden: 64,
            vocab: 97,
            rope_base: 10_000.0,
        }
    }

    /// Shrinks a preset for CPU execution while keeping the per-layer *attention
    /// geometry* (head counts and head dim) intact, which is what the paper's
    /// sparsity mechanisms act on. Layer count, FFN and vocab shrink.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn scaled_down(&self, layers: usize) -> Self {
        assert!(layers > 0, "need at least one layer");
        Self {
            name: format!("{}-mini{}", self.name, layers),
            num_layers: layers,
            hidden: self.num_q_heads * self.head_dim,
            num_q_heads: self.num_q_heads,
            num_kv_heads: self.num_kv_heads,
            head_dim: self.head_dim,
            ffn_hidden: 2 * self.num_q_heads * self.head_dim,
            vocab: 1024,
            rope_base: self.rope_base,
        }
    }

    /// Query heads per KV head.
    ///
    /// # Panics
    ///
    /// Panics if `num_q_heads` is not divisible by `num_kv_heads`.
    pub fn gqa_group_size(&self) -> usize {
        assert_eq!(
            self.num_q_heads % self.num_kv_heads,
            0,
            "invalid GQA grouping"
        );
        self.num_q_heads / self.num_kv_heads
    }

    /// Width of the concatenated query projection (`H·D`).
    pub fn q_width(&self) -> usize {
        self.num_q_heads * self.head_dim
    }

    /// Width of the concatenated key/value projections (`Ĥ·D`).
    pub fn kv_width(&self) -> usize {
        self.num_kv_heads * self.head_dim
    }

    /// Approximate parameter count (embeddings + per-layer projections + FFN).
    pub fn approx_params(&self) -> f64 {
        let per_layer = (self.hidden * self.q_width())
            + 2 * (self.hidden * self.kv_width())
            + (self.q_width() * self.hidden)
            + 3 * (self.hidden * self.ffn_hidden);
        (self.vocab * self.hidden * 2 + self.num_layers * per_layer) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_shapes() {
        let c = ModelConfig::llama3_8b();
        assert_eq!(c.q_width(), 4096);
        assert_eq!(c.kv_width(), 1024);
        assert_eq!(c.gqa_group_size(), 4);
        // ~8B params within a factor.
        assert!(c.approx_params() > 6e9 && c.approx_params() < 10e9);
    }

    #[test]
    fn llama2_is_mha() {
        let c = ModelConfig::llama2_7b();
        assert_eq!(c.num_q_heads, c.num_kv_heads);
        assert_eq!(c.gqa_group_size(), 1);
        assert!(c.approx_params() > 5e9 && c.approx_params() < 8e9);
    }

    #[test]
    fn minitron_is_smaller() {
        let a = ModelConfig::minitron_4b().approx_params();
        let b = ModelConfig::llama3_8b().approx_params();
        assert!(a < b);
    }

    #[test]
    fn kv_bytes_per_token_llama3() {
        // 2 (K,V) * 32 layers * 1024 width * 2 bytes = 128 KiB/token at FP16.
        let c = ModelConfig::llama3_8b();
        assert_eq!(2 * c.num_layers * c.kv_width() * 2, 128 * 1024);
    }

    #[test]
    fn scaled_down_keeps_attention_geometry() {
        let full = ModelConfig::llama3_8b();
        let mini = full.scaled_down(2);
        assert_eq!(mini.num_q_heads, full.num_q_heads);
        assert_eq!(mini.num_kv_heads, full.num_kv_heads);
        assert_eq!(mini.head_dim, full.head_dim);
        assert_eq!(mini.num_layers, 2);
        assert!(mini.approx_params() < full.approx_params() / 10.0);
    }

    #[test]
    fn tiny_is_valid() {
        let c = ModelConfig::tiny();
        assert_eq!(c.hidden, c.q_width());
        assert_eq!(c.gqa_group_size(), 2);
    }
}
