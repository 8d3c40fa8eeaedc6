//! End-to-end latency composition: per-step decode and full prefill.

use lserve_model::ModelConfig;

use crate::kernels::{
    decode_attention_time, decode_gemm_time, prefill_attention_time, prefill_gemm_time,
    selector_time, GEMM_PREFILL_UTILIZATION,
};
use crate::{GpuSpec, PrefillSparsity, SystemModel};

/// Latency breakdown of one decode step (whole model, `batch` sequences).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecodeBreakdown {
    /// Weight-streaming GEMM time, seconds.
    pub gemm_s: f64,
    /// Attention over dense (retrieval) heads.
    pub attention_dense_s: f64,
    /// Attention over streaming heads.
    pub attention_streaming_s: f64,
    /// Dynamic page-selector time.
    pub selector_s: f64,
    /// Kernel-launch + serving-stack overhead.
    pub overhead_s: f64,
}

impl DecodeBreakdown {
    /// Total step latency, seconds.
    pub fn total(&self) -> f64 {
        self.gemm_s
            + self.attention_dense_s
            + self.attention_streaming_s
            + self.selector_s
            + self.overhead_s
    }

    /// Total attention time (both head kinds), seconds.
    pub fn attention_s(&self) -> f64 {
        self.attention_dense_s + self.attention_streaming_s
    }
}

/// Latency breakdown of a prefill over `seq` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrefillBreakdown {
    /// Linear-layer (GEMM) time, seconds.
    pub gemm_s: f64,
    /// Attention time, seconds.
    pub attention_s: f64,
    /// Everything else (norms, RoPE, KV quantization+write, pooling), seconds.
    pub other_s: f64,
}

impl PrefillBreakdown {
    /// Total prefill latency (time to first token), seconds.
    pub fn total(&self) -> f64 {
        self.gemm_s + self.attention_s + self.other_s
    }
}

/// Models one decode step of `model` under `sys` with `seq` tokens of history and
/// `batch` concurrent sequences.
pub fn decode_step(
    gpu: &GpuSpec,
    model: &ModelConfig,
    sys: &SystemModel,
    seq: usize,
    batch: usize,
) -> DecodeBreakdown {
    let layers = model.num_layers as f64;
    let kv_heads = model.num_kv_heads as f64;
    let dense_heads = kv_heads * (1.0 - sys.streaming_fraction);
    let stream_heads = kv_heads * sys.streaming_fraction;
    let b = batch as f64;

    let gemm_s = decode_gemm_time(
        gpu,
        model.approx_params() * sys.weight_bytes_per_param,
        sys.weight_dequant_penalty,
    );

    let dense_tokens = match sys.dynamic_budget {
        Some(budget) => (seq as f64).min(budget as f64),
        None => seq as f64,
    };
    let attention_dense_s = decode_attention_time(
        gpu,
        dense_tokens,
        dense_heads,
        model.head_dim,
        layers,
        sys.kv_precision,
        sys.page_size,
        b,
    );
    let stream_tokens = (seq as f64).min(sys.streaming_span_tokens as f64);
    let attention_streaming_s = decode_attention_time(
        gpu,
        stream_tokens,
        stream_heads,
        model.head_dim,
        layers,
        sys.kv_precision,
        sys.page_size,
        b,
    );

    let selector_s = match sys.dynamic_budget {
        Some(_) => {
            // Calibrated per layer against Figure 14, which profiles LServe's
            // selector (its dense heads) at NL=16; we treat the per-logical-page
            // constant as covering one layer's scored heads.
            let logical_pages = seq as f64 / sys.logical_page as f64;
            selector_time(logical_pages, layers, sys.reuse_interval, b)
        }
        None => 0.0,
    };

    // ~6 kernel launches per layer plus the serving-stack intercept.
    let overhead_s = 6.0 * layers * gpu.kernel_launch_s + sys.step_overhead_s;

    DecodeBreakdown {
        gemm_s,
        attention_dense_s,
        attention_streaming_s,
        selector_s,
        overhead_s,
    }
}

/// Visited prefill attention tiles per (query head, layer) for a dense causal
/// triangle of `nb` blocks.
fn causal_tiles(nb: f64) -> f64 {
    nb * (nb + 1.0) / 2.0
}

/// Models the prefill (time to first token) of `model` under `sys` for a `seq`-token
/// prompt.
pub fn prefill(
    gpu: &GpuSpec,
    model: &ModelConfig,
    sys: &SystemModel,
    seq: usize,
) -> PrefillBreakdown {
    let layers = model.num_layers as f64;
    let q_heads = model.num_q_heads as f64;
    const TILE: usize = 128;
    let nb = (seq as f64 / TILE as f64).max(1.0);

    let ops = if sys.int8_gemm {
        gpu.int8_ops
    } else {
        gpu.fp16_flops
    };
    let gemm_s = prefill_gemm_time(model.approx_params(), seq as f64, ops);

    let dense_tiles = causal_tiles(nb);
    // Tiles per head under each sparsity regime.
    let tiles_per_head = |sparsity: &PrefillSparsity| -> (f64, f64) {
        match *sparsity {
            PrefillSparsity::Dense => (dense_tiles, 1.0),
            PrefillSparsity::StreamingHeads {
                streaming_fraction,
                span_blocks,
            } => {
                let stream = (span_blocks * nb).min(dense_tiles);
                (
                    streaming_fraction * stream + (1.0 - streaming_fraction) * dense_tiles,
                    1.0,
                )
            }
            PrefillSparsity::DynamicBlock {
                base_tokens,
                frac,
                penalty,
            } => {
                let attended = (base_tokens + frac * seq as f64).min(seq as f64 / 2.0);
                let tiles = (attended / TILE as f64) * nb;
                (tiles.min(dense_tiles), penalty)
            }
            PrefillSparsity::Hybrid {
                streaming_fraction,
                span_blocks,
                dynamic_after_tokens,
                base_tokens,
                frac,
            } => {
                let stream = (span_blocks * nb).min(dense_tiles);
                let retrieval = if seq > dynamic_after_tokens {
                    let attended = (base_tokens + frac * seq as f64).min(seq as f64 / 2.0);
                    ((attended / TILE as f64) * nb).min(dense_tiles)
                } else {
                    dense_tiles
                };
                (
                    streaming_fraction * stream + (1.0 - streaming_fraction) * retrieval,
                    1.0,
                )
            }
        }
    };
    let (per_head_tiles, penalty) = tiles_per_head(&sys.prefill);
    let attention_s = prefill_attention_time(
        gpu,
        per_head_tiles * q_heads * layers,
        TILE,
        model.head_dim,
        penalty,
    );

    // Norms, RoPE, KV quantization and write-back, context pooling: proportional to
    // token count; modeled as 10% of the *dense* GEMM time (activation-bound work is
    // precision-independent to first order). Context pooling itself is negligible
    // (§5.3: "<1 ms against ~17 s").
    let other_s = 0.10 * prefill_gemm_time(model.approx_params(), seq as f64, gpu.fp16_flops)
        + 2.0 * layers * gpu.kernel_launch_s;
    let _ = GEMM_PREFILL_UTILIZATION;

    PrefillBreakdown {
        gemm_s,
        attention_s,
        other_s,
    }
}

/// Largest batch of `seq`-token sequences whose KV fits device memory next to the
/// weights (Figure 10's throughput batch; systems that cannot fit even one
/// sequence are "OOM").
pub fn max_batch(gpu: &GpuSpec, model: &ModelConfig, sys: &SystemModel, seq: usize) -> usize {
    let weight_bytes = model.approx_params() * sys.weight_bytes_per_param;
    let activations_headroom = 4e9;
    let free = gpu.memory_bytes - weight_bytes - activations_headroom;
    if free <= 0.0 {
        return 0;
    }
    let kv_per_seq = sys.kv_bytes_per_token_per_layer(model.num_kv_heads, model.head_dim)
        * model.num_layers as f64
        * seq as f64
        // Streaming heads hold a constant-size window regardless of seq.
        + sys.streaming_fraction
            * model.num_kv_heads as f64
            * 2.0
            * sys.kv_precision.bytes_for(model.head_dim)
            * model.num_layers as f64
            * sys.streaming_span_tokens as f64;
    (free / kv_per_seq).floor() as usize
}

/// Decode throughput in tokens/second at a serving batch of up to 8 concurrent
/// sequences (memory permitting); returns `None` when the system cannot hold a
/// single sequence (OOM, as marked in Figure 10).
pub fn decode_throughput(
    gpu: &GpuSpec,
    model: &ModelConfig,
    sys: &SystemModel,
    seq: usize,
) -> Option<f64> {
    let batch = max_batch(gpu, model, sys, seq).min(8);
    if batch == 0 {
        return None;
    }
    let step = decode_step(gpu, model, sys, seq, batch).total();
    Some(batch as f64 / step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GpuSpec {
        GpuSpec::a100_80g()
    }

    #[test]
    fn table7_vllm_vs_lserve_shape() {
        // Artifact Table 7: vLLM 12.51→27.45 ms and LServe 11.49→15.10 ms from 64K
        // to 320K; speedup grows 1.09→1.82.
        let m = ModelConfig::llama3_8b();
        let v = SystemModel::vllm();
        let l = SystemModel::lserve();
        let v64 = decode_step(&a100(), &m, &v, 65_536, 1).total() * 1e3;
        let l64 = decode_step(&a100(), &m, &l, 65_536, 1).total() * 1e3;
        let v320 = decode_step(&a100(), &m, &v, 327_680, 1).total() * 1e3;
        let l320 = decode_step(&a100(), &m, &l, 327_680, 1).total() * 1e3;
        assert!((11.0..16.0).contains(&v64), "vllm@64k {v64}");
        assert!((9.5..13.5).contains(&l64), "lserve@64k {l64}");
        assert!((24.0..38.0).contains(&v320), "vllm@320k {v320}");
        assert!((13.0..18.0).contains(&l320), "lserve@320k {l320}");
        let s64 = v64 / l64;
        let s320 = v320 / l320;
        assert!(s64 > 1.0 && s64 < 1.4, "speedup@64k {s64}");
        assert!(s320 > 1.5 && s320 < 2.4, "speedup@320k {s320}");
        assert!(s320 > s64, "speedup must grow with context");
    }

    #[test]
    fn lserve_decode_nearly_flat_in_context() {
        let m = ModelConfig::llama3_8b();
        let l = SystemModel::lserve();
        let t64 = decode_step(&a100(), &m, &l, 65_536, 1).total();
        let t256 = decode_step(&a100(), &m, &l, 262_144, 1).total();
        assert!(
            t256 / t64 < 1.5,
            "LServe decode must be near-constant: {}",
            t256 / t64
        );
    }

    #[test]
    fn vllm_decode_linear_in_context() {
        let m = ModelConfig::llama3_8b();
        let v = SystemModel::vllm();
        let t64 = decode_step(&a100(), &m, &v, 65_536, 1);
        let t256 = decode_step(&a100(), &m, &v, 262_144, 1);
        let attn_ratio = t256.attention_dense_s / t64.attention_dense_s;
        assert!(
            (attn_ratio - 4.0).abs() < 0.1,
            "attention must scale 4x: {attn_ratio}"
        );
    }

    #[test]
    fn figure2_attention_dominates_long_prefill() {
        let m = ModelConfig::llama3_8b();
        let dense = SystemModel::vllm();
        let b128 = prefill(&a100(), &m, &dense, 131_072);
        let frac = b128.attention_s / b128.total();
        assert!(frac > 0.5, "attention fraction at 128K prefill: {frac}");
        let b8 = prefill(&a100(), &m, &dense, 8_192);
        let frac8 = b8.attention_s / b8.total();
        assert!(frac8 < frac, "attention fraction must grow with length");
    }

    #[test]
    fn figure2_decode_attention_dominates_at_128k() {
        let m = ModelConfig::llama3_8b();
        let v = SystemModel::vllm();
        let b = decode_step(&a100(), &m, &v, 131_072, 1);
        assert!(b.attention_s() / b.total() > 0.45);
    }

    #[test]
    fn prefill_speedup_up_to_3x() {
        // Paper: LServe accelerates prefilling by up to 2.9x over vLLM.
        let m = ModelConfig::llama2_7b();
        let v = SystemModel::vllm();
        let l = SystemModel::lserve();
        for &seq in &[16_384usize, 65_536, 163_840] {
            let s = prefill(&a100(), &m, &v, seq).total() / prefill(&a100(), &m, &l, seq).total();
            assert!((1.1..3.2).contains(&s), "prefill speedup {s} at {seq}");
        }
    }

    #[test]
    fn minference_decode_is_slowest() {
        let m = ModelConfig::llama3_8b();
        let mi = decode_step(&a100(), &m, &SystemModel::minference(), 131_072, 1).total();
        for sys in [
            SystemModel::vllm(),
            SystemModel::lserve(),
            SystemModel::qserve(),
        ] {
            assert!(mi > decode_step(&a100(), &m, &sys, 131_072, 1).total());
        }
    }

    #[test]
    fn table5_quest_vs_lserve_decode() {
        // Table 5: Quest 13.13→14.86 ms, LServe 10.02→10.24 ms over 4K–32K on
        // Llama-2-7B → 1.3–1.5x.
        let m = ModelConfig::llama2_7b();
        let q = SystemModel::quest();
        let l = SystemModel::lserve();
        for &seq in &[4096usize, 8192, 16384, 32768] {
            let tq = decode_step(&a100(), &m, &q, seq, 1).total() * 1e3;
            let tl = decode_step(&a100(), &m, &l, seq, 1).total() * 1e3;
            let s = tq / tl;
            assert!((1.1..1.8).contains(&s), "quest/lserve {s} at {seq}");
            assert!((8.0..16.0).contains(&tq), "quest {tq} at {seq}");
        }
    }

    #[test]
    fn max_batch_ordering() {
        // Quantized + streaming KV admits far larger batches than FP16 dense KV.
        let m = ModelConfig::llama3_8b();
        let seq = 131_072;
        let bv = max_batch(&a100(), &m, &SystemModel::vllm(), seq);
        let bq = max_batch(&a100(), &m, &SystemModel::qserve(), seq);
        let bl = max_batch(&a100(), &m, &SystemModel::lserve(), seq);
        assert!(bv < bq, "vllm {bv} vs qserve {bq}");
        assert!(bq < bl, "qserve {bq} vs lserve {bl}");
        assert!(bv >= 1);
    }

    #[test]
    fn oom_reported_as_none() {
        // Llama-2-7B MHA FP16 KV at 512K ≈ 0.5 TB/seq → OOM on 80 GB.
        let m = ModelConfig::llama2_7b();
        assert!(decode_throughput(&a100(), &m, &SystemModel::vllm(), 524_288).is_none());
        assert!(decode_throughput(&a100(), &m, &SystemModel::lserve(), 524_288).is_some());
    }

    #[test]
    fn figure15_ablation_ordering() {
        // Static-only bounded ~2x; dynamic-only constant; combined best at long ctx.
        let m = ModelConfig::llama2_7b();
        let seq = 262_144;
        let dense = decode_step(&a100(), &m, &SystemModel::lserve_dense_baseline(), seq, 1);
        let stat = decode_step(&a100(), &m, &SystemModel::lserve_static_only(), seq, 1);
        let dyn_ = decode_step(&a100(), &m, &SystemModel::lserve_dynamic_only(), seq, 1);
        let full = decode_step(&a100(), &m, &SystemModel::lserve(), seq, 1);
        let a = |b: &DecodeBreakdown| b.attention_s() + b.selector_s;
        assert!(a(&stat) < a(&dense), "static must beat dense");
        assert!(a(&stat) > a(&dense) / 2.2, "static gain bounded near 2x");
        assert!(a(&dyn_) < a(&stat), "dynamic wins at 256K");
        assert!(a(&full) <= a(&dyn_) * 1.01, "combined at least as good");
    }

    #[test]
    fn l40s_slower_but_same_ordering() {
        let m = ModelConfig::llama3_8b();
        let gpu = GpuSpec::l40s();
        let v = decode_step(&gpu, &m, &SystemModel::vllm(), 131_072, 1).total();
        let l = decode_step(&gpu, &m, &SystemModel::lserve(), 131_072, 1).total();
        assert!(v > l, "LServe must win on L40S too");
        let va = decode_step(&a100(), &m, &SystemModel::vllm(), 131_072, 1).total();
        assert!(v > va, "L40S must be slower than A100");
    }
}
