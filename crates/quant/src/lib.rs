//! QServe-style low-bit KV quantization substrate.
//!
//! LServe stores past keys and values in quantized pages ("scaling factors and zero
//! points stored immediately after the token features", §3.2). This crate implements
//! the asymmetric uniform group quantization those pages use:
//!
//! * [`KvPrecision`] — FP16 / INT8 / INT4 storage precisions with their byte costs
//!   (the cost model uses these to compute memory traffic);
//! * [`quantize_group`] / [`QuantParams`] — per-group scale/zero quantization;
//! * [`QuantizedTensor`] — a `(tokens x dim)` block quantized row-wise, with packed
//!   INT4 nibbles, dequantization, and a fused quantized dot product that mirrors how
//!   a GPU kernel folds `scale`/`zero` into the accumulation.
//!
//! Quantization is *orthogonal* to block sparsity (paper §2.2): it shrinks the bytes
//! of each KV iteration while sparsity removes iterations. Keeping it as a separate
//! substrate lets every engine (vLLM-, QServe-, LServe-style) toggle it independently.

pub mod precision;
pub mod tensor;

pub use precision::KvPrecision;
pub use tensor::{dequantize_group, quantize_codes, quantize_group, QuantParams, QuantizedTensor};
