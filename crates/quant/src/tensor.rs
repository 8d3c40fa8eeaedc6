//! Group quantization of token blocks and fused quantized dot products.

use crate::KvPrecision;

/// Scale and zero point for one quantization group.
///
/// Dequantization is `x = zero + code * scale`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantParams {
    /// Step size between adjacent codes.
    pub scale: f32,
    /// Value represented by code 0 (the group minimum).
    pub zero: f32,
}

impl QuantParams {
    /// The value `code` stands for: `zero + code * scale`.
    #[inline]
    pub fn dequantize(self, code: u8) -> f32 {
        self.zero + code as f32 * self.scale
    }
}

/// Quantizes one group of values at the given precision without allocating:
/// the group's [`QuantParams`] plus its codes in element order (unpacked, one
/// per input element), for callers that write them into storage of their own.
///
/// Uses asymmetric min/max quantization: code 0 maps to the group minimum, the top
/// code to the maximum.
///
/// # Panics
///
/// Panics if `precision` is [`KvPrecision::Fp16`] (nothing to quantize) or `xs` is
/// empty.
pub fn quantize_codes(
    xs: &[f32],
    precision: KvPrecision,
) -> (QuantParams, impl Iterator<Item = u8> + '_) {
    let levels = precision
        .levels()
        .expect("quantize_codes requires an integer precision") as f32;
    assert!(!xs.is_empty(), "cannot quantize an empty group");
    let min = xs.iter().copied().fold(f32::INFINITY, f32::min);
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let scale = if max > min { (max - min) / levels } else { 1.0 };
    let codes = xs.iter().map(move |&x| {
        let q = ((x - min) / scale).round();
        q.clamp(0.0, levels) as u8
    });
    (QuantParams { scale, zero: min }, codes)
}

/// [`quantize_codes`] collected: one code per input element plus the group's
/// [`QuantParams`].
///
/// # Panics
///
/// As [`quantize_codes`].
pub fn quantize_group(xs: &[f32], precision: KvPrecision) -> (Vec<u8>, QuantParams) {
    let (params, codes) = quantize_codes(xs, precision);
    (codes.collect(), params)
}

/// Dequantizes a group of codes back to `f32`.
pub fn dequantize_group(codes: &[u8], params: QuantParams) -> Vec<f32> {
    codes.iter().map(|&c| params.dequantize(c)).collect()
}

/// A `(tokens x dim)` block quantized row-wise (one group per token row), with INT4
/// codes packed two per byte.
///
/// This mirrors the layout of a quantized KV page in QServe/LServe: token features
/// followed by per-token scale/zero metadata. The fused [`QuantizedTensor::dot_row`]
/// computes `dot(query, dequant(row))` without materializing the dequantized row, the
/// same algebra a GPU kernel uses:
///
/// `sum_i q_i (z + s c_i) = z * sum_i q_i + s * sum_i q_i c_i`.
///
/// # Example
///
/// ```
/// use lserve_quant::{KvPrecision, QuantizedTensor};
///
/// let data = vec![1.0, -1.0, 0.5, 2.0];
/// let t = QuantizedTensor::quantize(&data, 2, 2, KvPrecision::Int8);
/// let row0 = t.dequantize_row(0);
/// assert!((row0[0] - 1.0).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    precision: KvPrecision,
    tokens: usize,
    dim: usize,
    /// Packed codes: INT8 → one byte per element; INT4 → two elements per byte
    /// (low nibble first).
    packed: Vec<u8>,
    params: Vec<QuantParams>,
}

impl QuantizedTensor {
    /// Quantizes a row-major `(tokens x dim)` buffer, one quantization group per row.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != tokens * dim`, if `dim == 0`, or if `precision` is
    /// FP16.
    pub fn quantize(data: &[f32], tokens: usize, dim: usize, precision: KvPrecision) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len(), tokens * dim, "data length mismatch");
        assert!(
            precision.is_quantized(),
            "QuantizedTensor requires an integer precision"
        );
        let mut params = Vec::with_capacity(tokens);
        let mut packed = Vec::with_capacity(Self::packed_len(precision, tokens, dim));
        for t in 0..tokens {
            let (codes, p) = quantize_group(&data[t * dim..(t + 1) * dim], precision);
            params.push(p);
            match precision {
                KvPrecision::Int8 => packed.extend_from_slice(&codes),
                KvPrecision::Int4 => {
                    for pair in codes.chunks(2) {
                        let lo = pair[0] & 0x0F;
                        let hi = if pair.len() == 2 { pair[1] & 0x0F } else { 0 };
                        packed.push(lo | (hi << 4));
                    }
                }
                KvPrecision::Fp16 => unreachable!(),
            }
        }
        Self {
            precision,
            tokens,
            dim,
            packed,
            params,
        }
    }

    fn packed_len(precision: KvPrecision, tokens: usize, dim: usize) -> usize {
        match precision {
            KvPrecision::Int8 => tokens * dim,
            KvPrecision::Int4 => tokens * dim.div_ceil(2),
            KvPrecision::Fp16 => 0,
        }
    }

    /// Number of token rows.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Feature dimension per token.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage precision.
    pub fn precision(&self) -> KvPrecision {
        self.precision
    }

    /// Quantization parameters of row `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tokens`.
    pub fn params(&self, t: usize) -> QuantParams {
        self.params[t]
    }

    /// Raw code of element `(t, i)` as an integer in `[0, levels]`.
    #[inline]
    fn code(&self, t: usize, i: usize) -> u8 {
        match self.precision {
            KvPrecision::Int8 => self.packed[t * self.dim + i],
            KvPrecision::Int4 => {
                let row_bytes = self.dim.div_ceil(2);
                let byte = self.packed[t * row_bytes + i / 2];
                if i.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                }
            }
            KvPrecision::Fp16 => unreachable!(),
        }
    }

    /// Dequantizes row `t` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tokens`.
    pub fn dequantize_row(&self, t: usize) -> Vec<f32> {
        assert!(t < self.tokens, "row {t} out of bounds");
        let p = self.params[t];
        (0..self.dim)
            .map(|i| p.zero + self.code(t, i) as f32 * p.scale)
            .collect()
    }

    /// Dequantizes the whole block row-major.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.tokens * self.dim);
        for t in 0..self.tokens {
            out.extend(self.dequantize_row(t));
        }
        out
    }

    /// Fused `dot(query, dequant(row t))` without materializing the row.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim` or `t >= tokens`.
    pub fn dot_row(&self, t: usize, query: &[f32]) -> f32 {
        assert!(t < self.tokens, "row {t} out of bounds");
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let p = self.params[t];
        let mut q_sum = 0.0f32;
        let mut qc_sum = 0.0f32;
        for (i, &q) in query.iter().enumerate() {
            q_sum += q;
            qc_sum += q * self.code(t, i) as f32;
        }
        p.zero * q_sum + p.scale * qc_sum
    }

    /// Bytes this block would occupy on device, including scale/zero metadata
    /// (two f16 values per token row).
    pub fn device_bytes(&self) -> f64 {
        self.precision.bytes_for(self.tokens * self.dim) + self.tokens as f64 * 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_round_trip_error_within_half_step() {
        let xs = [0.0f32, 0.1, -3.3, 7.7, 2.5, -0.01, 6.0, 1.0];
        let (codes, p) = quantize_group(&xs, KvPrecision::Int8);
        let back = dequantize_group(&codes, p);
        for (x, y) in xs.iter().zip(&back) {
            assert!((x - y).abs() <= p.scale / 2.0 + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn int4_round_trip_error_within_half_step() {
        let xs = [0.0f32, 0.5, 1.0, -1.0, 0.25, -0.75];
        let (codes, p) = quantize_group(&xs, KvPrecision::Int4);
        assert!(codes.iter().all(|&c| c <= 15));
        let back = dequantize_group(&codes, p);
        for (x, y) in xs.iter().zip(&back) {
            assert!((x - y).abs() <= p.scale / 2.0 + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn constant_group_is_exact() {
        let xs = [4.2f32; 16];
        let (codes, p) = quantize_group(&xs, KvPrecision::Int4);
        let back = dequantize_group(&codes, p);
        for y in back {
            assert_eq!(y, 4.2);
        }
    }

    #[test]
    fn extremes_are_exact() {
        let xs = [-2.0f32, 0.3, 5.0];
        let (codes, p) = quantize_group(&xs, KvPrecision::Int8);
        let back = dequantize_group(&codes, p);
        assert!((back[0] - -2.0).abs() < 1e-5);
        assert!((back[2] - 5.0).abs() < 1e-4);
    }

    #[test]
    fn tensor_dequantize_row_matches_group_path() {
        let data: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin()).collect();
        let t = QuantizedTensor::quantize(&data, 3, 4, KvPrecision::Int8);
        for row in 0..3 {
            let (codes, p) = quantize_group(&data[row * 4..(row + 1) * 4], KvPrecision::Int8);
            let want = dequantize_group(&codes, p);
            assert_eq!(t.dequantize_row(row), want);
        }
    }

    #[test]
    fn int4_packing_round_trips_odd_dim() {
        let data: Vec<f32> = (0..15).map(|i| i as f32).collect();
        let t = QuantizedTensor::quantize(&data, 3, 5, KvPrecision::Int4);
        let back = t.dequantize();
        assert_eq!(back.len(), 15);
        for (x, y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= t.params(0).scale / 2.0 + 0.3, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_dot_matches_dequantized_dot() {
        let data: Vec<f32> = (0..32).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.3).collect();
        let t = QuantizedTensor::quantize(&data, 4, 8, KvPrecision::Int4);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.11).cos()).collect();
        for row in 0..4 {
            let deq = t.dequantize_row(row);
            let want: f32 = deq.iter().zip(&q).map(|(a, b)| a * b).sum();
            let got = t.dot_row(row, &q);
            assert!((got - want).abs() < 1e-4, "row {row}: {got} vs {want}");
        }
    }

    #[test]
    fn device_bytes_counts_metadata() {
        let data = vec![0.0f32; 64 * 128];
        let t8 = QuantizedTensor::quantize(&data, 64, 128, KvPrecision::Int8);
        assert_eq!(t8.device_bytes(), 64.0 * 128.0 + 64.0 * 4.0);
        let t4 = QuantizedTensor::quantize(&data, 64, 128, KvPrecision::Int4);
        assert_eq!(t4.device_bytes(), 64.0 * 128.0 / 2.0 + 64.0 * 4.0);
    }

    #[test]
    #[should_panic(expected = "integer precision")]
    fn fp16_rejected() {
        let _ = quantize_group(&[1.0], KvPrecision::Fp16);
    }
}
