//! One physical KV page: its key lane layout, code packing and per-logical-page
//! key statistics.

use lserve_quant::{quantize_codes, KvPrecision, QuantParams};

use crate::{config::PagingConfig, stats::LogicalPageStats};

/// Keys the attention kernel scores side by side: one lane group.
pub const KEY_LANES: usize = 16;

/// Where dimension `i` of key slot `t` sits in a d-major key store of head
/// dimension `d`: slots are taken [`KEY_LANES`] at a time, and within such a
/// lane group the layout is `[dimension][lane]`. One dimension of one lane
/// group is one contiguous load, and a kernel walking a block's lane groups
/// reads the store front to back. A store holds whole lane groups.
#[inline]
pub fn key_lane_offset(d: usize, t: usize, i: usize) -> usize {
    (t / KEY_LANES * d + i) * KEY_LANES + t % KEY_LANES
}

/// Logical pages [`KvPage::logical_importance`] scores side by side.
const STAT_LANES: usize = 4;

/// One physical KV page: up to `N_P` tokens of keys and values for a single KV head,
/// stored at the configured precision, plus per-logical-page key statistics.
///
/// Quantized pages store codes + per-token-row scale/zero (QServe layout); reads
/// dequantize, so the rounding error a real INT4/INT8 kernel would see is reproduced
/// faithfully. Key statistics are computed from the *stored* (dequantized)
/// representation, matching what the device kernel could reconstruct.
///
/// Every buffer is allocated whole when the page is (pages are device pages:
/// fixed size), so an append writes in place and never allocates.
#[derive(Debug, Clone)]
pub struct KvPage {
    config: PagingConfig,
    head_dim: usize,
    /// `config.logical_per_physical()`, kept: the append path indexes by it.
    logical: usize,
    len: usize,
    // The effective (post-quantization) rows in f32 for fast reads; the packed
    // codes exist so storage size and rounding are exactly device-like. Keys
    // are stored once, d-major in lane groups (`key_lane_offset`), so the
    // kernel loads one dimension of `KEY_LANES` neighbouring keys as one
    // contiguous run; values stay row-major.
    keys_f: Vec<f32>,
    values_f: Vec<f32>,
    // Codes one byte per element for INT8, two per byte for INT4 (low nibble
    // first), plus per-row params. Empty on the FP16 path.
    keys_q: Vec<u8>,
    values_q: Vec<u8>,
    key_params: Vec<QuantParams>,
    value_params: Vec<QuantParams>,
    // Channelwise key bounds of every logical page in one buffer, logical
    // pages side by side: dimension `i` of logical page `l` at `i * g + l`.
    kmin: Vec<f32>,
    kmax: Vec<f32>,
}

impl KvPage {
    pub(crate) fn new(config: PagingConfig, head_dim: usize) -> Self {
        let slots = config.physical_page_size();
        let logical = config.logical_per_physical();
        let row_bytes = code_row_bytes(config.precision(), head_dim);
        let param_rows = if row_bytes == 0 { 0 } else { slots };
        Self {
            config,
            head_dim,
            logical,
            len: 0,
            keys_f: vec![0.0; head_dim * slots.next_multiple_of(KEY_LANES)],
            values_f: vec![0.0; slots * head_dim],
            keys_q: vec![0; slots * row_bytes],
            values_q: vec![0; slots * row_bytes],
            key_params: vec![QuantParams::default(); param_rows],
            value_params: vec![QuantParams::default(); param_rows],
            kmin: vec![f32::INFINITY; head_dim * logical],
            kmax: vec![f32::NEG_INFINITY; head_dim * logical],
        }
    }

    /// Tokens currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no token has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the page holds `N_P` tokens.
    pub fn is_full(&self) -> bool {
        self.len == self.config.physical_page_size()
    }

    /// Key/value feature dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Appends one `(key, value)` token row, writing codes, params, effective
    /// rows and key bounds straight into the page's buffers.
    ///
    /// # Panics
    ///
    /// Panics if the page is full or the rows have the wrong dimension.
    pub fn append(&mut self, key: &[f32], value: &[f32]) {
        assert!(!self.is_full(), "append to full page");
        assert_eq!(key.len(), self.head_dim, "key dimension mismatch");
        assert_eq!(value.len(), self.head_dim, "value dimension mismatch");
        let precision = self.config.precision();
        let (t, d) = (self.len, self.head_dim);
        let g = self.logical;
        let l = t / self.config.logical_page_size();
        let mut store_key = |i: usize, k: f32| {
            self.keys_f[key_lane_offset(d, t, i)] = k;
            // Selects, not branches: on a young logical page every other key
            // sets a bound, which no predictor follows.
            let (lo, hi) = (&mut self.kmin[i * g + l], &mut self.kmax[i * g + l]);
            *lo = if k < *lo { k } else { *lo };
            *hi = if k > *hi { k } else { *hi };
        };
        let stored_value = &mut self.values_f[t * d..(t + 1) * d];
        if precision.is_quantized() {
            let row_bytes = code_row_bytes(precision, d);
            let key_codes = &mut self.keys_q[t * row_bytes..(t + 1) * row_bytes];
            let value_codes = &mut self.values_q[t * row_bytes..(t + 1) * row_bytes];
            let (kp, codes) = quantize_codes(key, precision);
            for (i, c) in codes.enumerate() {
                pack(key_codes, precision, i, c);
                store_key(i, kp.dequantize(c));
            }
            let (vp, codes) = quantize_codes(value, precision);
            for (i, (c, v)) in codes.zip(stored_value).enumerate() {
                pack(value_codes, precision, i, c);
                *v = vp.dequantize(c);
            }
            self.key_params[t] = kp;
            self.value_params[t] = vp;
        } else {
            for (i, &k) in key.iter().enumerate() {
                store_key(i, k);
            }
            stored_value.copy_from_slice(value);
        }
        self.len += 1;
    }

    /// The effective (dequantized) keys, d-major in lane groups: dimension `i`
    /// of token slot `t` is at [`key_lane_offset`]`(head_dim, t, i)`. Slots at
    /// and past `len()` hold zeros.
    #[inline]
    pub fn key_lanes(&self) -> &[f32] {
        &self.keys_f
    }

    /// The effective (dequantized) values of the stored tokens, row-major
    /// (`len() x head_dim`).
    #[inline]
    pub fn value_rows(&self) -> &[f32] {
        &self.values_f[..self.len * self.head_dim]
    }

    /// The effective (dequantized) key row for token slot `t` within this page,
    /// gathered from the d-major store (tests and debugging; kernels read
    /// [`KvPage::key_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn key_row(&self, t: usize) -> Vec<f32> {
        assert!(t < self.len, "token slot {t} out of bounds ({})", self.len);
        (0..self.head_dim)
            .map(|i| self.keys_f[key_lane_offset(self.head_dim, t, i)])
            .collect()
    }

    /// The effective (dequantized) value row for token slot `t` within this page.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    #[inline]
    pub fn value_row(&self, t: usize) -> &[f32] {
        assert!(t < self.len, "token slot {t} out of bounds ({})", self.len);
        &self.values_f[t * self.head_dim..(t + 1) * self.head_dim]
    }

    /// Key statistics of logical sub-page `l` (in `0..logical_per_physical()`),
    /// gathered from the page's side-by-side bounds.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn logical_stats(&self, l: usize) -> LogicalPageStats {
        let g = self.logical;
        assert!(l < g, "logical page {l} out of range ({g})");
        let column = |bounds: &[f32]| bounds.iter().skip(l).step_by(g).copied().collect();
        let nl = self.config.logical_page_size();
        let tokens = self.len.saturating_sub(l * nl).min(nl);
        LogicalPageStats::from_bounds(column(&self.kmin), column(&self.kmax), tokens)
    }

    /// Eq. 2 importance of every logical sub-page for query `q`, written to
    /// `out[l]` — bit for bit what [`LogicalPageStats::importance`] returns for
    /// [`KvPage::logical_stats`]`(l)`, `-inf` for empty sub-pages included.
    ///
    /// One score is a chain of `head_dim` dependent adds, so a lone score costs
    /// the add latency `head_dim` times over; [`STAT_LANES`] logical pages are
    /// scored side by side, each still summing its dimensions in order.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` differs from the head dimension or `out.len()` from
    /// `logical_per_physical()`.
    pub fn logical_importance(&self, q: &[f32], out: &mut [f32]) {
        let g = self.logical;
        assert_eq!(q.len(), self.head_dim, "query dimension mismatch");
        assert_eq!(out.len(), g, "one score per logical page");
        let mut l = 0;
        while l + STAT_LANES <= g {
            out[l..l + STAT_LANES].copy_from_slice(&self.importance_lanes::<STAT_LANES>(q, l));
            l += STAT_LANES;
        }
        while l < g {
            out[l] = self.importance_lanes::<1>(q, l)[0];
            l += 1;
        }
        out[self.occupied_logical_pages()..].fill(f32::NEG_INFINITY);
    }

    /// Eq. 2 sums of logical sub-pages `l..l + W`.
    #[inline]
    fn importance_lanes<const W: usize>(&self, q: &[f32], l: usize) -> [f32; W] {
        let g = self.logical;
        let mut s = [0.0f32; W];
        for (i, &qi) in q.iter().enumerate() {
            let lo = &self.kmin[i * g + l..][..W];
            let hi = &self.kmax[i * g + l..][..W];
            for j in 0..W {
                s[j] += (qi * hi[j]).max(qi * lo[j]);
            }
        }
        s
    }

    /// Eq. 2 importance of the page under the flat (Quest) policy: one min/max
    /// representative for the whole physical page, i.e. the occupied logical
    /// sub-pages' bounds merged before scoring. `-inf` for an empty page.
    ///
    /// # Panics
    ///
    /// Panics if `q.len()` differs from the head dimension.
    pub fn merged_importance(&self, q: &[f32]) -> f32 {
        assert_eq!(q.len(), self.head_dim, "query dimension mismatch");
        let occupied = self.occupied_logical_pages();
        if occupied == 0 {
            return f32::NEG_INFINITY;
        }
        let g = self.logical;
        let mut s = 0.0f32;
        for (i, &qi) in q.iter().enumerate() {
            let lo = &self.kmin[i * g..i * g + occupied];
            let hi = &self.kmax[i * g..i * g + occupied];
            let kmin = lo[1..].iter().fold(lo[0], |a, &b| a.min(b));
            let kmax = hi[1..].iter().fold(hi[0], |a, &b| a.max(b));
            s += (qi * kmax).max(qi * kmin);
        }
        s
    }

    /// Number of logical sub-pages that contain at least one token.
    pub fn occupied_logical_pages(&self) -> usize {
        self.len.div_ceil(self.config.logical_page_size())
    }

    /// Bytes this page's KV data would occupy on device (token features at the page
    /// precision plus quantization metadata), for the full page capacity — pages are
    /// allocated whole, like real device pages.
    pub fn device_bytes(&self) -> f64 {
        let p = self.config.precision();
        let n = self.config.physical_page_size() * self.head_dim * 2; // K and V
        p.bytes_for(n) + p.metadata_bytes_for(n, self.head_dim)
    }
}

/// Bytes of packed codes per token row.
fn code_row_bytes(precision: KvPrecision, head_dim: usize) -> usize {
    match precision {
        KvPrecision::Fp16 => 0,
        KvPrecision::Int8 => head_dim,
        KvPrecision::Int4 => head_dim.div_ceil(2),
    }
}

/// Stores element `i`'s code into a token row of packed codes.
#[inline]
fn pack(row: &mut [u8], precision: KvPrecision, i: usize, code: u8) {
    match precision {
        KvPrecision::Int8 => row[i] = code,
        // Two per byte, low nibble first; rows start zeroed.
        KvPrecision::Int4 => row[i / 2] |= (code & 0x0F) << (4 * (i % 2)),
        KvPrecision::Fp16 => {}
    }
}

/// Rows with spread, an odd dimension (an INT4 row ends on a half byte)
/// and more tokens than one lane group.
#[cfg(test)]
pub(crate) fn varied_rows(tokens: usize, d: usize) -> Vec<Vec<f32>> {
    (0..tokens)
        .map(|t| {
            (0..d)
                .map(|i| ((t * 31 + i * 17) % 23) as f32 * 0.37 - 3.1)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePool;

    #[test]
    fn append_stores_the_bits_of_quantize_then_dequantize() {
        use lserve_quant::{dequantize_group, quantize_group};
        for precision in [KvPrecision::Int8, KvPrecision::Int4] {
            let (tokens, d) = (20, 5);
            let mut p = PagePool::new(PagingConfig::new(20, 4, precision), 1, d);
            let id = p.allocate().unwrap();
            let rows = varied_rows(tokens, d);
            for (t, row) in rows.iter().enumerate() {
                p.page_mut(id).append(row, &rows[tokens - 1 - t]);
            }
            let page = p.page(id);
            let row_bytes = code_row_bytes(precision, d);
            for t in 0..tokens {
                let (kc, kp) = quantize_group(&rows[t], precision);
                let (vc, vp) = quantize_group(&rows[tokens - 1 - t], precision);
                assert_eq!(page.key_row(t), dequantize_group(&kc, kp));
                assert_eq!(page.value_row(t), dequantize_group(&vc, vp));
                assert_eq!((page.key_params[t], page.value_params[t]), (kp, vp));
                let mut want = vec![0u8; row_bytes];
                for (i, &c) in kc.iter().enumerate() {
                    pack(&mut want, precision, i, c);
                }
                assert_eq!(&page.keys_q[t * row_bytes..(t + 1) * row_bytes], &want);
                if precision == KvPrecision::Int4 {
                    assert_eq!(want[2], kc[4], "odd dimension: high nibble stays clear");
                    assert_eq!(want[0], kc[0] | kc[1] << 4, "low nibble first");
                }
            }
        }
    }
}
