//! One physical KV page: its key lane layout, code packing and per-logical-page
//! key statistics.

use lserve_quant::{quantize_codes, KvPrecision};

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
/// A quantized page stores codes plus per-token-row scale/zero (QServe
/// layout), and the codes are its storage: the f32 *rows* the kernels read
/// are the codes dequantized, held only while the page has a readable hot
/// copy. Below the hot tier the pool drops them ([`KvPage::has_rows`] turns
/// false) and rebuilds them, bit for bit, when the page lands hot again; the
/// key bounds stay, so the selector scores the page wherever it is. An FP16
/// page's rows are its storage and never leave. Key statistics are computed
/// from the *stored* (dequantized) representation, matching what the device
/// kernel could reconstruct.
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
    // The effective (post-quantization) rows in f32. `None` on a quantized
    // page below the hot tier.
    rows: Option<Rows>,
    // Codes, empty on the FP16 path, in runs: keys d-major like their rows
    // (one run of `KEY_LANES` codes per dimension of a lane group), values
    // one run of `head_dim` codes per token row. See `code_slot`.
    keys_q: Vec<u8>,
    values_q: Vec<u8>,
    // Per-token-row params as four arrays, key zeros, key scales, value zeros
    // and value scales (`KvPage::params`), so a rebuild is
    // `zero + code * scale` over whole vectors. One buffer, not one an array
    // or one a kind: those cost `long_prefill` 0.8 MB of `peak_rss_mb` in
    // allocator layout. Each array covers whole lane groups; slots never
    // appended keep 0/0 and rebuild to 0.
    params: Vec<f32>,
    // Channelwise key bounds of every logical page in one buffer, logical
    // pages side by side: dimension `i` of logical page `l` at `i * g + l`.
    kmin: Vec<f32>,
    kmax: Vec<f32>,
}

/// A page's f32 rows. Keys are d-major in lane groups (`key_lane_offset`),
/// so the kernel loads one dimension of `KEY_LANES` neighbouring keys as one
/// contiguous run; values are row-major. Every page of a pool has rows of
/// one size, so the rows one page gives up fit any other.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    keys: Vec<f32>,
    values: Vec<f32>,
}

impl Rows {
    fn zeroed(config: PagingConfig, head_dim: usize) -> Self {
        let slots = config.physical_page_size();
        Self {
            keys: vec![0.0; slots.next_multiple_of(KEY_LANES) * head_dim],
            values: vec![0.0; slots * head_dim],
        }
    }
}

impl KvPage {
    /// An empty page.
    pub(crate) fn new(config: PagingConfig, head_dim: usize) -> Self {
        let slots = config.physical_page_size();
        let key_slots = slots.next_multiple_of(KEY_LANES);
        let logical = config.logical_per_physical();
        let precision = config.precision();
        let params = match precision {
            KvPrecision::Fp16 => 0,
            _ => 4 * key_slots,
        };
        Self {
            config,
            head_dim,
            logical,
            len: 0,
            rows: Some(Rows::zeroed(config, head_dim)),
            keys_q: vec![0; key_slots / KEY_LANES * head_dim * run_bytes(precision, KEY_LANES)],
            values_q: vec![0; slots * run_bytes(precision, head_dim)],
            params: vec![0.0; params],
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

    /// True while the page holds its f32 rows: always for FP16, and for a
    /// quantized page exactly while it has a readable hot copy.
    pub fn has_rows(&self) -> bool {
        self.rows.is_some()
    }

    /// Gives up the rows of a quantized page, whose codes are its storage,
    /// and returns them for another page's rebuild. An FP16 page keeps them:
    /// they are its storage.
    pub(crate) fn take_rows(&mut self) -> Option<Rows> {
        if self.config.precision().is_quantized() {
            self.rows.take()
        } else {
            None
        }
    }

    /// Rebuilds the rows of a quantized page from its codes into `spare` —
    /// rows another page gave up — or into fresh ones: bit for bit the rows
    /// the appends wrote, everything past `len()` zero. The rebuild writes
    /// every occupied lane group whole (slots never appended have 0/0
    /// params), so only a partial page has a tail to clear.
    pub(crate) fn restore_rows(&mut self, spare: Option<Rows>) {
        debug_assert!(self.rows.is_none(), "restore of a page that holds its rows");
        let mut rows = spare.unwrap_or_else(|| Rows::zeroed(self.config, self.head_dim));
        let d = self.head_dim;
        let groups = self.len.div_ceil(KEY_LANES) * KEY_LANES * d;
        let (keys, key_tail) = rows.keys.split_at_mut(groups);
        let (values, value_tail) = rows.values.split_at_mut(self.len * d);
        key_tail.fill(0.0);
        value_tail.fill(0.0);
        match self.config.precision() {
            KvPrecision::Int4 => self.rebuild::<true>(keys, values),
            KvPrecision::Int8 => self.rebuild::<false>(keys, values),
            KvPrecision::Fp16 => unreachable!("an FP16 page never drops its rows"),
        }
        self.rows = Some(rows);
    }

    /// [`KvPage::restore_rows`] of the occupied lane groups and value rows,
    /// for one code width, 16 codes at a time.
    #[inline(always)]
    fn rebuild<const INT4: bool>(&self, keys: &mut [f32], values: &mut [f32]) {
        let d = self.head_dim;
        // Run `r` of the key codes is dimension `r % d` of lane group `r / d`.
        let (nibbles, _) = self.keys_q.as_chunks::<{ KEY_LANES / 2 }>();
        let (bytes, _) = self.keys_q.as_chunks::<KEY_LANES>();
        let [zero, scale, value_zero, value_scale] = self.params();
        let (zero, _) = zero.as_chunks::<KEY_LANES>();
        let (scale, _) = scale.as_chunks::<KEY_LANES>();
        let (out, _) = keys.as_chunks_mut::<KEY_LANES>();
        for (g, out) in out.chunks_exact_mut(d).enumerate() {
            let (zero, scale) = (&zero[g], &scale[g]);
            let runs = g * d..(g + 1) * d;
            if INT4 {
                for (out, run) in out.iter_mut().zip(&nibbles[runs]) {
                    dequantize_lanes(split_run(run), zero, scale, out);
                }
            } else {
                for (out, run) in out.iter_mut().zip(&bytes[runs]) {
                    dequantize_lanes(*run, zero, scale, out);
                }
            }
        }
        let value_run = run_bytes(self.config.precision(), d);
        let rows = values
            .chunks_exact_mut(d)
            .zip(self.values_q.chunks_exact(value_run));
        for (t, (out, codes)) in rows.enumerate() {
            let (zero, scale) = (value_zero[t], value_scale[t]);
            if INT4 {
                let (lo, hi) = out.split_at_mut(value_run);
                dequantize_row(codes, 0, 0x0F, zero, scale, lo);
                dequantize_row(codes, 4, 0x0F, zero, scale, hi);
            } else {
                dequantize_row(codes, 0, 0xFF, zero, scale, out);
            }
        }
    }

    /// Appends one `(key, value)` token row, writing codes, params, key
    /// bounds and — if the page holds them — rows straight into the page's
    /// buffers.
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
        // A page without rows gets empty row slices, and the `get_mut` writes
        // below fall off them: the check the index would make anyway, not a
        // second branch per element.
        let (keys_f, values_f): (&mut [f32], &mut [f32]) = match self.rows.as_mut() {
            Some(rows) => (&mut rows.keys, &mut rows.values[t * d..(t + 1) * d]),
            None => (&mut [], &mut []),
        };
        let mut store_key = |i: usize, k: f32| {
            if let Some(slot) = keys_f.get_mut(key_lane_offset(d, t, i)) {
                *slot = k;
            }
            // Selects, not branches: on a young logical page every other key
            // sets a bound, which no predictor follows.
            let (lo, hi) = (&mut self.kmin[i * g + l], &mut self.kmax[i * g + l]);
            *lo = if k < *lo { k } else { *lo };
            *hi = if k > *hi { k } else { *hi };
        };
        if precision.is_quantized() {
            // Token `t`'s key codes: one in each of the `d` runs of its lane group.
            let key_run = run_bytes(precision, KEY_LANES);
            let (byte, shift) = code_slot(precision, KEY_LANES, t % KEY_LANES);
            let key_codes = &mut self.keys_q[t / KEY_LANES * d * key_run..][..d * key_run];
            let (kp, codes) = quantize_codes(key, precision);
            for (i, c) in codes.enumerate() {
                key_codes[i * key_run + byte] |= c << shift;
                store_key(i, kp.dequantize(c));
            }
            let value_run = run_bytes(precision, d);
            let value_codes = &mut self.values_q[t * value_run..][..value_run];
            let (vp, codes) = quantize_codes(value, precision);
            for (i, c) in codes.enumerate() {
                let (byte, shift) = code_slot(precision, d, i);
                value_codes[byte] |= c << shift;
                if let Some(slot) = values_f.get_mut(i) {
                    *slot = vp.dequantize(c);
                }
            }
            let n = self.params.len() / 4;
            (self.params[t], self.params[n + t]) = (kp.zero, kp.scale);
            (self.params[2 * n + t], self.params[3 * n + t]) = (vp.zero, vp.scale);
        } else {
            for (i, &k) in key.iter().enumerate() {
                store_key(i, k);
            }
            values_f.copy_from_slice(value);
        }
        self.len += 1;
    }

    /// The param arrays of a quantized page: key zeros, key scales, value
    /// zeros, value scales.
    #[inline]
    fn params(&self) -> [&[f32]; 4] {
        let n = self.params.len() / 4;
        std::array::from_fn(|a| &self.params[a * n..(a + 1) * n])
    }

    /// The rows, which a kernel may read only on a page that holds them.
    #[inline]
    fn rows(&self) -> &Rows {
        self.rows.as_ref().unwrap_or_else(|| {
            panic!("read of the rows of a quantized page below the hot tier: promote it first")
        })
    }

    /// The effective (dequantized) keys, d-major in lane groups: dimension `i`
    /// of token slot `t` is at [`key_lane_offset`]`(head_dim, t, i)`. Slots at
    /// and past `len()` hold zeros.
    ///
    /// # Panics
    ///
    /// Panics if the page does not hold its rows ([`KvPage::has_rows`]).
    #[inline]
    pub fn key_lanes(&self) -> &[f32] {
        &self.rows().keys
    }

    /// The effective (dequantized) values of the stored tokens, row-major
    /// (`len() x head_dim`).
    ///
    /// # Panics
    ///
    /// Panics if the page does not hold its rows ([`KvPage::has_rows`]).
    #[inline]
    pub fn value_rows(&self) -> &[f32] {
        &self.rows().values[..self.len * self.head_dim]
    }

    /// The effective (dequantized) key row for token slot `t` within this page,
    /// gathered from the d-major store (tests and debugging; kernels read
    /// [`KvPage::key_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()` or the page does not hold its rows
    /// ([`KvPage::has_rows`]).
    pub fn key_row(&self, t: usize) -> Vec<f32> {
        assert!(t < self.len, "token slot {t} out of bounds ({})", self.len);
        let keys = self.key_lanes();
        (0..self.head_dim)
            .map(|i| keys[key_lane_offset(self.head_dim, t, i)])
            .collect()
    }

    /// The effective (dequantized) value row for token slot `t` within this page.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()` or the page does not hold its rows
    /// ([`KvPage::has_rows`]).
    #[inline]
    pub fn value_row(&self, t: usize) -> &[f32] {
        assert!(t < self.len, "token slot {t} out of bounds ({})", self.len);
        &self.value_rows()[t * self.head_dim..(t + 1) * self.head_dim]
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
    /// the add latency `head_dim` times over; `STAT_LANES` logical pages are
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

/// Bytes of one run of `n` packed codes.
fn run_bytes(precision: KvPrecision, n: usize) -> usize {
    match precision {
        KvPrecision::Fp16 => 0,
        KvPrecision::Int8 => n,
        KvPrecision::Int4 => n.div_ceil(2),
    }
}

/// Where code `k` of a run of `n` codes sits: its byte in the run and its
/// shift in that byte. INT8 takes a byte per code. INT4 packs a run's first
/// `ceil(n / 2)` codes into the low nibbles of its bytes and the rest into
/// the high ones, so a run unpacks with two whole-vector passes and no
/// shuffle; a key run is 16 codes in 8 bytes. Code buffers start zeroed and
/// each slot is written once, so a store is `byte |= code << shift`.
#[inline]
fn code_slot(precision: KvPrecision, n: usize, k: usize) -> (usize, u32) {
    let half = n.div_ceil(2);
    match precision {
        // A compare, not `k % half`: `n` is the head dimension on the
        // append path, and a division per code shows there.
        KvPrecision::Int4 if k >= half => (k - half, 4),
        _ => (k, 0),
    }
}

/// One row's codes, `byte >> shift & mask` of the first `out.len()` bytes,
/// dequantized with one `zero` / `scale` pair into `out`: 16 at a time,
/// then the rest one by one.
#[inline(always)]
fn dequantize_row(bytes: &[u8], shift: u32, mask: u8, zero: f32, scale: f32, out: &mut [f32]) {
    // `chunks_exact`, not `as_chunks`: the latter costs the rebuild 5 %.
    let bytes = &bytes[..out.len()];
    let (zeros, scales) = ([zero; KEY_LANES], [scale; KEY_LANES]);
    let mut blocks = out.chunks_exact_mut(KEY_LANES);
    for (out, codes) in (&mut blocks).zip(bytes.chunks_exact(KEY_LANES)) {
        let codes: [u8; KEY_LANES] = codes.try_into().expect("a chunk of KEY_LANES codes");
        let out = out.try_into().expect("a chunk of KEY_LANES rows");
        dequantize_lanes(codes.map(|b| b >> shift & mask), &zeros, &scales, out);
    }
    let rest = bytes.len() / KEY_LANES * KEY_LANES;
    for (o, &b) in blocks.into_remainder().iter_mut().zip(&bytes[rest..]) {
        *o = zero + (b >> shift & mask) as f32 * scale;
    }
}

/// The codes of a key run: 8 bytes, lanes 0..8 in the low nibbles and 8..16
/// in the high ones.
#[inline(always)]
fn split_run(bytes: &[u8; KEY_LANES / 2]) -> [u8; KEY_LANES] {
    std::array::from_fn(|k| bytes[k % 8] >> (k / 8 * 4) & 0x0F)
}

/// The rebuild's step: 16 one-byte codes become `zero + code * scale`, lane
/// by lane — the f32 operations of [`lserve_quant::QuantParams::dequantize`],
/// so the same bits. Whole arrays, so the compiler vectorizes across the
/// lanes rather than across blocks, which would gather each lane's bytes one
/// by one.
#[inline(always)]
fn dequantize_lanes(
    codes: [u8; KEY_LANES],
    zero: &[f32; KEY_LANES],
    scale: &[f32; KEY_LANES],
    out: &mut [f32; KEY_LANES],
) {
    for k in 0..KEY_LANES {
        out[k] = zero[k] + codes[k] as f32 * scale[k];
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

    /// Code `k` of run `run` in a buffer of runs of `n` codes.
    fn unpack(codes: &[u8], precision: KvPrecision, n: usize, run: usize, k: usize) -> u8 {
        let (byte, shift) = code_slot(precision, n, k);
        let mask = if precision == KvPrecision::Int4 {
            0x0F
        } else {
            0xFF
        };
        codes[run * run_bytes(precision, n) + byte] >> shift & mask
    }

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
            for t in 0..tokens {
                let (kc, kp) = quantize_group(&rows[t], precision);
                let (vc, vp) = quantize_group(&rows[tokens - 1 - t], precision);
                assert_eq!(page.key_row(t), dequantize_group(&kc, kp));
                assert_eq!(page.value_row(t), dequantize_group(&vc, vp));
                let [kz, ks, vz, vs] = page.params();
                assert_eq!((kz[t], ks[t]), (kp.zero, kp.scale));
                assert_eq!((vz[t], vs[t]), (vp.zero, vp.scale));
                for i in 0..d {
                    let key = unpack(&page.keys_q, precision, KEY_LANES, t / 16 * d + i, t % 16);
                    assert_eq!(key, kc[i], "key code ({t}, {i})");
                    assert_eq!(unpack(&page.values_q, precision, d, t, i), vc[i]);
                }
            }
        }
    }

    /// The rebuild gives back the rows the appends wrote, bit for bit and
    /// zero past `len()`, into fresh rows and into the rows another page
    /// dropped — a full page's into a partial page's and the other way
    /// round — over {INT4, INT8} × d {5, 32} × fills {1, 15, 16, 17, 63, 64}.
    #[test]
    fn the_rebuild_restores_the_appended_rows_into_any_buffer() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let store = |page: &KvPage| (bits(&page.rows().keys), bits(&page.rows().values));
        for precision in [KvPrecision::Int4, KvPrecision::Int8] {
            for d in [5, 32] {
                for fill in [1, 15, 16, 17, 63, 64] {
                    let mut p = PagePool::new(PagingConfig::new(64, 16, precision), 2, d);
                    let (full, part) = (p.allocate().unwrap(), p.allocate().unwrap());
                    let rows = varied_rows(64, d);
                    for (t, row) in rows.iter().enumerate() {
                        p.page_mut(full).append(row, &rows[63 - t]);
                        if t < fill {
                            p.page_mut(part).append(&rows[63 - t], row);
                        }
                    }
                    let (full, part) = (p.page(full), p.page(part));
                    for (dropped, rebuilt) in [(full, part), (part, full)] {
                        let case = format!("{precision:?} d {d} fill {fill}");
                        let mut page = rebuilt.clone();
                        page.take_rows();
                        page.restore_rows(dropped.clone().take_rows());
                        assert!(store(&page) == store(rebuilt), "{case}: into dropped rows");
                        page.take_rows();
                        page.restore_rows(None);
                        assert!(store(&page) == store(rebuilt), "{case}: into fresh rows");
                    }
                }
            }
        }
    }

    #[test]
    fn int4_runs_split_into_nibble_halves() {
        let mut run = [0u8; 3];
        for (k, code) in [1u8, 2, 3, 4, 5].into_iter().enumerate() {
            let (byte, shift) = code_slot(KvPrecision::Int4, 5, k);
            run[byte] |= code << shift;
        }
        // An odd run: three low nibbles, then two high ones; the last high
        // nibble stays clear.
        assert_eq!(run, [1 | 4 << 4, 2 | 5 << 4, 3]);
        let lane_9 = code_slot(KvPrecision::Int4, KEY_LANES, 9);
        assert_eq!(lane_9, (1, 4), "lane 9: byte 1, high nibble");
        let key_run: [u8; KEY_LANES / 2] = std::array::from_fn(|b| (b as u8 + 8) << 4 | b as u8);
        let split: [u8; KEY_LANES] = std::array::from_fn(|k| k as u8);
        assert_eq!(
            split_run(&key_run),
            split,
            "a key run unpacks to its lanes in order"
        );
        assert_eq!(
            code_slot(KvPrecision::Int8, 5, 4),
            (4, 0),
            "INT8: a byte a code"
        );
    }
}
