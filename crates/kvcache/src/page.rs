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
/// A quantized page stores codes plus per-token-row scale/zero (QServe
/// layout), and the codes are its storage on every tier: the decode kernel
/// reads them ([`KvPage::data`]) and dequantizes in registers, so a page
/// holds no f32 copy anywhere and nothing is rebuilt when it lands hot. The
/// key bounds stay with the codes, so the selector scores the page wherever
/// it is. An FP16 page's storage is its f32 rows. Key statistics are
/// computed from the *stored* (dequantized) representation, matching what
/// the device kernel reconstructs.
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
    // An FP16 page's rows, empty on a quantized page: keys d-major in lane
    // groups (`key_lane_offset`), values row-major.
    keys_f: Vec<f32>,
    values_f: Vec<f32>,
    // Codes, empty on the FP16 path, in runs: keys d-major (one run of
    // `KEY_LANES` codes per dimension of a lane group), values one run of
    // `head_dim` codes per token row. See `code_slot`.
    keys_q: Vec<u8>,
    values_q: Vec<u8>,
    // Per-token-row params as four arrays, key zeros, key scales, value zeros
    // and value scales (`KvPage::params`), so a lane group dequantizes as
    // `zero + code * scale` over whole vectors. One buffer, not one an array
    // or one a kind: those cost `long_prefill` 0.8 MB of `peak_rss_mb` in
    // allocator layout. Each array covers whole lane groups; slots never
    // appended keep 0/0 and dequantize to 0.
    params: Vec<f32>,
    // Channelwise key bounds of every logical page in one buffer, logical
    // pages side by side: dimension `i` of logical page `l` at `i * g + l`.
    kmin: Vec<f32>,
    kmax: Vec<f32>,
}

/// What the attention kernel reads of a page: its storage.
#[derive(Debug, Clone, Copy)]
pub enum PageData<'a> {
    /// An FP16 page's rows: keys d-major in whole lane groups
    /// ([`key_lane_offset`]; slots past `len` are zero), values row-major,
    /// `len x head_dim`.
    Rows { keys: &'a [f32], values: &'a [f32] },
    /// A quantized page's codes.
    Codes(PageCodes<'a>),
}

/// A quantized page's codes and params, read lane group by lane group.
#[derive(Debug, Clone, Copy)]
pub struct PageCodes<'a> {
    len: usize,
    head_dim: usize,
    int4: bool,
    keys: &'a [u8],
    values: &'a [u8],
    params: [&'a [f32]; 4],
}

impl<'a> PageCodes<'a> {
    /// Tokens stored.
    pub fn len(self) -> usize {
        self.len
    }

    /// True if no token has been appended yet.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// True for INT4 codes, false for INT8.
    pub fn is_int4(self) -> bool {
        self.int4
    }

    /// The occupied lane groups, in slot order: group `g` holds slots
    /// `g * KEY_LANES..` and the value rows of those below `len`.
    #[inline(always)]
    pub fn lane_groups(self) -> impl Iterator<Item = CodeLanes<'a>> {
        let d = self.head_dim;
        let key_run = if self.int4 { KEY_LANES / 2 } else { KEY_LANES };
        let value_run = if self.int4 { d.div_ceil(2) } else { d };
        let [zero, scale, value_zero, value_scale] = self.params;
        let (zero, _) = zero.as_chunks::<KEY_LANES>();
        let (scale, _) = scale.as_chunks::<KEY_LANES>();
        let values = &self.values[..self.len * value_run];
        let value_params = value_zero[..self.len]
            .chunks(KEY_LANES)
            .zip(value_scale.chunks(KEY_LANES));
        self.keys
            .chunks_exact(d * key_run)
            .zip(zero.iter().zip(scale))
            .zip(values.chunks(KEY_LANES * value_run).zip(value_params))
            .map(
                move |((keys, key_params), (values, value_params))| CodeLanes {
                    head_dim: d,
                    keys,
                    key_params,
                    values,
                    value_params,
                },
            )
    }
}

/// One lane group of a quantized page: `KEY_LANES` key slots, d-major, and
/// the value rows of those holding a token. Everything it hands out is
/// `zero + code as f32 * scale`, the f32 operations of
/// [`lserve_quant::QuantParams::dequantize`], so the bits the appends
/// quantized.
#[derive(Debug, Clone, Copy)]
pub struct CodeLanes<'a> {
    head_dim: usize,
    keys: &'a [u8],
    key_params: (&'a [f32; KEY_LANES], &'a [f32; KEY_LANES]),
    values: &'a [u8],
    value_params: (&'a [f32], &'a [f32]),
}

impl CodeLanes<'_> {
    /// Dimension `i` of the group's keys, lane by lane: for INT4 one 8-byte
    /// run, lanes 0..8 in the low nibbles and 8..16 in the high ones.
    #[inline(always)]
    pub fn key_column<const INT4: bool>(self, i: usize) -> [f32; KEY_LANES] {
        let (zero, scale) = self.key_params;
        let mut out = [0.0; KEY_LANES];
        if INT4 {
            let run = self.keys[i * (KEY_LANES / 2)..][..KEY_LANES / 2].try_into();
            dequantize_lanes(split_run(run.expect("a key run")), zero, scale, &mut out);
        } else {
            let run = self.keys[i * KEY_LANES..][..KEY_LANES].try_into();
            dequantize_lanes(run.expect("a key run"), zero, scale, &mut out);
        }
        out
    }

    /// `acc += w * value` for the value row of `lane`, one product per
    /// dimension in order. For INT4 the row's first `ceil(d / 2)` codes are
    /// the low nibbles of its bytes and the rest the high ones, so it
    /// unpacks in two whole-vector passes.
    ///
    /// # Panics
    ///
    /// Panics unless `acc` is `head_dim` long.
    #[inline(always)]
    pub fn add_value<const INT4: bool>(self, lane: usize, w: f32, acc: &mut [f32]) {
        // The length of `acc`, not the field: a caller's known head
        // dimension then sizes the loops.
        let d = acc.len();
        assert_eq!(d, self.head_dim, "one sum per dimension");
        let (zero, scale) = (self.value_params.0[lane], self.value_params.1[lane]);
        if INT4 {
            let run = &self.values[lane * d.div_ceil(2)..][..d.div_ceil(2)];
            let (lo, hi) = acc.split_at_mut(run.len());
            for (a, &b) in lo.iter_mut().zip(run) {
                *a += w * (zero + (b & 0x0F) as f32 * scale);
            }
            for (a, &b) in hi.iter_mut().zip(run) {
                *a += w * (zero + (b >> 4) as f32 * scale);
            }
        } else {
            let run = &self.values[lane * d..][..d];
            for (a, &b) in acc.iter_mut().zip(run) {
                *a += w * (zero + b as f32 * scale);
            }
        }
    }

    /// The value row of `lane`, dequantized into `out` (`head_dim` long).
    #[inline(always)]
    pub fn value_row<const INT4: bool>(self, lane: usize, out: &mut [f32]) {
        let d = out.len();
        let (zero, scale) = (self.value_params.0[lane], self.value_params.1[lane]);
        if INT4 {
            let codes = &self.values[lane * d.div_ceil(2)..][..d.div_ceil(2)];
            let (lo, hi) = out.split_at_mut(codes.len());
            dequantize_row(codes, 0, 0x0F, zero, scale, lo);
            dequantize_row(codes, 4, 0x0F, zero, scale, hi);
        } else {
            dequantize_row(&self.values[lane * d..][..d], 0, 0xFF, zero, scale, out);
        }
    }

    /// The group dequantized whole: `keys` gets its lane group d-major
    /// (`head_dim x KEY_LANES`), `values` its value rows (`KEY_LANES x
    /// head_dim`, rows past `len` untouched) — what an FP16 page stores,
    /// for a fold of many query rows to read at f32 speed.
    #[inline(always)]
    pub fn dequantize_into<const INT4: bool>(self, keys: &mut [f32], values: &mut [f32]) {
        let d = self.head_dim;
        let (keys, _) = keys.as_chunks_mut::<KEY_LANES>();
        for (i, out) in keys[..d].iter_mut().enumerate() {
            *out = self.key_column::<INT4>(i);
        }
        let rows = values.chunks_exact_mut(d).take(self.value_params.0.len());
        for (lane, out) in rows.enumerate() {
            self.value_row::<INT4>(lane, out);
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
        let (rows, params) = match precision {
            KvPrecision::Fp16 => (slots, 0),
            _ => (0, 4 * key_slots),
        };
        Self {
            config,
            head_dim,
            logical,
            len: 0,
            keys_f: vec![0.0; rows.next_multiple_of(KEY_LANES) * head_dim],
            values_f: vec![0.0; rows * head_dim],
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

    /// Floats of f32 rows the page holds: an FP16 page's storage, and none
    /// on a quantized page, whose codes are its storage on every tier.
    pub fn f32_rows_len(&self) -> usize {
        self.keys_f.len() + self.values_f.len()
    }

    /// The page's storage, as the attention kernel reads it.
    #[inline]
    pub fn data(&self) -> PageData<'_> {
        match self.config.precision() {
            KvPrecision::Fp16 => PageData::Rows {
                keys: &self.keys_f,
                values: &self.values_f[..self.len * self.head_dim],
            },
            precision => PageData::Codes(PageCodes {
                len: self.len,
                head_dim: self.head_dim,
                int4: precision == KvPrecision::Int4,
                keys: &self.keys_q,
                values: &self.values_q,
                params: self.params(),
            }),
        }
    }

    /// Appends one `(key, value)` token row, writing codes and params (or an
    /// FP16 page's rows) and key bounds straight into the page's buffers.
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
        let mut bound_key = |i: usize, k: f32| {
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
                bound_key(i, kp.dequantize(c));
            }
            let value_run = run_bytes(precision, d);
            let value_codes = &mut self.values_q[t * value_run..][..value_run];
            let (vp, codes) = quantize_codes(value, precision);
            for (i, c) in codes.enumerate() {
                let (byte, shift) = code_slot(precision, d, i);
                value_codes[byte] |= c << shift;
            }
            let n = self.params.len() / 4;
            (self.params[t], self.params[n + t]) = (kp.zero, kp.scale);
            (self.params[2 * n + t], self.params[3 * n + t]) = (vp.zero, vp.scale);
        } else {
            for (i, &k) in key.iter().enumerate() {
                self.keys_f[key_lane_offset(d, t, i)] = k;
                bound_key(i, k);
            }
            self.values_f[t * d..(t + 1) * d].copy_from_slice(value);
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

    /// The effective (dequantized) key row for token slot `t` within this
    /// page, element by element: gathered from an FP16 page's lanes, or each
    /// code unpacked through `code_slot` and dequantized by
    /// [`QuantParams::dequantize`] — the slow, independent read tests hold
    /// the kernel's to.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn key_row(&self, t: usize) -> Vec<f32> {
        assert!(t < self.len, "token slot {t} out of bounds ({})", self.len);
        let (d, precision) = (self.head_dim, self.config.precision());
        if !precision.is_quantized() {
            return (0..d)
                .map(|i| self.keys_f[key_lane_offset(d, t, i)])
                .collect();
        }
        let [zero, scale, ..] = self.params();
        let params = QuantParams {
            zero: zero[t],
            scale: scale[t],
        };
        let run = run_bytes(precision, KEY_LANES);
        let group = &self.keys_q[t / KEY_LANES * d * run..];
        (0..d)
            .map(|i| {
                params.dequantize(code_at(
                    &group[i * run..][..run],
                    precision,
                    KEY_LANES,
                    t % KEY_LANES,
                ))
            })
            .collect()
    }

    /// The effective (dequantized) value row for token slot `t` within this
    /// page, element by element (see [`KvPage::key_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn value_row(&self, t: usize) -> Vec<f32> {
        assert!(t < self.len, "token slot {t} out of bounds ({})", self.len);
        let (d, precision) = (self.head_dim, self.config.precision());
        if !precision.is_quantized() {
            return self.values_f[t * d..(t + 1) * d].to_vec();
        }
        let [.., zero, scale] = self.params();
        let params = QuantParams {
            zero: zero[t],
            scale: scale[t],
        };
        let run = run_bytes(precision, d);
        let codes = &self.values_q[t * run..][..run];
        (0..d)
            .map(|i| params.dequantize(code_at(codes, precision, d, i)))
            .collect()
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

/// Code `k` of a run of `n` codes.
fn code_at(run: &[u8], precision: KvPrecision, n: usize, k: usize) -> u8 {
    let (byte, shift) = code_slot(precision, n, k);
    let mask = if precision == KvPrecision::Int4 {
        0x0F
    } else {
        0xFF
    };
    run[byte] >> shift & mask
}

/// One row's codes, `byte >> shift & mask` of the first `out.len()` bytes,
/// dequantized with one `zero` / `scale` pair into `out`: 16 at a time,
/// then the rest one by one.
#[inline(always)]
fn dequantize_row(bytes: &[u8], shift: u32, mask: u8, zero: f32, scale: f32, out: &mut [f32]) {
    // `chunks_exact`, not `as_chunks`: the latter measured 5 % slower.
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
/// in the high ones. A loop over the bytes, which compiles to two vector
/// masks: split as one 64-bit word, LLVM rebuilt the high half byte by byte
/// and the INT4 fold ran a third slower.
#[inline(always)]
fn split_run(bytes: &[u8; KEY_LANES / 2]) -> [u8; KEY_LANES] {
    let mut codes = [0; KEY_LANES];
    for (k, &b) in bytes.iter().enumerate() {
        codes[k] = b & 0x0F;
        codes[k + KEY_LANES / 2] = b >> 4;
    }
    codes
}

/// The unpack's step: 16 one-byte codes become `zero + code * scale`, lane
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

    /// A lane group dequantized whole is the rows an FP16 page with the
    /// same effective keys and values stores, bit for bit, zero past
    /// `len()`, and the in-register reads (`key_column`, `add_value` with
    /// `w` = 1 into zeros) agree with it — over {INT4, INT8} × d {5, 32} ×
    /// fills {1, 15, 16, 17, 63, 64}.
    #[test]
    fn a_lane_group_dequantizes_to_the_appended_rows() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for precision in [KvPrecision::Int4, KvPrecision::Int8] {
            for d in [5, 32] {
                for fill in [1, 15, 16, 17, 63, 64] {
                    let case = format!("{precision:?} d {d} fill {fill}");
                    let mut p = PagePool::new(PagingConfig::new(64, 16, precision), 1, d);
                    let id = p.allocate().unwrap();
                    let rows = varied_rows(fill, d);
                    for (t, row) in rows.iter().enumerate() {
                        p.page_mut(id).append(row, &rows[fill - 1 - t]);
                    }
                    let page = p.page(id);
                    let PageData::Codes(codes) = page.data() else {
                        panic!("{case}: a quantized page reads as codes");
                    };
                    let int4 = precision == KvPrecision::Int4;
                    assert_eq!(codes.is_int4(), int4);
                    let groups: Vec<CodeLanes<'_>> = codes.lane_groups().collect();
                    assert_eq!(groups.len(), fill.div_ceil(KEY_LANES), "{case}");
                    for (g, lanes) in groups.into_iter().enumerate() {
                        let (mut keys, mut values) =
                            (vec![0.0; d * KEY_LANES], vec![0.0; d * KEY_LANES]);
                        let mut summed = vec![0.0; d * KEY_LANES];
                        if int4 {
                            lanes.dequantize_into::<true>(&mut keys, &mut values);
                        } else {
                            lanes.dequantize_into::<false>(&mut keys, &mut values);
                        }
                        for lane in 0..KEY_LANES {
                            let t = g * KEY_LANES + lane;
                            let column = |i| {
                                if int4 {
                                    lanes.key_column::<true>(i)
                                } else {
                                    lanes.key_column::<false>(i)
                                }
                            };
                            for i in 0..d {
                                let want = if t < fill { page.key_row(t)[i] } else { 0.0 };
                                assert_eq!(
                                    keys[i * KEY_LANES + lane].to_bits(),
                                    want.to_bits(),
                                    "{case}: key ({t}, {i})"
                                );
                                assert_eq!(
                                    column(i)[lane].to_bits(),
                                    want.to_bits(),
                                    "{case}: column ({t}, {i})"
                                );
                            }
                            if t < fill {
                                let acc = &mut summed[lane * d..][..d];
                                if int4 {
                                    lanes.add_value::<true>(lane, 1.0, acc);
                                } else {
                                    lanes.add_value::<false>(lane, 1.0, acc);
                                }
                                assert_eq!(
                                    bits(&values[lane * d..][..d]),
                                    bits(&page.value_row(t)),
                                    "{case}: value {t}"
                                );
                                assert_eq!(
                                    bits(acc),
                                    bits(&page.value_row(t)),
                                    "{case}: added value {t}"
                                );
                            }
                        }
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
