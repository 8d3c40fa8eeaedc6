//! Row-major `f32` matrix with the handful of operations attention kernels need.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// This is the workhorse container of the workspace: query/key/value blocks, weight
/// matrices and activation buffers are all `Matrix` values. Storage is a flat
/// `Vec<f32>` of length `rows * cols`.
///
/// # Example
///
/// ```
/// use lserve_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies rows `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Dense matrix product `self * rhs`.
    ///
    /// Register-blocked: a tile of the output — 2 rows × 16 columns, or
    /// 1 × 32 for an odd last row; 2 × 32 and 1 × 64 in the AVX2 copy — is
    /// held in accumulators across the whole `k` loop, so each loaded `rhs`
    /// element serves every row of the tile and the output is written once.
    /// `rhs` is read in place, row-major: nothing is packed or copied. Column
    /// panels are the outer loop, so one `k × W` panel of `rhs` stays in L1
    /// while the rows of `self` stream past it.
    ///
    /// Every output element is `0.0 + a[i][0]·b[0][j] + a[i][1]·b[1][j] + …`,
    /// summed in `k` order with a separate multiply and add — the arithmetic
    /// of the plain i-k-j loop, so the result is bit-identical to it. That
    /// loop skipped terms with `a[i][k] == 0.0`; this one does not, and for
    /// finite operands it cannot matter: the skipped product is `±0.0`, a sum
    /// that starts at `+0.0` never becomes `-0.0` (`+0.0 + -0.0` and `x + -x`
    /// are both `+0.0` under round-to-nearest), and adding `±0.0` to anything
    /// else returns it unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // One body, compiled twice. Rust never contracts `a * b + c` into an
        // FMA, so the AVX2 copy does the same operations in the same order:
        // only its wider tiles differ.
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` saw AVX2 on this host.
            unsafe { matmul_avx2(self, rhs, &mut out) };
            return out;
        }
        matmul_tiled::<16, 32>(self, rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs^T`, i.e. `out[i][j] = dot(self.row(i), rhs.row(j))`.
    ///
    /// This is the natural layout for attention scores `Q * K^T` when keys are stored
    /// row-per-token.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt inner-dim mismatch: {} vs {}",
            self.cols, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a = self.row(i);
            for j in 0..rhs.rows {
                let b = rhs.row(j);
                let mut acc = 0.0f32;
                for (x, y) in a.iter().zip(b) {
                    acc += x * y;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Adds `rhs` element-wise in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Appends the rows of `rhs` below `self`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn append_rows(&mut self, rhs: &Matrix) {
        assert_eq!(self.cols, rhs.cols, "append_rows column mismatch");
        self.data.extend_from_slice(&rhs.data);
        self.rows += rhs.rows;
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Whether [`Matrix::matmul`] runs its AVX2 copy: the one CPU-feature check
/// behind it.
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    is_x86_feature_detected!("avx2") && !baseline_pinned()
}

/// [`Matrix::matmul`] compiled for AVX2: 2 × 32 and 1 × 64 tiles, eight
/// 8-lane accumulators each, as the baseline copy's tiles are eight 4-lane
/// ones.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_avx2(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    matmul_tiled::<32, 64>(a, b, out);
}

/// [`Matrix::matmul`]'s body: `2 × P` tiles over row pairs and `1 × L` over
/// an odd last row, the columns a wide tile leaves going to narrower ones
/// (32, then 16), the last `n % 16` to a scalar sum each.
#[inline(always)]
fn matmul_tiled<const P: usize, const L: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, kd, n) = (a.rows, a.cols, b.cols);
    let (a, b, out) = (&a.data[..], &b.data[..], &mut out.data[..]);
    let paired = m - m % 2;
    let j = panels::<2, P>(a, kd, b, n, 0..paired, 0, out);
    panels::<2, 16>(a, kd, b, n, 0..paired, j, out);
    if paired < m {
        let j = panels::<1, L>(a, kd, b, n, paired..m, 0, out);
        let j = panels::<1, 32>(a, kd, b, n, paired..m, j, out);
        panels::<1, 16>(a, kd, b, n, paired..m, j, out);
    }
    // Ragged columns (`lm_head` is 128 × 97): one scalar sum each.
    for i in 0..m {
        let a = &a[i * kd..(i + 1) * kd];
        for j in n - n % 16..n {
            let mut acc = 0.0f32;
            for (k, &av) in a.iter().enumerate() {
                acc += av * b[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// The `W`-wide column panels of `rows` (a multiple of `R` of them) from
/// column `j` on, as many as fit, each panel the outer loop over its tiles;
/// returns the first column left.
#[inline(always)]
fn panels<const R: usize, const W: usize>(
    a: &[f32],
    kd: usize,
    b: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    j: usize,
    out: &mut [f32],
) -> usize {
    let end = j + (n - j) / W * W;
    for j0 in (j..end).step_by(W) {
        for i0 in rows.clone().step_by(R) {
            let o = &mut out[i0 * n..(i0 + R) * n];
            tile::<R, W>(&a[i0 * kd..(i0 + R) * kd], kd, b, n, j0, o);
        }
    }
    end
}

/// One `R × W` output tile of [`Matrix::matmul`]: `a` and `out` start at the
/// tile's first row (`kd` and `n` wide), `b` is the whole `kd × n` right
/// operand, `j0` the tile's first column. The widest tiles of each copy hold
/// eight vector accumulators, which with the loaded `b` vectors and a
/// broadcast fill the sixteen registers of x86-64; fewer would leave the adds
/// waiting on each other.
///
/// The speed is fragile to how this is written: `R` and `W` have to be
/// compile-time constants for the accumulators to stay in registers (nested
/// in `matmul` with a run-time width they live in memory). `perf`'s
/// `tensor.matmul_ns_per_mac` probe is the guard.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    kd: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * kd..(r + 1) * kd]);
    for (k, b_row) in b.chunks_exact(n).enumerate() {
        let b_row: &[f32; W] = b_row[j0..j0 + W].try_into().expect("a slice of W elements");
        for (acc, a) in acc.iter_mut().zip(a) {
            let av = a[k];
            for (s, &bv) in acc.iter_mut().zip(b_row) {
                *s += av * bv;
            }
        }
    }
    for r in 0..R {
        out[r * n + j0..r * n + j0 + W].copy_from_slice(&acc[r]);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// Outside tests nothing pins the baseline copy.
#[cfg(all(target_arch = "x86_64", not(test)))]
fn baseline_pinned() -> bool {
    false
}

#[cfg(all(target_arch = "x86_64", test))]
fn baseline_pinned() -> bool {
    BASELINE_PINNED.get()
}

#[cfg(test)]
thread_local! {
    /// Set while [`each_copy`] runs the baseline copy, so that `avx2()`
    /// declines: tests are the only way to pin it.
    static BASELINE_PINNED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `check` through the baseline copy of [`Matrix::matmul`], then through
/// the AVX2 copy where the host has it, naming the copy.
#[cfg(test)]
fn each_copy(mut check: impl FnMut(&str)) {
    BASELINE_PINNED.set(true);
    check("baseline");
    BASELINE_PINNED.set(false);
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        check("avx2");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    /// The i-k-j loop [`Matrix::matmul`] replaced, kept as the reference its
    /// bits are held to.
    fn matmul_ikj(a: &Matrix, b: &Matrix) -> Matrix {
        let (kd, n) = b.shape();
        let mut out = Matrix::zeros(a.rows(), n);
        for i in 0..a.rows() {
            for k in 0..kd {
                let av = a[(i, k)];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The register-tiled product is the i-k-j loop's, bit for bit, through
    /// both compiled copies: whole tiles, every panel boundary of both tile
    /// sets, ragged rows and columns, shapes below one tile, and a left
    /// operand with the exact zeros of both signs the old loop skipped.
    #[test]
    fn matmul_is_bit_identical_to_the_ikj_loop() {
        let mut g = crate::SeededGaussian::new(17);
        for m in [1, 2, 3, 5, 64, 257] {
            for k in [1, 128] {
                for n in [1, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 97, 128, 256] {
                    let mut a = g.matrix(m, k, 1.0);
                    for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
                        match i % 7 {
                            0 => *x = 0.0,
                            3 => *x = -0.0,
                            _ => {}
                        }
                    }
                    let b = g.matrix(k, n, 1.0);
                    let want = matmul_ikj(&a, &b);
                    each_copy(|copy| {
                        let got = a.matmul(&b);
                        assert_eq!(got.shape(), (m, n));
                        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert_eq!(x.to_bits(), y.to_bits(), "{copy}: {m}x{k}x{n} element {i}");
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 2.0, 2.0]]);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_nt(&b);
        assert!(via_t.max_abs_diff(&direct) < 1e-6);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn slice_rows_extracts_middle() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn append_rows_grows() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        a.append_rows(&b);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scale_and_add() {
        let mut a = Matrix::full(2, 2, 1.0);
        a.scale(3.0);
        let b = Matrix::full(2, 2, 0.5);
        a.add_assign(&b);
        assert!(a.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }
}
