//! Rotary position embeddings (RoPE) as used by Llama-family models.
//!
//! Queries and keys are rotated pairwise in the complex plane at position-dependent
//! frequencies before the attention dot product, which makes relative position a
//! function of the angle between them.

/// Precomputed RoPE frequency table for a fixed head dimension.
///
/// # Example
///
/// ```
/// use lserve_tensor::rope::RopeTable;
///
/// let rope = RopeTable::new(8, 10_000.0);
/// let mut q = vec![1.0; 8];
/// rope.apply(&mut q, 0); // position 0 is the identity rotation
/// assert!(q.iter().zip([1.0f32; 8].iter()).all(|(a, b)| (a - b).abs() < 1e-6));
/// ```
#[derive(Debug, Clone)]
pub struct RopeTable {
    head_dim: usize,
    inv_freq: Vec<f32>,
}

impl RopeTable {
    /// Builds the table for vectors of dimension `head_dim` with the given base
    /// (Llama uses 10 000; long-context variants scale it up).
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd or zero.
    pub fn new(head_dim: usize, base: f32) -> Self {
        assert!(
            head_dim > 0 && head_dim.is_multiple_of(2),
            "head_dim must be even and positive"
        );
        let half = head_dim / 2;
        let inv_freq = (0..half)
            .map(|i| base.powf(-(2.0 * i as f32) / head_dim as f32))
            .collect();
        Self { head_dim, inv_freq }
    }

    /// The head dimension this table was built for.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Rotates `x` (length `head_dim`) in place for token position `pos`.
    ///
    /// Uses the interleaved-pair convention: dims `(2i, 2i+1)` form the i-th pair.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != head_dim`.
    pub fn apply(&self, x: &mut [f32], pos: usize) {
        assert_eq!(x.len(), self.head_dim, "rope dimension mismatch");
        for (pair, &f) in x.chunks_exact_mut(2).zip(&self.inv_freq) {
            rotate_pair(pair, (pos as f32 * f).sin_cos());
        }
    }

    /// The `(sin, cos)` of every pair's angle at each of `positions`,
    /// `head_dim / 2` per position: what [`RopeTable::apply`] rotates by. A
    /// token row's angles are the same for every head of every layer, so a
    /// forward pass computes them once per row and [`RopeTable::rotate`]s with
    /// them — the same `sin_cos` of the same product, hence the same bits.
    pub fn angles(&self, positions: impl IntoIterator<Item = usize>) -> Vec<(f32, f32)> {
        let pairs = positions.into_iter().flat_map(|pos| {
            self.inv_freq
                .iter()
                .map(move |&f| (pos as f32 * f).sin_cos())
        });
        pairs.collect()
    }

    /// [`RopeTable::apply`] with one position's precomputed
    /// [`RopeTable::angles`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not two elements per angle.
    pub fn rotate(x: &mut [f32], angles: &[(f32, f32)]) {
        assert_eq!(x.len(), 2 * angles.len(), "rope dimension mismatch");
        for (pair, &angle) in x.chunks_exact_mut(2).zip(angles) {
            rotate_pair(pair, angle);
        }
    }

    /// Applies [`RopeTable::apply`] to each row of a row-major `(tokens x head_dim)`
    /// buffer, where row `t` gets position `start_pos + t`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not a multiple of `head_dim`.
    pub fn apply_rows(&self, rows: &mut [f32], start_pos: usize) {
        assert_eq!(
            rows.len() % self.head_dim,
            0,
            "buffer not a whole number of rows"
        );
        for (t, row) in rows.chunks_mut(self.head_dim).enumerate() {
            self.apply(row, start_pos + t);
        }
    }
}

/// Rotates one `(2i, 2i+1)` pair by the angle with the given `(sin, cos)`.
#[inline]
fn rotate_pair(pair: &mut [f32], (sin, cos): (f32, f32)) {
    let (a, b) = (pair[0], pair[1]);
    pair[0] = a * cos - b * sin;
    pair[1] = a * sin + b * cos;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::dot;

    #[test]
    fn position_zero_is_identity() {
        let rope = RopeTable::new(16, 10_000.0);
        let orig: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut x = orig.clone();
        rope.apply(&mut x, 0);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let rope = RopeTable::new(8, 10_000.0);
        let mut x = vec![1.0, -2.0, 0.5, 3.0, -1.0, 0.1, 2.0, -0.7];
        let before: f32 = x.iter().map(|v| v * v).sum();
        rope.apply(&mut x, 1234);
        let after: f32 = x.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-4);
    }

    #[test]
    fn dot_product_depends_only_on_relative_position() {
        // <rope(q, p), rope(k, p+d)> must be the same for all p at fixed d.
        let rope = RopeTable::new(8, 10_000.0);
        let q0 = vec![0.3, -0.2, 0.9, 0.1, -0.5, 0.4, 0.2, 0.8];
        let k0 = vec![-0.1, 0.7, 0.2, -0.3, 0.6, 0.0, -0.4, 0.5];
        let d = 5;
        let score_at = |p: usize| {
            let mut q = q0.clone();
            let mut k = k0.clone();
            rope.apply(&mut q, p);
            rope.apply(&mut k, p + d);
            dot(&q, &k)
        };
        let s1 = score_at(0);
        let s2 = score_at(97);
        assert!((s1 - s2).abs() < 1e-3, "{s1} vs {s2}");
    }

    #[test]
    fn rotating_by_precomputed_angles_is_apply_to_the_bit() {
        let rope = RopeTable::new(32, 10_000.0);
        let orig: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let positions = [0, 1, 63, 64, 4095, 131_071];
        let angles = rope.angles(positions);
        assert_eq!(angles.len(), positions.len() * 16);
        for (&pos, angles) in positions.iter().zip(angles.chunks(16)) {
            let (mut want, mut got) = (orig.clone(), orig.clone());
            rope.apply(&mut want, pos);
            RopeTable::rotate(&mut got, angles);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "position {pos}");
        }
    }

    #[test]
    fn apply_rows_offsets_positions() {
        let rope = RopeTable::new(4, 10_000.0);
        let mut rows = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        rope.apply_rows(&mut rows, 3);
        let mut single = vec![1.0, 0.0, 1.0, 0.0];
        rope.apply(&mut single, 4);
        assert!(rows[4..8]
            .iter()
            .zip(&single)
            .all(|(a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "head_dim must be even")]
    fn odd_head_dim_rejected() {
        let _ = RopeTable::new(7, 10_000.0);
    }
}
