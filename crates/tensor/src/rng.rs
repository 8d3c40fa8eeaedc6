//! Seeded random initialization for synthetic weights and workloads.
//!
//! Every experiment in the reproduction must be deterministic, so all randomness flows
//! through [`SeededGaussian`], a Box–Muller Gaussian source over an in-crate SplitMix64
//! generator (the build environment has no registry access, so no `rand` dependency).

use crate::Matrix;

/// SplitMix64: a tiny, statistically solid 64-bit generator with a 64-bit seed.
/// Used only for synthetic-data initialization, never for cryptography.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` from the top 24 bits.
    #[inline]
    fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` (multiply-shift; bias is < 2^-53 for the
    /// bounds used here).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Deterministic Gaussian sampler (Box–Muller over a seeded PRNG).
///
/// # Example
///
/// ```
/// use lserve_tensor::SeededGaussian;
///
/// let mut a = SeededGaussian::new(42);
/// let mut b = SeededGaussian::new(42);
/// assert_eq!(a.sample(), b.sample());
/// ```
#[derive(Debug)]
pub struct SeededGaussian {
    rng: SplitMix64,
    spare: Option<f32>,
}

impl SeededGaussian {
    /// Creates a sampler from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Draws one standard-normal sample.
    pub fn sample(&mut self) -> f32 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller transform.
        let u1: f64 = loop {
            let u: f64 = self.rng.unit_f64();
            if u > 1e-12 {
                break u;
            }
        };
        let u2: f64 = self.rng.unit_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }

    /// Fills a slice with `N(0, std^2)` samples.
    pub fn fill(&mut self, xs: &mut [f32], std: f32) {
        for x in xs.iter_mut() {
            *x = self.sample() * std;
        }
    }

    /// Creates a `rows x cols` matrix of `N(0, std^2)` samples.
    pub fn matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        self.fill(m.as_mut_slice(), std);
        m
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.rng.below(bound as u64) as usize
    }

    /// Draws a uniform f32 in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.rng.unit_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_across_instances() {
        let mut a = SeededGaussian::new(7);
        let mut b = SeededGaussian::new(7);
        for _ in 0..100 {
            assert_eq!(a.sample().to_bits(), b.sample().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededGaussian::new(1);
        let mut b = SeededGaussian::new(2);
        let same = (0..32).all(|_| a.sample().to_bits() == b.sample().to_bits());
        assert!(!same);
    }

    #[test]
    fn mean_and_std_roughly_standard_normal() {
        let mut g = SeededGaussian::new(123);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| g.sample()).collect();
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn matrix_has_requested_shape() {
        let mut g = SeededGaussian::new(9);
        let m = g.matrix(4, 5, 0.1);
        assert_eq!(m.shape(), (4, 5));
        assert!(m.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn index_respects_bound() {
        let mut g = SeededGaussian::new(5);
        for _ in 0..1000 {
            assert!(g.index(7) < 7);
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut g = SeededGaussian::new(5);
        for _ in 0..1000 {
            let u = g.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
