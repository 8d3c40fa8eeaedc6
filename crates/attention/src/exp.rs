//! The lane operations of a lane group's softmax fold — the running max and
//! the `exp` of the weights — one set per compiled copy of the block routine
//! (`block.rs`).
//!
//! The baseline copy runs the running max key by key and calls libm's
//! `f32::exp` lane by lane. On x86_64 glibc with AVX2 and FMA, libm's `expf`
//! ifunc resolves to glibc's FMA build of its table-driven `expf` (glibc ≥
//! 2.27, `e_expf.c` / `e_exp2f_data.c`), and [`Avx2Fma`] runs that build's
//! exact instruction sequence four lanes to a ymm register: every lane is the
//! same IEEE operations on the same operands, each FMA rounding once, so every
//! result has libm's bits. Its running max is a prefix max over 8-lane
//! halves that makes the key-by-key loop's every decision. The tests below
//! hold the `exp` to `f32::exp` on every input and the max to the loop.

use lserve_kvcache::KEY_LANES;

use crate::block::Folds;

/// The lane operations of one compiled copy of the block routine.
pub(crate) trait LaneOps: Copy {
    /// Pass one of the fold: [`Folds::running_max`]'s result, bit for bit.
    fn running_max(self, s: &[f32; KEY_LANES], lanes: usize, scale: f32, max: &mut f32) -> Folds;
    /// `exp` of every lane of a lane group, in place.
    fn exp(self, x: &mut [f32; KEY_LANES]);
}

/// The key-by-key max and libm on each lane: the baseline copy, any host.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Libm;

impl LaneOps for Libm {
    #[inline(always)]
    fn running_max(self, s: &[f32; KEY_LANES], lanes: usize, scale: f32, max: &mut f32) -> Folds {
        Folds::running_max(s, lanes, scale, max)
    }

    #[inline(always)]
    fn exp(self, x: &mut [f32; KEY_LANES]) {
        for x in x {
            *x = x.exp();
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
pub(crate) use avx2::Avx2Fma;

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod avx2 {
    use std::arch::x86_64::*;

    use lserve_kvcache::KEY_LANES;

    use super::LaneOps;
    use crate::block::Folds;

    /// glibc's `__exp2f_data` (`e_exp2f_data.c`; libm 2.36 `.rodata` at
    /// `0xadd40`). The table: `2^(i/32)` with `i << 47` taken off its bits,
    /// so that adding `k << 47` for `k ≡ i (mod 32)` makes it `2^(k/32)`.
    const T: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    /// `32 / ln 2`.
    const INV_LN2_N: u64 = 0x40471547652b82fe;
    /// `1.5 · 2^52`: adding it rounds to an integer, which lands in the low bits.
    const SHIFT: u64 = 0x4338000000000000;
    /// The cubic for `2^(r/32)`, scaled by `32^-3`, `32^-2`, `32^-1`.
    const C0: u64 = 0x3ebc6af84b912394;
    const C1: u64 = 0x3f2ebfce50fac4f3;
    const C2: u64 = 0x3f962e42ff0c52d6;
    /// The lanes that take glibc's main path with no special case: below
    /// `-88`, above `0`, and NaN go to `f32::exp` (weights are never above 0).
    const LOWEST: f32 = -88.0;

    /// Proof that the host has AVX2 and FMA: only [`Avx2Fma::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2Fma(());

    impl Avx2Fma {
        /// The one CPU-feature check behind the AVX2+FMA copy.
        pub(crate) fn detect() -> Option<Self> {
            let host = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            (host && !baseline_pinned()).then_some(Self(()))
        }
    }

    impl LaneOps for Avx2Fma {
        #[inline(always)]
        fn running_max(
            self,
            s: &[f32; KEY_LANES],
            lanes: usize,
            scale: f32,
            max: &mut f32,
        ) -> Folds {
            // SAFETY: `self` exists, so `Avx2Fma::detect` saw AVX2 and FMA.
            unsafe { running_max(s, lanes, scale, max) }
        }

        #[inline(always)]
        fn exp(self, x: &mut [f32; KEY_LANES]) {
            // SAFETY: `self` exists, so `Avx2Fma::detect` saw AVX2 and FMA.
            unsafe { exp_lanes(x) }
        }
    }

    /// [`Folds::running_max`] as a prefix max over each 8-lane half, making
    /// every decision the key-by-key loop makes. `max` and the compares
    /// never round. `_mm256_max_ps(later, earlier)` returns `earlier` unless
    /// `later > earlier`, so on a ±0 tie the earlier lane stays, as under
    /// `score > max`. A NaN score is `-inf` to the scan only: it never
    /// raises the max, and is folded with a NaN weight as in the loop. Then
    /// weight = `score − inclusive max`, rescaled = folded ∧ `score >
    /// exclusive max`, correction = `exclusive − score` where that max is
    /// finite, folded = visible ∧ `score ≠ −∞`.
    #[target_feature(enable = "avx2")]
    fn running_max(s: &[f32; KEY_LANES], lanes: usize, scale: f32, max: &mut f32) -> Folds {
        let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
        let scale = _mm256_set1_ps(scale);
        let index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let up_one = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
        let up_two = _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5);
        let up_four = _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3);
        let mut folds = Folds::default();
        // The max before the half's first lane, in every lane.
        let mut before = _mm256_set1_ps(*max);
        for at in (0..KEY_LANES).step_by(8) {
            // SAFETY: `at + 8 <= KEY_LANES`, the length of `s`.
            let score = _mm256_mul_ps(unsafe { _mm256_loadu_ps(s.as_ptr().add(at)) }, scale);
            let visible = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
                _mm256_set1_epi32(lanes as i32 - at as i32),
                index,
            ));
            let folded = _mm256_and_ps(visible, _mm256_cmp_ps::<_CMP_NEQ_UQ>(score, neg_inf));
            let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(score, score);
            let v = _mm256_blendv_ps(neg_inf, score, _mm256_and_ps(folded, ordered));
            // Lane i takes the max of lanes i − 2^t + 1 ..= i at step t.
            let earlier = _mm256_blend_ps::<0b1>(_mm256_permutevar8x32_ps(v, up_one), neg_inf);
            let v = _mm256_max_ps(v, earlier);
            let earlier = _mm256_blend_ps::<0b11>(_mm256_permutevar8x32_ps(v, up_two), neg_inf);
            let v = _mm256_max_ps(v, earlier);
            let earlier = _mm256_blend_ps::<0b1111>(_mm256_permutevar8x32_ps(v, up_four), neg_inf);
            let inclusive = _mm256_max_ps(_mm256_max_ps(v, earlier), before);
            let exclusive =
                _mm256_blend_ps::<0b1>(_mm256_permutevar8x32_ps(inclusive, up_one), before);
            let rescaled = _mm256_and_ps(folded, _mm256_cmp_ps::<_CMP_GT_OQ>(score, exclusive));
            let corrected =
                _mm256_and_ps(rescaled, _mm256_cmp_ps::<_CMP_NEQ_OQ>(exclusive, neg_inf));
            let weight = _mm256_and_ps(_mm256_sub_ps(score, inclusive), folded);
            let correction = _mm256_and_ps(_mm256_sub_ps(exclusive, score), corrected);
            // SAFETY: `at + 8 <= KEY_LANES`, the length of both arrays.
            unsafe {
                _mm256_storeu_ps(folds.weight.as_mut_ptr().add(at), weight);
                _mm256_storeu_ps(folds.correction.as_mut_ptr().add(at), correction);
            }
            folds.folded |= (_mm256_movemask_ps(folded) as u32) << at;
            folds.rescaled |= (_mm256_movemask_ps(rescaled) as u32) << at;
            folds.corrected |= (_mm256_movemask_ps(corrected) as u32) << at;
            before = _mm256_permutevar8x32_ps(inclusive, _mm256_set1_epi32(7));
        }
        *max = _mm256_cvtss_f32(before);
        folds
    }

    /// glibc's FMA `expf`, four lanes to a ymm register.
    #[target_feature(enable = "avx2,fma")]
    fn exp_lanes(x: &mut [f32; KEY_LANES]) {
        let inv_ln2_n = _mm256_set1_pd(f64::from_bits(INV_LN2_N));
        let shift = _mm256_set1_pd(f64::from_bits(SHIFT));
        let (c0, c1, c2) = (
            _mm256_set1_pd(f64::from_bits(C0)),
            _mm256_set1_pd(f64::from_bits(C1)),
            _mm256_set1_pd(f64::from_bits(C2)),
        );
        let one = _mm256_set1_pd(1.0);
        let low_five = _mm256_set1_epi64x(31);
        let (lowest, zero) = (_mm_set1_ps(LOWEST), _mm_setzero_ps());
        let args = *x;
        let mut outside = 0u32;
        for (quad, (y, a)) in x.chunks_exact_mut(4).zip(args.chunks_exact(4)).enumerate() {
            // SAFETY: `a` is four floats long.
            let a = unsafe { _mm_loadu_ps(a.as_ptr()) };
            let inside = _mm_and_ps(
                _mm_cmp_ps::<_CMP_GE_OQ>(a, lowest),
                _mm_cmp_ps::<_CMP_LE_OQ>(a, zero),
            );
            outside |= (!_mm_movemask_ps(inside) as u32 & 0xf) << (4 * quad);
            let xd = _mm256_cvtps_pd(a);
            // x·32/ln 2 = k + r, k rounded to nearest in the low bits of kd.
            let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
            let ki = _mm256_castpd_si256(kd);
            let kd = _mm256_sub_pd(kd, shift);
            let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
            // s = 2^(k/32): the table entry for k mod 32, k/32 added to its exponent.
            // SAFETY: every index is `ki & 31`, inside the 32-entry table.
            let t = unsafe {
                _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), _mm256_and_si256(ki, low_five))
            };
            let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
            let z = _mm256_fmadd_pd(r, c0, c1);
            let r2 = _mm256_mul_pd(r, r);
            let p = _mm256_fmadd_pd(r, c2, one);
            let p = _mm256_fmadd_pd(z, r2, p);
            // SAFETY: `y` is four floats long.
            unsafe { _mm_storeu_ps(y.as_mut_ptr(), _mm256_cvtpd_ps(_mm256_mul_pd(p, s))) };
        }
        while outside != 0 {
            let lane = outside.trailing_zeros() as usize;
            x[lane] = args[lane].exp();
            outside &= outside - 1;
        }
    }

    /// Outside tests nothing pins the baseline copy.
    #[cfg(not(test))]
    fn baseline_pinned() -> bool {
        false
    }

    #[cfg(test)]
    fn baseline_pinned() -> bool {
        super::BASELINE_PINNED.get()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Compares `Avx2Fma::exp` with `f32::exp` bit for bit on `inputs`, 16
        /// lanes at a time; returns how many were compared.
        fn compare(exp: Avx2Fma, inputs: impl Iterator<Item = f32>) -> u64 {
            let mut lanes = [0.0f32; KEY_LANES];
            let mut filled = 0;
            let mut compared = 0;
            let check = |lanes: &[f32; KEY_LANES], n: usize| {
                let mut got = *lanes;
                exp.exp(&mut got);
                for (&x, &y) in lanes[..n].iter().zip(&got) {
                    assert_eq!(
                        y.to_bits(),
                        x.exp().to_bits(),
                        "exp({x:e}) [{:#010x}]",
                        x.to_bits()
                    );
                }
                n as u64
            };
            for x in inputs {
                lanes[filled] = x;
                filled += 1;
                if filled == KEY_LANES {
                    compared += check(&lanes, filled);
                    filled = 0;
                }
            }
            compared + check(&lanes, filled)
        }

        fn host() -> Option<Avx2Fma> {
            let exp = Avx2Fma::detect();
            if exp.is_none() {
                eprintln!("skipped: this host has no AVX2+FMA, the kernel runs libm's exp");
            }
            exp
        }

        #[test]
        fn lanes_are_libm_exp_on_a_strided_sweep_and_the_edges() {
            let Some(exp) = host() else { return };
            let f = f32::from_bits;
            let at = |x: f32, step: i32| f(x.to_bits().wrapping_add_signed(step));
            let edges = [
                0.0,
                -0.0,
                at(-88.0, -1),
                -88.0,
                at(-88.0, 1),
                -87.33,
                -87.336_55,
                -103.28,
                -103.278_93,
                -103.97,
                -103.972_08,
                f32::NEG_INFINITY,
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                88.72,
                1.0,
                -f32::MIN_POSITIVE,
                f32::MIN,
                // The one input in [-88, 0] where glibc's SSE2 and FMA builds
                // differ: this pins the FMA build.
                -63.099_46,
            ];
            let strided = (0..=u32::MAX).step_by(65_537).map(f);
            let n = compare(exp, edges.into_iter().chain(strided));
            assert_eq!(n, edges.len() as u64 + 65_536);
        }

        /// The vector running max against the key-by-key loop, field by
        /// field: random groups, and groups of NaN, ±∞ and ±0 ties, under
        /// every `lanes`, a `-inf` and finite state max, and a max that first
        /// rises on lane 15.
        #[test]
        fn running_max_is_the_key_by_key_loop() {
            let Some(ops) = host() else { return };
            let mut g = lserve_tensor::SeededGaussian::new(25);
            let specials = [
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
            ];
            let mut groups = Vec::new();
            for _ in 0..64 {
                let mut s = [0.0f32; KEY_LANES];
                g.fill(&mut s, 2.0);
                groups.push(s);
                // A special value in about one lane of three.
                for x in &mut s {
                    if g.index(3) == 0 {
                        *x = specials[g.index(specials.len())];
                    }
                }
                groups.push(s);
                // Ties: every lane one of a few values, zeros of both signs.
                groups.push(std::array::from_fn(|_| [0.0, -0.0, 1.0, -1.0][g.index(4)]));
            }
            let mut rising_last = [-5.0f32; KEY_LANES];
            rising_last[KEY_LANES - 1] = 3.0;
            groups.push(rising_last);
            groups.push([f32::NEG_INFINITY; KEY_LANES]);
            groups.push([-0.0; KEY_LANES]);
            let starts = [f32::NEG_INFINITY, 0.0, -0.0, 0.5, -7.0, f32::INFINITY];
            for s in &groups {
                for lanes in 0..=KEY_LANES {
                    for start in starts {
                        for scale in [1.0, 0.3] {
                            let (mut want_max, mut got_max) = (start, start);
                            let want = Folds::running_max(s, lanes, scale, &mut want_max);
                            let got = ops.running_max(s, lanes, scale, &mut got_max);
                            let at = format!("{s:?} lanes {lanes} start {start} scale {scale}");
                            assert_eq!(got.folded, want.folded, "folded: {at}");
                            assert_eq!(got.rescaled, want.rescaled, "rescaled: {at}");
                            assert_eq!(got.corrected, want.corrected, "corrected: {at}");
                            let bits = |x: [f32; KEY_LANES]| x.map(f32::to_bits);
                            assert_eq!(bits(got.weight), bits(want.weight), "weight: {at}");
                            assert_eq!(
                                bits(got.correction),
                                bits(want.correction),
                                "correction: {at}"
                            );
                            assert_eq!(got_max.to_bits(), want_max.to_bits(), "max: {at}");
                        }
                    }
                }
            }
            // The rising group raises a finite max on lane 15 and nowhere else.
            let mut max = 0.0;
            let folds = ops.running_max(&rising_last, KEY_LANES, 1.0, &mut max);
            assert_eq!(
                (folds.rescaled, folds.corrected, max),
                (1 << 15, 1 << 15, 3.0)
            );
        }

        #[test]
        #[ignore = "all 2^32 inputs, about a minute in release: cargo test --release -p lserve-attention -- --ignored"]
        fn lanes_are_libm_exp_on_every_input() {
            if cfg!(debug_assertions) {
                eprintln!("skipped: run it in a release build");
                return;
            }
            let Some(exp) = host() else { return };
            assert_eq!(compare(exp, (0..=u32::MAX).map(f32::from_bits)), 1 << 32);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Set while [`each_copy`] runs the baseline copy, so that
    /// `Avx2Fma::detect` declines: tests are the only way to pin it.
    static BASELINE_PINNED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `check` through the baseline copy of the block routine, then
/// through the AVX2+FMA copy where the host has it, naming the copy.
#[cfg(test)]
pub(crate) fn each_copy(mut check: impl FnMut(&str)) {
    BASELINE_PINNED.set(true);
    check("baseline");
    BASELINE_PINNED.set(false);
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if Avx2Fma::detect().is_some() {
        check("avx2+fma");
    }
}
