//! Bit-reproducible fast activations: sigmoid and tanh built from a
//! polynomial `2^x`, using only IEEE-exact single operations — multiply,
//! add, subtract, divide, min/max, `floor`, and an integer exponent
//! splice. No `exp`/`tanh` libm calls, and no FMA.
//!
//! Why this exists: the LSTM gate epilogue evaluates four activations per
//! hidden unit per timestep. With libm transcendentals that epilogue
//! costs more than the gate GEMMs themselves, capping any SIMD GEMM
//! speedup (Amdahl). A degree-5 polynomial `2^r` is ~4x cheaper in
//! scalar form and vectorizes 8-wide.
//!
//! Why it stays bit-identical across kernels: every operation used here
//! is correctly rounded (IEEE 754 requires it for `+ - * /`) or exact
//! (`floor`, min/max on non-NaN, integer exponent construction), and the
//! scalar form and its 8-lane AVX2 twin (the only SIMD tier) perform the
//! *same operations in the same order* per element. The AVX2 form
//! therefore produces the same bits as the scalar form — the
//! `LAKE_SIMD=scalar` chaos oracle stays exact even though the AVX2
//! engine evaluates activations 8 at a time.
//!
//! Accuracy: `exp2` relative error is ~2e-7 over the clamped range, so
//! sigmoid/tanh are within a few ULP-scale absolute error of libm —
//! far below anything a classifier can observe (asserted in tests).

/// Degree-5 minimax coefficients for `2^r`, `r ∈ [0, 1)` (Cephes-style).
const C5: f32 = 1.877_576_7e-3;
const C4: f32 = 8.989_341e-3;
const C3: f32 = 5.582_631_8e-2;
const C2: f32 = 2.401_536_2e-1;
const C1: f32 = 6.931_531e-1;

/// Clamp bounds keeping `2^k` a normal f32 (no inf/denormal scales).
const LO: f32 = -126.0;
const HI: f32 = 126.0;

/// `-log2(e)` — one constant multiply maps `sigmoid`'s `-x` into base 2.
const NEG_LOG2_E: f32 = -std::f32::consts::LOG2_E;
/// `2·log2(e)` — maps `tanh`'s `2x` into base 2 in one multiply.
const TWO_LOG2_E: f32 = 2.0 * std::f32::consts::LOG2_E;

/// Scalar `2^x`, clamped to `[-126, 126]`. The op sequence below is the
/// contract the AVX2 version replicates exactly: max, min, floor, sub,
/// five Horner steps (separate mul and add), exponent splice, final mul.
#[inline(always)]
// Not `clamp`: max-then-min mirrors `maxps`/`minps` operand-order NaN
// semantics, which `f32::clamp` (NaN-propagating) does not.
#[allow(clippy::manual_clamp)]
fn exp2_core(x: f32) -> f32 {
    let x = x.max(LO).min(HI);
    let k = x.floor();
    let r = x - k;
    let mut p = C5;
    p = p * r + C4;
    p = p * r + C3;
    p = p * r + C2;
    p = p * r + C1;
    p = p * r + 1.0;
    // k is integral and in [-126, 126]: `as i32` (truncating) and the
    // SIMD round-to-nearest convert agree on integral values.
    let scale = f32::from_bits((((k as i32) + 127) << 23) as u32);
    p * scale
}

/// Fast sigmoid: `1 / (1 + 2^(-x·log2 e))`.
#[inline(always)]
pub(crate) fn sigmoid(x: f32) -> f32 {
    let e = exp2_core(x * NEG_LOG2_E);
    1.0 / (1.0 + e)
}

/// Fast tanh: `(e - 1) / (e + 1)` with `e = 2^(2x·log2 e)`.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let e = exp2_core(x * TWO_LOG2_E);
    (e - 1.0) / (e + 1.0)
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    //! 8-wide AVX2 twins of the scalar activations: same ops, same order,
    //! same bits per lane.
    use super::{C1, C2, C3, C4, C5, HI, LO, NEG_LOG2_E, TWO_LOG2_E};
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp2_core8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(LO)), _mm256_set1_ps(HI));
        let k = _mm256_floor_ps(x);
        let r = _mm256_sub_ps(x, k);
        let mut p = _mm256_set1_ps(C5);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(C4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(C3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(C2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(C1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0));
        let ki = _mm256_cvtps_epi32(k);
        let bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(ki, _mm256_set1_epi32(127)));
        _mm256_mul_ps(p, _mm256_castsi256_ps(bits))
    }

    /// 8-lane [`super::sigmoid`].
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn sigmoid8(x: __m256) -> __m256 {
        let e = exp2_core8(_mm256_mul_ps(x, _mm256_set1_ps(NEG_LOG2_E)));
        _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e))
    }

    /// 8-lane [`super::tanh`].
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn tanh8(x: __m256) -> __m256 {
        let e = exp2_core8(_mm256_mul_ps(x, _mm256_set1_ps(TWO_LOG2_E)));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (-4000..=4000).map(|i| i as f32 * 0.01).collect();
        xs.extend([-1.0e4, 1.0e4, -200.0, 200.0, -1.0e-8, 1.0e-8, 0.0, -0.0]);
        xs
    }

    #[test]
    fn close_to_libm() {
        for &x in &sweep() {
            let s = sigmoid(x);
            let s_ref = 1.0 / (1.0 + (-f64::from(x)).exp());
            assert!((f64::from(s) - s_ref).abs() < 2.0e-6, "sigmoid({x}) = {s} vs {s_ref}");
            let t = tanh(x);
            let t_ref = f64::from(x).tanh();
            assert!((f64::from(t) - t_ref).abs() < 2.0e-6, "tanh({x}) = {t} vs {t_ref}");
        }
    }

    #[test]
    fn saturation_is_clean() {
        assert_eq!(sigmoid(1.0e4), 1.0);
        assert!(sigmoid(-1.0e4) >= 0.0 && sigmoid(-1.0e4) < 1.0e-30);
        assert_eq!(tanh(1.0e4), 1.0);
        assert_eq!(tanh(-1.0e4), -1.0);
        assert_eq!(tanh(0.0), 0.0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_matches_scalar_bit_for_bit() {
        use crate::gemm::Kernel;
        use std::arch::x86_64::*;
        let xs = sweep();
        if Kernel::Avx2.available() {
            for chunk in xs.chunks_exact(8) {
                // SAFETY: AVX2 is available (checked above), and each load
                // and store touches exactly 8 floats of an 8-float chunk or
                // array.
                let (s, t): ([f32; 8], [f32; 8]) = unsafe {
                    let v = _mm256_loadu_ps(chunk.as_ptr());
                    let mut s = [0.0f32; 8];
                    _mm256_storeu_ps(s.as_mut_ptr(), avx2::sigmoid8(v));
                    let mut t = [0.0f32; 8];
                    _mm256_storeu_ps(t.as_mut_ptr(), avx2::tanh8(v));
                    (s, t)
                };
                for (i, &x) in chunk.iter().enumerate() {
                    assert_eq!(s[i].to_bits(), sigmoid(x).to_bits(), "sigmoid lanes at {x}");
                    assert_eq!(t[i].to_bits(), tanh(x).to_bits(), "tanh lanes at {x}");
                }
            }
        }
    }
}
