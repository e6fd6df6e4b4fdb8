//! Width-w non-adjacent form (wNAF) recoding of scalars.
//!
//! Shared by the Miller loop's steps over `q` (`pairing`) and unitary `F_p²`
//! exponentiation ([`crate::fp2`]): both have cheap inverses (point
//! negation / conjugation), which is exactly when a signed-digit
//! representation pays off — it cuts the expected non-zero digit density
//! from 1/2 to 1/(w+1). Both recode public values; secret scalars go
//! through the curve's Montgomery ladder instead.

use crate::FpW;

/// Recodes `k` into width-`w` NAF digits, least-significant first.
///
/// Each digit is odd and in `(−2^{w−1}, 2^{w−1})`, or zero; the value is
/// `k = Σ dᵢ·2^i`. Callers must ensure `k.bits() + w ≤ FpW::BITS` so the
/// intermediate `k − dᵢ` cannot wrap (a pairing context's `q` and the final
/// exponentiation's exponents are far below the width).
pub(crate) fn wnaf_digits(k: &FpW, w: u32) -> Vec<i8> {
    debug_assert!((2..8).contains(&w), "wNAF width out of supported range");
    debug_assert!(k.bits() + w <= FpW::BITS, "scalar too wide for wNAF");
    let mut k = *k;
    let mut digits = Vec::with_capacity(k.bits() as usize + 1);
    let mask = (1u64 << w) - 1;
    let half = 1i64 << (w - 1);
    let full = 1i64 << w;
    while !k.is_zero() {
        let d = if k.is_odd() {
            let low = (k.as_u64() & mask) as i64;
            let d = if low >= half { low - full } else { low };
            if d >= 0 {
                k = k.wrapping_sub(&FpW::from_u64(d as u64));
            } else {
                k = k.wrapping_add(&FpW::from_u64((-d) as u64));
            }
            d as i8
        } else {
            0
        };
        digits.push(d);
        k = k.wrapping_shr(1);
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstructs the scalar from its digits (checked small enough to fit
    /// in i128 for the test values used).
    fn reconstruct(digits: &[i8]) -> i128 {
        digits
            .iter()
            .enumerate()
            .map(|(i, &d)| (d as i128) << i)
            .sum()
    }

    #[test]
    fn wnaf_roundtrips_and_is_sparse() {
        for w in 2..8 {
            for k in [0u64, 1, 2, 3, 15, 16, 255, 0xdead_beef, u32::MAX as u64] {
                let digits = wnaf_digits(&FpW::from_u64(k), w);
                assert_eq!(reconstruct(&digits), k as i128, "k={k} w={w}");
                let half = 1i8 << (w - 1);
                for pair in digits.windows(w as usize) {
                    // At most one non-zero digit per w-window.
                    assert!(pair.iter().filter(|d| **d != 0).count() <= 1);
                }
                for &d in &digits {
                    assert!(d == 0 || (d % 2 != 0 && -half < d && d < half));
                }
            }
        }
    }
}
