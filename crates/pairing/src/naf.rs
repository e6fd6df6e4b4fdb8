//! Signed-digit recodings of scalars, for the group operations whose
//! inverse is free (point negation, conjugation of a unitary `F_p²`
//! element).
//!
//! * [`wnaf_digits`] — width-w non-adjacent form, for public values: the
//!   Miller loop's steps over `q` (`pairing`) and the final
//!   exponentiation's `^h` ([`crate::fp2`]). It cuts the expected non-zero
//!   digit density from 1/2 to 1/(w+1), but where the non-zero digits fall
//!   depends on the value.
//! * [`regular_digits`] — a fixed count of odd base-16 digits, for secret
//!   scalars modulo the group order: the generator's fixed-base table
//!   (`r·P`, `s·P`, a DH public) and the compose's `g^(h·r)`. Every digit is
//!   non-zero, so every window runs the same operations.

use crate::FpW;

/// The number of regular digits for a group of order `q`:
/// `⌈(bits(q) + 1)/4⌉`, enough for any scalar below `2q`.
pub(crate) fn windows(q: &FpW) -> u32 {
    (q.bits() + 1).div_ceil(4)
}

/// Recodes `k` modulo the odd group order `q` into [`windows`]`(q)` odd
/// signed base-16 digits, least-significant first: `Σ dᵢ·16^i` is `k mod q`
/// or `k mod q + q`, whichever is odd, so it names the same group element.
///
/// The choice between the two is a masked select, and each digit is read
/// off five bits at a fixed position: for an odd `k`, `k = Σ dᵢ·16^i` with
/// `dᵢ = ((⌊k/16^i⌋ mod 32) | 1) − 16` below the top and
/// `d_top = ⌊k/16^top⌋ | 1` (each step `k ← (k − dᵢ)/16` keeps `k` odd, and
/// `(k − dᵢ)/16` is `⌊k/16⌋ | 1`). No branch and no memory index depends on
/// `k` once it is below `q`; a `k ≥ q` is reduced by division first.
/// `q` must be odd and `bits(q) + 1 < FpW::BITS`.
pub(crate) fn regular_digits(k: &FpW, q: &FpW) -> Vec<i8> {
    let k = if k < q { *k } else { k.rem(q) };
    let plus_q = k.wrapping_add(q);
    let even = (k.as_u64() & 1).wrapping_sub(1);
    let (a, b) = (k.limbs(), plus_q.limbs());
    let odd = FpW::from_limbs(core::array::from_fn(|i| a[i] ^ (even & (a[i] ^ b[i]))));
    odd_digits(&odd, windows(q))
}

/// The regular digits of an odd `k < 16^windows` (see [`regular_digits`]).
pub(crate) fn odd_digits(k: &FpW, windows: u32) -> Vec<i8> {
    debug_assert!(k.is_odd(), "regular recoding needs an odd scalar");
    debug_assert!(k.bits() <= 4 * windows, "scalar too wide for its windows");
    let five_bits = |i: u32| (0..5).fold(0i8, |w, b| w | (k.bit(4 * i + b) as i8) << b);
    (0..windows)
        .map(|i| {
            let d = five_bits(i) | 1;
            if i + 1 < windows {
                d - 16
            } else {
                d
            }
        })
        .collect()
}

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

    /// `Σ dᵢ·16^i` over i128 (the test scalars fit).
    fn reconstruct16(digits: &[i8]) -> i128 {
        digits.iter().rev().fold(0, |acc, &d| acc * 16 + d as i128)
    }

    #[test]
    fn odd_digits_roundtrip_and_are_regular() {
        for k in [1u64, 3, 15, 17, 31, 33, 0xff, 0x101, 0xdead_beef, u64::MAX] {
            let k = FpW::from_u64(k);
            for windows in [k.bits().div_ceil(4), k.bits().div_ceil(4) + 1, 17] {
                let digits = odd_digits(&k, windows);
                assert_eq!(digits.len(), windows as usize);
                assert_eq!(reconstruct16(&digits), k.as_u64() as i128, "k={k:?}");
                assert!(digits.iter().all(|d| d % 2 != 0 && (-15..=15).contains(d)));
                assert!(*digits.last().unwrap() > 0);
            }
        }
    }

    #[test]
    fn regular_digits_name_k_modulo_q() {
        let q = FpW::from_u64(0xffff_fffb); // an odd (prime) 32-bit order
        let qi = q.as_u64() as i128;
        let scalars = [
            0u64,
            1,
            2,
            0x80,
            0x8000_0000,
            0xffff_fffa,
            0xffff_fffb,
            0x1_0000_0000,
        ];
        for k in scalars.map(FpW::from_u64) {
            let digits = regular_digits(&k, &q);
            assert_eq!(digits.len(), windows(&q) as usize);
            let v = reconstruct16(&digits);
            assert!(v % 2 == 1 && 0 < v && v < 2 * qi, "k={k:?}");
            assert_eq!(v % qi, (k.as_u64() as i128) % qi, "k={k:?}");
        }
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
