//! Uniform random `Uint` generation.

use crate::Rng;
use crate::Uint;

/// Uniformly random value in `[0, 2^bits)`.
///
/// # Panics
///
/// Panics if `bits > Uint::<L>::BITS`.
pub fn random_bits<const L: usize, R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Uint<L> {
    assert!(
        bits <= Uint::<L>::BITS,
        "requested more bits than the width holds"
    );
    let mut limbs = [0u64; L];
    let full = (bits / 64) as usize;
    for limb in limbs.iter_mut().take(full) {
        *limb = rng.next_u64();
    }
    let rem = bits % 64;
    if rem != 0 {
        limbs[full] = rng.next_u64() >> (64 - rem);
    }
    Uint::from_limbs(limbs)
}

/// Uniformly random value in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn random_below<const L: usize, R: Rng + ?Sized>(rng: &mut R, bound: &Uint<L>) -> Uint<L> {
    assert!(!bound.is_zero(), "bound must be positive");
    let bits = bound.bits();
    loop {
        let candidate = random_bits(rng, bits);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Uniformly random value in `[1, bound)`.
///
/// # Panics
///
/// Panics if `bound < 2`.
pub fn random_nonzero_below<const L: usize, R: Rng + ?Sized>(
    rng: &mut R,
    bound: &Uint<L>,
) -> Uint<L> {
    assert!(*bound > Uint::ONE, "bound must exceed 1");
    loop {
        let candidate = random_below(rng, bound);
        if !candidate.is_zero() {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TestRng;
    use crate::U256;

    #[test]
    fn random_bits_respects_width() {
        let mut rng = TestRng(1);
        for bits in [0u32, 1, 63, 64, 65, 128, 255, 256] {
            for _ in 0..20 {
                let v: U256 = random_bits(&mut rng, bits);
                assert!(v.bits() <= bits, "bits={bits} got {}", v.bits());
            }
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = TestRng(2);
        let bound = U256::from_u64(1000);
        for _ in 0..200 {
            let v = random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_nonzero_excludes_zero() {
        let mut rng = TestRng(3);
        let bound = U256::from_u64(2);
        for _ in 0..50 {
            assert_eq!(random_nonzero_below(&mut rng, &bound), U256::ONE);
        }
    }

    #[test]
    fn random_covers_high_limbs() {
        let mut rng = TestRng(4);
        let v: U256 = random_bits(&mut rng, 256);
        // Overwhelmingly likely to touch the top limb.
        assert!(v.bits() > 192);
    }
}
