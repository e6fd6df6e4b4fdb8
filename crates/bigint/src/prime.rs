//! Miller–Rabin primality testing and random prime generation.

use crate::Rng;
use crate::{random_bits, random_nonzero_below, Mont, Uint};

/// Number of Miller–Rabin rounds to run for a probabilistic test.
///
/// Each round has an error probability of at most 1/4; the standard choice of
/// 40 rounds yields an error bound of 2⁻⁸⁰, far below hardware failure rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MillerRabinRounds(pub u32);

impl Default for MillerRabinRounds {
    fn default() -> Self {
        Self(40)
    }
}

/// Small primes for trial division prior to Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Probabilistic primality test (trial division + Miller–Rabin).
pub fn is_prime<const L: usize, R: Rng + ?Sized>(
    n: &Uint<L>,
    rounds: MillerRabinRounds,
    rng: &mut R,
) -> bool {
    if *n < Uint::from_u64(2) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pv = Uint::from_u64(p);
        if *n == pv {
            return true;
        }
        if n.rem(&pv).is_zero() {
            return false;
        }
    }
    // n is odd and > 199 here; write n−1 = d · 2^s.
    let n_minus_1 = n.wrapping_sub(&Uint::ONE);
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1.wrapping_shr(s);
    let mont = Mont::new(n).expect("odd modulus > 1");
    let one_m = mont.one_mont();
    let minus_one_m = mont.to_mont(&n_minus_1);

    'witness: for _ in 0..rounds.0 {
        // Witness a in [2, n-2]. n > 199 so the bound is safe.
        let a = loop {
            let c = random_nonzero_below(rng, &n_minus_1);
            if c > Uint::ONE {
                break c;
            }
        };
        let mut x = mont.pow_mont(&mont.to_mont(&a), &d);
        if x == one_m || x == minus_one_m {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = mont.mont_sqr(&x);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random prime with exactly `bits` significant bits.
///
/// The top two bits are forced to 1 (guaranteeing the bit length and making
/// products of two such primes reach the full doubled width — the RSA
/// convention) and the low bit is forced to 1.
///
/// # Panics
///
/// Panics if `bits < 3` or `bits > Uint::<L>::BITS`.
pub fn gen_prime<const L: usize, R: Rng + ?Sized>(
    rng: &mut R,
    bits: u32,
    rounds: MillerRabinRounds,
) -> Uint<L> {
    assert!(
        (3..=Uint::<L>::BITS).contains(&bits),
        "unsupported prime size"
    );
    loop {
        let mut candidate: Uint<L> = random_bits(rng, bits);
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(bits - 2, true);
        candidate.set_bit(0, true);
        if is_prime(&candidate, rounds, rng) {
            return candidate;
        }
    }
}

/// Generates a safe prime `p = 2q + 1` (both `p` and `q` prime) with exactly
/// `bits` bits in `p`. Used by tests exercising subgroup structure; safe
/// primes are slow to find at large sizes, so keep `bits` modest.
pub fn gen_safe_prime<const L: usize, R: Rng + ?Sized>(
    rng: &mut R,
    bits: u32,
    rounds: MillerRabinRounds,
) -> Uint<L> {
    assert!(
        (4..=Uint::<L>::BITS).contains(&bits),
        "unsupported prime size"
    );
    loop {
        let q: Uint<L> = gen_prime(rng, bits - 1, rounds);
        let (p, carry) = q.wrapping_shl(1).overflowing_add(&Uint::ONE);
        if carry {
            continue;
        }
        if p.bits() == bits && is_prime(&p, rounds, rng) {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TestRng;
    use crate::{U256, U512};

    fn rng() -> TestRng {
        TestRng(42)
    }

    #[test]
    fn known_small_primes_and_composites() {
        let mut rng = rng();
        let r = MillerRabinRounds(20);
        for p in [2u64, 3, 5, 7, 199, 211, 65537, 2_147_483_647] {
            assert!(is_prime(&U256::from_u64(p), r, &mut rng), "{p} is prime");
        }
        for c in [0u64, 1, 4, 9, 221, 65535, 2_147_483_649] {
            assert!(
                !is_prime(&U256::from_u64(c), r, &mut rng),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = rng();
        let r = MillerRabinRounds(20);
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&U256::from_u64(c), r, &mut rng), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        let mut rng = rng();
        // 2^255 - 19 (the curve25519 prime).
        let mut p = U256::ZERO;
        p.set_bit(255, true);
        let p = p.wrapping_sub(&U256::from_u64(19));
        assert!(is_prime(&p, MillerRabinRounds(16), &mut rng));
        // Its neighbour is composite.
        let c = p.wrapping_sub(&U256::from_u64(2));
        assert!(!is_prime(&c, MillerRabinRounds(16), &mut rng));
    }

    #[test]
    fn generated_prime_has_requested_shape() {
        let mut rng = rng();
        let p: U256 = gen_prime(&mut rng, 96, MillerRabinRounds(12));
        assert_eq!(p.bits(), 96);
        assert!(p.is_odd());
        assert!(p.bit(94), "second-highest bit forced");
        assert!(is_prime(&p, MillerRabinRounds(12), &mut rng));
    }

    #[test]
    fn generated_512_bit_prime() {
        let mut rng = rng();
        let p: U512 = gen_prime(&mut rng, 256, MillerRabinRounds(8));
        assert_eq!(p.bits(), 256);
        assert!(is_prime(&p, MillerRabinRounds(8), &mut rng));
    }

    #[test]
    fn safe_prime_structure() {
        let mut rng = rng();
        let p: U256 = gen_safe_prime(&mut rng, 48, MillerRabinRounds(10));
        assert_eq!(p.bits(), 48);
        let q = p.wrapping_shr(1); // (p-1)/2 since p odd
        assert!(is_prime(&q, MillerRabinRounds(10), &mut rng));
    }
}
