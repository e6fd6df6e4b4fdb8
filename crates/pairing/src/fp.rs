//! Prime-field arithmetic `F_p` in the Montgomery domain.
//!
//! Field elements ([`Fp`]) are plain values; every operation goes through an
//! explicit [`FpCtx`] carrying the Montgomery context, so there is no hidden
//! global state and two parameter sets can coexist in one process.

use crate::{FpW, FP_LIMBS};
use mws_bigint::{random_below, Mont, Rng, Uint};

/// A field element, stored in Montgomery form.
///
/// Elements are only meaningful relative to the [`FpCtx`] that produced
/// them; mixing contexts is a logic error (debug assertions catch the cases
/// where the value exceeds the modulus).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp(pub(crate) FpW);

impl core::fmt::Debug for Fp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp(0x{})", self.0.to_hex())
    }
}

/// Arithmetic context for `F_p`.
#[derive(Clone, Debug)]
pub struct FpCtx {
    mont: Mont<FP_LIMBS>,
    /// `(p + 1) / 4` — the square-root exponent (valid because `p ≡ 3 mod 4`).
    sqrt_exp: FpW,
    /// Cached constant 2 (Montgomery form), hoisted out of inner loops.
    two: Fp,
    /// Cached constant 3 (Montgomery form), hoisted out of inner loops.
    three: Fp,
}

impl FpCtx {
    /// Creates a context for an odd prime `p ≡ 3 (mod 4)`.
    ///
    /// Primality is the caller's contract and is not checked: [`FpCtx::inv`]
    /// and [`FpCtx::sqrt`] are exponentiations that are only right modulo a
    /// prime.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or `p % 4 != 3` (parameter generation upholds
    /// this; the panic guards against corrupted parameters).
    pub fn new(p: &FpW) -> Self {
        assert!(p.is_odd(), "field modulus must be odd");
        assert_eq!(p.as_u64() & 3, 3, "type-A pairing needs p ≡ 3 (mod 4)");
        let mont = Mont::new(p).expect("odd modulus");
        let sqrt_exp = p.wrapping_add(&Uint::ONE).wrapping_shr(2);
        let mut ctx = Self {
            mont,
            sqrt_exp,
            two: Fp(FpW::ZERO),
            three: Fp(FpW::ZERO),
        };
        ctx.two = ctx.from_u64(2);
        ctx.three = ctx.from_u64(3);
        ctx
    }

    /// The constant 2, cached at construction (hot in the Miller loops'
    /// tangent slope `(3x² + 1) / 2y`).
    pub fn two(&self) -> Fp {
        self.two
    }

    /// The constant 3, cached at construction (hot in the Miller loops'
    /// tangent slope and affine doubling).
    pub fn three(&self) -> Fp {
        self.three
    }

    /// The modulus.
    pub fn modulus(&self) -> &FpW {
        self.mont.modulus()
    }

    /// The additive identity.
    pub fn zero(&self) -> Fp {
        Fp(FpW::ZERO)
    }

    /// The multiplicative identity.
    pub fn one(&self) -> Fp {
        Fp(self.mont.one_mont())
    }

    /// Imports an integer (reduced mod `p`) into the field.
    pub fn from_uint(&self, v: &FpW) -> Fp {
        Fp(self.mont.to_mont(&self.mont.reduce(v)))
    }

    /// Imports a small integer.
    pub fn from_u64(&self, v: u64) -> Fp {
        self.from_uint(&FpW::from_u64(v))
    }

    /// Exports a field element as a canonical integer `< p`.
    pub fn to_uint(&self, a: &Fp) -> FpW {
        self.mont.from_mont(&a.0)
    }

    /// Canonical big-endian bytes (fixed `8·FP_LIMBS` length).
    pub fn to_bytes(&self, a: &Fp) -> Vec<u8> {
        self.to_uint(a).to_be_bytes()
    }

    /// Parses canonical bytes; values ≥ p are reduced.
    pub fn from_bytes(&self, bytes: &[u8]) -> Option<Fp> {
        FpW::from_be_bytes(bytes).ok().map(|v| self.from_uint(&v))
    }

    /// Is the element zero?
    pub fn is_zero(&self, a: &Fp) -> bool {
        a.0.is_zero()
    }

    /// `a + b`.
    pub fn add(&self, a: &Fp, b: &Fp) -> Fp {
        Fp(self.mont.add(&a.0, &b.0))
    }

    /// `a − b`.
    pub fn sub(&self, a: &Fp, b: &Fp) -> Fp {
        Fp(self.mont.sub(&a.0, &b.0))
    }

    /// `−a`.
    pub fn neg(&self, a: &Fp) -> Fp {
        Fp(self.mont.neg(&a.0))
    }

    /// `a · b`.
    pub fn mul(&self, a: &Fp, b: &Fp) -> Fp {
        Fp(self.mont.mont_mul(&a.0, &b.0))
    }

    /// `a²`.
    pub fn sqr(&self, a: &Fp) -> Fp {
        Fp(self.mont.mont_sqr(&a.0))
    }

    /// `2a`.
    pub fn dbl(&self, a: &Fp) -> Fp {
        self.add(a, a)
    }

    /// `a^e` for a plain integer exponent.
    pub fn pow(&self, a: &Fp, e: &FpW) -> Fp {
        Fp(self.mont.pow_mont(&a.0, e))
    }

    /// Multiplicative inverse `a^(p−2)`. Returns `None` for zero; for a
    /// composite `p` the result is meaningless (see [`FpCtx::new`]).
    ///
    /// Fermat stays in the Montgomery domain on the modulus's active limbs;
    /// the extended Euclidean algorithm on the canonical representative costs
    /// 3–4× as much at 160 and 256 bits and 1.5× at 512.
    pub fn inv(&self, a: &Fp) -> Option<Fp> {
        if a.0.is_zero() {
            return None;
        }
        let p_minus_2 = self.modulus().wrapping_sub(&Uint::from_u64(2));
        Some(self.pow(a, &p_minus_2))
    }

    /// Square root via `a^((p+1)/4)` (valid for `p ≡ 3 mod 4`).
    /// Returns `None` when `a` is a non-residue.
    pub fn sqrt(&self, a: &Fp) -> Option<Fp> {
        let r = self.pow(a, &self.sqrt_exp);
        if self.sqr(&r) == *a {
            Some(r)
        } else {
            None
        }
    }

    /// Legendre symbol: is `a` a (possibly zero) square?
    pub fn is_square(&self, a: &Fp) -> bool {
        self.is_zero(a) || self.sqrt(a).is_some()
    }

    /// Canonical parity of an element (LSB of the integer form) — used for
    /// compressed point encoding.
    pub fn parity(&self, a: &Fp) -> bool {
        self.to_uint(a).is_odd()
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp {
        let v = random_below(rng, self.modulus());
        self.from_uint(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FpCtx {
        // p = 2^255 − 19 is ≡ 1 mod 4; use a 3-mod-4 prime instead:
        // p = 2^127 − 1 (Mersenne, prime, ≡ 3 mod 4).
        let mut p = FpW::ZERO;
        p.set_bit(127, true);
        FpCtx::new(&p.wrapping_sub(&FpW::ONE))
    }

    #[test]
    fn field_axioms_spot_checks() {
        let f = ctx();
        let a = f.from_u64(1234567);
        let b = f.from_u64(7654321);
        let c = f.from_u64(31);
        // Commutativity / associativity / distributivity.
        assert_eq!(f.add(&a, &b), f.add(&b, &a));
        assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        assert_eq!(
            f.mul(&f.add(&a, &b), &c),
            f.add(&f.mul(&a, &c), &f.mul(&b, &c))
        );
        // Identities.
        assert_eq!(f.add(&a, &f.zero()), a);
        assert_eq!(f.mul(&a, &f.one()), a);
        assert_eq!(f.mul(&a, &f.zero()), f.zero());
        // Inverses.
        assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
        assert_eq!(f.mul(&a, &f.inv(&a).unwrap()), f.one());
    }

    #[test]
    fn cached_constants_match_from_u64() {
        let f = ctx();
        assert_eq!(f.two(), f.from_u64(2));
        assert_eq!(f.three(), f.from_u64(3));
        assert_eq!(f.two(), f.add(&f.one(), &f.one()));
        assert_eq!(f.three(), f.add(&f.two(), &f.one()));
    }

    #[test]
    fn neg_zero_is_zero() {
        let f = ctx();
        assert_eq!(f.neg(&f.zero()), f.zero());
        assert!(f.inv(&f.zero()).is_none());
    }

    #[test]
    fn sqrt_roundtrip() {
        let f = ctx();
        for v in [4u64, 9, 16, 1234567890] {
            let a = f.from_u64(v);
            let s = f.sqr(&a);
            let r = f.sqrt(&s).expect("square has a root");
            assert!(r == a || r == f.neg(&a));
        }
    }

    #[test]
    fn sqrt_rejects_nonresidue() {
        let f = ctx();
        // Exactly one of (a, -a) can fail to be... actually find a known
        // non-residue: try small values until one fails.
        let mut found = false;
        for v in 2u64..50 {
            let a = f.from_u64(v);
            if f.sqrt(&a).is_none() {
                found = true;
                assert!(!f.is_square(&a));
                break;
            }
        }
        assert!(found, "some small non-residue exists");
    }

    #[test]
    fn bytes_roundtrip() {
        let f = ctx();
        let a = f.from_u64(0xdead_beef);
        let bytes = f.to_bytes(&a);
        assert_eq!(bytes.len(), 64);
        assert_eq!(f.from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = ctx();
        let a = f.from_u64(3);
        let mut acc = f.one();
        for _ in 0..13 {
            acc = f.mul(&acc, &a);
        }
        assert_eq!(f.pow(&a, &FpW::from_u64(13)), acc);
    }

    #[test]
    #[should_panic(expected = "p ≡ 3 (mod 4)")]
    fn rejects_1_mod_4_prime() {
        // 13 ≡ 1 mod 4.
        let _ = FpCtx::new(&FpW::from_u64(13));
    }
}
