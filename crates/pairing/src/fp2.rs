//! The quadratic extension `F_p² = F_p[i] / (i² + 1)`.
//!
//! Valid because `p ≡ 3 (mod 4)` makes −1 a non-residue. Pairing values and
//! the distortion-map image live here. The arithmetic runs at the field's
//! width on `Fe2<N>`; [`Fp2`] carries a value across the API.

use crate::fp::{Fe, Field, Fp, FpCtx};
use crate::{at_width, FpW};

/// An element `c0 + c1·i` of `F_p²`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp2 {
    /// Real component.
    pub c0: Fp,
    /// Imaginary component.
    pub c1: Fp,
}

impl core::fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp2({:?} + {:?}·i)", self.c0, self.c1)
    }
}

/// An element `c0 + c1·i` of `F_p²` at width `N`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Fe2<const N: usize> {
    pub(crate) c0: Fe<N>,
    pub(crate) c1: Fe<N>,
}

impl Fp2 {
    /// The element at width `N`.
    #[inline(always)]
    pub(crate) fn at<const N: usize>(&self) -> Fe2<N> {
        Fe2 {
            c0: self.c0.at(),
            c1: self.c1.at(),
        }
    }

    /// Widens a width-`N` element into the API's container.
    pub(crate) fn from_fe<const N: usize>(a: &Fe2<N>) -> Fp2 {
        Fp2 {
            c0: Fp::from_fe(&a.c0),
            c1: Fp::from_fe(&a.c1),
        }
    }
}

impl<const N: usize> Field<N> {
    /// Builds an extension element from components.
    #[inline(always)]
    pub(crate) fn fp2(&self, c0: Fe<N>, c1: Fe<N>) -> Fe2<N> {
        Fe2 { c0, c1 }
    }

    /// One of `F_p²`.
    pub(crate) fn fp2_one(&self) -> Fe2<N> {
        self.fp2(self.one(), self.zero())
    }

    /// `a + b` in `F_p²`.
    #[cfg(test)]
    pub(crate) fn fp2_add(&self, a: &Fe2<N>, b: &Fe2<N>) -> Fe2<N> {
        self.fp2(self.add(&a.c0, &b.c0), self.add(&a.c1, &b.c1))
    }

    /// `−a` in `F_p²`.
    #[cfg(test)]
    pub(crate) fn fp2_neg(&self, a: &Fe2<N>) -> Fe2<N> {
        self.fp2(self.neg(&a.c0), self.neg(&a.c1))
    }

    /// `a · b` in `F_p²` (Karatsuba: 3 base multiplications).
    #[inline(always)]
    pub(crate) fn fp2_mul(&self, a: &Fe2<N>, b: &Fe2<N>) -> Fe2<N> {
        let v0 = self.mul(&a.c0, &b.c0);
        let v1 = self.mul(&a.c1, &b.c1);
        let s = self.mul(&self.add(&a.c0, &a.c1), &self.add(&b.c0, &b.c1));
        self.fp2(self.sub(&v0, &v1), self.sub(&self.sub(&s, &v0), &v1))
    }

    /// `a²` in `F_p²` (complex squaring: 2 base multiplications).
    #[inline(always)]
    pub(crate) fn fp2_sqr(&self, a: &Fe2<N>) -> Fe2<N> {
        // (c0 + c1 i)² = (c0+c1)(c0−c1) + 2 c0 c1 i
        let t0 = self.add(&a.c0, &a.c1);
        let t1 = self.sub(&a.c0, &a.c1);
        let c1 = self.mul(&a.c0, &a.c1);
        self.fp2(self.mul(&t0, &t1), self.dbl(&c1))
    }

    /// Conjugation `c0 − c1·i` — which is also the Frobenius `a ↦ a^p`.
    #[inline(always)]
    pub(crate) fn fp2_conj(&self, a: &Fe2<N>) -> Fe2<N> {
        self.fp2(a.c0, self.neg(&a.c1))
    }

    /// Norm `a·ā = c0² + c1² ∈ F_p`.
    pub(crate) fn fp2_norm(&self, a: &Fe2<N>) -> Fe<N> {
        self.add(&self.sqr(&a.c0), &self.sqr(&a.c1))
    }

    /// Inverse in `F_p²`: `ā / (c0² + c1²)`. `None` for zero.
    pub(crate) fn fp2_inv(&self, a: &Fe2<N>) -> Option<Fe2<N>> {
        let ninv = self.inv(&self.fp2_norm(a))?;
        Some(self.fp2(self.mul(&a.c0, &ninv), self.neg(&self.mul(&a.c1, &ninv))))
    }

    /// `a^e` in `F_p²` by plain square-and-multiply — the reference path
    /// the regular and wNAF exponentiations are checked against.
    pub(crate) fn fp2_pow_binary(&self, a: &Fe2<N>, e: &FpW) -> Fe2<N> {
        let mut acc = self.fp2_one();
        for i in (0..e.bits()).rev() {
            acc = self.fp2_sqr(&acc);
            if e.bit(i) {
                acc = self.fp2_mul(&acc, a);
            }
        }
        acc
    }

    /// `a^e` for norm-1 (unitary) elements, width-4 signed wNAF with
    /// conjugation as inversion.
    ///
    /// After the easy final exponentiation `z^{p−1} = z̄/z` every value
    /// satisfies `a·ā = 1`, so `a⁻¹ = ā` is free and signed-digit recoding
    /// applies, as point negation makes it apply on the curve. Used for the
    /// hard final-exponentiation power `^h`. Bit-identical to
    /// [`Self::fp2_pow_binary`] on unitary inputs.
    ///
    /// Debug builds assert the norm; release builds silently compute a
    /// wrong value for non-unitary inputs. `e` must leave the recoding 4
    /// bits of headroom (`h` does: `PairingCtx::from_params` refuses a
    /// `q` below 16).
    pub(crate) fn fp2_pow_unitary(&self, a: &Fe2<N>, e: &FpW) -> Fe2<N> {
        const W: u32 = 4;
        debug_assert_eq!(self.fp2_norm(a), self.one(), "input must be unitary");
        if e.is_zero() {
            return self.fp2_one();
        }
        let a2 = self.fp2_sqr(a);
        let mut odd = [*a; 1 << (W - 1)];
        for i in 1..odd.len() {
            odd[i] = self.fp2_mul(&odd[i - 1], &a2);
        }
        let digits = crate::naf::wnaf_digits(e, W);
        let mut acc: Option<Fe2<N>> = None;
        for &d in digits.iter().rev() {
            if let Some(v) = acc {
                acc = Some(self.fp2_sqr(&v));
            }
            if d != 0 {
                let m = odd[(d.unsigned_abs() as usize - 1) / 2];
                let m = if d > 0 { m } else { self.fp2_conj(&m) };
                acc = Some(match acc {
                    None => m,
                    Some(v) => self.fp2_mul(&v, &m),
                });
            }
        }
        acc.unwrap_or_else(|| self.fp2_one())
    }

    /// `a^k` for a unitary `a`, `digits` the regular recoding of `k`
    /// ([`crate::naf::regular_digits`]): the powers `a, a³, …, a¹⁵`, then
    /// per digit below the top four squarings and one product with a
    /// masked scan of them, conjugated for a negative digit. The squarings,
    /// products and table reads are the same for every `k`. Debug builds
    /// assert the norm.
    pub(crate) fn fp2_pow_regular(&self, a: &Fe2<N>, digits: &[i8]) -> Fe2<N> {
        debug_assert_eq!(self.fp2_norm(a), self.one(), "input must be unitary");
        let a2 = self.fp2_sqr(a);
        let mut odd = [(a.c0, a.c1); 8];
        let mut power = *a;
        for entry in odd.iter_mut().skip(1) {
            power = self.fp2_mul(&power, &a2);
            *entry = (power.c0, power.c1);
        }
        let lookup = |d: i8| {
            let (c0, c1) = self.signed_lookup(&odd, d);
            self.fp2(c0, c1)
        };
        let (top, rest) = digits.split_last().expect("at least one digit");
        let mut acc = lookup(*top);
        for &d in rest.iter().rev() {
            for _ in 0..4 {
                acc = self.fp2_sqr(&acc);
            }
            acc = self.fp2_mul(&acc, &lookup(d));
        }
        acc
    }
}

impl FpCtx {
    /// One of `F_p²`.
    pub fn fp2_one(&self) -> Fp2 {
        at_width!(self, |f| Fp2::from_fe(&f.fp2_one()))
    }

    /// `a²` in `F_p²`.
    pub fn fp2_sqr(&self, a: &Fp2) -> Fp2 {
        at_width!(self, |f| Fp2::from_fe(&f.fp2_sqr(&a.at())))
    }

    /// `a^e` in `F_p²` by plain square-and-multiply — the reference path
    /// kept as the oracle of [`crate::PairingCtx::gt_pow`] and the final
    /// exponentiation.
    pub fn fp2_pow_binary(&self, a: &Fp2, e: &FpW) -> Fp2 {
        at_width!(self, |f| Fp2::from_fe(&f.fp2_pow_binary(&a.at(), e)))
    }

    /// Canonical serialization: `c0 ‖ c1` big-endian.
    pub fn fp2_to_bytes(&self, a: &Fp2) -> Vec<u8> {
        at_width!(self, |f| {
            let mut out = f.to_bytes(&a.c0.at());
            out.extend_from_slice(&f.to_bytes(&a.c1.at()));
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::tests::field;

    #[test]
    fn i_squared_is_minus_one() {
        let f = field();
        let i = f.fp2(f.zero(), f.one());
        let i2 = f.fp2_sqr(&i);
        assert_eq!(i2, f.fp2_neg(&f.fp2_one()));
        // Via mul as well.
        assert_eq!(f.fp2_mul(&i, &i), i2);
    }

    #[test]
    fn mul_sqr_agree() {
        let f = field();
        let a = f.fp2(f.import_u64(123), f.import_u64(456));
        assert_eq!(f.fp2_mul(&a, &a), f.fp2_sqr(&a));
    }

    #[test]
    fn field_axioms() {
        let f = field();
        let a = f.fp2(f.import_u64(11), f.import_u64(22));
        let b = f.fp2(f.import_u64(33), f.import_u64(44));
        let c = f.fp2(f.import_u64(55), f.import_u64(66));
        assert_eq!(f.fp2_mul(&a, &b), f.fp2_mul(&b, &a));
        assert_eq!(
            f.fp2_mul(&f.fp2_mul(&a, &b), &c),
            f.fp2_mul(&a, &f.fp2_mul(&b, &c))
        );
        assert_eq!(
            f.fp2_mul(&f.fp2_add(&a, &b), &c),
            f.fp2_add(&f.fp2_mul(&a, &c), &f.fp2_mul(&b, &c))
        );
        assert_eq!(f.fp2_mul(&a, &f.fp2_one()), a);
        assert_eq!(f.fp2_add(&a, &f.fp2_neg(&a)), f.fp2(f.zero(), f.zero()));
    }

    #[test]
    fn inverse_roundtrip() {
        let f = field();
        let a = f.fp2(f.import_u64(987654321), f.import_u64(123456789));
        let inv = f.fp2_inv(&a).unwrap();
        assert_eq!(f.fp2_mul(&a, &inv), f.fp2_one());
        assert!(f.fp2_inv(&f.fp2(f.zero(), f.zero())).is_none());
        // Base-field-only element inverts like Fp.
        let b = f.fp2(f.import_u64(7), f.zero());
        let binv = f.fp2_inv(&b).unwrap();
        assert_eq!(binv.c0, f.inv(&f.import_u64(7)).unwrap());
        assert!(f.is_zero(&binv.c1));
    }

    #[test]
    fn conj_is_frobenius() {
        let f = field();
        let a = f.fp2(f.import_u64(31337), f.import_u64(271828));
        let frob = f.fp2_pow_binary(&a, f.modulus());
        assert_eq!(frob, f.fp2_conj(&a));
    }

    #[test]
    fn norm_multiplicative() {
        let f = field();
        let a = f.fp2(f.import_u64(3), f.import_u64(5));
        let b = f.fp2(f.import_u64(7), f.import_u64(11));
        let nab = f.fp2_norm(&f.fp2_mul(&a, &b));
        assert_eq!(nab, f.mul(&f.fp2_norm(&a), &f.fp2_norm(&b)));
    }

    #[test]
    fn unitary_pow_matches_binary() {
        let f = field();
        // Make a unitary element the same way the pairing does: z^{p−1}.
        let z = f.fp2(f.import_u64(987654321), f.import_u64(1234567));
        let u = f.fp2_mul(&f.fp2_conj(&z), &f.fp2_inv(&z).unwrap());
        assert_eq!(f.fp2_norm(&u), f.one());
        let mut exps = vec![FpW::ZERO, FpW::ONE, FpW::from_u64(2), FpW::from_u64(12345)];
        exps.push(f.modulus().wrapping_add(&FpW::ONE));
        for e in &exps {
            assert_eq!(f.fp2_pow_unitary(&u, e), f.fp2_pow_binary(&u, e));
        }
    }

    #[test]
    fn regular_pow_matches_binary() {
        let f = field();
        let z = f.fp2(f.import_u64(987654321), f.import_u64(1234567));
        let u = f.fp2_mul(&f.fp2_conj(&z), &f.fp2_inv(&z).unwrap());
        let mut exps = vec![
            FpW::ONE,
            FpW::from_u64(3),
            FpW::from_u64(17),
            FpW::from_u64(0xdead_beef),
        ];
        exps.push(f.modulus().wrapping_sub(&FpW::from_u64(2)));
        for e in &exps {
            for windows in [e.bits().div_ceil(4), 33] {
                let digits = crate::naf::odd_digits(e, windows);
                assert_eq!(
                    f.fp2_pow_regular(&u, &digits),
                    f.fp2_pow_binary(&u, e),
                    "{e:?}"
                );
            }
        }
    }

    #[test]
    fn pow_edge_cases() {
        let f = field();
        let a = f.fp2(f.import_u64(5), f.import_u64(9));
        assert_eq!(f.fp2_pow_binary(&a, &FpW::ZERO), f.fp2_one());
        assert_eq!(f.fp2_pow_binary(&a, &FpW::ONE), a);
        assert_eq!(f.fp2_pow_binary(&a, &FpW::from_u64(2)), f.fp2_sqr(&a));
        // Lagrange: a^(p²−1) = 1 for a ≠ 0. p²−1 = (p−1)(p+1); compute in
        // two steps to stay within the width.
        let pm1 = f.modulus().wrapping_sub(&FpW::ONE);
        let pp1 = f.modulus().wrapping_add(&FpW::ONE);
        let step = f.fp2_pow_binary(&a, &pm1);
        assert_eq!(f.fp2_pow_binary(&step, &pp1), f.fp2_one());
    }
}
