//! Modular arithmetic helpers layered on the base `Uint` operations.

use crate::{BigIntError, Uint};

impl<const L: usize> Uint<L> {
    /// `(self + rhs) mod m`. Requires `self, rhs < m`.
    pub fn add_mod(&self, rhs: &Self, m: &Self) -> Self {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || sum >= *m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    /// `(self - rhs) mod m`. Requires `self, rhs < m`.
    pub fn sub_mod(&self, rhs: &Self, m: &Self) -> Self {
        debug_assert!(self < m && rhs < m);
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }

    /// `(self · rhs) mod m` via widening multiplication and Knuth division.
    ///
    /// For repeated multiplications modulo an odd modulus prefer
    /// [`crate::Mont`], which avoids per-operation division.
    pub fn mul_mod(&self, rhs: &Self, m: &Self) -> Self {
        let (lo, hi) = self.widening_mul(rhs);
        Self::reduce_wide(&lo, &hi, m)
    }

    /// `self^exp mod m` by square-and-multiply. Works for any modulus; for
    /// odd moduli [`crate::Mont::pow`] is substantially faster.
    pub fn pow_mod(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "zero modulus");
        if *m == Self::ONE {
            return Self::ZERO;
        }
        let mut base = self.rem(m);
        let mut acc = Self::ONE;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
            base = base.mul_mod(&base, m);
        }
        acc
    }

    /// Modular inverse: `self^-1 mod m`, via the extended Euclidean
    /// algorithm with the Bézout coefficient tracked modulo `m`.
    ///
    /// Returns [`BigIntError::NotInvertible`] when `gcd(self, m) != 1` and
    /// [`BigIntError::BadModulus`] when `m < 2`.
    pub fn inv_mod(&self, m: &Self) -> Result<Self, BigIntError> {
        if *m <= Self::ONE {
            return Err(BigIntError::BadModulus);
        }
        // Invariants: r0 = t0·self (mod m), r1 = t1·self (mod m),
        // with (t, sign) pairs because Bézout coefficients alternate sign.
        let mut r0 = *m;
        let mut r1 = self.rem(m);
        let mut t0 = (Self::ZERO, false); // (magnitude, negative?)
        let mut t1 = (Self::ONE, false);
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            // t2 = t0 - q*t1 (signed)
            let qt1 = q.mul_mod(&t1.0, m);
            let t2 = signed_sub_mod(&t0, &(qt1, t1.1), m);
            r0 = r1;
            r1 = r;
            t0 = t1;
            t1 = t2;
        }
        if r0 != Self::ONE {
            return Err(BigIntError::NotInvertible);
        }
        let (mag, neg) = t0;
        Ok(if neg { m.wrapping_sub(&mag) } else { mag })
    }
}

/// Computes `a - b` where both are sign-tagged residues modulo `m`, returning
/// a sign-tagged residue with magnitude `< m`.
fn signed_sub_mod<const L: usize>(
    a: &(Uint<L>, bool),
    b: &(Uint<L>, bool),
    m: &Uint<L>,
) -> (Uint<L>, bool) {
    match (a.1, b.1) {
        // a - b with equal signs: magnitude subtraction, sign flips on borrow.
        (false, false) | (true, true) => {
            let (d, borrow) = a.0.overflowing_sub(&b.0);
            if borrow {
                (b.0.wrapping_sub(&a.0), !a.1)
            } else {
                (d, a.1)
            }
        }
        // Differing signs: magnitudes add; reduce once if we pass m.
        (false, true) | (true, false) => {
            let sum = a.0.add_mod(&b.0, m);
            (sum, a.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Uint;

    const M: u64 = 1_000_000_007;

    #[test]
    fn add_sub_mod_wraps() {
        let m = Uint::<4>::from_u64(M);
        let a = Uint::<4>::from_u64(M - 1);
        let b = Uint::<4>::from_u64(5);
        assert_eq!(a.add_mod(&b, &m), Uint::<4>::from_u64(4));
        assert_eq!(b.sub_mod(&a, &m), Uint::<4>::from_u64(6));
    }

    #[test]
    fn add_mod_carry_at_width_boundary() {
        // Modulus occupying every limb: sum overflows the width.
        let m = Uint::<4>::MAX.wrapping_sub(&Uint::<4>::from_u64(58)); // odd-ish large modulus
        let a = m.wrapping_sub(&Uint::<4>::ONE);
        let b = m.wrapping_sub(&Uint::<4>::from_u64(2));
        let r = a.add_mod(&b, &m);
        // a + b = 2m - 3 => r = m - 3
        assert_eq!(r, m.wrapping_sub(&Uint::<4>::from_u64(3)));
    }

    #[test]
    fn mul_mod_matches_u128() {
        let m = Uint::<4>::from_u64(M);
        let a = Uint::<4>::from_u64(123_456_789);
        let b = Uint::<4>::from_u64(987_654_321);
        let expect = (123_456_789u128 * 987_654_321u128 % M as u128) as u64;
        assert_eq!(a.mul_mod(&b, &m), Uint::<4>::from_u64(expect));
    }

    #[test]
    fn pow_mod_fermat() {
        let m = Uint::<4>::from_u64(M);
        let a = Uint::<4>::from_u64(2);
        let e = Uint::<4>::from_u64(M - 1);
        assert_eq!(a.pow_mod(&e, &m), Uint::<4>::ONE);
        assert_eq!(a.pow_mod(&Uint::<4>::ZERO, &m), Uint::<4>::ONE);
        assert_eq!(
            Uint::<4>::ZERO.pow_mod(&Uint::<4>::from_u64(5), &m),
            Uint::<4>::ZERO
        );
    }

    #[test]
    fn pow_mod_modulus_one() {
        assert_eq!(
            Uint::<4>::from_u64(42).pow_mod(&Uint::<4>::from_u64(13), &Uint::<4>::ONE),
            Uint::<4>::ZERO
        );
    }

    #[test]
    fn inv_mod_roundtrip() {
        let m = Uint::<4>::from_u64(M);
        for v in [2u64, 3, 1_000_000, M - 1, 999_999_937] {
            let a = Uint::<4>::from_u64(v);
            let inv = a.inv_mod(&m).unwrap();
            assert_eq!(a.mul_mod(&inv, &m), Uint::<4>::ONE, "inverse of {v}");
        }
    }

    #[test]
    fn inv_mod_not_invertible() {
        let m = Uint::<4>::from_u64(100);
        assert!(Uint::<4>::from_u64(10).inv_mod(&m).is_err());
        assert!(Uint::<4>::from_u64(3).inv_mod(&Uint::<4>::ZERO).is_err());
    }

    #[test]
    fn inv_mod_multi_limb() {
        // Large odd modulus spanning all limbs.
        let m = Uint::<4>::MAX.wrapping_sub(&Uint::<4>::from_u64(188)); // ends in ...0x43, odd
        assert!(m.is_odd());
        let a = Uint::<4>::from_hex("0xdead_beef_cafe_babe_1234_5678_9abc_def1").unwrap();
        let inv = a.inv_mod(&m).unwrap();
        assert_eq!(a.mul_mod(&inv, &m), Uint::<4>::ONE);
    }

    #[test]
    fn pow_mod_multi_limb_consistency() {
        // (a^2)^2 == a^4
        let m: Uint<4> = Uint::<4>::MAX.wrapping_sub(&Uint::<4>::from_u64(188));
        let a = Uint::<4>::from_hex("0x0123_4567_89ab_cdef_0011_2233_4455_6677").unwrap();
        let a2 = a.pow_mod(&Uint::<4>::from_u64(2), &m);
        let a4a = a2.pow_mod(&Uint::<4>::from_u64(2), &m);
        let a4b = a.pow_mod(&Uint::<4>::from_u64(4), &m);
        assert_eq!(a4a, a4b);
    }
}
