//! Property-based tests for the big-integer substrate.

use mws_bigint::{Mont, Uint, U256, U512};
use mws_prop::{cases, Gen};

fn limbs<const L: usize>(g: &mut Gen) -> [u64; L] {
    std::array::from_fn(|_| g.u64())
}

fn arb_u256(g: &mut Gen) -> U256 {
    Uint::from_limbs(limbs(g))
}

fn arb_u512(g: &mut Gen) -> U512 {
    Uint::from_limbs(limbs(g))
}

/// An odd modulus with the top bit set, so operands below fit after rem.
fn arb_odd_modulus(g: &mut Gen) -> U256 {
    let mut l = limbs::<4>(g);
    l[0] |= 1;
    l[3] |= 1 << 63;
    Uint::from_limbs(l)
}

#[test]
fn add_commutes() {
    cases(256, |g| (arb_u256(g), arb_u256(g))).check(|(a, b)| {
        assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    });
}

#[test]
fn add_sub_roundtrip() {
    cases(256, |g| (arb_u256(g), arb_u256(g))).check(|(a, b)| {
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    });
}

#[test]
fn mul_commutes() {
    cases(256, |g| (arb_u256(g), arb_u256(g))).check(|(a, b)| {
        assert_eq!(a.widening_mul(&b), b.widening_mul(&a));
    });
}

#[test]
fn mul_distributes_over_add() {
    cases(256, |g| (arb_u256(g), arb_u256(g), arb_u256(g))).check(|(a, b, c)| {
        // (a + b) * c == a*c + b*c (mod 2^256), low halves only.
        let lhs = a.wrapping_add(&b).wrapping_mul(&c);
        let rhs = a.wrapping_mul(&c).wrapping_add(&b.wrapping_mul(&c));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn division_invariant() {
    cases(256, |g| (arb_u512(g), arb_u512(g))).check(|(a, b)| {
        if b.is_zero() {
            return;
        }
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        let (lo, hi) = q.widening_mul(&b);
        assert!(hi.is_zero());
        assert_eq!(lo.wrapping_add(&r), a);
    });
}

#[test]
fn shift_matches_mul_by_pow2() {
    cases(256, |g| (arb_u256(g), g.int(0..64) as u32)).check(|(a, n)| {
        let shifted = a.wrapping_shl(n);
        let (mul, _) = a.mul_limb(1u64 << n);
        assert_eq!(shifted, mul);
    });
}

#[test]
fn byte_roundtrip() {
    cases(256, arb_u256).check(|a| {
        let bytes = a.to_be_bytes();
        assert_eq!(U256::from_be_bytes(&bytes).unwrap(), a);
    });
}

#[test]
fn hex_roundtrip() {
    cases(256, arb_u256).check(|a| {
        assert_eq!(U256::from_hex(&a.to_hex()).unwrap(), a);
    });
}

#[test]
fn decimal_roundtrip() {
    cases(256, arb_u256).check(|a| {
        assert_eq!(U256::from_decimal(&a.to_decimal()).unwrap(), a);
    });
}

#[test]
fn mont_mul_matches_schoolbook() {
    cases(256, |g| (arb_odd_modulus(g), arb_u256(g), arb_u256(g))).check(|(m, a, b)| {
        let mont = Mont::new(&m).unwrap();
        let ar = a.rem(&m);
        let br = b.rem(&m);
        let got = mont.from_mont(&mont.mont_mul(&mont.to_mont(&ar), &mont.to_mont(&br)));
        assert_eq!(got, ar.mul_mod(&br, &m));
    });
}

#[test]
fn mont_pow_matches_naive() {
    cases(256, |g| (arb_odd_modulus(g), arb_u256(g), g.int(0..10_000))).check(|(m, a, e)| {
        let mont = Mont::new(&m).unwrap();
        let e = U256::from_u64(e);
        assert_eq!(mont.pow(&a, &e), a.pow_mod(&e, &m));
    });
}

#[test]
fn gcd_divides_both() {
    cases(256, |g| (arb_u256(g), arb_u256(g))).check(|(a, b)| {
        if a.is_zero() || b.is_zero() {
            return;
        }
        let g = a.gcd(&b);
        assert!(a.rem(&g).is_zero());
        assert!(b.rem(&g).is_zero());
    });
}

#[test]
fn inverse_is_inverse() {
    cases(256, |g| (arb_odd_modulus(g), arb_u256(g))).check(|(m, a)| {
        let ar = a.rem(&m);
        if ar.is_zero() {
            return;
        }
        match ar.inv_mod(&m) {
            Ok(inv) => assert_eq!(ar.mul_mod(&inv, &m), U256::ONE),
            Err(_) => assert!(ar.gcd(&m) != U256::ONE),
        }
    });
}

#[test]
fn reduce_wide_is_canonical() {
    cases(256, |g| (arb_u256(g), arb_u256(g), arb_odd_modulus(g))).check(|(a, b, m)| {
        let (lo, hi) = a.widening_mul(&b);
        let r = U256::reduce_wide(&lo, &hi, &m);
        assert!(r < m);
    });
}

#[test]
fn barrett_matches_division_reduce() {
    cases(256, |g| (arb_u256(g), arb_u256(g), limbs::<4>(g))).check(|(a, b, mut mlimbs)| {
        use mws_bigint::Barrett;
        mlimbs[3] |= 1 << 63; // full-width modulus (Barrett precondition)
        let m: U256 = Uint::from_limbs(mlimbs);
        let bar = Barrett::new(&m).unwrap();
        let (lo, hi) = a.widening_mul(&b);
        assert_eq!(bar.reduce(&lo, &hi), U256::reduce_wide(&lo, &hi, &m));
    });
}
