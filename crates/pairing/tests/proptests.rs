//! Property-based tests for field, curve and pairing algebra.

use mws_pairing::{FpW, PairingCtx, Point, SecurityLevel};
use mws_prop::cases;

fn ctx() -> PairingCtx {
    PairingCtx::named(SecurityLevel::Toy)
}

// The pairing is expensive; keep case counts moderate.

#[test]
fn fp_mul_inverse() {
    cases(24, |g| g.int(2..u64::MAX)).check(|v| {
        let c = ctx();
        let f = c.field();
        let a = f.from_u64(v);
        let inv = f.inv(&a).unwrap();
        assert_eq!(f.mul(&a, &inv), f.one());
    });
}

#[test]
fn fp_sqrt_of_square() {
    cases(24, |g| g.int(1..u64::MAX)).check(|v| {
        let c = ctx();
        let f = c.field();
        let a = f.from_u64(v);
        let r = f.sqrt(&f.sqr(&a)).unwrap();
        assert!(r == a || r == f.neg(&a));
    });
}

#[test]
fn curve_scalar_distributivity() {
    cases(24, |g| (g.int(1..1_000_000), g.int(1..1_000_000))).check(|(a, b)| {
        let c = ctx();
        let g = c.generator();
        let ka = FpW::from_u64(a);
        let kb = FpW::from_u64(b);
        let lhs = c.mul(&g, &ka.wrapping_add(&kb));
        let rhs = c.add(&c.mul(&g, &ka), &c.mul(&g, &kb));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn curve_point_roundtrip_serialization() {
    cases(24, |g| g.int(1..u64::MAX)).check(|k| {
        let c = ctx();
        let f = c.field();
        let p = c.mul(&c.generator(), &FpW::from_u64(k));
        let bytes = f.point_to_bytes(&p);
        assert_eq!(f.point_from_bytes(&bytes).unwrap(), p);
    });
}

#[test]
fn scalar_mul_mod_group_order() {
    cases(24, |g| g.u64()).check(|k| {
        // k·P == (k mod q)·P
        let c = ctx();
        let g = c.generator();
        let k = FpW::from_u64(k);
        let reduced = k.rem(c.group_order());
        assert_eq!(c.mul(&g, &k), c.mul(&g, &reduced));
    });
}

#[test]
fn pairing_bilinearity() {
    cases(24, |g| (g.int(1..1_000_000_007), g.int(1..1_000_000_007))).check(|(a, b)| {
        let c = ctx();
        let f = c.field();
        let g = c.generator();
        let ka = FpW::from_u64(a);
        let kb = FpW::from_u64(b);
        // e(aP, bP) == e(P, P)^(ab)
        let lhs = c.pairing(&c.mul(&g, &ka), &c.mul(&g, &kb));
        let base = c.pairing(&g, &g);
        let ab = ka.wrapping_mul(&kb).rem(c.group_order());
        assert_eq!(lhs, f.fp2_pow(&base, &ab));
    });
}

#[test]
fn pairing_values_in_mu_q() {
    cases(24, |g| g.int(1..u64::MAX)).check(|k| {
        let c = ctx();
        let f = c.field();
        let p = c.mul(&c.generator(), &FpW::from_u64(k));
        let e = c.pairing(&p, &c.generator());
        assert_eq!(f.fp2_pow(&e, c.group_order()), f.fp2_one());
    });
}

#[test]
fn projective_equals_affine_pairing() {
    cases(24, |g| (g.int(1..u64::MAX), g.int(1..u64::MAX))).check(|(a, b)| {
        let c = ctx();
        let g = c.generator();
        let pa = c.mul(&g, &FpW::from_u64(a));
        let pb = c.mul(&g, &FpW::from_u64(b));
        assert_eq!(c.pairing(&pa, &pb), c.pairing_projective(&pa, &pb));
    });
}

#[test]
fn hash_to_point_subgroup() {
    cases(24, |g| g.bytes(0..64)).check(|msg| {
        let c = ctx();
        let p = c.hash_to_point(&msg);
        assert!(c.field().is_on_curve(&p));
        assert!(!p.is_infinity());
        assert!(matches!(c.mul(&p, c.group_order()), Point::Infinity));
    });
}
