//! Property-based tests for field, curve and pairing algebra.

use mws_pairing::{FpW, PairingCtx, Point, SecurityLevel};
use mws_prop::cases;

fn ctx() -> PairingCtx {
    PairingCtx::named(SecurityLevel::Toy)
}

// The pairing is expensive; keep case counts moderate. Field arithmetic is
// also checked per width against schoolbook integers in the crate's own
// `fp::tests::ops_match_schoolbook_at_every_width`.

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
        let g = c.generator();
        let ka = FpW::from_u64(a);
        let kb = FpW::from_u64(b);
        // e(aP, bP) == e(P, P)^(ab)
        let lhs = c.pairing(&c.mul(&g, &ka), &c.mul(&g, &kb));
        let base = c.pairing(&g, &g);
        let ab = ka.wrapping_mul(&kb).rem(c.group_order());
        assert_eq!(lhs, c.gt_pow(&base, &ab));
    });
}

#[test]
fn pairing_values_in_mu_q() {
    cases(24, |g| g.int(1..u64::MAX)).check(|k| {
        let c = ctx();
        let f = c.field();
        let p = c.mul(&c.generator(), &FpW::from_u64(k));
        let e = c.pairing(&p, &c.generator());
        assert_eq!(f.fp2_pow_binary(&e, c.group_order()), f.fp2_one());
    });
}

#[test]
fn projective_equals_affine_pairing() {
    cases(24, |g| (g.int(1..u64::MAX), g.int(1..u64::MAX))).check(|(a, b)| {
        let c = ctx();
        let g = c.generator();
        let pa = c.mul(&g, &FpW::from_u64(a));
        let pb = c.mul(&g, &FpW::from_u64(b));
        assert_eq!(c.pairing(&pa, &pb), c.pairing_affine(&pa, &pb));
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

/// The cofactor-free compose's identity: for a full-group point `Q`
/// outside the order-`q` subgroup, `ê(sP, Q)^(h·r mod q) = ê(sP, h·Q)^r`,
/// at every named level, with `sP`'s prepared tape, `cofactor_times` and
/// `gt_pow` as the device uses them, against square-and-multiply.
#[test]
fn pairing_folds_the_cofactor_into_the_exponent() {
    for level in [
        SecurityLevel::Toy,
        SecurityLevel::Light,
        SecurityLevel::Standard,
    ] {
        cases(6, |g| g.u64()).check(|seed| {
            let c = PairingCtx::named(level);
            let f = c.field();
            let mut rng = mws_crypto::HmacDrbg::from_u64(seed);
            let s_p = c.prepare(&c.mul_generator(&c.random_scalar(&mut rng)));
            let r = c.random_scalar(&mut rng);
            let q = loop {
                let q = f.random_curve_point(&mut rng);
                if !c.in_subgroup(&q) {
                    break q;
                }
            };
            let h = c.cofactor();
            let hr = c.cofactor_times(&r);
            assert_eq!(hr, h.mul_mod(&r, c.group_order()));
            let folded = c.gt_pow(&c.pairing_with(&s_p, &q), &hr);
            let cleared = f.fp2_pow_binary(&c.pairing_with(&s_p, &c.mul(&q, h)), &r);
            assert_eq!(folded, cleared, "{level:?}");
        });
    }
}

/// The Montgomery ladder (`PairingCtx::mul`) against binary double-and-add
/// on full-group points — any order dividing `p + 1 = q·h` — at Toy and
/// Light, for the scalars 0, 1, 2, `q − 1`, `q`, `q + 1`, `h`, `p + 1`
/// and random ones up to `p`'s width.
#[test]
fn ladder_matches_binary_on_full_group_points() {
    for level in [SecurityLevel::Toy, SecurityLevel::Light] {
        let c = PairingCtx::named(level);
        let f = c.field();
        let (q, h) = (*c.group_order(), *c.cofactor());
        let p = c.params().p;
        let edges = [
            FpW::ZERO,
            FpW::ONE,
            FpW::from_u64(2),
            q.wrapping_sub(&FpW::ONE),
            q,
            q.wrapping_add(&FpW::ONE),
            h,
            p.wrapping_add(&FpW::ONE),
        ];
        let gen = |g: &mut mws_prop::Gen| {
            let limbs: [u64; 4] = std::array::from_fn(|_| g.u64());
            (g.u64(), g.size(0..2 * edges.len()), limbs)
        };
        cases(32, gen).check(|(seed, which, limbs)| {
            let pt = f.random_curve_point(&mut mws_crypto::HmacDrbg::from_u64(seed));
            let k = edges.get(which).copied().unwrap_or_else(|| {
                let mut wide = [0u64; 8];
                wide[..4].copy_from_slice(&limbs);
                FpW::from_limbs(wide).rem(&p)
            });
            assert_eq!(c.mul(&pt, &k), f.point_mul_binary(&pt, &k), "{level:?}");
        });
    }
}
