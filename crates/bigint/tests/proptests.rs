//! Property-based tests for the big-integer substrate.

use mws_bigint::{ModInv, Mont, Uint};
use mws_prop::{cases, Gen};

fn limbs<const L: usize>(g: &mut Gen) -> [u64; L] {
    std::array::from_fn(|_| g.u64())
}

fn arb_u256(g: &mut Gen) -> Uint<4> {
    Uint::from_limbs(limbs(g))
}

fn arb_u512(g: &mut Gen) -> Uint<8> {
    Uint::from_limbs(limbs(g))
}

/// An odd modulus of exactly `bits ≥ 2` bits.
fn odd_modulus_of<const L: usize>(g: &mut Gen, bits: u32) -> Uint<L> {
    let mut n = Uint::from_limbs(limbs(g)).wrapping_shr(Uint::<L>::BITS - bits);
    n.set_bit(bits - 1, true);
    n.set_bit(0, true);
    n
}

/// An odd modulus with the top bit set, so operands below fit after rem.
fn arb_odd_modulus(g: &mut Gen) -> Uint<4> {
    odd_modulus_of(g, 256)
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
        assert_eq!(Uint::<4>::from_be_bytes(&bytes).unwrap(), a);
    });
}

#[test]
fn hex_roundtrip() {
    cases(256, arb_u256).check(|a| {
        assert_eq!(format!("0x{}", a.to_hex()).parse::<Uint<4>>().unwrap(), a);
    });
}

#[test]
fn decimal_roundtrip() {
    cases(256, arb_u256).check(|a| {
        assert_eq!(a.to_string().parse::<Uint<4>>().unwrap(), a);
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
        let e = Uint::<4>::from_u64(e);
        assert_eq!(mont.pow(&a, &e), a.pow_mod(&e, &m));
    });
}

fn below<const L: usize>(g: &mut Gen, n: &Uint<L>) -> Uint<L> {
    Uint::from_limbs(limbs(g)).rem(n)
}

/// Every `Mont` result is `< n`, so its limbs past the modulus's `k` active
/// ones are zero; the kernels rely on that of their operands.
fn active<const L: usize>(v: Uint<L>, k: usize) -> Uint<L> {
    assert!(
        v.limbs()[k..].iter().all(|&l| l == 0),
        "limbs ≥ {k} of {v:?}"
    );
    v
}

/// `Mont<L>` against the division-based oracles for one active width `k` and
/// one modulus size, on the operands `0, 1, n−1` and random ones.
fn mont_matches_oracles_at<const L: usize>(k: usize, bits: u32) {
    // Fewer cases at the widths where one oracle `pow_mod` costs milliseconds.
    let count = (64 / k as u32).max(2);
    cases(count, |g| {
        let n = odd_modulus_of::<L>(g, bits);
        (n, below(g, &n), below(g, &n), g.u64())
    })
    .check(|(n, a, b, e)| {
        let m = Mont::new(&n).unwrap();
        assert_eq!(n.bits().div_ceil(64) as usize, k);
        let minus_one = n.wrapping_sub(&Uint::ONE);
        let (zero, one) = (Uint::ZERO, Uint::ONE.rem(&n));
        let to = |x: &Uint<L>| active(m.to_mont(x), k);
        let from = |x: &Uint<L>| active(m.from_mont(&active(*x, k)), k);
        assert_eq!(from(&m.one_mont()), one);

        for x in [zero, one, minus_one, a] {
            let xm = to(&x);
            assert_eq!(from(&xm), x);
            assert_eq!(from(&m.mont_sqr(&xm)), x.mul_mod(&x, &n));
            assert_eq!(active(m.neg(&x), k), zero.sub_mod(&x, &n));
            assert_eq!(active(m.neg(&xm), k), to(&zero.sub_mod(&x, &n)));
            for y in [zero, one, minus_one, b] {
                let ym = to(&y);
                assert_eq!(from(&m.mont_mul(&xm, &ym)), x.mul_mod(&y, &n));
                assert_eq!(active(m.add(&x, &y), k), x.add_mod(&y, &n));
                assert_eq!(active(m.sub(&x, &y), k), x.sub_mod(&y, &n));
                assert_eq!(from(&m.add(&xm, &ym)), x.add_mod(&y, &n));
                assert_eq!(from(&m.sub(&xm, &ym)), x.sub_mod(&y, &n));
            }
            for e in [Uint::ZERO, Uint::ONE, Uint::from_u64(e)] {
                assert_eq!(active(m.pow(&x, &e), k), x.pow_mod(&e, &n));
            }
        }
        // a^(n−2): the inverse when n is prime, and a full-width exponent
        // either way. (−1)^(n−2) = −1 because n is odd.
        let n_minus_2 = n.wrapping_sub(&Uint::from_u64(2));
        if !one.is_zero() {
            assert_eq!(active(m.pow(&one, &n_minus_2), k), one);
            assert_eq!(active(m.pow(&minus_one, &n_minus_2), k), minus_one);
        }
        let got = active(m.pow(&a, &n_minus_2), k);
        assert_eq!(got, a.pow_mod(&n_minus_2, &n));
    });
}

/// Every active width of a container, at the smallest and the largest
/// modulus that has it: exactly `64(k−1)+1` and `64k` bits.
fn mont_matches_oracles_at_every_width<const L: usize>() {
    for k in 1..=L {
        let low = 64 * (k as u32 - 1) + 1;
        mont_matches_oracles_at::<L>(k, low.max(2)); // 1 is not a modulus
        mont_matches_oracles_at::<L>(k, 64 * k as u32);
    }
}

#[test]
fn mont_matches_oracles_at_every_width_of_u256() {
    mont_matches_oracles_at_every_width::<4>();
}

#[test]
fn mont_matches_oracles_at_every_width_of_u512() {
    mont_matches_oracles_at_every_width::<8>();
}

#[test]
fn mont_matches_oracles_at_every_width_of_u2048() {
    mont_matches_oracles_at_every_width::<32>();
}

#[test]
fn mont_is_a_function_of_the_modulus_not_the_container() {
    // The same ≤ 256-bit modulus in 4, 8 and 32 limbs: Montgomery residues
    // (R depends on the modulus alone) and canonical results are identical.
    cases(256, |g| {
        let bits = g.int(2..257) as u32;
        let n = odd_modulus_of::<4>(g, bits);
        (n, below(g, &n), below(g, &n), arb_u256(g))
    })
    .check(|(n, a, b, e)| {
        fn run<const L: usize>([n, a, b, e]: [Uint<4>; 4]) -> [Uint<4>; 8] {
            let m = Mont::<L>::new(&n.widen()).unwrap();
            let (am, bm) = (m.to_mont(&a.widen()), m.to_mont(&b.widen()));
            let prod = m.mont_mul(&am, &bm);
            let sqr = m.mont_sqr(&am);
            let pow = m.pow_mont(&am, &e.widen());
            [
                am,
                prod,
                m.from_mont(&prod),
                m.from_mont(&sqr),
                m.from_mont(&pow),
                m.from_mont(&m.add(&am, &bm)),
                m.from_mont(&m.sub(&am, &bm)),
                m.from_mont(&m.neg(&am)),
            ]
            .map(|v| v.narrow().unwrap())
        }
        let narrow = run::<4>([n, a, b, e]);
        assert_eq!(run::<8>([n, a, b, e]), narrow);
        assert_eq!(run::<32>([n, a, b, e]), narrow);
        assert_eq!(narrow[2], a.mul_mod(&b, &n));
        assert_eq!(narrow[4], a.pow_mod(&e, &n));
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
            Ok(inv) => assert_eq!(ar.mul_mod(&inv, &m), Uint::<4>::ONE),
            Err(_) => {
                // Euclid's gcd, by division, as the oracle.
                let (mut x, mut y) = (ar, m);
                while !y.is_zero() {
                    (x, y) = (y, x.rem(&y));
                }
                assert!(x != Uint::<4>::ONE);
            }
        }
    });
}

#[test]
fn reduce_wide_is_canonical() {
    cases(256, |g| (arb_u256(g), arb_u256(g), arb_odd_modulus(g))).check(|(a, b, m)| {
        let (lo, hi) = a.widening_mul(&b);
        let r = Uint::<4>::reduce_wide(&lo, &hi, &m);
        assert!(r < m);
    });
}

/// The constant-time safegcd against Euclid's `inv_mod` on random odd
/// moduli of `bits` bits in `L` limbs, for every operand Euclid can invert.
fn safegcd_matches_euclid<const L: usize>(bits: u32) {
    cases(128, |g| {
        (
            odd_modulus_of::<L>(g, bits),
            Uint::<L>::from_limbs(limbs(g)),
        )
    })
    .check(|(n, a)| {
        let a = a.rem(&n);
        let inv = ModInv::new(n.limbs()).inv(a.limbs());
        if let Ok(want) = a.inv_mod(&n) {
            assert_eq!(Uint::from_limbs(inv), want);
        }
    });
}

#[test]
fn safegcd_matches_euclid_at_widths_3_4_8() {
    safegcd_matches_euclid::<3>(192);
    safegcd_matches_euclid::<3>(127);
    safegcd_matches_euclid::<4>(256);
    safegcd_matches_euclid::<4>(193);
    safegcd_matches_euclid::<8>(512);
    safegcd_matches_euclid::<8>(300);
}
