//! Hash-to-point — the `MapToPoint` step of Boneh–Franklin IBE.
//!
//! The protocol derives the per-message public point from the attribute
//! string: `I = MapToPoint(SHA1(A ‖ Nonce))` (paper §V.D writes the hash
//! explicitly; the curve mapping was supplied by PBC). This implementation
//! needs a single square root per input: expand `msg ‖ counter` to a
//! candidate `x`, then on `y² = f(x) = x³ + x` with `p ≡ 3 (mod 4)`,
//! `f(−x) = −f(x)` and −1 is a non-residue, so for `f(x) ≠ 0` exactly one
//! of `x` and `−x` is on the curve, and `r = f(x)^((p+1)/4)` is that
//! point's root (`r² = f(x)` or `r² = f(−x)`).
//!
//! The map is two steps. [`PairingCtx::map_candidate`] is the search: the
//! `counter`-th point `Q` of the full group `E(F_p)`, or `None` for
//! `f(x) = 0`. [`hash_to_point`] then clears the cofactor, `I = h·Q`, so
//! the result lands in the order-`q` subgroup; the counter only advances
//! for `f(x) = 0` or a cleared point at infinity. The PKG needs `I` itself
//! (`sI` is the key it extracts). The encrypting device does not: it only
//! pairs `I` against the order-`q` point `sP`, and `ê(sP, h·Q)^r =
//! ê(sP, Q)^(h·r mod q)`, so it pairs with the uncleared candidate and folds
//! `h` into its exponent (`mws-ibe`'s `encrypt_attr`; DESIGN D7). Both
//! walk the same candidates, which keeps them on the same counter.
//!
//! Determinism matters: every party hashing the same attribute string must
//! get the same point, so the mapping has no randomness beyond the input.

use crate::curve::Point;
use crate::fp::{Fe, Field};
use crate::params::PairingCtx;
use crate::{at_width, FpW};
use mws_crypto::kdf;

/// Deterministically maps an arbitrary byte string to a point of the
/// order-`q` subgroup (never the point at infinity): `h·Q` for the first
/// [`PairingCtx::map_candidate`] `Q` whose `h`-multiple is not the point
/// at infinity.
///
/// The candidate x value is a full field-width KDF expansion reduced mod `p`;
/// with `p` at the type-A sizes the reduction bias is ≤ 2^(−(512−pbits)) and
/// irrelevant below 512-bit `p` (documented trade-off — a production
/// implementation at exactly 512-bit `p` would expand wider).
pub fn hash_to_point(ctx: &PairingCtx, msg: &[u8]) -> Point {
    at_width!(ctx.field(), |f| {
        let mut counter = 0u32;
        loop {
            if let Some(q) = candidate_at(f, msg, counter) {
                // Cofactor multiplication (the ladder) puts the result in
                // the order-q subgroup by construction — no explicit
                // membership check needed (p + 1 = q·h, so h·Q has order
                // dividing q).
                let cleared = f.point_mul(&Some(q), ctx.cofactor(), ctx.group_order().bits());
                if cleared.is_some() {
                    break Point::from_aff(&cleared);
                }
            }
            counter = counter.checked_add(1).expect("map-to-point exhausted");
        }
    })
}

/// [`PairingCtx::map_candidate`] at width `N`.
pub(crate) fn candidate_at<const N: usize>(
    f: &Field<N>,
    msg: &[u8],
    counter: u32,
) -> Option<(Fe<N>, Fe<N>)> {
    // Domain-separated expansion of msg ‖ counter to field width.
    let mut input = Vec::with_capacity(msg.len() + 4);
    input.extend_from_slice(msg);
    input.extend_from_slice(&counter.to_be_bytes());
    let okm = kdf(&input, "mws-map-to-point", 8 * crate::FP_LIMBS);
    let xi = FpW::from_be_bytes(&okm).expect("exact width");
    let x = f.import(&xi);
    let rhs = f.curve_rhs(&x);
    if f.is_zero(&rhs) {
        return None;
    }
    // r² = f(x) puts (x, r) on the curve; otherwise r² = f(−x).
    let (y, on_x) = f.sqrt_signed(&rhs);
    let x = if on_x { x } else { f.neg(&x) };
    // Canonical sign: take the even-parity root so the map is a function
    // of the input alone.
    let y = if f.parity(&y) { f.neg(&y) } else { y };
    Some((x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SecurityLevel;

    fn ctx() -> PairingCtx {
        PairingCtx::named(SecurityLevel::Toy)
    }

    #[test]
    fn deterministic() {
        let c = ctx();
        let a = hash_to_point(&c, b"ELECTRIC-APT-SV-CA|17");
        let b = hash_to_point(&c, b"ELECTRIC-APT-SV-CA|17");
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_inputs_distinct_points() {
        let c = ctx();
        let a = hash_to_point(&c, b"attr-1");
        let b = hash_to_point(&c, b"attr-2");
        assert_ne!(a, b);
    }

    #[test]
    fn output_in_subgroup() {
        let c = ctx();
        for msg in [&b"x"[..], b"", b"WATER-APT-SV-CA|nonce"] {
            let p = hash_to_point(&c, msg);
            assert!(c.field().is_on_curve(&p));
            assert!(!p.is_infinity());
            assert!(c.mul(&p, c.group_order()).is_infinity(), "order divides q");
        }
    }

    #[test]
    fn hash_to_point_clears_the_first_candidate() {
        for level in [SecurityLevel::Toy, SecurityLevel::Light] {
            let c = PairingCtx::named(level);
            let mut outside = 0;
            for i in 0u32..16 {
                let msg = format!("candidate-{i}");
                let q = (0..)
                    .find_map(|counter| c.map_candidate(msg.as_bytes(), counter))
                    .unwrap();
                assert!(c.field().is_on_curve(&q));
                outside += !c.in_subgroup(&q) as u32;
                assert_eq!(
                    c.mul(&q, c.cofactor()),
                    hash_to_point(&c, msg.as_bytes()),
                    "{level:?}: I = h·Q"
                );
            }
            assert!(outside > 0, "{level:?}: candidates are full-group points");
        }
    }

    #[test]
    fn empty_input_works() {
        let c = ctx();
        let p = hash_to_point(&c, b"");
        assert!(!p.is_infinity());
    }

    /// Whether the first candidate `x` for `msg` lies on the curve itself
    /// (the `x` branch) rather than through `−x`.
    fn takes_x_branch(c: &PairingCtx, msg: &[u8]) -> bool {
        let mut input = msg.to_vec();
        input.extend_from_slice(&0u32.to_be_bytes());
        let okm = kdf(&input, "mws-map-to-point", 8 * crate::FP_LIMBS);
        let xi = FpW::from_be_bytes(&okm).unwrap();
        at_width!(c.field(), |f| {
            let x = f.import(&xi);
            f.sqrt(&f.curve_rhs(&x)).is_some()
        })
    }

    #[test]
    fn both_root_branches_are_reached_and_sound() {
        for level in [SecurityLevel::Toy, SecurityLevel::Light] {
            let c = PairingCtx::named(level);
            let mut seen = [false; 2];
            for i in 0u32..64 {
                let msg = format!("branch-{i}");
                let branch = takes_x_branch(&c, msg.as_bytes());
                let p = hash_to_point(&c, msg.as_bytes());
                assert_eq!(p, hash_to_point(&c, msg.as_bytes()), "deterministic");
                assert!(!p.is_infinity(), "finite");
                assert!(c.in_subgroup(&p), "in the order-q subgroup");
                seen[branch as usize] = true;
                if seen == [true; 2] {
                    break;
                }
            }
            assert_eq!(seen, [true; 2], "{level:?}: both x and −x branches");
        }
    }
}
