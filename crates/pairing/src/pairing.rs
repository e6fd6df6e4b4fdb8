//! The modified Tate pairing `ê : G₁ × G₁ → μ_q ⊂ F_p²*`.
//!
//! `ê(P, Q) = f_{q,P}(φ(Q))^{(p²−1)/q}` where `φ(x, y) = (−x, i·y)` is the
//! distortion map. Because the embedding degree is 2 and `φ(Q)` has its
//! x-coordinate in the base field, every vertical-line evaluation lands in
//! `F_p*` and is annihilated by the final exponentiation
//! (`(p²−1)/q = (p−1)·h` and `|F_p*| = p−1`), so the Miller loop uses the
//! standard BKLS denominator elimination.
//!
//! The default [`TatePairing::pairing`] runs the inversion-free
//! projective Miller loop over the signed (NAF) digits of `q`, with each
//! tangent line computed from the doubling's own intermediates. A `−1`
//! digit adds `−P = (x_P, −y_P)`:
//! `f_{m−1,P} = f_{m,P}·l_{mP,−P} / (v_P·v_{(m−1)P})`, and both verticals
//! lie in `F_p*`, which the final exponentiation removes. For the Solinas
//! orders [`crate::params`] generates the loop is all doublings plus two
//! additions; any other `q` works too, at its NAF weight.
//!
//! The affine loop over the *binary* digits of `q` (one field inversion
//! per step) is kept as [`TatePairing::pairing_affine`], the independent
//! reference and D5 ablation partner: it shares neither the recoding nor
//! the coordinates, and both produce bit-identical values (experiment E3
//! measures the gap). For a fixed first argument,
//! [`crate::prepared::PreparedPoint`] caches an affine signed-digit loop's
//! line coefficients so repeat pairings skip all point arithmetic and
//! inversions.
//!
//! Every loop here runs at the field's width `N` on a [`Field<N>`](Field);
//! [`crate::PairingCtx`] converts its arguments once per pairing.

use crate::curve::{Aff, Jacobian};
use crate::fp::{Fe, Field};
use crate::fp2::Fe2;
use crate::FpW;
use std::sync::Arc;

/// Pairing engine: the subgroup order `q` and cofactor `h`
/// (`p + 1 = q·h`), with `q`'s signed digits recoded once.
#[derive(Clone, Debug)]
pub(crate) struct TatePairing {
    /// Subgroup order (prime).
    pub(crate) q: FpW,
    /// Cofactor `h = (p+1)/q`.
    pub(crate) h: FpW,
    /// NAF digits of `q` below its leading one, most significant first —
    /// the steps of every production Miller loop.
    pub(crate) steps: Arc<[i8]>,
}

impl TatePairing {
    /// An engine for order `q` and cofactor `h`. The caller guarantees
    /// `q.bits() + 2 ≤ FpW::BITS`, so the NAF recoding cannot wrap.
    pub(crate) fn new(q: FpW, h: FpW) -> Self {
        let mut naf = crate::naf::wnaf_digits(&q, 2);
        naf.pop(); // the leading 1: the loop starts from T = P
        naf.reverse();
        Self {
            q,
            h,
            steps: naf.into(),
        }
    }

    /// Evaluates the pairing with the affine Miller loop over the binary
    /// digits of `q` — one field inversion per step. The pre-optimization
    /// reference path (D5 ablation), bit-identical to
    /// [`Self::pairing`]. Returns 1 (the identity of `μ_q`) when
    /// either input is the point at infinity.
    pub(crate) fn pairing_affine<const N: usize>(
        &self,
        f: &Field<N>,
        p: &Aff<N>,
        q_pt: &Aff<N>,
    ) -> Fe2<N> {
        let (Some((xp, yp)), Some((xq, yq))) = (p, q_pt) else {
            return f.fp2_one();
        };
        // Distortion image φ(Q) = (−xq, i·yq); only the components are
        // needed by the line evaluations.
        let mxq = f.neg(xq);
        let val = self.miller_loop(f, xp, yp, &mxq, yq);
        self.final_exponentiation(f, &val)
    }

    /// Miller loop computing `f_{q,P}(φ(Q))` with denominator elimination.
    ///
    /// Line through `(x1, y1)` with slope `λ`, evaluated at
    /// `φ(Q) = (mxq, i·yq)`:
    /// `l = i·yq − y1 − λ(mxq − x1) = [λ(x1 − mxq) − y1] + yq·i`.
    fn miller_loop<const N: usize>(
        &self,
        f: &Field<N>,
        xp: &Fe<N>,
        yp: &Fe<N>,
        mxq: &Fe<N>,
        yq: &Fe<N>,
    ) -> Fe2<N> {
        let line = |lambda: &Fe<N>, x1: &Fe<N>, y1: &Fe<N>| -> Fe2<N> {
            let c0 = f.sub(&f.mul(lambda, &f.sub(x1, mxq)), y1);
            f.fp2(c0, *yq)
        };

        let mut acc = f.fp2_one();
        // T = (xt, yt); None encodes the point at infinity.
        let mut t: Aff<N> = Some((*xp, *yp));
        let bits = self.q.bits();
        for i in (0..bits - 1).rev() {
            acc = f.fp2_sqr(&acc);
            if let Some((xt, yt)) = t {
                if f.is_zero(&yt) {
                    // Vertical tangent: line ∈ F_p*, eliminated. T ← O.
                    // (Unreachable for odd-order P; kept for robustness.)
                    t = None;
                } else {
                    // Tangent: λ = (3x² + 1) / 2y  (curve coefficient a = 1).
                    let num = f.add(&f.mul(&f.three(), &f.sqr(&xt)), &f.one());
                    let lambda = f.mul(&num, &f.inv(&f.dbl(&yt)).expect("y ≠ 0"));
                    acc = f.fp2_mul(&acc, &line(&lambda, &xt, &yt));
                    // T ← 2T (affine chord-tangent).
                    let x3 = f.sub(&f.sub(&f.sqr(&lambda), &xt), &xt);
                    let y3 = f.sub(&f.mul(&lambda, &f.sub(&xt, &x3)), &yt);
                    t = Some((x3, y3));
                }
            }
            if self.q.bit(i) {
                if let Some((xt, yt)) = t {
                    if xt == *xp {
                        if yt == *yp {
                            // T == P: the "chord" is the tangent at P.
                            let num = f.add(&f.mul(&f.three(), &f.sqr(&xt)), &f.one());
                            let lambda = f.mul(&num, &f.inv(&f.dbl(&yt)).expect("y ≠ 0"));
                            acc = f.fp2_mul(&acc, &line(&lambda, &xt, &yt));
                            let x3 = f.sub(&f.sub(&f.sqr(&lambda), &xt), &xt);
                            let y3 = f.sub(&f.mul(&lambda, &f.sub(&xt, &x3)), &yt);
                            t = Some((x3, y3));
                        } else {
                            // T == −P: vertical chord, eliminated. T ← O.
                            // (This is the expected final addition step.)
                            t = None;
                        }
                    } else {
                        let lambda =
                            f.mul(&f.sub(yp, &yt), &f.inv(&f.sub(xp, &xt)).expect("xp ≠ xt"));
                        acc = f.fp2_mul(&acc, &line(&lambda, &xt, &yt));
                        let x3 = f.sub(&f.sub(&f.sqr(&lambda), &xt), xp);
                        let y3 = f.sub(&f.mul(&lambda, &f.sub(&xt, &x3)), &yt);
                        t = Some((x3, y3));
                    }
                } else {
                    // T == O: adding P restarts from P. (Unreachable for
                    // exact-order-q inputs; kept for robustness.)
                    t = Some((*xp, *yp));
                }
            }
        }
        acc
    }

    /// Evaluates the modified Tate pairing of two points of `E(F_p)[q]`
    /// with a projective (inversion-free) signed-digit Miller loop — what
    /// [`crate::PairingCtx::pairing`] runs. Returns 1 when either input is
    /// the point at infinity.
    ///
    /// `T` is tracked in Jacobian coordinates; line values are scaled by the
    /// nonzero `F_p` factors `2Y·Z³` (tangent) / `(x_P − x_T)·Z³` (chord),
    /// which the final exponentiation annihilates, so no per-step inversion
    /// is needed. Produces bit-identical results to the affine loop.
    pub(crate) fn pairing<const N: usize>(
        &self,
        f: &Field<N>,
        p: &Aff<N>,
        q_pt: &Aff<N>,
    ) -> Fe2<N> {
        let (Some((xp, yp)), Some((xq, yq))) = (p, q_pt) else {
            return f.fp2_one();
        };
        let mxq = f.neg(xq);
        let val = self.miller_loop_projective(f, xp, yp, &mxq, yq);
        self.final_exponentiation(f, &val)
    }

    /// Projective signed-digit Miller loop; see [`Self::pairing`].
    fn miller_loop_projective<const N: usize>(
        &self,
        f: &Field<N>,
        xp: &Fe<N>,
        yp: &Fe<N>,
        mxq: &Fe<N>,
        yq: &Fe<N>,
    ) -> Fe2<N> {
        let neg_yp = f.neg(yp);
        let mut acc = f.fp2_one();
        let mut t = Jacobian {
            x: *xp,
            y: *yp,
            z: f.one(),
        };
        for &d in self.steps.iter() {
            acc = f.fp2_sqr(&acc);
            if !f.jac_is_infinity(&t) {
                if f.is_zero(&t.y) {
                    // Vertical tangent (unreachable for odd-order P).
                    t = f.jac_infinity();
                } else {
                    // Tangent line scaled by Z3·Z² = 2Y·Z³ ∈ F_p*, from the
                    // doubling's own M = 3X² + Z⁴, Y² and Z²:
                    //   l̃ = [M·(X − mxq·Z²) − 2Y²] + (Z3·Z²·yq)·i
                    let (doubled, parts) = f.jac_double_parts(&t);
                    let c0 = f.sub(
                        &f.mul(&parts.m, &f.sub(&t.x, &f.mul(mxq, &parts.zz))),
                        &f.dbl(&parts.yy),
                    );
                    let c1 = f.mul(&f.mul(&doubled.z, &parts.zz), yq);
                    acc = f.fp2_mul(&acc, &f.fp2(c0, c1));
                    t = doubled;
                }
            }
            if d == 0 {
                continue;
            }
            // Add d·P, with −P = (xp, −yp).
            let y = if d > 0 { yp } else { &neg_yp };
            if f.jac_is_infinity(&t) {
                // T == O: adding restarts from ±P (unreachable for
                // exact-order inputs).
                t = Jacobian {
                    x: *xp,
                    y: *y,
                    z: f.one(),
                };
                continue;
            }
            let zz = f.sqr(&t.z);
            let z3 = f.mul(&zz, &t.z);
            if t.x == f.mul(xp, &zz) {
                // x_T == x_P: for an order-q P this is only the last
                // digit, where T = (q − d)·P = −d·P — the vertical chord,
                // eliminated; T ← O. (T == d·P, a tangent, cannot occur
                // before the last step of a NAF loop.)
                t = f.jac_infinity();
                continue;
            }
            // Chord through T and (xp, y) scaled by (x_P − x_T)·Z³:
            //   l̃ = [(xp·Z³ − X·Z)(−y) − (y·Z³ − Y)(mxq − xp)]
            //        + ((xp·Z³ − X·Z)·yq)·i
            let a = f.sub(&f.mul(xp, &z3), &f.mul(&t.x, &t.z));
            let b = f.sub(&f.mul(y, &z3), &t.y);
            let c0 = f.sub(&f.mul(&a, &f.neg(y)), &f.mul(&b, &f.sub(mxq, xp)));
            let c1 = f.mul(&a, yq);
            acc = f.fp2_mul(&acc, &f.fp2(c0, c1));
            let addend = Jacobian {
                x: *xp,
                y: *y,
                z: f.one(),
            };
            t = f.jac_add(&t, &addend);
        }
        acc
    }

    /// Final exponentiation `z^{(p²−1)/q} = (z^{p−1})^h` with
    /// `z^{p−1} = z̄ · z^{−1}` (Frobenius is conjugation in `F_p²`).
    ///
    /// The easy part leaves a norm-1 value (`N(z)^{p−1} = 1` by Fermat), so
    /// the hard `^h` power runs the conjugate-inversion wNAF ladder.
    pub(crate) fn final_exponentiation<const N: usize>(&self, f: &Field<N>, z: &Fe2<N>) -> Fe2<N> {
        let zinv = f
            .fp2_inv(z)
            .expect("Miller value is nonzero for valid inputs");
        let easy = f.fp2_mul(&f.fp2_conj(z), &zinv);
        f.fp2_pow_unitary(&easy, &self.h)
    }
}

#[cfg(test)]
mod tests {
    use crate::params::{PairingCtx, SecurityLevel};
    use crate::Point;
    use mws_crypto::HmacDrbg;

    fn ctx() -> PairingCtx {
        PairingCtx::named(SecurityLevel::Toy)
    }

    #[test]
    fn pairing_of_infinity_is_one() {
        let c = ctx();
        let g = c.generator();
        let one = c.field().fp2_one();
        assert_eq!(c.pairing(&Point::Infinity, &g), one);
        assert_eq!(c.pairing(&g, &Point::Infinity), one);
    }

    #[test]
    fn pairing_nondegenerate() {
        let c = ctx();
        let g = c.generator();
        let e = c.pairing(&g, &g);
        assert_ne!(e, c.field().fp2_one());
        // The value has order dividing q.
        assert_eq!(
            c.field().fp2_pow_binary(&e, c.group_order()),
            c.field().fp2_one()
        );
    }

    #[test]
    fn pairing_symmetric() {
        let c = ctx();
        let mut rng = HmacDrbg::from_u64(1);
        let g = c.generator();
        let a = c.random_scalar(&mut rng);
        let b = c.random_scalar(&mut rng);
        let pa = c.mul(&g, &a);
        let pb = c.mul(&g, &b);
        assert_eq!(c.pairing(&pa, &pb), c.pairing(&pb, &pa));
    }

    #[test]
    fn pairing_bilinear_left() {
        let c = ctx();
        let mut rng = HmacDrbg::from_u64(2);
        let g = c.generator();
        let a = c.random_scalar(&mut rng);
        // e(aP, P) == e(P, P)^a
        let lhs = c.pairing(&c.mul(&g, &a), &g);
        let rhs = c.gt_pow(&c.pairing(&g, &g), &a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bilinear_right() {
        let c = ctx();
        let mut rng = HmacDrbg::from_u64(3);
        let g = c.generator();
        let b = c.random_scalar(&mut rng);
        let lhs = c.pairing(&g, &c.mul(&g, &b));
        let rhs = c.field().fp2_pow_binary(&c.pairing(&g, &g), &b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bf_identity() {
        // The identity the whole protocol rests on: ê(rP, sI) == ê(sP, rI).
        let c = ctx();
        let mut rng = HmacDrbg::from_u64(4);
        let g = c.generator();
        let r = c.random_scalar(&mut rng);
        let s = c.random_scalar(&mut rng);
        let i_pt = c.mul(
            &c.hash_to_point(b"ELECTRIC-APT-SV-CA|nonce42"),
            &c.random_scalar(&mut rng),
        );
        let lhs = c.pairing(&c.mul(&g, &r), &c.mul(&i_pt, &s));
        let rhs = c.pairing(&c.mul(&g, &s), &c.mul(&i_pt, &r));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn projective_matches_affine() {
        for (name, c) in crate::params::cross_check_sets() {
            let mut rng = HmacDrbg::from_u64(6);
            let g = c.generator();
            for _ in 0..3 {
                let a = c.random_scalar(&mut rng);
                let b = c.random_scalar(&mut rng);
                let pa = c.mul(&g, &a);
                let pb = c.mul(&g, &b);
                // Signed-digit projective loop vs the binary affine
                // reference, bit-identical.
                let reference = c.pairing_affine(&pa, &pb);
                assert_eq!(c.pairing(&pa, &pb), reference, "{name}");
            }
            // Including identity inputs and hashed points.
            assert_eq!(c.pairing(&Point::Infinity, &g), c.field().fp2_one());
            assert_eq!(c.pairing_affine(&Point::Infinity, &g), c.field().fp2_one());
            let h = c.hash_to_point(b"some attribute");
            assert_eq!(c.pairing(&h, &g), c.pairing_affine(&h, &g), "{name}");
            assert_eq!(c.pairing(&g, &h), c.pairing_affine(&g, &h), "{name}");
        }
    }

    #[test]
    fn pairing_additive_in_first_argument() {
        let c = ctx();
        let mut rng = HmacDrbg::from_u64(5);
        let g = c.generator();
        let a = c.random_scalar(&mut rng);
        let b = c.random_scalar(&mut rng);
        let pa = c.mul(&g, &a);
        let pb = c.mul(&g, &b);
        let sum = c.add(&pa, &pb);
        // e(aP + bP, Q) == e(aP, Q) · e(bP, Q)
        let q = c.mul(&g, &c.random_scalar(&mut rng));
        let lhs = c.pairing(&sum, &q);
        let rhs = crate::at_width!(c.field(), |f| crate::Fp2::from_fe(
            &f.fp2_mul(&c.pairing(&pa, &q).at(), &c.pairing(&pb, &q).at())
        ));
        assert_eq!(lhs, rhs);
    }
}
