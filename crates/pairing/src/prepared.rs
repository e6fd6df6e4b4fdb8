//! Prepared pairings: one-time Miller-loop precomputation for a fixed first
//! argument.
//!
//! Every pairing in the MWS protocol has one long-lived argument — `P_pub`
//! on encrypt (after swapping via symmetry), `d_ID` on decrypt, the
//! generator in signature verification. The Miller loop's point arithmetic
//! (and, in the affine formulation, its per-step inversions) depends only on
//! that first argument: the second point enters through line *evaluations*
//! alone. [`PreparedPoint`] therefore runs an affine loop once, over the
//! same signed digits of `q` as the projective loop (a `−1` digit adds
//! `(x_P, −y_P)`), caching per step the two coefficients that summarize
//! each line; replaying the tape against a concrete `Q` costs one `F_p`
//! multiplication plus one addition per line and one `F_p²` squaring per
//! doubling — no point operations, no inversions.
//!
//! A line through `(x₁, y₁)` with slope `λ`, evaluated at the distortion
//! image `φ(Q) = (−x_Q, i·y_Q)`, is
//!
//! ```text
//! l = [λ(x₁ + x_Q) − y₁] + y_Q·i = [(λ·x₁ − y₁) + λ·x_Q] + y_Q·i
//! ```
//!
//! so caching `a = λ·x₁ − y₁` and `b = λ` suffices: `c₀ = a + b·x_Q`, and
//! `c₁ = y_Q` is constant across the whole evaluation. The tape's Miller
//! value differs from the projective loop's and the binary affine
//! reference's only by factors in `F_p*`, so after the final
//! exponentiation the replayed pairing equals [`crate::PairingCtx::pairing`]
//! bit for bit. The tape is stored at the field's width, so a replay runs
//! at that width from its first line to its last.

use crate::curve::{Aff, Point};
use crate::fp::{Fe, Field};
use crate::fp2::Fe2;
use crate::pairing::TatePairing;

/// One step of the cached Miller tape, at width `N`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MillerOp<const N: usize> {
    /// `acc ← acc²` (a doubling step of the loop).
    Square,
    /// `acc ← acc · [(a + b·x_Q) + y_Q·i]` — an evaluated line with cached
    /// `a = λ·x_T − y_T` and `b = λ`.
    Line {
        /// Cached `λ·x_T − y_T`.
        a: Fe<N>,
        /// Cached slope `λ`.
        b: Fe<N>,
    },
}

/// A Miller tape at width `N`.
pub(crate) type Tape<const N: usize> = Vec<MillerOp<N>>;

/// A point with its Miller loop pre-executed, for repeated pairings with a
/// fixed first argument.
///
/// Build once via [`crate::PairingCtx::prepare`], evaluate many times via
/// [`crate::PairingCtx::pairing_with`] on the same context. The tape length
/// is `~2·bits(q)` small entries; preparing costs one full affine Miller
/// loop.
#[derive(Clone, Debug)]
pub struct PreparedPoint {
    pub(crate) point: Point,
    pub(crate) tape: crate::wide!(Tape),
}

impl PreparedPoint {
    /// The underlying point.
    pub fn point(&self) -> &Point {
        &self.point
    }
}

impl TatePairing {
    /// Runs the Miller loop for `p` once, caching the per-step line
    /// coefficients (an empty tape for the point at infinity).
    ///
    /// Walks the same signed digits as the projective loop, in affine
    /// coordinates: preparing pays one inversion per line, once, so that
    /// each replay pays none.
    pub(crate) fn prepare<const N: usize>(&self, f: &Field<N>, p: &Aff<N>) -> Tape<N> {
        let Some((xp, yp)) = *p else {
            return Vec::new();
        };
        let neg_yp = f.neg(&yp);
        let mut ops = Vec::with_capacity(2 * self.steps.len() + 4);
        let line = |lambda: &Fe<N>, x1: &Fe<N>, y1: &Fe<N>| MillerOp::Line {
            a: f.sub(&f.mul(lambda, x1), y1),
            b: *lambda,
        };
        // T = (xt, yt); None encodes the point at infinity.
        let mut t: Aff<N> = Some((xp, yp));
        for &d in self.steps.iter() {
            ops.push(MillerOp::Square);
            if let Some((xt, yt)) = t {
                if f.is_zero(&yt) {
                    // Vertical tangent: eliminated line, T ← O.
                    t = None;
                } else {
                    // Tangent: λ = (3x² + 1) / 2y.
                    let num = f.add(&f.mul(&f.three(), &f.sqr(&xt)), &f.one());
                    let lambda = f.mul(&num, &f.inv(&f.dbl(&yt)).expect("y ≠ 0"));
                    ops.push(line(&lambda, &xt, &yt));
                    let x3 = f.sub(&f.sub(&f.sqr(&lambda), &xt), &xt);
                    let y3 = f.sub(&f.mul(&lambda, &f.sub(&xt, &x3)), &yt);
                    t = Some((x3, y3));
                }
            }
            if d == 0 {
                continue;
            }
            // Add d·P, with −P = (xp, −yp).
            let y = if d > 0 { yp } else { neg_yp };
            t = match t {
                // T == O: adding restarts from ±P.
                None => Some((xp, y)),
                // x_T == x_P: T == −d·P at the last digit — the vertical
                // chord, eliminated; T ← O (see the projective loop).
                Some((xt, _)) if xt == xp => None,
                Some((xt, yt)) => {
                    let lambda = f.mul(&f.sub(&y, &yt), &f.inv(&f.sub(&xp, &xt)).expect("xp ≠ xt"));
                    ops.push(line(&lambda, &xt, &yt));
                    let x3 = f.sub(&f.sub(&f.sqr(&lambda), &xt), &xp);
                    let y3 = f.sub(&f.mul(&lambda, &f.sub(&xt, &x3)), &yt);
                    Some((x3, y3))
                }
            };
        }
        ops
    }

    /// Evaluates `ê(P, Q)` from `P`'s tape — bit-identical to the
    /// projective pairing of `P` and `Q` at a fraction of the cost. The
    /// empty tape of the point at infinity replays to 1.
    pub(crate) fn pairing_prepared<const N: usize>(
        &self,
        f: &Field<N>,
        tape: &Tape<N>,
        q_pt: &Aff<N>,
    ) -> Fe2<N> {
        let Some((xq, yq)) = q_pt else {
            return f.fp2_one();
        };
        let mut acc = f.fp2_one();
        for op in tape {
            match op {
                MillerOp::Square => acc = f.fp2_sqr(&acc),
                MillerOp::Line { a, b } => {
                    let c0 = f.add(a, &f.mul(b, xq));
                    acc = f.fp2_mul(&acc, &f.fp2(c0, *yq));
                }
            }
        }
        self.final_exponentiation(f, &acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{PairingCtx, SecurityLevel};
    use mws_crypto::HmacDrbg;

    /// Prepared evaluation must agree bit-for-bit with the unprepared
    /// pairing and the binary affine reference for random, hashed, and
    /// identity inputs.
    fn cross_check(name: &str, c: &PairingCtx) {
        let mut rng = HmacDrbg::from_u64(0x505245);
        let g = c.generator();
        let prepared_g = c.prepare(&g);
        // Fixed = generator, varying second argument.
        for _ in 0..3 {
            let k = c.random_scalar(&mut rng);
            let q_pt = c.mul(&g, &k);
            assert_eq!(
                c.pairing_with(&prepared_g, &q_pt),
                c.pairing(&g, &q_pt),
                "{name}"
            );
            assert_eq!(
                c.pairing_with(&prepared_g, &q_pt),
                c.pairing_affine(&g, &q_pt),
                "{name}"
            );
        }
        // Fixed = a hashed point (exercises arbitrary subgroup elements).
        let h = c.hash_to_point(b"prepared/cross-check");
        let prepared_h = c.prepare(&h);
        assert_eq!(
            c.pairing_with(&prepared_h, &g),
            c.pairing_affine(&h, &g),
            "{name}"
        );
        // Symmetry swap: e(Q, P_fixed) computed as e(P_fixed, Q).
        assert_eq!(c.pairing_with(&prepared_h, &g), c.pairing(&g, &h), "{name}");
        // Identity inputs.
        assert_eq!(
            c.pairing_with(&prepared_g, &Point::Infinity),
            c.field().fp2_one()
        );
        let prepared_inf = c.prepare(&Point::Infinity);
        assert_eq!(c.pairing_with(&prepared_inf, &g), c.field().fp2_one());
    }

    #[test]
    fn prepared_matches_unprepared_toy() {
        cross_check("Toy", &PairingCtx::named(SecurityLevel::Toy));
    }

    #[test]
    fn prepared_matches_unprepared_light() {
        cross_check("Light", &PairingCtx::named(SecurityLevel::Light));
    }

    #[test]
    fn prepared_matches_unprepared_on_every_cross_check_set() {
        for (name, c) in crate::params::cross_check_sets() {
            cross_check(name, c);
        }
    }

    #[test]
    fn cached_generator_tape_is_shared() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        let g = c.generator();
        let e1 = c.pairing_with(c.prepared_generator(), &g);
        assert_eq!(e1, c.pairing(&g, &g));
        // Second call hits the cache and still agrees.
        let e2 = c.pairing_with(c.prepared_generator(), &g);
        assert_eq!(e1, e2);
    }
}
