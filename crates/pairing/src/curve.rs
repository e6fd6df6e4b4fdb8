//! Point arithmetic on the supersingular curve `E : y² = x³ + x` over `F_p`.
//!
//! Public points are affine (an explicit point at infinity variant); scalar
//! multiplication runs in Jacobian coordinates internally so a `k·P` costs a
//! single field inversion at the end.

use crate::fp::{Fp, FpCtx};
use crate::{FpW, PairingError};
use mws_crypto::Rng;

/// A point on `E(F_p)` in affine form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Point {
    /// The point at infinity (group identity).
    Infinity,
    /// A finite point.
    Affine {
        /// x-coordinate.
        x: Fp,
        /// y-coordinate.
        y: Fp,
    },
}

impl Point {
    /// Is this the identity?
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }
}

/// Internal Jacobian representation: `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`;
/// `Z = 0` encodes infinity.
#[derive(Clone, Copy)]
pub(crate) struct Jacobian {
    pub(crate) x: Fp,
    pub(crate) y: Fp,
    pub(crate) z: Fp,
}

/// Intermediates of one Jacobian doubling of `(X, Y, Z)`, kept for the
/// tangent line (see [`FpCtx::jac_double_parts`]).
pub(crate) struct DoublingParts {
    /// `M = 3X² + Z⁴`.
    pub(crate) m: Fp,
    /// `Y²`.
    pub(crate) yy: Fp,
    /// `Z²`.
    pub(crate) zz: Fp,
}

/// Precomputed fixed-base comb table (width 4) for one point — built once
/// via [`FpCtx::comb_table`], then every `k·P` through [`FpCtx::comb_mul`]
/// costs about a quarter of a generic double-and-add.
#[derive(Clone, Debug)]
pub struct CombTable {
    /// Bits per comb column: `d = ⌈bits/4⌉`; scalars up to `4·d` bits fit.
    d: u32,
    /// `table[j−1] = Σ_{i : bit i of j} 2^{i·d}·P` for `j ∈ [1, 16)`, affine.
    table: Vec<Point>,
}

impl CombTable {
    /// Comb width (number of teeth per column).
    pub const WIDTH: u32 = 4;

    /// Widest scalar (in bits) the table covers without falling back.
    pub fn scalar_bits(&self) -> u32 {
        Self::WIDTH * self.d
    }
}

impl FpCtx {
    /// Curve membership: `y² == x³ + x` (infinity is on the curve).
    pub fn is_on_curve(&self, p: &Point) -> bool {
        match p {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let lhs = self.sqr(y);
                let rhs = self.add(&self.mul(&self.sqr(x), x), x);
                lhs == rhs
            }
        }
    }

    /// Point negation.
    pub fn point_neg(&self, p: &Point) -> Point {
        match p {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine {
                x: *x,
                y: self.neg(y),
            },
        }
    }

    /// Affine point addition (used by the Miller loop, which needs slopes
    /// anyway; costs one inversion).
    pub fn point_add(&self, a: &Point, b: &Point) -> Point {
        match (a, b) {
            (Point::Infinity, _) => *b,
            (_, Point::Infinity) => *a,
            (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 {
                        return self.point_double(a);
                    }
                    return Point::Infinity; // a == −b
                }
                let lambda = self.mul(
                    &self.sub(y2, y1),
                    &self.inv(&self.sub(x2, x1)).expect("x1 != x2"),
                );
                self.chord_result(x1, y1, x2, &lambda)
            }
        }
    }

    /// Affine doubling.
    pub fn point_double(&self, p: &Point) -> Point {
        match p {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => {
                if self.is_zero(y) {
                    return Point::Infinity; // vertical tangent
                }
                // λ = (3x² + 1) / 2y   (curve a-coefficient is 1)
                let num = self.add(&self.mul(&self.three(), &self.sqr(x)), &self.one());
                let lambda = self.mul(&num, &self.inv(&self.dbl(y)).expect("y != 0"));
                self.chord_result(x, y, x, &lambda)
            }
        }
    }

    /// Completes a chord/tangent construction given the slope.
    fn chord_result(&self, x1: &Fp, y1: &Fp, x2: &Fp, lambda: &Fp) -> Point {
        let x3 = self.sub(&self.sub(&self.sqr(lambda), x1), x2);
        let y3 = self.sub(&self.mul(lambda, &self.sub(x1, &x3)), y1);
        Point::Affine { x: x3, y: y3 }
    }

    /// Scalar multiplication `k·P`, width-4 wNAF over Jacobian coordinates.
    ///
    /// The default variable-base path: signed digits cut the expected
    /// addition count from `bits/2` to `bits/5` at the price of 7 extra
    /// point operations building the odd-multiples table. Bit-identical to
    /// [`Self::point_mul_binary`] (asserted by the cross-check tests).
    pub fn point_mul(&self, p: &Point, k: &FpW) -> Point {
        const W: u32 = 4;
        let (x, y) = match p {
            Point::Infinity => return Point::Infinity,
            Point::Affine { x, y } => (*x, *y),
        };
        if k.is_zero() {
            return Point::Infinity;
        }
        if k.bits() + W > FpW::BITS {
            // wNAF recoding could wrap at the very top of the scalar range;
            // such scalars never occur on the hot paths (all < q).
            return self.point_mul_binary(p, k);
        }
        let base = Jacobian {
            x,
            y,
            z: self.one(),
        };
        // Odd multiples P, 3P, …, 15P.
        let twice = self.jac_double(&base);
        let mut table = [base; 1 << (W - 2)];
        for i in 1..table.len() {
            table[i] = self.jac_add(&table[i - 1], &twice);
        }
        let digits = crate::naf::wnaf_digits(k, W);
        let mut acc: Option<Jacobian> = None;
        for &d in digits.iter().rev() {
            if let Some(a) = acc {
                acc = Some(self.jac_double(&a));
            }
            if d != 0 {
                let m = table[(d.unsigned_abs() as usize - 1) / 2];
                let m = if d > 0 { m } else { self.jac_neg(&m) };
                acc = Some(match acc {
                    None => m,
                    Some(a) => self.jac_add(&a, &m),
                });
            }
        }
        match acc {
            None => Point::Infinity,
            Some(a) => self.jac_to_affine(&a),
        }
    }

    /// Scalar multiplication `k·P` by plain MSB-first double-and-add — the
    /// pre-optimization reference path kept for cross-checks and the
    /// benchmark baseline.
    pub fn point_mul_binary(&self, p: &Point, k: &FpW) -> Point {
        let (x, y) = match p {
            Point::Infinity => return Point::Infinity,
            Point::Affine { x, y } => (*x, *y),
        };
        if k.is_zero() {
            return Point::Infinity;
        }
        let base = Jacobian {
            x,
            y,
            z: self.one(),
        };
        let mut acc: Option<Jacobian> = None;
        for i in (0..k.bits()).rev() {
            if let Some(a) = acc {
                acc = Some(self.jac_double(&a));
            }
            if k.bit(i) {
                acc = Some(match acc {
                    None => base,
                    Some(a) => self.jac_add(&a, &base),
                });
            }
        }
        match acc {
            None => Point::Infinity,
            Some(a) => self.jac_to_affine(&a),
        }
    }

    pub(crate) fn jac_is_infinity(&self, p: &Jacobian) -> bool {
        self.is_zero(&p.z)
    }

    pub(crate) fn jac_neg(&self, p: &Jacobian) -> Jacobian {
        Jacobian {
            x: p.x,
            y: self.neg(&p.y),
            z: p.z,
        }
    }

    pub(crate) fn jac_infinity(&self) -> Jacobian {
        Jacobian {
            x: self.one(),
            y: self.one(),
            z: self.zero(),
        }
    }

    pub(crate) fn jac_double(&self, p: &Jacobian) -> Jacobian {
        if self.jac_is_infinity(p) || self.is_zero(&p.y) {
            return self.jac_infinity();
        }
        self.jac_double_parts(p).0
    }

    /// dbl-2007-bl (`a = 1`) of a finite `p` with `Y ≠ 0`, also returning
    /// the `M = 3X² + Z⁴`, `Y²` and `Z²` it computed along the way: the
    /// Miller loop builds its tangent line from them.
    pub(crate) fn jac_double_parts(&self, p: &Jacobian) -> (Jacobian, DoublingParts) {
        let xx = self.sqr(&p.x);
        let yy = self.sqr(&p.y);
        let yyyy = self.sqr(&yy);
        let zz = self.sqr(&p.z);
        // S = 2((X+YY)² − XX − YYYY)
        let s = {
            let t = self.sqr(&self.add(&p.x, &yy));
            self.dbl(&self.sub(&self.sub(&t, &xx), &yyyy))
        };
        // M = 3XX + a·ZZ²  (a = 1)
        let m = self.add(&self.add(&self.dbl(&xx), &xx), &self.sqr(&zz));
        // T = M² − 2S
        let t = self.sub(&self.sqr(&m), &self.dbl(&s));
        let x3 = t;
        // Y3 = M(S − T) − 8·YYYY
        let y3 = {
            let eight_yyyy = self.dbl(&self.dbl(&self.dbl(&yyyy)));
            self.sub(&self.mul(&m, &self.sub(&s, &t)), &eight_yyyy)
        };
        // Z3 = (Y+Z)² − YY − ZZ = 2YZ
        let z3 = {
            let t = self.sqr(&self.add(&p.y, &p.z));
            self.sub(&self.sub(&t, &yy), &zz)
        };
        let doubled = Jacobian {
            x: x3,
            y: y3,
            z: z3,
        };
        (doubled, DoublingParts { m, yy, zz })
    }

    pub(crate) fn jac_add(&self, a: &Jacobian, b: &Jacobian) -> Jacobian {
        if self.jac_is_infinity(a) {
            return *b;
        }
        if self.jac_is_infinity(b) {
            return *a;
        }
        // add-2007-bl.
        let z1z1 = self.sqr(&a.z);
        let z2z2 = self.sqr(&b.z);
        let u1 = self.mul(&a.x, &z2z2);
        let u2 = self.mul(&b.x, &z1z1);
        let s1 = self.mul(&self.mul(&a.y, &b.z), &z2z2);
        let s2 = self.mul(&self.mul(&b.y, &a.z), &z1z1);
        let h = self.sub(&u2, &u1);
        if self.is_zero(&h) {
            if s1 == s2 {
                return self.jac_double(a);
            }
            return self.jac_infinity();
        }
        let i = self.sqr(&self.dbl(&h));
        let j = self.mul(&h, &i);
        let r = self.dbl(&self.sub(&s2, &s1));
        let v = self.mul(&u1, &i);
        let x3 = self.sub(&self.sub(&self.sqr(&r), &j), &self.dbl(&v));
        let y3 = self.sub(
            &self.mul(&r, &self.sub(&v, &x3)),
            &self.dbl(&self.mul(&s1, &j)),
        );
        let z3 = {
            let t = self.sqr(&self.add(&a.z, &b.z));
            self.mul(&self.sub(&self.sub(&t, &z1z1), &z2z2), &h)
        };
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    pub(crate) fn jac_to_affine(&self, p: &Jacobian) -> Point {
        if self.jac_is_infinity(p) {
            return Point::Infinity;
        }
        let zinv = self.inv(&p.z).expect("nonzero z");
        let zinv2 = self.sqr(&zinv);
        let zinv3 = self.mul(&zinv2, &zinv);
        Point::Affine {
            x: self.mul(&p.x, &zinv2),
            y: self.mul(&p.y, &zinv3),
        }
    }

    /// Builds a width-4 fixed-base comb table for `p`, sized for scalars of
    /// up to `bits` bits.
    ///
    /// One-time cost: `3·⌈bits/4⌉` Jacobian doublings plus 15 inversions to
    /// normalize the table. Amortized over the generator's lifetime (setup,
    /// every encryption's `r·P`, every FO re-encryption check) this is noise.
    pub fn comb_table(&self, p: &Point, bits: u32) -> CombTable {
        const W: u32 = 4;
        let d = bits.max(1).div_ceil(W);
        // Strides B[i] = 2^{i·d}·P.
        let mut strides: Vec<Jacobian> = Vec::with_capacity(W as usize);
        match p {
            Point::Infinity => {
                // Degenerate but total: every table entry is the identity.
                return CombTable {
                    d,
                    table: vec![Point::Infinity; (1 << W) - 1],
                };
            }
            Point::Affine { x, y } => strides.push(Jacobian {
                x: *x,
                y: *y,
                z: self.one(),
            }),
        }
        for i in 1..W as usize {
            let mut t = strides[i - 1];
            for _ in 0..d {
                t = self.jac_double(&t);
            }
            strides.push(t);
        }
        // table[j−1] = Σ_{i : bit i of j set} B[i], normalized to affine.
        let mut table = Vec::with_capacity((1 << W) - 1);
        for j in 1u32..1 << W {
            let mut acc: Option<Jacobian> = None;
            for (i, b) in strides.iter().enumerate() {
                if j & (1 << i) != 0 {
                    acc = Some(match acc {
                        None => *b,
                        Some(a) => self.jac_add(&a, b),
                    });
                }
            }
            table.push(self.jac_to_affine(&acc.expect("j ≥ 1 selects a stride")));
        }
        CombTable { d, table }
    }

    /// Fixed-base multiplication `k·P` through a precomputed [`CombTable`].
    ///
    /// Costs `⌈bits/4⌉` doublings plus at most that many additions — roughly
    /// a quarter of the work of the generic ladder. Bit-identical to
    /// [`Self::point_mul_binary`] on the same inputs.
    pub fn comb_mul(&self, t: &CombTable, k: &FpW) -> Point {
        if k.is_zero() {
            return Point::Infinity;
        }
        if k.bits() > CombTable::WIDTH * t.d {
            // Scalar wider than the table (never the case for reduced
            // scalars): fall back to the generic path on P = table[0].
            return self.point_mul(&t.table[0], k);
        }
        let mut acc: Option<Jacobian> = None;
        for col in (0..t.d).rev() {
            if let Some(a) = acc {
                acc = Some(self.jac_double(&a));
            }
            let mut j = 0usize;
            for i in 0..CombTable::WIDTH {
                if k.bit(i * t.d + col) {
                    j |= 1 << i;
                }
            }
            if j != 0 {
                if let Point::Affine { x, y } = &t.table[j - 1] {
                    let m = Jacobian {
                        x: *x,
                        y: *y,
                        z: self.one(),
                    };
                    acc = Some(match acc {
                        None => m,
                        Some(a) => self.jac_add(&a, &m),
                    });
                }
                // An infinity entry (only possible for small-order P)
                // contributes the identity: nothing to add.
            }
        }
        match acc {
            None => Point::Infinity,
            Some(a) => self.jac_to_affine(&a),
        }
    }

    /// A uniformly random point of the full group `E(F_p)` (order `p+1`).
    pub fn random_curve_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        loop {
            let x = self.random(rng);
            let rhs = self.add(&self.mul(&self.sqr(&x), &x), &x);
            if let Some(y) = self.sqrt(&rhs) {
                // Randomize the sign so both roots are reachable.
                let y = if rng.next_u32() & 1 == 1 {
                    self.neg(&y)
                } else {
                    y
                };
                return Point::Affine { x, y };
            }
        }
    }

    /// Compressed encoding: `0x00` for infinity, else `0x02 | parity(y)`
    /// followed by the big-endian x-coordinate.
    pub fn point_to_bytes(&self, p: &Point) -> Vec<u8> {
        match p {
            Point::Infinity => vec![0x00],
            Point::Affine { x, y } => {
                let mut out = Vec::with_capacity(1 + 8 * crate::FP_LIMBS);
                out.push(0x02 | self.parity(y) as u8);
                out.extend_from_slice(&self.to_bytes(x));
                out
            }
        }
    }

    /// Decodes a compressed point, verifying curve membership.
    pub fn point_from_bytes(&self, bytes: &[u8]) -> Result<Point, PairingError> {
        match bytes.split_first() {
            Some((0x00, [])) => Ok(Point::Infinity),
            Some((&tag @ (0x02 | 0x03), rest)) => {
                if rest.len() != 8 * crate::FP_LIMBS {
                    return Err(PairingError::Decode);
                }
                let xi = FpW::from_be_bytes(rest).map_err(|_| PairingError::Decode)?;
                if xi >= *self.modulus() {
                    return Err(PairingError::Decode);
                }
                let x = self.from_uint(&xi);
                let rhs = self.add(&self.mul(&self.sqr(&x), &x), &x);
                let y = self.sqrt(&rhs).ok_or(PairingError::InvalidPoint)?;
                let y = if self.parity(&y) == (tag & 1 == 1) {
                    y
                } else {
                    self.neg(&y)
                };
                Ok(Point::Affine { x, y })
            }
            _ => Err(PairingError::Decode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::HmacDrbg;

    /// A small 3-mod-4 prime context for fast curve tests.
    fn ctx() -> FpCtx {
        let mut p = FpW::ZERO;
        p.set_bit(127, true);
        FpCtx::new(&p.wrapping_sub(&FpW::ONE)) // 2^127 − 1
    }

    fn rng() -> HmacDrbg {
        HmacDrbg::from_u64(2024)
    }

    #[test]
    fn random_points_are_on_curve() {
        let f = ctx();
        let mut rng = rng();
        for _ in 0..8 {
            let p = f.random_curve_point(&mut rng);
            assert!(f.is_on_curve(&p));
        }
    }

    #[test]
    fn group_identities() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        assert_eq!(f.point_add(&p, &Point::Infinity), p);
        assert_eq!(f.point_add(&Point::Infinity, &p), p);
        assert_eq!(f.point_add(&p, &f.point_neg(&p)), Point::Infinity);
        assert!(f.is_on_curve(&f.point_neg(&p)));
    }

    #[test]
    fn addition_commutes_and_associates() {
        let f = ctx();
        let mut rng = rng();
        let a = f.random_curve_point(&mut rng);
        let b = f.random_curve_point(&mut rng);
        let c = f.random_curve_point(&mut rng);
        assert_eq!(f.point_add(&a, &b), f.point_add(&b, &a));
        assert_eq!(
            f.point_add(&f.point_add(&a, &b), &c),
            f.point_add(&a, &f.point_add(&b, &c))
        );
    }

    #[test]
    fn double_equals_add_self() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        assert_eq!(f.point_double(&p), f.point_add(&p, &p));
        assert!(f.is_on_curve(&f.point_double(&p)));
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let mut acc = Point::Infinity;
        for k in 0u64..20 {
            assert_eq!(f.point_mul(&p, &FpW::from_u64(k)), acc, "k = {k}");
            acc = f.point_add(&acc, &p);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let a = FpW::from_u64(123456789);
        let b = FpW::from_u64(987654321);
        // (a+b)P = aP + bP
        let lhs = f.point_mul(&p, &a.wrapping_add(&b));
        let rhs = f.point_add(&f.point_mul(&p, &a), &f.point_mul(&p, &b));
        assert_eq!(lhs, rhs);
        // (ab)P = a(bP)
        let lhs = f.point_mul(&p, &a.wrapping_mul(&b));
        let rhs = f.point_mul(&f.point_mul(&p, &b), &a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn group_order_annihilates() {
        // #E(F_p) = p + 1 for this supersingular family.
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let order = f.modulus().wrapping_add(&FpW::ONE);
        assert_eq!(f.point_mul(&p, &order), Point::Infinity);
    }

    #[test]
    fn mul_by_zero_and_infinity() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        assert_eq!(f.point_mul(&p, &FpW::ZERO), Point::Infinity);
        assert_eq!(
            f.point_mul(&Point::Infinity, &FpW::from_u64(7)),
            Point::Infinity
        );
    }

    #[test]
    fn wnaf_matches_binary_ladder() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        // Small scalars, a few wide ones, and the near-top-of-width guard.
        let mut scalars = vec![FpW::ZERO, FpW::ONE, FpW::from_u64(2)];
        for k in [3u64, 15, 16, 17, 0xffff_ffff, 0xdead_beef_cafe] {
            scalars.push(FpW::from_u64(k));
        }
        let order = f.modulus().wrapping_add(&FpW::ONE);
        scalars.push(order.wrapping_sub(&FpW::ONE));
        scalars.push(order);
        let mut max = FpW::ZERO;
        for i in 0..FpW::BITS {
            max.set_bit(i, true);
        }
        scalars.push(max); // exercises the binary fallback
        for k in &scalars {
            assert_eq!(f.point_mul(&p, k), f.point_mul_binary(&p, k));
        }
        assert_eq!(
            f.point_mul(&Point::Infinity, &FpW::from_u64(7)),
            Point::Infinity
        );
    }

    #[test]
    fn comb_matches_binary_ladder() {
        let f = ctx();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let order = f.modulus().wrapping_add(&FpW::ONE);
        let table = f.comb_table(&p, order.bits());
        assert!(table.scalar_bits() >= order.bits());
        let mut scalars = vec![FpW::ZERO, FpW::ONE, FpW::from_u64(2)];
        for k in [3u64, 255, 256, 0xdead_beef] {
            scalars.push(FpW::from_u64(k));
        }
        scalars.push(order.wrapping_sub(&FpW::ONE));
        scalars.push(order); // annihilates: comb must return infinity
        for k in &scalars {
            assert_eq!(f.comb_mul(&table, k), f.point_mul_binary(&p, k), "k");
        }
        // Wider-than-table scalar takes the fallback and still agrees.
        let wide = order
            .wrapping_mul(&FpW::from_u64(3))
            .wrapping_add(&FpW::ONE);
        assert_eq!(f.comb_mul(&table, &wide), f.point_mul_binary(&p, &wide));
        // Degenerate base point.
        let inf_table = f.comb_table(&Point::Infinity, 64);
        assert_eq!(
            f.comb_mul(&inf_table, &FpW::from_u64(1234)),
            Point::Infinity
        );
    }

    #[test]
    fn two_torsion_point() {
        // (0, 0) is on the curve and is its own negation: 2·(0,0) = O.
        let f = ctx();
        let p = Point::Affine {
            x: f.zero(),
            y: f.zero(),
        };
        assert!(f.is_on_curve(&p));
        assert_eq!(f.point_double(&p), Point::Infinity);
        assert_eq!(f.point_add(&p, &p), Point::Infinity);
    }

    #[test]
    fn serialization_roundtrip() {
        let f = ctx();
        let mut rng = rng();
        for _ in 0..6 {
            let p = f.random_curve_point(&mut rng);
            let bytes = f.point_to_bytes(&p);
            assert_eq!(f.point_from_bytes(&bytes).unwrap(), p);
        }
        let inf = f.point_to_bytes(&Point::Infinity);
        assert_eq!(f.point_from_bytes(&inf).unwrap(), Point::Infinity);
    }

    #[test]
    fn serialization_rejects_garbage() {
        let f = ctx();
        assert!(f.point_from_bytes(&[]).is_err());
        assert!(f.point_from_bytes(&[0x05, 1, 2]).is_err());
        assert!(f.point_from_bytes(&[0x02, 1, 2, 3]).is_err()); // wrong length
                                                                // x with no curve point: find one by trial.
        let mut rng = rng();
        loop {
            let x = f.random(&mut rng);
            let rhs = f.add(&f.mul(&f.sqr(&x), &x), &x);
            if f.sqrt(&rhs).is_none() {
                let mut bytes = vec![0x02];
                bytes.extend_from_slice(&f.to_bytes(&x));
                assert_eq!(
                    f.point_from_bytes(&bytes).unwrap_err(),
                    PairingError::InvalidPoint
                );
                break;
            }
        }
    }
}
