//! Point arithmetic on the supersingular curve `E : y² = x³ + x` over `F_p`.
//!
//! Public points are affine (an explicit point at infinity variant).
//! Variable-base scalar multiplication is the x-only Montgomery ladder —
//! `E` is the Montgomery curve with `A = 0`, `B = 1` — with `y` recovered
//! under a single field inversion at the end; it runs a fixed number of
//! steps with masked swaps, so its operation sequence does not depend on the
//! scalar (DESIGN D8). The generator's multiples come from a signed-window
//! fixed-base table (`FixedBase`): one masked table scan and one mixed
//! addition per 4-bit window, whatever the scalar. The table, the binary
//! reference path and the Miller loops use Jacobian coordinates. Inside the
//! crate a point is an `Aff<N>` at the field's width: the conversion from
//! and to [`Point`] happens once per group-level call.

use crate::fp::{Fe, Field, Fp, FpCtx};
use crate::{at_width, FpW, PairingError};
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

    /// The point at width `N`.
    #[inline(always)]
    pub(crate) fn at<const N: usize>(&self) -> Aff<N> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, y } => Some((x.at(), y.at())),
        }
    }

    /// Widens a width-`N` point into the API's container.
    pub(crate) fn from_aff<const N: usize>(p: &Aff<N>) -> Point {
        match p {
            None => Point::Infinity,
            Some((x, y)) => Point::Affine {
                x: Fp::from_fe(x),
                y: Fp::from_fe(y),
            },
        }
    }
}

/// An affine point at width `N`; `None` is the point at infinity.
pub(crate) type Aff<const N: usize> = Option<(Fe<N>, Fe<N>)>;

/// Internal Jacobian representation: `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`;
/// `Z = 0` encodes infinity.
#[derive(Clone, Copy)]
pub(crate) struct Jacobian<const N: usize> {
    pub(crate) x: Fe<N>,
    pub(crate) y: Fe<N>,
    pub(crate) z: Fe<N>,
}

/// Intermediates of one Jacobian doubling of `(X, Y, Z)`, kept for the
/// tangent line (see [`Field::jac_double_parts`]).
pub(crate) struct DoublingParts<const N: usize> {
    /// `M = 3X² + Z⁴`.
    pub(crate) m: Fe<N>,
    /// `Y²`.
    pub(crate) yy: Fe<N>,
    /// `Z²`.
    pub(crate) zz: Fe<N>,
}

/// The rows of a fixed-base table at width `N`: row `i` holds the affine
/// odd multiples `(2j+1)·16^i·P` for `j ∈ [0, 8)`.
type Rows<const N: usize> = Vec<[(Fe<N>, Fe<N>); 8]>;

/// A signed-window fixed-base table for one point `P` of odd prime order
/// `q > 15` (see [`crate::PairingCtx::mul_generator`]), stored at the
/// field's width: one row per regular digit of a scalar mod `q`
/// ([`crate::naf::regular_digits`]), so `k·P` is one masked scan and one
/// mixed addition per row, and one inversion at the end.
#[derive(Clone, Debug)]
pub(crate) struct FixedBase(crate::wide!(Rows));

/// All ones when `a` is zero, else zero — without a branch.
#[inline(always)]
fn zero_mask<const N: usize>(a: &Fe<N>) -> u64 {
    let any = a.iter().fold(0, |acc, l| acc | l);
    ((any | any.wrapping_neg()) >> 63).wrapping_sub(1)
}

/// `a` where `mask` is all ones, `b` where it is zero.
#[inline(always)]
fn select<const N: usize>(mask: u64, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
    core::array::from_fn(|i| b[i] ^ (mask & (a[i] ^ b[i])))
}

/// Swaps `a` and `b` when `bit` is 1, leaves them when it is 0, by mask.
#[inline(always)]
fn cswap<const N: usize>(a: &mut Fe<N>, b: &mut Fe<N>, bit: u64) {
    let mask = bit.wrapping_neg();
    for i in 0..N {
        let t = mask & (a[i] ^ b[i]);
        a[i] ^= t;
        b[i] ^= t;
    }
}

impl<const N: usize> Field<N> {
    /// Curve membership: `y² == x³ + x` (infinity is on the curve).
    pub(crate) fn is_on_curve(&self, p: &Aff<N>) -> bool {
        match p {
            None => true,
            Some((x, y)) => self.sqr(y) == self.curve_rhs(x),
        }
    }

    /// `x³ + x`.
    pub(crate) fn curve_rhs(&self, x: &Fe<N>) -> Fe<N> {
        self.add(&self.mul(&self.sqr(x), x), x)
    }

    /// Affine point addition (the reference path; costs one inversion).
    pub(crate) fn point_add(&self, a: &Aff<N>, b: &Aff<N>) -> Aff<N> {
        match (a, b) {
            (None, _) => *b,
            (_, None) => *a,
            (Some((x1, y1)), Some((x2, y2))) => {
                if x1 == x2 {
                    if y1 == y2 {
                        return self.point_double(a);
                    }
                    return None; // a == −b
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
    pub(crate) fn point_double(&self, p: &Aff<N>) -> Aff<N> {
        let (x, y) = p.as_ref()?;
        if self.is_zero(y) {
            return None; // vertical tangent
        }
        // λ = (3x² + 1) / 2y   (curve a-coefficient is 1)
        let num = self.add(&self.mul(&self.three(), &self.sqr(x)), &self.one());
        let lambda = self.mul(&num, &self.inv(&self.dbl(y)).expect("y != 0"));
        self.chord_result(x, y, x, &lambda)
    }

    /// Completes a chord/tangent construction given the slope.
    fn chord_result(&self, x1: &Fe<N>, y1: &Fe<N>, x2: &Fe<N>, lambda: &Fe<N>) -> Aff<N> {
        let x3 = self.sub(&self.sub(&self.sqr(lambda), x1), x2);
        let y3 = self.sub(&self.mul(lambda, &self.sub(x1, &x3)), y1);
        Some((x3, y3))
    }

    /// A finite affine point in Jacobian form (`Z = 1`).
    #[inline(always)]
    fn jac(&self, x: &Fe<N>, y: &Fe<N>) -> Jacobian<N> {
        Jacobian {
            x: *x,
            y: *y,
            z: self.one(),
        }
    }

    /// Scalar multiplication `k·P`: the x-only Montgomery ladder over
    /// `max(bits(k), bits)` steps, then `y` by Okeya–Sakurai under one
    /// inversion. `bits` is the caller's fixed step count (the group order's
    /// length), so every scalar below `2^bits` runs the same sequence of
    /// field operations. Bit-identical to [`Self::point_mul_binary`]
    /// (asserted by the cross-check tests).
    ///
    /// The base at infinity and the 2-torsion point `(0, 0)` are answered
    /// directly: the ladder's differential addition divides by `x(P)`.
    pub(crate) fn point_mul(&self, p: &Aff<N>, k: &FpW, bits: u32) -> Aff<N> {
        let (x, y) = p.as_ref()?;
        if self.is_zero(x) {
            return k.is_odd().then_some((*x, *y));
        }
        let [x1, z1, x2, z2] = self.ladder(x, k, bits.max(k.bits()));
        // Okeya–Sakurai for A = 0, B = 1: with k·P = (X1:Z1) and
        // (k+1)·P = (X2:Z2),
        //   y(kP) = [(x·x1 + 1)(x + x1) − (x − x1)²·x2] / 2y,
        // here over the common denominator 2y·Z1²·Z2.
        let xz1 = self.mul(x, &z1);
        let lhs = self.mul(
            &self.mul(&self.add(&self.mul(x, &x1), &z1), &self.add(&x1, &xz1)),
            &z2,
        );
        let num = self.sub(&lhs, &self.mul(&self.sqr(&self.sub(&x1, &xz1)), &x2));
        let t = self.mul(&self.mul(&self.dbl(y), &z1), &z2);
        let (xt, zt) = (self.mul(&t, &x1), self.mul(&t, &z1));
        // k·P = O leaves Z1 = 0; (k+1)·P = O leaves Z2 = 0 and k·P = −P.
        // Either zeroes the denominator: invert 1 instead and pick the
        // answer by mask, so those scalars cost what every other one does.
        let (at_infinity, minus_p) = (zero_mask(&z1), zero_mask(&z2));
        let zinv = self
            .inv(&select(zero_mask(&zt), &self.one(), &zt))
            .expect("nonzero");
        let rx = select(minus_p, x, &self.mul(&xt, &zinv));
        let ry = select(minus_p, &self.neg(y), &self.mul(&num, &zinv));
        (at_infinity == 0).then_some((rx, ry))
    }

    /// `k·P = O`, from the ladder's x-coordinate alone (no `y`, no
    /// inversion): the subgroup check.
    pub(crate) fn mul_is_infinity(&self, p: &Aff<N>, k: &FpW) -> bool {
        match p {
            None => true,
            Some((x, _)) if self.is_zero(x) => !k.is_odd(),
            Some((x, _)) => self.is_zero(&self.ladder(x, k, k.bits())[1]),
        }
    }

    /// The x-only Montgomery ladder on `y² = x³ + x` (`A = 0`) over the
    /// low `steps` bits of `k`, for a base of affine `x ≠ 0`: `(X1:Z1) =
    /// x(k·P)` and `(X2:Z2) = x((k+1)·P)`, infinity as `Z = 0`.
    ///
    /// Each step is one differential addition against the affine base and
    /// one doubling — 5 products and 4 squarings — between two masked
    /// swaps: no branch and no memory index depends on `k`. The doubling is
    /// scaled by 2 so `(A + 2)/4 = 1/2` costs no product. With `A² − 4`
    /// a non-square and `x ≠ 0`, the formulas are right through every
    /// intermediate infinity and `(0, 0)` (Bernstein, Curve25519, App. B).
    fn ladder(&self, x: &Fe<N>, k: &FpW, steps: u32) -> [Fe<N>; 4] {
        // (R0, R1) = (O, P).
        let (mut x0, mut z0) = (self.one(), self.zero());
        let (mut x1, mut z1) = (*x, self.one());
        let mut swap = 0u64;
        for i in (0..steps).rev() {
            let bit = k.bit(i) as u64;
            swap ^= bit;
            cswap(&mut x0, &mut x1, swap);
            cswap(&mut z0, &mut z1, swap);
            swap = bit;
            let (a, b) = (self.add(&x0, &z0), self.sub(&x0, &z0));
            let (c, d) = (self.add(&x1, &z1), self.sub(&x1, &z1));
            // R1 ← R0 + R1, whose difference is P.
            let (da, cb) = (self.mul(&d, &a), self.mul(&c, &b));
            x1 = self.sqr(&self.add(&da, &cb));
            z1 = self.mul(x, &self.sqr(&self.sub(&da, &cb)));
            // R0 ← 2·R0, as (2·AA·BB : E·(2·BB + E)) with E = AA − BB.
            let (aa, bb) = (self.sqr(&a), self.sqr(&b));
            let e = self.sub(&aa, &bb);
            x0 = self.dbl(&self.mul(&aa, &bb));
            z0 = self.mul(&e, &self.add(&self.dbl(&bb), &e));
        }
        cswap(&mut x0, &mut x1, swap);
        cswap(&mut z0, &mut z1, swap);
        [x0, z0, x1, z1]
    }

    /// Scalar multiplication `k·P` by plain MSB-first double-and-add — the
    /// pre-optimization reference path kept for cross-checks and the
    /// benchmark baseline.
    pub(crate) fn point_mul_binary(&self, p: &Aff<N>, k: &FpW) -> Aff<N> {
        let (x, y) = p.as_ref()?;
        let base = self.jac(x, y);
        let mut acc: Option<Jacobian<N>> = None;
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
        self.jac_to_affine(&acc?)
    }

    #[inline(always)]
    pub(crate) fn jac_is_infinity(&self, p: &Jacobian<N>) -> bool {
        self.is_zero(&p.z)
    }

    pub(crate) fn jac_infinity(&self) -> Jacobian<N> {
        Jacobian {
            x: self.one(),
            y: self.one(),
            z: self.zero(),
        }
    }

    pub(crate) fn jac_double(&self, p: &Jacobian<N>) -> Jacobian<N> {
        if self.jac_is_infinity(p) || self.is_zero(&p.y) {
            return self.jac_infinity();
        }
        self.jac_double_parts(p).0
    }

    /// dbl-2007-bl (`a = 1`) of a finite `p` with `Y ≠ 0`, also returning
    /// the `M = 3X² + Z⁴`, `Y²` and `Z²` it computed along the way: the
    /// Miller loop builds its tangent line from them.
    #[inline(always)]
    pub(crate) fn jac_double_parts(&self, p: &Jacobian<N>) -> (Jacobian<N>, DoublingParts<N>) {
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

    pub(crate) fn jac_add(&self, a: &Jacobian<N>, b: &Jacobian<N>) -> Jacobian<N> {
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

    pub(crate) fn jac_to_affine(&self, p: &Jacobian<N>) -> Aff<N> {
        let zinv = self.inv(&p.z)?;
        let zinv2 = self.sqr(&zinv);
        let zinv3 = self.mul(&zinv2, &zinv);
        Some((self.mul(&p.x, &zinv2), self.mul(&p.y, &zinv3)))
    }

    /// `a + (x, y)` for a Jacobian `a` and a finite affine point:
    /// madd-2007-bl, 7 products and 4 squarings.
    ///
    /// The formula fails when `a` is `±(x, y)` (`H = 0`) or infinity
    /// (`Z = 0`); those cases take the general [`Self::jac_add`], which
    /// doubles or returns infinity. In [`Self::fixed_base_mul`] this is the
    /// one branch on the scalar, and a uniform scalar takes it with
    /// probability about `2/q` (DESIGN D8).
    #[inline(always)]
    fn jac_add_affine(&self, a: &Jacobian<N>, x2: &Fe<N>, y2: &Fe<N>) -> Jacobian<N> {
        let z1z1 = self.sqr(&a.z);
        let u2 = self.mul(x2, &z1z1);
        let s2 = self.mul(&self.mul(y2, &a.z), &z1z1);
        let h = self.sub(&u2, &a.x);
        if self.is_zero(&h) || self.jac_is_infinity(a) {
            return self.jac_add(a, &self.jac(x2, y2));
        }
        let hh = self.sqr(&h);
        let i = self.dbl(&self.dbl(&hh));
        let j = self.mul(&h, &i);
        let r = self.dbl(&self.sub(&s2, &a.y));
        let v = self.mul(&a.x, &i);
        let x3 = self.sub(&self.sub(&self.sqr(&r), &j), &self.dbl(&v));
        let y3 = self.sub(
            &self.mul(&r, &self.sub(&v, &x3)),
            &self.dbl(&self.mul(&a.y, &j)),
        );
        let z3 = self.sub(&self.sub(&self.sqr(&self.add(&a.z, &h)), &z1z1), &hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// The entry for the odd digit `d ∈ [−15, 15]` of a row of eight odd
    /// multiples `(u, v)`, with `v` negated for a negative `d`: the point
    /// `d·T` from `T, 3T, …, 15T`, or the power `a^d` from `a, a³, …, a¹⁵`
    /// for a unitary `a = u + v·i`, whose inverse is its conjugate. Every
    /// entry is read and the negation is a masked select, so neither the
    /// memory touched nor the operations run depend on `d`.
    #[inline(always)]
    pub(crate) fn signed_lookup(&self, row: &[(Fe<N>, Fe<N>); 8], d: i8) -> (Fe<N>, Fe<N>) {
        let sign = d >> 7; // −1 for a negative digit, else 0
        let index = (((d ^ sign) - sign) >> 1) as u64; // (|d| − 1)/2
        let (mut u, mut v) = ([0; N], [0; N]);
        for (j, (ru, rv)) in row.iter().enumerate() {
            let hit = ((j as u64 ^ index).wrapping_sub(1) >> 63).wrapping_neg();
            u = select(hit, ru, &u);
            v = select(hit, rv, &v);
        }
        let negative = sign as u64; // sign-extends: all ones or zero
        (u, select(negative, &self.sub(&self.zero(), &v), &v))
    }

    /// The rows of a [`FixedBase`] for the finite point `(x, y)`: `windows`
    /// rows of the odd multiples `(2j+1)·16^i·P`.
    ///
    /// Each row costs one doubling and seven additions in Jacobian form,
    /// and the next row's base `16^(i+1)·P` is its `15·16^i·P` plus `16^i·P`:
    /// one addition, where four doublings would cost more. Every entry is
    /// then normalized under one batched inversion (Montgomery's trick:
    /// three products per entry). `P` must have odd prime order above 15,
    /// so no entry is infinity.
    fn fixed_base_rows(&self, x: &Fe<N>, y: &Fe<N>, windows: u32) -> Rows<N> {
        let mut points = Vec::with_capacity(8 * windows as usize);
        let mut base = self.jac(x, y);
        for i in 0..windows {
            let twice = self.jac_double(&base);
            let mut m = base;
            points.push(m);
            for _ in 1..8 {
                m = self.jac_add(&m, &twice);
                points.push(m);
            }
            if i + 1 < windows {
                base = self.jac_add(&m, &base);
            }
        }
        // prefix[i] = Z_0 ⋯ Z_i; one inversion, then walk back.
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = self.one();
        for p in &points {
            acc = self.mul(&acc, &p.z);
            prefix.push(acc);
        }
        let mut inv = self.inv(&acc).expect("no table entry is infinity");
        let mut affine = vec![(self.zero(), self.zero()); points.len()];
        for i in (0..points.len()).rev() {
            let zinv = if i == 0 {
                inv
            } else {
                self.mul(&inv, &prefix[i - 1])
            };
            inv = self.mul(&inv, &points[i].z);
            let zinv2 = self.sqr(&zinv);
            let p = &points[i];
            affine[i] = (
                self.mul(&p.x, &zinv2),
                self.mul(&p.y, &self.mul(&zinv2, &zinv)),
            );
        }
        affine
            .chunks_exact(8)
            .map(|row| core::array::from_fn(|j| row[j]))
            .collect()
    }

    /// `k·P` through a [`FixedBase`]'s rows, `digits` the regular recoding
    /// of `k` (one per row): the first row's entry, then one masked scan and
    /// one mixed addition per further row, then one inversion. `k·P = O`
    /// (a scalar `≡ 0 mod q`) comes out as infinity.
    fn fixed_base_mul(&self, rows: &Rows<N>, digits: &[i8]) -> Aff<N> {
        debug_assert_eq!(rows.len(), digits.len(), "one digit per row");
        let (x, y) = self.signed_lookup(&rows[0], digits[0]);
        let mut acc = self.jac(&x, &y);
        for (row, &d) in rows.iter().zip(digits).skip(1) {
            let (x, y) = self.signed_lookup(row, d);
            acc = self.jac_add_affine(&acc, &x, &y);
        }
        self.jac_to_affine(&acc)
    }

    /// A uniformly random point of the full group `E(F_p)` (order `p+1`).
    pub(crate) fn random_curve_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Aff<N> {
        loop {
            let x = self.random(rng);
            if let Some(y) = self.sqrt(&self.curve_rhs(&x)) {
                // Randomize the sign so both roots are reachable.
                let y = if rng.next_u32() & 1 == 1 {
                    self.neg(&y)
                } else {
                    y
                };
                return Some((x, y));
            }
        }
    }

    /// Compressed encoding: `0x00` for infinity, else `0x02 | parity(y)`
    /// followed by the big-endian x-coordinate.
    pub(crate) fn point_to_bytes(&self, p: &Aff<N>) -> Vec<u8> {
        match p {
            None => vec![0x00],
            Some((x, y)) => {
                let mut out = Vec::with_capacity(1 + 8 * crate::FP_LIMBS);
                out.push(0x02 | self.parity(y) as u8);
                out.extend_from_slice(&self.to_bytes(x));
                out
            }
        }
    }

    /// Decodes a compressed point, verifying curve membership.
    pub(crate) fn point_from_bytes(&self, bytes: &[u8]) -> Result<Aff<N>, PairingError> {
        match bytes.split_first() {
            Some((0x00, [])) => Ok(None),
            Some((&tag @ (0x02 | 0x03), rest)) => {
                if rest.len() != 8 * crate::FP_LIMBS {
                    return Err(PairingError::Decode);
                }
                let xi = FpW::from_be_bytes(rest).map_err(|_| PairingError::Decode)?;
                if xi >= *self.modulus() {
                    return Err(PairingError::Decode);
                }
                let x = self.import(&xi);
                let y = self
                    .sqrt(&self.curve_rhs(&x))
                    .ok_or(PairingError::InvalidPoint)?;
                let y = if self.parity(&y) == (tag & 1 == 1) {
                    y
                } else {
                    self.neg(&y)
                };
                Ok(Some((x, y)))
            }
            _ => Err(PairingError::Decode),
        }
    }
}

impl FpCtx {
    /// Curve membership: `y² == x³ + x` (infinity is on the curve).
    pub fn is_on_curve(&self, p: &Point) -> bool {
        at_width!(self, |f| f.is_on_curve(&p.at()))
    }

    /// Affine point addition (one inversion).
    pub(crate) fn point_add(&self, a: &Point, b: &Point) -> Point {
        at_width!(self, |f| Point::from_aff(&f.point_add(&a.at(), &b.at())))
    }

    /// Scalar multiplication `k·P`, the Montgomery ladder over
    /// `max(bits(k), bits)` steps.
    pub(crate) fn point_mul(&self, p: &Point, k: &FpW, bits: u32) -> Point {
        at_width!(self, |f| Point::from_aff(&f.point_mul(&p.at(), k, bits)))
    }

    /// `k·P = O`, from the ladder's x-coordinate alone.
    pub(crate) fn mul_is_infinity(&self, p: &Point, k: &FpW) -> bool {
        at_width!(self, |f| f.mul_is_infinity(&p.at(), k))
    }

    /// Scalar multiplication `k·P` by plain MSB-first double-and-add — the
    /// reference path kept as the ladder's oracle and the benchmark
    /// baseline; bit-identical to the ladder.
    pub fn point_mul_binary(&self, p: &Point, k: &FpW) -> Point {
        at_width!(self, |f| Point::from_aff(&f.point_mul_binary(&p.at(), k)))
    }

    /// Builds the [`FixedBase`] table of the finite point `p` for scalars
    /// recoded into `windows` regular digits.
    pub(crate) fn fixed_base(&self, p: &Point, windows: u32) -> FixedBase {
        FixedBase(at_width!(wide, self, |f| {
            let (x, y) = p.at().expect("a fixed base is a finite point");
            f.fixed_base_rows(&x, &y, windows)
        }))
    }

    /// `k·P` through a [`FixedBase`] built by this context, `digits` the
    /// regular recoding of `k`.
    pub(crate) fn fixed_base_mul(&self, t: &FixedBase, digits: &[i8]) -> Point {
        at_width!(self, &t.0, |f, rows| Point::from_aff(
            &f.fixed_base_mul(rows, digits)
        ))
    }

    /// A uniformly random point of the full group `E(F_p)` (order `p+1`).
    pub fn random_curve_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        at_width!(self, |f| Point::from_aff(&f.random_curve_point(rng)))
    }

    /// Compressed encoding: `0x00` for infinity, else `0x02 | parity(y)`
    /// followed by the big-endian x-coordinate.
    pub fn point_to_bytes(&self, p: &Point) -> Vec<u8> {
        at_width!(self, |f| f.point_to_bytes(&p.at()))
    }

    /// Decodes a compressed point, verifying curve membership (not
    /// subgroup membership: see [`crate::PairingCtx::in_subgroup`]).
    pub fn point_from_bytes(&self, bytes: &[u8]) -> Result<Point, PairingError> {
        at_width!(self, |f| f
            .point_from_bytes(bytes)
            .map(|p| Point::from_aff(&p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::tests::field;
    use mws_crypto::HmacDrbg;

    fn rng() -> HmacDrbg {
        HmacDrbg::from_u64(2024)
    }

    #[test]
    fn random_points_are_on_curve() {
        let f = field();
        let mut rng = rng();
        for _ in 0..8 {
            let p = f.random_curve_point(&mut rng);
            assert!(f.is_on_curve(&p));
        }
    }

    fn neg(f: &Field<3>, p: &Aff<3>) -> Aff<3> {
        p.map(|(x, y)| (x, f.neg(&y)))
    }

    #[test]
    fn group_identities() {
        let f = field();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        assert_eq!(f.point_add(&p, &None), p);
        assert_eq!(f.point_add(&None, &p), p);
        assert_eq!(f.point_add(&p, &neg(&f, &p)), None);
        assert!(f.is_on_curve(&neg(&f, &p)));
    }

    #[test]
    fn addition_commutes_and_associates() {
        let f = field();
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
        let f = field();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        assert_eq!(f.point_double(&p), f.point_add(&p, &p));
        assert!(f.is_on_curve(&f.point_double(&p)));
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let f = field();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let mut acc = None;
        for k in 0u64..20 {
            assert_eq!(f.point_mul(&p, &FpW::from_u64(k), 0), acc, "k = {k}");
            acc = f.point_add(&acc, &p);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let f = field();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let a = FpW::from_u64(123456789);
        let b = FpW::from_u64(987654321);
        let mul = |p: &Aff<3>, k: &FpW| f.point_mul(p, k, 0);
        // (a+b)P = aP + bP
        let lhs = mul(&p, &a.wrapping_add(&b));
        let rhs = f.point_add(&mul(&p, &a), &mul(&p, &b));
        assert_eq!(lhs, rhs);
        // (ab)P = a(bP)
        let lhs = mul(&p, &a.wrapping_mul(&b));
        let rhs = mul(&mul(&p, &b), &a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn group_order_annihilates() {
        // #E(F_p) = p + 1 for this supersingular family.
        let f = field();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        let order = f.modulus().wrapping_add(&FpW::ONE);
        assert_eq!(f.point_mul(&p, &order, 0), None);
        assert!(f.mul_is_infinity(&p, &order));
    }

    #[test]
    fn mul_by_zero_and_infinity() {
        let f = field();
        let mut rng = rng();
        let p = f.random_curve_point(&mut rng);
        assert_eq!(f.point_mul(&p, &FpW::ZERO, 0), None);
        assert_eq!(f.point_mul(&p, &FpW::ZERO, 127), None);
        assert_eq!(f.point_mul(&None, &FpW::from_u64(7), 127), None);
        assert!(f.mul_is_infinity(&p, &FpW::ZERO));
        assert!(f.mul_is_infinity(&None, &FpW::from_u64(7)));
    }

    /// `2^j` as a scalar.
    fn two_to(j: u32) -> FpW {
        let mut k = FpW::ZERO;
        k.set_bit(j, true);
        k
    }

    /// On `p = 2^127 − 1` the group has order `2^127`, so every point has
    /// 2-power order and the ladder meets infinity and `(0, 0)` mid-way:
    /// bases of every small order (the 2-torsion point, both 4-torsion
    /// x-coordinates, `2^j`-multiples of a full-order point) against
    /// scalars around the order and its powers of two, at step counts
    /// below, at and above the scalar's length.
    #[test]
    fn ladder_matches_binary_on_degenerate_inputs() {
        let f = field();
        let mut rng = rng();
        let order = f.modulus().wrapping_add(&FpW::ONE);
        let full = f.random_curve_point(&mut rng);
        let mut bases = vec![None, Some((f.zero(), f.zero()))];
        // x = ±1: the 4-torsion points (one of f(±1) = ±2 is a square).
        for x in [f.one(), f.neg(&f.one())] {
            if let Some(y) = f.sqrt(&f.curve_rhs(&x)) {
                bases.push(Some((x, y)));
            }
        }
        for j in [0, 1, 2, 3, 60, 124, 125, 126] {
            bases.push(f.point_mul_binary(&full, &two_to(j)));
        }
        bases.push(f.random_curve_point(&mut rng));
        let mut scalars = vec![FpW::ZERO, FpW::ONE, FpW::from_u64(2), FpW::from_u64(3)];
        for k in [
            order.wrapping_sub(&FpW::ONE),
            order,
            order.wrapping_add(&FpW::ONE),
        ] {
            scalars.push(k);
        }
        for j in [1, 2, 5, 64, 126, 127, 128] {
            let k = two_to(j);
            scalars.extend([k.wrapping_sub(&FpW::ONE), k, k.wrapping_add(&FpW::ONE)]);
        }
        scalars.push(FpW::from_u64(0xdead_beef_cafe));
        scalars.push(
            order
                .wrapping_mul(&FpW::from_u64(5))
                .wrapping_sub(&FpW::from_u64(3)),
        );
        scalars.push(FpW::MAX);
        for p in &bases {
            assert!(f.is_on_curve(p));
            for k in &scalars {
                let want = f.point_mul_binary(p, k);
                for bits in [0, 127, 200] {
                    assert_eq!(f.point_mul(p, k, bits), want, "{p:?} · {k:?}, {bits} steps");
                }
                assert_eq!(f.mul_is_infinity(p, k), want.is_none(), "{p:?} · {k:?}");
            }
        }
    }

    #[test]
    fn two_torsion_point() {
        // (0, 0) is on the curve and is its own negation: 2·(0,0) = O.
        let f = field();
        let p = Some((f.zero(), f.zero()));
        assert!(f.is_on_curve(&p));
        assert_eq!(f.point_double(&p), None);
        assert_eq!(f.point_add(&p, &p), None);
    }

    #[test]
    fn serialization_roundtrip() {
        let f = field();
        let mut rng = rng();
        for _ in 0..6 {
            let p = f.random_curve_point(&mut rng);
            let bytes = f.point_to_bytes(&p);
            assert_eq!(f.point_from_bytes(&bytes).unwrap(), p);
        }
        let inf = f.point_to_bytes(&None);
        assert_eq!(f.point_from_bytes(&inf).unwrap(), None);
    }

    #[test]
    fn serialization_rejects_garbage() {
        let f = field();
        assert!(f.point_from_bytes(&[]).is_err());
        assert!(f.point_from_bytes(&[0x05, 1, 2]).is_err());
        assert!(f.point_from_bytes(&[0x02, 1, 2, 3]).is_err()); // wrong length

        // x with no curve point: find one by trial.
        let mut rng = rng();
        loop {
            let x = f.random(&mut rng);
            if f.sqrt(&f.curve_rhs(&x)).is_none() {
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
