//! Prime-field arithmetic `F_p` in the Montgomery domain, at the field's
//! width.
//!
//! `Field<N>` is `F_p` on `[u64; N]` values with `R = 2^(64·N)`:
//! its product is `mws-bigint`'s CIOS body inlined at the constant width
//! `N`, its sum and difference the same library's limb kernels, and its
//! inverse that library's constant-time safegcd ([`ModInv`]) plus one
//! product, so a loop over field operations holds no width match and no
//! out-of-line call but the inversion. Every value is `< p`, so a `p`
//! narrower than `N` limbs (a small test prime in the 3-limb field) simply
//! leaves the top limbs zero.
//!
//! [`FpCtx`] is the field a [`crate::PairingCtx`] works in: one
//! `Field<N>` at the width picked once from `p`. Its public
//! methods each match on that width once and run the whole operation
//! there; [`Fp`] carries an element across the API in the [`FpW`]
//! container. Elements are plain values and every operation names its
//! context, so there is no hidden global state and two parameter sets can
//! coexist in one process.

use crate::{at_width, FpW, Wide, FP_LIMBS};
use mws_bigint::{
    add_mod_limbs, mont_mul_limbs, mont_neg_inv, random_below, sub_mod_limbs, ModInv, Rng, Uint,
};

/// A field element at width `N`, in Montgomery form (`a·2^(64·N) mod p`).
pub(crate) type Fe<const N: usize> = [u64; N];

/// A field element at the API, stored in Montgomery form in the [`FpW`]
/// container (limbs past the field's width are zero).
///
/// Elements are only meaningful relative to the [`FpCtx`] that produced
/// them; mixing contexts is a logic error.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp(pub(crate) FpW);

impl core::fmt::Debug for Fp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp(0x{})", self.0.to_hex())
    }
}

impl Fp {
    /// The element at width `N`: a copy of the low `N` limbs.
    #[inline(always)]
    pub(crate) fn at<const N: usize>(&self) -> Fe<N> {
        debug_assert!(self.0.limbs()[N..].iter().all(|&l| l == 0));
        core::array::from_fn(|i| self.0.limbs()[i])
    }

    /// Widens a width-`N` element into the API's container.
    #[inline(always)]
    pub(crate) fn from_fe<const N: usize>(a: &Fe<N>) -> Fp {
        let mut limbs = [0u64; FP_LIMBS];
        limbs[..N].copy_from_slice(a);
        Fp(FpW::from_limbs(limbs))
    }
}

/// `F_p` at width `N` (`p < 2^(64·N)`, `p ≡ 3 mod 4`).
#[derive(Clone, Debug)]
pub(crate) struct Field<const N: usize> {
    /// The modulus in the API's container.
    p: FpW,
    /// The modulus at width `N`.
    n: Fe<N>,
    /// `−p⁻¹ mod 2^64`.
    n0: u64,
    /// `R mod p`: the Montgomery form of 1.
    one: Fe<N>,
    /// `R² mod p`, for conversion into the domain.
    r2: Fe<N>,
    /// Cached constant 3 (Montgomery form), hoisted out of inner loops.
    three: Fe<N>,
    /// `R³ mod p`: takes safegcd's plain `(aR)⁻¹` back into the domain.
    r3: Fe<N>,
    /// `(p + 1) / 4` — the square-root exponent (valid because `p ≡ 3 mod 4`).
    sqrt_exp: FpW,
    /// The safegcd inversion context for `p`.
    modinv: ModInv<N>,
}

impl<const N: usize> Field<N> {
    /// `F_p` at width `N`; the caller checked `p` (see [`FpCtx::new`]).
    fn new(p: &FpW) -> Self {
        debug_assert!(p.bits() <= 64 * N as u32);
        let n: Fe<N> = core::array::from_fn(|i| p.limbs()[i]);
        // R mod p and R² mod p for R = 2^(64·N), in a container wide
        // enough to hold R itself.
        let wide = p.widen::<{ 2 * FP_LIMBS }>();
        let mut r = Uint::<{ 2 * FP_LIMBS }>::ZERO;
        r.set_bit(64 * N as u32, true);
        let r1: FpW = r.rem(&wide).narrow().expect("below p");
        let r2 = r1.mul_mod(&r1, p);
        let low = |v: &FpW| -> Fe<N> { core::array::from_fn(|i| v.limbs()[i]) };
        let mut f = Self {
            p: *p,
            n,
            n0: mont_neg_inv(p.as_u64()),
            one: low(&r1),
            r2: low(&r2),
            three: [0; N],
            r3: [0; N],
            sqrt_exp: p.wrapping_add(&Uint::ONE).wrapping_shr(2),
            modinv: ModInv::new(&n),
        };
        f.three = f.import_u64(3);
        f.r3 = f.mul(&f.r2, &f.r2);
        f
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &FpW {
        &self.p
    }

    /// The additive identity.
    #[inline(always)]
    pub(crate) fn zero(&self) -> Fe<N> {
        [0; N]
    }

    /// The multiplicative identity.
    #[inline(always)]
    pub(crate) fn one(&self) -> Fe<N> {
        self.one
    }

    /// The constant 3, cached at construction (hot in the Miller loops'
    /// tangent slope and affine doubling).
    #[inline(always)]
    pub(crate) fn three(&self) -> Fe<N> {
        self.three
    }

    /// Imports an integer (reduced mod `p`) into the field.
    pub(crate) fn import(&self, v: &FpW) -> Fe<N> {
        let v = if *v < self.p { *v } else { v.rem(&self.p) };
        let v: Fe<N> = core::array::from_fn(|i| v.limbs()[i]);
        self.mul(&v, &self.r2)
    }

    /// Imports a small integer.
    pub(crate) fn import_u64(&self, v: u64) -> Fe<N> {
        self.import(&FpW::from_u64(v))
    }

    /// Exports a field element as a canonical integer `< p`.
    pub(crate) fn to_uint(&self, a: &Fe<N>) -> FpW {
        let mut one = [0; N];
        one[0] = 1;
        Fp::from_fe(&self.mul(a, &one)).0
    }

    /// Canonical big-endian bytes (fixed `8·FP_LIMBS` length).
    pub(crate) fn to_bytes(&self, a: &Fe<N>) -> Vec<u8> {
        self.to_uint(a).to_be_bytes()
    }

    /// Is the element zero?
    #[inline(always)]
    pub(crate) fn is_zero(&self, a: &Fe<N>) -> bool {
        *a == [0; N]
    }

    /// `a + b`.
    #[inline(always)]
    pub(crate) fn add(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        let mut t = *a;
        add_mod_limbs(&mut t, b, &self.n);
        t
    }

    /// `a − b`.
    #[inline(always)]
    pub(crate) fn sub(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        let mut t = *a;
        sub_mod_limbs(&mut t, b, &self.n);
        t
    }

    /// `−a`.
    #[inline(always)]
    pub(crate) fn neg(&self, a: &Fe<N>) -> Fe<N> {
        if self.is_zero(a) {
            *a
        } else {
            self.sub(&[0; N], a)
        }
    }

    /// `a · b`: the CIOS body at the constant width `N`.
    #[inline(always)]
    pub(crate) fn mul(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        mont_mul_limbs(N, a, b, &self.n, self.n0)
    }

    /// `a²`.
    #[inline(always)]
    pub(crate) fn sqr(&self, a: &Fe<N>) -> Fe<N> {
        self.mul(a, a)
    }

    /// `2a`.
    #[inline(always)]
    pub(crate) fn dbl(&self, a: &Fe<N>) -> Fe<N> {
        self.add(a, a)
    }

    /// `a^e` for a plain integer exponent, with 4-bit fixed windows.
    pub(crate) fn pow(&self, a: &Fe<N>, e: &FpW) -> Fe<N> {
        let bits = e.bits();
        if bits == 0 {
            return self.one;
        }
        // a^0..a^15.
        let mut table = [self.one; 16];
        table[1] = *a;
        for i in 2..16 {
            table[i] = self.mul(&table[i - 1], a);
        }
        let window = |w: u32| (0..4).fold(0usize, |idx, b| idx | (e.bit(w * 4 + b) as usize) << b);
        // The top window holds the top set bit, so it is never empty.
        let top = bits.div_ceil(4) - 1;
        let mut acc = table[window(top)];
        for w in (0..top).rev() {
            for _ in 0..4 {
                acc = self.sqr(&acc);
            }
            let idx = window(w);
            if idx != 0 {
                acc = self.mul(&acc, &table[idx]);
            }
        }
        acc
    }

    /// Multiplicative inverse. Returns `None` for zero; for a composite
    /// `p` the result is meaningless (see [`FpCtx::new`]).
    ///
    /// The constant-time safegcd of [`ModInv`] inverts the Montgomery
    /// residue `aR` as a plain integer, and one product with `R³` brings
    /// `(aR)⁻¹ = a⁻¹R⁻¹` back to `a⁻¹R`: one field product in all, against
    /// the ~1.2·bits of Fermat's `a^(p−2)`, and the same word operations
    /// whatever `a` is.
    pub(crate) fn inv(&self, a: &Fe<N>) -> Option<Fe<N>> {
        if self.is_zero(a) {
            return None;
        }
        #[cfg(debug_assertions)]
        mws_bigint::cost::inversion();
        Some(self.mul(&self.modinv.inv(a), &self.r3))
    }

    /// Square root via `a^((p+1)/4)` (valid for `p ≡ 3 mod 4`).
    /// Returns `None` when `a` is a non-residue.
    pub(crate) fn sqrt(&self, a: &Fe<N>) -> Option<Fe<N>> {
        let (r, is_root) = self.sqrt_signed(a);
        is_root.then_some(r)
    }

    /// `r = a^((p+1)/4)` and whether `r² = a`. Because −1 is a non-residue
    /// for `p ≡ 3 (mod 4)`, `r² = ±a`: when it is not a root of `a`, it is
    /// a root of `−a`. One exponentiation answers for both.
    pub(crate) fn sqrt_signed(&self, a: &Fe<N>) -> (Fe<N>, bool) {
        #[cfg(debug_assertions)]
        mws_bigint::cost::square_root();
        let r = self.pow(a, &self.sqrt_exp);
        let is_root = self.sqr(&r) == *a;
        (r, is_root)
    }

    /// Canonical parity of an element (LSB of the integer form) — used for
    /// compressed point encoding.
    pub(crate) fn parity(&self, a: &Fe<N>) -> bool {
        self.to_uint(a).is_odd()
    }

    /// Uniformly random field element.
    pub(crate) fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Fe<N> {
        let v = random_below(rng, &self.p);
        self.import(&v)
    }
}

/// The field a pairing context works in: `F_p` at the width of `p`,
/// chosen once at construction.
#[derive(Clone, Debug)]
pub struct FpCtx(pub(crate) crate::wide!(Field));

impl FpCtx {
    /// Creates a context for an odd prime `p ≡ 3 (mod 4)`, at 3 limbs for a
    /// `p` of up to 192 bits, 4 up to 256 and 8 above.
    ///
    /// Primality is the caller's contract and is not checked: square roots
    /// are exponentiations that are only right modulo a prime, and
    /// inversion needs every nonzero element to be a unit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or `p % 4 != 3` (parameter generation upholds
    /// this; the panic guards against corrupted parameters).
    pub fn new(p: &FpW) -> Self {
        assert!(p.is_odd(), "field modulus must be odd");
        assert_eq!(p.as_u64() & 3, 3, "type-A pairing needs p ≡ 3 (mod 4)");
        Self(match p.bits().div_ceil(64) {
            0..=3 => Wide::W3(Field::new(p)),
            4 => Wide::W4(Field::new(p)),
            _ => Wide::W8(Field::new(p)),
        })
    }

    /// One. Each element method below is one width dispatch around one
    /// field operation: for checking single elements, not for loops (the
    /// group-level calls run their loops at the field's width).
    pub fn one(&self) -> Fp {
        at_width!(self, |f| Fp::from_fe(&f.one()))
    }

    /// A small integer as a field element.
    pub fn from_u64(&self, v: u64) -> Fp {
        at_width!(self, |f| Fp::from_fe(&f.import_u64(v)))
    }

    /// `−a`.
    pub fn neg(&self, a: &Fp) -> Fp {
        at_width!(self, |f| Fp::from_fe(&f.neg(&a.at())))
    }

    /// `a·b`.
    pub fn mul(&self, a: &Fp, b: &Fp) -> Fp {
        at_width!(self, |f| Fp::from_fe(&f.mul(&a.at(), &b.at())))
    }

    /// `a²`.
    pub fn sqr(&self, a: &Fp) -> Fp {
        at_width!(self, |f| Fp::from_fe(&f.sqr(&a.at())))
    }

    /// `a⁻¹`, or `None` for zero.
    pub fn inv(&self, a: &Fp) -> Option<Fp> {
        at_width!(self, |f| f.inv(&a.at()).map(|r| Fp::from_fe(&r)))
    }

    /// A square root of `a`, or `None` when `a` is a non-residue.
    pub fn sqrt(&self, a: &Fp) -> Option<Fp> {
        at_width!(self, |f| f.sqrt(&a.at()).map(|r| Fp::from_fe(&r)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mws_prop::{cases, Gen};

    /// `p = 2^127 − 1` (Mersenne, prime, ≡ 3 mod 4) in the 3-limb field.
    pub(crate) fn field() -> Field<3> {
        let mut p = FpW::ZERO;
        p.set_bit(127, true);
        Field::new(&p.wrapping_sub(&FpW::ONE))
    }

    #[test]
    fn field_axioms_spot_checks() {
        let f = field();
        let a = f.import_u64(1234567);
        let b = f.import_u64(7654321);
        let c = f.import_u64(31);
        // Commutativity / associativity / distributivity.
        assert_eq!(f.add(&a, &b), f.add(&b, &a));
        assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        assert_eq!(
            f.mul(&f.add(&a, &b), &c),
            f.add(&f.mul(&a, &c), &f.mul(&b, &c))
        );
        // Identities.
        assert_eq!(f.add(&a, &f.zero()), a);
        assert_eq!(f.mul(&a, &f.one()), a);
        assert_eq!(f.mul(&a, &f.zero()), f.zero());
        // Inverses.
        assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
        assert_eq!(f.mul(&a, &f.inv(&a).unwrap()), f.one());
    }

    #[test]
    fn cached_constants_match_from_u64() {
        let f = field();
        assert_eq!(f.three(), f.import_u64(3));
        assert_eq!(f.three(), f.add(&f.dbl(&f.one()), &f.one()));
    }

    #[test]
    fn neg_zero_is_zero() {
        let f = field();
        assert_eq!(f.neg(&f.zero()), f.zero());
        assert!(f.inv(&f.zero()).is_none());
    }

    #[test]
    fn sqrt_roundtrip() {
        let f = field();
        for v in [4u64, 9, 16, 1234567890] {
            let a = f.import_u64(v);
            let s = f.sqr(&a);
            let r = f.sqrt(&s).expect("square has a root");
            assert!(r == a || r == f.neg(&a));
        }
    }

    #[test]
    fn sqrt_rejects_nonresidue() {
        let f = field();
        // Some small value is a non-residue; its negation is then a square.
        let a = (2u64..50)
            .map(|v| f.import_u64(v))
            .find(|a| f.sqrt(a).is_none())
            .expect("some small non-residue exists");
        assert!(f.sqrt(&f.neg(&a)).is_some());
    }

    #[test]
    fn bytes_roundtrip() {
        let f = field();
        let a = f.import_u64(0xdead_beef);
        let bytes = f.to_bytes(&a);
        assert_eq!(bytes.len(), 64);
        assert_eq!(f.import(&FpW::from_be_bytes(&bytes).unwrap()), a);
        assert_eq!(Fp::from_fe(&a).at::<3>(), a);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = field();
        let a = f.import_u64(3);
        let mut acc = f.one();
        for _ in 0..13 {
            acc = f.mul(&acc, &a);
        }
        assert_eq!(f.pow(&a, &FpW::from_u64(13)), acc);
    }

    #[test]
    #[should_panic(expected = "p ≡ 3 (mod 4)")]
    fn rejects_1_mod_4_prime() {
        // 13 ≡ 1 mod 4.
        let _ = FpCtx::new(&13u64.into());
    }

    #[test]
    fn width_follows_the_modulus() {
        let width = |bits: u32| {
            let mut p = FpW::ZERO;
            p.set_bit(bits - 1, true);
            match FpCtx::new(&p.wrapping_add(&FpW::from_u64(3))).0 {
                Wide::W3(_) => 3,
                Wide::W4(_) => 4,
                Wide::W8(_) => 8,
            }
        };
        assert_eq!(width(48), 3);
        assert_eq!(width(160), 3);
        assert_eq!(width(192), 3);
        assert_eq!(width(193), 4);
        assert_eq!(width(256), 4);
        assert_eq!(width(257), 8);
        assert_eq!(width(512), 8);
    }

    /// A width-`N` operand: one of the edge values `0, 1, p−2, p−1`, or a
    /// random value below `p`, as a canonical integer.
    fn operand(g: &mut Gen, p: &FpW) -> FpW {
        match g.int(0..6) {
            0 => FpW::ZERO,
            1 => FpW::ONE,
            2 => p.wrapping_sub(&FpW::from_u64(2)),
            3 => p.wrapping_sub(&FpW::ONE),
            _ => FpW::from_limbs(core::array::from_fn(|_| g.u64())).rem(p),
        }
    }

    /// `add`, `sub`, `neg`, `mul` and `sqr` at width `N` against schoolbook
    /// `Uint` arithmetic (`widening_mul` + `rem`), through the Montgomery
    /// domain and back; `inv` and `sqrt` round-trip.
    fn ops_match_schoolbook<const N: usize>(p: FpW) {
        let f = Field::<N>::new(&p);
        assert!(matches!(
            (N, FpCtx::new(&p).0),
            (3, Wide::W3(_)) | (4, Wide::W4(_)) | (8, Wide::W8(_))
        ));
        let modmul = |a: &FpW, b: &FpW| {
            let (lo, hi) = a.widening_mul(b);
            FpW::reduce_wide(&lo, &hi, &p)
        };
        cases(64, |g| (operand(g, &p), operand(g, &p))).check(|(a, b)| {
            let (am, bm) = (f.import(&a), f.import(&b));
            assert_eq!(f.to_uint(&am), a, "round trip");
            assert_eq!(f.to_uint(&f.add(&am, &bm)), a.add_mod(&b, &p), "add");
            assert_eq!(f.to_uint(&f.sub(&am, &bm)), a.sub_mod(&b, &p), "sub");
            assert_eq!(f.to_uint(&f.neg(&am)), FpW::ZERO.sub_mod(&a, &p), "neg");
            assert_eq!(f.to_uint(&f.mul(&am, &bm)), modmul(&a, &b), "mul");
            assert_eq!(f.to_uint(&f.sqr(&am)), modmul(&a, &a), "sqr");
            match f.inv(&am) {
                None => assert!(a.is_zero(), "inv of a unit"),
                Some(i) => assert_eq!(f.mul(&am, &i), f.one(), "inv"),
            }
            let square = f.sqr(&am);
            let root = f.sqrt(&square).expect("a square has a root");
            assert!(root == am || root == f.neg(&am), "sqrt");
        });
    }

    /// The largest probable prime `p ≡ 3 (mod 4)` of exactly `bits` bits:
    /// for `bits = 64·N` its top limb is all ones. Fermat bases 2, 3 and 5
    /// on division-based `pow_mod`, so finding it does not lean on the
    /// Montgomery kernel under test.
    fn top_prime(bits: u32) -> FpW {
        let mut p = FpW::ZERO;
        for i in 0..bits {
            p.set_bit(i, true);
        }
        let e = |p: &FpW| p.wrapping_sub(&FpW::ONE);
        while ![2u64, 3, 5]
            .iter()
            .all(|&b| FpW::from_u64(b).pow_mod(&e(&p), &p) == FpW::ONE)
        {
            p = p.wrapping_sub(&FpW::from_u64(4));
        }
        p
    }

    /// Fermat's `a^(p−2)`: the inversion [`Field::inv`] replaced, kept as
    /// its oracle.
    fn inv_fermat<const N: usize>(f: &Field<N>, a: &Fe<N>) -> Fe<N> {
        f.pow(a, &f.modulus().wrapping_sub(&FpW::from_u64(2)))
    }

    /// The safegcd inverse at width `N` against Fermat in the Montgomery
    /// domain and against `Uint::inv_mod` on canonical values: on 1,
    /// `p − 1`, `R mod p`, every `2^k < p` and random elements; zero has
    /// none.
    fn inv_matches_fermat_and_euclid<const N: usize>(p: FpW) {
        let f = Field::<N>::new(&p);
        assert!(f.inv(&f.zero()).is_none());
        let mut values = vec![FpW::ONE, p.wrapping_sub(&FpW::ONE), f.to_uint(&f.one())];
        for k in 0..p.bits() - 1 {
            let mut v = FpW::ZERO;
            v.set_bit(k, true);
            values.push(v);
        }
        let check = |a: FpW| {
            let am = f.import(&a);
            let inv = f.inv(&am).expect("a unit");
            assert_eq!(inv, inv_fermat(&f, &am), "safegcd != Fermat at {a:?}");
            assert_eq!(f.to_uint(&inv), a.inv_mod(&p).unwrap(), "safegcd != Euclid");
        };
        values.into_iter().for_each(check);
        cases(64, |g| operand(g, &p)).check(|a| {
            if a.is_zero() {
                assert!(f.inv(&f.import(&a)).is_none())
            } else {
                check(a)
            }
        });
    }

    #[test]
    fn inv_matches_fermat_and_euclid_at_every_width() {
        inv_matches_fermat_and_euclid::<3>(*field().modulus());
        inv_matches_fermat_and_euclid::<3>(top_prime(160));
        inv_matches_fermat_and_euclid::<3>(top_prime(48)); // top limbs zero
        inv_matches_fermat_and_euclid::<4>(top_prime(256));
        inv_matches_fermat_and_euclid::<4>(top_prime(193));
        inv_matches_fermat_and_euclid::<8>(top_prime(512));
        inv_matches_fermat_and_euclid::<8>(top_prime(257));
    }

    #[test]
    fn ops_match_schoolbook_at_every_width() {
        for bits in [127, 160, 192] {
            ops_match_schoolbook::<3>(top_prime(bits));
        }
        ops_match_schoolbook::<3>(top_prime(48)); // top limbs zero
        ops_match_schoolbook::<4>(top_prime(256));
        ops_match_schoolbook::<4>(top_prime(193));
        ops_match_schoolbook::<8>(top_prime(512));
        ops_match_schoolbook::<8>(top_prime(257));
        // The named parameter sets' own primes.
        for level in [
            crate::SecurityLevel::Toy,
            crate::SecurityLevel::Light,
            crate::SecurityLevel::Standard,
        ] {
            let p = crate::PairingCtx::named(level).params().p;
            match p.bits().div_ceil(64) {
                3 => ops_match_schoolbook::<3>(p),
                4 => ops_match_schoolbook::<4>(p),
                _ => ops_match_schoolbook::<8>(p),
            }
        }
    }
}
