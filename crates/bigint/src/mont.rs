//! Montgomery modular arithmetic for odd moduli, sized to the modulus.
//!
//! A [`Mont<L>`] lives in an `L`-limb container but works on the modulus's
//! *active* limbs `k = ⌈bits(n)/64⌉` with `R = 2^(64·k)`: a 256-bit field in
//! a `Uint<8>` or a 256-bit CRT prime in a `U2048` costs a 4-limb multiply,
//! not an 8- or 32-limb one. Every value the context returns is `< n`, so its
//! limbs at index `≥ k` are zero — the kernels never write them.
//!
//! Montgomery form (`a·R mod n`) is therefore a function of the modulus, not
//! of the container, and it is internal: nothing in the workspace serialises
//! a Montgomery residue. Only canonical values (`from_mont`) leave the
//! process.
//!
//! The limb kernels under the context are public: [`mont_mul_limbs`] (the
//! one CIOS body in the workspace), [`add_mod_limbs`], [`sub_mod_limbs`] and
//! [`mont_neg_inv`]. `Mont` calls them once per operation at the active
//! width; `mws-pairing` calls them on arrays of exactly its field's width
//! (`k = L`), fixed for a whole group operation.

use crate::{BigIntError, Uint};

/// A Montgomery reduction context for a fixed odd modulus `n < 2^(64·L)`.
///
/// Values are converted into the Montgomery domain once and multiplied there
/// without per-operation division. This is the workhorse behind RSA and
/// Miller–Rabin exponentiation; the pairing field calls the limb kernels
/// below it directly.
///
/// Operands must already be `< n` ([`Mont::reduce`] brings anything else
/// there): the kernels read only the active limbs, so an unreduced operand is
/// truncated, not tolerated. Debug builds assert it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mont<const L: usize> {
    n: Uint<L>,
    /// `-n^{-1} mod 2^64`.
    n0: u64,
    /// Active limbs `⌈bits(n)/64⌉`; `R = 2^(64·k)`.
    k: usize,
    /// `R mod n` (the Montgomery form of 1).
    r1: Uint<L>,
    /// `R² mod n` (used for conversion into the domain).
    r2: Uint<L>,
}

/// Evaluates `$body` with `$k` bound to the active width — as a literal for
/// the widths the workspace runs hot (160-bit Toy = 3, 256-bit fields and
/// RSA-512 halves = 4, 512-bit fields and RSA-1024 halves = 8), so the
/// `#[inline(always)]` kernel bodies get constant trip counts; any other
/// width runs the same body with a runtime bound.
macro_rules! with_width {
    ($width:expr, |$k:ident| $body:expr) => {
        match $width {
            3 if L >= 3 => {
                let $k = 3;
                $body
            }
            4 if L >= 4 => {
                let $k = 4;
                $body
            }
            8 if L >= 8 => {
                let $k = 8;
                $body
            }
            $k => $body,
        }
    };
}

/// `a ≥ b` over equal-length limb slices.
#[inline(always)]
fn ge(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a += b` over equal-length limb slices; returns the carry out.
#[inline(always)]
fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for i in 0..a.len() {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry as u64);
        a[i] = s;
        carry = c1 | c2;
    }
    carry
}

/// `a -= b` over equal-length limb slices; returns the borrow out.
#[inline(always)]
fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for i in 0..a.len() {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        a[i] = d;
        borrow = b1 | b2;
    }
    borrow
}

/// Brings `t + over·2^(64·len) < 2n` into `[0, n)`.
#[inline(always)]
fn reduce_once(t: &mut [u64], over: bool, n: &[u64]) {
    if over || ge(t, n) {
        sub_assign(t, n);
    }
}

/// `t ← t + b mod n` over equal-length limb slices, for `t, b < n`.
#[inline(always)]
pub fn add_mod_limbs(t: &mut [u64], b: &[u64], n: &[u64]) {
    let over = add_assign(t, b);
    reduce_once(t, over, n);
}

/// `t ← t − b mod n` over equal-length limb slices, for `t, b < n`.
#[inline(always)]
pub fn sub_mod_limbs(t: &mut [u64], b: &[u64], n: &[u64]) {
    if sub_assign(t, b) {
        add_assign(t, n);
    }
}

/// `−n⁻¹ mod 2^64` for the odd low limb `n_lo` of a modulus: the
/// Montgomery constant [`mont_mul_limbs`] takes as `n0`.
pub fn mont_neg_inv(n_lo: u64) -> u64 {
    debug_assert!(n_lo & 1 == 1, "Montgomery needs an odd modulus");
    // Newton–Hensel iteration (5 steps double the precision from the
    // seed's 3 correct bits past 64).
    let mut inv = n_lo; // correct mod 2^3 for odd n
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n_lo.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// `a · b · R^{-1} mod n` with `R = 2^(64·k)` — the one CIOS body in the
/// workspace (the partial product and the reduction alternate limb by
/// limb, so the accumulator never exceeds `k + 1` limbs and a carry bit).
///
/// The operands are fixed-width `L`-limb arrays of which the low `k ≤ L`
/// are active; it reads only those and needs `a·b < n·R`, which operands
/// `< n` give. Limbs `≥ k` of the result are zero. Always inlined, so a
/// constant `k` — `Mont`'s literal widths, or `k = L` when the array is
/// exactly the field's width — gives every loop a constant trip count.
/// `n0` is [`mont_neg_inv`]`(n[0])`.
#[inline(always)]
pub fn mont_mul_limbs<const L: usize>(
    k: usize,
    a: &[u64; L],
    b: &[u64; L],
    n: &[u64; L],
    n0: u64,
) -> [u64; L] {
    #[cfg(debug_assertions)]
    crate::cost::product();
    let (a, b, n) = (&a[..k], &b[..k], &n[..k]);
    let mut out = [0u64; L];
    let t = &mut out[..k];
    let mut t_k = 0u64; // limb k of the accumulator
    for &ai in a {
        // t += a[i] · b
        let ai = ai as u128;
        let mut carry = 0u64;
        for j in 0..k {
            let s = ai * b[j] as u128 + t[j] as u128 + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let (hi, over) = t_k.overflowing_add(carry);

        // m makes the low limb vanish: t = (t + m · n) / 2^64
        let m = t[0].wrapping_mul(n0) as u128;
        let mut carry = ((m * n[0] as u128 + t[0] as u128) >> 64) as u64;
        for j in 1..k {
            let s = m * n[j] as u128 + t[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let (hi, over2) = hi.overflowing_add(carry);
        t[k - 1] = hi;
        t_k = over as u64 + over2 as u64;
    }
    reduce_once(t, t_k != 0, n);
    out
}

impl<const L: usize> Mont<L> {
    /// Creates a context for the odd modulus `n > 1`.
    ///
    /// Every width the container can hold is served: the kernels' scratch is
    /// `L`-limb arrays, so there is no modulus this accepts and a later
    /// multiply cannot handle.
    pub fn new(n: &Uint<L>) -> Result<Self, BigIntError> {
        if n.is_even() || *n <= Uint::ONE {
            return Err(BigIntError::BadModulus);
        }
        let n0 = mont_neg_inv(n.as_u64());

        // 2^(bits−1) < n is already reduced; doubling it modulo n up to
        // 2^(64·k) gives R mod n, and 64·k further doublings R² mod n.
        let bits = n.bits();
        let k = bits.div_ceil(64) as usize;
        let nk = &n.limbs[..k];
        let mut acc = Uint::<L>::ZERO;
        acc.set_bit(bits - 1, true);
        let double = |acc: &mut Uint<L>, times: u32| {
            let t = &mut acc.limbs[..k];
            for _ in 0..times {
                let mut top = 0u64;
                for limb in t.iter_mut() {
                    (*limb, top) = ((*limb << 1) | top, *limb >> 63);
                }
                reduce_once(t, top != 0, nk);
            }
        };
        double(&mut acc, 64 * k as u32 - (bits - 1));
        let r1 = acc;
        double(&mut acc, 64 * k as u32);
        Ok(Self {
            n: *n,
            n0,
            k,
            r1,
            r2: acc,
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint<L> {
        &self.n
    }

    /// `R mod n` — the Montgomery representation of 1.
    pub fn one_mont(&self) -> Uint<L> {
        self.r1
    }

    /// `a mod n`, dividing only when `a ≥ n`.
    pub fn reduce(&self, a: &Uint<L>) -> Uint<L> {
        if *a < self.n {
            *a
        } else {
            a.rem(&self.n)
        }
    }

    /// Converts `a` (must be `< n`) into the Montgomery domain.
    pub fn to_mont(&self, a: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.n);
        self.mont_mul(a, &self.r2)
    }

    /// Converts `a` (must be `< n`) out of the Montgomery domain.
    pub fn from_mont(&self, a: &Uint<L>) -> Uint<L> {
        self.mont_mul(a, &Uint::ONE)
    }

    /// Montgomery product: `a · b · R^{-1} mod n`. Operands must be `< n`.
    pub fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.n && b < &self.n);
        Uint::from_limbs(with_width!(self.k, |k| mont_mul_limbs(
            k,
            &a.limbs,
            &b.limbs,
            &self.n.limbs,
            self.n0
        )))
    }

    /// Montgomery squaring: `a² · R^{-1} mod n`. The operand must be `< n`.
    pub fn mont_sqr(&self, a: &Uint<L>) -> Uint<L> {
        self.mont_mul(a, a)
    }

    /// `a + b mod n` for `a, b < n` (either domain).
    pub fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.n && b < &self.n);
        let mut out = *a;
        with_width!(self.k, |k| add_mod_limbs(
            &mut out.limbs[..k],
            &b.limbs[..k],
            &self.n.limbs[..k]
        ));
        out
    }

    /// `a − b mod n` for `a, b < n` (either domain).
    pub fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.n && b < &self.n);
        let mut out = *a;
        with_width!(self.k, |k| sub_mod_limbs(
            &mut out.limbs[..k],
            &b.limbs[..k],
            &self.n.limbs[..k]
        ));
        out
    }

    /// `−a mod n` for `a < n` (either domain).
    pub fn neg(&self, a: &Uint<L>) -> Uint<L> {
        if a.is_zero() {
            *a
        } else {
            self.sub(&Uint::ZERO, a)
        }
    }

    /// Modular exponentiation `base^exp mod n` with 4-bit fixed windows.
    /// `base` and the result are in the *plain* (non-Montgomery) domain.
    pub fn pow(&self, base: &Uint<L>, exp: &Uint<L>) -> Uint<L> {
        let b = self.to_mont(&self.reduce(base));
        let r = self.pow_mont(&b, exp);
        self.from_mont(&r)
    }

    /// Exponentiation where `base` and the result stay in the Montgomery
    /// domain (for callers chaining many operations).
    pub fn pow_mont(&self, base: &Uint<L>, exp: &Uint<L>) -> Uint<L> {
        let bits = exp.bits();
        if bits == 0 {
            return self.r1;
        }
        // Precompute base^0..base^15 in Montgomery form.
        let mut table = [self.r1; 16];
        table[1] = *base;
        for i in 2..16 {
            table[i] = self.mont_mul(&table[i - 1], base);
        }
        let window =
            |w: u32| (0..4).fold(0usize, |idx, b| idx | (exp.bit(w * 4 + b) as usize) << b);
        // The top window holds the top set bit, so it is never empty.
        let top = bits.div_ceil(4) - 1;
        let mut acc = table[window(top)];
        for w in (0..top).rev() {
            for _ in 0..4 {
                acc = self.mont_sqr(&acc);
            }
            let idx = window(w);
            if idx != 0 {
                acc = self.mont_mul(&acc, &table[idx]);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uint;

    type U512 = Uint<8>;

    fn modulus() -> Uint<4> {
        // 2^255 - 19, an odd prime spanning all four limbs.
        let mut m = Uint::<4>::ZERO;
        m.set_bit(255, true);
        m.wrapping_sub(&Uint::<4>::from_u64(19))
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(Mont::new(&Uint::<4>::from_u64(10)).is_err());
        assert!(Mont::new(&Uint::<4>::ZERO).is_err());
        assert!(Mont::new(&Uint::<4>::ONE).is_err());
        assert!(Mont::new(&Uint::<4>::from_u64(3)).is_ok());
    }

    #[test]
    fn roundtrip_domain() {
        let m = Mont::new(&modulus()).unwrap();
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            let a = Uint::<4>::from_u64(v);
            assert_eq!(m.from_mont(&m.to_mont(&a)), a);
        }
    }

    #[test]
    fn mont_mul_matches_mul_mod() {
        let n = modulus();
        let m = Mont::new(&n).unwrap();
        let a = Uint::<4>::from_hex("0xdead_beef_cafe_babe_0011_2233_4455_6677").unwrap();
        let b = Uint::<4>::from_hex("0x0123_4567_89ab_cdef_8899_aabb_ccdd_eeff").unwrap();
        let am = m.to_mont(&a);
        let bm = m.to_mont(&b);
        let prod = m.from_mont(&m.mont_mul(&am, &bm));
        assert_eq!(prod, a.mul_mod(&b, &n));
    }

    #[test]
    fn pow_matches_pow_mod() {
        let n = modulus();
        let m = Mont::new(&n).unwrap();
        let a = Uint::<4>::from_u64(3);
        let e = Uint::<4>::from_hex("0xfedc_ba98_7654_3210_0f1e_2d3c_4b5a_6978").unwrap();
        assert_eq!(m.pow(&a, &e), a.pow_mod(&e, &n));
    }

    #[test]
    fn pow_edge_cases() {
        let n = modulus();
        let m = Mont::new(&n).unwrap();
        let a = Uint::<4>::from_u64(7);
        assert_eq!(m.pow(&a, &Uint::<4>::ZERO), Uint::<4>::ONE);
        assert_eq!(m.pow(&a, &Uint::<4>::ONE), a);
        assert_eq!(
            m.pow(&Uint::<4>::ZERO, &Uint::<4>::from_u64(9)),
            Uint::<4>::ZERO
        );
        // Fermat
        let e = n.wrapping_sub(&Uint::<4>::ONE);
        assert_eq!(m.pow(&a, &e), Uint::<4>::ONE);
    }

    #[test]
    fn wide_modulus_512() {
        // All-limb 512-bit odd modulus: stress the CIOS carry chain.
        let n = U512::MAX.wrapping_sub(&U512::from_u64(568)); // odd
        assert!(n.is_odd());
        let m = Mont::new(&n).unwrap();
        let a = U512::MAX.wrapping_sub(&U512::from_u64(123_456_789));
        let b = U512::MAX.wrapping_sub(&U512::from_u64(987_654_321));
        let am = m.to_mont(&a.rem(&n));
        let bm = m.to_mont(&b.rem(&n));
        let got = m.from_mont(&m.mont_mul(&am, &bm));
        assert_eq!(got, a.rem(&n).mul_mod(&b.rem(&n), &n));
    }

    #[test]
    fn r_is_sized_to_the_modulus_not_the_container() {
        // A 160-bit modulus has three active limbs in any container:
        // R = 2^192, and nothing the context hands out reaches limb 3.
        let mut n = U512::ZERO;
        n.set_bit(159, true);
        let n = n.wrapping_add(&U512::from_u64(0x2f));
        let m = Mont::new(&n).unwrap();
        let mut r = U512::ZERO;
        r.set_bit(192, true);
        assert_eq!(m.one_mont(), r.rem(&n));
        assert_eq!(m.to_mont(&U512::ONE), r.rem(&n));
        assert_eq!(m.to_mont(&r.rem(&n)), r.mul_mod(&r, &n));
        let a = m.to_mont(&n.wrapping_sub(&U512::ONE));
        for v in [a, m.mont_sqr(&a), m.add(&a, &a), m.sub(&a, &r.rem(&n))] {
            assert!(v < n);
        }
        // The same modulus in a wider container has the same residues.
        let wide = Mont::new(&n.widen::<32>()).unwrap();
        assert_eq!(wide.one_mont(), m.one_mont().widen());
    }

    #[test]
    fn reduce_divides_only_when_needed() {
        let n = modulus();
        let m = Mont::new(&n).unwrap();
        let below = n.wrapping_sub(&Uint::<4>::ONE);
        assert_eq!(m.reduce(&below), below);
        assert_eq!(m.reduce(&n), Uint::<4>::ZERO);
        assert_eq!(m.reduce(&Uint::<4>::MAX), Uint::<4>::MAX.rem(&n));
        assert_eq!(
            m.pow(&Uint::<4>::MAX, &Uint::<4>::ONE),
            Uint::<4>::MAX.rem(&n)
        );
    }

    #[test]
    fn add_sub_neg_wrap_at_the_modulus() {
        let n = modulus();
        let m = Mont::new(&n).unwrap();
        let top = n.wrapping_sub(&Uint::<4>::ONE);
        assert_eq!(m.add(&top, &Uint::<4>::ONE), Uint::<4>::ZERO);
        assert_eq!(m.add(&top, &top), n.wrapping_sub(&Uint::<4>::from_u64(2)));
        assert_eq!(m.sub(&Uint::<4>::ZERO, &Uint::<4>::ONE), top);
        assert_eq!(m.neg(&Uint::<4>::ONE), top);
        assert_eq!(m.neg(&Uint::<4>::ZERO), Uint::<4>::ZERO);
    }

    #[test]
    fn one_mont_is_r_mod_n() {
        let n = modulus();
        let m = Mont::new(&n).unwrap();
        assert_eq!(m.from_mont(&m.one_mont()), Uint::<4>::ONE);
    }
}
