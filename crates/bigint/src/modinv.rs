//! Constant-time modular inversion: Bernstein–Yang *safegcd* (TCHES 2019),
//! in the shape of libsecp256k1's `modinv64`.
//!
//! The inverse of `g` modulo an odd `n` comes out of a fixed number of
//! *divsteps* on the pair `(f, g) = (n, g)`: each step halves `g` after
//! possibly swapping and subtracting, and the `2×2` matrix that maps the
//! start to the end, applied to `(0, 1)` modulo `n`, carries `g⁻¹`. The
//! steps run in batches of 59 on the low 64 bits alone (`divsteps_59`,
//! branch-free: every choice is a mask), and each batch's matrix is then
//! applied to the full-width values in signed 62-bit limbs. The batch count
//! is a function of the modulus's bit length `b` only —
//! `⌈(45907·b + 26313)/19929 / 59⌉`, the divstep bound of the safegcd
//! analysis — so the operation sequence does not depend on `g`.
//!
//! Against Fermat's `g^(n−2)` — about `1.2·b` Montgomery products — this is
//! a few thousand word operations: a quarter to a third of the time at 256
//! bits, a tenth or less at 512 (`crypto_bench`'s `inv` and `inv_fermat`
//! rows).

/// Signed 62-bit limbs a value may occupy: enough for `64·N`-bit moduli
/// with `N ≤ 9`.
const CAP: usize = 10;

/// The low 62 bits.
const M62: u64 = u64::MAX >> 2;

/// A signed integer as `Σ v[i]·2^(62·i)`: every limb but the top one in
/// `[0, 2^62)`, the top one carrying the sign.
type Signed62 = [i64; CAP];

/// The transition matrix of 59 divsteps, scaled by `2^62`.
#[derive(Clone, Copy)]
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Inversion modulo a fixed odd `n < 2^(64·N)`, on `N`-limb little-endian
/// arrays: `n`'s signed 62-bit form, `n⁻¹ mod 2^62` and the batch count,
/// computed once.
#[derive(Clone, Debug)]
pub struct ModInv<const N: usize> {
    modulus: Signed62,
    /// `n⁻¹ mod 2^62`.
    inv62: u64,
    /// Batches of 59 divsteps that take any `g < n` to `g = 0`.
    batches: u32,
}

impl<const N: usize> ModInv<N> {
    /// Signed 62-bit limbs holding a `64·N`-bit value and its sign.
    const LIMBS: usize = 64 * N / 62 + 1;

    /// The inversion context for the odd modulus `n > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or `N > 9`.
    pub fn new(n: &[u64; N]) -> Self {
        assert!(Self::LIMBS <= CAP, "modulus wider than 576 bits");
        assert!(n[0] & 1 == 1, "safegcd needs an odd modulus");
        let bits = (0..N)
            .rev()
            .find(|&i| n[i] != 0)
            .map_or(0, |i| 64 * i as u64 + 64 - n[i].leading_zeros() as u64);
        let divsteps = (45907 * bits + 26313).div_ceil(19929);
        Self {
            modulus: to_signed62::<N>(n),
            inv62: crate::mont_neg_inv(n[0]).wrapping_neg() & M62,
            batches: divsteps.div_ceil(59) as u32,
        }
    }

    /// `a⁻¹ mod n` for `a < n` with `gcd(a, n) = 1`; `0` for `a = 0`.
    ///
    /// The same sequence of word operations runs for every `a`: the batch
    /// count is fixed by `n`, and within it there are no data-dependent
    /// branches or memory indices.
    pub fn inv(&self, a: &[u64; N]) -> [u64; N] {
        let m = Self::LIMBS;
        let mut d = [0i64; CAP];
        let mut e = [0i64; CAP];
        e[0] = 1;
        let mut f = self.modulus;
        let mut g = to_signed62::<N>(a);
        // zeta = −(delta + 1/2), delta starting at 1/2.
        let mut zeta = -1i64;
        for _ in 0..self.batches {
            let t;
            (zeta, t) = divsteps_59(zeta, f[0] as u64, g[0] as u64);
            self.update_de(&mut d, &mut e, &t);
            update_fg::<N>(&mut f, &mut g, &t);
        }
        // g = 0 and f = ±gcd = ±1 now; d = ±a⁻¹ in (−2n, n).
        self.normalize(&mut d, f[m - 1]);
        from_signed62::<N>(&d)
    }

    /// `(d, e) ← t·(d, e) / 2^62 mod n`: `n`-multiples chosen so the low 62
    /// bits vanish are added before the shift, keeping both in `(−2n, n)`.
    #[inline(always)]
    fn update_de(&self, d: &mut Signed62, e: &mut Signed62, t: &Trans) {
        let m = Self::LIMBS;
        let Trans { u, v, q, r } = *t;
        let n = &self.modulus;
        // Start from u, q if d is negative and v, r if e is: the result then
        // stays above −2n.
        let (sd, se) = (d[m - 1] >> 63, e[m - 1] >> 63);
        let mut md = (u & sd) + (v & se);
        let mut me = (q & sd) + (r & se);
        let mut cd = u as i128 * d[0] as i128 + v as i128 * e[0] as i128;
        let mut ce = q as i128 * d[0] as i128 + r as i128 * e[0] as i128;
        md -= (self.inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
        me -= (self.inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
        cd += n[0] as i128 * md as i128;
        ce += n[0] as i128 * me as i128;
        debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
        cd >>= 62;
        ce >>= 62;
        for i in 1..m {
            cd += u as i128 * d[i] as i128 + v as i128 * e[i] as i128 + n[i] as i128 * md as i128;
            ce += q as i128 * d[i] as i128 + r as i128 * e[i] as i128 + n[i] as i128 * me as i128;
            d[i - 1] = (cd as u64 & M62) as i64;
            e[i - 1] = (ce as u64 & M62) as i64;
            cd >>= 62;
            ce >>= 62;
        }
        d[m - 1] = cd as i64;
        e[m - 1] = ce as i64;
    }

    /// Brings `r ∈ (−2n, n)` to `[0, n)`, negated first when `sign < 0`.
    #[inline(always)]
    fn normalize(&self, r: &mut Signed62, sign: i64) {
        let m = Self::LIMBS;
        let n = &self.modulus;
        let add = r[m - 1] >> 63;
        for i in 0..m {
            r[i] += n[i] & add;
        }
        let neg = sign >> 63;
        for limb in r[..m].iter_mut() {
            *limb = (*limb ^ neg) - neg;
        }
        carry(&mut r[..m]);
        let add = r[m - 1] >> 63;
        for i in 0..m {
            r[i] += n[i] & add;
        }
        carry(&mut r[..m]);
    }
}

/// Propagates each limb's bits above 62 into the next one.
#[inline(always)]
fn carry(r: &mut [i64]) {
    for i in 0..r.len() - 1 {
        r[i + 1] += r[i] >> 62;
        r[i] &= M62 as i64;
    }
}

/// 59 divsteps on the low bits of `(f, g)`: the new `zeta` and the
/// transition matrix, scaled by `2^62`. Every choice is a mask.
#[inline(always)]
fn divsteps_59(mut zeta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    // u, v, q, r start as the identity times 8 (2^3 · 2^59 = 2^62); signed
    // values in [−2^62, 2^62], kept as u64 so the shifts are plain.
    let (mut u, mut v, mut q, mut r) = (8u64, 0u64, 0u64, 8u64);
    let (mut f, mut g) = (f0, g0);
    for _ in 3..62 {
        debug_assert!(f & 1 == 1);
        // Masks for zeta < 0 and for g odd.
        let c1 = (zeta >> 63) as u64;
        let c2 = (g & 1).wrapping_neg();
        // (x, y, z) = ±(f, u, v), negated when zeta < 0.
        let x = (f ^ c1).wrapping_sub(c1);
        let y = (u ^ c1).wrapping_sub(c1);
        let z = (v ^ c1).wrapping_sub(c1);
        // Added to (g, q, r) when g is odd.
        g = g.wrapping_add(x & c2);
        q = q.wrapping_add(y & c2);
        r = r.wrapping_add(z & c2);
        // When both: zeta ← −zeta − 2 and (f, u, v) += (g, q, r), the swap.
        let both = c1 & c2;
        zeta = (zeta ^ both as i64) - 1;
        f = f.wrapping_add(g & both);
        u = u.wrapping_add(q & both);
        v = v.wrapping_add(r & both);
        g >>= 1;
        u <<= 1;
        v <<= 1;
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (zeta, t)
}

/// `(f, g) ← t·(f, g) / 2^62`, exact: the divsteps cleared the low bits.
#[inline(always)]
fn update_fg<const N: usize>(f: &mut Signed62, g: &mut Signed62, t: &Trans) {
    let m = ModInv::<N>::LIMBS;
    let Trans { u, v, q, r } = *t;
    let mut cf = u as i128 * f[0] as i128 + v as i128 * g[0] as i128;
    let mut cg = q as i128 * f[0] as i128 + r as i128 * g[0] as i128;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..m {
        cf += u as i128 * f[i] as i128 + v as i128 * g[i] as i128;
        cg += q as i128 * f[i] as i128 + r as i128 * g[i] as i128;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[m - 1] = cf as i64;
    g[m - 1] = cg as i64;
}

/// An `N`-limb value in signed 62-bit limbs (non-negative, so the top limb
/// is too).
#[inline(always)]
fn to_signed62<const N: usize>(a: &[u64; N]) -> Signed62 {
    let mut out = [0i64; CAP];
    for (i, limb) in out.iter_mut().enumerate().take(ModInv::<N>::LIMBS) {
        let (w, s) = (62 * i / 64, 62 * i % 64);
        let mut v = a.get(w).map_or(0, |&x| x >> s);
        if s > 2 {
            v |= a.get(w + 1).map_or(0, |&x| x << (64 - s));
        }
        *limb = (v & M62) as i64;
    }
    out
}

/// A normalized value in `[0, n)` back to `N` 64-bit limbs.
#[inline(always)]
fn from_signed62<const N: usize>(r: &Signed62) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, &limb) in r.iter().enumerate().take(ModInv::<N>::LIMBS) {
        let (w, s, v) = (62 * i / 64, 62 * i % 64, limb as u64);
        if w < N {
            out[w] |= v << s;
        }
        if s > 2 && w + 1 < N {
            out[w + 1] |= v >> (64 - s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uint;

    /// `a·x ≡ 1 (mod n)` through `Uint`'s division-based arithmetic.
    fn check<const N: usize>(n: [u64; N], a: [u64; N]) {
        let inv = ModInv::new(&n).inv(&a);
        let (n, a, x) = (
            Uint::from_limbs(n),
            Uint::from_limbs(a),
            Uint::from_limbs(inv),
        );
        assert!(x < n, "not reduced");
        assert_eq!(Ok(x), a.inv_mod(&n), "against Euclid");
    }

    #[test]
    fn batch_count_follows_the_modulus_bits() {
        let batches = |bits: u32| {
            let mut n = Uint::<8>::ONE;
            n.set_bit(bits - 1, true);
            ModInv::new(n.limbs()).batches
        };
        // ⌈(45907·b + 26313)/19929/59⌉.
        assert_eq!(batches(127), 5);
        assert_eq!(batches(160), 7);
        assert_eq!(batches(256), 11);
        assert_eq!(batches(512), 21);
    }

    #[test]
    fn signed62_roundtrips_at_every_width() {
        let v = [0x0123_4567_89ab_cdef, u64::MAX, 0x8000_0000_0000_0001];
        assert_eq!(from_signed62::<3>(&to_signed62::<3>(&v)), v);
        let w: [u64; 8] = core::array::from_fn(|i| u64::MAX - i as u64);
        assert_eq!(from_signed62::<8>(&to_signed62::<8>(&w)), w);
    }

    #[test]
    fn edge_inputs() {
        // 2^127 − 1 in three limbs, 2^255 − 19 in four, 2^521 − 1 does not
        // fit; a 512-bit odd modulus with every limb set.
        let p127 = [u64::MAX, u64::MAX >> 1, 0];
        let p255 = [u64::MAX - 18, u64::MAX, u64::MAX, u64::MAX >> 1];
        let n512 = [
            u64::MAX - 568,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
        ];
        for k in [0u32, 1, 63, 64, 126] {
            let mut a = [0u64; 3];
            a[(k / 64) as usize] |= 1 << (k % 64);
            check(p127, a);
        }
        check(p127, [u64::MAX - 1, u64::MAX >> 1, 0]);
        check(p255, [1, 0, 0, 0]);
        check(p255, [u64::MAX - 19, u64::MAX, u64::MAX, u64::MAX >> 1]);
        check(n512, [2, 0, 0, 0, 0, 0, 0, 0]);
        check(
            n512,
            [
                u64::MAX - 569,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
                u64::MAX,
            ],
        );
        assert_eq!(ModInv::new(&p255).inv(&[0; 4]), [0; 4]);
    }
}
