//! Multi-precision division (Knuth TAOCP vol. 2, Algorithm 4.3.1 D).
//!
//! The worker operates on little-endian `u64` limb slices so a single
//! implementation serves every `Uint` width, including the double-width
//! numerators produced by [`Uint::widening_mul`].

use crate::Uint;

/// Divides `num` by `den`, both little-endian limb slices, returning
/// `(quotient, remainder)` as limb vectors trimmed of leading zeros
/// (an empty vector encodes zero).
///
/// # Panics
///
/// Panics if `den` is zero.
pub(crate) fn div_rem_slices(num: &[u64], den: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let num = trim(num);
    let den = trim(den);
    assert!(!den.is_empty(), "division by zero");

    if cmp_slices(num, den) == core::cmp::Ordering::Less {
        return (Vec::new(), num.to_vec());
    }
    if den.len() == 1 {
        let (q, r) = div_rem_by_limb(num, den[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }

    // Normalize so the top limb of the divisor has its high bit set.
    let shift = den[den.len() - 1].leading_zeros();
    let v = shl_bits(den, shift);
    let mut u = shl_bits(num, shift);
    u.push(0); // u gets one extra limb for the algorithm
    let n = v.len();
    let m = u.len() - n - 1;

    let mut q = vec![0u64; m + 1];
    let v_top = v[n - 1];
    let v_next = v[n - 2];

    for j in (0..=m).rev() {
        // Estimate q̂ = (u[j+n]·b + u[j+n−1]) / v[n−1], capped at b−1.
        let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = top / v_top as u128;
        let mut rhat = top % v_top as u128;
        if qhat > u64::MAX as u128 {
            qhat = u64::MAX as u128;
            rhat = top - qhat * v_top as u128;
        }
        // Correct q̂ using the second divisor limb (at most two iterations
        // bring q̂ within 1 of the true digit).
        while rhat <= u64::MAX as u128
            && qhat * v_next as u128 > ((rhat << 64) | u[j + n - 2] as u128)
        {
            qhat -= 1;
            rhat += v_top as u128;
        }

        // Multiply-subtract: u[j..j+n+1] -= q̂ · v.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * v[i] as u128 + carry;
            carry = p >> 64;
            let sub = (u[j + i] as i128) - ((p as u64) as i128) + borrow;
            u[j + i] = sub as u64;
            borrow = sub >> 64; // arithmetic shift: 0 or -1
        }
        let sub = (u[j + n] as i128) - (carry as i128) + borrow;
        u[j + n] = sub as u64;
        borrow = sub >> 64;

        if borrow != 0 {
            // q̂ was one too large: add the divisor back.
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let (s, c1) = u[j + i].overflowing_add(v[i]);
                let (s, c2) = s.overflowing_add(carry);
                u[j + i] = s;
                carry = (c1 as u64) + (c2 as u64);
            }
            u[j + n] = u[j + n].wrapping_add(carry);
        }
        q[j] = qhat as u64;
    }

    // Denormalize the remainder.
    let r = shr_bits(&u[..n], shift);
    (trim(&q).to_vec(), trim(&r).to_vec())
}

/// Division by a single limb.
fn div_rem_by_limb(num: &[u64], den: u64) -> (Vec<u64>, u64) {
    let mut q = vec![0u64; num.len()];
    let mut rem = 0u128;
    for i in (0..num.len()).rev() {
        let cur = (rem << 64) | num[i] as u128;
        q[i] = (cur / den as u128) as u64;
        rem = cur % den as u128;
    }
    (trim(&q).to_vec(), rem as u64)
}

fn trim(s: &[u64]) -> &[u64] {
    let mut end = s.len();
    while end > 0 && s[end - 1] == 0 {
        end -= 1;
    }
    &s[..end]
}

fn cmp_slices(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    let a = trim(a);
    let b = trim(b);
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            core::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

/// Shift a limb slice left by `shift` bits (`shift < 64`), growing by one limb
/// if needed.
fn shl_bits(s: &[u64], shift: u32) -> Vec<u64> {
    if shift == 0 {
        return s.to_vec();
    }
    let mut out = Vec::with_capacity(s.len() + 1);
    let mut carry = 0u64;
    for &limb in s {
        out.push((limb << shift) | carry);
        carry = limb >> (64 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Shift a limb slice right by `shift` bits (`shift < 64`).
fn shr_bits(s: &[u64], shift: u32) -> Vec<u64> {
    if shift == 0 {
        return s.to_vec();
    }
    let mut out = vec![0u64; s.len()];
    for i in 0..s.len() {
        out[i] = s[i] >> shift;
        if i + 1 < s.len() {
            out[i] |= s[i + 1] << (64 - shift);
        }
    }
    out
}

fn limbs_to_uint<const L: usize>(s: &[u64]) -> Uint<L> {
    debug_assert!(s.len() <= L, "quotient/remainder exceeds target width");
    let mut limbs = [0u64; L];
    limbs[..s.len()].copy_from_slice(s);
    Uint::from_limbs(limbs)
}

impl<const L: usize> Uint<L> {
    /// Returns `(self / rhs, self % rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &Self) -> (Self, Self) {
        let (q, r) = div_rem_slices(&self.limbs, &rhs.limbs);
        (limbs_to_uint(&q), limbs_to_uint(&r))
    }

    /// Remainder `self % rhs`.
    pub fn rem(&self, rhs: &Self) -> Self {
        self.div_rem(rhs).1
    }

    /// Reduces the double-width value `hi · 2^(64·L) + lo` modulo `m`.
    ///
    /// This is the companion to [`Uint::widening_mul`]: `mul_mod` is
    /// `reduce_wide(widening_mul(a, b), m)`.
    pub fn reduce_wide(lo: &Self, hi: &Self, m: &Self) -> Self {
        let mut num = Vec::with_capacity(2 * L);
        num.extend_from_slice(&lo.limbs);
        num.extend_from_slice(&hi.limbs);
        let (_, r) = div_rem_slices(&num, &m.limbs);
        limbs_to_uint(&r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uint;

    type U512 = Uint<8>;

    #[test]
    fn simple_division() {
        let a = Uint::<4>::from_u64(1000);
        let b = Uint::<4>::from_u64(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, Uint::<4>::from_u64(142));
        assert_eq!(r, Uint::<4>::from_u64(6));
    }

    #[test]
    fn divide_smaller_by_larger() {
        let a = Uint::<4>::from_u64(3);
        let b = Uint::<4>::from_u64(10);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn multi_limb_division_roundtrip() {
        // a = q*b + r with 0 <= r < b must hold for assorted values.
        let a = U512::MAX.wrapping_sub(&U512::from_u64(12345));
        let b = U512::from_hex("0xffff_ffff_ffff_ffff_ffff").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        let (lo, hi) = q.widening_mul(&b);
        assert!(hi.is_zero());
        assert_eq!(lo.wrapping_add(&r), a);
    }

    #[test]
    fn division_by_max_limb_boundary() {
        // Exercise the qhat-cap branch: numerator top limbs equal to divisor top.
        let mut a = Uint::<4>::ZERO;
        a.set_bit(255, true);
        a.set_bit(128, true);
        let mut b = Uint::<4>::ZERO;
        b.set_bit(128, true);
        b.set_bit(1, true);
        let (q, r) = a.div_rem(&b);
        let (lo, hi) = q.widening_mul(&b);
        assert!(hi.is_zero());
        assert_eq!(lo.wrapping_add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn reduce_wide_matches_manual() {
        let a = Uint::<4>::MAX;
        let b = Uint::<4>::from_u64(0xdead_beef);
        let m = Uint::<4>::from_hex("0x1_0000_0000_0000_0061").unwrap(); // arbitrary odd modulus
        let (lo, hi) = a.widening_mul(&b);
        let r = Uint::<4>::reduce_wide(&lo, &hi, &m);
        assert!(r < m);
        // Check by an independent route: ((a mod m) * (b mod m)) mod m.
        let am = a.rem(&m);
        let bm = b.rem(&m);
        let (lo2, hi2) = am.widening_mul(&bm);
        let r2 = Uint::<4>::reduce_wide(&lo2, &hi2, &m);
        assert_eq!(r, r2);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Uint::<4>::ONE.div_rem(&Uint::<4>::ZERO);
    }

    #[test]
    fn add_back_path() {
        // Crafted to hit the rare add-back branch in Algorithm D:
        // u = [0, MAX, MAX-1, MAX], v = [MAX, MAX, MAX] (base 2^64).
        let u = [0u64, u64::MAX, u64::MAX - 1, u64::MAX];
        let v = [u64::MAX, u64::MAX, u64::MAX];
        let (q, r) = div_rem_slices(&u, &v);
        // Verify u = q*v + r by recomputing.
        let qv = mul_slices(&q, &v);
        let sum = add_slices(&qv, &r);
        assert_eq!(trim(&sum), trim(&u));
        assert_eq!(cmp_slices(&r, &v), core::cmp::Ordering::Less);
    }

    fn mul_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        for i in 0..a.len() {
            let mut carry = 0u128;
            for j in 0..b.len() {
                let t = a[i] as u128 * b[j] as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + b.len()] = carry as u64;
        }
        out
    }

    fn add_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len().max(b.len()) + 1];
        let mut carry = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let x = *a.get(i).unwrap_or(&0) as u128;
            let y = *b.get(i).unwrap_or(&0) as u128;
            let s = x + y + carry as u128;
            *limb = s as u64;
            carry = (s >> 64) as u64;
        }
        out
    }
}
