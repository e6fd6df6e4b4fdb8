//! The core fixed-width unsigned integer type.

use crate::BigIntError;

/// A fixed-width unsigned integer of `L` little-endian 64-bit limbs.
///
/// All arithmetic is explicit about overflow: `wrapping_*` methods wrap at
/// `2^(64·L)`, `overflowing_*` additionally report the carry/borrow, and
/// `checked_*` return `None` on overflow. There are no operator impls for the
/// wrapping forms — in cryptographic code the overflow behaviour should be a
/// visible, deliberate choice at each call site.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const L: usize> {
    pub(crate) limbs: [u64; L],
}

impl<const L: usize> Default for Uint<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> Uint<L> {
    /// The value 0.
    pub const ZERO: Self = Self { limbs: [0; L] };
    /// The value 1.
    pub const ONE: Self = {
        let mut limbs = [0; L];
        limbs[0] = 1;
        Self { limbs }
    };
    /// The maximum representable value, `2^(64·L) − 1`.
    pub const MAX: Self = Self {
        limbs: [u64::MAX; L],
    };
    /// Width in bits.
    pub const BITS: u32 = 64 * L as u32;

    /// Builds a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; L]) -> Self {
        Self { limbs }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> &[u64; L] {
        &self.limbs
    }

    /// Builds a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0; L];
        limbs[0] = v;
        Self { limbs }
    }

    /// Returns the low 64 bits.
    pub const fn as_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Converts to `u64` if the value fits.
    pub fn checked_as_u64(&self) -> Option<u64> {
        if self.limbs[1..].iter().all(|&l| l == 0) {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True iff the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// True iff the value is even.
    pub const fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> u32 {
        for i in (0..L).rev() {
            if self.limbs[i] != 0 {
                return 64 * i as u32 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Returns bit `i` (little-endian numbering).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= L {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`. Panics if `i >= Self::BITS`.
    pub fn set_bit(&mut self, i: u32, v: bool) {
        let limb = (i / 64) as usize;
        assert!(limb < L, "bit index out of range");
        let mask = 1u64 << (i % 64);
        if v {
            self.limbs[limb] |= mask;
        } else {
            self.limbs[limb] &= !mask;
        }
    }

    /// Number of trailing zero bits (`Self::BITS` for the value 0).
    pub fn trailing_zeros(&self) -> u32 {
        for i in 0..L {
            if self.limbs[i] != 0 {
                return 64 * i as u32 + self.limbs[i].trailing_zeros();
            }
        }
        Self::BITS
    }

    /// Lexicographic comparison.
    fn cmp_value(&self, rhs: &Self) -> core::cmp::Ordering {
        for i in (0..L).rev() {
            match self.limbs[i].cmp(&rhs.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Addition reporting the carry out.
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; L];
        let mut carry = 0u64;
        for i in 0..L {
            let (s, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s, c2) = s.overflowing_add(carry);
            out[i] = s;
            carry = (c1 as u64) + (c2 as u64);
        }
        (Self { limbs: out }, carry != 0)
    }

    /// Wrapping addition.
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Checked addition.
    pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction reporting the borrow out.
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; L];
        let mut borrow = 0u64;
        for i in 0..L {
            let (d, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d, b2) = d.overflowing_sub(borrow);
            out[i] = d;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (Self { limbs: out }, borrow != 0)
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Full (widening) multiplication: returns `(lo, hi)` with
    /// `self · rhs = hi · 2^(64·L) + lo`.
    pub fn widening_mul(&self, rhs: &Self) -> (Self, Self) {
        let mut lo = [0u64; L];
        let mut hi = [0u64; L];
        for i in 0..L {
            let mut carry = 0u64;
            let a = self.limbs[i] as u128;
            if a == 0 {
                continue;
            }
            for j in 0..L {
                let k = i + j;
                let existing = if k < L { lo[k] } else { hi[k - L] } as u128;
                let t = a * rhs.limbs[j] as u128 + existing + carry as u128;
                if k < L {
                    lo[k] = t as u64;
                } else {
                    hi[k - L] = t as u64;
                }
                carry = (t >> 64) as u64;
            }
            // Propagate the final carry into the high half.
            let mut k = i + L;
            while carry != 0 {
                debug_assert!(k >= L && k - L < L);
                let (s, c) = hi[k - L].overflowing_add(carry);
                hi[k - L] = s;
                carry = c as u64;
                k += 1;
            }
        }
        (Self { limbs: lo }, Self { limbs: hi })
    }

    /// Wrapping (low-half) multiplication.
    pub fn wrapping_mul(&self, rhs: &Self) -> Self {
        self.widening_mul(rhs).0
    }

    /// Checked multiplication (`None` if the high half is nonzero).
    pub fn checked_mul(&self, rhs: &Self) -> Option<Self> {
        let (lo, hi) = self.widening_mul(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// Multiplication by a single limb, returning the carry-out limb.
    pub fn mul_limb(&self, rhs: u64) -> (Self, u64) {
        let mut out = [0u64; L];
        let mut carry = 0u64;
        for i in 0..L {
            let t = self.limbs[i] as u128 * rhs as u128 + carry as u128;
            out[i] = t as u64;
            carry = (t >> 64) as u64;
        }
        (Self { limbs: out }, carry)
    }

    /// Left shift by `n` bits, wrapping (bits shifted past the top are lost).
    pub fn wrapping_shl(&self, n: u32) -> Self {
        if n >= Self::BITS {
            return Self::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; L];
        for i in (limb_shift..L).rev() {
            let src = i - limb_shift;
            out[i] = self.limbs[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                out[i] |= self.limbs[src - 1] >> (64 - bit_shift);
            }
        }
        Self { limbs: out }
    }

    /// Logical right shift by `n` bits.
    pub fn wrapping_shr(&self, n: u32) -> Self {
        if n >= Self::BITS {
            return Self::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; L];
        for i in 0..L - limb_shift {
            let src = i + limb_shift;
            out[i] = self.limbs[src] >> bit_shift;
            if bit_shift > 0 && src + 1 < L {
                out[i] |= self.limbs[src + 1] << (64 - bit_shift);
            }
        }
        Self { limbs: out }
    }

    /// Big-endian byte serialization (`8·L` bytes, zero-padded).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * L);
        for i in (0..L).rev() {
            out.extend_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian byte string. Fails with [`BigIntError::Overflow`]
    /// if more than `8·L` significant bytes are present.
    pub fn from_be_bytes(bytes: &[u8]) -> Result<Self, BigIntError> {
        // Strip leading zeros, then check capacity.
        let first_nonzero = bytes.iter().position(|&b| b != 0).unwrap_or(bytes.len());
        let sig = &bytes[first_nonzero..];
        if sig.len() > 8 * L {
            return Err(BigIntError::Overflow);
        }
        let mut limbs = [0u64; L];
        for (i, &b) in sig.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Ok(Self { limbs })
    }

    /// Widens into a larger type. Panics at compile time use if `M < L` — the
    /// runtime assert enforces it.
    pub fn widen<const M: usize>(&self) -> Uint<M> {
        assert!(M >= L, "widen target must be at least as wide");
        let mut limbs = [0u64; M];
        limbs[..L].copy_from_slice(&self.limbs);
        Uint { limbs }
    }

    /// Narrows into a smaller (or equal) type, failing on overflow.
    pub fn narrow<const M: usize>(&self) -> Result<Uint<M>, BigIntError> {
        if self.limbs[M.min(L)..].iter().any(|&l| l != 0) {
            return Err(BigIntError::Overflow);
        }
        let mut limbs = [0u64; M];
        let n = M.min(L);
        limbs[..n].copy_from_slice(&self.limbs[..n]);
        Ok(Uint { limbs })
    }
}

impl<const L: usize> PartialOrd for Uint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> Ord for Uint<L> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.cmp_value(other)
    }
}

impl<const L: usize> From<u64> for Uint<L> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uint;

    #[test]
    fn zero_one_identities() {
        assert!(Uint::<4>::ZERO.is_zero());
        assert!(!Uint::<4>::ONE.is_zero());
        assert!(Uint::<4>::ONE.is_odd());
        assert_eq!(
            Uint::<4>::ZERO.wrapping_add(&Uint::<4>::ONE),
            Uint::<4>::ONE
        );
        assert_eq!(
            Uint::<4>::ONE.wrapping_sub(&Uint::<4>::ONE),
            Uint::<4>::ZERO
        );
    }

    #[test]
    fn add_carry_chains() {
        let max = Uint::<4>::MAX;
        let (v, c) = max.overflowing_add(&Uint::<4>::ONE);
        assert!(c);
        assert!(v.is_zero());
        let (v, c) = max.overflowing_add(&Uint::<4>::ZERO);
        assert!(!c);
        assert_eq!(v, max);
    }

    #[test]
    fn sub_borrow_chains() {
        let (v, b) = Uint::<4>::ZERO.overflowing_sub(&Uint::<4>::ONE);
        assert!(b);
        assert_eq!(v, Uint::<4>::MAX);
    }

    #[test]
    fn widening_mul_known() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = Uint::<4>::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul(&a);
        assert!(hi.is_zero());
        assert_eq!(lo.limbs()[0], 1);
        assert_eq!(lo.limbs()[1], u64::MAX - 1);
        assert_eq!(lo.limbs()[2], 0);
    }

    #[test]
    fn widening_mul_top_half() {
        // MAX * MAX = (2^256-1)^2 = 2^512 - 2^257 + 1
        let (lo, hi) = Uint::<4>::MAX.widening_mul(&Uint::<4>::MAX);
        assert_eq!(lo, Uint::<4>::ONE);
        assert_eq!(hi, Uint::<4>::MAX.wrapping_sub(&Uint::<4>::ONE));
    }

    #[test]
    fn shifts_roundtrip() {
        let v = Uint::<4>::from_hex("0x0123_4567_89ab_cdef_fedc_ba98_7654_3210").unwrap();
        for n in [0u32, 1, 7, 63, 64, 65, 127, 128, 200] {
            let shifted = v.wrapping_shl(n).wrapping_shr(n);
            if n <= 128 {
                assert_eq!(shifted, v, "shift by {n}");
            }
        }
    }

    #[test]
    fn bits_and_bit_access() {
        let mut v = Uint::<4>::ZERO;
        v.set_bit(200, true);
        assert!(v.bit(200));
        assert_eq!(v.bits(), 201);
        assert_eq!(v.trailing_zeros(), 200);
        v.set_bit(200, false);
        assert!(v.is_zero());
        assert_eq!(Uint::<4>::ZERO.bits(), 0);
        assert_eq!(Uint::<4>::ONE.bits(), 1);
    }

    #[test]
    fn byte_roundtrip() {
        let v = Uint::<4>::from_hex("0xdead_beef_cafe_babe_0102_0304_0506_0708").unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(bytes.len(), 32);
        assert_eq!(Uint::<4>::from_be_bytes(&bytes).unwrap(), v);
        // Short input is allowed (left-padded).
        assert_eq!(
            Uint::<4>::from_be_bytes(&[1, 0]).unwrap(),
            Uint::<4>::from_u64(256)
        );
        // Oversized significant input is rejected.
        let mut big = vec![1u8];
        big.extend_from_slice(&[0u8; 32]);
        assert_eq!(Uint::<4>::from_be_bytes(&big), Err(BigIntError::Overflow));
        // Leading zeros are fine.
        let mut padded = vec![0u8; 5];
        padded.extend_from_slice(&bytes);
        assert_eq!(Uint::<4>::from_be_bytes(&padded).unwrap(), v);
    }

    #[test]
    fn widen_narrow() {
        let v = Uint::<4>::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let w: Uint<8> = v.widen();
        assert_eq!(w.narrow::<4>().unwrap(), v);
        assert_eq!(w.narrow::<2>().unwrap(), Uint::<2>::MAX);
        let big: Uint<8> = Uint::MAX;
        assert_eq!(big.narrow::<4>(), Err(BigIntError::Overflow));
    }

    #[test]
    fn mul_limb_carry() {
        let (v, carry) = Uint::<4>::MAX.mul_limb(2);
        assert_eq!(carry, 1);
        assert_eq!(v, Uint::<4>::MAX.wrapping_sub(&Uint::<4>::ONE));
    }

    #[test]
    fn ordering() {
        let a = Uint::<4>::from_u64(5);
        let mut b = Uint::<4>::ZERO;
        b.set_bit(64, true);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
    }
}
