//! Radix conversion and formatting for `Uint`.

use crate::{BigIntError, Uint};

impl<const L: usize> Uint<L> {
    /// Parses a hexadecimal string (optionally `0x`-prefixed, case
    /// insensitive, underscores allowed as separators).
    pub(crate) fn from_hex(s: &str) -> Result<Self, BigIntError> {
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        let mut digits = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            digits.push(c.to_digit(16).ok_or(BigIntError::ParseError)? as u64);
        }
        if digits.is_empty() {
            return Err(BigIntError::ParseError);
        }
        let mut out = Self::ZERO;
        for &d in &digits {
            // out = out * 16 + d, checking overflow at the top.
            if out.bits() + 4 > Self::BITS && out.wrapping_shr(Self::BITS - 4).as_u64() != 0 {
                return Err(BigIntError::Overflow);
            }
            out = out.wrapping_shl(4);
            out = out.wrapping_add(&Self::from_u64(d));
        }
        Ok(out)
    }

    /// Lower-case hexadecimal rendering without leading zeros (`"0"` for 0).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        let mut leading = true;
        for i in (0..L).rev() {
            if leading {
                if self.limbs[i] == 0 {
                    continue;
                }
                s.push_str(&format!("{:x}", self.limbs[i]));
                leading = false;
            } else {
                s.push_str(&format!("{:016x}", self.limbs[i]));
            }
        }
        s
    }

    /// Parses a decimal string (underscores allowed).
    fn from_decimal(s: &str) -> Result<Self, BigIntError> {
        let mut any = false;
        let mut out = Self::ZERO;
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or(BigIntError::ParseError)? as u64;
            any = true;
            let (m, carry) = out.mul_limb(10);
            if carry != 0 {
                return Err(BigIntError::Overflow);
            }
            out = m
                .checked_add(&Self::from_u64(d))
                .ok_or(BigIntError::Overflow)?;
        }
        if !any {
            return Err(BigIntError::ParseError);
        }
        Ok(out)
    }

    /// Decimal rendering.
    fn to_decimal(self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let ten = Self::from_u64(10);
        let mut v = self;
        while !v.is_zero() {
            let (q, r) = v.div_rem(&ten);
            digits.push(char::from(b'0' + r.as_u64() as u8));
            v = q;
        }
        digits.iter().rev().collect()
    }
}

impl<const L: usize> core::fmt::Debug for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Uint<{L}>(0x{})", self.to_hex())
    }
}

impl<const L: usize> core::fmt::Display for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl<const L: usize> core::fmt::LowerHex for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl<const L: usize> core::str::FromStr for Uint<L> {
    type Err = BigIntError;

    /// Parses decimal by default, hexadecimal with a `0x` prefix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.starts_with("0x") || s.starts_with("0X") {
            Self::from_hex(s)
        } else {
            Self::from_decimal(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{BigIntError, Uint};

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = Uint::<4>::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s);
        }
    }

    #[test]
    fn hex_prefix_case_separators() {
        assert_eq!(
            Uint::<4>::from_hex("0xDE_AD_BE_EF").unwrap(),
            Uint::<4>::from_u64(0xdead_beef)
        );
        assert!(Uint::<4>::from_hex("xyz").is_err());
        assert!(Uint::<4>::from_hex("").is_err());
        assert!(Uint::<4>::from_hex("0x").is_err());
    }

    #[test]
    fn hex_overflow_detected() {
        let max = "f".repeat(64);
        assert!(Uint::<4>::from_hex(&max).is_ok());
        let over = "1".to_string() + &"0".repeat(64);
        assert_eq!(Uint::<4>::from_hex(&over), Err(BigIntError::Overflow));
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "10",
            "999999999999999999999999",
            "340282366920938463463374607431768211455",
        ] {
            let v = Uint::<4>::from_decimal(s).unwrap();
            assert_eq!(v.to_decimal(), s);
        }
    }

    #[test]
    fn decimal_errors() {
        assert!(Uint::<4>::from_decimal("12a").is_err());
        assert!(Uint::<4>::from_decimal("").is_err());
        // 2^256 exactly overflows.
        let over = Uint::<4>::MAX.to_decimal();
        let v = Uint::<4>::from_decimal(&over).unwrap();
        assert_eq!(v, Uint::<4>::MAX);
        // MAX+1: construct decimal by appending; simplest reliable overflow is MAX*10.
        let big = over + "0";
        assert_eq!(Uint::<4>::from_decimal(&big), Err(BigIntError::Overflow));
    }

    #[test]
    fn from_str_dispatch() {
        let a: Uint<4> = "255".parse().unwrap();
        let b: Uint<4> = "0xff".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_impls() {
        let v = Uint::<4>::from_u64(48879);
        assert_eq!(format!("{v}"), "48879");
        assert_eq!(format!("{v:x}"), "beef");
        assert!(format!("{v:?}").contains("beef"));
    }
}
