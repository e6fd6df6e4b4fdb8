//! Fixed-width big unsigned integers for the `mws` workspace.
//!
//! This crate is the arithmetic substrate that the paper's prototype borrowed
//! from GMP (via Ben Lynn's PBC library). Everything here is written from
//! scratch: limb arithmetic, Knuth division, Montgomery multiplication,
//! modular exponentiation/inversion, Miller–Rabin primality testing and
//! random prime generation.
//!
//! The central type is [`Uint<L>`], a stack-allocated little-endian array of
//! `L` 64-bit limbs. Width aliases [`U128`] through [`U2048`] cover every
//! width the workspace needs (pairing fields use `U512`/`U1024`, the RSA
//! baseline uses `U1024`/`U2048`).
//!
//! # Example
//!
//! ```
//! use mws_bigint::{U256, Mont};
//!
//! let p = U256::from_decimal(
//!     "115792089237316195423570985008687907853269984665640564039457584007908834671663",
//! ).unwrap(); // the secp256k1 field prime
//! let m = Mont::new(&p).unwrap();
//! let a = U256::from_u64(7);
//! // Fermat: a^(p-1) = 1 (mod p)
//! let e = p.wrapping_sub(&U256::ONE);
//! assert_eq!(m.pow(&a, &e), U256::ONE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod barrett;
mod div;
mod hex;
mod mont;
mod prime;
mod randint;
mod rng;
// Limb kernels use indexed loops deliberately: the index arithmetic mirrors
// the textbook algorithms (carry chains, shifts) they implement.
#[allow(clippy::needless_range_loop)]
mod uint;

pub use barrett::Barrett;
pub use mont::Mont;
pub use prime::{gen_prime, gen_safe_prime, is_prime, MillerRabinRounds};
pub use randint::{random_below, random_bits, random_nonzero_below};
pub use rng::Rng;
pub use uint::Uint;

/// 128-bit unsigned integer (2 limbs).
pub type U128 = Uint<2>;
/// 192-bit unsigned integer (3 limbs).
pub type U192 = Uint<3>;
/// 256-bit unsigned integer (4 limbs).
pub type U256 = Uint<4>;
/// 320-bit unsigned integer (5 limbs).
pub type U320 = Uint<5>;
/// 384-bit unsigned integer (6 limbs).
pub type U384 = Uint<6>;
/// 512-bit unsigned integer (8 limbs).
pub type U512 = Uint<8>;
/// 768-bit unsigned integer (12 limbs).
pub type U768 = Uint<12>;
/// 1024-bit unsigned integer (16 limbs).
pub type U1024 = Uint<16>;
/// 2048-bit unsigned integer (32 limbs).
pub type U2048 = Uint<32>;

/// Errors produced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BigIntError {
    /// Input string was not valid for the requested radix.
    ParseError,
    /// The value does not fit in the destination width.
    Overflow,
    /// A modulus was zero or otherwise unusable (e.g. even for Montgomery).
    BadModulus,
    /// The element is not invertible modulo the given modulus.
    NotInvertible,
}

impl core::fmt::Display for BigIntError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BigIntError::ParseError => write!(f, "invalid digit string"),
            BigIntError::Overflow => write!(f, "value does not fit in target width"),
            BigIntError::BadModulus => write!(f, "modulus is zero or unsupported"),
            BigIntError::NotInvertible => write!(f, "element is not invertible"),
        }
    }
}

impl std::error::Error for BigIntError {}
