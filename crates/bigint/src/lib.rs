//! Fixed-width big unsigned integers for the `mws` workspace.
//!
//! This crate is the arithmetic substrate that the paper's prototype borrowed
//! from GMP (via Ben Lynn's PBC library). Everything here is written from
//! scratch: limb arithmetic, Knuth division, Montgomery multiplication,
//! modular exponentiation, modular inversion (extended Euclid on [`Uint`],
//! and the constant-time safegcd of [`ModInv`] on limb arrays), Miller–Rabin
//! primality testing and random prime generation.
//!
//! The central type is [`Uint<L>`], a stack-allocated little-endian array of
//! `L` 64-bit limbs; callers name the width they need as `Uint<L>`. One
//! alias is kept: [`U2048`], the container of every RSA modulus.
//!
//! # Example
//!
//! ```
//! use mws_bigint::{Mont, Uint};
//!
//! let p: Uint<4> = "115792089237316195423570985008687907853269984665640564039457584007908834671663"
//!     .parse()
//!     .unwrap(); // the secp256k1 field prime
//! let m = Mont::new(&p).unwrap();
//! let a = Uint::<4>::from_u64(7);
//! // Fermat: a^(p-1) = 1 (mod p)
//! let e = p.wrapping_sub(&Uint::ONE);
//! assert_eq!(m.pow(&a, &e), Uint::ONE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
#[cfg(debug_assertions)]
pub mod cost;
mod div;
mod hex;
mod modinv;
mod mont;
mod prime;
mod randint;
mod rng;
// Limb kernels use indexed loops deliberately: the index arithmetic mirrors
// the textbook algorithms (carry chains, shifts) they implement.
#[allow(clippy::needless_range_loop)]
mod uint;

pub use modinv::ModInv;
pub use mont::{add_mod_limbs, mont_mul_limbs, mont_neg_inv, sub_mod_limbs, Mont};
pub use prime::{gen_prime, is_prime, MillerRabinRounds};
pub use randint::{random_below, random_bits, random_nonzero_below};
pub use rng::Rng;
pub use uint::Uint;

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
