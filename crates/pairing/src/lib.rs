//! Pairing-friendly supersingular elliptic curve — the substrate the paper's
//! prototype got from Ben Lynn's PBC library ("type A" curves).
//!
//! The curve is `E : y² = x³ + x` over a prime field `F_p` with
//! `p ≡ 3 (mod 4)` and `p + 1 = q·h` for a prime group order `q`. `E` is
//! supersingular with `#E(F_p) = p + 1`, embedding degree 2, and admits the
//! distortion map `φ(x, y) = (−x, i·y)` into `E(F_p²)`. The *modified Tate
//! pairing* `ê(P, Q) = f_{q,P}(φ(Q))^{(p²−1)/q}` is then a symmetric
//! non-degenerate bilinear map `G₁ × G₁ → μ_q ⊂ F_p²*` — exactly the gadget
//! Boneh–Franklin IBE needs (`ê(rP, sI) = ê(sP, rI)`).
//!
//! *(Historical note: Boneh–Franklin's paper text uses the sibling curve
//! `y² = x³ + 1`, `p ≡ 2 (mod 3)`; PBC's type A — what the prototype linked —
//! is the curve implemented here. The protocol is agnostic to the choice.)*
//!
//! Layout:
//!
//! * [`fp`] — prime-field arithmetic (Montgomery domain over [`FpW`]).
//! * [`fp2`] — the quadratic extension `F_p[i]/(i²+1)`.
//! * [`curve`] — affine/Jacobian point arithmetic on `E(F_p)`.
//! * [`pairing`] — Miller's algorithm and the final exponentiation.
//! * [`prepared`] — cached Miller tapes for fixed first arguments.
//! * [`maptopoint`] — hash-to-point (the `MapToPoint` of BF-IBE).
//! * [`params`] — parameter generation and deterministic named parameter sets.
//!
//! # Example
//!
//! ```
//! use mws_pairing::{PairingCtx, SecurityLevel};
//! use mws_crypto::HmacDrbg;
//!
//! let ctx = PairingCtx::named(SecurityLevel::Toy);
//! let mut rng = HmacDrbg::from_u64(7);
//! let a = ctx.random_scalar(&mut rng);
//! let b = ctx.random_scalar(&mut rng);
//! let g = ctx.generator();
//! // Bilinearity: e(aP, bP) == e(bP, aP) == e(P, P)^(ab)
//! let lhs = ctx.pairing(&ctx.mul(&g, &a), &ctx.mul(&g, &b));
//! let rhs = ctx.pairing(&ctx.mul(&g, &b), &ctx.mul(&g, &a));
//! assert_eq!(lhs, rhs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod fp;
pub mod fp2;
pub mod maptopoint;
mod naf;
pub mod pairing;
pub mod params;
pub mod prepared;

pub use curve::{CombTable, Point};
pub use fp::{Fp, FpCtx};
pub use fp2::Fp2;
pub use params::{PairingCtx, PairingParams, SecurityLevel};
pub use prepared::PreparedPoint;

use mws_bigint::Uint;

/// Limb width of the base field's container (8 × 64 = up to 512-bit
/// primes). One container serves every [`SecurityLevel`]; the arithmetic
/// runs on the limbs the prime actually has (3 at Toy, 4 at Light, 8 at
/// Standard — see [`mws_bigint::Mont`]).
pub const FP_LIMBS: usize = 8;

/// The integer type backing field elements and scalars.
pub type FpW = Uint<FP_LIMBS>;

/// Errors from the pairing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingError {
    /// A point failed curve-membership or subgroup checks.
    InvalidPoint,
    /// Serialized data was malformed.
    Decode,
    /// Parameter generation failed (sizes out of range).
    BadParameters,
}

impl core::fmt::Display for PairingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PairingError::InvalidPoint => write!(f, "point not on curve / wrong subgroup"),
            PairingError::Decode => write!(f, "malformed encoding"),
            PairingError::BadParameters => write!(f, "unsupported pairing parameters"),
        }
    }
}

impl std::error::Error for PairingError {}
