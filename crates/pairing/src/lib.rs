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
//! * [`fp`] — prime-field arithmetic in the Montgomery domain, at the
//!   field's width, and [`FpCtx`], the field a [`PairingCtx`] works in;
//!   inversion is `mws-bigint`'s constant-time safegcd.
//! * [`fp2`] — the quadratic extension `F_p[i]/(i²+1)`.
//! * [`curve`] — point arithmetic on `E(F_p)`: the x-only Montgomery
//!   ladder for every variable-base `k·P`, the generator's signed-window
//!   fixed-base table, and the Jacobian formulas the table and the Miller
//!   loops share.
//! * `pairing` — Miller's algorithm and the final exponentiation.
//! * [`prepared`] — cached Miller tapes for fixed first arguments.
//! * [`maptopoint`] — hash-to-point (the `MapToPoint` of BF-IBE).
//! * [`params`] — parameter generation and deterministic named parameter sets.
//!
//! # Widths
//!
//! Values cross the API in one container: [`Fp`] coordinates and scalars
//! are [`FpW`] (`FP_LIMBS` = 8 limbs, 64-byte encodings) at every
//! [`SecurityLevel`]. The arithmetic runs at the field's width `N` — 3
//! limbs for a prime of up to 192 bits (Toy), 4 for 256 (Light), 8 above
//! (Standard) — on `[u64; N]` values, with `mws-bigint`'s one CIOS body
//! ([`mws_bigint::mont_mul_limbs`]) inlined into every field product. A
//! context picks `N` once from `p`; every group-level call
//! ([`PairingCtx::pairing`], [`PairingCtx::mul`],
//! [`PairingCtx::hash_to_point`], …) matches on it once and runs its whole
//! Miller loop, ladder or exponentiation at that width. Crossing the API is
//! a copy of `N` limbs; prepared tapes and fixed-base tables are stored at
//! width `N`.
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
mod pairing;
pub mod params;
pub mod prepared;

pub use curve::Point;
pub use fp::{Fp, FpCtx};
pub use fp2::Fp2;
pub use params::{PairingCtx, PairingParams, SecurityLevel};
pub use prepared::PreparedPoint;

use mws_bigint::Uint;

/// Limb width of the API's container (8 × 64 = up to 512-bit primes): the
/// width of [`FpW`], of the coordinates inside [`Fp`], and of every
/// encoding (`8·FP_LIMBS` bytes per coordinate). One container serves
/// every [`SecurityLevel`]; the arithmetic does not run in it (see the
/// crate docs' *Widths*).
pub const FP_LIMBS: usize = 8;

/// The integer type of scalars, parameters and the canonical form of field
/// elements at the API.
pub type FpW = Uint<FP_LIMBS>;

/// One value per field width the crate instantiates: 3 limbs (`p` up to
/// 192 bits), 4 (up to 256) and 8 (up to [`FpW::BITS`]).
#[derive(Clone, Debug)]
pub(crate) enum Wide<A, B, C> {
    W3(A),
    W4(B),
    W8(C),
}

/// `Wide<T<3>, T<4>, T<8>>`: a width-generic `T` at the three widths.
macro_rules! wide {
    ($t:ident) => {
        $crate::Wide<$t<3>, $t<4>, $t<8>>
    };
}
pub(crate) use wide;

/// Runs `$body` with `$f` bound to the field of `$ctx` (an [`FpCtx`]) at
/// its width — the one width dispatch of a group-level call. The `wide, …`
/// form wraps each arm's value in [`Wide`] (a tape or table stored at the
/// field's width); the last form also binds `$t` to such a value built
/// under the same context.
macro_rules! at_width {
    (wide, $ctx:expr, |$f:ident| $body:expr) => {
        match &$ctx.0 {
            $crate::Wide::W3($f) => $crate::Wide::W3($body),
            $crate::Wide::W4($f) => $crate::Wide::W4($body),
            $crate::Wide::W8($f) => $crate::Wide::W8($body),
        }
    };
    ($ctx:expr, |$f:ident| $body:expr) => {
        match &$ctx.0 {
            $crate::Wide::W3($f) => $body,
            $crate::Wide::W4($f) => $body,
            $crate::Wide::W8($f) => $body,
        }
    };
    ($ctx:expr, $wide:expr, |$f:ident, $t:ident| $body:expr) => {
        match (&$ctx.0, $wide) {
            ($crate::Wide::W3($f), $crate::Wide::W3($t)) => $body,
            ($crate::Wide::W4($f), $crate::Wide::W4($t)) => $body,
            ($crate::Wide::W8($f), $crate::Wide::W8($t)) => $body,
            _ => panic!("value built under a context of another field width"),
        }
    };
}
pub(crate) use at_width;

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
