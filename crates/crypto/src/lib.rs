//! From-scratch cryptographic primitives for the `mws` workspace.
//!
//! The paper's Perl prototype leaned on `Crypt::DES`, `Digest::SHA1` and
//! hard-coded RSA keys. This crate reimplements what the protocol runs, and
//! nothing else (`tests/architecture.rs` fails on an export no other crate
//! names):
//!
//! * **Digests** — [`Sha1`] (the paper's `I = SHA1(A ‖ Nonce)`) and
//!   [`Sha256`] behind the [`Digest`] trait, validated against FIPS 180
//!   vectors.
//! * **MACs & KDFs** — [`Hmac`], [`hkdf_extract`]/[`hkdf_expand`] (RFC 5869),
//!   and an [`HmacDrbg`] deterministic random bit generator (NIST SP 800-90A).
//! * **Block ciphers** — [`Des`] (the paper's cipher, FIPS 46-3) and
//!   [`Aes128`] (FIPS 197, the default) behind [`BlockCipher`], run forward
//!   only: as the [`CtrMode`] keystream or under GCM.
//! * **AEAD** — [`seal`]/[`open`] encrypt-then-MAC (the hybrid IBE layer and
//!   the ticket/key-delivery blobs) and [`gcm_seal`]/[`gcm_open`] (AES-GCM,
//!   NIST SP 800-38D), or a [`Gcm`] context keyed once for many records (the
//!   sealed transport).
//! * **RSA** — key generation and PKCS#1 v1.5 encryption/signature, the
//!   certificate-PKI baseline the paper's introduction argues against
//!   (experiment E4).
//! * **Utilities** — [`crc32`], constant-time comparison [`ct_eq`].
//! * `cost` (debug builds only) — a thread-local count of SHA-256
//!   compressions, the hash rows of `tests/cost_model.rs`.
//!
//! # Security status
//!
//! Primitives are test-vector-validated but not constant-time throughout and
//! unaudited; see `DESIGN.md §5`. AES encryption, CTR and GCM *are*
//! constant-time (bitsliced AES, multiply-based GHASH: `aes.rs`, `gcm.rs`,
//! `DESIGN.md §12.6`). DES is implemented for fidelity to the paper and is
//! *deliberately* marked deprecated-for-new-designs in its module docs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod aead;
mod aes;
#[cfg(debug_assertions)]
pub mod cost;
mod crc32;
mod ct;
mod des;
mod digest;
mod drbg;
mod gcm;
mod hkdf;
mod hmac;
mod modes;
mod rsa;
mod sha1;
mod sha256;

pub use aead::{open, seal, AeadError};
pub use aes::Aes128;
pub use crc32::crc32;
pub use ct::ct_eq;
pub use des::Des;
pub use digest::{BlockCipher, Digest};
pub use drbg::HmacDrbg;
pub use gcm::{gcm_open, gcm_seal, Gcm, GCM_TAG_LEN};
pub use hkdf::{hkdf_expand, hkdf_extract, kdf};
pub use hmac::Hmac;
pub use modes::CtrMode;
pub use mws_bigint::Rng;
pub use rsa::{RsaError, RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha1::Sha1;
pub use sha256::Sha256;

/// Errors shared by the symmetric-cipher layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherError {
    /// Input too long for the counter, or too short to hold a tag.
    BadLength,
    /// The GCM authentication tag did not verify.
    TagMismatch,
    /// A key of unsupported length was supplied.
    BadKey,
    /// IV/nonce of unsupported length.
    BadIv,
}

impl core::fmt::Display for CipherError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CipherError::BadLength => write!(f, "input length out of range"),
            CipherError::TagMismatch => write!(f, "authentication failed"),
            CipherError::BadKey => write!(f, "unsupported key length"),
            CipherError::BadIv => write!(f, "unsupported IV length"),
        }
    }
}

impl std::error::Error for CipherError {}
