//! From-scratch cryptographic primitives for the `mws` workspace.
//!
//! The paper's Perl prototype leaned on `Crypt::DES`, `Digest::SHA1`,
//! `Digest::MD5` and hard-coded RSA keys. This crate reimplements all of it —
//! plus the modern replacements the reproduction's benchmarks compare against:
//!
//! * **Digests** — [`Sha1`], [`Sha256`], [`Md5`] behind the [`Digest`] trait,
//!   validated against FIPS 180 / RFC 1321 vectors.
//! * **MACs & KDFs** — [`Hmac`], [`hkdf_extract`]/[`hkdf_expand`] (RFC 5869),
//!   and an [`HmacDrbg`] deterministic random bit generator (NIST SP 800-90A).
//! * **Block ciphers** — [`Des`], [`TripleDes`] (the paper's cipher, FIPS
//!   46-3) and [`Aes128`]/[`Aes256`] (FIPS 197) behind [`BlockCipher`], with
//!   [`CbcMode`]/[`CtrMode`] modes and PKCS#7 padding.
//! * **Stream cipher** — [`ChaCha20`] (RFC 8439).
//! * **AEAD** — [`seal`]/[`open`] encrypt-then-MAC and [`gcm_seal`]/[`gcm_open`]
//!   (AES-GCM, NIST SP 800-38D), or a [`Gcm`] context keyed once for many
//!   records.
//! * **RSA** — key generation and PKCS#1 v1.5 encryption/signature, the
//!   certificate-PKI baseline the paper's introduction argues against
//!   (experiment E4).
//! * **Utilities** — [`crc32`], constant-time comparison [`ct_eq`].
//!
//! # Security status
//!
//! Primitives are test-vector-validated but not constant-time throughout and
//! unaudited; see `DESIGN.md §5`. AES encryption, CTR and GCM *are*
//! constant-time (bitsliced AES, multiply-based GHASH: `aes.rs`, `gcm.rs`,
//! `DESIGN.md §12.6`). DES and MD5 are implemented for fidelity to
//! the paper and are *deliberately* marked deprecated-for-new-designs in
//! their module docs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod aead;
mod aes;
mod chacha20;
mod crc32;
mod ct;
mod des;
mod digest;
mod drbg;
mod gcm;
mod hkdf;
mod hmac;
mod md5;
mod modes;
mod pad;
mod rsa;
mod sha1;
mod sha256;

pub use aead::{open, seal, AeadError};
pub use aes::{Aes128, Aes256};
pub use chacha20::ChaCha20;
pub use crc32::crc32;
pub use ct::ct_eq;
pub use des::{Des, TripleDes};
pub use digest::{BlockCipher, Digest};
pub use drbg::HmacDrbg;
pub use gcm::{gcm_open, gcm_seal, Gcm, GCM_TAG_LEN};
pub use hkdf::{hkdf_expand, hkdf_extract, kdf};
pub use hmac::Hmac;
pub use md5::Md5;
pub use modes::{CbcMode, CtrMode, EcbMode};
pub use mws_bigint::Rng;
pub use pad::{pkcs7_pad, pkcs7_unpad, PadError};
pub use rsa::{RsaError, RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha1::Sha1;
pub use sha256::Sha256;

/// Errors shared by the symmetric-cipher layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherError {
    /// Input length is not a multiple of the cipher block size.
    BadLength,
    /// Padding was malformed on decryption.
    BadPadding,
    /// A key of unsupported length was supplied.
    BadKey,
    /// IV/nonce of unsupported length.
    BadIv,
}

impl core::fmt::Display for CipherError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CipherError::BadLength => write!(f, "input is not block-aligned"),
            CipherError::BadPadding => write!(f, "invalid padding"),
            CipherError::BadKey => write!(f, "unsupported key length"),
            CipherError::BadIv => write!(f, "unsupported IV length"),
        }
    }
}

impl std::error::Error for CipherError {}
