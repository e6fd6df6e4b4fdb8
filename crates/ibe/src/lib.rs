//! Boneh–Franklin Identity-Based Encryption and its protocol-level variants.
//!
//! This crate implements the cryptographic core of the paper (§IV–§V):
//!
//! * [`bf`] — the Boneh–Franklin `Setup` and `Extract`: the system
//!   parameters, the PKG's master key pair and `d_ID = s·Q_ID`.
//! * [`attr`] — the paper's *attribute* scheme, the one encryption the
//!   protocol runs: identities are attribute strings plus a per-message
//!   nonce (`I = H(A ‖ Nonce)`), and the IBE value keys a symmetric cipher
//!   (`C = E{M, h[ê(Q_ID, sP)^r]}`) under an encrypt-then-MAC composition.
//! * [`threshold`] — a `t`-of-`n` distributed PKG via Shamir sharing of the
//!   master secret (paper §VIII future work: "a form of threshold
//!   cryptography may also be considered, to create a distributed PKG").
//! * [`ibs`] — Cha–Cheon identity-based signatures (paper §VIII: "a
//!   possibility of the SD to use IBE … to sign a message"), the one
//!   signature scheme the SDA and the sealed transport's handshake use.
//!
//! # Quickstart
//!
//! ```
//! use mws_ibe::bf::IbeSystem;
//! use mws_ibe::CipherAlgo;
//! use mws_pairing::SecurityLevel;
//! use mws_crypto::HmacDrbg;
//!
//! let mut rng = HmacDrbg::from_u64(1);
//! let ibe = IbeSystem::named(SecurityLevel::Toy);
//! let (msk, mpk) = ibe.setup(&mut rng);
//! let ct = ibe.encrypt_attr(&mut rng, &mpk, "ELECTRIC-APT9", b"nonce-1", CipherAlgo::Aes128, b"aad", b"hi");
//! let sk = ibe.extract_point(&msk, &ibe.attribute_point("ELECTRIC-APT9", b"nonce-1"));
//! assert_eq!(ibe.decrypt_attr(&sk, &ct, b"aad").unwrap(), b"hi");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod bf;
pub mod ibs;
pub mod kdf;
pub mod threshold;

pub use attr::{AttrCiphertext, CipherAlgo};
pub use bf::{IbeSystem, MasterPublic, MasterSecret, UserPrivateKey};

/// Errors from the IBE layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbeError {
    /// Ciphertext failed validation (MAC or structure).
    InvalidCiphertext,
    /// A point failed curve/subgroup checks during decode.
    InvalidPoint,
    /// Threshold reconstruction had too few or duplicate shares.
    BadShares,
    /// Signature rejected.
    BadSignature,
}

impl core::fmt::Display for IbeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IbeError::InvalidCiphertext => write!(f, "invalid ciphertext"),
            IbeError::InvalidPoint => write!(f, "invalid point encoding"),
            IbeError::BadShares => write!(f, "insufficient or duplicate shares"),
            IbeError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for IbeError {}
