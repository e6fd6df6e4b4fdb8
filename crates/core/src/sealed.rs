//! Authenticated secure blobs for the protocol's symmetric envelopes.
//!
//! The paper writes these as `E(key, …)` with DES (§V.D): the RC
//! authenticator, the MWS↔PKG ticket, the PKG confirmation and the key
//! delivery are all "encrypt under a shared secret". This module gives those
//! uses one hardened realization: keys are derived from the shared secret
//! with HKDF (separate encryption/MAC keys per label), the payload is
//! AES-128-CTR + HMAC-SHA256 encrypt-then-MAC, and a random nonce makes
//! every blob distinct.
//!
//! Layout: `nonce(8) ‖ ciphertext ‖ tag(32)`.

use mws_crypto::{kdf, open, seal, Aes128, Rng};

const NONCE_LEN: usize = 8;

/// Seals `plaintext` under a shared secret and a domain label.
pub fn seal_blob<R: Rng + ?Sized>(
    rng: &mut R,
    shared_secret: &[u8],
    label: &str,
    plaintext: &[u8],
) -> Vec<u8> {
    let keys = kdf(shared_secret, label, 16 + 32);
    let cipher = Aes128::new(&keys[..16]).expect("derived key length");
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    let sealed = seal(&cipher, &keys[16..], &nonce, label.as_bytes(), plaintext)
        .expect("derived nonce length");
    let mut out = nonce.to_vec();
    out.extend_from_slice(&sealed);
    out
}

/// Opens a [`seal_blob`] output. `None` on any authentication failure.
pub fn open_blob(shared_secret: &[u8], label: &str, blob: &[u8]) -> Option<Vec<u8>> {
    if blob.len() < NONCE_LEN {
        return None;
    }
    let keys = kdf(shared_secret, label, 16 + 32);
    let cipher = Aes128::new(&keys[..16]).expect("derived key length");
    let (nonce, sealed) = blob.split_at(NONCE_LEN);
    open(&cipher, &keys[16..], nonce, label.as_bytes(), sealed).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::HmacDrbg;

    #[test]
    fn roundtrip() {
        let mut rng = HmacDrbg::from_u64(1);
        let blob = seal_blob(&mut rng, b"shared", "ticket", b"the payload");
        assert_eq!(
            open_blob(b"shared", "ticket", &blob).unwrap(),
            b"the payload"
        );
    }

    #[test]
    fn wrong_secret_or_label_fails() {
        let mut rng = HmacDrbg::from_u64(2);
        let blob = seal_blob(&mut rng, b"shared", "ticket", b"p");
        assert!(open_blob(b"other", "ticket", &blob).is_none());
        assert!(open_blob(b"shared", "authenticator", &blob).is_none());
    }

    #[test]
    fn tamper_detected_everywhere() {
        let mut rng = HmacDrbg::from_u64(3);
        let blob = seal_blob(&mut rng, b"s", "l", b"payload!");
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 1;
            assert!(open_blob(b"s", "l", &bad).is_none(), "byte {i}");
        }
        assert!(open_blob(b"s", "l", &blob[..4]).is_none(), "truncated");
    }

    #[test]
    fn blobs_are_randomized() {
        let mut rng = HmacDrbg::from_u64(4);
        let a = seal_blob(&mut rng, b"s", "l", b"same");
        let b = seal_blob(&mut rng, b"s", "l", b"same");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_payload() {
        let mut rng = HmacDrbg::from_u64(5);
        let blob = seal_blob(&mut rng, b"s", "l", b"");
        assert_eq!(open_blob(b"s", "l", &blob).unwrap(), b"");
    }
}
