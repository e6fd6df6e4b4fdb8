//! HKDF (RFC 5869) and the protocol KDF.

use crate::{Digest, Hmac, Sha256};
use std::sync::OnceLock;

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract<D: Digest>(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    Hmac::<D>::mac(salt, ikm)
}

/// HKDF-Expand: derives `len` bytes of output keying material.
///
/// # Panics
///
/// Panics if `len > 255 · D::OUTPUT_LEN` (the RFC 5869 bound).
pub fn hkdf_expand<D: Digest>(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    expand(&Hmac::<D>::new(prk), info, len)
}

/// HKDF-Expand under a PRK keyed once: each output block clones it.
fn expand<D: Digest>(prk: &Hmac<D>, info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * D::OUTPUT_LEN, "HKDF output too long");
    let mut okm = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u32; // ≤ 255 by the length assertion above
    while okm.len() < len {
        let mut h = prk.clone();
        h.update(&t);
        h.update(info);
        h.update(&[counter as u8]);
        t = h.finalize();
        let take = (len - okm.len()).min(t.len());
        okm.extend_from_slice(&t[..take]);
        counter += 1;
    }
    okm
}

/// The workspace KDF: HKDF-SHA256 extract-then-expand under the fixed salt
/// `"mws-kdf-v1"`, with a domain-separation label as the info.
///
/// Used to turn the pairing value `K = ê(sP, rI)` (a field element) into a
/// symmetric key of the cipher's size — the step the paper writes as
/// `h[e(Q_ID, sP)^r]` in §IV. The salt is keyed once per process and the
/// PRK once per call.
pub fn kdf(ikm: &[u8], label: &str, len: usize) -> Vec<u8> {
    static SALT: OnceLock<Hmac<Sha256>> = OnceLock::new();
    let mut extract = SALT.get_or_init(|| Hmac::new(b"mws-kdf-v1")).clone();
    extract.update(ikm);
    expand(
        &Hmac::<Sha256>::new(&extract.finalize()),
        label.as_bytes(),
        len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract::<Sha256>(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand::<Sha256>(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case2_long() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let prk = hkdf_extract::<Sha256>(&salt, &ikm);
        let okm = hkdf_expand::<Sha256>(&prk, &info, 82);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case3_empty_salt_info() {
        let ikm = [0x0b; 22];
        let prk = hkdf_extract::<Sha256>(&[], &ikm);
        let okm = hkdf_expand::<Sha256>(&prk, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn kdf_is_deterministic_and_label_separated() {
        let k1 = kdf(b"pairing-value", "des-key", 8);
        let k2 = kdf(b"pairing-value", "des-key", 8);
        let k3 = kdf(b"pairing-value", "aes-key", 16);
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 8);
        assert_eq!(k3.len(), 16);
        assert_ne!(k1, k3[..8].to_vec());
        // Extract-then-expand, byte for byte.
        let prk = hkdf_extract::<Sha256>(b"mws-kdf-v1", b"pairing-value");
        let long = hkdf_expand::<Sha256>(&prk, b"aes-key", 80);
        assert_eq!(kdf(b"pairing-value", "aes-key", 80), long);
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn expand_rejects_oversize() {
        let _ = hkdf_expand::<Sha256>(&[0u8; 32], b"", 255 * 32 + 1);
    }
}
