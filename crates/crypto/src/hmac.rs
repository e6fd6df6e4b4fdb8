//! HMAC (RFC 2104), generic over any [`Digest`].

use crate::{ct_eq, Digest};

/// An incremental HMAC computation.
///
/// The protocol uses HMAC in two places: the SD↔MWS message authentication
/// code (`MAC = HMAC_K(rP ‖ C ‖ Nonce ‖ ID_SD ‖ T)`, §V.D) and inside
/// [`crate::HmacDrbg`].
///
/// A fresh `Hmac` holds the two hash states after absorbing `K ⊕ ipad`
/// and `K ⊕ opad`, so keying costs two compressions once: a caller that
/// MACs several messages under one key keys one `Hmac` and clones it per
/// message, and each tag then costs only its own blocks.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Starts an HMAC with the given key (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = if key.len() > D::BLOCK_LEN {
            D::digest(key)
        } else {
            key.to_vec()
        };
        k.resize(D::BLOCK_LEN, 0);
        // XOR the pads in place: `K ⊕ ipad`, then `K ⊕ opad`.
        let mut keyed = |pad: u8| {
            k.iter_mut().for_each(|b| *b ^= pad);
            let mut h = D::new();
            h.update(&k);
            h
        };
        let inner = keyed(0x36);
        let outer = keyed(0x36 ^ 0x5c);
        Self { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the tag (`D::OUTPUT_LEN` bytes).
    pub fn finalize(self) -> Vec<u8> {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// One-shot MAC over several segments.
    pub fn mac_parts(key: &[u8], parts: &[&[u8]]) -> Vec<u8> {
        let mut h = Self::new(key);
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Constant-time verification of a tag.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expect = Self::mac(key, data);
        ct_eq(&expect, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha1, Sha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 (HMAC-SHA1) and RFC 4231 (HMAC-SHA256) vectors.

    #[test]
    fn rfc2202_sha1() {
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(&[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(&[0xaa; 20], &[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc4231_sha256() {
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(
                b"Jefe",
                b"what do ya want for nothing?"
            )),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Key longer than the block size.
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha256>::mac(b"key", b"msg");
        assert!(Hmac::<Sha256>::verify(b"key", b"msg", &tag));
        assert!(!Hmac::<Sha256>::verify(b"key", b"msg2", &tag));
        assert!(!Hmac::<Sha256>::verify(b"key2", b"msg", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!Hmac::<Sha256>::verify(b"key", b"msg", &bad));
        assert!(!Hmac::<Sha256>::verify(b"key", b"msg", &tag[..31]));
    }

    #[test]
    fn a_cloned_keyed_hmac_tags_like_a_fresh_one() {
        let keyed = Hmac::<Sha256>::new(b"key");
        for msg in [&b""[..], b"one", &[7u8; 200]] {
            let mut h = keyed.clone();
            h.update(msg);
            assert_eq!(h.finalize(), Hmac::<Sha256>::mac(b"key", msg));
        }
    }

    #[test]
    fn mac_parts_equals_concat() {
        let t1 = Hmac::<Sha256>::mac_parts(b"k", &[b"ab", b"cd", b""]);
        let t2 = Hmac::<Sha256>::mac(b"k", b"abcd");
        assert_eq!(t1, t2);
    }
}
