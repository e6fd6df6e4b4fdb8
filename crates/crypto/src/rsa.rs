//! RSA with PKCS#1 v1.5 padding — the certificate-PKI baseline.
//!
//! The paper's introduction argues that "traditional certificate based
//! public-key cryptosystems are not useful" for constrained depositing
//! clients. Experiment E4 puts a number on that claim by comparing the
//! IBE-attribute scheme against the obvious alternative: each smart device
//! hybrid-encrypts per recipient under RSA certificates. The prototype
//! additionally hardcoded RSA keys for the RC token channel; here keys are
//! generated properly.

use crate::{Digest, Sha256};
use mws_bigint::{gen_prime, MillerRabinRounds, Mont, Rng, U2048};

/// Maximum modulus width supported (bits).
pub const MAX_MODULUS_BITS: u32 = 2048;

/// RSA errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the modulus/padding.
    MessageTooLong,
    /// Ciphertext or signature is not smaller than the modulus.
    OutOfRange,
    /// PKCS#1 structure invalid after decryption.
    BadPadding,
    /// Signature did not verify.
    BadSignature,
    /// Unsupported key size requested.
    BadKeySize,
}

impl core::fmt::Display for RsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            RsaError::MessageTooLong => "message too long",
            RsaError::OutOfRange => "value out of range",
            RsaError::BadPadding => "invalid PKCS#1 padding",
            RsaError::BadSignature => "signature verification failed",
            RsaError::BadKeySize => "unsupported key size",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for RsaError {}

/// RSA public key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Montgomery context of the modulus `n`, built once per key.
    n: Mont<32>,
    e: U2048,
    k: usize, // modulus length in bytes
}

/// RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    /// Montgomery contexts of `n`, `p` and `q`, built once per key.
    n: Mont<32>,
    p: Mont<32>,
    q: Mont<32>,
    d: U2048,
    dp: U2048,
    dq: U2048,
    /// `q⁻¹ mod p` in `p`'s Montgomery form: one Montgomery product with a
    /// plain residue gives their plain product.
    qinv_m: U2048,
    k: usize,
}

/// A generated keypair.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// Public half.
    pub public: RsaPublicKey,
    /// Private half.
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a keypair with a modulus of `bits` (512 for fast tests,
    /// 1024/2048 for benchmarks). Public exponent is 65537.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Result<Self, RsaError> {
        if !(512..=MAX_MODULUS_BITS).contains(&bits) || !bits.is_multiple_of(2) {
            return Err(RsaError::BadKeySize);
        }
        let e = U2048::from_u64(65537);
        let rounds = MillerRabinRounds(24);
        loop {
            let p: U2048 = gen_prime(rng, bits / 2, rounds);
            let q: U2048 = gen_prime(rng, bits / 2, rounds);
            if p == q {
                continue;
            }
            let n = match p.checked_mul(&q) {
                Some(n) => n,
                None => continue,
            };
            if n.bits() != bits {
                continue;
            }
            let one = U2048::ONE;
            let p1 = p.wrapping_sub(&one);
            let q1 = q.wrapping_sub(&one);
            let phi = match p1.checked_mul(&q1) {
                Some(v) => v,
                None => continue,
            };
            let d = match e.inv_mod(&phi) {
                Ok(d) => d,
                Err(_) => continue, // gcd(e, phi) != 1; re-draw primes
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = match q.inv_mod(&p) {
                Ok(v) => v,
                Err(_) => continue,
            };
            let k = (bits as usize) / 8;
            let n = Mont::new(&n).expect("product of odd primes");
            let p = Mont::new(&p).expect("odd prime");
            return Ok(Self {
                public: RsaPublicKey { n: n.clone(), e, k },
                private: RsaPrivateKey {
                    n,
                    q: Mont::new(&q).expect("odd prime"),
                    d,
                    dp,
                    dq,
                    qinv_m: p.to_mont(&qinv),
                    p,
                    k,
                },
            });
        }
    }
}

impl RsaPublicKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.k
    }

    /// Serializes as `k(u32 LE) ‖ n(k bytes BE) ‖ e(8 bytes BE)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.k + 8);
        out.extend_from_slice(&(self.k as u32).to_le_bytes());
        out.extend_from_slice(&i2osp(self.n.modulus(), self.k));
        out.extend_from_slice(
            &self
                .e
                .checked_as_u64()
                .expect("public exponent fits u64")
                .to_be_bytes(),
        );
        out
    }

    /// Parses a [`Self::to_bytes`] encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RsaError> {
        if bytes.len() < 12 {
            return Err(RsaError::OutOfRange);
        }
        let k = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        if k < 64 || k > (MAX_MODULUS_BITS as usize) / 8 || bytes.len() != 4 + k + 8 {
            return Err(RsaError::OutOfRange);
        }
        let n = U2048::from_be_bytes(&bytes[4..4 + k]).map_err(|_| RsaError::OutOfRange)?;
        let e_raw = u64::from_be_bytes(bytes[4 + k..].try_into().expect("8 bytes"));
        if n.bits() as usize != k * 8 || e_raw < 3 || e_raw % 2 == 0 {
            return Err(RsaError::OutOfRange);
        }
        Ok(Self {
            n: Mont::new(&n).map_err(|_| RsaError::OutOfRange)?, // even modulus
            e: U2048::from_u64(e_raw),
            k,
        })
    }

    /// Raw RSA: `m^e mod n`.
    fn raw(&self, m: &U2048) -> Result<U2048, RsaError> {
        if m >= self.n.modulus() {
            return Err(RsaError::OutOfRange);
        }
        Ok(self.n.pow(m, &self.e))
    }

    /// PKCS#1 v1.5 encryption (EME-PKCS1-v1_5). Message limit is `k − 11`.
    pub fn encrypt_pkcs1<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        msg: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        if msg.len() + 11 > self.k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = vec![0u8; self.k];
        em[1] = 0x02;
        let ps_len = self.k - 3 - msg.len();
        for b in em[2..2 + ps_len].iter_mut() {
            // Nonzero random padding bytes.
            *b = loop {
                let candidate = (rng.next_u32() & 0xff) as u8;
                if candidate != 0 {
                    break candidate;
                }
            };
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(msg);
        let m = U2048::from_be_bytes(&em).expect("k bytes fit");
        let c = self.raw(&m)?;
        Ok(i2osp(&c, self.k))
    }

    /// PKCS#1 v1.5 signature verification over SHA-256.
    pub fn verify_pkcs1_sha256(&self, msg: &[u8], sig: &[u8]) -> Result<(), RsaError> {
        if sig.len() != self.k {
            return Err(RsaError::BadSignature);
        }
        let s = U2048::from_be_bytes(sig).map_err(|_| RsaError::OutOfRange)?;
        let em = i2osp(&self.raw(&s)?, self.k);
        let expect = emsa_pkcs1_sha256(msg, self.k)?;
        if crate::ct_eq(&em, &expect) {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }
}

impl RsaPrivateKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.k
    }

    /// Raw private-key operation via CRT.
    fn raw(&self, c: &U2048) -> Result<U2048, RsaError> {
        if c >= self.n.modulus() {
            return Err(RsaError::OutOfRange);
        }
        let m1 = self.p.pow(c, &self.dp);
        let m2 = self.q.pow(c, &self.dq);
        // h = qinv * (m1 - m2) mod p
        let diff = self.p.sub(&m1, &self.p.reduce(&m2));
        let h = self.p.mont_mul(&self.qinv_m, &diff);
        // m = m2 + h * q  (< p*q = n, no overflow within 2048 bits as long as
        // p and q are half-width)
        let hq = h
            .checked_mul(self.q.modulus())
            .ok_or(RsaError::OutOfRange)?;
        Ok(m2.wrapping_add(&hq))
    }

    /// Raw private-key operation without CRT (for cross-checking).
    fn raw_nocrt(&self, c: &U2048) -> Result<U2048, RsaError> {
        if c >= self.n.modulus() {
            return Err(RsaError::OutOfRange);
        }
        Ok(self.n.pow(c, &self.d))
    }

    /// PKCS#1 v1.5 decryption.
    pub fn decrypt_pkcs1(&self, ct: &[u8]) -> Result<Vec<u8>, RsaError> {
        if ct.len() != self.k {
            return Err(RsaError::OutOfRange);
        }
        let c = U2048::from_be_bytes(ct).map_err(|_| RsaError::OutOfRange)?;
        let em = i2osp(&self.raw(&c)?, self.k);
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::BadPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::BadPadding)?;
        if sep < 8 {
            return Err(RsaError::BadPadding); // PS must be ≥ 8 bytes
        }
        Ok(em[3 + sep..].to_vec())
    }

    /// PKCS#1 v1.5 signature over SHA-256.
    pub fn sign_pkcs1_sha256(&self, msg: &[u8]) -> Result<Vec<u8>, RsaError> {
        let em = emsa_pkcs1_sha256(msg, self.k)?;
        let m = U2048::from_be_bytes(&em).expect("k bytes fit");
        let s = self.raw(&m)?;
        debug_assert_eq!(self.raw_nocrt(&m).expect("in range"), s, "CRT mismatch");
        Ok(i2osp(&s, self.k))
    }
}

/// Integer-to-octet-string, fixed length `k`.
fn i2osp(v: &U2048, k: usize) -> Vec<u8> {
    let full = v.to_be_bytes();
    debug_assert!(full.len() >= k);
    full[full.len() - k..].to_vec()
}

/// EMSA-PKCS1-v1_5 encoding with the SHA-256 DigestInfo prefix.
fn emsa_pkcs1_sha256(msg: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    const PREFIX: [u8; 19] = [
        0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
        0x05, 0x00, 0x04, 0x20,
    ];
    let t_len = PREFIX.len() + Sha256::OUTPUT_LEN;
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = vec![0xffu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    em[k - t_len - 1] = 0x00;
    em[k - t_len..k - Sha256::OUTPUT_LEN].copy_from_slice(&PREFIX);
    em[k - Sha256::OUTPUT_LEN..].copy_from_slice(&Sha256::digest(msg));
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HmacDrbg;

    fn keypair() -> RsaKeyPair {
        let mut rng = HmacDrbg::from_u64(1234);
        RsaKeyPair::generate(&mut rng, 512).unwrap()
    }

    #[test]
    fn keygen_shape() {
        let kp = keypair();
        assert_eq!(kp.public.modulus_len(), 64);
        assert_eq!(kp.public.n, kp.private.n);
        assert_eq!(kp.public.n.modulus().bits(), 512);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair();
        let mut rng = HmacDrbg::from_u64(5);
        for msg in [&b""[..], b"x", b"meter reading 42kWh", &[0u8; 53]] {
            let ct = kp.public.encrypt_pkcs1(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), 64);
            assert_eq!(kp.private.decrypt_pkcs1(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = keypair();
        let mut rng = HmacDrbg::from_u64(6);
        let c1 = kp.public.encrypt_pkcs1(&mut rng, b"same").unwrap();
        let c2 = kp.public.encrypt_pkcs1(&mut rng, b"same").unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn message_length_limit() {
        let kp = keypair();
        let mut rng = HmacDrbg::from_u64(7);
        let max = kp.public.modulus_len() - 11;
        assert!(kp.public.encrypt_pkcs1(&mut rng, &vec![1u8; max]).is_ok());
        assert_eq!(
            kp.public
                .encrypt_pkcs1(&mut rng, &vec![1u8; max + 1])
                .unwrap_err(),
            RsaError::MessageTooLong
        );
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let kp = keypair();
        let mut rng = HmacDrbg::from_u64(8);
        let mut ct = kp.public.encrypt_pkcs1(&mut rng, b"secret").unwrap();
        ct[10] ^= 1;
        // Either padding failure or garbage output — must not return the
        // original message.
        if let Ok(m) = kp.private.decrypt_pkcs1(&ct) {
            assert_ne!(m, b"secret");
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let sig = kp.private.sign_pkcs1_sha256(b"deposit #1").unwrap();
        kp.public.verify_pkcs1_sha256(b"deposit #1", &sig).unwrap();
        assert_eq!(
            kp.public
                .verify_pkcs1_sha256(b"deposit #2", &sig)
                .unwrap_err(),
            RsaError::BadSignature
        );
        let mut bad = sig.clone();
        bad[0] ^= 1;
        assert!(kp.public.verify_pkcs1_sha256(b"deposit #1", &bad).is_err());
    }

    #[test]
    fn cross_key_rejection() {
        let kp1 = keypair();
        let mut rng = HmacDrbg::from_u64(99);
        let kp2 = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let sig = kp1.private.sign_pkcs1_sha256(b"msg").unwrap();
        assert!(kp2.public.verify_pkcs1_sha256(b"msg", &sig).is_err());
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let kp = keypair();
        let bytes = kp.public.to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, kp.public);
        // Parsed key encrypts; original private key decrypts.
        let mut rng = HmacDrbg::from_u64(11);
        let ct = parsed.encrypt_pkcs1(&mut rng, b"via parsed key").unwrap();
        assert_eq!(kp.private.decrypt_pkcs1(&ct).unwrap(), b"via parsed key");
        // Corruption rejected.
        assert!(RsaPublicKey::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // absurd k
        assert!(RsaPublicKey::from_bytes(&bad).is_err());
        let n = bytes.len();
        let mut bad = bytes.clone();
        bad[n - 1] ^= 1; // even exponent
        assert!(RsaPublicKey::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad[n - 9] ^= 1; // even modulus
        assert!(RsaPublicKey::from_bytes(&bad).is_err());
    }

    #[test]
    fn rejects_bad_key_sizes() {
        let mut rng = HmacDrbg::from_u64(1);
        assert!(matches!(
            RsaKeyPair::generate(&mut rng, 100),
            Err(RsaError::BadKeySize)
        ));
        assert!(matches!(
            RsaKeyPair::generate(&mut rng, 4096),
            Err(RsaError::BadKeySize)
        ));
    }
}
