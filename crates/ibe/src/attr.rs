//! The paper's attribute-based hybrid scheme (§V.D).
//!
//! Identities are *attribute strings* plus a per-message nonce:
//! `I = MapToPoint(SHA1(A ‖ Nonce))` — the nonce guarantees a fresh
//! public/private key pair per message, which is what makes revocation work
//! (requirement iii): once the MWS stops mapping an RC to attribute `A`, the
//! RC can never obtain `sI` for any future nonce.
//!
//! The IBE value keys a symmetric cipher. The paper fixed DES; this
//! implementation parameterizes the cipher ([`CipherAlgo`], design decision
//! D1) and hardens the symmetric layer to encrypt-then-MAC (the paper's raw
//! DES-CBC offers no integrity; §VIII lists end-to-end integrity as future
//! work — implemented here).

use crate::bf::{IbeSystem, MasterPublic, UserPrivateKey};
use crate::kdf::derive_from_gt;
use crate::IbeError;
use mws_crypto::{
    ct_eq, Aes128, Aes256, ChaCha20, CtrMode, Des, Digest, Hmac, Rng, Sha1, Sha256, TripleDes,
};
use mws_pairing::Point;

/// Symmetric cipher choices for the hybrid layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CipherAlgo {
    /// DES — the paper's cipher (kept for fidelity; 56-bit key).
    Des,
    /// Triple-DES EDE.
    TripleDes,
    /// AES-128 (the recommended default).
    Aes128,
    /// AES-256.
    Aes256,
    /// ChaCha20 stream cipher.
    ChaCha20,
}

impl CipherAlgo {
    /// Encryption key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            CipherAlgo::Des => 8,
            CipherAlgo::TripleDes => 24,
            CipherAlgo::Aes128 => 16,
            CipherAlgo::Aes256 => 32,
            CipherAlgo::ChaCha20 => 32,
        }
    }

    /// Nonce length for the chosen mode.
    fn nonce_len(self) -> usize {
        match self {
            CipherAlgo::Des | CipherAlgo::TripleDes => 4, // CTR: half block
            CipherAlgo::Aes128 | CipherAlgo::Aes256 => 8,
            CipherAlgo::ChaCha20 => 12,
        }
    }

    /// Stable wire identifier.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherAlgo::Des => 1,
            CipherAlgo::TripleDes => 2,
            CipherAlgo::Aes128 => 3,
            CipherAlgo::Aes256 => 4,
            CipherAlgo::ChaCha20 => 5,
        }
    }

    /// Parses a wire identifier.
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            1 => CipherAlgo::Des,
            2 => CipherAlgo::TripleDes,
            3 => CipherAlgo::Aes128,
            4 => CipherAlgo::Aes256,
            5 => CipherAlgo::ChaCha20,
            _ => return None,
        })
    }
}

const MAC_KEY_LEN: usize = 32;
const TAG_LEN: usize = 32;

/// Hybrid attribute ciphertext: `(U, algo, ct ‖ tag)`.
///
/// `U = rP` is the paper's first ciphertext component; the symmetric part is
/// encrypt-then-MAC over `aad ‖ ct`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrCiphertext {
    /// `U = r·P`.
    pub u: Point,
    /// Cipher used for the payload.
    pub algo: CipherAlgo,
    /// `CTR(ct) ‖ HMAC tag`.
    pub sealed: Vec<u8>,
}

/// Derived key material for one message.
struct Keys {
    enc: Vec<u8>,
    mac: Vec<u8>,
    nonce: Vec<u8>,
}

fn derive_keys(ibe: &IbeSystem, gt: &mws_pairing::Fp2, algo: CipherAlgo) -> Keys {
    let total = algo.key_len() + MAC_KEY_LEN + algo.nonce_len();
    let okm = derive_from_gt(ibe.pairing(), gt, "mws-attr-hybrid", total);
    let (enc, rest) = okm.split_at(algo.key_len());
    let (mac, nonce) = rest.split_at(MAC_KEY_LEN);
    Keys {
        enc: enc.to_vec(),
        mac: mac.to_vec(),
        nonce: nonce.to_vec(),
    }
}

fn ctr_apply(algo: CipherAlgo, keys: &Keys, data: &mut [u8]) {
    match algo {
        CipherAlgo::Des => {
            let c = Des::new(&keys.enc).expect("derived key length");
            CtrMode::apply(&c, &keys.nonce, data).expect("derived nonce length");
        }
        CipherAlgo::TripleDes => {
            let c = TripleDes::new(&keys.enc).expect("derived key length");
            CtrMode::apply(&c, &keys.nonce, data).expect("derived nonce length");
        }
        CipherAlgo::Aes128 => {
            let c = Aes128::new(&keys.enc).expect("derived key length");
            CtrMode::apply(&c, &keys.nonce, data).expect("derived nonce length");
        }
        CipherAlgo::Aes256 => {
            let c = Aes256::new(&keys.enc).expect("derived key length");
            CtrMode::apply(&c, &keys.nonce, data).expect("derived nonce length");
        }
        CipherAlgo::ChaCha20 => {
            let mut c = ChaCha20::new(&keys.enc, &keys.nonce, 1).expect("derived lengths");
            c.apply_keystream(data);
        }
    }
}

impl IbeSystem {
    /// The per-message identity point `I = MapToPoint(SHA1(A ‖ Nonce))`.
    ///
    /// SHA-1 is retained here *solely* because the paper's protocol
    /// specifies it (§V.D); the subsequent MapToPoint re-hashes with
    /// SHA-256 internally.
    pub fn attribute_point(&self, attribute: &str, nonce: &[u8]) -> Point {
        let digest = Sha1::digest_parts(&[attribute.as_bytes(), b"|", nonce]);
        self.pairing().hash_to_point(&digest)
    }

    /// SD-side encryption: one IBE operation regardless of how many RCs will
    /// eventually read the message.
    ///
    /// `aad` is authenticated but not encrypted (the protocol passes
    /// `A ‖ Nonce ‖ ID_SD ‖ T` here so the stored header is tamper-evident
    /// end-to-end, not just on the SD–MWS hop).
    #[allow(clippy::too_many_arguments)] // mirrors the protocol field list
    pub fn encrypt_attr<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        attribute: &str,
        nonce: &[u8],
        algo: CipherAlgo,
        aad: &[u8],
        msg: &[u8],
    ) -> AttrCiphertext {
        let i_pt = self.attribute_point(attribute, nonce);
        let ctx = self.pairing();
        let r = ctx.random_scalar(rng);
        let u = ctx.mul_generator(&r);
        // K = ê(I, sP)^r  (== ê(rP, sI) on the receiving side), with sP's
        // prepared Miller tape by symmetry.
        let g = ctx.pairing_with(mpk.prepared(ctx), &i_pt);
        let gr = ctx.field().fp2_pow(&g, &r);
        let keys = derive_keys(self, &gr, algo);
        let mut sealed = msg.to_vec();
        ctr_apply(algo, &keys, &mut sealed);
        let tag = Hmac::<Sha256>::mac_parts(&keys.mac, &[aad, &keys.nonce, &sealed]);
        sealed.extend_from_slice(&tag);
        AttrCiphertext { u, algo, sealed }
    }

    /// RC-side decryption with the private key `sI` obtained from the PKG.
    pub fn decrypt_attr(
        &self,
        sk: &UserPrivateKey,
        ct: &AttrCiphertext,
        aad: &[u8],
    ) -> Result<Vec<u8>, IbeError> {
        // K = ê(sI, U) = ê(sI, rP)
        let g = {
            let ctx = self.pairing();
            if ct.u.is_infinity() || !ctx.field().is_on_curve(&ct.u) {
                return Err(IbeError::InvalidPoint);
            }
            ctx.pairing(sk.point(), &ct.u)
        };
        self.decrypt_attr_tail(&g, ct, aad)
    }

    /// RC-side decryption with a prepared key (see
    /// [`crate::bf::DecryptionKey`]) — same result as
    /// [`Self::decrypt_attr`], skipping the per-call Miller point
    /// arithmetic. Pays off when one extracted key decrypts many messages.
    pub fn decrypt_attr_prepared(
        &self,
        dk: &crate::bf::DecryptionKey,
        ct: &AttrCiphertext,
        aad: &[u8],
    ) -> Result<Vec<u8>, IbeError> {
        let g = {
            let ctx = self.pairing();
            if ct.u.is_infinity() || !ctx.field().is_on_curve(&ct.u) {
                return Err(IbeError::InvalidPoint);
            }
            ctx.pairing_with(dk.prepared(), &ct.u)
        };
        self.decrypt_attr_tail(&g, ct, aad)
    }

    /// Key derivation, MAC verification, and payload decryption shared by
    /// the plain and prepared decrypt paths.
    fn decrypt_attr_tail(
        &self,
        g: &mws_pairing::Fp2,
        ct: &AttrCiphertext,
        aad: &[u8],
    ) -> Result<Vec<u8>, IbeError> {
        if ct.sealed.len() < TAG_LEN {
            return Err(IbeError::InvalidCiphertext);
        }
        let keys = derive_keys(self, g, ct.algo);
        let (body, tag) = ct.sealed.split_at(ct.sealed.len() - TAG_LEN);
        let expect = Hmac::<Sha256>::mac_parts(&keys.mac, &[aad, &keys.nonce, body]);
        if !ct_eq(&expect, tag) {
            return Err(IbeError::InvalidCiphertext);
        }
        let mut msg = body.to_vec();
        ctr_apply(ct.algo, &keys, &mut msg);
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::HmacDrbg;
    use mws_pairing::SecurityLevel;

    fn system() -> IbeSystem {
        IbeSystem::named(SecurityLevel::Toy)
    }

    const ALGOS: [CipherAlgo; 5] = [
        CipherAlgo::Des,
        CipherAlgo::TripleDes,
        CipherAlgo::Aes128,
        CipherAlgo::Aes256,
        CipherAlgo::ChaCha20,
    ];

    #[test]
    fn roundtrip_every_cipher() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        for algo in ALGOS {
            let ct = ibe.encrypt_attr(
                &mut rng,
                &mpk,
                "ELECTRIC-APT-SV-CA",
                b"nonce-123",
                algo,
                b"header",
                b"reading=42.7kWh",
            );
            let i_pt = ibe.attribute_point("ELECTRIC-APT-SV-CA", b"nonce-123");
            let sk = ibe.extract_point(&msk, &i_pt);
            assert_eq!(
                ibe.decrypt_attr(&sk, &ct, b"header").unwrap(),
                b"reading=42.7kWh",
                "{algo:?}"
            );
        }
    }

    #[test]
    fn prepared_decrypt_matches_plain() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(0x50524550);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(
            &mut rng,
            &mpk,
            "ELECTRIC-APT-SV-CA",
            b"nonce-9",
            CipherAlgo::Aes128,
            b"hdr",
            b"reading=7",
        );
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("ELECTRIC-APT-SV-CA", b"nonce-9"));
        let dk = ibe.prepare_key(&sk);
        assert_eq!(
            ibe.decrypt_attr_prepared(&dk, &ct, b"hdr").unwrap(),
            ibe.decrypt_attr(&sk, &ct, b"hdr").unwrap()
        );
        let mut bad = ct;
        bad.sealed[0] ^= 1;
        assert!(ibe.decrypt_attr_prepared(&dk, &bad, b"hdr").is_err());
    }

    #[test]
    fn key_for_other_attribute_fails() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(2);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(
            &mut rng,
            &mpk,
            "ELECTRIC-X",
            b"n1",
            CipherAlgo::Aes128,
            b"",
            b"m",
        );
        // Wrong attribute.
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("WATER-X", b"n1"));
        assert!(ibe.decrypt_attr(&sk, &ct, b"").is_err());
        // Right attribute, wrong nonce — the revocation property.
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("ELECTRIC-X", b"n2"));
        assert!(ibe.decrypt_attr(&sk, &ct, b"").is_err());
    }

    #[test]
    fn aad_is_bound() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(3);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(
            &mut rng,
            &mpk,
            "A",
            b"n",
            CipherAlgo::Aes128,
            b"attr=A",
            b"m",
        );
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("A", b"n"));
        assert!(ibe.decrypt_attr(&sk, &ct, b"attr=B").is_err());
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"attr=A").unwrap(), b"m");
    }

    #[test]
    fn tamper_detection() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(4);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(
            &mut rng,
            &mpk,
            "A",
            b"n",
            CipherAlgo::Des,
            b"",
            b"important",
        );
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("A", b"n"));
        for i in 0..ct.sealed.len() {
            let mut bad = ct.clone();
            bad.sealed[i] ^= 1;
            assert_eq!(
                ibe.decrypt_attr(&sk, &bad, b"").unwrap_err(),
                IbeError::InvalidCiphertext,
                "byte {i}"
            );
        }
    }

    #[test]
    fn per_message_freshness() {
        // Same attribute+nonce, two encryptions: different U and ciphertext.
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(5);
        let (_, mpk) = ibe.setup(&mut rng);
        let c1 = ibe.encrypt_attr(&mut rng, &mpk, "A", b"n", CipherAlgo::Aes128, b"", b"m");
        let c2 = ibe.encrypt_attr(&mut rng, &mpk, "A", b"n", CipherAlgo::Aes128, b"", b"m");
        assert_ne!(c1.u, c2.u);
        assert_ne!(c1.sealed, c2.sealed);
    }

    #[test]
    fn wire_ids_roundtrip() {
        for algo in ALGOS {
            assert_eq!(CipherAlgo::from_wire_id(algo.wire_id()), Some(algo));
        }
        assert_eq!(CipherAlgo::from_wire_id(0), None);
        assert_eq!(CipherAlgo::from_wire_id(99), None);
    }

    #[test]
    fn empty_message_roundtrip() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(6);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(&mut rng, &mpk, "A", b"n", CipherAlgo::ChaCha20, b"h", b"");
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("A", b"n"));
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"h").unwrap(), b"");
    }

    #[test]
    fn attribute_point_is_deterministic_and_nonce_sensitive() {
        let ibe = system();
        assert_eq!(
            ibe.attribute_point("GAS-APT-SV-CA", b"7"),
            ibe.attribute_point("GAS-APT-SV-CA", b"7")
        );
        assert_ne!(
            ibe.attribute_point("GAS-APT-SV-CA", b"7"),
            ibe.attribute_point("GAS-APT-SV-CA", b"8")
        );
    }
}
