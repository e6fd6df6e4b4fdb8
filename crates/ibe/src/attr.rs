//! The paper's attribute-based hybrid scheme (§V.D).
//!
//! Identities are *attribute strings* plus a per-message nonce:
//! `I = MapToPoint(SHA1(A ‖ Nonce))` — the nonce guarantees a fresh
//! public/private key pair per message, which is what makes revocation work
//! (requirement iii): once the MWS stops mapping an RC to attribute `A`, the
//! RC can never obtain `sI` for any future nonce.
//!
//! The PKG computes `I` and extracts `sI` ([`IbeSystem::attribute_point`]).
//! The encrypting device never clears MapToPoint's cofactor: it pairs `sP`
//! with the uncleared candidate `Q` (`I = h·Q`) and raises the result to
//! `h·r mod q`, which gives the same `K = ê(sP, I)^r` because `ê(sP, ·)` is
//! 1 on points of order prime to `q` (DESIGN D7). It walks the same
//! candidates as MapToPoint and skips the ones MapToPoint skips, so `U`,
//! `K` and the ciphertext bytes are those of the textbook computation.
//!
//! The IBE value keys a symmetric cipher. The paper fixed DES; this
//! implementation keeps DES for fidelity and defaults to AES-128
//! ([`CipherAlgo`], design decision D1), and hardens the symmetric layer to
//! the workspace's one encrypt-then-MAC composition, [`mws_crypto::seal`]
//! (the paper's raw DES offers no integrity; §VIII lists end-to-end
//! integrity as future work — implemented here).

use crate::bf::{IbeSystem, MasterPublic, UserPrivateKey};
use crate::kdf::derive_from_gt;
use crate::IbeError;
use mws_crypto::{open, seal, AeadError, Aes128, BlockCipher, Des, Digest, Rng, Sha1};
use mws_pairing::{Fp2, Point};

/// Symmetric cipher choices for the hybrid layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CipherAlgo {
    /// DES — the paper's cipher (kept for fidelity; 56-bit key).
    Des,
    /// AES-128 (the default).
    Aes128,
}

impl CipherAlgo {
    /// Encryption key length in bytes.
    fn key_len(self) -> usize {
        match self {
            CipherAlgo::Des => 8,
            CipherAlgo::Aes128 => 16,
        }
    }

    /// CTR nonce length: half a block.
    fn nonce_len(self) -> usize {
        match self {
            CipherAlgo::Des => 4,
            CipherAlgo::Aes128 => 8,
        }
    }

    /// Stable wire identifier.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherAlgo::Des => 1,
            CipherAlgo::Aes128 => 3,
        }
    }

    /// Parses a wire identifier; ids 2, 4 and 5 (retired ciphers) are
    /// unknown like any other.
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(CipherAlgo::Des),
            3 => Some(CipherAlgo::Aes128),
            _ => None,
        }
    }
}

const MAC_KEY_LEN: usize = 32;

/// Hybrid attribute ciphertext: `(U, algo, ct ‖ tag)`.
///
/// `U = rP` is the paper's first ciphertext component; the symmetric part is
/// encrypt-then-MAC over `aad ‖ nonce ‖ ct`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrCiphertext {
    /// `U = r·P`.
    pub u: Point,
    /// Cipher used for the payload.
    pub algo: CipherAlgo,
    /// `CTR(ct) ‖ HMAC tag`.
    pub sealed: Vec<u8>,
}

/// Which half of the EtM composition to run: [`seal`] and [`open`] share a
/// signature, so one key derivation serves both.
#[derive(Clone, Copy)]
enum Etm {
    Seal,
    Open,
}

impl Etm {
    fn run<C: BlockCipher>(
        self,
        cipher: &C,
        mac: &[u8],
        nonce: &[u8],
        aad: &[u8],
        data: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        match self {
            Etm::Seal => seal(cipher, mac, nonce, aad, data),
            Etm::Open => open(cipher, mac, nonce, aad, data),
        }
    }
}

/// Seals or opens `data` under the key `K` agreed through the pairing: the
/// `enc ‖ mac ‖ nonce` split of `derive_from_gt(K, "mws-attr-hybrid")`.
fn hybrid(
    ibe: &IbeSystem,
    gt: &Fp2,
    algo: CipherAlgo,
    etm: Etm,
    aad: &[u8],
    data: &[u8],
) -> Result<Vec<u8>, AeadError> {
    let total = algo.key_len() + MAC_KEY_LEN + algo.nonce_len();
    let okm = derive_from_gt(ibe.pairing(), gt, "mws-attr-hybrid", total);
    let (enc, rest) = okm.split_at(algo.key_len());
    let (mac, nonce) = rest.split_at(MAC_KEY_LEN);
    match algo {
        CipherAlgo::Des => etm.run(&Des::new(enc)?, mac, nonce, aad, data),
        CipherAlgo::Aes128 => etm.run(&Aes128::new(enc)?, mac, nonce, aad, data),
    }
}

/// `SHA1(A ‖ "|" ‖ Nonce)`: what MapToPoint hashes for an attribute
/// identity, on the PKG's side and the device's alike.
///
/// SHA-1 is retained here *solely* because the paper's protocol specifies
/// it (§V.D); MapToPoint re-hashes with SHA-256 internally.
fn attribute_digest(attribute: &str, nonce: &[u8]) -> Vec<u8> {
    Sha1::digest_parts(&[attribute.as_bytes(), b"|", nonce])
}

impl IbeSystem {
    /// The per-message identity point `I = MapToPoint(SHA1(A ‖ Nonce))` —
    /// what the PKG extracts `sI` for.
    pub fn attribute_point(&self, attribute: &str, nonce: &[u8]) -> Point {
        self.pairing()
            .hash_to_point(&attribute_digest(attribute, nonce))
    }

    /// SD-side encryption: one IBE operation regardless of how many RCs will
    /// eventually read the message.
    ///
    /// `aad` is authenticated but not encrypted (the protocol passes
    /// `A ‖ Nonce ‖ ID_SD ‖ T` here so the stored header is tamper-evident
    /// end-to-end, not just on the SD–MWS hop).
    ///
    /// The device never computes `I` itself: it pairs `sP` with
    /// MapToPoint's uncleared candidates and folds the cofactor into its
    /// exponent (DESIGN D7); the ciphertext is the one `I` would give.
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
        let ctx = self.pairing();
        let digest = attribute_digest(attribute, nonce);
        let candidates = (0..=u32::MAX).map(|counter| ctx.map_candidate(&digest, counter));
        let (u, k) = self.compose(rng, mpk, candidates);
        let sealed = hybrid(self, &k, algo, Etm::Seal, aad, msg).expect("derived key lengths");
        AttrCiphertext { u, algo, sealed }
    }

    /// The device's key agreement without the cofactor: `U = rP` and
    /// `K = ê(sP, Q)^(h·r mod q)` for the first candidate `Q` whose pairing
    /// with `sP` is not 1.
    ///
    /// That is `ê(sP, I)^r` for `I = h·Q` — the value the receiver's
    /// `ê(sI, U)` gives — because `ê(sP, ·)` is 1 on every point whose
    /// order is prime to `q`. For the same reason `ê(sP, Q) = 1` exactly
    /// when `h·Q = O`, the one case in which MapToPoint moves to the next
    /// candidate, so this skips the candidates [`Self::attribute_point`]
    /// skips. `r` is drawn first, as before, so the bytes of `U` and the
    /// sealed payload are those of `ê(sP, I)^r` with `I` computed.
    ///
    /// Both steps that touch `r` — the fixed-base `r·P` and `g^(h·r mod q)`
    /// — run the same field operations whatever `r` is (DESIGN D8).
    fn compose<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        candidates: impl IntoIterator<Item = Option<Point>>,
    ) -> (Point, Fp2) {
        let ctx = self.pairing();
        let r = ctx.random_scalar(rng);
        let u = ctx.mul_generator(&r);
        // ê(sP, Q), with sP's prepared Miller tape by symmetry.
        let one = ctx.field().fp2_one();
        let g = candidates
            .into_iter()
            .flatten()
            .map(|q| ctx.pairing_with(mpk.prepared(ctx), &q))
            .find(|g| *g != one)
            .expect("map-to-point exhausted");
        (u, ctx.gt_pow(&g, &ctx.cofactor_times(&r)))
    }

    /// RC-side decryption with the private key `sI` obtained from the PKG.
    pub fn decrypt_attr(
        &self,
        sk: &UserPrivateKey,
        ct: &AttrCiphertext,
        aad: &[u8],
    ) -> Result<Vec<u8>, IbeError> {
        // K = ê(sI, U) = ê(sI, rP)
        let ctx = self.pairing();
        if ct.u.is_infinity() || !ctx.field().is_on_curve(&ct.u) {
            return Err(IbeError::InvalidPoint);
        }
        let g = ctx.pairing(sk.point(), &ct.u);
        hybrid(self, &g, ct.algo, Etm::Open, aad, &ct.sealed)
            .map_err(|_| IbeError::InvalidCiphertext)
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

    const ALGOS: [CipherAlgo; 2] = [CipherAlgo::Des, CipherAlgo::Aes128];

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
        assert_eq!(CipherAlgo::Des.wire_id(), 1);
        assert_eq!(CipherAlgo::Aes128.wire_id(), 3);
        for retired_or_unknown in [0, 2, 4, 5, 99, 255] {
            assert_eq!(CipherAlgo::from_wire_id(retired_or_unknown), None);
        }
    }

    #[test]
    fn empty_message_roundtrip() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(6);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(&mut rng, &mpk, "A", b"n", CipherAlgo::Des, b"h", b"");
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("A", b"n"));
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"h").unwrap(), b"");
    }

    /// A candidate in the `h`-torsion — here `(0, 0)`, of order 2 — pairs
    /// to 1 with `sP`, and its `h`-multiple is the point at infinity: the
    /// compose skips it exactly where MapToPoint re-hashes, and the next
    /// candidate's key opens under the PKG's `extract_point` of the point
    /// MapToPoint gives.
    #[test]
    fn compose_skips_a_torsion_candidate_where_map_to_point_rehashes() {
        for level in [SecurityLevel::Toy, SecurityLevel::Light] {
            let ibe = IbeSystem::named(level);
            let ctx = ibe.pairing();
            let mut rng = HmacDrbg::from_u64(0x7025);
            let (msk, mpk) = ibe.setup(&mut rng);
            let mut order_two = vec![0x02];
            order_two.resize(1 + 8 * mws_pairing::FP_LIMBS, 0);
            let torsion = ctx.field().point_from_bytes(&order_two).unwrap();
            assert!(ctx.mul(&torsion, ctx.cofactor()).is_infinity(), "rehash");
            let one = ctx.field().fp2_one();
            assert_eq!(ctx.pairing_with(mpk.prepared(ctx), &torsion), one);

            let digest = attribute_digest("GAS-APT-SV-CA", b"7");
            let real = ctx.map_candidate(&digest, 0).expect("f(x) ≠ 0");
            let i_pt = ibe.attribute_point("GAS-APT-SV-CA", b"7");
            assert_eq!(ctx.mul(&real, ctx.cofactor()), i_pt);

            let composed = |candidates: Vec<Option<Point>>| {
                ibe.compose(&mut HmacDrbg::from_u64(11), &mpk, candidates)
            };
            let (u, k) = composed(vec![None, Some(torsion), Some(real)]);
            assert_eq!((u, k), composed(vec![Some(real)]), "skipped, same r");
            let sealed = hybrid(&ibe, &k, CipherAlgo::Aes128, Etm::Seal, b"h", b"m").unwrap();
            let ct = AttrCiphertext {
                u,
                algo: CipherAlgo::Aes128,
                sealed,
            };
            let sk = ibe.extract_point(&msk, &i_pt);
            assert_eq!(ibe.decrypt_attr(&sk, &ct, b"h").unwrap(), b"m", "{level:?}");
        }
    }

    /// `decrypt_attr` checks curve membership, not the subgroup: a `U`
    /// with a component `q·R` of order prime to `q` added still opens,
    /// because `ê(sI, ·)` is 1 on such points and `K` does not move.
    #[test]
    fn off_subgroup_u_component_is_invisible() {
        for level in [SecurityLevel::Toy, SecurityLevel::Light] {
            let ibe = IbeSystem::named(level);
            let ctx = ibe.pairing();
            let mut rng = HmacDrbg::from_u64(0x4f4f53);
            let (msk, mpk) = ibe.setup(&mut rng);
            let mut ct = ibe.encrypt_attr(&mut rng, &mpk, "A", b"n", CipherAlgo::Aes128, b"", b"m");
            let small = loop {
                let r = ctx.field().random_curve_point(&mut rng);
                let t = ctx.mul(&r, ctx.group_order());
                if !t.is_infinity() {
                    break t;
                }
            };
            ct.u = ctx.add(&ct.u, &small);
            assert!(!ctx.in_subgroup(&ct.u), "{level:?}: U left the subgroup");
            let sk = ibe.extract_point(&msk, &ibe.attribute_point("A", b"n"));
            assert_eq!(ibe.decrypt_attr(&sk, &ct, b"").unwrap(), b"m", "{level:?}");
        }
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
