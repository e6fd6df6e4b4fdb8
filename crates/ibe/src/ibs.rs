//! Pairing-based signatures — paper §VIII future work.
//!
//! "There may be a possibility of the SD to use IBE and the ID of the MWS to
//! sign a message." Two schemes over the same pairing:
//!
//! * [`BlsKeyPair`] — plain BLS short signatures (`σ = x·H(m)`,
//!   `ê(σ, P) == ê(H(m), xP)`): the modern choice when a device holds its
//!   own keypair.
//! * Cha–Cheon **identity-based** signatures: the device's signing key is
//!   `d_ID = s·Q_ID`, extracted by the PKG exactly like a decryption key, so
//!   a verifier needs only the system parameters and the signer's *identity
//!   string* — no per-device certificate, matching the paper's constraint
//!   that smart devices cannot manage certificates.

use crate::bf::{IbeSystem, MasterPublic, UserPrivateKey};
use crate::IbeError;
use mws_bigint::Uint;
use mws_crypto::{kdf, Rng, Sha256};
use mws_pairing::{FpW, Point};

/// A BLS keypair `(x, xP)`.
#[derive(Clone)]
pub struct BlsKeyPair {
    sk: FpW,
    /// Public key `xP`.
    pub pk: Point,
}

impl core::fmt::Debug for BlsKeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BlsKeyPair {{ pk: {:?}, .. }}", self.pk)
    }
}

/// A Cha–Cheon identity-based signature `(U, V)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IbsSignature {
    /// `U = r·Q_ID`.
    pub u: Point,
    /// `V = (r + h)·d_ID`.
    pub v: Point,
}

/// Hashes `(m, U)` to a scalar in `Z_q` (Cha–Cheon's `H`).
fn h_scalar(ibe: &IbeSystem, msg: &[u8], u: &Point) -> FpW {
    let u_bytes = ibe.pairing().field().point_to_bytes(u);
    let okm = kdf::<Sha256>(
        &[msg, &u_bytes].concat(),
        "cha-cheon-h",
        8 * mws_pairing::FP_LIMBS,
    );
    let v = FpW::from_be_bytes(&okm).expect("exact width");
    let r = v.rem(ibe.pairing().group_order());
    if r.is_zero() {
        Uint::ONE
    } else {
        r
    }
}

impl IbeSystem {
    /// Generates a BLS keypair (fixed-base comb multiplication).
    pub fn bls_keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> BlsKeyPair {
        let sk = self.pairing().random_scalar(rng);
        let pk = self.pairing().mul_generator(&sk);
        BlsKeyPair { sk, pk }
    }

    /// BLS sign: `σ = x·H(m)`.
    pub fn bls_sign(&self, kp: &BlsKeyPair, msg: &[u8]) -> Point {
        let h = self.pairing().hash_to_point(msg);
        self.pairing().mul(&h, &kp.sk)
    }

    /// BLS verify: `ê(σ, P) == ê(H(m), pk)`.
    pub fn bls_verify(&self, pk: &Point, msg: &[u8], sig: &Point) -> Result<(), IbeError> {
        let ctx = self.pairing();
        if sig.is_infinity() || !ctx.field().is_on_curve(sig) {
            return Err(IbeError::BadSignature);
        }
        let h = ctx.hash_to_point(msg);
        // ê(σ, P) = ê(P, σ) by symmetry: use the cached generator tape.
        let lhs = ctx.pairing_with(ctx.prepared_generator(), sig);
        let rhs = ctx.pairing(&h, pk);
        if lhs == rhs {
            Ok(())
        } else {
            Err(IbeError::BadSignature)
        }
    }

    /// Cha–Cheon identity-based signing with an extracted key `d_ID`.
    pub fn ibs_sign<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        id: &[u8],
        d_id: &UserPrivateKey,
        msg: &[u8],
    ) -> IbsSignature {
        let ctx = self.pairing();
        let q_id = self.identity_point(id);
        let r = ctx.random_scalar(rng);
        let u = ctx.mul(&q_id, &r);
        let h = h_scalar(self, msg, &u);
        let rh = r.add_mod(&h, ctx.group_order());
        let v = ctx.mul(d_id.point(), &rh);
        IbsSignature { u, v }
    }

    /// Cha–Cheon verification: `ê(V, P) == ê(U + h·Q_ID, P_pub)`.
    pub fn ibs_verify(
        &self,
        mpk: &MasterPublic,
        id: &[u8],
        msg: &[u8],
        sig: &IbsSignature,
    ) -> Result<(), IbeError> {
        let ctx = self.pairing();
        for p in [&sig.u, &sig.v] {
            if !ctx.field().is_on_curve(p) {
                return Err(IbeError::BadSignature);
            }
        }
        let q_id = self.identity_point(id);
        let h = h_scalar(self, msg, &sig.u);
        // Both sides by symmetry against fixed prepared points: the
        // generator's cached tape and P_pub's (held by the MasterPublic).
        let lhs = ctx.pairing_with(ctx.prepared_generator(), &sig.v);
        let inner = ctx.add(&sig.u, &ctx.mul(&q_id, &h));
        let rhs = ctx.pairing_with(mpk.prepared(ctx), &inner);
        if lhs == rhs {
            Ok(())
        } else {
            Err(IbeError::BadSignature)
        }
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

    #[test]
    fn bls_roundtrip() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let kp = ibe.bls_keygen(&mut rng);
        let sig = ibe.bls_sign(&kp, b"deposit: meter 7, 42kWh");
        ibe.bls_verify(&kp.pk, b"deposit: meter 7, 42kWh", &sig)
            .unwrap();
    }

    #[test]
    fn bls_rejects_wrong_message_or_key() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(2);
        let kp = ibe.bls_keygen(&mut rng);
        let kp2 = ibe.bls_keygen(&mut rng);
        let sig = ibe.bls_sign(&kp, b"m1");
        assert!(ibe.bls_verify(&kp.pk, b"m2", &sig).is_err());
        assert!(ibe.bls_verify(&kp2.pk, b"m1", &sig).is_err());
        assert!(ibe.bls_verify(&kp.pk, b"m1", &Point::Infinity).is_err());
    }

    #[test]
    fn bls_signature_is_deterministic() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(3);
        let kp = ibe.bls_keygen(&mut rng);
        assert_eq!(ibe.bls_sign(&kp, b"m"), ibe.bls_sign(&kp, b"m"));
    }

    #[test]
    fn ibs_roundtrip() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(4);
        let (msk, mpk) = ibe.setup(&mut rng);
        let d = ibe.extract(&msk, b"meter-00017");
        let sig = ibe.ibs_sign(&mut rng, b"meter-00017", &d, b"reading 42");
        ibe.ibs_verify(&mpk, b"meter-00017", b"reading 42", &sig)
            .unwrap();
    }

    #[test]
    fn ibs_rejects_forgery_attempts() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(5);
        let (msk, mpk) = ibe.setup(&mut rng);
        let d = ibe.extract(&msk, b"meter-1");
        let sig = ibe.ibs_sign(&mut rng, b"meter-1", &d, b"m");
        // Wrong message.
        assert!(ibe.ibs_verify(&mpk, b"meter-1", b"m2", &sig).is_err());
        // Wrong claimed identity.
        assert!(ibe.ibs_verify(&mpk, b"meter-2", b"m", &sig).is_err());
        // Key for another identity cannot sign as meter-1.
        let d2 = ibe.extract(&msk, b"meter-2");
        let forged = ibe.ibs_sign(&mut rng, b"meter-1", &d2, b"m");
        assert!(ibe.ibs_verify(&mpk, b"meter-1", b"m", &forged).is_err());
        // Wrong system (different master key).
        let (_, mpk2) = ibe.setup(&mut rng);
        assert!(ibe.ibs_verify(&mpk2, b"meter-1", b"m", &sig).is_err());
    }

    #[test]
    fn ibs_randomized_but_both_verify() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(6);
        let (msk, mpk) = ibe.setup(&mut rng);
        let d = ibe.extract(&msk, b"id");
        let s1 = ibe.ibs_sign(&mut rng, b"id", &d, b"m");
        let s2 = ibe.ibs_sign(&mut rng, b"id", &d, b"m");
        assert_ne!(s1, s2);
        ibe.ibs_verify(&mpk, b"id", b"m", &s1).unwrap();
        ibe.ibs_verify(&mpk, b"id", b"m", &s2).unwrap();
    }
}
