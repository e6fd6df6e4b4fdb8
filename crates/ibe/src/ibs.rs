//! Identity-based signatures — paper §VIII future work.
//!
//! "There may be a possibility of the SD to use IBE and the ID of the MWS to
//! sign a message." This is the one signature scheme the system runs, over
//! the same pairing: Cha–Cheon **identity-based** signatures. The device's
//! signing key is `d_ID = s·Q_ID`, extracted by the PKG exactly like a
//! decryption key, so a verifier needs only the system parameters and the
//! signer's *identity string* — no per-device certificate, matching the
//! paper's constraint that smart devices cannot manage certificates. The
//! SDA verifies device deposits with it, and the sealed transport's
//! handshake signs with it.

use crate::bf::{IbeSystem, MasterPublic, UserPrivateKey};
use crate::IbeError;
use mws_bigint::Uint;
use mws_crypto::{kdf, Rng};
use mws_pairing::{FpW, Point};

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
    let okm = kdf(
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
