//! FullIdent: the CCA-secure Boneh–Franklin variant via the
//! Fujisaki–Okamoto transform (design decision D2).
//!
//! BasicIdent (what the paper describes) is only CPA-secure; an active MWS
//! could mall ciphertexts. FullIdent derandomizes `r` from the message so the
//! receiver can re-encrypt and reject anything not honestly generated:
//!
//! ```text
//! Encrypt: σ ←$ {0,1}²⁵⁶;  r = H₃(σ ‖ M);  U = rP
//!          V = σ ⊕ H₂(ê(Q_ID, P_pub)^r);  W = M ⊕ H₄(σ)
//! Decrypt: σ = V ⊕ H₂(ê(d_ID, U));  M = W ⊕ H₄(σ)
//!          reject unless U == H₃(σ ‖ M)·P
//! ```

use crate::bf::{IbeSystem, MasterPublic, UserPrivateKey};
use crate::kdf::{xor_into, xor_pad};
use crate::IbeError;
use mws_bigint::Uint;
use mws_crypto::{kdf, Rng, Sha256};
use mws_pairing::{FpW, Point};

/// FullIdent ciphertext `(U, V, W)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FullCiphertext {
    /// `U = r·P` with `r = H₃(σ ‖ M)`.
    pub u: Point,
    /// `V = σ ⊕ H₂(g^r)` (32 bytes).
    pub v: [u8; 32],
    /// `W = M ⊕ H₄(σ)`.
    pub w: Vec<u8>,
}

/// `H₃`: hashes `σ ‖ M` to a nonzero scalar mod `q`.
fn h3(ibe: &IbeSystem, sigma: &[u8; 32], msg: &[u8]) -> FpW {
    // Expand to full width then reduce — same bias trade-off as MapToPoint.
    let okm = kdf::<Sha256>(
        &[sigma.as_slice(), msg].concat(),
        "bf-h3-scalar",
        8 * mws_pairing::FP_LIMBS,
    );
    let v = FpW::from_be_bytes(&okm).expect("exact width");
    let q = ibe.pairing().group_order();
    let r = v.rem(q);
    if r.is_zero() {
        // Astronomically unlikely; map to 1 to keep the function total.
        Uint::ONE
    } else {
        r
    }
}

/// `H₄`: stretches σ to a message-length pad.
fn h4(sigma: &[u8; 32], len: usize) -> Vec<u8> {
    kdf::<Sha256>(sigma, "bf-h4-pad", len)
}

impl IbeSystem {
    /// FullIdent encryption.
    pub fn encrypt_full<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        id: &[u8],
        msg: &[u8],
    ) -> FullCiphertext {
        let q_id = self.identity_point(id);
        self.encrypt_full_point(rng, mpk, &q_id, msg)
    }

    /// FullIdent encryption to a pre-mapped identity point.
    pub fn encrypt_full_point<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        q_id: &Point,
        msg: &[u8],
    ) -> FullCiphertext {
        let mut sigma = [0u8; 32];
        rng.fill_bytes(&mut sigma);
        let r = h3(self, &sigma, msg);
        let ctx = self.pairing();
        let u = ctx.mul_generator(&r);
        // ê(Q_ID, P_pub) via P_pub's prepared tape (pairing symmetry).
        let g = ctx.pairing_with(mpk.prepared(ctx), q_id);
        let gr = ctx.field().fp2_pow(&g, &r);
        let mut v = sigma;
        xor_into(&mut v, &xor_pad(ctx, &gr, 32));
        let mut w = msg.to_vec();
        let pad = h4(&sigma, w.len());
        xor_into(&mut w, &pad);
        FullCiphertext { u, v, w }
    }

    /// FullIdent decryption with the FO re-encryption check.
    pub fn decrypt_full(
        &self,
        sk: &UserPrivateKey,
        ct: &FullCiphertext,
    ) -> Result<Vec<u8>, IbeError> {
        let ctx = self.pairing();
        if ct.u.is_infinity() || !ctx.field().is_on_curve(&ct.u) {
            return Err(IbeError::InvalidPoint);
        }
        let g = ctx.pairing(sk.point(), &ct.u);
        self.decrypt_full_tail(&g, ct)
    }

    /// FullIdent decryption with a prepared key — same result as
    /// [`Self::decrypt_full`] without the per-call Miller point arithmetic.
    pub fn decrypt_full_prepared(
        &self,
        dk: &crate::bf::DecryptionKey,
        ct: &FullCiphertext,
    ) -> Result<Vec<u8>, IbeError> {
        let ctx = self.pairing();
        if ct.u.is_infinity() || !ctx.field().is_on_curve(&ct.u) {
            return Err(IbeError::InvalidPoint);
        }
        let g = ctx.pairing_with(dk.prepared(), &ct.u);
        self.decrypt_full_tail(&g, ct)
    }

    /// Unmasks σ and M from the pairing value and runs the FO re-encryption
    /// check (`U == H₃(σ ‖ M)·P`, via the generator comb table).
    fn decrypt_full_tail(
        &self,
        g: &mws_pairing::Fp2,
        ct: &FullCiphertext,
    ) -> Result<Vec<u8>, IbeError> {
        let ctx = self.pairing();
        let mut sigma = ct.v;
        xor_into(&mut sigma, &xor_pad(ctx, g, 32));
        let mut msg = ct.w.clone();
        let pad = h4(&sigma, msg.len());
        xor_into(&mut msg, &pad);
        // FO check: recompute r and verify U.
        let r = h3(self, &sigma, &msg);
        if ctx.mul_generator(&r) != ct.u {
            return Err(IbeError::InvalidCiphertext);
        }
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

    #[test]
    fn roundtrip() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_full(&mut rng, &mpk, b"carol", b"the readings");
        let sk = ibe.extract(&msk, b"carol");
        assert_eq!(ibe.decrypt_full(&sk, &ct).unwrap(), b"the readings");
    }

    #[test]
    fn tampering_is_rejected_not_garbled() {
        // The CCA property BasicIdent lacks: any bit flip must be *rejected*.
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(2);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_full(&mut rng, &mpk, b"carol", b"pay 100 to bob");
        let sk = ibe.extract(&msk, b"carol");

        let mut bad = ct.clone();
        bad.w[0] ^= 1;
        assert_eq!(
            ibe.decrypt_full(&sk, &bad).unwrap_err(),
            IbeError::InvalidCiphertext
        );

        let mut bad = ct.clone();
        bad.v[0] ^= 1;
        assert_eq!(
            ibe.decrypt_full(&sk, &bad).unwrap_err(),
            IbeError::InvalidCiphertext
        );

        let mut bad = ct;
        bad.u = ibe.pairing().mul(&bad.u, &FpW::from_u64(2));
        assert!(ibe.decrypt_full(&sk, &bad).is_err());
    }

    #[test]
    fn prepared_decrypt_matches() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(6);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_full(&mut rng, &mpk, b"carol", b"the readings");
        let sk = ibe.extract(&msk, b"carol");
        let dk = ibe.prepare_key(&sk);
        assert_eq!(
            ibe.decrypt_full_prepared(&dk, &ct).unwrap(),
            b"the readings"
        );
        let mut bad = ct;
        bad.w[0] ^= 1;
        assert_eq!(
            ibe.decrypt_full_prepared(&dk, &bad).unwrap_err(),
            IbeError::InvalidCiphertext
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(3);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_full(&mut rng, &mpk, b"carol", b"m");
        let sk_other = ibe.extract(&msk, b"mallory");
        assert!(ibe.decrypt_full(&sk_other, &ct).is_err());
    }

    #[test]
    fn empty_and_large_messages() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(4);
        let (msk, mpk) = ibe.setup(&mut rng);
        let sk = ibe.extract(&msk, b"id");
        for msg in [vec![], vec![7u8; 5000]] {
            let ct = ibe.encrypt_full(&mut rng, &mpk, b"id", &msg);
            assert_eq!(ibe.decrypt_full(&sk, &ct).unwrap(), msg);
        }
    }

    #[test]
    fn basic_and_full_interop_is_refused() {
        // A BasicIdent ciphertext reinterpreted as FullIdent must fail the
        // FO check (structure differs), never silently decrypt.
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(5);
        let (msk, mpk) = ibe.setup(&mut rng);
        let basic = ibe.encrypt_basic(&mut rng, &mpk, b"id", &[0u8; 64]);
        let fake = FullCiphertext {
            u: basic.u,
            v: basic.v[..32].try_into().unwrap(),
            w: basic.v[32..].to_vec(),
        };
        let sk = ibe.extract(&msk, b"id");
        assert!(ibe.decrypt_full(&sk, &fake).is_err());
    }
}
