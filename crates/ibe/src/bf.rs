//! Boneh–Franklin IBE: `Setup`, `Extract`, and the BasicIdent
//! encrypt/decrypt (paper §IV).

use crate::kdf::{xor_into, xor_pad};
use crate::IbeError;
use mws_crypto::Rng;
use mws_pairing::{FpW, PairingCtx, PairingError, Point, PreparedPoint, SecurityLevel};
use std::sync::{Arc, OnceLock};

/// An IBE system instance: pairing parameters shared by every party.
#[derive(Clone, Debug)]
pub struct IbeSystem {
    ctx: PairingCtx,
}

/// The PKG's master secret `s` (never leaves the PKG in the protocol).
#[derive(Clone)]
pub struct MasterSecret(pub(crate) FpW);

impl core::fmt::Debug for MasterSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("MasterSecret {{ .. }}") // never print key material
    }
}

/// The system public key `P_pub = s·P` (the paper's `sP`).
///
/// Every encryption and signature verification pairs against this fixed
/// point, so the key carries a lazily built, `Arc`-shared
/// [`PreparedPoint`]: the Miller loop for `P_pub` runs once per process and
/// is reused by all subsequent pairings (clones share the cache).
#[derive(Clone)]
pub struct MasterPublic {
    point: Point,
    prepared: Arc<OnceLock<PreparedPoint>>,
}

impl MasterPublic {
    pub(crate) fn from_point(point: Point) -> Self {
        Self {
            point,
            prepared: Arc::new(OnceLock::new()),
        }
    }

    /// The prepared Miller tape for `P_pub`, built on first use.
    pub fn prepared(&self, ctx: &PairingCtx) -> &PreparedPoint {
        self.prepared.get_or_init(|| ctx.prepare(&self.point))
    }
}

impl PartialEq for MasterPublic {
    fn eq(&self, other: &Self) -> bool {
        self.point == other.point
    }
}

impl Eq for MasterPublic {}

impl core::fmt::Debug for MasterPublic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("MasterPublic").field(&self.point).finish()
    }
}

/// A user (or attribute) private key `d = s·Q_ID`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct UserPrivateKey(pub(crate) Point);

impl core::fmt::Debug for UserPrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("UserPrivateKey {{ .. }}")
    }
}

/// A user private key with its Miller loop pre-executed — for holders that
/// decrypt many ciphertexts under one identity (the receiving client's hot
/// path). Build via [`IbeSystem::prepare_key`].
#[derive(Clone, Debug)]
pub struct DecryptionKey {
    key: UserPrivateKey,
    prepared: PreparedPoint,
}

impl DecryptionKey {
    /// The wrapped private key.
    pub fn key(&self) -> &UserPrivateKey {
        &self.key
    }

    /// The prepared Miller tape for `d_ID`.
    pub fn prepared(&self) -> &PreparedPoint {
        &self.prepared
    }
}

/// BasicIdent ciphertext `(U, V) = (rP, M ⊕ H₂(g_ID^r))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicCiphertext {
    /// `U = r·P`.
    pub u: Point,
    /// Masked message.
    pub v: Vec<u8>,
}

impl IbeSystem {
    /// Creates a system over the given pairing context.
    pub fn new(ctx: PairingCtx) -> Self {
        Self { ctx }
    }

    /// Creates a system over a named deterministic parameter set.
    pub fn named(level: SecurityLevel) -> Self {
        Self::new(PairingCtx::named(level))
    }

    /// The pairing context (shared system parameters `⟨p, q, P, …⟩`).
    pub fn pairing(&self) -> &PairingCtx {
        &self.ctx
    }

    /// `Setup`: draws the master secret `s` and publishes `P_pub = sP`
    /// (fixed-base comb multiplication of the generator).
    pub fn setup<R: Rng + ?Sized>(&self, rng: &mut R) -> (MasterSecret, MasterPublic) {
        let s = self.ctx.random_scalar(rng);
        let ppub = self.ctx.mul_generator(&s);
        (MasterSecret(s), MasterPublic::from_point(ppub))
    }

    /// Precomputes the Miller loop of a private key for repeated decryption;
    /// see [`DecryptionKey`].
    pub fn prepare_key(&self, sk: &UserPrivateKey) -> DecryptionKey {
        DecryptionKey {
            key: *sk,
            prepared: self.ctx.prepare(&sk.0),
        }
    }

    /// `Q_ID = MapToPoint(H(ID))` — the public point of an identity.
    pub fn identity_point(&self, id: &[u8]) -> Point {
        self.ctx.hash_to_point(id)
    }

    /// `Extract`: `d_ID = s·Q_ID`.
    pub fn extract(&self, msk: &MasterSecret, id: &[u8]) -> UserPrivateKey {
        let q_id = self.identity_point(id);
        UserPrivateKey(self.ctx.mul(&q_id, &msk.0))
    }

    /// `Extract` applied to an already-mapped point (used by the threshold
    /// PKG and the attribute scheme, which hash `A ‖ Nonce` themselves).
    pub fn extract_point(&self, msk: &MasterSecret, q_id: &Point) -> UserPrivateKey {
        UserPrivateKey(self.ctx.mul(q_id, &msk.0))
    }

    /// BasicIdent encryption of an arbitrary-length message.
    pub fn encrypt_basic<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        id: &[u8],
        msg: &[u8],
    ) -> BasicCiphertext {
        let q_id = self.identity_point(id);
        self.encrypt_basic_point(rng, mpk, &q_id, msg)
    }

    /// BasicIdent encryption to a pre-mapped identity point.
    ///
    /// Fast path: `U = r·P` through the generator comb table and
    /// `g = ê(Q_ID, P_pub)` evaluated as `ê(P_pub, Q_ID)` (the pairing is
    /// symmetric) against the key's cached Miller tape, then a windowed
    /// `g^r`. Produces the same distribution — and for a fixed `r`, the
    /// same bits — as [`Self::encrypt_basic_point_reference`].
    pub fn encrypt_basic_point<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        q_id: &Point,
        msg: &[u8],
    ) -> BasicCiphertext {
        let r = self.ctx.random_scalar(rng);
        let u = self.ctx.mul_generator(&r);
        // g = ê(Q_ID, P_pub)^r, computed with P_pub's prepared tape.
        let g = self.ctx.pairing_with(mpk.prepared(&self.ctx), q_id);
        let gr = self.ctx.field().fp2_pow(&g, &r);
        let mut v = msg.to_vec();
        let pad = xor_pad(&self.ctx, &gr, v.len());
        xor_into(&mut v, &pad);
        BasicCiphertext { u, v }
    }

    /// BasicIdent encryption via the pre-optimization reference path
    /// (binary ladder, affine pairing, plain square-and-multiply) — kept
    /// callable for cross-checks and the benchmark baseline.
    pub fn encrypt_basic_point_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mpk: &MasterPublic,
        q_id: &Point,
        msg: &[u8],
    ) -> BasicCiphertext {
        let f = self.ctx.field();
        let r = self.ctx.random_scalar(rng);
        let u = f.point_mul_binary(&self.ctx.generator(), &r);
        let g = self.ctx.pairing_affine(q_id, &mpk.point);
        let gr = f.fp2_pow_binary(&g, &r);
        let mut v = msg.to_vec();
        let pad = xor_pad(&self.ctx, &gr, v.len());
        xor_into(&mut v, &pad);
        BasicCiphertext { u, v }
    }

    /// Validation shared by the decrypt paths: `U` must be a finite point
    /// of the order-`q` subgroup (the subgroup check runs the x-only ladder).
    fn check_ciphertext_point(&self, u: &Point) -> Result<(), IbeError> {
        if u.is_infinity() || !self.ctx.in_subgroup(u) {
            return Err(IbeError::InvalidPoint);
        }
        Ok(())
    }

    /// BasicIdent decryption: `M = V ⊕ H₂(ê(d_ID, U))`.
    pub fn decrypt_basic(
        &self,
        sk: &UserPrivateKey,
        ct: &BasicCiphertext,
    ) -> Result<Vec<u8>, IbeError> {
        self.check_ciphertext_point(&ct.u)?;
        let g = self.ctx.pairing(&sk.0, &ct.u);
        let mut m = ct.v.clone();
        let pad = xor_pad(&self.ctx, &g, m.len());
        xor_into(&mut m, &pad);
        Ok(m)
    }

    /// BasicIdent decryption with a prepared key — same result as
    /// [`Self::decrypt_basic`], skipping the per-call Miller point
    /// arithmetic.
    pub fn decrypt_basic_prepared(
        &self,
        dk: &DecryptionKey,
        ct: &BasicCiphertext,
    ) -> Result<Vec<u8>, IbeError> {
        self.check_ciphertext_point(&ct.u)?;
        let g = self.ctx.pairing_with(&dk.prepared, &ct.u);
        let mut m = ct.v.clone();
        let pad = xor_pad(&self.ctx, &g, m.len());
        xor_into(&mut m, &pad);
        Ok(m)
    }

    /// BasicIdent decryption via the pre-optimization reference path
    /// (affine pairing, on-curve check only) — kept callable for
    /// cross-checks and the benchmark baseline.
    pub fn decrypt_basic_reference(
        &self,
        sk: &UserPrivateKey,
        ct: &BasicCiphertext,
    ) -> Result<Vec<u8>, IbeError> {
        if ct.u.is_infinity() || !self.ctx.field().is_on_curve(&ct.u) {
            return Err(IbeError::InvalidPoint);
        }
        let g = self.ctx.pairing_affine(&sk.0, &ct.u);
        let mut m = ct.v.clone();
        let pad = xor_pad(&self.ctx, &g, m.len());
        xor_into(&mut m, &pad);
        Ok(m)
    }

    /// Serializes the master public key (compressed point).
    pub fn mpk_to_bytes(&self, mpk: &MasterPublic) -> Vec<u8> {
        self.ctx.field().point_to_bytes(&mpk.point)
    }

    /// Parses a master public key, validating subgroup membership (the
    /// ladder's order check; see [`PairingCtx::in_subgroup`]).
    pub fn mpk_from_bytes(&self, bytes: &[u8]) -> Result<MasterPublic, PairingError> {
        let p = self.ctx.field().point_from_bytes(bytes)?;
        if p.is_infinity() || !self.ctx.in_subgroup(&p) {
            return Err(PairingError::InvalidPoint);
        }
        Ok(MasterPublic::from_point(p))
    }

    /// Serializes a user private key.
    pub fn sk_to_bytes(&self, sk: &UserPrivateKey) -> Vec<u8> {
        self.ctx.field().point_to_bytes(&sk.0)
    }

    /// Parses a user private key.
    pub fn sk_from_bytes(&self, bytes: &[u8]) -> Result<UserPrivateKey, PairingError> {
        Ok(UserPrivateKey(self.ctx.field().point_from_bytes(bytes)?))
    }
}

impl MasterPublic {
    /// The underlying point `sP`.
    pub fn point(&self) -> &Point {
        &self.point
    }
}

impl UserPrivateKey {
    /// The underlying point `sQ_ID`.
    pub fn point(&self) -> &Point {
        &self.0
    }

    /// Wraps a raw point (used when reassembling threshold shares or
    /// receiving `sI` from the PKG over the wire).
    pub fn from_point(p: Point) -> Self {
        Self(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::HmacDrbg;

    fn system() -> IbeSystem {
        IbeSystem::named(SecurityLevel::Toy)
    }

    #[test]
    fn setup_extract_encrypt_decrypt() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"bob@sap.com", b"meter=42kWh");
        let sk = ibe.extract(&msk, b"bob@sap.com");
        assert_eq!(ibe.decrypt_basic(&sk, &ct).unwrap(), b"meter=42kWh");
    }

    #[test]
    fn wrong_identity_gets_garbage() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(2);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"alice", b"secret message");
        let sk_eve = ibe.extract(&msk, b"eve");
        let got = ibe.decrypt_basic(&sk_eve, &ct).unwrap();
        assert_ne!(got, b"secret message");
    }

    #[test]
    fn wrong_master_key_gets_garbage() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(3);
        let (_, mpk) = ibe.setup(&mut rng);
        let (msk2, _) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"alice", b"secret message");
        let sk = ibe.extract(&msk2, b"alice");
        assert_ne!(ibe.decrypt_basic(&sk, &ct).unwrap(), b"secret message");
    }

    #[test]
    fn encryption_is_randomized() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(4);
        let (_, mpk) = ibe.setup(&mut rng);
        let c1 = ibe.encrypt_basic(&mut rng, &mpk, b"id", b"m");
        let c2 = ibe.encrypt_basic(&mut rng, &mpk, b"id", b"m");
        assert_ne!(c1, c2);
    }

    #[test]
    fn empty_message() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(5);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"id", b"");
        let sk = ibe.extract(&msk, b"id");
        assert_eq!(ibe.decrypt_basic(&sk, &ct).unwrap(), b"");
    }

    #[test]
    fn large_message() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(6);
        let (msk, mpk) = ibe.setup(&mut rng);
        let msg: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"id", &msg);
        let sk = ibe.extract(&msk, b"id");
        assert_eq!(ibe.decrypt_basic(&sk, &ct).unwrap(), msg);
    }

    #[test]
    fn rejects_invalid_u_point() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(7);
        let (msk, mpk) = ibe.setup(&mut rng);
        let mut ct = ibe.encrypt_basic(&mut rng, &mpk, b"id", b"m");
        ct.u = Point::Infinity;
        let sk = ibe.extract(&msk, b"id");
        assert_eq!(
            ibe.decrypt_basic(&sk, &ct).unwrap_err(),
            IbeError::InvalidPoint
        );
    }

    #[test]
    fn fast_paths_match_reference() {
        for level in [SecurityLevel::Toy, SecurityLevel::Light] {
            let ibe = IbeSystem::named(level);
            let mut rng = HmacDrbg::from_u64(0x46415354);
            let (msk, mpk) = ibe.setup(&mut rng);
            let q_id = ibe.identity_point(b"cross@check");
            let sk = ibe.extract(&msk, b"cross@check");
            // Same RNG state ⇒ same r ⇒ bit-identical ciphertexts.
            let mut rng_a = HmacDrbg::from_u64(0xcafe);
            let mut rng_b = HmacDrbg::from_u64(0xcafe);
            let fast = ibe.encrypt_basic_point(&mut rng_a, &mpk, &q_id, b"payload");
            let reference = ibe.encrypt_basic_point_reference(&mut rng_b, &mpk, &q_id, b"payload");
            assert_eq!(fast, reference, "encrypt fast vs reference at {level:?}");
            // All three decrypt paths agree.
            let dk = ibe.prepare_key(&sk);
            assert_eq!(ibe.decrypt_basic(&sk, &fast).unwrap(), b"payload");
            assert_eq!(ibe.decrypt_basic_prepared(&dk, &fast).unwrap(), b"payload");
            assert_eq!(ibe.decrypt_basic_reference(&sk, &fast).unwrap(), b"payload");
        }
    }

    #[test]
    fn decrypt_rejects_out_of_subgroup_u() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(0x4f4f53);
        let (msk, mpk) = ibe.setup(&mut rng);
        let mut ct = ibe.encrypt_basic(&mut rng, &mpk, b"id", b"m");
        let sk = ibe.extract(&msk, b"id");
        // Find an on-curve point outside the order-q subgroup: the fast
        // paths reject it (small-subgroup hardening), the reference path —
        // which only checks curve membership — accepts it.
        let c = ibe.pairing();
        let outside = loop {
            let p = c.field().random_curve_point(&mut rng);
            if !c.in_subgroup(&p) {
                break p;
            }
        };
        ct.u = outside;
        assert_eq!(
            ibe.decrypt_basic(&sk, &ct).unwrap_err(),
            IbeError::InvalidPoint
        );
        let dk = ibe.prepare_key(&sk);
        assert_eq!(
            ibe.decrypt_basic_prepared(&dk, &ct).unwrap_err(),
            IbeError::InvalidPoint
        );
    }

    #[test]
    fn key_serialization_roundtrips() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(8);
        let (msk, mpk) = ibe.setup(&mut rng);
        let mpk2 = ibe.mpk_from_bytes(&ibe.mpk_to_bytes(&mpk)).unwrap();
        assert_eq!(mpk, mpk2);
        let sk = ibe.extract(&msk, b"id");
        let sk2 = ibe.sk_from_bytes(&ibe.sk_to_bytes(&sk)).unwrap();
        assert_eq!(sk, sk2);
        assert!(
            ibe.mpk_from_bytes(&[0x00]).is_err(),
            "infinity mpk rejected"
        );
    }

    #[test]
    fn extract_point_matches_extract() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(9);
        let (msk, _) = ibe.setup(&mut rng);
        let q = ibe.identity_point(b"attr|nonce");
        assert_eq!(
            ibe.extract_point(&msk, &q),
            ibe.extract(&msk, b"attr|nonce")
        );
    }
}
