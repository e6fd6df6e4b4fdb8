//! Boneh–Franklin IBE: `Setup` and `Extract` (paper §IV). The encryption
//! the protocol runs over them is the hybrid attribute scheme in
//! [`crate::attr`].

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
    /// (the generator's fixed-base table).
    pub fn setup<R: Rng + ?Sized>(&self, rng: &mut R) -> (MasterSecret, MasterPublic) {
        let s = self.ctx.random_scalar(rng);
        let ppub = self.ctx.mul_generator(&s);
        (MasterSecret(s), MasterPublic::from_point(ppub))
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
    use crate::attr::{AttrCiphertext, CipherAlgo};
    use crate::IbeError;
    use mws_crypto::HmacDrbg;

    fn system() -> IbeSystem {
        IbeSystem::named(SecurityLevel::Toy)
    }

    /// Encrypts `msg` to attribute `attr` (nonce `n`) with the hybrid
    /// scheme the protocol runs over `Setup` and `Extract`.
    fn encrypt(
        ibe: &IbeSystem,
        rng: &mut HmacDrbg,
        mpk: &MasterPublic,
        attr: &str,
        msg: &[u8],
    ) -> AttrCiphertext {
        ibe.encrypt_attr(rng, mpk, attr, b"n", CipherAlgo::Aes128, b"", msg)
    }

    /// The PKG's key for attribute `attr` (nonce `n`).
    fn key(ibe: &IbeSystem, msk: &MasterSecret, attr: &str) -> UserPrivateKey {
        ibe.extract_point(msk, &ibe.attribute_point(attr, b"n"))
    }

    #[test]
    fn setup_extract_encrypt_decrypt() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = encrypt(&ibe, &mut rng, &mpk, "ELECTRIC-APT9", b"meter=42kWh");
        let sk = key(&ibe, &msk, "ELECTRIC-APT9");
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"").unwrap(), b"meter=42kWh");
    }

    #[test]
    fn wrong_master_key_gets_garbage() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(3);
        let (_, mpk) = ibe.setup(&mut rng);
        let (msk2, _) = ibe.setup(&mut rng);
        let ct = encrypt(&ibe, &mut rng, &mpk, "A", b"secret message");
        // Another PKG's key agrees on a garbage `K`; the hybrid's MAC turns
        // that into a rejection rather than a wrong plaintext.
        let sk = key(&ibe, &msk2, "A");
        assert_eq!(
            ibe.decrypt_attr(&sk, &ct, b"").unwrap_err(),
            IbeError::InvalidCiphertext
        );
    }

    #[test]
    fn large_message() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(6);
        let (msk, mpk) = ibe.setup(&mut rng);
        let msg: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let ct = encrypt(&ibe, &mut rng, &mpk, "A", &msg);
        let sk = key(&ibe, &msk, "A");
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"").unwrap(), msg);
    }

    #[test]
    fn rejects_invalid_u_point() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(7);
        let (msk, mpk) = ibe.setup(&mut rng);
        let mut ct = encrypt(&ibe, &mut rng, &mpk, "A", b"m");
        ct.u = Point::Infinity;
        let sk = key(&ibe, &msk, "A");
        assert_eq!(
            ibe.decrypt_attr(&sk, &ct, b"").unwrap_err(),
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
