//! Gatekeeper (Figure 3).
//!
//! "The main role of the Gatekeeper is to authenticate the user and
//! establish a secure channel of communication between RC and MWS. To help
//! this Gatekeeper utilizes the User Database." The §V.D exchange is
//! `ID_RC ‖ E(HashPassword, ID_RC ‖ T ‖ N)`: both sides derive the same
//! `HashPassword = H(password)` and use it as a shared key; the timestamp
//! `T` and nonce `N` stop replays.

use crate::clock::{ReplayGuard, ReplayPolicy};
use crate::sealed::{open_blob, seal_blob};
use mws_crypto::Rng;
use mws_store::{Result as StoreResult, StorageKind, UserDb, UserRecord};
use mws_wire::{WireReader, WireWriter};

const AUTH_LABEL: &str = "mws-rc-auth";

/// Why the gatekeeper refused an RC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GkReject {
    /// Identity not registered.
    UnknownClient,
    /// Decryption failed (wrong password) or inner identity mismatch.
    BadCredentials,
    /// Timestamp/nonce freshness failure.
    Replay,
}

impl core::fmt::Display for GkReject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GkReject::UnknownClient => write!(f, "unknown client"),
            GkReject::BadCredentials => write!(f, "authentication failed"),
            GkReject::Replay => write!(f, "stale timestamp or replayed nonce"),
        }
    }
}

/// Builds the RC-side authentication blob `E(HashPassword, ID ‖ T ‖ N)`.
pub fn compose_rc_auth<R: Rng + ?Sized>(
    rng: &mut R,
    hash_password: &[u8],
    rc_id: &str,
    timestamp: u64,
) -> Vec<u8> {
    let mut nonce = [0u8; 16];
    rng.fill_bytes(&mut nonce);
    let mut w = WireWriter::new();
    w.string(rc_id).u64(timestamp).bytes(&nonce);
    seal_blob(rng, hash_password, AUTH_LABEL, &w.finish())
}

/// The gatekeeper: RC registry + authentication.
pub struct Gatekeeper {
    users: UserDb,
    replay: ReplayGuard,
}

impl Gatekeeper {
    /// Opens the gatekeeper over a user table.
    pub fn open(storage: StorageKind, policy: ReplayPolicy) -> StoreResult<Self> {
        Ok(Self {
            users: UserDb::open(storage)?,
            replay: ReplayGuard::new(policy),
        })
    }

    /// Registers an RC (identity, password, serialized RSA public key).
    pub fn register(&mut self, rc_id: &str, password: &str, public_key: &[u8]) -> StoreResult<()> {
        self.users.register(rc_id, password, public_key)
    }

    /// Removes an RC.
    pub fn remove(&mut self, rc_id: &str) -> StoreResult<()> {
        self.users.remove(rc_id)
    }

    /// Looks up a registered RC (the Token Generator needs `PubK_RC`).
    pub fn user(&self, rc_id: &str) -> StoreResult<UserRecord> {
        self.users.get(rc_id)
    }

    /// Verifies a retrieval request's auth blob.
    pub fn verify(&mut self, now: u64, rc_id: &str, auth: &[u8]) -> Result<UserRecord, GkReject> {
        let rec = self.users.get(rc_id).map_err(|_| GkReject::UnknownClient)?;
        let body =
            open_blob(&rec.hash_password, AUTH_LABEL, auth).ok_or(GkReject::BadCredentials)?;
        let mut r = WireReader::new(&body);
        let inner_id = r.string().map_err(|_| GkReject::BadCredentials)?;
        let timestamp = r.u64().map_err(|_| GkReject::BadCredentials)?;
        let nonce = r.bytes().map_err(|_| GkReject::BadCredentials)?;
        r.finish().map_err(|_| GkReject::BadCredentials)?;
        // "If the ID_RC in the decrypted message matches the ID_RC sent out
        // in the open text, RC is authenticated."
        if inner_id != rc_id {
            return Err(GkReject::BadCredentials);
        }
        let mut replay_key = rc_id.as_bytes().to_vec();
        replay_key.push(0);
        replay_key.extend_from_slice(&nonce);
        if !self.replay.check_and_record(now, timestamp, &replay_key) {
            return Err(GkReject::Replay);
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::{Digest, HmacDrbg, Sha256};

    fn gk() -> Gatekeeper {
        let mut gk = Gatekeeper::open(
            StorageKind::Memory,
            ReplayPolicy::Window {
                window: 5,
                cache: 64,
            },
        )
        .unwrap();
        gk.register("C-Services", "pass123", b"pubkey").unwrap();
        gk
    }

    fn auth(rc_id: &str, password: &str, t: u64, seed: u64) -> Vec<u8> {
        let mut rng = HmacDrbg::from_u64(seed);
        compose_rc_auth(&mut rng, &Sha256::digest(password.as_bytes()), rc_id, t)
    }

    #[test]
    fn valid_login() {
        let mut gk = gk();
        let rec = gk
            .verify(10, "C-Services", &auth("C-Services", "pass123", 10, 1))
            .unwrap();
        assert_eq!(rec.public_key, b"pubkey");
    }

    #[test]
    fn unknown_client() {
        let mut gk = gk();
        assert_eq!(
            gk.verify(10, "ghost", &auth("ghost", "pass123", 10, 1)),
            Err(GkReject::UnknownClient)
        );
    }

    #[test]
    fn wrong_password() {
        let mut gk = gk();
        assert_eq!(
            gk.verify(10, "C-Services", &auth("C-Services", "wrong", 10, 1)),
            Err(GkReject::BadCredentials)
        );
    }

    #[test]
    fn identity_substitution_rejected() {
        // Blob built for another identity (even with the right password for
        // that identity) must not authenticate this one.
        let mut gk = gk();
        gk.register("Other", "pass123", b"pk2").unwrap();
        let blob = auth("Other", "pass123", 10, 1);
        assert_eq!(
            gk.verify(10, "C-Services", &blob),
            Err(GkReject::BadCredentials)
        );
    }

    #[test]
    fn replay_rejected() {
        let mut gk = gk();
        let blob = auth("C-Services", "pass123", 10, 1);
        gk.verify(10, "C-Services", &blob).unwrap();
        assert_eq!(
            gk.verify(10, "C-Services", &blob),
            Err(GkReject::Replay),
            "exact resend"
        );
        // Stale timestamp.
        let old = auth("C-Services", "pass123", 1, 2);
        assert_eq!(gk.verify(100, "C-Services", &old), Err(GkReject::Replay));
    }

    #[test]
    fn removed_client_cannot_login() {
        let mut gk = gk();
        gk.remove("C-Services").unwrap();
        assert_eq!(
            gk.verify(10, "C-Services", &auth("C-Services", "pass123", 10, 1)),
            Err(GkReject::UnknownClient)
        );
    }

    #[test]
    fn garbage_blob_rejected() {
        let mut gk = gk();
        assert_eq!(
            gk.verify(10, "C-Services", &[0u8; 64]),
            Err(GkReject::BadCredentials)
        );
        assert_eq!(
            gk.verify(10, "C-Services", &[]),
            Err(GkReject::BadCredentials)
        );
    }
}
