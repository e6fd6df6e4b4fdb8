//! IBS-backed transport security for the TCP deployment.
//!
//! `mws-wire`'s [`mws_wire::secure`] module defines the handshake and
//! record layer over an abstract [`ChannelAuth`]; this module supplies the
//! production implementation: ephemeral Diffie–Hellman on the pairing
//! group (`a·P`, `b·P`, shared secret `ab·P`) with each endpoint proving
//! its identity via the Cha–Cheon identity-based signatures already used
//! for device admission. Every daemon extracts its transport signing key
//! from the seed-deterministic master secret, so enabling
//! `--transport secure` needs no key files and no CA — the deployment
//! seed *is* the trust root, exactly as for every other credential in the
//! system (DESIGN.md §12).

use crate::daemon::Role;
use mws_core::Deployment;
use mws_crypto::HmacDrbg;
use mws_ibe::ibs::IbsSignature;
use mws_ibe::{IbeSystem, MasterPublic, UserPrivateKey};
use mws_obs::sync::lock;
use mws_wire::secure::{ChannelAuth, SecureError, SessionConfig};
use mws_wire::{fnv1a64, WireReader, WireWriter};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Transport identity every MMS warehouse daemon proves.
pub const ID_MMS: &str = "mws/mms";
/// Transport identity of the PKG daemon.
pub const ID_PKG: &str = "mws/pkg";
/// Transport identity of the gatekeeper front door.
pub const ID_GATEKEEPER: &str = "mws/gatekeeper";
/// Transport identity of ordinary clients (SD/RC harnesses, benches).
pub const ID_CLIENT: &str = "mws/client";
/// Transport identity of operator tooling (`mws-stats`, `mws-clusterctl`).
pub const ID_OPS: &str = "mws/ops";

/// Which wire protocol a daemon or client speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Plaintext envelopes (the historical protocol).
    #[default]
    Plain,
    /// IBS-authenticated handshake + AES-GCM records.
    Secure,
}

impl TransportMode {
    /// Parses a `--transport` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "plain" => Some(Self::Plain),
            "secure" => Some(Self::Secure),
            _ => None,
        }
    }

    /// True when secure records are required.
    pub fn is_secure(self) -> bool {
        matches!(self, Self::Secure)
    }
}

impl core::fmt::Display for TransportMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Plain => "plain",
            Self::Secure => "secure",
        })
    }
}

/// The production [`ChannelAuth`]: ephemeral scalars on the pairing
/// group for key agreement, Cha–Cheon IBS over the transcript hash for
/// endpoint authentication. Verification needs only the master public
/// parameters plus the peer's claimed identity string — no per-peer key
/// distribution, which is the point of using IBE-native signatures.
pub struct IbsAuth {
    ibe: IbeSystem,
    mpk: MasterPublic,
    identity: String,
    key: UserPrivateKey,
    rng: Mutex<HmacDrbg>,
}

impl IbsAuth {
    /// Builds an endpoint credential from explicit parts.
    pub fn new(
        ibe: IbeSystem,
        mpk: MasterPublic,
        identity: &str,
        key: UserPrivateKey,
        rng_seed: u64,
    ) -> Self {
        let mut seed = rng_seed.to_be_bytes().to_vec();
        seed.extend_from_slice(&fnv1a64(identity.as_bytes()).to_be_bytes());
        // Decorrelate processes sharing a deployment seed (every daemon
        // of one deployment does): the pid and a coarse timestamp keep
        // ephemeral draws distinct without an OS entropy dependency.
        seed.extend_from_slice(&u64::from(std::process::id()).to_be_bytes());
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        seed.extend_from_slice(&t.to_be_bytes());
        Self {
            ibe,
            mpk,
            identity: identity.to_string(),
            key,
            rng: Mutex::new(HmacDrbg::new(&seed, b"mws-sec ibs eph")),
        }
    }

    /// Extracts the transport credential for `identity` from a
    /// deployment — the zero-distribution path every daemon uses.
    pub fn from_deployment(dep: &Deployment, identity: &str) -> Self {
        Self::new(
            dep.ibe().clone(),
            dep.master_public().clone(),
            identity,
            dep.extract_transport_key(identity),
            dep.seed(),
        )
    }
}

impl ChannelAuth for IbsAuth {
    fn identity(&self) -> &str {
        &self.identity
    }

    fn eph_keypair(&self) -> (Vec<u8>, Vec<u8>) {
        let ctx = self.ibe.pairing();
        let a = {
            let mut rng = lock(&self.rng);
            ctx.random_scalar(&mut *rng)
        };
        let public = ctx.field().point_to_bytes(&ctx.mul_generator(&a));
        (a.to_be_bytes(), public)
    }

    fn agree(&self, eph_secret: &[u8], peer_public: &[u8]) -> Result<Vec<u8>, SecureError> {
        let ctx = self.ibe.pairing();
        let a = mws_pairing::FpW::from_be_bytes(eph_secret).map_err(|_| SecureError::Agreement)?;
        // point_from_bytes checks curve membership only, and the curve
        // has points of order 2, 3, 4, … (12 | h): a peer point outside the
        // order-q subgroup would pin the shared secret to a handful of
        // values, so it is refused before it can reach the key schedule.
        let b_pub = ctx
            .field()
            .point_from_bytes(peer_public)
            .map_err(|_| SecureError::Agreement)?;
        if !ctx.in_subgroup(&b_pub) {
            return Err(SecureError::Agreement);
        }
        let k = ctx.mul(&b_pub, &a);
        if k.is_infinity() {
            return Err(SecureError::Agreement);
        }
        Ok(ctx.field().point_to_bytes(&k))
    }

    fn sign(&self, transcript_hash: &[u8]) -> Vec<u8> {
        let sig = {
            let mut rng = lock(&self.rng);
            self.ibe.ibs_sign(
                &mut *rng,
                self.identity.as_bytes(),
                &self.key,
                transcript_hash,
            )
        };
        let f = self.ibe.pairing().field();
        let mut bytes = Vec::new();
        WireWriter::new(&mut bytes)
            .bytes(&f.point_to_bytes(&sig.u))
            .bytes(&f.point_to_bytes(&sig.v));
        bytes
    }

    fn verify(
        &self,
        peer_identity: &str,
        transcript_hash: &[u8],
        sig: &[u8],
    ) -> Result<(), SecureError> {
        let mut r = WireReader::new(sig);
        let u = r.bytes().map_err(|_| SecureError::BadSignature)?;
        let v = r.bytes().map_err(|_| SecureError::BadSignature)?;
        r.finish().map_err(|_| SecureError::BadSignature)?;
        let f = self.ibe.pairing().field();
        let sig = IbsSignature {
            u: f.point_from_bytes(&u)
                .map_err(|_| SecureError::BadSignature)?,
            v: f.point_from_bytes(&v)
                .map_err(|_| SecureError::BadSignature)?,
        };
        self.ibe
            .ibs_verify(&self.mpk, peer_identity.as_bytes(), transcript_hash, &sig)
            .map_err(|_| SecureError::BadSignature)
    }
}

/// Server-side secure-transport settings, carried in `ServerConfig`.
#[derive(Clone)]
pub struct SecureSettings {
    /// The daemon's credential.
    pub auth: Arc<dyn ChannelAuth>,
    /// Session tunables (rekey interval).
    pub session: SessionConfig,
    /// How long an accepted connection may take to complete the
    /// handshake before being dropped.
    pub handshake_timeout: Duration,
}

impl SecureSettings {
    /// Settings for a daemon role, credential extracted from `dep`.
    pub fn for_role(dep: &Deployment, role: Role) -> Self {
        let identity = match role {
            Role::Mms => ID_MMS,
            Role::Pkg => ID_PKG,
            Role::Gatekeeper => ID_GATEKEEPER,
        };
        Self {
            auth: Arc::new(IbsAuth::from_deployment(dep, identity)),
            session: SessionConfig::default(),
            handshake_timeout: Duration::from_secs(5),
        }
    }
}

impl core::fmt::Debug for SecureSettings {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureSettings")
            .field("identity", &self.auth.identity())
            .field("rekey_every", &self.session.rekey_every)
            .field("handshake_timeout", &self.handshake_timeout)
            .finish()
    }
}

/// Client-side secure-transport settings, carried in `ClientConfig`.
#[derive(Clone)]
pub struct SecureClientSettings {
    /// The client's credential.
    pub auth: Arc<dyn ChannelAuth>,
    /// Identity the server must prove; `None` accepts any verified
    /// deployment identity (operator tools probing mixed fleets).
    pub expect_peer: Option<String>,
    /// Session tunables (rekey interval).
    pub session: SessionConfig,
}

impl SecureClientSettings {
    /// Client settings authenticating as `identity`, expecting the
    /// server to prove `expect_peer`.
    pub fn new(dep: &Deployment, identity: &str, expect_peer: Option<&str>) -> Self {
        Self {
            auth: Arc::new(IbsAuth::from_deployment(dep, identity)),
            expect_peer: expect_peer.map(String::from),
            session: SessionConfig::default(),
        }
    }
}

impl core::fmt::Debug for SecureClientSettings {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureClientSettings")
            .field("identity", &self.auth.identity())
            .field("expect_peer", &self.expect_peer)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_core::DeploymentConfig;
    use mws_wire::secure::{Handshaker, Opened, RecordDecoder};

    fn dep() -> Deployment {
        Deployment::new(DeploymentConfig::test_default())
    }

    fn run_handshake(
        client: Arc<dyn ChannelAuth>,
        server: Arc<dyn ChannelAuth>,
        expect: Option<String>,
    ) -> Result<(mws_wire::secure::Established, mws_wire::secure::Established), SecureError> {
        let cfg = SessionConfig::default();
        let mut c = Handshaker::client(client, expect, cfg.clone());
        let mut s = Handshaker::server(server, cfg);
        let hello = c.take_output();
        assert!(s.feed(&hello)?.is_none());
        let accept = s.take_output();
        let est_c = c.feed(&accept)?.expect("client established");
        let finish = c.take_output();
        let est_s = s.feed(&finish)?.expect("server established");
        Ok((est_c, est_s))
    }

    #[test]
    fn ibs_handshake_establishes_and_roundtrips() {
        let d = dep();
        let client: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d, ID_CLIENT));
        let server: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d, ID_MMS));
        let (mut c, mut s) = run_handshake(client, server, Some(ID_MMS.to_string())).unwrap();
        assert_eq!(c.peer, ID_MMS);
        assert_eq!(s.peer, ID_CLIENT);

        let rec = c.session.seal_frame(b"deposit frame").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(
            s.session.open_record(rt, pl).unwrap(),
            Opened::Frame(b"deposit frame".to_vec())
        );
    }

    #[test]
    fn wrong_role_identity_rejected() {
        let d = dep();
        let client: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d, ID_CLIENT));
        // The server *is* a verified MMS, but the client insisted on PKG.
        let server: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d, ID_MMS));
        let err = run_handshake(client, server, Some(ID_PKG.to_string())).unwrap_err();
        assert_eq!(
            err,
            SecureError::IdentityMismatch {
                expected: ID_PKG.into(),
                actual: ID_MMS.into(),
            }
        );
    }

    #[test]
    fn claimed_identity_without_key_rejected() {
        let d = dep();
        let client: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d, ID_CLIENT));
        // A peer holding the gatekeeper's key but claiming to be the MMS:
        // the IBS verifies against the *claimed* identity and fails.
        let gk_key = d.extract_transport_key(ID_GATEKEEPER);
        let imposter: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::new(
            d.ibe().clone(),
            d.master_public().clone(),
            ID_MMS,
            gk_key,
            7,
        ));
        let err = run_handshake(client, imposter, Some(ID_MMS.to_string())).unwrap_err();
        assert_eq!(err, SecureError::BadSignature);
    }

    #[test]
    fn foreign_deployment_rejected() {
        let d1 = dep();
        let d2 = Deployment::new(DeploymentConfig {
            seed: 999,
            ..DeploymentConfig::test_default()
        });
        let client: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d1, ID_CLIENT));
        let server: Arc<dyn ChannelAuth> = Arc::new(IbsAuth::from_deployment(&d2, ID_MMS));
        // Different master secrets: the server's signature cannot verify
        // under the client's master public parameters.
        let err = run_handshake(client, server, Some(ID_MMS.to_string())).unwrap_err();
        assert_eq!(err, SecureError::BadSignature);
    }

    #[test]
    fn small_order_peer_points_are_refused() {
        let d = dep();
        let auth = IbsAuth::from_deployment(&d, ID_CLIENT);
        let ctx = d.ibe().pairing();
        let f = ctx.field();
        // (0, 0) has order 2: it decodes, being on the curve.
        let mut order_two = vec![0x02];
        order_two.resize(1 + 8 * mws_pairing::FP_LIMBS, 0);
        assert!(f.point_from_bytes(&order_two).is_ok());
        // ((p+1)/3)·R has order 3 unless it is the identity.
        let p_plus_1 = ctx.params().p.wrapping_add(&mws_pairing::FpW::ONE);
        let third = p_plus_1.div_rem(&3u64.into()).0;
        let mut rng = HmacDrbg::from_u64(3);
        let order_three = loop {
            let r = ctx.mul(&f.random_curve_point(&mut rng), &third);
            if !r.is_infinity() {
                assert!(ctx.mul(&r, &3u64.into()).is_infinity());
                break f.point_to_bytes(&r);
            }
        };
        for _ in 0..20 {
            let (secret, _) = auth.eph_keypair();
            for peer in [&order_two, &order_three] {
                assert_eq!(auth.agree(&secret, peer), Err(SecureError::Agreement));
            }
        }
    }

    #[test]
    fn transport_mode_parsing() {
        assert_eq!(TransportMode::parse("plain"), Some(TransportMode::Plain));
        assert_eq!(TransportMode::parse("secure"), Some(TransportMode::Secure));
        assert_eq!(TransportMode::parse("tls"), None);
        assert!(TransportMode::Secure.is_secure());
        assert!(!TransportMode::Plain.is_secure());
    }
}
