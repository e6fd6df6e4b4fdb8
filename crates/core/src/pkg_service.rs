//! Private Key Generator service (Figure 3).
//!
//! "This component maintains a master secret key. It shares a secret key
//! with the Token Generator. It authenticates the RC using a ticket issued
//! by the Token Generator. Once authenticated, it generates the parameter
//! required by the RC to build a private key."
//!
//! Besides the single-master mode, the service can run over a
//! threshold-shared master ([`PkgMaster::Threshold`], §VIII future work) —
//! key extraction then combines `t` partial extracts, so no single share
//! compromise reveals `s`.

use crate::audit::{AuditEvent, AuditLog};
use crate::clock::{LogicalClock, ReplayGuard, ReplayPolicy};
use crate::obs::stats;
use crate::sealed::{open_blob, seal_blob};
use crate::token::TokenGenerator;
use mws_crypto::{Digest, HmacDrbg, Sha256};
use mws_ibe::threshold::MasterShare;
use mws_ibe::{IbeSystem, MasterPublic, MasterSecret};
use mws_net::Service;
use mws_obs::sync::lock;
use mws_wire::{Pdu, WireReader, WireWriter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Label for the RC → PKG authenticator blob.
const AUTHENTICATOR_LABEL: &str = "rc-pkg-authenticator";
/// Label for the PKG → RC confirmation blob.
pub const CONFIRM_LABEL: &str = "pkg-confirmation";
/// Label for private-key delivery blobs.
pub const KEY_LABEL: &str = "pkg-private-key";

/// How the PKG holds the master secret.
pub enum PkgMaster {
    /// Classic single escrow (the paper's deployed design).
    Single(MasterSecret),
    /// `t`-of-`n` Shamir shares; extraction combines the first `t`
    /// (simulating `t` cooperating share servers in one process — the
    /// separate-server flavor is exercised in `examples/distributed_pkg.rs`).
    Threshold {
        /// The share set.
        shares: Vec<MasterShare>,
        /// Reconstruction threshold.
        t: usize,
    },
}

/// Builds the RC authenticator `E(SecK_RC-PKG, ID_RC ‖ T)` (§V.D).
pub fn compose_authenticator<R: mws_crypto::Rng + ?Sized>(
    rng: &mut R,
    session_key: &[u8],
    rc_id: &str,
    timestamp: u64,
) -> Vec<u8> {
    let mut plain = Vec::new();
    WireWriter::new(&mut plain).string(rc_id).u64(timestamp);
    seal_blob(rng, session_key, AUTHENTICATOR_LABEL, &plain)
}

struct PkgSession {
    rc_id: String,
    session_key: Vec<u8>,
    table: HashMap<u64, String>,
    opened_at: u64,
    /// (aid, nonce) pairs already served — "a private key can only be used
    /// once" (§V.C): one delivery per message per session.
    served: std::collections::HashSet<(u64, Vec<u8>)>,
}

struct PkgInner {
    ibe: IbeSystem,
    master: PkgMaster,
    mpk: MasterPublic,
    mws_secret: Vec<u8>,
    clock: LogicalClock,
    rng: HmacDrbg,
    replay: ReplayGuard,
    sessions: HashMap<u64, PkgSession>,
    next_session: u64,
    session_ttl: u64,
    audit: AuditLog,
}

/// The PKG service handle (cheaply cloneable; bind one clone to the
/// network, keep another for inspection).
#[derive(Clone)]
pub struct PkgService {
    inner: Arc<Mutex<PkgInner>>,
}

impl PkgService {
    /// Creates a PKG.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ibe: IbeSystem,
        master: PkgMaster,
        mpk: MasterPublic,
        mws_secret: &[u8],
        clock: LogicalClock,
        replay: ReplayPolicy,
        rng_seed: u64,
        session_ttl: u64,
    ) -> Self {
        // Build the generator fixed-base table and prepared tapes up front: every
        // extract/session handshake after this hits only the fast paths.
        ibe.pairing().warm_caches();
        mpk.prepared(ibe.pairing());
        Self {
            inner: Arc::new(Mutex::new(PkgInner {
                ibe,
                master,
                mpk,
                mws_secret: mws_secret.to_vec(),
                clock,
                rng: HmacDrbg::new(&rng_seed.to_be_bytes(), b"pkg-service"),
                replay: ReplayGuard::new(replay),
                sessions: HashMap::new(),
                next_session: 1,
                session_ttl,
                audit: AuditLog::new(1024),
            })),
        }
    }

    /// A [`Service`] facade for binding onto a network.
    pub fn as_service(&self) -> impl Service + 'static {
        let inner = self.inner.clone();
        move |req: Pdu| lock(&inner).handle(req)
    }

    /// Snapshot of audit rejections (test/ops hook).
    pub fn rejection_count(&self) -> usize {
        lock(&self.inner).audit.rejection_count()
    }
}

impl PkgInner {
    fn handle(&mut self, req: Pdu) -> Pdu {
        match req {
            Pdu::ParamsRequest => self.handle_params(),
            Pdu::PkgAuthRequest {
                rc_id,
                ticket,
                authenticator,
            } => {
                let reply = self.handle_auth(rc_id, ticket, authenticator);
                if matches!(reply, Pdu::Error { .. }) {
                    stats().pkg_auth_rejected.inc();
                } else {
                    stats().pkg_sessions_opened.inc();
                    mws_obs::debug!(target: "mws_pkg", "session opened",
                        live_sessions = self.sessions.len(),);
                }
                reply
            }
            Pdu::KeyRequest {
                session_id,
                aid,
                nonce,
            } => {
                let reply = self.handle_key(session_id, aid, nonce);
                if matches!(reply, Pdu::Error { .. }) {
                    stats().pkg_keys_rejected.inc();
                } else {
                    stats().pkg_keys_served.inc();
                }
                reply
            }
            Pdu::HealthRequest => Pdu::HealthResponse {
                role: "pkg".into(),
                ready: true,
                detail: format!("{} live sessions", self.sessions.len()),
            },
            Pdu::StatsRequest => Pdu::StatsResponse {
                role: "pkg".into(),
                text: mws_obs::registry().exposition(),
            },
            _ => err(400, "unexpected PDU at PKG"),
        }
    }

    fn handle_params(&mut self) -> Pdu {
        let params = self.ibe.pairing().params();
        Pdu::ParamsResponse {
            p: params.p.to_be_bytes(),
            q: params.q.to_be_bytes(),
            h: params.h.to_be_bytes(),
            generator: params.generator.clone(),
            mpk: self.ibe.mpk_to_bytes(&self.mpk),
        }
    }

    fn handle_auth(&mut self, rc_id: String, ticket: Vec<u8>, authenticator: Vec<u8>) -> Pdu {
        let now = self.clock.now();
        // Expire stale sessions opportunistically.
        let ttl = self.session_ttl;
        self.sessions.retain(|_, s| s.opened_at + ttl >= now);

        let Some(content) = TokenGenerator::open_ticket(&self.mws_secret, &ticket) else {
            self.audit.record(
                now,
                AuditEvent::KeyRejected {
                    rc_id: rc_id.clone(),
                    reason: "bad ticket".into(),
                },
            );
            return err(401, "ticket rejected");
        };
        if content.rc_id != rc_id {
            self.audit.record(
                now,
                AuditEvent::KeyRejected {
                    rc_id,
                    reason: "ticket identity mismatch".into(),
                },
            );
            return err(401, "ticket rejected");
        }
        // Authenticator: E(SecK_RC-PKG, ID_RC ‖ T).
        let Some(body) = open_blob(&content.session_key, AUTHENTICATOR_LABEL, &authenticator)
        else {
            self.audit.record(
                now,
                AuditEvent::KeyRejected {
                    rc_id,
                    reason: "bad authenticator".into(),
                },
            );
            return err(401, "authenticator rejected");
        };
        let parsed = (|| {
            let mut r = WireReader::new(&body);
            let id = r.string().ok()?;
            let t = r.u64().ok()?;
            r.finish().ok()?;
            Some((id, t))
        })();
        let Some((inner_id, t)) = parsed else {
            return err(401, "authenticator rejected");
        };
        if inner_id != rc_id {
            return err(401, "authenticator rejected");
        }
        // Freshness: T within window, whole-authenticator replay blocked.
        let replay_key = Sha256::digest(&authenticator);
        if !self.replay.check_and_record(now, t, &replay_key) {
            self.audit.record(
                now,
                AuditEvent::KeyRejected {
                    rc_id,
                    reason: "authenticator replay".into(),
                },
            );
            return err(409, "authenticator replayed or stale");
        }

        let session_id = self.next_session;
        self.next_session += 1;
        // Confirmation proves knowledge of the session key: E(K, T+1).
        let confirmation = seal_blob(
            &mut self.rng,
            &content.session_key,
            CONFIRM_LABEL,
            &t.wrapping_add(1).to_le_bytes(),
        );
        self.sessions.insert(
            session_id,
            PkgSession {
                rc_id,
                session_key: content.session_key,
                table: content.table.into_iter().collect(),
                opened_at: now,
                served: Default::default(),
            },
        );
        Pdu::PkgAuthResponse {
            session_id,
            confirmation,
        }
    }

    fn handle_key(&mut self, session_id: u64, aid: u64, nonce: Vec<u8>) -> Pdu {
        let now = self.clock.now();
        let ttl = self.session_ttl;
        let Some(session) = self
            .sessions
            .get_mut(&session_id)
            .filter(|s| s.opened_at + ttl >= now)
        else {
            return err(404, "unknown or expired session");
        };
        // "RC now starts sending AID ‖ Nonce to PKG. PKG replaces AID with A."
        let Some(attribute) = session.table.get(&aid).cloned() else {
            let rc_id = session.rc_id.clone();
            self.audit.record(
                now,
                AuditEvent::KeyRejected {
                    rc_id,
                    reason: format!("AID {aid} not in ticket"),
                },
            );
            return err(403, "attribute not authorized");
        };
        if !session.served.insert((aid, nonce.clone())) {
            let rc_id = session.rc_id.clone();
            self.audit.record(
                now,
                AuditEvent::KeyRejected {
                    rc_id,
                    reason: "key already served".into(),
                },
            );
            return err(409, "private key already served for this message");
        }
        // I = MapToPoint(SHA1(A ‖ Nonce)); sI via single or threshold master.
        let i_pt = self.ibe.attribute_point(&attribute, &nonce);
        let sk = match &self.master {
            PkgMaster::Single(msk) => self.ibe.extract_point(msk, &i_pt),
            PkgMaster::Threshold { shares, t } => {
                let partials: Vec<_> = shares
                    .iter()
                    .take(*t)
                    .map(|share| self.ibe.partial_extract(share, &i_pt))
                    .collect();
                match self.ibe.combine_partial_keys(&partials) {
                    Ok(k) => k,
                    Err(_) => return err(500, "threshold combination failed"),
                }
            }
        };
        let sk_bytes = self.ibe.sk_to_bytes(&sk);
        let encrypted_key = seal_blob(&mut self.rng, &session.session_key, KEY_LABEL, &sk_bytes);
        let rc_id = session.rc_id.clone();
        self.audit.record(now, AuditEvent::KeyServed { rc_id, aid });
        Pdu::KeyResponse { encrypted_key }
    }
}

fn err(code: u16, detail: &str) -> Pdu {
    Pdu::Error {
        code,
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ReplayPolicy;
    use crate::token::{TicketContent, TokenGenerator};
    use mws_pairing::SecurityLevel;

    fn pkg() -> (PkgService, IbeSystem, LogicalClock, Vec<u8>) {
        let ibe = IbeSystem::named(SecurityLevel::Toy);
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        let clock = LogicalClock::new();
        let secret = b"mws<->pkg".to_vec();
        let svc = PkgService::new(
            ibe.clone(),
            PkgMaster::Single(msk),
            mpk,
            &secret,
            clock.clone(),
            ReplayPolicy::Off,
            7,
            100,
        );
        (svc, ibe, clock, secret)
    }

    #[test]
    fn params_response_is_usable() {
        let (svc, ibe, _, _) = pkg();
        let mut handler = svc.as_service();
        let reply = handler.handle(Pdu::ParamsRequest);
        let (p, q, generator, mpk) = match reply {
            Pdu::ParamsResponse {
                p,
                q,
                generator,
                mpk,
                ..
            } => (p, q, generator, mpk),
            other => panic!("expected ParamsResponse, got {other:?}"),
        };
        assert_eq!(p, ibe.pairing().params().p.to_be_bytes());
        assert_eq!(q, ibe.pairing().params().q.to_be_bytes());
        assert_eq!(generator, ibe.pairing().params().generator);
        assert!(ibe.mpk_from_bytes(&mpk).is_ok());
    }

    #[test]
    fn unexpected_pdu_is_400() {
        let (svc, _, _, _) = pkg();
        let mut handler = svc.as_service();
        let reply = handler.handle(Pdu::DepositAck { message_id: 1 });
        assert!(matches!(reply, Pdu::Error { code: 400, .. }));
    }

    #[test]
    fn auth_with_forged_ticket_is_401_and_audited() {
        let (svc, _, _, _) = pkg();
        let mut handler = svc.as_service();
        let reply = handler.handle(Pdu::PkgAuthRequest {
            rc_id: "rc".into(),
            ticket: vec![0; 64],
            authenticator: vec![0; 32],
        });
        assert!(matches!(reply, Pdu::Error { code: 401, .. }));
        assert_eq!(svc.rejection_count(), 1);
    }

    #[test]
    fn ticket_for_other_identity_rejected() {
        let (svc, _, _, secret) = pkg();
        let mut rng = HmacDrbg::from_u64(2);
        let tg = TokenGenerator::new(&secret);
        let session_key = TokenGenerator::fresh_session_key(&mut rng);
        let ticket = tg.build_ticket(
            &mut rng,
            &TicketContent {
                rc_id: "alice".into(),
                session_key: session_key.clone(),
                issued_at: 0,
                table: vec![],
            },
        );
        let authenticator = compose_authenticator(&mut rng, &session_key, "mallory", 0);
        let mut handler = svc.as_service();
        let reply = handler.handle(Pdu::PkgAuthRequest {
            rc_id: "mallory".into(),
            ticket,
            authenticator,
        });
        assert!(matches!(reply, Pdu::Error { code: 401, .. }));
    }

    #[test]
    fn key_request_without_session_is_404() {
        let (svc, _, _, _) = pkg();
        let mut handler = svc.as_service();
        let reply = handler.handle(Pdu::KeyRequest {
            session_id: 999,
            aid: 1,
            nonce: vec![1],
        });
        assert!(matches!(reply, Pdu::Error { code: 404, .. }));
    }

    #[test]
    fn full_session_flow_and_single_use() {
        let (svc, ibe, _, secret) = pkg();
        let mut rng = HmacDrbg::from_u64(3);
        let tg = TokenGenerator::new(&secret);
        let session_key = TokenGenerator::fresh_session_key(&mut rng);
        let ticket = tg.build_ticket(
            &mut rng,
            &TicketContent {
                rc_id: "rc".into(),
                session_key: session_key.clone(),
                issued_at: 0,
                table: vec![(7, "ATTR-X".into())],
            },
        );
        let authenticator = compose_authenticator(&mut rng, &session_key, "rc", 0);
        let mut handler = svc.as_service();
        let reply = handler.handle(Pdu::PkgAuthRequest {
            rc_id: "rc".into(),
            ticket,
            authenticator,
        });
        let (session_id, confirmation) = match reply {
            Pdu::PkgAuthResponse {
                session_id,
                confirmation,
            } => (session_id, confirmation),
            other => panic!("expected PkgAuthResponse, got {other:?}"),
        };
        // Confirmation decrypts to T+1 under the session key.
        let body = open_blob(&session_key, CONFIRM_LABEL, &confirmation).unwrap();
        let mut r = WireReader::new(&body);
        assert_eq!(r.u64().unwrap(), 1);

        // Authorized AID yields a key; unauthorized AID is 403; reuse is 409.
        let reply = handler.handle(Pdu::KeyRequest {
            session_id,
            aid: 7,
            nonce: b"n1".to_vec(),
        });
        let encrypted_key = match reply {
            Pdu::KeyResponse { encrypted_key } => encrypted_key,
            other => panic!("expected KeyResponse, got {other:?}"),
        };
        let sk_bytes = open_blob(&session_key, KEY_LABEL, &encrypted_key).unwrap();
        assert!(ibe.sk_from_bytes(&sk_bytes).is_ok());

        let reply = handler.handle(Pdu::KeyRequest {
            session_id,
            aid: 8,
            nonce: b"n1".to_vec(),
        });
        assert!(matches!(reply, Pdu::Error { code: 403, .. }));

        let reply = handler.handle(Pdu::KeyRequest {
            session_id,
            aid: 7,
            nonce: b"n1".to_vec(),
        });
        assert!(matches!(reply, Pdu::Error { code: 409, .. }));
    }
}
