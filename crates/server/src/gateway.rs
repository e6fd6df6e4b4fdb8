//! The Gatekeeper front door of the four-server topology.
//!
//! In the paper's deployment (§VI.C) the Gatekeeper is its own server: the
//! RC's first hop, which "authenticate\[s\] the user and establish\[es\] a
//! secure channel of communication between RC and MWS". This module
//! reproduces that as a standalone service: it verifies the §V.D auth blob
//! `ID_RC ‖ E(HashPassword, ID_RC ‖ T ‖ N)` against its own User Database
//! and only then relays the request upstream to the warehouse.
//!
//! The warehouse keeps its own gatekeeper (defense in depth): the relayed
//! request carries the original auth blob and is verified a second time
//! there. The two replay guards are independent, so the single forwarded
//! copy passes both.

use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_core::gatekeeper::{Gatekeeper, GkReject};
use mws_net::{Client, Service};
use mws_obs::sync::lock;
use mws_store::StorageKind;
use mws_wire::Pdu;
use std::sync::{Arc, Mutex};

/// A front door's User Database and clock: what both front doors (this
/// one and [`ClusterFrontdoor`](crate::cluster::ClusterFrontdoor)) lock,
/// and only for the auth check, never across a relay.
pub(crate) struct DoorAuth {
    gatekeeper: Gatekeeper,
    clock: LogicalClock,
}

impl DoorAuth {
    /// An in-memory user table, shareable across a door's clones.
    pub(crate) fn shared(clock: LogicalClock, replay: ReplayPolicy) -> Arc<Mutex<Self>> {
        let gatekeeper =
            Gatekeeper::open(StorageKind::Memory, replay).expect("memory storage cannot fail");
        Arc::new(Mutex::new(Self { gatekeeper, clock }))
    }

    /// Registers an RC.
    pub(crate) fn register(&mut self, rc_id: &str, password: &str, public_key: &[u8]) {
        self.gatekeeper
            .register(rc_id, password, public_key)
            .expect("memory storage cannot fail");
    }

    /// The retrieve check: `None` when the auth blob verifies, else the
    /// counted and logged 409 (replay) or 401.
    pub(crate) fn refusal(&mut self, rc_id: &str, auth: &[u8]) -> Option<Pdu> {
        let now = self.clock.now();
        let reject = self.gatekeeper.verify(now, rc_id, auth).err()?;
        let code = match reject {
            GkReject::Replay => 409,
            _ => 401,
        };
        gw_stats().rejected.inc();
        mws_obs::warn!(target: "mws_server", "retrieve stopped at front door",
            code = u64::from(code), reason = reject.to_string(),);
        Some(Pdu::Error {
            code,
            detail: reject.to_string(),
        })
    }
}

/// The standalone Gatekeeper service: authenticate, then relay to the MMS.
/// Clones share the user table and the upstream connection.
#[derive(Clone)]
pub struct GatekeeperFrontdoor {
    auth: Arc<Mutex<DoorAuth>>,
    upstream: Client,
}

impl GatekeeperFrontdoor {
    /// A front door with its own in-memory user table, relaying to
    /// `upstream` (an MMS client — TCP in deployment, bus in tests).
    pub fn new(clock: LogicalClock, replay: ReplayPolicy, upstream: Client) -> Self {
        Self {
            auth: DoorAuth::shared(clock, replay),
            upstream,
        }
    }

    /// Registers an RC at the front door. The same identity must also be
    /// registered at the warehouse, which issues the actual token.
    pub fn register(&self, rc_id: &str, password: &str, public_key: &[u8]) {
        lock(&self.auth).register(rc_id, password, public_key);
    }

    /// A bindable service facade.
    pub fn as_service(&self) -> impl Service + 'static {
        let this = self.clone();
        move |req: Pdu| this.handle(req)
    }

    fn handle(&self, request: Pdu) -> Pdu {
        if matches!(request, Pdu::HealthRequest) {
            return Pdu::HealthResponse {
                role: "gatekeeper".into(),
                ready: true,
                detail: format!("relaying to {}", self.upstream.target()),
            };
        }
        if matches!(request, Pdu::StatsRequest) {
            return Pdu::StatsResponse {
                role: "gatekeeper".into(),
                text: mws_obs::registry().exposition(),
            };
        }
        let Pdu::RetrieveRequest {
            ref rc_id,
            ref auth,
            ..
        } = request
        else {
            // Deposits go straight to the MMS and key requests to the PKG;
            // the front door only fronts retrievals.
            return Pdu::Error {
                code: 400,
                detail: "unexpected PDU at gatekeeper".into(),
            };
        };
        if let Some(refusal) = lock(&self.auth).refusal(rc_id, auth) {
            return refusal;
        }
        // The upstream client makes its own retries within its deadline.
        match self.upstream.call(&request) {
            Ok(reply) => {
                gw_stats().relayed.inc();
                mws_obs::debug!(target: "mws_gateway", "retrieve relayed upstream",
                    upstream = self.upstream.target(),);
                reply
            }
            Err(e) => {
                gw_stats().upstream_errors.inc();
                mws_obs::warn!(target: "mws_server", "warehouse unreachable",
                    upstream = self.upstream.target(), error = e.to_string(),);
                Pdu::Error {
                    code: 502,
                    detail: format!("warehouse unreachable: {e}"),
                }
            }
        }
    }
}

/// Front-door relay counters (preregistered, see `crate::stats`).
struct GwStats {
    relayed: mws_obs::Counter,
    rejected: mws_obs::Counter,
    upstream_errors: mws_obs::Counter,
}

fn gw_stats() -> &'static GwStats {
    static STATS: std::sync::OnceLock<GwStats> = std::sync::OnceLock::new();
    STATS.get_or_init(|| {
        let r = mws_obs::registry();
        GwStats {
            relayed: r.counter("mws_gateway_relayed_total"),
            rejected: r.counter("mws_gateway_rejected_total"),
            upstream_errors: r.counter("mws_gateway_upstream_errors_total"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_core::protocol::{Deployment, DeploymentConfig};
    use mws_net::Network;

    /// Front door on the bus in front of a real deployment's MWS.
    fn fronted_deployment() -> (Deployment, Network) {
        let mut dep = Deployment::new(DeploymentConfig::test_default());
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let net = Network::new();
        let front = GatekeeperFrontdoor::new(
            dep.clock().clone(),
            ReplayPolicy::standard(),
            dep.network().client("mws"),
        );
        front.register(
            "rc",
            "pw",
            &dep.mws().client_public_key("rc").expect("registered"),
        );
        net.bind("gatekeeper", front.as_service());
        // The PKG stays directly reachable.
        let pkg_upstream = dep.network().client("pkg");
        net.bind("pkg", move |req: Pdu| {
            pkg_upstream.call(&req).expect("bus relay")
        });
        (dep, net)
    }

    #[test]
    fn retrieval_through_front_door_end_to_end() {
        let (mut dep, net) = fronted_deployment();
        let mut meter = dep.device("m");
        meter.deposit("A", b"reading").unwrap();
        let mut rc = dep.client_with("rc", "pw", net.client("gatekeeper"), net.client("pkg"));
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].plaintext, b"reading");
    }

    #[test]
    fn wrong_password_stopped_at_front_door() {
        let (mut dep, net) = fronted_deployment();
        let mut rc = dep.client_with("rc", "nope", net.client("gatekeeper"), net.client("pkg"));
        let err = rc.retrieve_and_decrypt(0).unwrap_err();
        assert!(matches!(
            err,
            mws_core::CoreError::Remote {
                code: mws_core::ErrorCode::AuthFailed,
                ..
            }
        ));
        // The warehouse never saw the request.
        assert_eq!(dep.mws().rejection_count(), 0);
    }

    #[test]
    fn non_retrieve_pdus_rejected() {
        let (dep, net) = fronted_deployment();
        let reply = net.client("gatekeeper").call(&Pdu::ParamsRequest).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 400, .. }));
        drop(dep);
    }

    #[test]
    fn unreachable_warehouse_maps_to_502() {
        let mut dep = Deployment::new(DeploymentConfig::test_default());
        dep.register_client("rc", "pw", &["A"]);
        let net = Network::new();
        // Upstream points at a name no one bound.
        let front = GatekeeperFrontdoor::new(
            dep.clock().clone(),
            ReplayPolicy::standard(),
            dep.network().client("nowhere"),
        );
        front.register(
            "rc",
            "pw",
            &dep.mws().client_public_key("rc").expect("registered"),
        );
        net.bind("gatekeeper", front.as_service());
        let pkg = dep.network().client("pkg");
        let mut rc = dep.client_with("rc", "pw", net.client("gatekeeper"), pkg);
        // 502 has no ErrorCode variant, so it degrades to Internal — but
        // the detail names the relay failure.
        match rc.retrieve_and_decrypt(0).unwrap_err() {
            mws_core::CoreError::Remote { code, detail } => {
                assert_eq!(code, mws_core::ErrorCode::Internal);
                assert!(detail.contains("warehouse unreachable"), "{detail}");
            }
            other => panic!("expected remote 502, got {other:?}"),
        }
    }

    #[test]
    fn front_door_relays_to_a_warehouse_on_its_own_network() {
        use std::sync::mpsc;
        use std::time::Duration;

        let mut dep = Deployment::new(DeploymentConfig::test_default());
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let net = dep.network().clone();
        let front = GatekeeperFrontdoor::new(
            dep.clock().clone(),
            ReplayPolicy::standard(),
            net.client("mws"),
        );
        front.register(
            "rc",
            "pw",
            &dep.mws().client_public_key("rc").expect("registered"),
        );
        net.bind("gatekeeper", front.as_service());
        dep.device("m").deposit("A", b"reading").unwrap();
        let mut rc = dep.client_with("rc", "pw", net.client("gatekeeper"), net.client("pkg"));

        // A relay that waits on the network its own handler holds never
        // answers; the timeout fails the test instead of hanging it.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(rc.retrieve_and_decrypt(0).map(|msgs| msgs.len()));
        });
        let retrieved = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("the relay into its own network deadlocked");
        assert_eq!(retrieved.unwrap(), 1);
    }

    #[test]
    fn health_is_answered_while_a_retrieve_is_stuck_upstream() {
        use crate::client::{ClientConfig, TcpClient};
        use crate::server::{ServerConfig, TcpServer};
        use mws_core::gatekeeper::compose_rc_auth;
        use mws_crypto::{Digest, HmacDrbg, Sha256};
        use std::sync::mpsc;
        use std::time::Duration;

        // A warehouse that takes a retrieve and holds it until released.
        let (entered, stuck) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let warehouse = Network::new();
        warehouse.bind("mws", move |_: Pdu| {
            entered.send(()).unwrap();
            let _ = released.recv();
            Pdu::Error {
                code: 503,
                detail: "released".into(),
            }
        });
        let clock = LogicalClock::new();
        let front = GatekeeperFrontdoor::new(
            clock.clone(),
            ReplayPolicy::standard(),
            warehouse.client("mws"),
        );
        front.register("rc", "pw", b"rc public key");
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = TcpServer::spawn(cfg, || front.as_service()).unwrap();

        let auth = compose_rc_auth(
            &mut HmacDrbg::from_u64(1),
            &Sha256::digest(b"pw"),
            "rc",
            clock.now(),
        );
        let retrieve = Pdu::RetrieveRequest {
            rc_id: "rc".into(),
            auth,
            since: 0,
            limit: 0,
        };
        let rc = TcpClient::new(server.local_addr()).into_client();
        let retrieving = std::thread::spawn(move || rc.call(&retrieve));
        stuck.recv_timeout(Duration::from_secs(5)).unwrap();

        let once = ClientConfig {
            attempts: 1,
            ..ClientConfig::default()
        };
        let operator = TcpClient::with_config(server.local_addr(), once).into_client();
        let health = operator.call(&Pdu::HealthRequest);
        release.send(()).unwrap();
        assert!(
            matches!(health, Ok(Pdu::HealthResponse { ready: true, .. })),
            "{health:?}"
        );
        let relayed = retrieving.join().unwrap();
        assert!(
            matches!(relayed, Ok(Pdu::Error { code: 503, .. })),
            "{relayed:?}"
        );
    }
}
