//! The Gatekeeper front door of the four-server topology.
//!
//! In the paper's deployment (§VI.C) the Gatekeeper is its own server: the
//! RC's first hop, which "authenticate[s] the user and establish[es] a
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

/// Upstream relay retry budget (transient socket failures only).
const UPSTREAM_ATTEMPTS: u32 = 3;

struct FrontdoorInner {
    gatekeeper: Gatekeeper,
    clock: LogicalClock,
    upstream: Client,
}

/// The standalone Gatekeeper service: authenticate, then relay to the MMS.
#[derive(Clone)]
pub struct GatekeeperFrontdoor {
    inner: Arc<Mutex<FrontdoorInner>>,
}

impl GatekeeperFrontdoor {
    /// A front door with its own in-memory user table, relaying to
    /// `upstream` (an MMS client — TCP in deployment, bus in tests).
    pub fn new(clock: LogicalClock, replay: ReplayPolicy, upstream: Client) -> Self {
        let gatekeeper =
            Gatekeeper::open(StorageKind::Memory, replay).expect("memory storage cannot fail");
        Self {
            inner: Arc::new(Mutex::new(FrontdoorInner {
                gatekeeper,
                clock,
                upstream,
            })),
        }
    }

    /// Registers an RC at the front door. The same identity must also be
    /// registered at the warehouse, which issues the actual token.
    pub fn register(&self, rc_id: &str, password: &str, public_key: &[u8]) {
        lock(&self.inner)
            .gatekeeper
            .register(rc_id, password, public_key)
            .expect("memory storage cannot fail");
    }

    /// A bindable service facade (clones share the user table and the
    /// upstream connection).
    pub fn as_service(&self) -> impl Service + 'static {
        let inner = self.inner.clone();
        move |req: Pdu| lock(&inner).handle(req)
    }
}

impl FrontdoorInner {
    fn handle(&mut self, request: Pdu) -> Pdu {
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
        let now = self.clock.now();
        if let Err(reject) = self.gatekeeper.verify(now, rc_id, auth) {
            let code = match reject {
                GkReject::Replay => 409,
                _ => 401,
            };
            gw_stats().rejected.inc();
            mws_obs::warn!(target: "mws_server", "retrieve stopped at front door",
                code = u64::from(code), reason = reject.to_string(),);
            return Pdu::Error {
                code,
                detail: reject.to_string(),
            };
        }
        match self.upstream.call_with_retry(&request, UPSTREAM_ATTEMPTS) {
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
        // Upstream points at an unbound name on the deployment's network —
        // NOT on `net`, where this front door itself is bound: the bus
        // holds its state lock across a handler, so a relay back into the
        // same Network would self-deadlock.
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
}
