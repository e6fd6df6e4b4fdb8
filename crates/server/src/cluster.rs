//! The cluster front door: one address that speaks for N warehouses.
//!
//! In cluster mode the gatekeeper daemon stops being a single-upstream
//! relay and becomes the access point of a replicated warehouse: deposits
//! and batches go through the [`ClusterRouter`]'s quorum write path,
//! retrieves are authenticated here (§V.D, same User Database check as the
//! single-node [`GatekeeperFrontdoor`](crate::gateway::GatekeeperFrontdoor))
//! and then fanned out and merged across the live nodes. Devices and RCs
//! keep speaking the exact same PDUs — the cluster is invisible except for
//! the health detail line.
//!
//! Confidentiality is unchanged: the front door forwards the device's
//! sealed bytes verbatim and never holds key material beyond the RC
//! password hashes the single-node gatekeeper already held, plus the
//! replica-plane MAC key (an integrity key derived from the MWS–PKG
//! secret, useless for decryption).

use crate::gateway::DoorAuth;
use mws_cluster::{ClusterRouter, HealthProber};
use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_net::Service;
use mws_obs::sync::lock;
use mws_wire::Pdu;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Authenticating front door over a [`ClusterRouter`] (clones share the
/// user table, the router and the prober).
#[derive(Clone)]
pub struct ClusterFrontdoor {
    auth: Arc<Mutex<DoorAuth>>,
    router: Arc<ClusterRouter>,
    prober: Arc<Mutex<Option<HealthProber>>>,
}

impl ClusterFrontdoor {
    /// A front door with its own in-memory user table, routing through
    /// `router`. Call [`start_prober`](Self::start_prober) to keep node
    /// liveness fresh without traffic.
    pub fn new(clock: LogicalClock, replay: ReplayPolicy, router: Arc<ClusterRouter>) -> Self {
        Self {
            auth: DoorAuth::shared(clock, replay),
            router,
            prober: Arc::new(Mutex::new(None)),
        }
    }

    /// Registers an RC at the front door. The same identity must also be
    /// provisioned on every warehouse node (seed-deterministic daemons
    /// guarantee this when started with identical flags).
    pub fn register(&self, rc_id: &str, password: &str, public_key: &[u8]) {
        lock(&self.auth).register(rc_id, password, public_key);
    }

    /// Starts the background health prober (idempotent; the handle lives
    /// as long as any clone of this front door).
    pub fn start_prober(&self, every: Duration) {
        let mut slot = lock(&self.prober);
        if slot.is_none() {
            *slot = Some(HealthProber::spawn(self.router.clone(), every));
        }
    }

    /// The router this front door routes through (observability surface).
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// A bindable service facade.
    pub fn as_service(&self) -> impl Service + 'static {
        let this = self.clone();
        move |req: Pdu| this.handle(req)
    }

    fn handle(&self, request: Pdu) -> Pdu {
        // Only retrieves need the front door's own auth check; everything
        // else — deposits, batches, health, stats — is the router's
        // business (it answers health/stats itself and 400s PDUs that
        // have no business at a warehouse front door).
        if let Pdu::RetrieveRequest {
            ref rc_id,
            ref auth,
            ..
        } = request
        {
            if let Some(refusal) = lock(&self.auth).refusal(rc_id, auth) {
                return refusal;
            }
        }
        self.router.handle(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter};
    use mws_core::protocol::{Deployment, DeploymentConfig};
    use mws_net::Network;

    /// Three same-seed deployments as cluster nodes behind one front door
    /// on its own bus — the in-process picture of three `mws-mmsd`
    /// processes behind a cluster-mode `mws-gatekeeperd`.
    fn cluster_front() -> (Vec<Deployment>, ClusterFrontdoor, Network) {
        let deps: Vec<Deployment> = (0..3)
            .map(|_| {
                let mut dep = Deployment::new(DeploymentConfig::test_default());
                dep.register_device("m");
                dep.register_client("rc", "pw", &["A", "B"]);
                dep
            })
            .collect();
        let nodes = deps
            .iter()
            .enumerate()
            .map(|(i, dep)| {
                ClusterNode::new(format!("node-{i}"), vec![dep.network().client("mws")])
            })
            .collect();
        let router = ClusterRouter::new(nodes, ClusterConfig::new(2, 2), deps[0].replica_key());
        router.set_attribute_names(
            deps[0]
                .mws()
                .policy_table()
                .into_iter()
                .map(|row| (row.attribute_id, row.attribute)),
        );
        let front = ClusterFrontdoor::new(
            deps[0].clock().clone(),
            ReplayPolicy::standard(),
            router.clone(),
        );
        front.register(
            "rc",
            "pw",
            &deps[0].mws().client_public_key("rc").expect("registered"),
        );
        let net = Network::new();
        net.bind("cluster", front.as_service());
        (deps, front, net)
    }

    #[test]
    fn deposit_and_retrieve_through_cluster_front_door() {
        let (mut deps, _front, net) = cluster_front();
        let pdus: Vec<Pdu> = {
            let mut meter = deps[0].device("m");
            vec![
                meter.compose_deposit("A", b"one"),
                meter.compose_deposit("B", b"two"),
            ]
        };
        let door = net.client("cluster");
        for pdu in &pdus {
            assert!(matches!(door.call(pdu).unwrap(), Pdu::DepositAck { .. }));
        }
        // Each row landed on exactly R = 2 of the 3 nodes.
        let total: usize = deps.iter().map(|d| d.mws().message_count()).sum();
        assert_eq!(total, 4, "2 rows × R=2 copies");
        // The RC sees one merged warehouse through the same client code.
        let pkg = deps[0].network().client("pkg");
        let mut rc = deps[0].client_with("rc", "pw", net.client("cluster"), pkg);
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        let mut plain: Vec<&[u8]> = msgs.iter().map(|m| m.plaintext.as_slice()).collect();
        plain.sort_unstable();
        assert_eq!(plain, vec![b"one".as_slice(), b"two"]);
    }

    #[test]
    fn wrong_password_never_reaches_the_nodes() {
        let (mut deps, _front, net) = cluster_front();
        let pkg = deps[0].network().client("pkg");
        let mut rc = deps[0].client_with("rc", "nope", net.client("cluster"), pkg);
        let err = rc.retrieve_and_decrypt(0).unwrap_err();
        assert!(matches!(
            err,
            mws_core::CoreError::Remote {
                code: mws_core::ErrorCode::AuthFailed,
                ..
            }
        ));
        for dep in &deps {
            assert_eq!(dep.mws().rejection_count(), 0);
        }
    }

    #[test]
    fn a_refused_retrieve_counts_as_a_front_door_rejection() {
        let (mut deps, _front, net) = cluster_front();
        let rejected = || {
            mws_obs::registry()
                .counter("mws_gateway_rejected_total")
                .get()
        };
        let before = rejected();
        let pkg = deps[0].network().client("pkg");
        let mut rc = deps[0].client_with("rc", "nope", net.client("cluster"), pkg);
        assert!(rc.retrieve_and_decrypt(0).is_err());
        assert!(rejected() > before);
    }

    #[test]
    fn health_reports_cluster_membership() {
        let (deps, _front, net) = cluster_front();
        let reply = net.client("cluster").call(&Pdu::HealthRequest).unwrap();
        let Pdu::HealthResponse {
            role,
            ready,
            detail,
        } = reply
        else {
            panic!("expected health response");
        };
        assert_eq!(role, "cluster");
        assert!(ready);
        assert!(detail.contains("3/3"), "{detail}");
        drop(deps);
    }

    #[test]
    fn membership_orders_flow_through_the_front_door() {
        let (mut deps, front, net) = cluster_front();
        let pdus: Vec<Pdu> = {
            let mut meter = deps[0].device("m");
            vec![
                meter.compose_deposit("A", b"one"),
                meter.compose_deposit("B", b"two"),
            ]
        };
        let door = net.client("cluster");
        for pdu in &pdus {
            assert!(matches!(door.call(pdu).unwrap(), Pdu::DepositAck { .. }));
        }
        // A fourth same-seed warehouse joins live, ordered through the
        // same port devices use — authenticated by the replica-key MAC.
        let dep3 = {
            let mut dep = Deployment::new(DeploymentConfig::test_default());
            dep.register_device("m");
            dep.register_client("rc", "pw", &["A", "B"]);
            dep
        };
        let node3 = dep3.network().client("mws");
        front
            .router()
            .set_node_factory(move |name| mws_cluster::ClusterNode::new(name, vec![node3.clone()]));
        let epoch = front.router().epoch();
        let join = Pdu::ClusterJoin {
            node: "node-3".into(),
            epoch,
            mac: deps[0].cluster_join_mac("node-3", epoch),
        };
        let Pdu::ClusterAdminAck { epoch, .. } = door.call(&join).unwrap() else {
            panic!("join refused");
        };
        assert_eq!(epoch, 1, "ring epoch bumped");
        assert!(front.router().wait_rebalance(Duration::from_secs(10)));
        let Pdu::RebalanceReport {
            members,
            transferring,
            ..
        } = door.call(&Pdu::RebalanceStatus).unwrap()
        else {
            panic!("expected rebalance report");
        };
        assert_eq!(members.len(), 4);
        assert!(!transferring);
        // The grown ring still serves the merged view.
        let pkg = deps[0].network().client("pkg");
        let mut rc = deps[0].client_with("rc", "pw", net.client("cluster"), pkg);
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 2);
        drop(dep3);
    }

    #[test]
    fn forged_membership_orders_bounce_at_the_router() {
        let (deps, front, net) = cluster_front();
        let forged = Pdu::ClusterDrain {
            node: "node-2".into(),
            epoch: front.router().epoch(),
            mac: vec![0u8; 32],
        };
        let reply = net.client("cluster").call(&forged).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 403, .. }), "{reply:?}");
        drop(deps);
    }

    #[test]
    fn non_warehouse_pdus_rejected() {
        let (deps, _front, net) = cluster_front();
        let reply = net.client("cluster").call(&Pdu::ParamsRequest).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 400, .. }));
        drop(deps);
    }
}
