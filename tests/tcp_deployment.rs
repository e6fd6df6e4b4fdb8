//! Acceptance test for the TCP deployment: the paper's four-server
//! topology (§VI.C) on real loopback sockets, in one test process.
//!
//! Three daemons — MMS, PKG, and the Gatekeeper front door — each run a
//! `TcpServer` on an ephemeral port. The smart device and receiving client
//! are minted with socket-backed transports (`TcpClient`), so every PDU of
//! the deposit → ticket → key-issue → retrieve flow crosses a real TCP
//! connection. Shutdown must join every server thread.
//!
//! The four-server flow and the replay test run twice, over plaintext
//! envelopes and with every link on the IBS-authenticated handshake +
//! AES-GCM record layer of DESIGN.md §12, with the same assertions. The
//! tests below them pin the downgrade paths and rekey under load.

use mws_core::clock::ReplayPolicy;
use mws_core::protocol::{Deployment, DeploymentConfig};
use mws_server::{
    ClientConfig, GatekeeperFrontdoor, IbsAuth, SecureClientSettings, SecureSettings, ServerConfig,
    TcpClient, TcpServer, TransportMode, ID_CLIENT, ID_GATEKEEPER, ID_MMS, ID_PKG,
};
use mws_wire::secure::SessionConfig;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Server-side secure settings proving `identity`, from the topology's
/// deployment (what `SecureSettings::for_role` does for real daemons).
fn secure_settings(dep: &Deployment, identity: &str) -> Arc<SecureSettings> {
    Arc::new(SecureSettings {
        auth: Arc::new(IbsAuth::from_deployment(dep, identity)),
        session: SessionConfig::default(),
        handshake_timeout: Duration::from_secs(5),
    })
}

/// A client transport in `mode`: plaintext, or authenticating as
/// `identity` and pinning the server's `expect` identity.
fn client_for(
    dep: &Deployment,
    addr: SocketAddr,
    mode: TransportMode,
    identity: &str,
    expect: &str,
) -> mws_net::Client {
    if mode.is_secure() {
        TcpClient::with_config(
            addr,
            ClientConfig {
                secure: Some(Arc::new(SecureClientSettings::new(
                    dep,
                    identity,
                    Some(expect),
                ))),
                ..ClientConfig::default()
            },
        )
        .into_client()
    } else {
        TcpClient::new(addr).into_client()
    }
}

/// The three servers plus the provisioning authority behind them.
struct TcpTopology {
    dep: Deployment,
    mode: TransportMode,
    mms: TcpServer,
    pkg: TcpServer,
    gatekeeper: TcpServer,
}

impl TcpTopology {
    fn mms_client(&self) -> mws_net::Client {
        client_for(
            &self.dep,
            self.mms.local_addr(),
            self.mode,
            ID_CLIENT,
            ID_MMS,
        )
    }

    fn pkg_client(&self) -> mws_net::Client {
        client_for(
            &self.dep,
            self.pkg.local_addr(),
            self.mode,
            ID_CLIENT,
            ID_PKG,
        )
    }

    fn gatekeeper_client(&self) -> mws_net::Client {
        client_for(
            &self.dep,
            self.gatekeeper.local_addr(),
            self.mode,
            ID_CLIENT,
            ID_GATEKEEPER,
        )
    }
}

/// Both transports, for the tests that run the same flow over each.
const MODES: [TransportMode; 2] = [TransportMode::Plain, TransportMode::Secure];

fn spawn_topology(mode: TransportMode) -> TcpTopology {
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    dep.register_device("meter-1");
    dep.register_client("utility", "pw", &["ELECTRIC-APT9"]);

    let cfg = |dep: &Deployment, identity: &str| ServerConfig {
        secure: mode.is_secure().then(|| secure_settings(dep, identity)),
        ..ServerConfig::default()
    };
    let mms = {
        let service = dep.mws().clone();
        TcpServer::spawn(cfg(&dep, ID_MMS), || service.as_service()).expect("bind mms")
    };
    let pkg = {
        let service = dep.pkg().clone();
        TcpServer::spawn(cfg(&dep, ID_PKG), || service.as_service()).expect("bind pkg")
    };
    let gatekeeper = {
        // The front door dials the MMS daemon over TCP, like its own
        // process would, and holds its own replica of the user table. In
        // secure mode the relay hop authenticates as the gatekeeper and
        // pins the warehouse identity.
        let upstream = client_for(&dep, mms.local_addr(), mode, ID_GATEKEEPER, ID_MMS);
        let front =
            GatekeeperFrontdoor::new(dep.clock().clone(), ReplayPolicy::standard(), upstream);
        front.register(
            "utility",
            "pw",
            &dep.mws().client_public_key("utility").expect("registered"),
        );
        TcpServer::spawn(cfg(&dep, ID_GATEKEEPER), || front.as_service()).expect("bind gatekeeper")
    };
    TcpTopology {
        dep,
        mode,
        mms,
        pkg,
        gatekeeper,
    }
}

/// The end-to-end deposit → ticket → key-issue → retrieve flow, the
/// front door's password check and a graceful shutdown, over `mode`.
fn full_flow(mode: TransportMode) {
    let mut topo = spawn_topology(mode);

    // SD side: deposits go directly to the warehouse (§V.D phase 1).
    let (mms_c, pkg_c) = (topo.mms_client(), topo.pkg_client());
    let mut meter = topo
        .dep
        .device_with("meter-1", mms_c, &pkg_c)
        .expect("bootstrap IBE params over TCP");
    let id1 = meter.deposit("ELECTRIC-APT9", b"kwh=42.7").unwrap();
    let id2 = meter.deposit("ELECTRIC-APT9", b"kwh=43.1").unwrap();
    assert_ne!(id1, id2);

    // RC side: retrievals enter through the Gatekeeper front door, which
    // authenticates and relays to the MMS; key issuance goes to the PKG
    // with the warehouse-minted ticket (phases 2 and 3).
    let (gk_c, pkg_c) = (topo.gatekeeper_client(), topo.pkg_client());
    let mut rc = topo.dep.client_with("utility", "pw", gk_c, pkg_c);
    let msgs = rc.retrieve_and_decrypt(0).unwrap();
    assert_eq!(msgs.len(), 2);
    let mut plaintexts: Vec<&[u8]> = msgs.iter().map(|m| m.plaintext.as_slice()).collect();
    plaintexts.sort();
    assert_eq!(plaintexts, vec![b"kwh=42.7".as_slice(), b"kwh=43.1"]);

    // Wrong password dies at the front door; the warehouse never sees it.
    let (gk_c, pkg_c) = (topo.gatekeeper_client(), topo.pkg_client());
    let mut intruder = topo.dep.client_with("utility", "wrong", gk_c, pkg_c);
    assert!(matches!(
        intruder.retrieve_and_decrypt(0).unwrap_err(),
        mws_core::CoreError::Remote {
            code: mws_core::ErrorCode::AuthFailed,
            ..
        }
    ));
    assert_eq!(topo.dep.mws().rejection_count(), 0);

    // Graceful shutdown joins every thread of every server — event loops
    // + workers on Linux, workers elsewhere — even with the clients'
    // persistent connections still open.
    let cfg = ServerConfig::default();
    let expected = if cfg!(target_os = "linux") {
        cfg.event_loops + cfg.workers
    } else {
        cfg.workers
    };
    assert_eq!(topo.mms.shutdown(), expected);
    assert_eq!(topo.pkg.shutdown(), expected);
    assert_eq!(topo.gatekeeper.shutdown(), expected);
}

#[test]
fn four_server_flow_over_real_sockets() {
    full_flow(TransportMode::Plain);
}

#[test]
fn secure_transport_full_flow() {
    // The same flow with every link handshaked and sealed.
    full_flow(TransportMode::Secure);
}

#[test]
fn deposit_replay_rejected_over_tcp() {
    for mode in MODES {
        let mut topo = spawn_topology(mode);
        let mws = topo.mms_client();
        let pkg = topo.pkg_client();
        let mut meter = topo.dep.device_with("meter-1", mws.clone(), &pkg).unwrap();
        let pdu = meter.compose_deposit("ELECTRIC-APT9", b"reading");
        assert!(matches!(
            mws.call(&pdu).unwrap(),
            mws_wire::Pdu::DepositAck { .. }
        ));
        // An attacker replaying the captured frame is refused.
        assert!(matches!(
            mws.call(&pdu).unwrap(),
            mws_wire::Pdu::Error { code: 409, .. }
        ));
    }
}

#[test]
fn plaintext_client_refused_with_426_by_secure_server() {
    // A legacy plaintext client dialing a secure listener must get an
    // explicit 426 in its own protocol — not a hang, not a reset.
    let dep = Deployment::new(DeploymentConfig::test_default());
    let service = dep.mws().clone();
    let server = TcpServer::spawn(
        ServerConfig {
            secure: Some(secure_settings(&dep, ID_MMS)),
            ..ServerConfig::default()
        },
        || service.as_service(),
    )
    .unwrap();
    let plain = TcpClient::with_config(
        server.local_addr(),
        ClientConfig {
            attempts: 1,
            ..ClientConfig::default()
        },
    )
    .into_client();
    match plain.call(&mws_wire::Pdu::StatsRequest) {
        Ok(mws_wire::Pdu::Error { code: 426, detail }) => {
            assert!(detail.contains("secure"), "{detail}")
        }
        other => panic!("expected 426, got {other:?}"),
    }
}

#[test]
fn secure_client_to_plain_server_fails_cleanly() {
    // The reverse misconfiguration: the server speaks plaintext, the
    // client requires a handshake. The plain server rejects the HELLO
    // record as an unknown envelope version; the client must surface a
    // clean transport error (no panic, no partial session).
    let dep = Deployment::new(DeploymentConfig::test_default());
    let service = dep.mws().clone();
    let server = TcpServer::spawn(ServerConfig::default(), || service.as_service()).unwrap();
    let secure = client_for(
        &dep,
        server.local_addr(),
        TransportMode::Secure,
        ID_CLIENT,
        ID_MMS,
    );
    assert!(secure.call(&mws_wire::Pdu::StatsRequest).is_err());
}

#[test]
fn wrong_peer_identity_refused_end_to_end() {
    // The server proves `mws/pkg`; a client pinning `mws/mms` must
    // abort the handshake — a verified-but-wrong daemon never sees a
    // single sealed frame.
    let dep = Deployment::new(DeploymentConfig::test_default());
    let service = dep.pkg().clone();
    let server = TcpServer::spawn(
        ServerConfig {
            secure: Some(secure_settings(&dep, ID_PKG)),
            ..ServerConfig::default()
        },
        || service.as_service(),
    )
    .unwrap();
    let pinned_wrong = client_for(
        &dep,
        server.local_addr(),
        TransportMode::Secure,
        ID_CLIENT,
        ID_MMS,
    );
    assert!(pinned_wrong.call(&mws_wire::Pdu::StatsRequest).is_err());
}

#[test]
fn rekey_under_load() {
    // A tiny rekey interval forces many mid-session key ratchets in
    // both directions; every exchange must still round-trip because
    // both ends count records in lockstep. 64 calls at rekey_every=4 is
    // ~16 generations per direction.
    let dep = Deployment::new(DeploymentConfig::test_default());
    let session = SessionConfig { rekey_every: 4 };
    let service = dep.mws().clone();
    let server = TcpServer::spawn(
        ServerConfig {
            secure: Some(Arc::new(SecureSettings {
                auth: Arc::new(IbsAuth::from_deployment(&dep, ID_MMS)),
                session: session.clone(),
                handshake_timeout: Duration::from_secs(5),
            })),
            ..ServerConfig::default()
        },
        || service.as_service(),
    )
    .unwrap();
    let client = TcpClient::with_config(
        server.local_addr(),
        ClientConfig {
            secure: Some(Arc::new(SecureClientSettings {
                auth: Arc::new(IbsAuth::from_deployment(&dep, ID_CLIENT)),
                expect_peer: Some(ID_MMS.into()),
                session,
            })),
            ..ClientConfig::default()
        },
    )
    .into_client();
    for i in 0..64 {
        match client.call(&mws_wire::Pdu::StatsRequest) {
            Ok(mws_wire::Pdu::StatsResponse { .. }) => {}
            other => panic!("call {i}: {other:?}"),
        }
    }
}
