//! The cluster write path over real sockets: `ClusterRouter` forwarding to
//! `TcpServer`-hosted nodes through pooled `TcpClient`s.
//!
//! A replica wave runs on the router's calling thread. These tests pin
//! what that must keep and what a dead replica costs: concurrent waves in
//! crossing preference orders over one connection per node finish with R
//! copies of every row, and a node shut down between two deposits is
//! marked down once and handled exactly as the bus tests
//! `sloppy_quorum_survives_a_dead_primary` and
//! `hinted_handoff_converges_to_exactly_r_copies` expect.

use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter, HashRing};
use mws_net::Service;
use mws_server::{ClientConfig, ServerConfig, TcpClient, TcpServer};
use mws_wire::Pdu;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const KEY: &[u8] = b"fanout-replica-key";

/// A warehouse reduced to what the write path sees: nonces it stores, a
/// 409 for a nonce it already holds, and a health answer.
#[derive(Clone, Default)]
struct ToyNode(Arc<Mutex<BTreeSet<Vec<u8>>>>);

impl ToyNode {
    fn service(&self) -> impl Service + 'static {
        let rows = self.0.clone();
        move |req: Pdu| match req {
            Pdu::DepositRequest { nonce, .. } => {
                let mut rows = rows.lock().unwrap();
                if !rows.insert(nonce) {
                    return Pdu::Error {
                        code: 409,
                        detail: "replayed".into(),
                    };
                }
                Pdu::DepositAck {
                    message_id: rows.len() as u64,
                }
            }
            Pdu::HealthRequest => Pdu::HealthResponse {
                role: "mms".into(),
                ready: true,
                detail: String::new(),
            },
            _ => Pdu::Error {
                code: 400,
                detail: "unexpected".into(),
            },
        }
    }

    fn holds(&self, nonce: &[u8]) -> bool {
        self.0.lock().unwrap().contains(nonce)
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

fn serve(addr: &str, node: &ToyNode) -> TcpServer {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::listen(addr)
    };
    TcpServer::spawn(config, || node.service()).unwrap()
}

/// `n` toy nodes on loopback, named `{prefix}-{i}` (metric labels are
/// process-wide, so every test uses its own prefix), each reached through
/// one pooled connection.
struct Site {
    names: Vec<String>,
    nodes: Vec<ToyNode>,
    servers: Vec<TcpServer>,
    router: Arc<ClusterRouter>,
}

impl Site {
    fn new(prefix: &str, n: usize, cfg: ClusterConfig) -> Self {
        let names: Vec<String> = (0..n).map(|i| format!("{prefix}-{i}")).collect();
        let nodes: Vec<ToyNode> = (0..n).map(|_| ToyNode::default()).collect();
        let servers: Vec<TcpServer> = nodes.iter().map(|t| serve("127.0.0.1:0", t)).collect();
        let members = names
            .iter()
            .zip(&servers)
            .map(|(name, s)| ClusterNode::new(name, vec![pool_client(s.local_addr())]))
            .collect();
        let router = ClusterRouter::new(members, cfg, KEY.to_vec());
        Self {
            names,
            nodes,
            servers,
            router,
        }
    }

    fn ring(&self) -> HashRing {
        HashRing::new(&self.names, self.router.config().vnodes)
    }

    fn holders(&self, nonce: &[u8]) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].holds(nonce))
            .collect()
    }

    fn errors(&self, i: usize) -> u64 {
        let name = mws_obs::metric_name(
            "mws_cluster_node_errors_total",
            &[("node", self.names[i].as_str())],
        );
        mws_obs::registry().counter(&name).get()
    }

    fn is_up(&self, i: usize) -> bool {
        self.router.node_states()[i].1
    }
}

fn pool_client(addr: SocketAddr) -> mws_net::Client {
    TcpClient::with_config(
        addr,
        ClientConfig {
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    )
    .into_client()
}

fn deposit(attribute: &str, nonce: &[u8]) -> Pdu {
    Pdu::DepositRequest {
        sd_id: "m".into(),
        timestamp: 1,
        u: b"\x02u".to_vec(),
        algo: 1,
        sealed: b"c".to_vec(),
        attribute: attribute.into(),
        nonce: nonce.to_vec(),
        mac: b"mac".to_vec(),
    }
}

/// The first attribute `K0`, `K1`, … that `pick` accepts.
fn attribute_where(mut pick: impl FnMut(&str) -> bool) -> String {
    (0..).map(|i| format!("K{i}")).find(|a| pick(a)).unwrap()
}

#[test]
fn crossing_waves_over_one_connection_per_node_never_deadlock() {
    const PER_THREAD: u32 = 2_000;
    let site = Site::new("crossing", 2, ClusterConfig::new(2, 2));
    let ring = site.ring();
    // Two attributes whose replica waves visit the two nodes in opposite
    // orders: a wave that held one node's connection while taking the
    // next would wait on the other wave forever.
    let forward = attribute_where(|a| ring.replicas(a, 2) == [0, 1]);
    let backward = attribute_where(|a| ring.replicas(a, 2) == [1, 0]);

    let (done, finished) = mpsc::channel();
    let start = Arc::new(Barrier::new(2));
    let mut threads = Vec::new();
    for (t, attribute) in [forward, backward].into_iter().enumerate() {
        let router = site.router.clone();
        let done = done.clone();
        let start = start.clone();
        threads.push(std::thread::spawn(move || {
            start.wait();
            let acked = (0..PER_THREAD)
                .filter(|i| {
                    let nonce = [&[t as u8][..], &i.to_be_bytes()].concat();
                    matches!(
                        router.handle(deposit(&attribute, &nonce)),
                        Pdu::DepositAck { .. }
                    )
                })
                .count() as u32;
            done.send(acked).unwrap();
        }));
    }
    // A deadlocked wave never reports; the timeout fails the test without
    // joining threads that would never finish.
    for _ in 0..2 {
        let acked = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("replica waves deadlocked");
        assert_eq!(acked, PER_THREAD);
    }
    for thread in threads {
        thread.join().unwrap();
    }
    for node in &site.nodes {
        assert_eq!(node.len(), 2 * PER_THREAD as usize, "R copies of every row");
    }
}

#[test]
fn a_replica_shut_down_between_deposits_spills_the_wave() {
    let mut site = Site::new("spill", 3, ClusterConfig::new(2, 2));
    let ring = site.ring();
    let attr = attribute_where(|a| ring.replicas(a, 1)[0] == 0);
    let warm = site.router.handle(deposit(&attr, b"before"));
    assert!(matches!(warm, Pdu::DepositAck { .. }), "{warm:?}");

    site.servers[0].shutdown();
    let errors = site.errors(0);
    let reply = site.router.handle(deposit(&attr, b"after"));
    assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
    assert_eq!(
        site.holders(b"after"),
        [1, 2],
        "walk spilled past the dead primary"
    );
    assert!(!site.is_up(0), "failure marked");
    assert_eq!(
        site.errors(0),
        errors + 1,
        "one failed forward, counted once"
    );
}

#[test]
fn a_replica_shut_down_between_deposits_gets_a_hint_and_converges() {
    let mut site = Site::new("hint", 3, ClusterConfig::new(2, 1));
    site.router.enable_hints(None);
    let ring = site.ring();
    let attr = attribute_where(|a| ring.replicas(a, 2).contains(&0));
    let mut replicas = ring.replicas(&attr, 2);
    replicas.sort_unstable();
    let warm = site.router.handle(deposit(&attr, b"before"));
    assert!(matches!(warm, Pdu::DepositAck { .. }), "{warm:?}");

    let addr = site.servers[0].local_addr();
    site.servers[0].shutdown();
    let errors = site.errors(0);
    let reply = site.router.handle(deposit(&attr, b"hint-me"));
    assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
    assert_eq!(site.holders(b"hint-me").len(), 1, "no overflow copy");
    let board = site.router.hint_board().unwrap();
    assert_eq!(
        board.pending(&site.names[0]),
        1,
        "hint queued for the dead replica"
    );
    assert!(!site.is_up(0), "failure marked");
    assert_eq!(
        site.errors(0),
        errors + 1,
        "one failed forward, counted once"
    );

    // The node comes back on its port with its rows; the prober redials,
    // replays the hint, and the row sits on exactly the ring replicas.
    site.servers[0] = serve(&addr.to_string(), &site.nodes[0]);
    site.router.probe_once();
    assert!(site.is_up(0));
    assert_eq!(
        site.holders(b"hint-me"),
        replicas,
        "converged to the ring replicas"
    );
    assert_eq!(board.pending(&site.names[0]), 0, "hint retired");
}

#[test]
fn a_dead_node_costs_one_client_retry_budget_per_forward() {
    // A node that accepts every connection and closes it at once: each
    // attempt fails after exactly one accept.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let counted = accepts.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            counted.fetch_add(1, Ordering::SeqCst);
            drop(conn);
        }
    });
    let node = ClusterNode::new("nested-0", vec![pool_client(addr)]);
    let router = ClusterRouter::new(vec![node], ClusterConfig::new(1, 1), KEY.to_vec());
    let reply = router.handle(deposit("A", b"lost"));
    assert!(matches!(reply, Pdu::Error { .. }), "{reply:?}");
    // The client saw every failure only after the node closed the
    // connection, so every accept has been counted by now.
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        ClientConfig::default().attempts as usize,
        "the node's client is the only retry loop"
    );
}
