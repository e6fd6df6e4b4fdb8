//! The five workloads: what each sets up, what one operation is, and how
//! its outputs are checked when the run ends.
//!
//! Every workload drives the real `TcpServer`/`TcpClient` stack over
//! loopback from two client threads, one connection each, closed loop:
//! a client sends its next request only after the reply to the last one.
//! Servers run two workers and one event loop. The whole process is pinned
//! to one CPU (see `sysinfo::pin_to_one_cpu`).

use crate::inputs::{Depositor, Inputs};
use crate::registry::Snapshot;
use crate::trace::Tracer;
use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter, HashRing};
use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_core::protocol::{replica_key, Deployment, DeploymentConfig, MwsService, ReceivingClient};
use mws_core::registry::DeviceRegistry;
use mws_core::sda::DeviceAuthVerifier;
use mws_net::{Client, NetError, Transport};
use mws_pairing::SecurityLevel;
use mws_server::{
    ClientConfig, ClusterFrontdoor, GatekeeperFrontdoor, IbsAuth, SecureClientSettings,
    SecureSettings, ServerConfig, TcpClient, TcpServer, ID_CLIENT, ID_MMS,
};
use mws_store::{shard_kinds, ShardRouter, ShardedMessageDb, StorageKind};
use mws_wire::secure::SessionConfig;
use mws_wire::{decode_envelope, encode_envelope, Pdu};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 5] = [
    "deposit_plain",
    "deposit_sealed",
    "deposit_durable",
    "collect",
    "cluster_deposit",
];

/// Client threads, and connections, per workload.
pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Warehouse shards of the deposit workloads; each client owns one.
const SHARDS: usize = 4;

/// `collect`: attributes each receiving client may read.
const RC_ATTRIBUTES: usize = 4;
/// `collect`: messages per page, and so per operation.
pub const PAGE: usize = 8;
/// `collect`: bytes of one reading.
pub const READING_LEN: usize = 256;

/// `cluster_deposit`: warehouse nodes, copies per row, acks per write.
const NODES: usize = 3;
pub const REPLICAS: usize = 2;

const MWS_PKG_SECRET: &[u8] = b"mws-benchmark mws-pkg secret";

/// One client thread's operation. Returns whether the reply was the
/// expected one with the expected contents.
pub type Op = Box<dyn FnMut(&mut Tracer) -> bool + Send>;

/// A workload after set-up: ready to be driven, then finished.
pub struct Scenario {
    /// One operation closure per client thread.
    pub ops: Vec<Op>,
    /// Envelope bytes the client threads have exchanged (both directions).
    pub wire_bytes: Arc<AtomicU64>,
    /// A request of the kind this workload sends, for the codec rungs.
    pub sample_request: Pdu,
    /// Stops the servers and checks the end state against the number of
    /// operations the clients saw succeed. `Ok(n)` is the number of
    /// operations lost or in excess; `Err` is a failed gate.
    finish: Box<dyn FnOnce(u64) -> Result<u64, String>>,
}

impl Scenario {
    pub fn finish(self, succeeded: u64) -> Result<u64, String> {
        (self.finish)(succeeded)
    }
}

/// How large to make the parts of a workload that scale.
#[derive(Clone, Copy)]
pub struct Scale {
    /// `collect`: readings pre-filled per attribute.
    pub rows_per_attribute: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows_per_attribute: 256,
    };
    pub const SMOKE: Scale = Scale {
        rows_per_attribute: 16,
    };
}

/// Sets up the workload `name`. `data_dir` is where `deposit_durable`
/// keeps its WAL files; it must be on a real disk.
pub fn setup(name: &str, seed: u64, data_dir: &Path, scale: Scale) -> Result<Scenario, String> {
    let mut inputs = Inputs::new(seed);
    match name {
        "deposit_plain" => deposit(&mut inputs, Store::Memory, 64, Link::Plain),
        "deposit_sealed" => deposit(&mut inputs, Store::Memory, 64, Link::Sealed),
        "deposit_durable" => deposit(
            &mut inputs,
            Store::Files(data_dir.join("deposit_durable")),
            1024,
            Link::Plain,
        ),
        "collect" => collect(&mut inputs, scale),
        "cluster_deposit" => cluster_deposit(&mut inputs),
        other => Err(format!("unknown workload `{other}`")),
    }
}

// ---- shared plumbing ------------------------------------------------------

/// Counts the envelope bytes of every exchange on its way through.
struct Counted {
    inner: TcpClient,
    bytes: Arc<AtomicU64>,
}

impl Transport for Counted {
    fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let reply = self.inner.round_trip(frame)?;
        self.bytes
            .fetch_add((frame.len() + reply.len()) as u64, Ordering::Relaxed);
        Ok(reply)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// A client connection that fails instead of retrying: in a closed loop a
/// retransmission would hide a lost reply inside a slow one.
pub fn connect(
    addr: SocketAddr,
    secure: Option<Arc<SecureClientSettings>>,
    bytes: &Arc<AtomicU64>,
) -> Result<Client, String> {
    let config = ClientConfig {
        attempts: 1,
        secure,
        ..ClientConfig::default()
    };
    let client = Client::from_transport(Arc::new(Counted {
        inner: TcpClient::with_config(addr, config),
        bytes: bytes.clone(),
    }));
    // Dial (and, sealed, shake hands) now, so that operations find an
    // open connection.
    match client.call(&Pdu::HealthRequest) {
        Ok(Pdu::HealthResponse { .. }) => Ok(client),
        other => Err(format!("connect to {addr}: {other:?}")),
    }
}

pub fn spawn_server<S: mws_net::Service + 'static>(
    secure: Option<Arc<SecureSettings>>,
    factory: impl FnMut() -> S + Send + 'static,
) -> Result<TcpServer, String> {
    let config = ServerConfig {
        workers: WORKERS,
        event_loops: 1,
        secure,
        ..ServerConfig::default()
    };
    TcpServer::spawn(config, factory).map_err(|e| format!("server spawn: {e}"))
}

/// A warehouse that authenticates deposits by device MAC, as the daemons
/// provision it, over the given message shards.
pub fn warehouse(shards: Vec<StorageKind>, rng_seed: u64) -> Result<MwsService, String> {
    MwsService::new_sharded(
        DeviceRegistry::new(),
        shards,
        StorageKind::Memory,
        StorageKind::Memory,
        MWS_PKG_SECRET,
        LogicalClock::new(),
        ReplayPolicy::standard(),
        rng_seed,
        DeviceAuthVerifier::Mac,
    )
    .map_err(|e| format!("warehouse open: {e}"))
}

/// The sealed-transport trust root and both ends' settings: IBS identities
/// extracted from a seeded deployment, default rekey schedule.
pub fn sealed_settings(seed: u64) -> (Arc<SecureSettings>, Arc<SecureClientSettings>) {
    let dep = Deployment::new(DeploymentConfig {
        seed,
        ..DeploymentConfig::test_default()
    });
    let server = SecureSettings {
        auth: Arc::new(IbsAuth::from_deployment(&dep, ID_MMS)),
        session: SessionConfig::default(),
        handshake_timeout: Duration::from_secs(5),
    };
    let client = SecureClientSettings::new(&dep, ID_CLIENT, Some(ID_MMS));
    (Arc::new(server), Arc::new(client))
}

/// Warehouse ids of the deposits one client saw acknowledged.
type AckedIds = Arc<Mutex<Vec<u64>>>;

/// One deposit operation: craft the request, one round trip, check the ack.
/// `acked` keeps the acknowledged ids for workloads that look them up again.
fn deposit_op(mut device: Depositor, client: Client, acked: Option<AckedIds>) -> Op {
    Box::new(move |t| {
        let request = t.span("bench.craft", |_| device.next_request());
        match t.span("server.call", |_| client.call(&request)) {
            Ok(Pdu::DepositAck { message_id }) => {
                if let Some(acked) = &acked {
                    acked.lock().expect("ack list").push(message_id);
                }
                true
            }
            _ => false,
        }
    })
}

// ---- deposit_plain / deposit_sealed / deposit_durable ---------------------

enum Store {
    Memory,
    Files(PathBuf),
}

#[derive(PartialEq)]
enum Link {
    Plain,
    Sealed,
}

fn deposit(
    inputs: &mut Inputs,
    store: Store,
    body_len: usize,
    link: Link,
) -> Result<Scenario, String> {
    let kinds = match &store {
        Store::Memory => shard_kinds(&StorageKind::Memory, SHARDS),
        Store::Files(dir) => {
            std::fs::remove_dir_all(dir).ok();
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            shard_kinds(&StorageKind::File(dir.join("messages.wal")), SHARDS)
        }
    };
    let mws = warehouse(kinds.clone(), inputs.u64())?;
    let router = ShardRouter::new(SHARDS);
    let devices: Vec<Depositor> = (0..CLIENTS)
        .map(|i| {
            let attribute = inputs.attribute_where(|a| router.route(a) == i);
            inputs.depositor(attribute, body_len)
        })
        .collect();
    for d in &devices {
        mws.register_device(&d.sd_id, &d.mac_key);
    }

    let (server_sec, client_sec) = match link {
        Link::Plain => (None, None),
        Link::Sealed => {
            let (s, c) = sealed_settings(inputs.u64());
            (Some(s), Some(c))
        }
    };
    let service = mws.clone();
    let mut server = spawn_server(server_sec, move || service.as_service())?;
    let addr = server.local_addr();

    let wire_bytes = Arc::new(AtomicU64::new(0));
    let before = Snapshot::take();
    let clients = (0..CLIENTS)
        .map(|_| connect(addr, client_sec.clone(), &wire_bytes))
        .collect::<Result<Vec<_>, _>>()?;
    if link == Link::Sealed {
        // A silent fall-back to plaintext must not pass as a fast sealed
        // run: every connection shook hands, and plaintext is turned away.
        let shaken = Snapshot::take().delta(&before, "mws_server_secure_handshakes_total")?;
        if shaken != CLIENTS as f64 {
            return Err(format!(
                "{shaken} handshakes for {CLIENTS} sealed connections"
            ));
        }
        match plaintext_probe(addr) {
            Ok(Pdu::Error { code: 426, .. }) => {}
            other => return Err(format!("sealed port answered plaintext with {other:?}")),
        }
    }

    let mut sample = inputs.any_depositor(body_len);
    // Only the durable workload looks its rows up again by id.
    let acked: Vec<AckedIds> = match store {
        Store::Memory => Vec::new(),
        Store::Files(_) => (0..CLIENTS).map(|_| Arc::default()).collect(),
    };
    let ops = devices
        .into_iter()
        .zip(clients)
        .enumerate()
        .map(|(i, (device, client))| deposit_op(device, client, acked.get(i).cloned()))
        .collect();

    let finish = Box::new(move |succeeded: u64| {
        server.shutdown();
        let mut lost = (mws.message_count() as u64).abs_diff(succeeded);
        if let Store::Files(dir) = store {
            // Durability: with the warehouse gone, the WAL files alone must
            // give back every row that was acknowledged.
            drop(mws);
            let reopened =
                ShardedMessageDb::open_with(kinds).map_err(|e| format!("WAL reopen: {e}"))?;
            let ids = acked
                .iter()
                .flat_map(|a| a.lock().expect("ack list").clone());
            let missing = ids.filter(|id| reopened.get(*id).is_err()).count() as u64;
            lost = lost.max(missing + (reopened.len() as u64).abs_diff(succeeded));
            drop(reopened);
            std::fs::remove_dir_all(&dir).ok();
        }
        Ok(lost)
    });
    Ok(Scenario {
        ops,
        wire_bytes,
        sample_request: sample.next_request(),
        finish,
    })
}

/// Sends one plaintext envelope to `addr` and decodes whatever comes back.
fn plaintext_probe(addr: SocketAddr) -> Result<Pdu, String> {
    let io = |e: std::io::Error| format!("plaintext probe: {e}");
    let mut stream = std::net::TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(io)?;
    stream
        .write_all(&encode_envelope(&Pdu::HealthRequest))
        .map_err(io)?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        if let Ok((pdu, _)) = decode_envelope(&reply) {
            return Ok(pdu);
        }
        match stream.read(&mut chunk).map_err(io)? {
            0 => return Err("plaintext probe: closed without a reply".into()),
            n => reply.extend_from_slice(&chunk[..n]),
        }
    }
}

// ---- cluster_deposit ------------------------------------------------------

/// `NODES` memory-backed warehouse servers behind a router with one pooled
/// connection per client thread, plaintext replica plane.
pub struct Cluster {
    pub nodes: Vec<MwsService>,
    pub servers: Vec<TcpServer>,
    pub router: Arc<ClusterRouter>,
}

impl Cluster {
    pub fn spawn(inputs: &mut Inputs, devices: &[Depositor]) -> Result<Self, String> {
        let mut nodes = Vec::with_capacity(NODES);
        let mut servers = Vec::with_capacity(NODES);
        for _ in 0..NODES {
            let mws = warehouse(shard_kinds(&StorageKind::Memory, 1), inputs.u64())?;
            for d in devices {
                mws.register_device(&d.sd_id, &d.mac_key);
            }
            let service = mws.clone();
            servers.push(spawn_server(None, move || service.as_service())?);
            nodes.push(mws);
        }
        let members = servers
            .iter()
            .enumerate()
            .map(|(k, server)| {
                let pool = (0..CLIENTS)
                    .map(|_| TcpClient::new(server.local_addr()).into_client())
                    .collect();
                ClusterNode::new(node_name(k), pool)
            })
            .collect();
        let router = ClusterRouter::new(members, cluster_config(), replica_key(MWS_PKG_SECRET));
        Ok(Self {
            nodes,
            servers,
            router,
        })
    }

    /// Stops the node servers; returns the rows the nodes hold together,
    /// which must be exactly `REPLICAS` per acknowledged deposit.
    pub fn finish(mut self) -> u64 {
        for server in &mut self.servers {
            server.shutdown();
        }
        self.nodes.iter().map(|n| n.message_count() as u64).sum()
    }
}

fn node_name(k: usize) -> String {
    format!("node-{k}")
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig::new(REPLICAS, REPLICAS)
}

fn cluster_deposit(inputs: &mut Inputs) -> Result<Scenario, String> {
    // Client `i` deposits under an attribute whose replicas are nodes `i` and
    // `i + 1`: the two clients then share exactly one node whatever the seed.
    // Left to the seed, they would share two, one or none, and the run's
    // numbers would follow the placement.
    let names: Vec<String> = (0..NODES).map(node_name).collect();
    let ring = HashRing::new(&names, cluster_config().vnodes);
    let devices: Vec<Depositor> = (0..CLIENTS)
        .map(|i| {
            let replicas = [i % NODES, (i + 1) % NODES];
            let attribute = inputs.attribute_where(|a| ring.replicas(a, REPLICAS) == replicas);
            inputs.depositor(attribute, 64)
        })
        .collect();
    let cluster = Cluster::spawn(inputs, &devices)?;
    let front = ClusterFrontdoor::new(
        LogicalClock::new(),
        ReplayPolicy::standard(),
        cluster.router.clone(),
    );
    let mut door = spawn_server(None, move || front.as_service())?;

    let wire_bytes = Arc::new(AtomicU64::new(0));
    let mut sample = inputs.any_depositor(64);
    let mut ops = Vec::with_capacity(CLIENTS);
    for device in devices {
        let client = connect(door.local_addr(), None, &wire_bytes)?;
        ops.push(deposit_op(device, client, None));
    }
    let finish = Box::new(move |succeeded: u64| {
        door.shutdown();
        Ok(cluster.finish().abs_diff(REPLICAS as u64 * succeeded))
    });
    Ok(Scenario {
        ops,
        wire_bytes,
        sample_request: sample.next_request(),
        finish,
    })
}

// ---- collect --------------------------------------------------------------

/// The paper's four servers on loopback — warehouse, PKG, Gatekeeper front
/// door — over a Light-level, AES-128, memory-backed deployment, pre-filled
/// by real smart devices: `PAGE` readings per receiving client per clock
/// tick, so the page a client asks for with `since = tick` is exactly that
/// tick's readings.
pub struct CollectSite {
    servers: Vec<TcpServer>,
    pub collectors: Vec<Collector>,
    pub wire_bytes: Arc<AtomicU64>,
    rows: u64,
    mws: MwsService,
}

/// Deposit nonce → the reading that was sealed under it.
type Readings = HashMap<Vec<u8>, Vec<u8>>;

/// One receiving client and what it must find.
pub struct Collector {
    rc: ReceivingClient,
    expected: Arc<Readings>,
    ticks: u64,
    cursor: u64,
}

impl CollectSite {
    /// `clients` receiving clients, each reading `RC_ATTRIBUTES` attributes
    /// of `rows_per_attribute` readings. `on_compose` sees the time each
    /// device spent composing (encrypting and MACing) one deposit.
    pub fn spawn(
        inputs: &mut Inputs,
        clients: usize,
        rows_per_attribute: usize,
        on_compose: &(dyn Fn(Duration) + Sync),
    ) -> Result<Self, String> {
        let mut dep = Deployment::new(DeploymentConfig {
            level: SecurityLevel::Light,
            seed: inputs.u64(),
            ..DeploymentConfig::test_default()
        });
        let parties: Vec<(String, String, Vec<String>)> = (0..clients)
            .map(|_| {
                let attrs = (0..RC_ATTRIBUTES).map(|_| inputs.id("ATTR")).collect();
                (inputs.id("sd"), inputs.id("rc"), attrs)
            })
            .collect();
        for (sd, rc, attrs) in &parties {
            dep.register_device(sd);
            let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            dep.register_client(rc, "pw", &attrs);
        }

        let (mws, pkg) = (dep.mws().clone(), dep.pkg().clone());
        let mms_srv = spawn_server(None, move || mws.as_service())?;
        let pkg_srv = spawn_server(None, move || pkg.as_service())?;
        let wire_bytes = Arc::new(AtomicU64::new(0));
        let front = GatekeeperFrontdoor::new(
            dep.clock().clone(),
            ReplayPolicy::standard(),
            TcpClient::new(mms_srv.local_addr()).into_client(),
        );
        for (_, rc, _) in &parties {
            let key = dep.mws().client_public_key(rc).expect("just registered");
            front.register(rc, "pw", &key);
        }
        let door_srv = spawn_server(None, move || front.as_service())?;

        // Pre-fill: one thread per device; all devices deposit a tick's
        // readings, then the clock moves on.
        let per_tick = PAGE / RC_ATTRIBUTES;
        let ticks = (rows_per_attribute / per_tick) as u64;
        let unused = Arc::new(AtomicU64::new(0));
        let mut fillers = Vec::with_capacity(clients);
        for (sd, _, attrs) in &parties {
            let to_mms = connect(mms_srv.local_addr(), None, &unused)?;
            let device = dep
                .device_with(
                    sd,
                    to_mms.clone(),
                    &TcpClient::new(pkg_srv.local_addr()).into_client(),
                )
                .map_err(|e| format!("device bootstrap: {e}"))?;
            let readings: Vec<Vec<u8>> = (0..ticks as usize * PAGE)
                .map(|_| inputs.bytes(READING_LEN))
                .collect();
            fillers.push((device, to_mms, attrs.clone(), readings));
        }
        let clock = dep.clock().clone();
        let barrier = Barrier::new(clients);
        let filled: Vec<Result<Readings, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = fillers
                .into_iter()
                .enumerate()
                .map(|(i, (mut device, to_mms, attrs, readings))| {
                    let (clock, barrier) = (&clock, &barrier);
                    s.spawn(move || {
                        let mut expected = HashMap::with_capacity(readings.len());
                        let mut outcome = Ok(());
                        for (tick, page) in readings.chunks(PAGE).enumerate() {
                            if i == 0 {
                                clock.advance(1);
                            }
                            barrier.wait();
                            for (k, reading) in page.iter().enumerate() {
                                let started = std::time::Instant::now();
                                let pdu = device.compose_deposit(&attrs[k % attrs.len()], reading);
                                on_compose(started.elapsed());
                                let Pdu::DepositRequest { nonce, .. } = &pdu else {
                                    unreachable!("compose_deposit returns DepositRequest")
                                };
                                expected.insert(nonce.clone(), reading.clone());
                                if outcome.is_ok()
                                    && !matches!(to_mms.call(&pdu), Ok(Pdu::DepositAck { .. }))
                                {
                                    outcome =
                                        Err(format!("pre-fill deposit refused at tick {tick}"));
                                }
                            }
                            barrier.wait();
                        }
                        outcome.map(|()| expected)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pre-fill thread"))
                .collect()
        });

        let mut collectors = Vec::with_capacity(clients);
        for ((_, rc, _), expected) in parties.iter().zip(filled) {
            let rc = dep.client_with(
                rc,
                "pw",
                connect(door_srv.local_addr(), None, &wire_bytes)?,
                connect(pkg_srv.local_addr(), None, &wire_bytes)?,
            );
            collectors.push(Collector {
                rc,
                expected: Arc::new(expected?),
                ticks,
                cursor: 0,
            });
        }
        Ok(Self {
            servers: vec![door_srv, pkg_srv, mms_srv],
            collectors,
            wire_bytes,
            rows: (clients as u64) * ticks * PAGE as u64,
            mws: dep.mws().clone(),
        })
    }

    /// Stops the servers; returns how far the warehouse is from holding
    /// exactly the pre-filled rows (it is read-only while measured).
    pub fn finish(mut self) -> u64 {
        for server in &mut self.servers {
            server.shutdown();
        }
        (self.mws.message_count() as u64).abs_diff(self.rows)
    }
}

impl Collector {
    /// One collect cycle: a page of `PAGE` messages through the Gatekeeper,
    /// a PKG session, then a key and a decryption per message, each
    /// plaintext compared with the reading that was deposited. The cursor
    /// moves one tick per cycle and wraps.
    pub fn cycle(&mut self, t: &mut Tracer) -> bool {
        self.cursor = self.cursor % self.ticks + 1;
        let since = self.cursor;
        let Ok((token, page)) = t.span("core.retrieve", |_| {
            self.rc.retrieve_page(since, PAGE as u32)
        }) else {
            return false;
        };
        if page.len() != PAGE {
            return false;
        }
        let Ok(session) = t.span("core.pkg_session", |_| self.rc.open_pkg_session(&token)) else {
            return false;
        };
        page.iter().all(|msg| {
            let Ok(key) = t.span("core.fetch_key", |_| {
                self.rc.fetch_key(&session, msg.aid, &msg.nonce)
            }) else {
                return false;
            };
            let plaintext = t.span("core.decrypt_message", |_| {
                self.rc.decrypt_message(msg, &key)
            });
            matches!(
                (plaintext, self.expected.get(&msg.nonce)),
                (Ok(got), Some(reading)) if got == *reading
            )
        })
    }
}

fn collect(inputs: &mut Inputs, scale: Scale) -> Result<Scenario, String> {
    let mut site = CollectSite::spawn(inputs, CLIENTS, scale.rows_per_attribute, &|_| ())?;
    let sample_request = Pdu::RetrieveRequest {
        rc_id: inputs.id("rc"),
        auth: inputs.bytes(80),
        since: 1,
        limit: PAGE as u32,
    };
    let ops = std::mem::take(&mut site.collectors)
        .into_iter()
        .map(|mut c| Box::new(move |t: &mut Tracer| c.cycle(t)) as Op)
        .collect();
    Ok(Scenario {
        ops,
        wire_bytes: site.wire_bytes.clone(),
        sample_request,
        finish: Box::new(move |_| Ok(site.finish())),
    })
}
