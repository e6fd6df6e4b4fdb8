//! Server-side load scenarios the repository benchmark (`benchmark/`, all
//! memory shards) cannot see, as one table over one harness (DESIGN.md
//! §9–§11, EXPERIMENTS.md E9, E11, E12):
//!
//! * `shards` — one client per device deposits over TCP into {1, 4, 16}
//!   file-backed, fsync-per-commit shards, one `DepositRequest` per
//!   deposit and then in group-committed `DepositBatch`es.
//! * `rebalance` — quorum deposits through a `ClusterRouter` over three
//!   nodes at R = 2 with a fourth joining between the two halves of the
//!   load; an audit of exactly-R placement on the grown ring; one retrieve
//!   under `--read-quorum quorum` against `fastest`.
//! * `connections` — 512 and then 10,000 mostly idle connections into one
//!   warehouse, with a one-deposit burst over every fourth.
//!
//! Deposits carry junk `u`/`sealed` under a *valid* deposit MAC: these
//! scenarios time the warehouse, not device crypto (E1/E3).
//!
//! `cargo run --release -p mws-bench --bin load_bench` runs the table at
//! full size (tens of seconds) and writes `BENCH_server.json` in the working
//! directory in one write; `-- --smoke` runs it at smoke size and writes
//! nothing. The test module runs the smoke table under `cargo test`.

use mws_bench::Json;
use mws_cluster::{
    ClusterConfig, ClusterNode, ClusterRouter, HashRing, ReadConsistency, DEFAULT_VNODES,
};
use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_core::protocol::{replica_key, Deployment, DeploymentConfig, MwsService};
use mws_core::registry::DeviceRegistry;
use mws_core::sda::{deposit_mac, DeviceAuthVerifier};
use mws_net::Client;
use mws_server::{ClusterFrontdoor, ServerConfig, TcpClient, TcpServer};
use mws_store::{ShardRouter, StorageKind};
use mws_wire::{DepositItem, DepositOutcome, Pdu, StreamDecoder};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const SECRET: &[u8] = b"load-bench-secret";

/// Every scenario's knobs at one size. [`FULL`] is pinned so that runs on
/// two machines produce comparable rows.
struct Size {
    /// `shards`: shard counts swept, one client per registered device,
    /// single deposits per client, then batches of `batch_size` per client.
    shard_counts: &'static [usize],
    clients: usize,
    per_client: usize,
    batches: usize,
    batch_size: usize,
    /// `rebalance`: quorum clients and deposits per client (half before the
    /// join, half during the arc transfer), then retrieves timed per read
    /// mode over `read_rows` deposits.
    cluster_clients: usize,
    cluster_per_client: usize,
    read_iters: usize,
    read_rows: usize,
    /// `connections`: fleet sizes held, and threads driving the burst.
    fleets: &'static [usize],
    drivers: usize,
}

const FULL: Size = Size {
    shard_counts: &[1, 4, 16],
    clients: 16,
    per_client: 400,
    batches: 80,
    batch_size: 8,
    cluster_clients: 8,
    cluster_per_client: 150,
    read_iters: 60,
    read_rows: 48,
    fleets: &[512, 10_000],
    drivers: 8,
};

const SMOKE: Size = Size {
    shard_counts: &[2],
    clients: 2,
    per_client: 10,
    batches: 3,
    batch_size: 4,
    cluster_clients: 2,
    cluster_per_client: 10,
    read_iters: 8,
    read_rows: 12,
    fleets: &[256],
    drivers: 4,
};

/// A scenario runs under its own scratch directory and returns its section
/// of `BENCH_server.json`.
type Scenario = fn(&Size, &Path) -> Json;

const SCENARIOS: [(&str, Scenario); 3] = [
    ("shards", shards),
    ("rebalance", rebalance),
    ("connections", connections),
];

fn run(size: &Size) -> Json {
    let base = std::env::temp_dir().join(format!("mws-load-bench-{}", std::process::id()));
    let doc = Json::obj(SCENARIOS.map(|(name, scenario)| (name, scenario(size, &base.join(name)))));
    std::fs::remove_dir_all(&base).ok();
    doc
}

/// One closed loop's throughput and round-trip quantiles.
struct ModeReport {
    deposits: u64,
    secs: f64,
    p50_us: u64,
    p99_us: u64,
}

impl ModeReport {
    fn deposits_per_sec(&self) -> f64 {
        self.deposits as f64 / self.secs
    }

    fn json(&self) -> Json {
        Json::obj([
            ("deposits", Json::int(self.deposits)),
            ("secs", Json::fixed(self.secs, 3)),
            ("deposits_per_sec", Json::fixed(self.deposits_per_sec(), 1)),
            ("p50_us", Json::int(self.p50_us)),
            ("p99_us", Json::int(self.p99_us)),
        ])
    }
}

impl std::fmt::Display for ModeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rate, p50, p99) = (self.deposits_per_sec(), self.p50_us, self.p99_us);
        write!(f, "{rate:>8.0} dep/s (p50 {p50:>5}µs, p99 {p99:>6}µs)")
    }
}

/// The closed loop every scenario times: one scoped thread per lane, each
/// sending its pre-built requests back to back through `call` and timing
/// every round trip. `call` asserts the reply; each request carries
/// `per_request` deposits.
fn closed_loop<Q: Send>(
    lanes: Vec<Vec<Q>>,
    per_request: usize,
    call: impl Fn(Q) + Sync,
) -> ModeReport {
    let timed = |q| {
        let t0 = Instant::now();
        call(q);
        t0.elapsed().as_micros() as u64
    };
    let started = Instant::now();
    let mut lat: Vec<u64> = std::thread::scope(|scope| {
        let lane = |lane: Vec<Q>| scope.spawn(|| lane.into_iter().map(&timed).collect::<Vec<_>>());
        let lanes: Vec<_> = lanes.into_iter().map(lane).collect();
        let joined = lanes.into_iter().map(|h| h.join().expect("client lane"));
        joined.flatten().collect()
    });
    let secs = started.elapsed().as_secs_f64();
    lat.sort_unstable();
    let deposits = (lat.len() * per_request) as u64;
    let (p50_us, p99_us) = (percentile(&lat, 50), percentile(&lat, 99));
    ModeReport {
        deposits,
        secs,
        p50_us,
        p99_us,
    }
}

/// The `p`th percentile of ascending `sorted` samples.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// A registered device. `index` keeps nonces unique across devices.
struct Device {
    index: u16,
    sd_id: String,
    mac_key: Vec<u8>,
    attribute: String,
}

fn devices(n: usize, attribute: impl Fn(usize) -> String) -> Vec<Device> {
    (0..n)
        .map(|i| Device {
            index: i as u16,
            sd_id: format!("bench-sd-{i}"),
            mac_key: vec![i as u8 + 1; 32],
            attribute: attribute(i),
        })
        .collect()
}

/// Devices whose attributes [`ShardRouter`] routes to shard `i % shards`,
/// so N clients spread evenly over N shards. Deterministic: a
/// `--conn-fleet` child recomputes exactly this table.
fn shard_pinned_devices(n: usize, shards: usize) -> Vec<Device> {
    let router = ShardRouter::new(shards);
    devices(n, |i| {
        let target = i % shards;
        (0u32..)
            .map(|salt| format!("LOAD-{shards}-{target}-{salt}"))
            .find(|attr| router.route(attr) == target)
            .expect("router covers all residues")
    })
}

/// `count` deposits from `device`, numbered from `seq`, as one
/// `DepositRequest` (count 1) or one `DepositBatch`. The nonce is unique
/// per (`tag`, device, number), so each scenario shape has its own tag.
fn deposit(device: &Device, tag: u8, seq: u64, count: usize) -> Pdu {
    let mut items: Vec<DepositItem> = (seq..seq + count as u64)
        .map(|seq| {
            let (u, sealed) = (vec![0x42u8; 32], vec![0x5au8; 64]);
            let mut nonce = vec![tag];
            nonce.extend_from_slice(&device.index.to_be_bytes());
            nonce.extend_from_slice(&seq.to_be_bytes());
            nonce.resize(16, 0);
            let (attribute, sd_id) = (&device.attribute, &device.sd_id);
            let mac = deposit_mac(&device.mac_key, &u, &sealed, attribute, &nonce, sd_id, 0);
            DepositItem {
                timestamp: 0,
                u,
                algo: 1,
                sealed,
                attribute: attribute.clone(),
                nonce,
                mac,
            }
        })
        .collect();
    let sd_id = device.sd_id.clone();
    if count > 1 {
        return Pdu::DepositBatch { sd_id, items };
    }
    let item = items.pop().expect("one deposit");
    Pdu::DepositRequest {
        sd_id,
        timestamp: item.timestamp,
        u: item.u,
        algo: item.algo,
        sealed: item.sealed,
        attribute: item.attribute,
        nonce: item.nonce,
        mac: item.mac,
    }
}

/// Panics unless `reply` acknowledges all `count` deposits as stored.
fn assert_stored(reply: &Pdu, count: usize) {
    match reply {
        Pdu::DepositAck { .. } if count == 1 => {}
        Pdu::DepositBatchAck { results }
            if results.len() == count
                && results.iter().all(|r| r.status == DepositOutcome::STORED) => {}
        other => panic!("{count} deposit(s) not all stored: {other:?}"),
    }
}

/// One warehouse on an ephemeral port over `shards` file-backed,
/// fsync-per-commit shards under `dir`, with every device registered.
fn spawn_warehouse(
    dir: &Path,
    shards: usize,
    devices: &[Device],
    workers: usize,
) -> (MwsService, TcpServer) {
    std::fs::create_dir_all(dir).expect("bench dir");
    let mws = MwsService::new_sharded(
        DeviceRegistry::new(),
        mws_store::shard_kinds(&StorageKind::File(dir.join("messages.wal")), shards),
        StorageKind::Memory,
        StorageKind::Memory,
        SECRET,
        LogicalClock::new(),
        ReplayPolicy::standard(),
        7,
        DeviceAuthVerifier::Mac,
    )
    .expect("service open");
    for d in devices {
        mws.register_device(&d.sd_id, &d.mac_key);
    }
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = TcpServer::spawn(config, || mws.as_service()).expect("server spawn");
    (mws, server)
}

/// `shards`: per shard count, the single-deposit shape, the batched shape,
/// then a retransmission that must not store a second row.
fn shards(size: &Size, dir: &Path) -> Json {
    let rows: Vec<(usize, ModeReport, ModeReport)> = size
        .shard_counts
        .iter()
        .map(|&n| {
            let devices = shard_pinned_devices(size.clients, n);
            let dir = dir.join(format!("shards-{n}"));
            let (mws, server) = spawn_warehouse(&dir, n, &devices, size.clients);
            let clients: Vec<Client> = (0..size.clients)
                .map(|_| TcpClient::new(server.local_addr()).into_client())
                .collect();
            let lanes = |tag, rounds: usize, count: usize| {
                let lane = |(d, c)| {
                    let round = |r: usize| (c, deposit(d, tag, (r * count) as u64, count));
                    (0..rounds).map(round).collect()
                };
                devices.iter().zip(&clients).map(lane).collect()
            };
            let call = |count| {
                move |(c, req): (&Client, Pdu)| {
                    assert_stored(&c.call(&req).expect("deposit round trip"), count)
                }
            };
            let single = closed_loop(lanes(1, size.per_client, 1), 1, call(1));
            let (b, k) = (size.batches, size.batch_size);
            let batch = closed_loop(lanes(2, b, k), k, call(k));

            // 409 Replay is the nonce cache's answer, a DepositAck the
            // origin dedup's; either way no second row.
            match clients[0].call(&deposit(&devices[0], 1, 0, 1)) {
                Ok(Pdu::Error { code: 409, .. } | Pdu::DepositAck { .. }) => {}
                other => panic!("retransmission neither deduped nor replay-rejected: {other:?}"),
            }
            let acked = single.deposits + batch.deposits;
            assert_eq!(mws.message_count() as u64, acked, "rows != acked deposits");
            eprintln!("shards={n:>2}  single: {single}   batch[{k}]: {batch}");
            drop(server);
            std::fs::remove_dir_all(&dir).ok();
            (n, single, batch)
        })
        .collect();

    let row = |(n, single, batch): &(usize, ModeReport, ModeReport)| {
        let shards = Json::int(*n as u64);
        Json::obj([
            ("shards", shards),
            ("single", single.json()),
            ("batch", batch.json()),
        ])
    };
    // Speedups of the most-shards row over the fewest-shards row. Each
    // shape's isolates one lever; the pipeline figure is both at once (most
    // shards, group commit) against one shard with an fsync per deposit.
    let (_, lo_single, lo_batch) = &rows[0];
    let (_, hi_single, hi_batch) = &rows[rows.len() - 1];
    let speedup = |fast: &ModeReport, base: &ModeReport| {
        Json::fixed(fast.deposits_per_sec() / base.deposits_per_sec(), 2)
    };
    Json::obj([
        ("clients", Json::int(size.clients as u64)),
        ("per_client", Json::int(size.per_client as u64)),
        ("batches", Json::int(size.batches as u64)),
        ("batch_size", Json::int(size.batch_size as u64)),
        ("rows", Json::Arr(rows.iter().map(row).collect())),
        ("speedup_single", speedup(hi_single, lo_single)),
        ("speedup_batch", speedup(hi_batch, lo_batch)),
        ("speedup_pipeline", speedup(hi_batch, lo_single)),
    ])
}

/// `rebalance`: four warehouse nodes, a router over the first three at
/// R = W = 2, and a join of `node-3` between the two halves of the load.
/// The join order lands with no deposit in flight, so every pre-join
/// deposit is durable before the ring swaps (the quiesce an operator gets
/// from the epoch-gated MAC); the second half races the arc transfer.
fn rebalance(size: &Size, dir: &Path) -> Json {
    const R: usize = 2;
    let (clients, per_client) = (size.cluster_clients, size.cluster_per_client);
    let devices = devices(clients, |i| format!("LOAD-RB-{i}"));
    // Workers beyond the router's pool: the arc transfer needs its own.
    let nodes: Vec<(MwsService, TcpServer)> = (0..4)
        .map(|k| spawn_warehouse(&dir.join(format!("node-{k}")), 2, &devices, clients + 2))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(|(_, s)| s.local_addr()).collect();
    // One pooled connection per client, so the pool never caps in-flight
    // quorum writes below the offered concurrency.
    let pool = move |addr: SocketAddr| -> Vec<Client> {
        (0..clients)
            .map(|_| TcpClient::new(addr).into_client())
            .collect()
    };
    let node = |k: usize| ClusterNode::new(format!("node-{k}"), pool(addrs[k]));
    let key = replica_key(SECRET);
    let router = ClusterRouter::new(
        (0..3).map(node).collect(),
        ClusterConfig::new(R, R),
        key.clone(),
    );
    // A daemon learns the attribute universe (which plans the arc
    // transfer) from its policy table; here the bench hands it over.
    let universe = devices
        .iter()
        .map(|d| (d.index as u64, d.attribute.clone()));
    router.set_attribute_names(universe);
    let newcomer = addrs[3];
    router.set_node_factory(move |_| ClusterNode::new("node-3", pool(newcomer)));

    let lanes = |seqs: std::ops::Range<u64>| {
        let lane = |d| seqs.clone().map(|s| deposit(d, 4, s, 1)).collect();
        devices.iter().map(lane).collect::<Vec<_>>()
    };
    let call = |req: Pdu| assert_stored(&router.handle(req), 1);
    let half = per_client as u64 / 2;
    let before = closed_loop(lanes(0..half), 1, call);
    let epoch = router.epoch();
    let join_bytes = mws_wire::cluster_join_bytes("node-3", epoch);
    let mac = mws_crypto::Hmac::<mws_crypto::Sha256>::mac(&key, &join_bytes);
    let t0 = Instant::now();
    match router.handle(Pdu::ClusterJoin {
        node: "node-3".into(),
        epoch,
        mac,
    }) {
        Pdu::ClusterAdminAck { .. } => {}
        other => panic!("join refused: {other:?}"),
    }
    let (during, transfer_secs) = std::thread::scope(|scope| {
        let transfer = scope.spawn(|| {
            let done = router.wait_rebalance(Duration::from_secs(120));
            assert!(done, "arc transfer never finished");
            t0.elapsed().as_secs_f64()
        });
        let during = closed_loop(lanes(half..per_client as u64), 1, call);
        (during, transfer.join().expect("transfer waiter"))
    });
    let (arcs_moved, rows_moved) = match router.handle(Pdu::RebalanceStatus) {
        Pdu::RebalanceReport {
            arcs_done,
            rows_moved,
            transferring: false,
            members,
            ..
        } if members.len() == 4 => (arcs_done, rows_moved),
        other => panic!("join did not settle: {other:?}"),
    };

    // Placement audit against the grown ring: every acked row sits on the
    // R replicas the 4-node ring assigns its attribute and nowhere else,
    // because the evict finalizer drops the departed donor's copy.
    let names: Vec<String> = (0..4).map(|k| format!("node-{k}")).collect();
    let ring = HashRing::new(&names, DEFAULT_VNODES);
    for d in &devices {
        let home = ring.replicas(&d.attribute, R);
        assert_eq!(home.len(), R);
        for (k, (mws, _)) in nodes.iter().enumerate() {
            let want = if home.contains(&k) { per_client } else { 0 };
            let rows = mws.store_handle().by_attribute(&d.attribute);
            let held = rows.expect("rows").len();
            assert_eq!(held, want, "node-{k} holds {held} rows of {}", d.attribute);
        }
    }
    drop((router, nodes));
    std::fs::remove_dir_all(dir).ok();
    eprintln!("join 3→4 nodes R={R}  quorum before: {before}  during transfer: {during}");
    eprintln!("arc transfer: {arcs_moved} arcs, {rows_moved} rows in {transfer_secs:.3}s");

    Json::obj([
        ("clients", Json::int(clients as u64)),
        ("per_client", Json::int(per_client as u64)),
        ("nodes_before", Json::int(3)),
        ("nodes_after", Json::int(4)),
        ("replicas", Json::int(R as u64)),
        ("quorum_before_join", before.json()),
        ("quorum_during_transfer", during.json()),
        ("transfer_secs", Json::fixed(transfer_secs, 3)),
        ("arcs_moved", Json::int(arcs_moved)),
        ("rows_moved", Json::int(rows_moved)),
        ("read_modes", read_modes(size.read_iters, size.read_rows)),
    ])
}

/// The `--read-quorum` probe: one client retrieve (password auth at a
/// front door, replica fan-out, id merge; no IBE decryption, which would
/// swamp the delta) through a quorum-merge router and a fastest-replica
/// router over the same data. Two nodes at R = 2 replicate fully, so both
/// modes return every row and the delta is protocol cost alone: fan-out
/// and merge against one forwarded hop.
fn read_modes(iters: usize, rows: usize) -> Json {
    let attrs: Vec<String> = (0..4).map(|i| format!("LOAD-RM-{i}")).collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let mut deps: Vec<Deployment> = (0..2)
        .map(|_| {
            let mut dep = Deployment::new(DeploymentConfig::test_default());
            dep.register_device("bench-sd");
            dep.register_client("rc", "pw", &attr_refs);
            dep
        })
        .collect();
    let servers: Vec<TcpServer> = deps
        .iter()
        .map(|d| TcpServer::spawn(ServerConfig::default(), || d.mws().as_service()).expect("node"))
        .collect();
    // Snapshots of what a front door needs, so building one does not hold
    // `deps` borrowed while the meter and the collector take it mutably.
    let replica_key = deps[0].replica_key();
    let policy: Vec<(u64, String)> = deps[0]
        .mws()
        .policy_table()
        .into_iter()
        .map(|row| (row.attribute_id, row.attribute))
        .collect();
    let clock = deps[0].clock().clone();
    let rc_pub = deps[0].mws().client_public_key("rc").expect("registered");
    let front_door = |read: ReadConsistency| {
        let nodes = servers.iter().enumerate().map(|(k, s)| {
            let pool = (0..2).map(|_| TcpClient::new(s.local_addr()).into_client());
            ClusterNode::new(format!("node-{k}"), pool.collect())
        });
        let config = ClusterConfig::new(2, 2).with_read(read);
        let router = ClusterRouter::new(nodes.collect(), config, replica_key.clone());
        router.set_attribute_names(policy.iter().cloned());
        let front = ClusterFrontdoor::new(clock.clone(), ReplayPolicy::standard(), router);
        front.register("rc", "pw", &rc_pub);
        TcpServer::spawn(ServerConfig::default(), || front.as_service()).expect("front door")
    };
    let client_of = |door: &TcpServer| TcpClient::new(door.local_addr()).into_client();

    // Seed the replicas once through the quorum write path.
    {
        let door = front_door(ReadConsistency::Quorum);
        let pkg = deps[0].network().client("pkg");
        let mut meter = deps[0]
            .device_with("bench-sd", client_of(&door), &pkg)
            .expect("device bootstrap");
        for i in 0..rows {
            let payload = format!("rm-{i}");
            meter
                .deposit_reliable(&attrs[i % attrs.len()], payload.as_bytes(), 64)
                .expect("quorum ack");
        }
    }

    let mut measure = |name: &'static str, read: ReadConsistency| {
        let door = front_door(read);
        let pkg = deps[0].network().client("pkg");
        let mut rc = deps[0].client_with("rc", "pw", client_of(&door), pkg);
        let mut lat: Vec<u64> = (0..iters + 3)
            .map(|_| {
                let t0 = Instant::now();
                let (_, msgs) = rc.retrieve(0).expect("retrieve");
                // Once replicas agree, fastest trades staleness tolerance,
                // not rows: both modes must see every deposit.
                assert_eq!(msgs.len(), rows, "short read under {read:?}");
                t0.elapsed().as_micros() as u64
            })
            .skip(3)
            .collect();
        lat.sort_unstable();
        let (p50, p99) = (percentile(&lat, 50), percentile(&lat, 99));
        eprintln!("read {name:<7} over {rows} rows: p50 {p50:>5}µs p99 {p99:>6}µs");
        let json = Json::obj([("p50_us", Json::int(p50)), ("p99_us", Json::int(p99))]);
        (name, json)
    };
    let modes = [
        measure("quorum", ReadConsistency::Quorum),
        measure("fastest", ReadConsistency::Fastest),
    ];
    Json::obj([("rows", Json::int(rows as u64))].into_iter().chain(modes))
}

/// Shards behind the `connections` warehouse.
const CONN_SHARDS: usize = 4;
/// One in `BURST_EVERY` fleet connections deposits during the burst; the
/// rest stay idle for the row's whole life.
const BURST_EVERY: usize = 4;
/// Warehouse workers under the fleet: the event loop serves any number of
/// connections from a handful of workers, which is the row's point.
const FLEET_WORKERS: usize = 4;

/// `connections`: one row per fleet size, on one event loop.
fn connections(size: &Size, dir: &Path) -> Json {
    let row = |&conns: &usize| fleet_row(conns, size.drivers, &dir.join(format!("fleet-{conns}")));
    Json::obj([
        ("workers", Json::int(FLEET_WORKERS as u64)),
        ("burst_every", Json::int(BURST_EVERY as u64)),
        ("rows", Json::Arr(size.fleets.iter().map(row).collect())),
    ])
}

/// Process RSS in MB from `/proc/self/status` (0.0 where unavailable).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|kb| kb.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Holds up to `conns` connections against one warehouse, bursts, and
/// checks every acked burst deposit is warehoused while the fleet is still
/// held. A loopback fleet costs two fds per connection; when that exceeds
/// the process's fd budget the client half runs in a `--conn-fleet` child,
/// so this process pays one.
fn fleet_row(conns: usize, drivers: usize, dir: &Path) -> Json {
    let devices = shard_pinned_devices(drivers, CONN_SHARDS);
    let (mws, server) = spawn_warehouse(dir, CONN_SHARDS, &devices, FLEET_WORKERS);
    let addr = server.local_addr();
    let both_ends = conns as u64 * 2 + 512;
    let granted = mws_server::raise_nofile_limit(both_ends);
    let in_process = granted >= both_ends;
    let held = conns.min(granted.saturating_sub(512) as usize);
    if held < conns {
        eprintln!("fd limit {granted} caps the row at {held} connections (wanted {conns})");
    }
    let gauge = mws_obs::registry().gauge("mws_server_open_connections");
    let (open_before, rss_before) = (gauge.get(), rss_mb());

    let started = Instant::now();
    let (connect_secs, burst, rss) = std::thread::scope(|scope| {
        let (mut to_fleet, mut from_fleet, child): (Box<dyn Write>, Box<dyn BufRead>, _) =
            if in_process {
                let (cmd_rx, cmd_tx) = std::io::pipe().expect("pipe");
                let (out_rx, out_tx) = std::io::pipe().expect("pipe");
                let input = BufReader::new(cmd_rx);
                scope.spawn(move || conn_fleet(addr, held, BURST_EVERY, drivers, input, out_tx));
                (Box::new(cmd_tx), Box::new(BufReader::new(out_rx)), None)
            } else {
                let argv = [held, BURST_EVERY, drivers].map(|n| n.to_string());
                let mut child = std::process::Command::new(std::env::current_exe().expect("exe"))
                    .args(["--conn-fleet".to_string(), addr.to_string()])
                    .args(argv)
                    .stdin(std::process::Stdio::piped())
                    .stdout(std::process::Stdio::piped())
                    .spawn()
                    .expect("spawn fleet child");
                let stdin = child.stdin.take().expect("fleet stdin");
                let stdout = BufReader::new(child.stdout.take().expect("fleet stdout"));
                (Box::new(stdin), Box::new(stdout), Some(child))
            };
        // Sends `command` (none for the first answer) and splits the reply.
        let mut ask = |command: &str| -> Vec<String> {
            to_fleet.write_all(command.as_bytes()).expect("fleet");
            let mut line = String::new();
            from_fleet.read_line(&mut line).expect("fleet answer");
            line.split_whitespace().map(String::from).collect()
        };

        let connected = ask("");
        assert_eq!(connected.first().map(String::as_str), Some("CONNECTED"));
        // The open-connection gauge proves the server registered every
        // socket, not just backlogged it.
        let deadline = Instant::now() + Duration::from_secs(60);
        while gauge.get() < open_before + held as i64 {
            assert!(Instant::now() < deadline, "server stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        let connect_secs = started.elapsed().as_secs_f64();

        let done = ask("BURST\n");
        assert_eq!(done.first().map(String::as_str), Some("DONE"), "{done:?}");
        let field = |i: usize| done[i].parse::<f64>().expect("DONE field");
        let burst = ModeReport {
            deposits: field(1) as u64,
            p50_us: field(2) as u64,
            p99_us: field(3) as u64,
            secs: field(4),
        };
        // Zero dropped acked deposits, counted with the fleet still held.
        let rows = mws.message_count() as u64;
        assert_eq!(rows, burst.deposits, "acked deposits lost");
        let rss = rss_mb();
        to_fleet.write_all(b"EXIT\n").expect("fleet EXIT");
        if let Some(mut child) = child {
            assert!(child.wait().expect("fleet child").success(), "fleet child");
        }
        (connect_secs, burst, rss)
    });
    drop(server);
    std::fs::remove_dir_all(dir).ok();
    let client_half = if in_process { "in-process" } else { "child" };
    let rss_delta = rss - rss_before;
    eprintln!(
        "conns={held:>6} ({client_half}, connect {connect_secs:>5.1}s)  burst: {burst}  rss {rss:>5.1} MB (+{rss_delta:.1})"
    );
    Json::obj([
        ("connections", Json::int(held as u64)),
        ("client_half", Json::Str(client_half.into())),
        ("connect_secs", Json::fixed(connect_secs, 3)),
        ("burst", burst.json()),
        ("rss_mb", Json::fixed(rss, 1)),
        ("rss_delta_mb", Json::fixed(rss_delta, 1)),
    ])
}

/// The client half of a connection fleet, sequenced by a line protocol:
/// connect `conns` sockets and answer `CONNECTED n`; on `BURST`, send one
/// deposit over every `burst_every`-th from `drivers` threads and answer
/// `DONE deposits p50_us p99_us secs`; on `EXIT`, close them all. Runs on a
/// thread for fleets that fit the fd budget, else in the hidden
/// `--conn-fleet <addr> <conns> <burst_every> <drivers>` child over
/// stdin/stdout.
fn conn_fleet(
    addr: SocketAddr,
    conns: usize,
    burst_every: usize,
    drivers: usize,
    mut input: impl BufRead,
    mut output: impl Write,
) {
    let mut expect = |command: &str| {
        let mut line = String::new();
        input.read_line(&mut line).expect("fleet command");
        assert_eq!(line.trim(), command, "unexpected fleet command");
    };
    mws_server::raise_nofile_limit(conns as u64 + 512);
    let (mut burst, mut idle) = (Vec::new(), Vec::new());
    let timeout = Some(Duration::from_secs(60));
    for i in 0..conns {
        let s = TcpStream::connect(addr).expect("connect");
        if i % burst_every == 0 {
            s.set_read_timeout(timeout).expect("timeout");
            burst.push(s);
        } else {
            idle.push(s);
        }
    }
    writeln!(output, "CONNECTED {conns}").expect("fleet answer");
    output.flush().expect("fleet answer");

    expect("BURST");
    let devices = shard_pinned_devices(drivers, CONN_SHARDS);
    let chunk = burst.len().div_ceil(drivers).max(1);
    let lanes = burst
        .chunks_mut(chunk)
        .zip(&devices)
        .map(|(streams, d)| {
            let frame = |(j, s)| (s, mws_wire::encode_envelope(&deposit(d, 5, j as u64, 1)));
            streams.iter_mut().enumerate().map(frame).collect()
        })
        .collect();
    let r = closed_loop(lanes, 1, |(s, frame): (&mut TcpStream, Vec<u8>)| {
        s.write_all(&frame).expect("burst write");
        let mut replies = StreamDecoder::new();
        while replies.fill_from(s, 512).expect("burst reply") > 0 {
            if let Some(reply) = replies.next_pdu().expect("reply") {
                return assert_stored(&reply, 1);
            }
        }
        panic!("connection closed before the reply");
    });
    let (n, p50, p99, secs) = (r.deposits, r.p50_us, r.p99_us, r.secs);
    writeln!(output, "DONE {n} {p50} {p99} {secs:.6}").expect("fleet answer");
    output.flush().expect("fleet answer");

    // Every connection stays open until the parent has read the server's
    // RSS and row count with the fleet still resident.
    expect("EXIT");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        [] => {
            let doc = run(&FULL).pretty();
            std::fs::write("BENCH_server.json", &doc).expect("write BENCH_server.json");
            print!("{doc}");
            eprintln!("wrote BENCH_server.json");
        }
        ["--smoke"] => {
            run(&SMOKE);
            eprintln!("load_bench --smoke: every scenario's invariants held");
        }
        ["--conn-fleet", addr, conns, burst_every, drivers] => {
            let n = |s: &str| s.parse().expect("fleet argument");
            let (input, output) = (std::io::stdin().lock(), std::io::stdout());
            let addr = addr.parse().expect("fleet addr");
            conn_fleet(addr, n(conns), n(burst_every), n(drivers), input, output);
        }
        _ => {
            eprintln!("usage: load_bench [--smoke]");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_holds_every_scenario_invariant() {
        let Json::Obj(sections) = run(&SMOKE) else {
            panic!("the document is an object");
        };
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["shards", "rebalance", "connections"]);
    }
}
