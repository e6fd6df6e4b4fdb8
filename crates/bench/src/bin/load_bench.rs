//! Server-side load benchmark (DESIGN.md §9): M concurrent smart-device
//! clients driving deposits over real TCP sockets into one warehouse
//! process, at shard counts {1, 4, 16}. Writes `BENCH_server.json` at the
//! repository root.
//!
//! Each row measures two traffic shapes against a file-backed, fsync-per-
//! commit warehouse:
//!
//! * **single** — every deposit is its own `DepositRequest`, so every
//!   deposit pays one WAL append + one fsync on its shard. Shard scaling
//!   shows up directly: fsyncs on different shards overlap.
//! * **batch** — clients send `DepositBatch` PDUs; items landing on the
//!   same shard group-commit into one append + one fsync.
//!
//! Clients skip the IBE encryption on purpose — `u`/`sealed` are junk
//! bytes under a *valid* deposit MAC — because this benchmark isolates the
//! warehouse (authenticate → append → fsync → ack); device-side crypto
//! cost is E1/E3's subject. Each client is pinned to one shard by mining
//! its attribute string against [`ShardRouter`], so N clients spread
//! evenly over N shards.
//!
//! Run with: `cargo run --release -p mws-bench --bin load_bench`
//!
//! Modes:
//! * default — pinned workload, writes `BENCH_server.json`
//! * `--smoke` — tiny run, no file output; asserts every deposit is acked
//!   STORED and that duplicates dedup (used by `scripts/tier1.sh`)
//! * `--cluster` — N ∈ {1, 2, 4} warehouse nodes behind a
//!   `ClusterRouter` at R = min(2, N): quorum-ack p50/p99 and scale-out
//!   throughput, spliced into `BENCH_server.json` as the `cluster` key
//! * `--cluster --smoke` — one 3-node row, no file output; asserts every
//!   deposit quorum-acks and lands exactly R copies
//! * `--rebalance` — a live `ClusterJoin` fired mid-load against a
//!   3-node ring: quorum latency while arcs stream to the newcomer, the
//!   transfer's own duration/row throughput, and an end check that every
//!   acked row sits on all R replicas of the *grown* ring; spliced into
//!   `BENCH_server.json` as the `rebalance` key
//! * `--rebalance --smoke` — tiny run, no file output (the membership
//!   gate `scripts/tier1.sh` runs)
//! * `--connections` — the smart-device fleet shape (DESIGN.md §11):
//!   thousands of mostly-idle persistent connections into one warehouse,
//!   with bursty low-duty-cycle deposits over a rotating subset, at 512
//!   connections and then the 10k+ ceiling; spliced into
//!   `BENCH_server.json` as the `connections` key with connect rate,
//!   burst p50/p99 and process RSS
//! * `--connections --smoke` — a few hundred connections, no file
//!   output; asserts every burst deposit is acked and warehoused (the
//!   gate `scripts/tier1.sh` runs)
//! * `--secure` — transport-security overhead (DESIGN.md §12, E13): the
//!   IBS-authenticated handshake's fresh-connection latency p50/p99, and
//!   the same single-deposit workload over plaintext framing vs
//!   AES-GCM-sealed sessions on a memory-backed warehouse; spliced into
//!   `BENCH_server.json` as the `secure` key
//! * `--secure --smoke` — tiny run, no file output; asserts every
//!   handshake establishes and every sealed deposit is acked (the gate
//!   `scripts/tier1.sh` runs)

use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_core::protocol::{Deployment, DeploymentConfig, MwsService};
use mws_core::registry::DeviceRegistry;
use mws_core::sda::{deposit_mac, DeviceAuthVerifier};
use mws_server::{
    ClientConfig, IbsAuth, SecureClientSettings, SecureSettings, ServerConfig, TcpClient,
    TcpServer, ID_CLIENT, ID_MMS,
};
use mws_store::{ShardRouter, StorageKind};
use mws_wire::secure::{SessionConfig, RECORD_OVERHEAD};
use mws_wire::{DepositItem, DepositOutcome, Pdu};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One traffic shape's results for one shard count.
struct ModeReport {
    deposits: u64,
    secs: f64,
    deposits_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
}

/// One shard count's results.
struct Row {
    shards: usize,
    single: ModeReport,
    batch: ModeReport,
}

/// Workload knobs (pinned in the default run so rows are comparable).
struct Workload {
    clients: usize,
    /// Single-mode deposits per client.
    per_client: usize,
    /// Batch-mode batches per client.
    batches: usize,
    batch_size: usize,
    smoke: bool,
}

/// Mines an attribute string that [`ShardRouter`] routes to `target`, so
/// each client's deposits land on exactly one known shard.
fn attr_for(router: &ShardRouter, n: usize, target: usize) -> String {
    for salt in 0u32.. {
        let attr = format!("LOAD-{n}-{target}-{salt}");
        if router.route(&attr) == target {
            return attr;
        }
    }
    unreachable!("router covers all residues")
}

/// A 16-byte nonce unique across clients, rows and modes.
fn nonce_bytes(tag: u8, shards: u16, client: u16, seq: u64) -> Vec<u8> {
    let mut nonce = Vec::with_capacity(16);
    nonce.push(tag);
    nonce.extend_from_slice(&shards.to_be_bytes());
    nonce.extend_from_slice(&client.to_be_bytes());
    nonce.extend_from_slice(&seq.to_be_bytes());
    nonce.extend_from_slice(&[0u8; 3]);
    nonce
}

/// One deposit's wire fields under a valid MAC (junk ciphertext).
#[allow(clippy::too_many_arguments)]
fn craft_item(
    mac_key: &[u8],
    sd_id: &str,
    attribute: &str,
    timestamp: u64,
    tag: u8,
    shards: u16,
    client: u16,
    seq: u64,
) -> DepositItem {
    let u = vec![0x42u8; 32];
    let sealed = vec![0x5au8; 64];
    let nonce = nonce_bytes(tag, shards, client, seq);
    let mac = deposit_mac(mac_key, &u, &sealed, attribute, &nonce, sd_id, timestamp);
    DepositItem {
        timestamp,
        u,
        algo: 1,
        sealed,
        attribute: attribute.to_string(),
        nonce,
        mac,
    }
}

fn item_to_request(sd_id: &str, item: DepositItem) -> Pdu {
    Pdu::DepositRequest {
        sd_id: sd_id.to_string(),
        timestamp: item.timestamp,
        u: item.u,
        algo: item.algo,
        sealed: item.sealed,
        attribute: item.attribute,
        nonce: item.nonce,
        mac: item.mac,
    }
}

/// Merges per-client latency samples into p50/p99 (µs).
fn quantiles(mut samples: Vec<u64>) -> (u64, u64) {
    samples.sort_unstable();
    let p = |q: usize| samples[(samples.len() * q / 100).min(samples.len() - 1)];
    (p(50), p(99))
}

/// Spawns the warehouse on an ephemeral port over `n` file-backed shards
/// rooted at `dir`, runs both traffic shapes, tears everything down.
fn bench_shards(n: usize, dir: &std::path::Path, w: &Workload) -> Row {
    std::fs::create_dir_all(dir).expect("bench dir");
    let kinds = mws_store::shard_kinds(&StorageKind::File(dir.join("messages.wal")), n);
    let clock = LogicalClock::new();
    let mws = MwsService::new_sharded(
        DeviceRegistry::new(),
        kinds,
        StorageKind::Memory,
        StorageKind::Memory,
        b"load-bench-secret",
        clock,
        ReplayPolicy::standard(),
        7,
        DeviceAuthVerifier::Mac,
    )
    .expect("service open");

    let router = ShardRouter::new(n);
    let mut devices = Vec::with_capacity(w.clients);
    for i in 0..w.clients {
        let sd_id = format!("bench-sd-{i}");
        let mac_key = vec![i as u8 + 1; 32];
        let attribute = attr_for(&router, n, i % n);
        mws.register_device(&sd_id, &mac_key);
        devices.push((sd_id, mac_key, attribute));
    }

    let mut server = TcpServer::spawn(
        ServerConfig {
            workers: w.clients,
            ..ServerConfig::default()
        },
        || mws.as_service(),
    )
    .expect("server spawn");
    let addr = server.local_addr();

    // -- single-deposit shape: one fsync per deposit --------------------
    let started = Instant::now();
    let single_lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(i, (sd_id, mac_key, attribute))| {
                scope.spawn(move || {
                    let client = mws_server::TcpClient::new(addr).into_client();
                    let mut lat = Vec::with_capacity(w.per_client);
                    for seq in 0..w.per_client {
                        let item = craft_item(
                            mac_key, sd_id, attribute, 0, 1, n as u16, i as u16, seq as u64,
                        );
                        let req = item_to_request(sd_id, item);
                        let t0 = Instant::now();
                        let reply = client.call(&req).expect("deposit rtt");
                        lat.push(t0.elapsed().as_micros() as u64);
                        assert!(
                            matches!(reply, Pdu::DepositAck { .. }),
                            "single deposit not acked: {reply:?}"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let single_secs = started.elapsed().as_secs_f64();
    let single_n = (w.clients * w.per_client) as u64;
    let (p50, p99) = quantiles(single_lat.into_iter().flatten().collect());
    let single = ModeReport {
        deposits: single_n,
        secs: single_secs,
        deposits_per_sec: single_n as f64 / single_secs,
        p50_us: p50,
        p99_us: p99,
    };

    // -- batched shape: group commit, one fsync per batch per shard -----
    let started = Instant::now();
    let batch_lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(i, (sd_id, mac_key, attribute))| {
                scope.spawn(move || {
                    let client = mws_server::TcpClient::new(addr).into_client();
                    let mut lat = Vec::with_capacity(w.batches);
                    for b in 0..w.batches {
                        let items: Vec<DepositItem> = (0..w.batch_size)
                            .map(|k| {
                                let seq = (b * w.batch_size + k) as u64;
                                craft_item(mac_key, sd_id, attribute, 0, 2, n as u16, i as u16, seq)
                            })
                            .collect();
                        let req = Pdu::DepositBatch {
                            sd_id: sd_id.clone(),
                            items,
                        };
                        let t0 = Instant::now();
                        let reply = client.call(&req).expect("batch rtt");
                        lat.push(t0.elapsed().as_micros() as u64);
                        match reply {
                            Pdu::DepositBatchAck { results } => {
                                assert_eq!(results.len(), w.batch_size);
                                assert!(
                                    results.iter().all(|r| r.status == DepositOutcome::STORED),
                                    "batch item not stored"
                                );
                            }
                            other => panic!("batch not acked: {other:?}"),
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let batch_secs = started.elapsed().as_secs_f64();
    let batch_n = (w.clients * w.batches * w.batch_size) as u64;
    let (p50, p99) = quantiles(batch_lat.into_iter().flatten().collect());
    let batch = ModeReport {
        deposits: batch_n,
        secs: batch_secs,
        deposits_per_sec: batch_n as f64 / batch_secs,
        p50_us: p50,
        p99_us: p99,
    };

    if w.smoke {
        // Durability + dedup gate: a retransmitted single deposit must come
        // back as a dedup hit (same warehoused row), not a second row.
        let (sd_id, mac_key, attribute) = &devices[0];
        let item = craft_item(mac_key, sd_id, attribute, 0, 1, n as u16, 0, 0);
        let client = mws_server::TcpClient::new(addr).into_client();
        let reply = client
            .call(&item_to_request(sd_id, item))
            .expect("dedup rtt");
        match reply {
            // 409 Replay is the nonce-cache answer; a DepositAck would be
            // the origin-dedup answer. Either proves no double store.
            Pdu::Error { code: 409, .. } | Pdu::DepositAck { .. } => {}
            other => panic!("retransmission neither deduped nor replay-rejected: {other:?}"),
        }
    }

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
    Row {
        shards: n,
        single,
        batch,
    }
}

/// One cluster size's results (DESIGN.md §10): quorum-acked deposits
/// through a [`ClusterRouter`] over `nodes` warehouse processes.
struct ClusterRow {
    nodes: usize,
    replicas: usize,
    write_quorum: usize,
    quorum: ModeReport,
}

/// Spawns `n` warehouse nodes on ephemeral ports — every device
/// registered identically on each, the multi-process analogue of
/// seed-deterministic provisioning — and drives the quorum write path.
fn bench_cluster(n: usize, dir: &std::path::Path, w: &Workload) -> ClusterRow {
    use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter};

    // R = 2 everywhere a second node exists; N = 1 is the no-replication
    // baseline the scaling rows are read against.
    let replicas = n.min(2);
    let write_quorum = replicas;
    let mut devices = Vec::with_capacity(w.clients);
    for i in 0..w.clients {
        // No shard mining here: the ring, not the shard router, decides
        // placement, and it hashes the whole attribute string.
        devices.push((
            format!("bench-sd-{i}"),
            vec![i as u8 + 1; 32],
            format!("LOAD-CL-{i}"),
        ));
    }
    let mut services = Vec::with_capacity(n);
    let mut servers = Vec::with_capacity(n);
    for k in 0..n {
        let node_dir = dir.join(format!("node-{k}"));
        std::fs::create_dir_all(&node_dir).expect("bench dir");
        let kinds = mws_store::shard_kinds(&StorageKind::File(node_dir.join("messages.wal")), 2);
        let mws = MwsService::new_sharded(
            DeviceRegistry::new(),
            kinds,
            StorageKind::Memory,
            StorageKind::Memory,
            b"load-bench-secret",
            LogicalClock::new(),
            ReplayPolicy::standard(),
            7,
            DeviceAuthVerifier::Mac,
        )
        .expect("service open");
        for (sd_id, mac_key, _) in &devices {
            mws.register_device(sd_id, mac_key);
        }
        let server = TcpServer::spawn(
            ServerConfig {
                workers: w.clients,
                ..ServerConfig::default()
            },
            || mws.as_service(),
        )
        .expect("server spawn");
        services.push(mws);
        servers.push(server);
    }
    let nodes: Vec<ClusterNode> = servers
        .iter()
        .enumerate()
        .map(|(k, s)| {
            // One pooled connection per driving client: the round-robin
            // pool must never cap in-flight quorum writes below the
            // offered concurrency.
            let pool = (0..w.clients)
                .map(|_| mws_server::TcpClient::new(s.local_addr()).into_client())
                .collect();
            ClusterNode::new(format!("node-{k}"), pool)
        })
        .collect();
    let router = ClusterRouter::new(
        nodes,
        ClusterConfig::new(replicas, write_quorum),
        mws_core::protocol::replica_key(b"load-bench-secret"),
    );

    let started = Instant::now();
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(i, (sd_id, mac_key, attribute))| {
                let router = &router;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(w.per_client);
                    for seq in 0..w.per_client {
                        let item = craft_item(
                            mac_key, sd_id, attribute, 0, 3, n as u16, i as u16, seq as u64,
                        );
                        let req = item_to_request(sd_id, item);
                        let t0 = Instant::now();
                        let reply = router.handle(req);
                        lat.push(t0.elapsed().as_micros() as u64);
                        assert!(
                            matches!(reply, Pdu::DepositAck { .. }),
                            "quorum deposit not acked: {reply:?}"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let deposits = (w.clients * w.per_client) as u64;

    // Replication accounting: every acked deposit must be durable on
    // exactly R nodes (all nodes stayed up, so no sloppy-walk extras).
    let total: usize = services.iter().map(|s| s.message_count()).sum();
    assert_eq!(
        total,
        deposits as usize * replicas,
        "acked rows must have exactly R copies"
    );

    let (p50, p99) = quantiles(lat.into_iter().flatten().collect());
    for mut s in servers {
        s.shutdown();
    }
    std::fs::remove_dir_all(dir).ok();
    ClusterRow {
        nodes: n,
        replicas,
        write_quorum,
        quorum: ModeReport {
            deposits,
            secs,
            deposits_per_sec: deposits as f64 / secs,
            p50_us: p50,
            p99_us: p99,
        },
    }
}

/// One mid-load membership change's results (DESIGN.md §10).
struct RebalanceRow {
    nodes_before: usize,
    nodes_after: usize,
    replicas: usize,
    quorum: ModeReport,
    transfer_secs: f64,
    arcs_moved: u64,
    rows_moved: u64,
}

/// Counts the rows a warehouse holds for `attribute` over the replica
/// plane (the pull request is open; only the reply is MAC'd).
fn attribute_rows(client: &mws_net::Client, attribute: &str) -> usize {
    let mut after = 0u64;
    let mut count = 0;
    loop {
        match client.call(&Pdu::ReplicaPull {
            attribute: attribute.to_string(),
            after,
            max: 0,
        }) {
            Ok(Pdu::ReplicaRows { rows, done, .. }) => {
                count += rows.len();
                let Some(last) = rows.last() else {
                    return count;
                };
                if done {
                    return count;
                }
                after = last.seq + 1;
            }
            other => panic!("replica pull failed: {other:?}"),
        }
    }
}

/// Spawns four warehouse nodes, routes over the first three, then orders
/// `node-3` to join while the deposit load is running. The load pauses at
/// a barrier only for the join *order* itself (so every pre-join deposit
/// is durable before the ring swaps — the same quiesce a real operator
/// gets from the epoch-gated MAC), then runs concurrently with the arc
/// transfer. Ends by auditing placement against the grown ring.
fn bench_rebalance(dir: &std::path::Path, w: &Workload) -> RebalanceRow {
    use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter, HashRing, DEFAULT_VNODES};

    let replicas = 2;
    let mut devices = Vec::with_capacity(w.clients);
    for i in 0..w.clients {
        devices.push((
            format!("bench-sd-{i}"),
            vec![i as u8 + 1; 32],
            format!("LOAD-RB-{i}"),
        ));
    }
    let mut services = Vec::with_capacity(4);
    let mut servers = Vec::with_capacity(4);
    for k in 0..4 {
        let node_dir = dir.join(format!("node-{k}"));
        std::fs::create_dir_all(&node_dir).expect("bench dir");
        let kinds = mws_store::shard_kinds(&StorageKind::File(node_dir.join("messages.wal")), 2);
        let mws = MwsService::new_sharded(
            DeviceRegistry::new(),
            kinds,
            StorageKind::Memory,
            StorageKind::Memory,
            b"load-bench-secret",
            LogicalClock::new(),
            ReplayPolicy::standard(),
            7,
            DeviceAuthVerifier::Mac,
        )
        .expect("service open");
        for (sd_id, mac_key, _) in &devices {
            mws.register_device(sd_id, mac_key);
        }
        let server = TcpServer::spawn(
            ServerConfig {
                // Headroom beyond the router's pool: the transfer worker
                // and the end-of-run placement audit need slots too.
                workers: w.clients + 2,
                ..ServerConfig::default()
            },
            || mws.as_service(),
        )
        .expect("server spawn");
        services.push(mws);
        servers.push(server);
    }
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let clients = w.clients;
    let pool = move |addr: std::net::SocketAddr| -> Vec<mws_net::Client> {
        (0..clients)
            .map(|_| mws_server::TcpClient::new(addr).into_client())
            .collect()
    };
    let nodes: Vec<ClusterNode> = addrs[..3]
        .iter()
        .enumerate()
        .map(|(k, addr)| ClusterNode::new(format!("node-{k}"), pool(*addr)))
        .collect();
    let replica_key = mws_core::protocol::replica_key(b"load-bench-secret");
    let router = ClusterRouter::new(
        nodes,
        ClusterConfig::new(replicas, replicas),
        replica_key.clone(),
    );
    // The ring plans arc transfers from the attribute universe, which a
    // daemon learns from the policy table; the bench hands it over
    // directly.
    router.set_attribute_names(
        devices
            .iter()
            .enumerate()
            .map(|(i, (_, _, attr))| (i as u64, attr.clone())),
    );
    let addr3 = addrs[3];
    router.set_node_factory(move |_| ClusterNode::new("node-3", pool(addr3)));

    // Each client deposits the first half, waits at the barrier while the
    // join order lands, then races the arc transfer with its second half.
    let half = w.per_client / 2;
    let barrier = std::sync::Barrier::new(clients + 1);
    let started = Instant::now();
    let mut transfer_secs = 0.0;
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(i, (sd_id, mac_key, attribute))| {
                let router = &router;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(w.per_client);
                    for seq in 0..w.per_client {
                        if seq == half {
                            barrier.wait(); // pre-join deposits durable
                            barrier.wait(); // ring swapped, transfer live
                        }
                        let item =
                            craft_item(mac_key, sd_id, attribute, 0, 4, 4, i as u16, seq as u64);
                        let req = item_to_request(sd_id, item);
                        let t0 = Instant::now();
                        let reply = router.handle(req);
                        lat.push(t0.elapsed().as_micros() as u64);
                        assert!(
                            matches!(reply, Pdu::DepositAck { .. }),
                            "quorum deposit not acked mid-rebalance: {reply:?}"
                        );
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let epoch = router.epoch();
        let join = Pdu::ClusterJoin {
            node: "node-3".into(),
            epoch,
            mac: mws_crypto::Hmac::<mws_crypto::Sha256>::mac(
                &replica_key,
                &mws_wire::cluster_join_bytes("node-3", epoch),
            ),
        };
        let t0 = Instant::now();
        let reply = router.handle(join);
        assert!(
            matches!(reply, Pdu::ClusterAdminAck { .. }),
            "join refused: {reply:?}"
        );
        barrier.wait();
        assert!(
            router.wait_rebalance(std::time::Duration::from_secs(120)),
            "arc transfer never finished"
        );
        transfer_secs = t0.elapsed().as_secs_f64();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let deposits = (w.clients * w.per_client) as u64;
    let (arcs_moved, rows_moved) = match router.handle(Pdu::RebalanceStatus) {
        Pdu::RebalanceReport {
            arcs_done,
            rows_moved,
            transferring,
            members,
            ..
        } => {
            assert!(!transferring);
            assert_eq!(members.len(), 4, "node-3 must be a member");
            (arcs_done, rows_moved)
        }
        other => panic!("no rebalance report: {other:?}"),
    };

    // Placement audit against the grown ring: every acked row must sit on
    // all R replicas the 4-node ring assigns its attribute, and *only*
    // there — the evict finalizer drops the departed donor's copy, so the
    // cluster ends at exactly R copies per row, not R-plus-stale. Dropping
    // the router first releases its connection pools back to the servers.
    drop(router);
    let names: Vec<String> = (0..4).map(|k| format!("node-{k}")).collect();
    let ring = HashRing::new(&names, DEFAULT_VNODES);
    let auditors: Vec<mws_net::Client> = addrs
        .iter()
        .map(|a| mws_server::TcpClient::new(*a).into_client())
        .collect();
    for (_, _, attribute) in &devices {
        let home = ring.replicas(attribute, replicas);
        let mut total = 0;
        for (idx, auditor) in auditors.iter().enumerate() {
            let held = attribute_rows(auditor, attribute);
            if home.contains(&idx) {
                assert_eq!(
                    held, w.per_client,
                    "node-{idx} is missing rows for {attribute} after the join"
                );
            } else {
                assert_eq!(
                    held, 0,
                    "node-{idx} kept a stale copy of {attribute} past the handover"
                );
            }
            total += held;
        }
        assert_eq!(
            total,
            replicas * w.per_client,
            "exactly R copies of {attribute}"
        );
    }

    let (p50, p99) = quantiles(lat.into_iter().flatten().collect());
    for mut s in servers {
        s.shutdown();
    }
    std::fs::remove_dir_all(dir).ok();
    RebalanceRow {
        nodes_before: 3,
        nodes_after: 4,
        replicas,
        quorum: ModeReport {
            deposits,
            secs,
            deposits_per_sec: deposits as f64 / secs,
            p50_us: p50,
            p99_us: p99,
        },
        transfer_secs,
        arcs_moved,
        rows_moved,
    }
}

/// p50/p99 of the same merged retrieve under each read-consistency mode
/// (`--read-quorum quorum` vs `fastest`), over identical replicated data.
struct ReadModeRow {
    rows: usize,
    quorum_p50_us: u64,
    quorum_p99_us: u64,
    fastest_p50_us: u64,
    fastest_p99_us: u64,
}

/// Measures the read-consistency knob: a full client retrieve (password
/// auth at the front door, replica fan-out, id-merge — no IBE
/// decryption, which would swamp the network delta) against a
/// quorum-merge router and a fastest-replica router over the same
/// converged data. Two nodes at R = 2 means full replication, so both
/// modes return the complete set and the delta is purely protocol cost
/// (fan-out + nonce-merge vs a single forwarded hop).
fn bench_read_modes(iters: usize, deposits: usize) -> ReadModeRow {
    use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter, ReadConsistency};
    use mws_core::protocol::{Deployment, DeploymentConfig};

    let attrs: Vec<String> = (0..4).map(|i| format!("LOAD-RM-{i}")).collect();
    let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
    let mut deps: Vec<Deployment> = (0..2)
        .map(|_| {
            let mut dep = Deployment::new(DeploymentConfig {
                seed: 42,
                ..DeploymentConfig::test_default()
            });
            dep.register_device("bench-sd");
            dep.register_client("rc", "pw", &attr_refs);
            dep
        })
        .collect();
    let servers: Vec<TcpServer> = deps
        .iter()
        .map(|d| {
            let mws = d.mws().clone();
            TcpServer::spawn(ServerConfig::default(), move || mws.as_service()).expect("node")
        })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    // Immutable snapshots of everything a front door needs, so the door
    // builder does not hold `deps` borrowed while meters and collectors
    // take it mutably.
    let replica_key = deps[0].replica_key();
    let policy: Vec<(u64, String)> = deps[0]
        .mws()
        .policy_table()
        .into_iter()
        .map(|row| (row.attribute_id, row.attribute))
        .collect();
    let clock = deps[0].clock().clone();
    let rc_pub = deps[0].mws().client_public_key("rc").expect("registered");
    let front_with = |read: ReadConsistency| {
        let nodes = addrs
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let pool = (0..2)
                    .map(|_| mws_server::TcpClient::new(*a).into_client())
                    .collect();
                ClusterNode::new(format!("node-{k}"), pool)
            })
            .collect();
        let router = ClusterRouter::new(
            nodes,
            ClusterConfig::new(2, 2).with_read(read),
            replica_key.clone(),
        );
        router.set_attribute_names(policy.iter().cloned());
        let front =
            mws_server::ClusterFrontdoor::new(clock.clone(), ReplayPolicy::standard(), router);
        front.register("rc", "pw", &rc_pub);
        let f = front.clone();
        TcpServer::spawn(ServerConfig::default(), move || f.as_service()).expect("front door")
    };

    // Seed the replicas once through the quorum write path.
    {
        let door = front_with(ReadConsistency::Quorum);
        let pkg = deps[0].network().client("pkg");
        let mut meter = deps[0]
            .device_with(
                "bench-sd",
                mws_server::TcpClient::new(door.local_addr()).into_client(),
                &pkg,
            )
            .expect("device bootstrap");
        for i in 0..deposits {
            meter
                .deposit_reliable(&attrs[i % attrs.len()], format!("rm-{i}").as_bytes(), 64)
                .expect("quorum ack");
        }
    }

    let mut measure = |read: ReadConsistency| {
        let door = front_with(read);
        let pkg = deps[0].network().client("pkg");
        let mut rc = deps[0].client_with(
            "rc",
            "pw",
            mws_server::TcpClient::new(door.local_addr()).into_client(),
            pkg,
        );
        let mut lat = Vec::with_capacity(iters);
        for warm in 0..iters + 3 {
            let t0 = Instant::now();
            let (_, msgs) = rc.retrieve(0).expect("retrieve");
            let us = t0.elapsed().as_micros() as u64;
            // Both modes must see the full converged set — fastest trades
            // staleness tolerance, not rows, once replicas agree.
            assert_eq!(msgs.len(), deposits, "short read under {read:?}");
            if warm >= 3 {
                lat.push(us);
            }
        }
        quantiles(lat)
    };
    let (quorum_p50_us, quorum_p99_us) = measure(ReadConsistency::Quorum);
    let (fastest_p50_us, fastest_p99_us) = measure(ReadConsistency::Fastest);
    ReadModeRow {
        rows: deposits,
        quorum_p50_us,
        quorum_p99_us,
        fastest_p50_us,
        fastest_p99_us,
    }
}

/// `BENCH_server.json` up to (not including) its `key` section — or a fresh
/// document if there is no file yet — followed by `block` as the final
/// section. Each mode owns one section and rewrites only that.
fn splice_section(key: &str, block: &str) -> String {
    let marker = format!(",\n  \"{key}\": {{");
    let base = std::fs::read_to_string("BENCH_server.json")
        .ok()
        .map(|s| match s.find(&marker) {
            Some(at) => s[..at].to_string(),
            None => s.trim_end().trim_end_matches('}').trim_end().to_string(),
        })
        .unwrap_or_else(|| String::from("{\n  \"bench\": \"load_bench\""));
    format!("{base},\n{block}}}\n")
}

/// Renders the rebalance row and splices it into `BENCH_server.json` as
/// its final `"rebalance"` key, preserving the shard and cluster sections
/// earlier runs wrote.
fn splice_rebalance_json(row: &RebalanceRow, reads: &ReadModeRow, w: &Workload) -> String {
    let m = &row.quorum;
    let mut block = String::from("  \"rebalance\": {\n");
    let _ = writeln!(
        block,
        "    \"clients\": {}, \"per_client\": {}, \"nodes_before\": {}, \"nodes_after\": {}, \"replicas\": {},",
        w.clients, w.per_client, row.nodes_before, row.nodes_after, row.replicas
    );
    let _ = writeln!(
        block,
        "    \"deposits\": {}, \"secs\": {:.3}, \"deposits_per_sec\": {:.1}, \"quorum_p50_us\": {}, \"quorum_p99_us\": {},",
        m.deposits, m.secs, m.deposits_per_sec, m.p50_us, m.p99_us
    );
    let _ = writeln!(
        block,
        "    \"transfer_secs\": {:.3}, \"arcs_moved\": {}, \"rows_moved\": {}, \"rows_per_sec\": {:.1},",
        row.transfer_secs,
        row.arcs_moved,
        row.rows_moved,
        row.rows_moved as f64 / row.transfer_secs.max(1e-9)
    );
    let _ = writeln!(
        block,
        "    \"read_rows\": {}, \"read_quorum_p50_us\": {}, \"read_quorum_p99_us\": {}, \"read_fastest_p50_us\": {}, \"read_fastest_p99_us\": {},",
        reads.rows,
        reads.quorum_p50_us,
        reads.quorum_p99_us,
        reads.fastest_p50_us,
        reads.fastest_p99_us
    );
    block.push_str("    \"all_acked_rows_on_all_grown_ring_replicas\": true,\n");
    block.push_str("    \"exactly_r_copies_after_evict\": true\n  }");

    splice_section("rebalance", &(block + "\n"))
}

/// `--rebalance` entry: one live join under load. Smoke keeps it tiny and
/// writes nothing; the placement audit runs either way.
fn run_rebalance(smoke: bool) {
    let w = if smoke {
        Workload {
            clients: 2,
            per_client: 10,
            batches: 0,
            batch_size: 0,
            smoke: true,
        }
    } else {
        Workload {
            clients: 8,
            per_client: 150,
            batches: 0,
            batch_size: 0,
            smoke: false,
        }
    };
    let base = std::env::temp_dir().join(format!("mws-rebalance-bench-{}", std::process::id()));
    let row = bench_rebalance(&base, &w);
    std::fs::remove_dir_all(&base).ok();
    eprintln!(
        "join 3→4 nodes  R={}  quorum under rebalance: {:>8.0} dep/s (p50 {:>5}µs, p99 {:>6}µs)",
        row.replicas, row.quorum.deposits_per_sec, row.quorum.p50_us, row.quorum.p99_us,
    );
    eprintln!(
        "arc transfer: {} arcs, {} rows in {:.3}s",
        row.arcs_moved, row.rows_moved, row.transfer_secs,
    );
    let reads = if smoke {
        bench_read_modes(8, 12)
    } else {
        bench_read_modes(60, 48)
    };
    eprintln!(
        "read modes over {} rows: quorum p50 {:>5}µs p99 {:>6}µs | fastest p50 {:>5}µs p99 {:>6}µs",
        reads.rows,
        reads.quorum_p50_us,
        reads.quorum_p99_us,
        reads.fastest_p50_us,
        reads.fastest_p99_us,
    );
    if smoke {
        eprintln!("load_bench --rebalance --smoke: every acked row on all R grown-ring replicas");
        return;
    }
    let json = splice_rebalance_json(&row, &reads, &w);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("{json}");
    eprintln!("wrote BENCH_server.json (rebalance section)");
}

/// Renders the cluster rows and splices them into `BENCH_server.json` as
/// its final `"cluster"` key — replacing any previous cluster section,
/// preserving the shard rows a prior default run wrote.
fn splice_cluster_json(rows: &[ClusterRow], w: &Workload) -> String {
    let mut block = String::from("  \"cluster\": {\n");
    let _ = writeln!(
        block,
        "    \"clients\": {}, \"per_client\": {},",
        w.clients, w.per_client
    );
    block.push_str("    \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let m = &row.quorum;
        let _ = writeln!(
            block,
            "      {{ \"nodes\": {}, \"replicas\": {}, \"write_quorum\": {}, \"deposits\": {}, \"secs\": {:.3}, \"deposits_per_sec\": {:.1}, \"quorum_p50_us\": {}, \"quorum_p99_us\": {} }}{}",
            row.nodes,
            row.replicas,
            row.write_quorum,
            m.deposits,
            m.secs,
            m.deposits_per_sec,
            m.p50_us,
            m.p99_us,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    block.push_str("    ],\n");
    // The scale-out headline compares equal replication cost: 4 nodes vs
    // 2 nodes, both writing R = 2 copies per deposit.
    let find = |n: usize| rows.iter().find(|r| r.nodes == n);
    let scaleout = match (find(4), find(2)) {
        (Some(hi), Some(lo)) => hi.quorum.deposits_per_sec / lo.quorum.deposits_per_sec,
        _ => 0.0,
    };
    let overhead = match (find(2), find(1)) {
        (Some(r2), Some(r1)) => r2.quorum.deposits_per_sec / r1.quorum.deposits_per_sec,
        _ => 0.0,
    };
    let _ = writeln!(
        block,
        "    \"scaleout_4_nodes_over_2\": {scaleout:.2},\n    \"replication_2_nodes_over_1\": {overhead:.2}\n  }}"
    );

    splice_section("cluster", &block)
}

fn render_mode(out: &mut String, name: &str, m: &ModeReport, trailing_comma: bool) {
    let _ = writeln!(
        out,
        "      \"{name}\": {{ \"deposits\": {}, \"secs\": {:.3}, \"deposits_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {} }}{}",
        m.deposits,
        m.secs,
        m.deposits_per_sec,
        m.p50_us,
        m.p99_us,
        if trailing_comma { "," } else { "" }
    );
}

fn render_json(rows: &[Row], w: &Workload) -> String {
    let find = |n: usize| rows.iter().find(|r| r.shards == n);
    let speedup = match (find(16), find(1)) {
        (Some(hi), Some(lo)) => hi.single.deposits_per_sec / lo.single.deposits_per_sec,
        _ => 0.0,
    };
    let batch_speedup = match (find(16), find(1)) {
        (Some(hi), Some(lo)) => hi.batch.deposits_per_sec / lo.batch.deposits_per_sec,
        _ => 0.0,
    };
    // The headline: everything this PR adds (16 shards + batched group
    // commit) against everything it replaces (1 shard, one fsync per
    // deposit). Per-mode speedups above isolate each lever; on a
    // single-core host they saturate at the CPU ceiling once fsync is
    // off the critical path (see EXPERIMENTS.md).
    let pipeline_speedup = match (find(16), find(1)) {
        (Some(hi), Some(lo)) => hi.batch.deposits_per_sec / lo.single.deposits_per_sec,
        _ => 0.0,
    };
    let mut out = String::from("{\n  \"bench\": \"load_bench\",\n");
    let _ = writeln!(
        out,
        "  \"clients\": {}, \"per_client\": {}, \"batches\": {}, \"batch_size\": {},",
        w.clients, w.per_client, w.batches, w.batch_size
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{\n      \"shards\": {},", row.shards);
        render_mode(&mut out, "single", &row.single, true);
        render_mode(&mut out, "batch", &row.batch, false);
        let _ = writeln!(out, "    }}{}", if i + 1 == rows.len() { "" } else { "," });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"speedup_single_16x_over_1x\": {speedup:.2},\n  \"speedup_batch_16x_over_1x\": {batch_speedup:.2},\n  \"speedup_pipeline_16x_over_baseline_1x\": {pipeline_speedup:.2}"
    );
    out.push_str("}\n");
    out
}

/// `--cluster` entry: N ∈ {1, 2, 4} warehouse nodes at R = min(2, N).
/// Smoke mode runs one 3-node row with no file output — the quorum-path
/// equivalent of the single-warehouse smoke gate.
fn run_cluster(smoke: bool) {
    let w = if smoke {
        Workload {
            clients: 2,
            per_client: 10,
            batches: 0,
            batch_size: 0,
            smoke: true,
        }
    } else {
        Workload {
            clients: 8,
            per_client: 150,
            batches: 0,
            batch_size: 0,
            smoke: false,
        }
    };
    let node_counts: &[usize] = if smoke { &[3] } else { &[1, 2, 4] };
    let base = std::env::temp_dir().join(format!("mws-cluster-bench-{}", std::process::id()));
    let mut rows = Vec::new();
    for &n in node_counts {
        let row = bench_cluster(n, &base.join(format!("nodes-{n}")), &w);
        eprintln!(
            "nodes={}  R={} W={}  quorum: {:>8.0} dep/s (p50 {:>5}µs, p99 {:>6}µs)",
            row.nodes,
            row.replicas,
            row.write_quorum,
            row.quorum.deposits_per_sec,
            row.quorum.p50_us,
            row.quorum.p99_us,
        );
        rows.push(row);
    }
    std::fs::remove_dir_all(&base).ok();
    if smoke {
        eprintln!("load_bench --cluster --smoke: every deposit quorum-acked with exactly R copies");
        return;
    }
    let json = splice_cluster_json(&rows, &w);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("{json}");
    eprintln!("wrote BENCH_server.json (cluster section)");
}

/// One row of the `--connections` fleet shape: `connections` persistent
/// sockets held open against a single warehouse while a rotating subset
/// fires one-deposit bursts.
struct ConnectionsRow {
    connections: usize,
    workers: usize,
    event_loops: usize,
    connect_secs: f64,
    deposits: u64,
    burst_secs: f64,
    deposits_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    /// Process RSS while every connection is held (server + client ends —
    /// both live in this process, so this is an upper bound on the server
    /// side alone).
    rss_mb: f64,
    /// RSS growth of this row over its own start (the comparable number:
    /// absolute RSS accumulates allocator pools across rows).
    rss_delta_mb: f64,
}

/// Shape knobs for one [`bench_connections`] row.
struct ConnShape {
    conns: usize,
    /// Threads driving the burst (each owns one registered device).
    drivers: usize,
    /// One in `burst_div` connections deposits during the burst; the rest
    /// stay idle for the row's whole lifetime.
    burst_div: usize,
}

/// Process RSS in MB from `/proc/self/status` (0.0 where unavailable).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Waits until the process-wide open-connection gauge reaches `want`,
/// proving the server really registered (not just backlogged) every
/// socket the clients opened.
fn await_open_connections(want: i64) {
    let gauge = mws_obs::registry().gauge("mws_server_open_connections");
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    while gauge.get() < want {
        assert!(
            Instant::now() < deadline,
            "server registered only {} of {want} connections",
            gauge.get()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Shards behind the `--connections` warehouse (shared by the driving
/// side so device → attribute mining is reproducible in the fleet child).
const CONN_SHARDS: usize = 4;

/// The deterministic device table for the `--connections` shape — the
/// fleet child process recomputes exactly this, so parent and child agree
/// on MAC keys and shard-pinned attributes without any handshake.
fn conn_devices(drivers: usize) -> Vec<(String, Vec<u8>, String)> {
    let router = ShardRouter::new(CONN_SHARDS);
    (0..drivers)
        .map(|i| {
            (
                format!("bench-sd-{i}"),
                vec![i as u8 + 1; 32],
                attr_for(&router, CONN_SHARDS, i % CONN_SHARDS),
            )
        })
        .collect()
}

/// Connects `conns` persistent sockets to `addr`, splitting off every
/// `burst_div`-th one (with a read timeout) as a burster.
fn conn_fleet_connect(
    addr: std::net::SocketAddr,
    conns: usize,
    burst_div: usize,
) -> (Vec<std::net::TcpStream>, Vec<std::net::TcpStream>) {
    let mut burst = Vec::with_capacity(conns / burst_div + 1);
    let mut idle = Vec::with_capacity(conns);
    for i in 0..conns {
        let s = std::net::TcpStream::connect(addr).expect("connect");
        if i % burst_div == 0 {
            s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
                .expect("read timeout");
            burst.push(s);
        } else {
            idle.push(s);
        }
    }
    (burst, idle)
}

/// One-deposit-per-connection burst over raw frames, swept by
/// `drivers` threads. Returns `(deposits, p50_us, p99_us, secs)`; panics
/// unless every deposit is acked.
fn drive_burst(
    burst: &mut [std::net::TcpStream],
    devices: &[(String, Vec<u8>, String)],
    drivers: usize,
) -> (u64, u64, u64, f64) {
    use std::io::Write as _;

    let chunk = burst.len().div_ceil(drivers).max(1);
    let started = Instant::now();
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = burst
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, slice)| {
                let (sd_id, mac_key, attribute) = &devices[t % drivers];
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(slice.len());
                    for (j, s) in slice.iter_mut().enumerate() {
                        let item = craft_item(
                            mac_key,
                            sd_id,
                            attribute,
                            0,
                            5,
                            CONN_SHARDS as u16,
                            t as u16,
                            j as u64,
                        );
                        let frame = mws_wire::encode_envelope(&item_to_request(sd_id, item));
                        let t0 = Instant::now();
                        s.write_all(&frame).expect("burst write");
                        let raw = mws_server::framing::read_raw_frame(s).expect("burst reply");
                        lat.push(t0.elapsed().as_micros() as u64);
                        let (reply, _) = mws_wire::decode_envelope(&raw).expect("reply decodes");
                        assert!(
                            matches!(reply, Pdu::DepositAck { .. }),
                            "burst deposit not acked: {reply:?}"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let deposits: u64 = lat.iter().map(|v| v.len() as u64).sum();
    let (p50, p99) = quantiles(lat.into_iter().flatten().collect());
    (deposits, p50, p99, secs)
}

/// Hidden `--conn-fleet <addr> <conns> <burst_div> <drivers>` child mode:
/// the client half of a fleet too large for one process's fd budget
/// (each loopback connection costs two fds; this container's hard
/// `RLIMIT_NOFILE` cannot be raised). The parent holds the server end,
/// this child holds the client end, and a line protocol on
/// stdin/stdout sequences connect → burst → teardown.
fn run_conn_fleet(argv: &[String]) {
    use std::io::BufRead as _;

    let addr: std::net::SocketAddr = argv[0].parse().expect("fleet addr");
    let conns: usize = argv[1].parse().expect("fleet conns");
    let burst_div: usize = argv[2].parse().expect("fleet burst_div");
    let drivers: usize = argv[3].parse().expect("fleet drivers");
    mws_server::raise_nofile_limit(conns as u64 + 512);
    let devices = conn_devices(drivers);

    let (mut burst, idle) = conn_fleet_connect(addr, conns, burst_div);
    println!("CONNECTED {}", burst.len() + idle.len());

    let stdin = std::io::stdin();
    let mut line = String::new();
    stdin.lock().read_line(&mut line).expect("fleet stdin");
    assert_eq!(line.trim(), "BURST", "unexpected fleet command");
    let (deposits, p50, p99, secs) = drive_burst(&mut burst, &devices, drivers);
    println!("DONE {deposits} {p50} {p99} {secs:.6}");

    // Keep every connection held until the parent has read the server's
    // RSS and the open-connection gauge with the fleet still resident.
    line.clear();
    stdin.lock().read_line(&mut line).expect("fleet stdin");
    assert_eq!(line.trim(), "EXIT", "unexpected fleet command");
}

/// Holds `shape.conns` persistent connections against one warehouse,
/// then drives a one-deposit burst over every
/// `burst_div`-th connection with raw frames, asserting every deposit is
/// acked and warehoused (zero dropped acked deposits).
///
/// Small fleets run in-process; fleets whose two-fds-per-connection cost
/// exceeds the process fd budget fork the client half into a
/// [`run_conn_fleet`] child so the server side only pays one fd per
/// connection.
fn bench_connections(shape: &ConnShape, dir: &std::path::Path) -> ConnectionsRow {
    use std::io::{BufRead as _, Write as _};

    const SHARDS: usize = CONN_SHARDS;
    std::fs::create_dir_all(dir).expect("bench dir");
    let kinds = mws_store::shard_kinds(&StorageKind::File(dir.join("messages.wal")), SHARDS);
    let mws = MwsService::new_sharded(
        DeviceRegistry::new(),
        kinds,
        StorageKind::Memory,
        StorageKind::Memory,
        b"load-bench-secret",
        LogicalClock::new(),
        ReplayPolicy::standard(),
        7,
        DeviceAuthVerifier::Mac,
    )
    .expect("service open");

    let devices = conn_devices(shape.drivers);
    for (sd_id, mac_key, _) in &devices {
        mws.register_device(sd_id, mac_key);
    }

    // The event loop serves any number of connections from a handful of
    // workers — that is the row's whole point.
    let workers = 4;
    let event_loops = 1;
    let mut server = TcpServer::spawn(
        ServerConfig {
            workers,
            event_loops,
            ..ServerConfig::default()
        },
        || mws.as_service(),
    )
    .expect("server spawn");
    let addr = server.local_addr();

    // An in-process loopback fleet burns two fds per connection; with the
    // client half forked out, the server side pays one. Prefer in-process
    // (simpler, no child) whenever the budget allows.
    let both_ends = (shape.conns as u64) * 2 + 512;
    let server_end = (shape.conns as u64) + 512;
    let granted = mws_server::raise_nofile_limit(both_ends);
    let (forked, conns) = if granted >= both_ends {
        (false, shape.conns)
    } else if granted >= server_end {
        (true, shape.conns)
    } else {
        let fit = (granted.saturating_sub(512)) as usize;
        eprintln!(
            "fd limit {granted} caps the row at {fit} connections (wanted {})",
            shape.conns
        );
        (true, fit.min(shape.conns))
    };

    let rss_before = rss_mb();
    let open_before = mws_obs::registry()
        .gauge("mws_server_open_connections")
        .get();

    let (connect_secs, deposits, p50, p99, burst_secs, rss, fleet) = if forked {
        // Client half in a child process with its own fd budget; this
        // process keeps only the server ends.
        let exe = std::env::current_exe().expect("own path");
        let started = Instant::now();
        let mut child = std::process::Command::new(exe)
            .arg("--conn-fleet")
            .arg(addr.to_string())
            .arg(conns.to_string())
            .arg(shape.burst_div.to_string())
            .arg(shape.drivers.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn fleet child");
        let mut child_in = child.stdin.take().expect("fleet stdin");
        let mut child_out = std::io::BufReader::new(child.stdout.take().expect("fleet stdout"));
        let mut line = String::new();
        child_out.read_line(&mut line).expect("fleet CONNECTED");
        assert!(
            line.starts_with("CONNECTED"),
            "fleet child failed to connect: {line:?}"
        );
        await_open_connections(open_before + conns as i64);
        let connect_secs = started.elapsed().as_secs_f64();

        child_in.write_all(b"BURST\n").expect("fleet BURST");
        line.clear();
        child_out.read_line(&mut line).expect("fleet DONE");
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.first(), Some(&"DONE"), "fleet burst failed: {line:?}");
        let deposits: u64 = f[1].parse().expect("fleet deposits");
        let p50: u64 = f[2].parse().expect("fleet p50");
        let p99: u64 = f[3].parse().expect("fleet p99");
        let burst_secs: f64 = f[4].parse().expect("fleet secs");

        // Zero dropped acked deposits, counted while the whole fleet is
        // still resident; RSS here is the server process alone.
        assert_eq!(
            mws.message_count() as u64,
            deposits,
            "acked deposits missing from the warehouse"
        );
        let rss = rss_mb();
        (
            connect_secs,
            deposits,
            p50,
            p99,
            burst_secs,
            rss,
            Some((child, child_in)),
        )
    } else {
        let started = Instant::now();
        let (mut burst, idle) = conn_fleet_connect(addr, conns, shape.burst_div);
        await_open_connections(open_before + conns as i64);
        let connect_secs = started.elapsed().as_secs_f64();

        let (deposits, p50, p99, burst_secs) = drive_burst(&mut burst, &devices, shape.drivers);
        assert_eq!(
            mws.message_count() as u64,
            deposits,
            "acked deposits missing from the warehouse"
        );
        let rss = rss_mb();
        drop(burst);
        drop(idle);
        (connect_secs, deposits, p50, p99, burst_secs, rss, None)
    };

    if let Some((mut child, mut child_in)) = fleet {
        child_in.write_all(b"EXIT\n").expect("fleet EXIT");
        drop(child_in);
        child.wait().expect("fleet child exit");
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
    ConnectionsRow {
        connections: conns,
        workers,
        event_loops,
        connect_secs,
        deposits,
        burst_secs,
        deposits_per_sec: deposits as f64 / burst_secs,
        p50_us: p50,
        p99_us: p99,
        rss_mb: rss,
        rss_delta_mb: rss - rss_before,
    }
}

fn splice_connections_json(rows: &[ConnectionsRow]) -> String {
    let mut block = String::from("  \"connections\": {\n");
    block.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            block,
            "      {{ \"connections\": {}, \"workers\": {}, \"event_loops\": {}, \"connect_secs\": {:.3}, \"deposits\": {}, \"burst_secs\": {:.3}, \"deposits_per_sec\": {:.1}, \"burst_p50_us\": {}, \"burst_p99_us\": {}, \"rss_mb\": {:.1}, \"rss_delta_mb\": {:.1} }}{}",
            r.connections,
            r.workers,
            r.event_loops,
            r.connect_secs,
            r.deposits,
            r.burst_secs,
            r.deposits_per_sec,
            r.p50_us,
            r.p99_us,
            r.rss_mb,
            r.rss_delta_mb,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    block.push_str("    ],\n");
    let ceiling = rows.iter().map(|r| r.connections).max().unwrap_or(0);
    let _ = writeln!(
        block,
        "    \"idle_connection_ceiling\": {ceiling},\n    \"zero_dropped_acked_deposits\": true\n  }}"
    );

    splice_section("connections", &block)
}

/// `--connections` entry: the smart-device fleet shape. The full run
/// holds 512 and then 10k connections; smoke holds a few hundred with no
/// file output — the fleet-shape tier-1 gate.
fn run_connections(smoke: bool) {
    let shape = |conns, drivers| ConnShape {
        conns,
        drivers,
        burst_div: 4,
    };
    let shapes = if smoke {
        vec![shape(256, 4)]
    } else {
        vec![shape(512, 8), shape(10_000, 8)]
    };

    let base = std::env::temp_dir().join(format!("mws-conn-bench-{}", std::process::id()));
    let mut rows = Vec::new();
    for (k, shape) in shapes.iter().enumerate() {
        let row = bench_connections(shape, &base.join(format!("row-{k}")));
        eprintln!(
            "conns={:>6} (connect {:>5.1}s)  burst: {:>6} deposits, {:>7.0} dep/s (p50 {:>5}µs, p99 {:>6}µs)  rss {:>6.1} MB (+{:.1})",
            row.connections,
            row.connect_secs,
            row.deposits,
            row.deposits_per_sec,
            row.p50_us,
            row.p99_us,
            row.rss_mb,
            row.rss_delta_mb,
        );
        rows.push(row);
    }
    std::fs::remove_dir_all(&base).ok();
    if smoke {
        eprintln!("load_bench --connections --smoke: every burst deposit acked and warehoused");
        return;
    }
    let json = splice_connections_json(&rows);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("{json}");
    eprintln!("wrote BENCH_server.json (connections section)");
}

// ---------------------------------------------------------------------------
// --secure: transport-security overhead (DESIGN.md §12). The warehouse is
// memory-backed on purpose: an fsync-per-commit store hides the
// microsecond-scale costs of AES-GCM sealing behind millisecond-scale
// durability, and durability scaling already has its own rows above.
// ---------------------------------------------------------------------------

/// The `--secure` A/B: fresh-connection handshake latency plus identical
/// plaintext vs sealed single-deposit runs.
struct SecureRow {
    handshakes: usize,
    hs_p50_us: u64,
    hs_p99_us: u64,
    /// Plain fresh-connection first call — the same probe without the
    /// handshake, so the difference is the handshake's own cost.
    plain_first_call_p50_us: u64,
    plain: ModeReport,
    secure: ModeReport,
}

/// One memory-backed warehouse with `devices` registered, listening with
/// the given transport settings.
fn spawn_secure_warehouse(
    devices: &[(String, Vec<u8>, String)],
    workers: usize,
    secure: Option<Arc<SecureSettings>>,
) -> (MwsService, TcpServer) {
    let mws = MwsService::new_sharded(
        DeviceRegistry::new(),
        mws_store::shard_kinds(&StorageKind::Memory, 1),
        StorageKind::Memory,
        StorageKind::Memory,
        b"load-bench-secret",
        LogicalClock::new(),
        ReplayPolicy::standard(),
        7,
        DeviceAuthVerifier::Mac,
    )
    .expect("service open");
    for (sd_id, mac_key, _) in devices {
        mws.register_device(sd_id, mac_key);
    }
    let service = mws.clone();
    let server = TcpServer::spawn(
        ServerConfig {
            workers,
            secure,
            ..ServerConfig::default()
        },
        move || service.as_service(),
    )
    .expect("server spawn");
    (mws, server)
}

/// Drives the single-deposit shape with one persistent connection per
/// client, plaintext or sealed depending on `secure`.
fn drive_single_deposits(
    addr: SocketAddr,
    devices: &[(String, Vec<u8>, String)],
    w: &Workload,
    secure: &Option<Arc<SecureClientSettings>>,
    tag: u8,
) -> ModeReport {
    let started = Instant::now();
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(i, (sd_id, mac_key, attribute))| {
                scope.spawn(move || {
                    let client = TcpClient::with_config(
                        addr,
                        ClientConfig {
                            secure: secure.clone(),
                            ..ClientConfig::default()
                        },
                    )
                    .into_client();
                    // Establish the connection (and session, when secure)
                    // before the clock starts: the handshake is measured
                    // on its own, this shape measures per-frame cost.
                    client.call(&Pdu::HealthRequest).expect("warmup");
                    let mut lat = Vec::with_capacity(w.per_client);
                    for seq in 0..w.per_client {
                        let item =
                            craft_item(mac_key, sd_id, attribute, 0, tag, 1, i as u16, seq as u64);
                        let req = item_to_request(sd_id, item);
                        let t0 = Instant::now();
                        let reply = client.call(&req).expect("deposit rtt");
                        lat.push(t0.elapsed().as_micros() as u64);
                        assert!(
                            matches!(reply, Pdu::DepositAck { .. }),
                            "deposit not acked: {reply:?}"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let n = (w.clients * w.per_client) as u64;
    let (p50, p99) = quantiles(lat.into_iter().flatten().collect());
    ModeReport {
        deposits: n,
        secs,
        deposits_per_sec: n as f64 / secs,
        p50_us: p50,
        p99_us: p99,
    }
}

/// Times fresh-connection first calls: connect (+ handshake when `secure`)
/// + one HealthRequest round trip, one sample per brand-new client.
fn first_call_samples(
    addr: SocketAddr,
    n: usize,
    secure: &Option<Arc<SecureClientSettings>>,
) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let client = TcpClient::with_config(
                addr,
                ClientConfig {
                    secure: secure.clone(),
                    ..ClientConfig::default()
                },
            )
            .into_client();
            let t0 = Instant::now();
            match client.call(&Pdu::HealthRequest).expect("handshake probe") {
                Pdu::HealthResponse { .. } => t0.elapsed().as_micros() as u64,
                other => panic!("unexpected health reply: {other:?}"),
            }
        })
        .collect()
}

fn bench_secure(w: &Workload) -> SecureRow {
    // The deployment is only the transport trust root here (master secret
    // → per-identity signing keys); the warehouse's own device MACs stay
    // the app-layer concern they are in every other mode.
    let dep = Deployment::new(DeploymentConfig::test_default());
    let server_sec = Arc::new(SecureSettings {
        auth: Arc::new(IbsAuth::from_deployment(&dep, ID_MMS)),
        session: SessionConfig::default(),
        handshake_timeout: Duration::from_secs(5),
    });
    let client_sec = Some(Arc::new(SecureClientSettings::new(
        &dep,
        ID_CLIENT,
        Some(ID_MMS),
    )));
    let plain_sec: Option<Arc<SecureClientSettings>> = None;

    let mut devices = Vec::with_capacity(w.clients);
    for i in 0..w.clients {
        devices.push((
            format!("bench-sd-{i}"),
            vec![i as u8 + 1; 32],
            format!("LOAD-SEC-{i}"),
        ));
    }

    let (_mws_p, mut plain_srv) = spawn_secure_warehouse(&devices, w.clients, None);
    let (_mws_s, mut sec_srv) = spawn_secure_warehouse(&devices, w.clients, Some(server_sec));

    let handshakes = if w.smoke { 8 } else { 100 };
    let hs = first_call_samples(sec_srv.local_addr(), handshakes, &client_sec);
    let plain_first = first_call_samples(plain_srv.local_addr(), handshakes, &plain_sec);
    let (hs_p50, hs_p99) = quantiles(hs);
    let (pf_p50, _) = quantiles(plain_first);

    let plain = drive_single_deposits(plain_srv.local_addr(), &devices, w, &plain_sec, 7);
    let secure = drive_single_deposits(sec_srv.local_addr(), &devices, w, &client_sec, 8);

    plain_srv.shutdown();
    sec_srv.shutdown();
    SecureRow {
        handshakes,
        hs_p50_us: hs_p50,
        hs_p99_us: hs_p99,
        plain_first_call_p50_us: pf_p50,
        plain,
        secure,
    }
}

/// Renders the secure row and splices it into `BENCH_server.json` as the
/// `secure` key (idempotently, like the other mode splices).
fn splice_secure_json(r: &SecureRow, w: &Workload) -> String {
    let mut block = String::from("  \"secure\": {\n");
    let _ = writeln!(
        block,
        "    \"clients\": {}, \"per_client\": {},",
        w.clients, w.per_client
    );
    let _ = writeln!(
        block,
        "    \"handshakes\": {}, \"handshake_p50_us\": {}, \"handshake_p99_us\": {}, \"plain_first_call_p50_us\": {},",
        r.handshakes, r.hs_p50_us, r.hs_p99_us, r.plain_first_call_p50_us
    );
    let _ = writeln!(block, "    \"record_overhead_bytes\": {RECORD_OVERHEAD},");
    let mode = |m: &ModeReport| {
        format!(
            "{{ \"deposits\": {}, \"secs\": {:.3}, \"deposits_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {} }}",
            m.deposits, m.secs, m.deposits_per_sec, m.p50_us, m.p99_us
        )
    };
    let _ = writeln!(block, "    \"plain\": {},", mode(&r.plain));
    let _ = writeln!(block, "    \"sealed\": {},", mode(&r.secure));
    let _ = writeln!(
        block,
        "    \"throughput_ratio_sealed_over_plain\": {:.3},\n    \"per_frame_added_us_p50\": {}\n  }}",
        r.secure.deposits_per_sec / r.plain.deposits_per_sec,
        r.secure.p50_us.saturating_sub(r.plain.p50_us)
    );

    splice_section("secure", &block)
}

/// `--secure` entry: handshake latency + sealed-vs-plain throughput.
/// Smoke keeps it tiny with no file output — the transport-security gate
/// `scripts/tier1.sh` runs.
fn run_secure(smoke: bool) {
    let w = if smoke {
        Workload {
            clients: 2,
            per_client: 10,
            batches: 0,
            batch_size: 0,
            smoke: true,
        }
    } else {
        Workload {
            clients: 8,
            per_client: 400,
            batches: 0,
            batch_size: 0,
            smoke: false,
        }
    };
    let row = bench_secure(&w);
    eprintln!(
        "secure: handshake p50 {:>5}µs p99 {:>6}µs over {} fresh conns (plain first call p50 {}µs)",
        row.hs_p50_us, row.hs_p99_us, row.handshakes, row.plain_first_call_p50_us
    );
    eprintln!(
        "secure: single-deposit plain {:>7.0} dep/s (p50 {:>4}µs) vs sealed {:>7.0} dep/s (p50 {:>4}µs)  +{}B/record, +{}µs p50",
        row.plain.deposits_per_sec,
        row.plain.p50_us,
        row.secure.deposits_per_sec,
        row.secure.p50_us,
        RECORD_OVERHEAD,
        row.secure.p50_us.saturating_sub(row.plain.p50_us),
    );
    if smoke {
        eprintln!(
            "load_bench --secure --smoke: every handshake established, every sealed deposit acked"
        );
        return;
    }
    let json = splice_secure_json(&row, &w);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("{json}");
    eprintln!("wrote BENCH_server.json (secure section)");
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--conn-fleet") {
        run_conn_fleet(&argv[2..]);
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().any(|a| a == "--secure") {
        run_secure(smoke);
        return;
    }
    if std::env::args().any(|a| a == "--connections") {
        run_connections(smoke);
        return;
    }
    if std::env::args().any(|a| a == "--rebalance") {
        run_rebalance(smoke);
        return;
    }
    if std::env::args().any(|a| a == "--cluster") {
        run_cluster(smoke);
        return;
    }
    let w = if smoke {
        Workload {
            clients: 2,
            per_client: 10,
            batches: 3,
            batch_size: 4,
            smoke: true,
        }
    } else {
        Workload {
            clients: 16,
            per_client: 400,
            batches: 80,
            batch_size: 8,
            smoke: false,
        }
    };
    let shard_counts: &[usize] = if smoke { &[2] } else { &[1, 4, 16] };

    let base = std::env::temp_dir().join(format!("mws-load-bench-{}", std::process::id()));
    let mut rows = Vec::new();
    for &n in shard_counts {
        let row = bench_shards(n, &base.join(format!("shards-{n}")), &w);
        eprintln!(
            "shards={:>2}  single: {:>8.0} dep/s (p50 {:>5}µs, p99 {:>6}µs)   batch[{}]: {:>8.0} dep/s (p50 {:>5}µs, p99 {:>6}µs)",
            row.shards,
            row.single.deposits_per_sec,
            row.single.p50_us,
            row.single.p99_us,
            w.batch_size,
            row.batch.deposits_per_sec,
            row.batch.p50_us,
            row.batch.p99_us,
        );
        rows.push(row);
    }
    std::fs::remove_dir_all(&base).ok();

    if smoke {
        eprintln!("load_bench --smoke: every deposit acked, retransmission deduped");
        return;
    }

    let json = render_json(&rows, &w);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("{json}");
    if let (Some(hi), Some(lo)) = (
        rows.iter().find(|r| r.shards == 16),
        rows.iter().find(|r| r.shards == 1),
    ) {
        eprintln!(
            "pipeline speedup (16-shard batched vs 1-shard per-deposit): {:.2}x",
            hi.batch.deposits_per_sec / lo.single.deposits_per_sec
        );
    }
    eprintln!("wrote BENCH_server.json");
}
