//! Seed-deterministic chaos suite: the deposit → ticket → key-issue →
//! retrieve flow under injected faults at every layer.
//!
//! Faults are drawn from seeded DRBGs only — the same seed replays the
//! same schedule bit-for-bit, so any failure here reproduces exactly by
//! re-running with `MWS_CHAOS_SEED=<printed seed>`. Every assertion
//! message carries the seed.
//!
//! Invariants exercised across all scenarios:
//!
//! 1. **No acknowledged deposit is ever lost** — an ack implies the
//!    message is durably warehoused, through drops, resets, duplicate
//!    delivery, torn WAL appends, failed fsyncs and daemon restarts.
//! 2. **No message is delivered twice to one RC** — retransmissions and
//!    duplicate frames never create duplicate warehouse rows.
//! 3. **Convergence** — once faults stop, a clean retrieval returns the
//!    exact acked set, and a second retrieval agrees with the first.
//! 4. **Confidentiality under faults** — the warehouse never holds
//!    plaintext, corrupted paths included.

use mws_core::protocol::{Deployment, DeploymentConfig, MwsService};
use mws_net::{BusTransport, Client, FaultConfig, FaultyTransport, NetError};
use mws_server::{
    ChaosConfig, ChaosProxy, ClientConfig, IbsAuth, SecureClientSettings, SecureSettings,
    ServerConfig, TcpClient, TcpServer, ID_CLIENT, ID_MMS,
};
use mws_store::FaultPlan;
use mws_wire::secure::SessionConfig;
use mws_wire::Pdu;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The pinned seed schedule, or the single seed from `MWS_CHAOS_SEED`
/// (how `scripts/chaos.sh` reproduces a failure).
fn seeds() -> Vec<u64> {
    // Honor MWS_LOG during reproduction runs: a pinned seed plus
    // `MWS_LOG=debug` prints every structured event (with trace ids) to
    // stderr alongside the failure.
    mws_obs::init_from_env();
    match std::env::var("MWS_CHAOS_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("MWS_CHAOS_SEED must be an unsigned integer")],
        Err(_) => vec![3, 17, 91],
    }
}

/// Dumps the process-wide metrics registry when a scenario panics (so the
/// snapshot rides along with the failure output), and at the end of any
/// run pinned with `MWS_CHAOS_SEED` (the reproduction workflow): request
/// counts, retry/breaker counters and latency quantiles for the run.
struct StatsDumpGuard {
    scenario: &'static str,
    seed: u64,
}

impl Drop for StatsDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() || std::env::var_os("MWS_CHAOS_SEED").is_some() {
            eprintln!(
                "---- metrics snapshot ({} seed {}) ----\n{}---- end snapshot ----",
                self.scenario,
                self.seed,
                mws_obs::registry().exposition()
            );
        }
    }
}

fn chaos_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mws-chaos-{tag}-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos dir");
    dir
}

/// A TCP client tuned for chaos runs: fast retries, no breaker (the fault
/// schedules intentionally produce long failure bursts).
fn chaos_tcp_client(addr: SocketAddr, seed: u64) -> TcpClient {
    TcpClient::with_config(
        addr,
        ClientConfig {
            request_timeout: Duration::from_millis(500),
            attempts: 3,
            backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 0,
            seed,
            ..ClientConfig::default()
        },
    )
}

/// Sends a frame the test keeps until a reply comes back, up to `calls`
/// times, as a device retransmits a deposit it never saw acked. Every call
/// runs the client's own attempts first.
fn resend(client: &Client, pdu: &Pdu, calls: u32) -> Result<Pdu, NetError> {
    let mut last = NetError::Dropped;
    for _ in 0..calls {
        match client.call(pdu) {
            Ok(reply) => return Ok(reply),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Final-state checks shared by every scenario: the clean retrieval must
/// hold exactly the acked payloads, each message exactly once, and a
/// repeat retrieval must agree (convergence).
fn assert_converged(dep: &mut Deployment, rc_id: &str, pw: &str, acked: &[Vec<u8>], seed: u64) {
    let mut rc = dep.client(rc_id, pw);
    let msgs = rc
        .retrieve_and_decrypt(0)
        .unwrap_or_else(|e| panic!("seed {seed}: clean retrieval failed: {e}"));
    let mut ids: Vec<u64> = msgs.iter().map(|m| m.message_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        msgs.len(),
        "seed {seed}: a message was delivered twice to one RC"
    );
    let mut got: Vec<Vec<u8>> = msgs.iter().map(|m| m.plaintext.clone()).collect();
    let mut want: Vec<Vec<u8>> = acked.to_vec();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "seed {seed}: retrieved plaintexts != acknowledged deposits"
    );
    // Once faults stop the system is stable: a second retrieval agrees.
    let again = rc
        .retrieve_and_decrypt(0)
        .unwrap_or_else(|e| panic!("seed {seed}: repeat retrieval failed: {e}"));
    assert_eq!(
        again.len(),
        msgs.len(),
        "seed {seed}: final state not stable across retrievals"
    );
}

/// The warehouse's stored bytes must never contain a deposit's plaintext,
/// even after the message crossed a faulty path.
fn assert_ciphertext_only(dep: &mut Deployment, rc_id: &str, pw: &str, secret: &[u8], seed: u64) {
    let mut rc = dep.client(rc_id, pw);
    let (_, wire_msgs) = rc
        .retrieve(0)
        .unwrap_or_else(|e| panic!("seed {seed}: wire retrieval failed: {e}"));
    for m in &wire_msgs {
        assert!(
            !m.sealed.windows(secret.len()).any(|w| w == secret),
            "seed {seed}: warehoused bytes contain plaintext"
        );
    }
}

// ---------------------------------------------------------------------------
// Scenario A: lossy bus — drops, duplicate delivery, mid-exchange resets.
// ---------------------------------------------------------------------------

#[test]
fn bus_faults_lose_no_acked_deposit() {
    for seed in seeds() {
        let _dump = StatsDumpGuard {
            scenario: "bus-faults",
            seed,
        };
        let mut dep = Deployment::new(DeploymentConfig {
            seed,
            ..DeploymentConfig::test_default()
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        // The device's path to the warehouse is lossy in every way the
        // fault model knows; the PKG path stays clean (bootstrap).
        let faulty = Arc::new(FaultyTransport::new(
            BusTransport::new(dep.network().clone(), "mws").into_dyn(),
            FaultConfig {
                drop_rate: 0.2,
                duplicate_rate: 0.15,
                reset_rate: 0.15,
                seed,
            },
        ));
        let pkg = dep.network().client("pkg");
        let mut meter = dep
            .device_with("meter-1", Client::from_transport(faulty.clone()), &pkg)
            .unwrap_or_else(|e| panic!("seed {seed}: bootstrap failed: {e}"));
        let wire_before = faulty.metrics();
        let mut acked = Vec::new();
        for i in 0..12 {
            let payload = format!("reading-{i}").into_bytes();
            let id = meter
                .deposit_reliable("A", &payload, 64)
                .unwrap_or_else(|e| panic!("seed {seed}: deposit {i} never acked: {e}"));
            // `None` means a 409: the warehouse holds it, the ack was lost.
            let _ = id;
            acked.push(payload);
        }
        // What the lossy link did during the deposit phase alone, as a
        // snapshot delta rather than hand-subtracted counters.
        let wire = faulty.metrics().delta(&wire_before);
        assert!(
            wire.requests >= acked.len() as u64,
            "seed {seed}: every ack rode at least one delivered request"
        );
        assert!(
            wire.dropped + wire.duplicates + wire.resets > 0,
            "seed {seed}: the schedule at these rates must inject faults"
        );
        assert_eq!(
            dep.mws().message_count(),
            acked.len(),
            "seed {seed}: duplicate frames must not create duplicate rows"
        );
        assert_converged(&mut dep, "rc", "pw", &acked, seed);
        assert_ciphertext_only(&mut dep, "rc", "pw", b"reading-0", seed);
    }
}

// ---------------------------------------------------------------------------
// Scenario B: real sockets through the chaos proxy — stalls, truncation,
// resets between a TcpClient and a live daemon: the server must survive
// mid-frame truncation and stalled writes.
// ---------------------------------------------------------------------------

#[test]
fn tcp_chaos_proxy_loses_no_acked_deposit() {
    for seed in seeds() {
        tcp_chaos_proxy_scenario(seed);
    }
}

fn tcp_chaos_proxy_scenario(seed: u64) {
    {
        let _dump = StatsDumpGuard {
            scenario: "tcp-chaos-proxy",
            seed,
        };
        let mut dep = Deployment::new(DeploymentConfig {
            seed,
            ..DeploymentConfig::test_default()
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        let mms = {
            let service = dep.mws().clone();
            TcpServer::spawn(ServerConfig::default(), || service.as_service()).expect("bind mms")
        };
        let mut proxy = ChaosProxy::spawn(
            mms.local_addr(),
            ChaosConfig {
                stall_rate: 0.1,
                truncate_rate: 0.1,
                reset_rate: 0.1,
                stall: Duration::from_millis(20),
                seed,
            },
        )
        .expect("spawn chaos proxy");
        let pkg = dep.network().client("pkg");
        let mut meter = dep
            .device_with(
                "meter-1",
                chaos_tcp_client(proxy.local_addr(), seed).into_client(),
                &pkg,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: bootstrap failed: {e}"));
        let mut acked = Vec::new();
        for i in 0..10 {
            let payload = format!("tcp-reading-{i}").into_bytes();
            meter
                .deposit_reliable("A", &payload, 64)
                .unwrap_or_else(|e| panic!("seed {seed}: deposit {i} never acked: {e}"));
            acked.push(payload);
        }
        assert_eq!(
            dep.mws().message_count(),
            acked.len(),
            "seed {seed}: retransmissions must not create duplicate rows"
        );
        assert_converged(&mut dep, "rc", "pw", &acked, seed);
        proxy.shutdown();
        drop(mms);
    }
}

// ---------------------------------------------------------------------------
// Scenario S: secure sessions through the chaos proxy — the IBS-authenticated
// handshake and the AES-GCM record stream (DESIGN.md §12) under truncation,
// resets and stalls. Faults land anywhere, including inside
// the three-message handshake itself (a truncated HELLO/ACCEPT/FINISH must
// surface as a clean transport error the client retries through, never a
// hang or a half-established session), and a tiny rekey interval forces
// mid-session key ratchets between the faults.
// ---------------------------------------------------------------------------

#[test]
fn secure_session_chaos_loses_no_acked_deposit() {
    for seed in seeds() {
        secure_chaos_scenario(seed);
    }
}

fn secure_chaos_scenario(seed: u64) {
    let _dump = StatsDumpGuard {
        scenario: "secure-chaos",
        seed,
    };
    let mut dep = Deployment::new(DeploymentConfig {
        seed,
        ..DeploymentConfig::test_default()
    });
    dep.register_device("meter-1");
    dep.register_client("rc", "pw", &["A"]);
    // rekey_every=4 makes every multi-deposit session ratchet its keys
    // several times mid-run; both sides must stay in lockstep across
    // retransmissions and reconnects.
    let session = SessionConfig { rekey_every: 4 };
    let service = dep.mws().clone();
    let mms = TcpServer::spawn(
        ServerConfig {
            secure: Some(Arc::new(SecureSettings {
                auth: Arc::new(IbsAuth::from_deployment(&dep, ID_MMS)),
                session: session.clone(),
                handshake_timeout: Duration::from_secs(2),
            })),
            ..ServerConfig::default()
        },
        || service.as_service(),
    )
    .expect("bind mms");
    let mut proxy = ChaosProxy::spawn(
        mms.local_addr(),
        ChaosConfig {
            stall_rate: 0.1,
            truncate_rate: 0.1,
            reset_rate: 0.1,
            stall: Duration::from_millis(20),
            seed,
        },
    )
    .expect("spawn chaos proxy");
    let device_link = TcpClient::with_config(
        proxy.local_addr(),
        ClientConfig {
            request_timeout: Duration::from_millis(500),
            attempts: 3,
            backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 0,
            seed,
            secure: Some(Arc::new(SecureClientSettings {
                auth: Arc::new(IbsAuth::from_deployment(&dep, ID_CLIENT)),
                expect_peer: Some(ID_MMS.into()),
                session,
            })),
            ..ClientConfig::default()
        },
    )
    .into_client();
    let pkg = dep.network().client("pkg");
    let mut meter = dep
        .device_with("meter-1", device_link, &pkg)
        .unwrap_or_else(|e| panic!("seed {seed}: secure bootstrap failed: {e}"));
    let mut acked = Vec::new();
    for i in 0..10 {
        let payload = format!("secure-reading-{i}").into_bytes();
        meter
            .deposit_reliable("A", &payload, 64)
            .unwrap_or_else(|e| panic!("seed {seed}: secure deposit {i} never acked: {e}"));
        acked.push(payload);
    }
    assert_eq!(
        dep.mws().message_count(),
        acked.len(),
        "seed {seed}: retransmissions over secure sessions must not duplicate rows"
    );
    assert_converged(&mut dep, "rc", "pw", &acked, seed);
    assert_ciphertext_only(&mut dep, "rc", "pw", b"secure-reading-0", seed);
    proxy.shutdown();
    drop(mms);
}

// ---------------------------------------------------------------------------
// Scenario C: storage faults — failed appends, torn WAL appends and fsync
// errors under a durable deployment, with recovery on reopen.
// ---------------------------------------------------------------------------

#[test]
fn store_faults_fail_closed_and_recover_on_reopen() {
    for seed in seeds() {
        let _dump = StatsDumpGuard {
            scenario: "store-faults",
            seed,
        };
        let dir = chaos_dir("store", seed);
        let plan = FaultPlan::default();
        let config = DeploymentConfig {
            seed,
            storage_dir: Some(dir.clone()),
            message_store_faults: Some(plan.clone()),
            ..DeploymentConfig::test_default()
        };
        let mut acked = Vec::new();
        {
            let mut dep = Deployment::new(config.clone());
            dep.register_device("meter-1");
            dep.register_client("rc", "pw", &["A"]);
            let mut meter = dep.device("meter-1");
            // Schedule one of each storage fault across the next deposits:
            // a clean failure, a torn (partially written) append, and a
            // failed fsync. Every one must surface as a 500 the device
            // retries through — never as a lost ack.
            let base = plan.appends();
            plan.fail_append(base);
            plan.tear_append(base + 2);
            let sync_base = plan.syncs();
            plan.fail_sync(sync_base + 3);
            for i in 0..6 {
                let payload = format!("durable-{i}").into_bytes();
                meter
                    .deposit_reliable("A", &payload, 16)
                    .unwrap_or_else(|e| panic!("seed {seed}: deposit {i} never acked: {e}"));
                acked.push(payload);
            }
            assert_eq!(
                dep.mws().message_count(),
                acked.len(),
                "seed {seed}: retries through 500s must not duplicate rows"
            );
            assert_converged(&mut dep, "rc", "pw", &acked, seed);
        }
        // Crash-restart: reopen the same WALs with the same provisioning
        // sequence. Torn appends must have been discarded, acked rows kept.
        let mut dep = Deployment::new(DeploymentConfig {
            message_store_faults: None,
            ..config
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        assert_eq!(
            dep.mws().message_count(),
            acked.len(),
            "seed {seed}: reopen lost acked deposits (or resurrected torn ones)"
        );
        assert_converged(&mut dep, "rc", "pw", &acked, seed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Scenario D: the combined schedule — daemon kill/restart mid-flow, with
// transport drops AND a torn WAL append in the same run.
// ---------------------------------------------------------------------------

/// Minimal supervisor: owns the MMS daemon's port, kills it mid-flow and
/// restarts a fresh daemon (new process state, same address) on demand.
struct Supervisor {
    addr: SocketAddr,
    server: Option<TcpServer>,
}

impl Supervisor {
    fn start(service: MwsService) -> Self {
        let server =
            TcpServer::spawn(ServerConfig::default(), || service.as_service()).expect("bind mms");
        Self {
            addr: server.local_addr(),
            server: Some(server),
        }
    }

    /// SIGKILL equivalent: tears the daemon down, connections and all.
    fn kill(&mut self) {
        if let Some(mut s) = self.server.take() {
            s.shutdown();
        }
    }

    /// Brings a restarted daemon up on the same address (retrying while
    /// the OS releases the port).
    fn restart(&mut self, service: MwsService) {
        assert!(self.server.is_none(), "kill before restart");
        for _ in 0..100 {
            let svc = service.clone();
            match TcpServer::spawn(ServerConfig::listen(&self.addr.to_string()), || {
                svc.as_service()
            }) {
                Ok(s) => {
                    self.server = Some(s);
                    return;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("port {} never came back", self.addr);
    }
}

#[test]
fn daemon_restart_with_drops_and_torn_append_converges() {
    for seed in seeds() {
        let _dump = StatsDumpGuard {
            scenario: "daemon-restart",
            seed,
        };
        let dir = chaos_dir("restart", seed);
        let plan = FaultPlan::default();
        let config = DeploymentConfig {
            seed,
            storage_dir: Some(dir.clone()),
            message_store_faults: Some(plan.clone()),
            ..DeploymentConfig::test_default()
        };
        let drops = FaultConfig {
            drop_rate: 0.25,
            seed,
            ..FaultConfig::default()
        };
        let mut acked: Vec<Vec<u8>> = Vec::new();
        let (saved_frame, saved_id, pre_kill_composes);
        let mut supervisor;
        {
            let mut dep = Deployment::new(config.clone());
            dep.register_device("meter-1");
            dep.register_client("rc", "pw", &["A"]);
            supervisor = Supervisor::start(dep.mws().clone());
            // Transport: real TCP to the daemon, wrapped in seeded drops.
            let lossy = FaultyTransport::new(
                Arc::new(chaos_tcp_client(supervisor.addr, seed)),
                drops.clone(),
            );
            let pkg = dep.network().client("pkg");
            let mut meter = dep
                .device_with("meter-1", Client::from_transport(lossy.into_dyn()), &pkg)
                .unwrap_or_else(|e| panic!("seed {seed}: bootstrap failed: {e}"));
            // One torn WAL append lands mid-schedule.
            plan.tear_append(plan.appends() + 1);
            for i in 0..4 {
                let payload = format!("pre-kill-{i}").into_bytes();
                meter
                    .deposit_reliable("A", &payload, 64)
                    .unwrap_or_else(|e| panic!("seed {seed}: deposit {i} never acked: {e}"));
                acked.push(payload);
            }
            // One deposit whose exact frame we keep: after the restart the
            // device may retransmit it (it never saw the ack, say).
            let pdu = meter.compose_deposit("A", b"pre-kill-held");
            let clean = chaos_tcp_client(supervisor.addr, seed).into_client();
            let id = match resend(&clean, &pdu, 16)
                .unwrap_or_else(|e| panic!("seed {seed}: held deposit failed: {e}"))
            {
                Pdu::DepositAck { message_id } => message_id,
                other => panic!("seed {seed}: expected ack, got {other:?}"),
            };
            acked.push(b"pre-kill-held".to_vec());
            saved_frame = pdu;
            saved_id = id;
            pre_kill_composes = 5; // 4 reliable deposits + 1 held frame
                                   // Kill the daemon mid-flow and drop the whole first process
                                   // state (replay guard, caches — everything in memory).
            supervisor.kill();
        }
        // ---- restart: same seed, same storage, fresh process ----
        let mut dep = Deployment::new(DeploymentConfig {
            message_store_faults: None,
            ..config
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        assert_eq!(
            dep.mws().message_count(),
            acked.len(),
            "seed {seed}: restart lost acked deposits"
        );
        supervisor.restart(dep.mws().clone());
        // The device retransmits the held frame. The restarted warehouse
        // has no replay cache, but the origin index (rebuilt from the WAL)
        // answers with the ORIGINAL id instead of storing a second copy.
        let clean = chaos_tcp_client(supervisor.addr, seed).into_client();
        match resend(&clean, &saved_frame, 16)
            .unwrap_or_else(|e| panic!("seed {seed}: post-restart resend failed: {e}"))
        {
            Pdu::DepositAck { message_id } => assert_eq!(
                message_id, saved_id,
                "seed {seed}: resend after restart must dedup to the original id"
            ),
            other => panic!("seed {seed}: expected idempotent ack, got {other:?}"),
        }
        // The same physical device carries on: fast-forward its nonce
        // stream past the deposits it already sent, then keep depositing
        // through the lossy link.
        let lossy = FaultyTransport::new(Arc::new(chaos_tcp_client(supervisor.addr, seed)), drops);
        let pkg = dep.network().client("pkg");
        let mut meter = dep
            .device_with("meter-1", Client::from_transport(lossy.into_dyn()), &pkg)
            .unwrap_or_else(|e| panic!("seed {seed}: post-restart bootstrap failed: {e}"));
        for _ in 0..pre_kill_composes {
            let _ = meter.compose_deposit("A", b"nonce-fast-forward");
        }
        for i in 0..3 {
            let payload = format!("post-restart-{i}").into_bytes();
            meter
                .deposit_reliable("A", &payload, 64)
                .unwrap_or_else(|e| panic!("seed {seed}: post-restart deposit {i}: {e}"));
            acked.push(payload);
        }
        assert_eq!(
            dep.mws().message_count(),
            acked.len(),
            "seed {seed}: duplicates after restart"
        );
        assert_converged(&mut dep, "rc", "pw", &acked, seed);
        assert_ciphertext_only(&mut dep, "rc", "pw", b"pre-kill-held", seed);
        supervisor.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Scenario F: per-shard recovery isolation — a torn WAL append on shard 1
// while one DepositBatch carries items for shards 0 AND 1. The shard-0
// half of the batch must land durably, the shard-1 half must fail closed
// (no nonce recorded, honest retransmission accepted), and a restart must
// recover each shard independently.
// ---------------------------------------------------------------------------

#[test]
fn torn_batch_on_one_shard_leaves_the_other_shard_untouched() {
    use mws_store::ShardRouter;
    use mws_wire::DepositOutcome;

    /// Mines an attribute string the 2-way router sends to `shard`.
    fn attr_on_shard(router: &ShardRouter, shard: usize, tag: &str) -> String {
        (0u32..)
            .map(|salt| format!("{tag}-{salt}"))
            .find(|a| router.route(a) == shard)
            .expect("router covers both residues")
    }

    for seed in seeds() {
        let _dump = StatsDumpGuard {
            scenario: "torn-shard-batch",
            seed,
        };
        let dir = chaos_dir("shard-batch", seed);
        let plan = FaultPlan::default();
        let config = DeploymentConfig {
            seed,
            storage_dir: Some(dir.clone()),
            message_shards: 2,
            // The fault plan rides ONLY on shard 1's WAL; shard 0 is clean.
            message_shard_faults: vec![(1, plan.clone())],
            ..DeploymentConfig::test_default()
        };
        let router = ShardRouter::new(2);
        let attr0 = attr_on_shard(&router, 0, "CHAOS-S0");
        let attr1 = attr_on_shard(&router, 1, "CHAOS-S1");
        let mut acked: Vec<Vec<u8>> = Vec::new();
        {
            let mut dep = Deployment::new(config.clone());
            dep.register_device("meter-1");
            dep.register_client("rc", "pw", &[&attr0, &attr1]);
            let mut meter = dep.device("meter-1");

            // A clean cross-shard batch first: both shards take one group
            // commit, which also advances shard 1's append counter.
            let outcomes = meter
                .deposit_batch(&[(&attr0, b"clean-0".as_slice()), (&attr1, b"clean-1")])
                .unwrap_or_else(|e| panic!("seed {seed}: clean batch failed: {e}"));
            assert!(
                outcomes.iter().all(|o| o.status == DepositOutcome::STORED),
                "seed {seed}: clean batch must store on both shards"
            );
            acked.push(b"clean-0".to_vec());
            acked.push(b"clean-1".to_vec());

            // Tear shard 1's NEXT append mid-write, then send one batch
            // whose items split across both shards.
            plan.tear_append(plan.appends());
            let pdu = meter
                .compose_deposit_batch(&[(&attr0, b"split-0".as_slice()), (&attr1, b"split-1")]);
            let mws = dep.network().client("mws");
            let results = match mws.call(&pdu) {
                Ok(Pdu::DepositBatchAck { results }) => results,
                other => panic!("seed {seed}: batch not acked: {other:?}"),
            };
            assert_eq!(
                results[0].status,
                DepositOutcome::STORED,
                "seed {seed}: shard 0 item must commit despite shard 1's torn append"
            );
            assert_eq!(
                results[1].status,
                DepositOutcome::STORAGE_ERROR,
                "seed {seed}: shard 1 item must fail closed on the torn append"
            );
            acked.push(b"split-0".to_vec());

            // Honest retransmission of the identical frame: the stored
            // item answers REPLAY (nonce recorded after durability), the
            // failed item's nonce was never recorded, so it stores now.
            let results = match mws.call(&pdu) {
                Ok(Pdu::DepositBatchAck { results }) => results,
                other => panic!("seed {seed}: resend not acked: {other:?}"),
            };
            assert_eq!(
                results[0].status,
                DepositOutcome::REPLAY,
                "seed {seed}: resending a stored item must not store twice"
            );
            assert_eq!(
                results[1].status,
                DepositOutcome::STORED,
                "seed {seed}: the failed item's retransmission must be accepted"
            );
            acked.push(b"split-1".to_vec());

            assert_eq!(
                dep.mws().message_count(),
                acked.len(),
                "seed {seed}: exactly the acked items are warehoused"
            );
            assert_converged(&mut dep, "rc", "pw", &acked, seed);
        }
        // Crash-restart over the same shard WALs, faults off: shard 1's
        // torn frame must be discarded by ITS recovery alone, shard 0's
        // rows must be untouched, and the union must be the acked set.
        let mut dep = Deployment::new(DeploymentConfig {
            message_shard_faults: Vec::new(),
            ..config
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &[&attr0, &attr1]);
        assert_eq!(
            dep.mws().message_count(),
            acked.len(),
            "seed {seed}: reopen lost acked rows (or resurrected the torn batch)"
        );
        let store = dep.mws().store_handle();
        assert_eq!(
            store.shard_len(0),
            2,
            "seed {seed}: shard 0 must recover exactly its two rows"
        );
        assert_eq!(
            store.shard_len(1),
            2,
            "seed {seed}: shard 1 must recover exactly its two rows"
        );
        assert_converged(&mut dep, "rc", "pw", &acked, seed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Scenario E: health/readiness PDUs served by all three daemons, and the
// circuit breaker protecting a client from a dead one.
// ---------------------------------------------------------------------------

#[test]
fn all_three_daemons_answer_health_over_tcp() {
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    dep.register_client("rc", "pw", &["A"]);
    let mms = {
        let service = dep.mws().clone();
        TcpServer::spawn(ServerConfig::default(), || service.as_service()).expect("bind mms")
    };
    let pkg = {
        let service = dep.pkg().clone();
        TcpServer::spawn(ServerConfig::default(), || service.as_service()).expect("bind pkg")
    };
    let gatekeeper = {
        let upstream = TcpClient::new(mms.local_addr()).into_client();
        let front = mws_server::GatekeeperFrontdoor::new(
            dep.clock().clone(),
            mws_core::clock::ReplayPolicy::standard(),
            upstream,
        );
        TcpServer::spawn(ServerConfig::default(), || front.as_service()).expect("bind gatekeeper")
    };
    for (server, role) in [(&mms, "mms"), (&pkg, "pkg"), (&gatekeeper, "gatekeeper")] {
        let client = TcpClient::new(server.local_addr()).into_client();
        match client.call(&Pdu::HealthRequest).unwrap() {
            Pdu::HealthResponse {
                role: got, ready, ..
            } => {
                assert_eq!(got, role);
                assert!(ready, "{role} must report ready");
            }
            other => panic!("{role}: unexpected health reply {other:?}"),
        }
    }
    drop((mms, pkg, gatekeeper));
}

#[test]
fn circuit_breaker_fails_fast_then_recovers_when_daemon_returns() {
    for seed in seeds() {
        let _dump = StatsDumpGuard {
            scenario: "circuit-breaker",
            seed,
        };
        // A daemon that exists, dies, and comes back; the client's breaker
        // must fail fast while it is down and heal afterwards.
        let dep = Deployment::new(DeploymentConfig {
            seed,
            ..DeploymentConfig::test_default()
        });
        let mut supervisor = Supervisor::start(dep.mws().clone());
        let client = TcpClient::with_config(
            supervisor.addr,
            ClientConfig {
                request_timeout: Duration::from_millis(200),
                attempts: 1,
                backoff: Duration::from_millis(2),
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(30),
                seed,
                ..ClientConfig::default()
            },
        )
        .into_client();
        assert!(client.call(&Pdu::HealthRequest).is_ok());
        supervisor.kill();
        // Consecutive failures trip the breaker...
        let mut saw_circuit_open = false;
        for _ in 0..20 {
            match client.call(&Pdu::HealthRequest) {
                Err(NetError::CircuitOpen) => {
                    saw_circuit_open = true;
                    break;
                }
                Err(_) => {}
                Ok(_) => panic!("seed {seed}: dead daemon answered"),
            }
        }
        assert!(saw_circuit_open, "seed {seed}: breaker never opened");
        // ...the daemon returns, and within a bounded number of half-open
        // probes the client is healthy again.
        supervisor.restart(dep.mws().clone());
        let recovered = (0..200).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            client.call(&Pdu::HealthRequest).is_ok()
        });
        assert!(recovered, "seed {seed}: breaker never closed again");
        supervisor.kill();
    }
}

// ---------------------------------------------------------------------------
// Scenario L: kill-mid-burst at high connection count — an event-loop
// warehouse holding a large idle fleet is torn down while a device is
// mid-burst through the chaos proxy. Every acknowledged deposit must be
// warehoused, shutdown must join every thread with hundreds of
// connections open, and every idle socket must observe the close.
// ---------------------------------------------------------------------------

#[test]
fn event_core_kill_mid_burst_with_idle_fleet_loses_no_acked_deposit() {
    use std::io::Read as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const IDLE_FLEET: usize = 500;
    for seed in seeds() {
        let _dump = StatsDumpGuard {
            scenario: "event-kill-mid-burst",
            seed,
        };
        let mut dep = Deployment::new(DeploymentConfig {
            seed,
            ..DeploymentConfig::test_default()
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        let service = dep.mws().clone();
        let mut mms = TcpServer::spawn(
            ServerConfig {
                workers: 2,
                read_poll: Duration::from_millis(5),
                ..ServerConfig::default()
            },
            || service.as_service(),
        )
        .expect("bind mms");
        let addr = mms.local_addr();

        // The mostly-idle fleet: hundreds of devices connected and silent.
        let idle: Vec<std::net::TcpStream> = (0..IDLE_FLEET)
            .map(|_| std::net::TcpStream::connect(addr).expect("idle connect"))
            .collect();

        // One device bursts deposits through stalls and mid-frame
        // truncation while the fleet sits on the same event loop.
        let mut proxy = ChaosProxy::spawn(
            addr,
            ChaosConfig {
                stall_rate: 0.1,
                truncate_rate: 0.1,
                reset_rate: 0.05,
                stall: Duration::from_millis(10),
                seed,
            },
        )
        .expect("spawn chaos proxy");
        let pkg = dep.network().client("pkg");
        let mut meter = dep
            .device_with(
                "meter-1",
                chaos_tcp_client(proxy.local_addr(), seed).into_client(),
                &pkg,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: bootstrap failed: {e}"));

        let acked = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let acked_final = std::thread::scope(|scope| {
            let burst_acked = acked.clone();
            let burst_stop = stop.clone();
            let burster = scope.spawn(move || {
                for i in 0u64.. {
                    if burst_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let payload = format!("burst-{i}").into_bytes();
                    match meter.deposit_reliable("A", &payload, 10) {
                        Ok(_) => {
                            burst_acked.fetch_add(1, Ordering::Relaxed);
                        }
                        // The kill landed under this deposit: no ack, so no
                        // durability claim to check for it. Stop bursting.
                        Err(_) => break,
                    }
                }
            });
            // Let the burst make progress, then kill the daemon mid-flight
            // with the whole fleet still connected. Shutdown itself is the
            // assertion that every loop/worker thread joins while hundreds
            // of connections are open and frames are in the pipe.
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while acked.load(Ordering::Relaxed) < 5 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(
                acked.load(Ordering::Relaxed) >= 5,
                "seed {seed}: burst never got going through the chaos proxy"
            );
            mms.shutdown();
            stop.store(true, Ordering::Relaxed);
            burster.join().expect("burster thread");
            acked.load(Ordering::Relaxed)
        });

        // No acked deposit may be lost in the kill. (The count can exceed
        // `acked_final` — a deposit stored whose ack died in the proxy is
        // warehoused but unacknowledged, which is the safe direction.)
        assert!(
            dep.mws().message_count() as u64 >= acked_final,
            "seed {seed}: kill lost acked deposits ({} warehoused < {acked_final} acked)",
            dep.mws().message_count()
        );

        // Teardown really closed the fleet: every idle socket sees EOF (or
        // a reset), never a hang.
        for mut s in idle {
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("idle read timeout");
            let mut buf = [0u8; 1];
            match s.read(&mut buf) {
                Ok(0) => {}
                Ok(_) => panic!("seed {seed}: idle connection received bytes at teardown"),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    panic!("seed {seed}: teardown left an idle connection open")
                }
                // A reset is a legitimate close observation (unread FIN
                // queue data, RST-on-close).
                Err(_) => {}
            }
        }
        proxy.shutdown();
    }
}
