//! The layer ladder: seeded inputs pushed through one public function per
//! rung, on one thread, from outside the program. Each rung reports the
//! median of its calls; rungs that go through the registry report interval
//! means (see `registry`). The ladder does not depend on which workload
//! the traced run drove, except for the request frame the codec rungs use.
//!
//! The deposit rungs climb the same request through the layers —
//! `store.deposit_mem_us` ≤ `core.handle_deposit_us` ≤ `net.bus_call_us` ≤
//! `server.deposit_us` — so the difference between neighbours is what the
//! upper layer adds.

use crate::inputs::{Depositor, Inputs};
use crate::registry::Snapshot;
use crate::run::Metric;
use crate::trace::Tracer;
use crate::workloads::{
    connect, sealed_settings, spawn_server, warehouse, Cluster, CollectSite, PAGE, READING_LEN,
    REPLICAS,
};
use mws_bigint::{random_bits, Mont, Uint};
use mws_core::device::deposit_aad;
use mws_core::sda::deposit_auth_bytes;
use mws_crypto::{gcm_open, gcm_seal, Aes128, Hmac, HmacDrbg, RsaKeyPair, Sha256};
use mws_ibe::{CipherAlgo, IbeSystem};
use mws_net::{Network, Service as _};
use mws_pairing::SecurityLevel;
use mws_store::{shard_kinds, PendingDeposit, ShardedMessageDb, StorageKind};
use mws_wire::secure::{Handshaker, PskAuth, SecureSession, SessionConfig, RECORD_HEADER};
use mws_wire::{encode_envelope, ChannelAuth, Opened, Pdu, StreamDecoder};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls per rung: microsecond-scale calls, and millisecond-scale ones.
const CALLS: usize = 2000;
const SLOW_CALLS: usize = 200;
/// Fresh sealed connections timed for `server.secure_handshake_us`.
const HANDSHAKES: usize = 50;
/// Collect cycles timed for the `core.*` read-path rungs.
const CYCLES: usize = 100;

/// Nanoseconds `f` took, and what it returned.
fn clock<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_nanos() as u64, out)
}

/// Median of `calls` individually timed calls; `call` returns the
/// nanoseconds of the part it wants measured.
fn median_ns(calls: usize, mut call: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let mut ns = (0..calls)
        .map(|_| call())
        .collect::<Result<Vec<u64>, _>>()?;
    ns.sort_unstable();
    Ok(crate::stats::quantile_sorted(&ns, 0.5) as f64)
}

/// Median of `SLOW_CALLS` calls of a millisecond-scale `f`.
fn slow<R>(mut f: impl FnMut() -> R) -> Result<f64, String> {
    median_ns(SLOW_CALLS, || Ok(clock(|| black_box(f())).0))
}

/// Median per-call nanoseconds for calls too short to time one by one:
/// `CALLS` calls in batches of `per`.
fn median_ns_batched(per: usize, mut f: impl FnMut()) -> f64 {
    let batch = || {
        let (ns, ()) = clock(|| (0..per).for_each(|_| f()));
        Ok(ns / per as u64)
    };
    median_ns(CALLS / per, batch).expect("infallible")
}

fn expect_ack(reply: Result<Pdu, impl std::fmt::Debug>) -> Result<(), String> {
    match reply {
        Ok(Pdu::DepositAck { .. }) => Ok(()),
        other => Err(format!("ladder deposit not acknowledged: {other:?}")),
    }
}

struct Rungs<'a> {
    out: &'a mut Vec<Metric>,
}

impl Rungs<'_> {
    fn ns(&mut self, name: &str, ns: f64, samples: usize) {
        self.out.push(Metric::new(name, ns, "ns", samples as u64));
    }

    fn us(&mut self, name: &str, ns: f64, samples: usize) {
        self.out
            .push(Metric::new(name, ns / 1e3, "us", samples as u64));
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.out
            .push(Metric::new(name, value, unit, samples as u64));
    }

    fn get(&self, name: &str) -> f64 {
        let found = self.out.iter().find(|m| m.name == name);
        found.expect("rung measured earlier").value
    }
}

/// Runs every rung and appends its metric to `out`.
pub fn climb(
    seed: u64,
    request: &Pdu,
    data_dir: &Path,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut inputs = Inputs::new(seed ^ 0x1adde2);
    let mut rng = HmacDrbg::new(&inputs.bytes(32), b"mws-benchmark ladder");
    let mut rungs = Rungs { out };
    obs(&mut rungs);
    bigint(&mut rng, &mut rungs);
    crypto(&mut inputs, &mut rng, &mut rungs)?;
    pairing_and_ibe(&mut inputs, &mut rng, &mut rungs)?;
    wire(request, &mut inputs, &mut rungs)?;
    store(&mut inputs, data_dir, &mut rungs)?;
    deposit_path(&mut inputs, &mut rungs)?;
    collect_path(&mut inputs, &mut rungs)
}

fn obs(rungs: &mut Rungs) {
    let histogram = mws_obs::registry().histogram("mws_benchmark_ladder_us");
    let ns = median_ns_batched(100, || histogram.record(black_box(1729)));
    rungs.ns("obs.histogram_record_ns", ns, CALLS);
    let ns = median_ns_batched(100, || {
        black_box(mws_obs::trace::enter(mws_obs::trace::mint()));
    });
    rungs.ns("obs.span_enter_ns", ns, CALLS);
}

/// An odd modulus of exactly `bits` bits and two residues below it.
fn modulus_and_residues<const L: usize>(rng: &mut HmacDrbg, bits: u32) -> [Uint<L>; 3] {
    let mut n: Uint<L> = random_bits(rng, bits);
    n.set_bit(bits - 1, true);
    n.set_bit(0, true);
    [n, random_bits(rng, bits - 1), random_bits(rng, bits - 1)]
}

fn bigint(rng: &mut HmacDrbg, rungs: &mut Rungs) {
    let [n, a, b] = modulus_and_residues::<4>(rng, 256);
    let mont = Mont::new(&n).expect("odd modulus");
    let (mut x, y) = (mont.to_mont(&a), mont.to_mont(&b));
    let ns = median_ns_batched(100, || x = mont.mont_mul(black_box(&x), &y));
    black_box(x);
    rungs.ns("bigint.mont_mul_ns", ns, CALLS);

    let [n, base, exp] = modulus_and_residues::<8>(rng, 512);
    let mont = Mont::new(&n).expect("odd modulus");
    let ns = median_ns(SLOW_CALLS, || {
        Ok(clock(|| black_box(mont.pow(black_box(&base), &exp))).0)
    });
    rungs.us("bigint.modexp_us", ns.expect("infallible"), SLOW_CALLS);
}

fn crypto(inputs: &mut Inputs, rng: &mut HmacDrbg, rungs: &mut Rungs) -> Result<(), String> {
    let cipher = Aes128::new(&inputs.bytes(16)).expect("16-byte key");
    let (iv, aad) = (inputs.bytes(12), inputs.bytes(6));
    for len in [64usize, 1024, 16384] {
        let plaintext = inputs.bytes(len);
        let calls = if len > 4096 { SLOW_CALLS } else { CALLS };
        let ns = median_ns(calls, || {
            Ok(clock(|| black_box(gcm_seal(&cipher, &iv, &aad, black_box(&plaintext)))).0)
        })?;
        let name = format!("crypto.gcm_seal_ns_per_byte.{len}");
        rungs.put(&name, ns / len as f64, "ns/B", calls);
        if len == 1024 {
            let sealed = gcm_seal(&cipher, &iv, &aad, &plaintext).expect("seal");
            let ns = median_ns(CALLS, || {
                let (ns, opened) = clock(|| gcm_open(&cipher, &iv, &aad, black_box(&sealed)));
                opened.map(|_| ns).map_err(|e| format!("gcm_open: {e}"))
            })?;
            rungs.put(
                "crypto.gcm_open_ns_per_byte.1024",
                ns / len as f64,
                "ns/B",
                CALLS,
            );
        }
    }

    // The bytes a plain deposit's MAC covers: 32 B `u`, 64 B body, header.
    let mac_key = inputs.bytes(32);
    let body = deposit_auth_bytes(
        &inputs.bytes(32),
        &inputs.bytes(64),
        &inputs.id("ATTR"),
        &inputs.bytes(16),
        &inputs.id("sd"),
        0,
    );
    let ns = median_ns(CALLS, || {
        Ok(clock(|| black_box(Hmac::<Sha256>::mac(&mac_key, black_box(&body)))).0)
    })?;
    rungs.ns("crypto.hmac_sha256_ns", ns, CALLS);

    // The receiving client's token: 512-bit RSA, as the deployments use.
    let rsa = RsaKeyPair::generate(rng, 512).map_err(|e| format!("rsa keygen: {e}"))?;
    let sealed = rsa
        .public
        .encrypt_pkcs1(rng, &inputs.bytes(32))
        .map_err(|e| format!("rsa encrypt: {e}"))?;
    let ns = median_ns(SLOW_CALLS, || {
        let (ns, opened) = clock(|| rsa.private.decrypt_pkcs1(black_box(&sealed)));
        opened.map(|_| ns).map_err(|e| format!("rsa decrypt: {e}"))
    })?;
    rungs.us("crypto.rsa_decrypt_us", ns, SLOW_CALLS);
    Ok(())
}

fn pairing_and_ibe(
    inputs: &mut Inputs,
    rng: &mut HmacDrbg,
    rungs: &mut Rungs,
) -> Result<(), String> {
    // Light: the level the `collect` workload deploys.
    let ibe = IbeSystem::named(SecurityLevel::Light);
    let ctx = ibe.pairing();
    let (msk, mpk) = ibe.setup(rng);
    ctx.warm_caches();
    mpk.prepared(ctx);
    let (attribute, nonce, sd) = (inputs.id("ATTR"), inputs.bytes(16), inputs.id("sd"));
    let point = ibe.attribute_point(&attribute, &nonce);
    let scalar = ctx.random_scalar(rng);

    let ns = slow(|| ctx.pairing(black_box(&point), mpk.point()))?;
    rungs.us("pairing.pairing_us", ns, SLOW_CALLS);
    let ns = slow(|| ctx.pairing_with(mpk.prepared(ctx), black_box(&point)))?;
    rungs.us("pairing.prepared_us", ns, SLOW_CALLS);
    let ns = slow(|| ctx.mul(black_box(&point), &scalar))?;
    rungs.us("pairing.point_mul_us", ns, SLOW_CALLS);
    let ns = slow(|| ctx.hash_to_point(black_box(&nonce)))?;
    rungs.us("pairing.map_to_point_us", ns, SLOW_CALLS);

    let ns = slow(|| ibe.extract(&msk, black_box(sd.as_bytes())))?;
    rungs.us("ibe.extract_us", ns, SLOW_CALLS);
    let (reading, aad) = (
        inputs.bytes(READING_LEN),
        deposit_aad(&attribute, &nonce, &sd, 1),
    );
    let encrypt = |rng: &mut HmacDrbg| {
        ibe.encrypt_attr(
            rng,
            &mpk,
            &attribute,
            &nonce,
            CipherAlgo::Aes128,
            &aad,
            &reading,
        )
    };
    let ns = slow(|| encrypt(rng))?;
    rungs.us("ibe.encrypt_attr_us", ns, SLOW_CALLS);
    let (sealed, key) = (encrypt(rng), ibe.extract_point(&msk, &point));
    let ns = median_ns(SLOW_CALLS, || {
        let (ns, opened) = clock(|| ibe.decrypt_attr(&key, black_box(&sealed), &aad));
        match opened {
            Ok(plaintext) if plaintext == reading => Ok(ns),
            other => Err(format!("ladder decrypt_attr: {other:?}")),
        }
    })?;
    rungs.us("ibe.decrypt_attr_us", ns, SLOW_CALLS);

    // Toy: the level of the sealed transport's trust root, whose handshake
    // signs once and verifies once on each side.
    let ibe = IbeSystem::named(SecurityLevel::Toy);
    let (msk, mpk) = ibe.setup(rng);
    ibe.pairing().warm_caches();
    mpk.prepared(ibe.pairing());
    let (identity, transcript) = (b"mws/mms".as_slice(), inputs.bytes(32));
    let key = ibe.extract(&msk, identity);
    let ns = slow(|| ibe.ibs_sign(rng, identity, &key, &transcript))?;
    rungs.us("ibe.ibs_sign_us", ns, SLOW_CALLS);
    let signature = ibe.ibs_sign(rng, identity, &key, &transcript);
    let ns = median_ns(SLOW_CALLS, || {
        let (ns, verdict) = clock(|| ibe.ibs_verify(&mpk, identity, &transcript, &signature));
        verdict
            .map(|()| ns)
            .map_err(|e| format!("ladder ibs_verify: {e}"))
    })?;
    rungs.us("ibe.ibs_verify_us", ns, SLOW_CALLS);
    Ok(())
}

/// Two sans-io handshakers with pre-shared-key auth, run to completion in
/// memory; returns the client's and the server's session.
fn psk_handshake(psk: &[u8]) -> Result<(SecureSession, SecureSession), String> {
    let auth = |who, seed| Arc::new(PskAuth::new(psk, who, seed)) as Arc<dyn ChannelAuth>;
    let config = SessionConfig::default();
    let mut client = Handshaker::client(auth("mws/client", 1), None, config.clone());
    let mut server = Handshaker::server(auth("mws/mms", 2), config);
    let err = |e| format!("ladder handshake: {e}");
    let hello = client.take_output();
    server.feed(&hello).map_err(err)?;
    let client_side = client.feed(&server.take_output()).map_err(err)?;
    let server_side = server.feed(&client.take_output()).map_err(err)?;
    match (client_side, server_side) {
        (Some(c), Some(s)) => Ok((c.session, s.session)),
        _ => Err("ladder handshake: did not complete in three flights".into()),
    }
}

fn wire(request: &Pdu, inputs: &mut Inputs, rungs: &mut Rungs) -> Result<(), String> {
    let ns = median_ns(CALLS, || {
        Ok(clock(|| black_box(encode_envelope(black_box(request)))).0)
    })?;
    rungs.ns("wire.encode_ns", ns, CALLS);
    let frame = encode_envelope(request);
    let mut decoder = StreamDecoder::new();
    let ns = median_ns(CALLS, || {
        let (ns, decoded) = clock(|| {
            decoder.feed(black_box(&frame));
            decoder.next_pdu()
        });
        match decoded {
            Ok(Some(pdu)) if pdu == *request => Ok(ns),
            other => Err(format!("ladder decode: {other:?}")),
        }
    })?;
    rungs.ns("wire.decode_ns", ns, CALLS);

    let psk = inputs.bytes(32);
    let (mut sender, mut receiver) = psk_handshake(&psk)?;
    let mut seal_ns = Vec::with_capacity(CALLS);
    let open_ns = median_ns(CALLS, || {
        let (ns, record) = clock(|| sender.seal_frame(black_box(&frame)));
        let record = record.map_err(|e| format!("ladder seal: {e}"))?;
        seal_ns.push(ns);
        let (ns, opened) =
            clock(|| receiver.open_record(record[1], black_box(&record[RECORD_HEADER..])));
        match opened {
            Ok(Opened::Frame(f)) if f == frame => Ok(ns),
            other => Err(format!("ladder open: {other:?}")),
        }
    })?;
    seal_ns.sort_unstable();
    rungs.ns(
        "wire.secure_seal_ns",
        crate::stats::quantile_sorted(&seal_ns, 0.5) as f64,
        CALLS,
    );
    rungs.ns("wire.secure_open_ns", open_ns, CALLS);
    let overhead = sender
        .seal_frame(&frame)
        .map_err(|e| format!("ladder seal: {e}"))?
        .len()
        - frame.len();
    rungs.put("wire.secure_record_overhead_bytes", overhead as f64, "B", 1);

    let ns = median_ns(CALLS, || {
        let (ns, done) = clock(|| psk_handshake(black_box(&psk)));
        done.map(|_| ns)
    })?;
    rungs.us("wire.secure_handshake_cpu_us", ns, CALLS);
    Ok(())
}

fn pending(request: Pdu) -> PendingDeposit {
    match request {
        Pdu::DepositRequest {
            sd_id,
            timestamp,
            u,
            algo,
            sealed,
            attribute,
            nonce,
            ..
        } => PendingDeposit {
            attribute,
            nonce,
            u,
            algo,
            sealed,
            sd_id,
            timestamp,
        },
        other => unreachable!("a depositor crafts deposits, not {other:?}"),
    }
}

fn store(inputs: &mut Inputs, data_dir: &Path, rungs: &mut Rungs) -> Result<(), String> {
    let err = |e: mws_store::StoreError| format!("ladder store: {e}");
    let deposit_into = |db: &ShardedMessageDb, device: &mut Depositor, calls| {
        median_ns(calls, || {
            let row = pending(device.next_request());
            let (ns, stored) = clock(|| db.deposit(black_box(&row)));
            stored.map(|_| ns).map_err(err)
        })
    };

    // The plain deposit's row into memory shards.
    let db = ShardedMessageDb::open_with(shard_kinds(&StorageKind::Memory, 4)).map_err(err)?;
    let mut device = inputs.any_depositor(64);
    let ns = deposit_into(&db, &mut device, CALLS)?;
    rungs.us("store.deposit_mem_us", ns, CALLS);

    // The durable deposit's row (1 KiB body) into WAL files, fsync each.
    let dir = data_dir.join("ladder");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let kinds = shard_kinds(&StorageKind::File(dir.join("messages.wal")), 4);
    let db = ShardedMessageDb::open_with(kinds.clone()).map_err(err)?;
    let mut device = inputs.any_depositor(1024);
    let before = Snapshot::take();
    let ns = deposit_into(&db, &mut device, CALLS)?;
    let after = Snapshot::take();
    rungs.us("store.deposit_file_us", ns, CALLS);
    let (append_us, appends) = after.mean_delta(&before, "mws_store_wal_append_us")?;
    let (fsync_us, fsyncs) = after.mean_delta(&before, "mws_store_wal_fsync_us")?;
    rungs.put(
        "store.wal_append_us_mean",
        append_us,
        "us",
        appends as usize,
    );
    rungs.put("store.wal_fsync_us_mean", fsync_us, "us", fsyncs as usize);
    rungs.put(
        "store.fsyncs_per_deposit",
        fsyncs / CALLS as f64,
        "count",
        CALLS,
    );
    let on_disk: u64 = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum();
    rungs.put(
        "store.wal_bytes_per_user_byte",
        on_disk as f64 / (CALLS * 1024) as f64,
        "ratio",
        CALLS,
    );
    drop(db);
    let (ns, reopened) = clock(|| ShardedMessageDb::open_with(kinds));
    let rows = reopened.map_err(err)?.len();
    std::fs::remove_dir_all(&dir).ok();
    if rows != CALLS {
        return Err(format!("ladder reopen found {rows} of {CALLS} rows"));
    }
    rungs.put("store.reopen_s", ns as f64 / 1e9, "s", CALLS);

    // One attribute of the `collect` warehouse: two readings per tick. A
    // page keeps `PAGE` rows of however many the store hands back.
    let db = ShardedMessageDb::open_with(shard_kinds(&StorageKind::Memory, 1)).map_err(err)?;
    let (attribute, sd, ticks) = (inputs.id("ATTR"), inputs.id("sd"), 128u64);
    for i in 0..2 * ticks {
        let row = PendingDeposit {
            attribute: attribute.clone(),
            nonce: inputs.bytes(16),
            u: inputs.bytes(65),
            algo: 1,
            sealed: inputs.bytes(READING_LEN + 32),
            sd_id: sd.clone(),
            timestamp: 1 + i / 2,
        };
        db.deposit(&row).map_err(err)?;
    }
    let mut since = 0;
    let ns = median_ns(CALLS, || {
        since = since % ticks + 1;
        let (ns, rows) = clock(|| db.by_attribute_since(black_box(&attribute), since));
        let expected = 2 * (ticks - since + 1) as usize;
        match rows {
            Ok(rows) if rows.len() == expected => Ok(ns),
            Ok(rows) => Err(format!(
                "ladder by_attribute_since: {} rows, not {expected}",
                rows.len()
            )),
            Err(e) => Err(err(e)),
        }
    })?;
    rungs.us("store.by_attribute_since_us", ns, CALLS);
    let materialised = db.by_attribute(&attribute).map_err(err)?.len();
    rungs.put(
        "store.rows_read_per_row_returned",
        materialised as f64 / PAGE as f64,
        "ratio",
        CALLS,
    );
    Ok(())
}

/// The plain deposit, one layer at a time, then sealed and replicated.
fn deposit_path(inputs: &mut Inputs, rungs: &mut Rungs) -> Result<(), String> {
    let mws = warehouse(shard_kinds(&StorageKind::Memory, 4), inputs.u64())?;
    let mut device = inputs.any_depositor(64);
    mws.register_device(&device.sd_id, &device.mac_key);
    let mut deposits = |calls: usize, call: &mut dyn FnMut(&Pdu) -> Result<(), String>| {
        median_ns(calls, || {
            let request = device.next_request();
            let (ns, outcome) = clock(|| call(&request));
            outcome.map(|()| ns)
        })
    };
    let round_trips = |client: &mws_net::Client| {
        median_ns(CALLS, || match clock(|| client.call(&Pdu::HealthRequest)) {
            (ns, Ok(Pdu::HealthResponse { .. })) => Ok(ns),
            (_, other) => Err(format!("ladder health round trip: {other:?}")),
        })
    };

    let mut service = mws.as_service();
    let before = Snapshot::take();
    let ns = deposits(CALLS, &mut |r| {
        expect_ack(Ok::<_, ()>(service.handle(r.clone())))
    })?;
    let (deposit_us, n) = Snapshot::take().mean_delta(&before, "mws_core_deposit_us")?;
    rungs.us("core.handle_deposit_us", ns, CALLS);
    rungs.put("core.deposit_us_mean", deposit_us, "us", n as usize);

    let bus = Network::new();
    bus.bind("mws", mws.as_service());
    let client = bus.client("mws");
    let ns = deposits(CALLS, &mut |r| expect_ack(client.call(r)))?;
    rungs.us("net.bus_call_us", ns, CALLS);

    let unused = Arc::new(AtomicU64::new(0));
    let service = mws.clone();
    let mut server = spawn_server(None, move || service.as_service())?;
    let client = connect(server.local_addr(), None, &unused)?;
    let ns = round_trips(&client)?;
    rungs.us("server.rtt_us", ns, CALLS);
    let ns = deposits(CALLS, &mut |r| expect_ack(client.call(r)))?;
    rungs.us("server.deposit_us", ns, CALLS);
    server.shutdown();

    let (server_sec, client_sec) = sealed_settings(inputs.u64());
    let service = mws.clone();
    let mut server = spawn_server(Some(server_sec), move || service.as_service())?;
    let addr = server.local_addr();
    let ns = median_ns(HANDSHAKES, || {
        let (ns, client) = clock(|| connect(addr, Some(client_sec.clone()), &unused));
        client.map(|_| ns)
    })?;
    rungs.us("server.secure_handshake_us", ns, HANDSHAKES);
    let client = connect(addr, Some(client_sec.clone()), &unused)?;
    let ns = round_trips(&client)?;
    rungs.us("server.rtt_sealed_us", ns, CALLS);
    let ns = deposits(CALLS, &mut |r| expect_ack(client.call(r)))?;
    rungs.us("server.deposit_sealed_us", ns, CALLS);
    server.shutdown();

    let plain = rungs.get("server.deposit_us");
    let self_us = plain - rungs.get("core.handle_deposit_us");
    let sealed_added_us = rungs.get("server.deposit_sealed_us") - plain;
    rungs.put("server.self_us", self_us, "us", CALLS);
    rungs.put("server.sealed_added_us", sealed_added_us, "us", CALLS);

    // The same deposit through the router, straight to three node servers.
    let mut device = inputs.any_depositor(64);
    let cluster = Cluster::spawn(inputs, std::slice::from_ref(&device))?;
    let router = cluster.router.clone();
    let before = Snapshot::take();
    let ns = median_ns(CALLS, || {
        let request = device.next_request();
        let (ns, reply) = clock(|| router.handle(request));
        expect_ack(Ok::<_, ()>(reply)).map(|()| ns)
    })?;
    let after = Snapshot::take();
    drop(router);
    rungs.us("cluster.quorum_us", ns, CALLS);
    let (quorum_us, n) = after.mean_delta(&before, "mws_cluster_deposit_quorum_us")?;
    rungs.put("cluster.quorum_us_mean", quorum_us, "us", n as usize);
    let forwards = after.delta(&before, "mws_server_requests_total")?;
    rungs.put(
        "cluster.forwards_per_deposit",
        forwards / CALLS as f64,
        "count",
        CALLS,
    );
    let copies = cluster.finish();
    if copies != (REPLICAS * CALLS) as u64 {
        return Err(format!(
            "ladder cluster holds {copies} rows for {CALLS} deposits"
        ));
    }
    rungs.put(
        "cluster.copies_per_deposit",
        copies as f64 / CALLS as f64,
        "count",
        CALLS,
    );
    rungs.put(
        "cluster.self_us",
        rungs.get("cluster.quorum_us") - plain,
        "us",
        CALLS,
    );
    Ok(())
}

/// The read path, one receiving client: what a real device spends
/// composing a deposit, then the four steps of a collect cycle.
fn collect_path(inputs: &mut Inputs, rungs: &mut Rungs) -> Result<(), String> {
    let composing = Mutex::new(Vec::new());
    let on_compose = |d: std::time::Duration| {
        composing
            .lock()
            .expect("compose samples")
            .push(d.as_nanos() as u64);
    };
    let rows_per_attribute = SLOW_CALLS.div_ceil(PAGE) * PAGE / 4;
    let mut site = CollectSite::spawn(inputs, 1, rows_per_attribute, &on_compose)?;
    let mut composing = composing.into_inner().expect("compose samples");
    rungs.us(
        "core.compose_deposit_us",
        crate::stats::p50_us(&mut composing) * 1e3,
        composing.len(),
    );

    let mut collector = site.collectors.pop().expect("one collector");
    let mut tracer = Tracer::new(Instant::now());
    tracer.enabled = true;
    let before = Snapshot::take();
    for _ in 0..CYCLES {
        if !collector.cycle(&mut tracer) {
            return Err("ladder collect cycle failed".into());
        }
    }
    let (retrieve_us, n) = Snapshot::take().mean_delta(&before, "mws_core_retrieve_us")?;
    rungs.put("core.retrieve_us_mean", retrieve_us, "us", n as usize);
    let spans = tracer.into_spans();
    for step in ["retrieve", "pkg_session", "fetch_key", "decrypt_message"] {
        let mut ns: Vec<u64> = spans
            .iter()
            .filter(|s| s.name.strip_prefix("core.") == Some(step))
            .map(|s| s.duration_ns())
            .collect();
        let n = ns.len();
        rungs.put(
            &format!("core.{step}_us"),
            crate::stats::p50_us(&mut ns),
            "us",
            n,
        );
    }
    match site.finish() {
        0 => Ok(()),
        off => Err(format!("ladder collect warehouse off by {off} rows")),
    }
}
