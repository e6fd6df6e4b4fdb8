//! The workspace's cost model, counted rather than timed so the figures do
//! not drift with the host: field products, inversions and square roots
//! per pairing operation at Toy, Light and Standard (`mws-bigint`'s
//! [`Cost`]), WAL appends and fsyncs per deposit and per replica push
//! (`mws-store`'s [`WalCost`]), and envelope frames per client exchange
//! (`mws-server`'s [`FrameCost`]), all thread-local debug-build counters.
//!
//! [`PINNED`] is each pairing operation's exact count now that every
//! variable-base `k·P` is the x-only Montgomery ladder and every inversion
//! the constant-time safegcd (DESIGN D8). [`PARENT`] is the count at the
//! commit before them (`2beb55e`: width-4 wNAF and Fermat inversion), and
//! no pinned figure may exceed it. A change may lower a figure here;
//! raising one needs a sentence in DESIGN.
//!
//! [`scalar_cost_is_independent_of_the_scalar`] holds the ladder to its
//! promise: the PKG's extraction, a variable-base multiplication and an
//! IBS signature cost the same whatever the secret scalar is. The WAL and
//! frame rows are ceilings at the counts they had when they were added.

#![cfg(debug_assertions)]

use mws::bigint::cost::Cost;
use mws::bigint::Rng;
use mws::core::clock::{LogicalClock, ReplayPolicy};
use mws::core::protocol::{replica_key, MwsService};
use mws::core::registry::DeviceRegistry;
use mws::core::sda::{deposit_mac, DeviceAuthVerifier};
use mws::crypto::{Digest, Hmac, HmacDrbg, Sha1, Sha256};
use mws::ibe::{CipherAlgo, IbeSystem};
use mws::net::Service;
use mws::pairing::{FpW, SecurityLevel};
use mws::store::cost::WalCost;
use mws::store::StorageKind;
use mws::wire::pdu::replica_push_bytes;
use mws::wire::secure::{PskAuth, SessionConfig};
use mws::wire::{DepositItem, DepositOutcome, Pdu, RelayEntry};
use mws_server::cost::FrameCost;
use mws_server::{ClientConfig, SecureClientSettings, SecureSettings, ServerConfig};
use mws_server::{TcpClient, TcpServer};
use std::sync::Arc;
use std::time::Duration;

const LEVELS: [SecurityLevel; 3] = [
    SecurityLevel::Toy,
    SecurityLevel::Light,
    SecurityLevel::Standard,
];

/// `(products, inversions, square roots)`.
type Counts = (u64, u64, u64);

/// `(operation, [Toy, Light, Standard])`, exact. `cofactor` is
/// MapToPoint's `h·Q` on its first candidate; `in_subgroup` is `q·P = O`
/// from the ladder's x-coordinate alone.
const PINNED: [(&str, [Counts; 3]); 10] = [
    ("pairing", [(1696, 1, 0), (2682, 1, 0), (3849, 1, 0)]),
    ("pairing_with", [(721, 1, 0), (1131, 1, 0), (1914, 1, 0)]),
    ("hash_to_point", [(956, 1, 1), (1501, 1, 1), (3842, 1, 1)]),
    ("cofactor", [(742, 1, 0), (1174, 1, 0), (3190, 1, 0)]),
    ("mul", [(733, 1, 0), (1165, 1, 0), (1453, 1, 0)]),
    ("extract_point", [(733, 1, 0), (1165, 1, 0), (1453, 1, 0)]),
    ("in_subgroup", [(723, 0, 0), (1155, 0, 0), (1443, 0, 0)]),
    ("encrypt_attr", [(1581, 2, 1), (2565, 2, 1), (3927, 2, 1)]),
    ("decrypt_attr", [(1701, 1, 0), (2687, 1, 0), (3854, 1, 0)]),
    (
        "collect_message",
        [(3820, 3, 3), (6009, 3, 3), (10455, 3, 3)],
    ),
];

/// The same rows at `2beb55e`, before the ladder and safegcd.
const PARENT: [(&str, [Counts; 3]); 10] = [
    ("pairing", [(1901, 1, 0), (3005, 1, 0), (4493, 1, 0)]),
    ("pairing_with", [(926, 1, 0), (1454, 1, 0), (2558, 1, 0)]),
    ("hash_to_point", [(1466, 1, 1), (2271, 1, 1), (5694, 1, 1)]),
    ("cofactor", [(1252, 1, 0), (1944, 1, 0), (5042, 1, 0)]),
    ("mul", [(1157, 1, 0), (1892, 1, 0), (2647, 1, 0)]),
    ("extract_point", [(1141, 1, 0), (1835, 1, 0), (2500, 1, 0)]),
    ("in_subgroup", [(795, 0, 0), (1227, 0, 0), (1515, 0, 0)]),
    ("encrypt_attr", [(1991, 2, 1), (3211, 2, 1), (5215, 2, 1)]),
    ("decrypt_attr", [(1906, 1, 0), (3010, 1, 0), (4498, 1, 0)]),
    (
        "collect_message",
        [(4943, 3, 3), (7772, 3, 3), (13998, 3, 3)],
    ),
];

/// `encrypt_attr` at `e2a8533`, when the device still cleared the cofactor
/// (DESIGN D7): `[Toy, Light, Standard]`.
const ENCRYPT_ATTR_E2A8533: [Counts; 3] = [(3238, 3, 1), (5150, 3, 1), (10252, 3, 1)];

const ATTRIBUTE: &str = "ELECTRIC-APT9";
const NONCE: &[u8] = b"nonce-0001";

/// `(operation, cost)` for every [`PINNED`] row at one level, each lazy
/// cache warmed first so no row pays a one-time precomputation.
fn measure(level: SecurityLevel) -> Vec<(&'static str, Cost)> {
    let ibe = IbeSystem::named(level);
    let ctx = ibe.pairing();
    let f = ctx.field();
    let mut rng = HmacDrbg::from_u64(0xc057);
    let (msk, mpk) = ibe.setup(&mut rng);
    ctx.warm_caches();
    mpk.prepared(ctx);
    let k = ctx.random_scalar(&mut rng);
    let i_pt = ibe.attribute_point(ATTRIBUTE, NONCE);
    let sk = ibe.extract_point(&msk, &i_pt);
    let compose = || {
        ibe.encrypt_attr(
            &mut HmacDrbg::from_u64(0xe7c),
            &mpk,
            ATTRIBUTE,
            NONCE,
            CipherAlgo::Aes128,
            b"aad",
            b"reading",
        )
    };
    let ct = compose();
    let u_bytes = f.point_to_bytes(&ct.u);
    let digest = Sha1::digest_parts(&[ATTRIBUTE.as_bytes(), b"|", NONCE]);
    let candidate = ctx.map_candidate(&digest, 0).unwrap();
    assert_eq!(ctx.mul(&candidate, ctx.cofactor()), i_pt);

    let mut rows = Vec::new();
    let mut row = |name, op: &mut dyn FnMut()| rows.push((name, Cost::of(op).1));
    row("pairing", &mut || {
        ctx.pairing(&i_pt, mpk.point());
    });
    row("pairing_with", &mut || {
        ctx.pairing_with(mpk.prepared(ctx), &i_pt);
    });
    row("hash_to_point", &mut || {
        ibe.attribute_point(ATTRIBUTE, NONCE);
    });
    row("cofactor", &mut || {
        ctx.mul(&candidate, ctx.cofactor());
    });
    row("mul", &mut || {
        ctx.mul(&i_pt, &k);
    });
    row("extract_point", &mut || {
        ibe.extract_point(&msk, &i_pt);
    });
    row("in_subgroup", &mut || {
        assert!(ctx.in_subgroup(&i_pt));
    });
    row("encrypt_attr", &mut || assert_eq!(compose(), ct));
    row("decrypt_attr", &mut || {
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"aad").unwrap(), b"reading");
    });
    row("collect_message", &mut || {
        // The PKG's half of `fetch_key` (map, extract, encode), then the
        // receiving client's `decrypt_message` (decode both points, pair).
        let key = ibe.extract_point(&msk, &ibe.attribute_point(ATTRIBUTE, NONCE));
        let key = ibe.sk_from_bytes(&ibe.sk_to_bytes(&key)).unwrap();
        let mut ct = ct.clone();
        ct.u = f.point_from_bytes(&u_bytes).unwrap();
        assert_eq!(ibe.decrypt_attr(&key, &ct, b"aad").unwrap(), b"reading");
    });
    rows
}

fn triple(c: &Cost) -> Counts {
    (c.products, c.inversions, c.square_roots)
}

/// Every operation costs exactly its pinned count.
#[test]
fn costs_per_operation() {
    let mut off = Vec::new();
    for (l, level) in LEVELS.into_iter().enumerate() {
        let rows = measure(level);
        assert_eq!(rows.len(), PINNED.len());
        for ((name, cost), (pinned_name, pinned)) in rows.iter().zip(PINNED) {
            assert_eq!(*name, pinned_name);
            let got = triple(cost);
            if got != pinned[l] {
                off.push(format!("{level:?} {name}: {got:?}, pinned {:?}", pinned[l]));
            }
        }
    }
    assert!(off.is_empty(), "costs moved:\n{}", off.join("\n"));
}

/// No pinned figure rises over the parent's, and the read path's saving
/// is the one DESIGN D8 states: one `collect` message at Light is at most
/// 6,200 products (the parent's 7,772 less 20 %) with its inversions and
/// square roots unchanged, and a variable-base multiplication or an
/// extraction at most 1,200.
#[test]
fn no_row_rises_over_the_parent() {
    for ((name, pinned), (parent_name, parent)) in PINNED.iter().zip(PARENT) {
        assert_eq!(*name, parent_name);
        for (got, was) in pinned.iter().zip(parent) {
            assert!(
                got.0 <= was.0 && got.1 <= was.1 && got.2 <= was.2,
                "{name}: {got:?} over the parent's {was:?}"
            );
        }
    }
    let light = |op: &str| PINNED.iter().find(|(n, _)| *n == op).unwrap().1[1];
    assert!(light("collect_message").0 <= 6200);
    assert_eq!(
        (light("collect_message").1, light("collect_message").2),
        (3, 3)
    );
    assert!(light("mul").0 <= 1200 && light("extract_point").0 <= 1200);
}

/// The compose's saving over `e2a8533` is the cofactor multiplication:
/// at most 0.65× those products at Light and 0.55× at Standard, where `h`
/// is 353 bits.
#[test]
fn compose_skips_the_cofactor() {
    let compose = PINNED.iter().find(|(n, _)| *n == "encrypt_attr").unwrap().1;
    for (l, bound) in [(1, 0.65), (2, 0.55)] {
        assert!(compose[l].0 as f64 <= bound * ENCRYPT_ATTR_E2A8533[l].0 as f64);
    }
}

/// Replays a scripted scalar through `random_scalar`: `random_bits`
/// takes whole limbs low first and the top partial limb from a draw's
/// high bits, so these draws make the first call return `k` (for
/// `0 < k < q`).
struct Scripted(Vec<u64>);

impl Scripted {
    fn drawing(k: &FpW, q: &FpW) -> Self {
        let (full, rem) = ((q.bits() / 64) as usize, q.bits() % 64);
        let mut draws: Vec<u64> = k.limbs()[..full].to_vec();
        if rem != 0 {
            draws.push(k.limbs()[full] << (64 - rem));
        }
        draws.reverse();
        Self(draws)
    }
}

impl Rng for Scripted {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0.pop().expect("one scripted scalar")
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("only scalars are drawn")
    }
}

/// A variable-base multiplication, the PKG's extraction (`s` the master
/// secret) and an IBS signature (`r` its nonce) cost the same products,
/// inversions and square roots for the scalars 1, 2^7, 2^(bits(q)−1),
/// `q − 1` and a random one, at every level: the ladder's step count is
/// fixed by `q`, its swaps are masked, and `k·P = O` or `(k+1)·P = O`
/// still pays the inversion.
#[test]
fn scalar_cost_is_independent_of_the_scalar() {
    for level in LEVELS {
        let ibe = IbeSystem::named(level);
        let ctx = ibe.pairing();
        let q = ctx.group_order();
        let mut rng = HmacDrbg::from_u64(0x5ca1a);
        ctx.warm_caches();
        let i_pt = ibe.attribute_point(ATTRIBUTE, NONCE);
        let d_id = ibe.extract(&ibe.setup(&mut rng).0, b"meter-7");
        let pow2 = |j: u32| {
            let mut k = FpW::ZERO;
            k.set_bit(j, true);
            k
        };
        let scalars = [
            FpW::ONE,
            pow2(7),
            pow2(q.bits() - 1),
            q.wrapping_sub(&FpW::ONE),
            ctx.random_scalar(&mut rng),
        ];
        let costs: Vec<[Counts; 3]> = scalars
            .iter()
            .map(|k| {
                let (msk, _) = ibe.setup(&mut Scripted::drawing(k, q));
                let mul = Cost::of(|| ctx.mul(&i_pt, k)).1;
                let extract = Cost::of(|| ibe.extract_point(&msk, &i_pt)).1;
                let sign = Cost::of(|| {
                    ibe.ibs_sign(&mut Scripted::drawing(k, q), b"meter-7", &d_id, b"m")
                })
                .1;
                [triple(&mul), triple(&extract), triple(&sign)]
            })
            .collect();
        for (k, cost) in scalars.iter().zip(&costs) {
            assert_eq!(
                *cost, costs[0],
                "{level:?}: [mul, extract_point, ibs_sign] at k = {k:?} != at k = 1"
            );
        }
    }
}

const DEVICE: &str = "meter-wal";
const KEY: &[u8] = b"wal-device-key";
const SECRET: &[u8] = b"wal-secret";

/// A one-shard warehouse that knows [`DEVICE`], its messages on `shard`.
fn warehouse(shard: StorageKind) -> impl Service {
    let mut registry = DeviceRegistry::new();
    registry.register(DEVICE, KEY);
    MwsService::new_sharded(
        registry,
        vec![shard],
        StorageKind::Memory,
        StorageKind::Memory,
        SECRET,
        LogicalClock::new(),
        ReplayPolicy::standard(),
        1,
        DeviceAuthVerifier::Mac,
    )
    .unwrap()
    .as_service()
}

/// Deposit `n`: a fresh nonce, a valid MAC.
fn item(n: u64) -> DepositItem {
    let (u, sealed) = (vec![2u8; 33], vec![n as u8; 48]);
    let attribute = "ELECTRIC-APT9".to_string();
    let nonce = n.to_le_bytes().to_vec();
    let mac = deposit_mac(KEY, &u, &sealed, &attribute, &nonce, DEVICE, 0);
    DepositItem {
        timestamp: 0,
        u,
        algo: 1,
        sealed,
        attribute,
        nonce,
        mac,
    }
}

fn single(n: u64) -> Pdu {
    let DepositItem {
        timestamp,
        u,
        algo,
        sealed,
        attribute,
        nonce,
        mac,
    } = item(n);
    Pdu::DepositRequest {
        sd_id: DEVICE.into(),
        timestamp,
        u,
        algo,
        sealed,
        attribute,
        nonce,
        mac,
    }
}

fn batch(first: u64) -> Pdu {
    Pdu::DepositBatch {
        sd_id: DEVICE.into(),
        items: (first..first + 16).map(item).collect(),
    }
}

/// A repair push of 100 rows, all bound for the warehouse's one shard.
fn push(first: u64) -> Pdu {
    let rows: Vec<RelayEntry> = (first..first + 100)
        .map(|n| RelayEntry {
            seq: n,
            sd_id: DEVICE.into(),
            timestamp: 0,
            u: vec![2; 33],
            algo: 1,
            sealed: vec![n as u8; 48],
            attribute: "ELECTRIC-APT9".into(),
            nonce: n.to_le_bytes().to_vec(),
        })
        .collect();
    let mac = Hmac::<Sha256>::mac(&replica_key(SECRET), &replica_push_bytes(&rows));
    Pdu::ReplicaPush { rows, mac }
}

/// Every stored item of a deposit reply.
fn stored(reply: &Pdu) {
    match reply {
        Pdu::DepositAck { .. } => {}
        Pdu::DepositBatchAck { results } => {
            assert!(results.iter().all(|o| o.status == DepositOutcome::STORED));
        }
        Pdu::ReplicaPushAck { deduped: 0, .. } => {}
        other => panic!("{other:?}"),
    }
}

/// The most WAL appends and fsyncs any one of `requests` cost, on a fresh
/// one-shard warehouse.
fn wal_per_request(shard: StorageKind, requests: impl Iterator<Item = Pdu>) -> (u64, u64) {
    let mut service = warehouse(shard);
    requests.fold((0, 0), |(appends, fsyncs), req| {
        let (reply, cost) = WalCost::of(|| service.handle(req));
        stored(&reply);
        (appends.max(cost.appends), fsyncs.max(cost.fsyncs))
    })
}

/// WAL `(appends, fsyncs)` ceilings, at the store's counts when they were
/// added: one deposit on a memory shard is one frame and no fsync; one on
/// a file shard, and one 16-item batch on a file shard (group-committed),
/// one frame and one fsync; a 100-row repair push to one file shard, one
/// frame and one fsync (group-committed like a batch).
const WAL_CEILINGS: [(&str, (u64, u64)); 4] = [
    ("memory-shard deposit", (1, 0)),
    ("file-shard deposit", (1, 1)),
    ("16-item file-shard batch", (1, 1)),
    ("100-row file-shard replica push", (1, 1)),
];

#[test]
fn wal_operations_per_deposit() {
    let dir = std::env::temp_dir().join(format!("mws-cost-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| StorageKind::File(dir.join(name));
    let measured = [
        wal_per_request(StorageKind::Memory, (0..32).map(single)),
        wal_per_request(file("single.wal"), (0..32).map(single)),
        wal_per_request(file("batch.wal"), (0..8).map(|b| batch(16 * b))),
        wal_per_request(file("push.wal"), (0..4).map(|p| push(100 * p))),
    ];
    std::fs::remove_dir_all(&dir).unwrap();
    for ((name, ceiling), got) in WAL_CEILINGS.iter().zip(measured) {
        assert!(
            got.0 <= ceiling.0 && got.1 <= ceiling.1,
            "{name}: (appends, fsyncs) {got:?} over {ceiling:?}"
        );
    }
}

/// The most envelope frames `(written, read)` the client's link moved in
/// one of a few echo exchanges, after a first call that dials (and, sealed,
/// runs the handshake).
fn frames_per_exchange(server: ServerConfig, client: ClientConfig) -> (u64, u64) {
    let server = TcpServer::spawn(server, || |req: Pdu| req).unwrap();
    let client = TcpClient::with_config(server.local_addr(), client).into_client();
    let ping = Pdu::DepositAck { message_id: 7 };
    assert_eq!(client.call(&ping).unwrap(), ping);
    (0..8).fold((0, 0), |(written, read), _| {
        let (reply, cost) = FrameCost::of(|| client.call(&ping));
        assert_eq!(reply.unwrap(), ping);
        (written.max(cost.written), read.max(cost.read))
    })
}

/// Frame `(written, read)` ceilings per client exchange, at the counts
/// when they were added: one request frame out, one reply frame in, plain
/// or sealed.
const FRAME_CEILINGS: [(&str, (u64, u64)); 2] =
    [("plain exchange", (1, 1)), ("sealed exchange", (1, 1))];

#[test]
fn frames_per_client_exchange() {
    const PSK: &[u8] = b"cost-model-psk";
    let sealed_server = ServerConfig {
        secure: Some(Arc::new(SecureSettings {
            auth: Arc::new(PskAuth::new(PSK, "server", 2)),
            session: SessionConfig::default(),
            handshake_timeout: Duration::from_secs(5),
        })),
        ..ServerConfig::default()
    };
    let sealed_client = ClientConfig {
        secure: Some(Arc::new(SecureClientSettings {
            auth: Arc::new(PskAuth::new(PSK, "client", 1)),
            expect_peer: Some("server".into()),
            session: SessionConfig::default(),
        })),
        ..ClientConfig::default()
    };
    let measured = [
        frames_per_exchange(ServerConfig::default(), ClientConfig::default()),
        frames_per_exchange(sealed_server, sealed_client),
    ];
    for ((name, ceiling), got) in FRAME_CEILINGS.iter().zip(measured) {
        assert!(
            got.0 <= ceiling.0 && got.1 <= ceiling.1,
            "{name}: frames (written, read) {got:?} over {ceiling:?}"
        );
    }
}
