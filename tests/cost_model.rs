//! The workspace's cost model, counted rather than timed so the figures do
//! not drift with the host: field products, inversions and square roots
//! per pairing operation at Toy, Light and Standard (`mws-bigint`'s
//! [`Cost`]), SHA-256 compressions per DRBG draw, KDF call and compose
//! (`mws-crypto`'s [`HashCost`]), WAL appends and fsyncs per deposit and
//! per replica push (`mws-store`'s [`WalCost`]), and envelope frames per
//! client exchange (`mws-server`'s [`FrameCost`]), all thread-local
//! debug-build counters.
//!
//! [`PINNED`] is each pairing operation's exact count now that every
//! variable-base `k·P` is the x-only Montgomery ladder, every inversion
//! the constant-time safegcd, and the generator's `k·P` a signed-window
//! fixed-base table (DESIGN D8). [`PARENT`] is the count at the commit
//! before the table (`ea14019`: the fixed-base comb and the sliding-window
//! `g^(h·r)`), and no pinned figure may exceed it. A change may lower a
//! figure here; raising one needs a sentence in DESIGN.
//!
//! [`scalar_cost_is_independent_of_the_scalar`] holds the ladder and the
//! fixed-base table to their promise: the PKG's extraction, a
//! variable-base multiplication, an IBS signature, the generator's `k·P`
//! and the device's `encrypt_attr` cost the same whatever the secret
//! scalar is. The WAL and frame rows are ceilings at the counts they had
//! when they were added.

#![cfg(debug_assertions)]

use mws::bigint::cost::Cost;
use mws::bigint::Rng;
use mws::core::clock::{LogicalClock, ReplayPolicy};
use mws::core::protocol::{replica_key, Deployment, DeploymentConfig, MwsService};
use mws::core::registry::DeviceRegistry;
use mws::core::sda::{deposit_mac, DeviceAuthVerifier};
use mws::crypto::cost::HashCost;
use mws::crypto::{kdf, Digest, Hmac, HmacDrbg, Sha1, Sha256};
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
    ("encrypt_attr", [(1408, 2, 1), (2195, 2, 1), (3479, 2, 1)]),
    ("decrypt_attr", [(1701, 1, 0), (2687, 1, 0), (3854, 1, 0)]),
    (
        "collect_message",
        [(3820, 3, 3), (6009, 3, 3), (10455, 3, 3)],
    ),
];

/// The same rows at `ea14019`, before the fixed-base table. (The counts
/// at `2beb55e`, before the ladder and safegcd, are in DESIGN D8.)
const PARENT: [(&str, [Counts; 3]); 10] = [
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

/// No pinned figure rises over the parent's, and the savings are the ones
/// DESIGN D8 states: one `collect` message at Light is at most 6,200
/// products (`2beb55e`'s 7,772 less 20 %) with its inversions and square
/// roots unchanged, a variable-base multiplication or an extraction at most
/// 1,200, and `encrypt_attr` at most 1,420 / 2,200 / 3,500 products
/// (Toy / Light / Standard), down from 1,581 / 2,565 / 3,927.
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
    let compose = PINNED.iter().find(|(n, _)| *n == "encrypt_attr").unwrap().1;
    for (got, ceiling) in compose.iter().zip([1420, 2200, 3500]) {
        assert!(
            got.0 <= ceiling,
            "encrypt_attr: {got:?} over {ceiling} products"
        );
    }
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
/// secret), an IBS signature (`r` its nonce), the generator's fixed-base
/// multiplication and the device's `encrypt_attr` (`r` its scalar, drawn
/// through `random_scalar`) cost the same products, inversions and square
/// roots for the scalars 1, 2, 2^7, 2^(bits(q)−1), `q − 1` and a random
/// one, even and odd, at every level. The ladder's step count is fixed by
/// `q`, its swaps are masked, and `k·P = O` or `(k+1)·P = O` still pays the
/// inversion; the fixed-base table and `g^(h·r)` run one masked scan and
/// one addition or product per regular digit, and the digit count is
/// fixed by `q`.
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
            FpW::from_u64(2),
            pow2(7),
            pow2(q.bits() - 1),
            q.wrapping_sub(&FpW::ONE),
            ctx.random_scalar(&mut rng),
        ];
        let (_, mpk) = ibe.setup(&mut rng);
        mpk.prepared(ctx);
        let costs: Vec<[Counts; 5]> = scalars
            .iter()
            .map(|k| {
                let (msk, _) = ibe.setup(&mut Scripted::drawing(k, q));
                let mul = Cost::of(|| ctx.mul(&i_pt, k)).1;
                let extract = Cost::of(|| ibe.extract_point(&msk, &i_pt)).1;
                let sign = Cost::of(|| {
                    ibe.ibs_sign(&mut Scripted::drawing(k, q), b"meter-7", &d_id, b"m")
                })
                .1;
                let fixed_base = Cost::of(|| ctx.mul_generator(k)).1;
                let compose = Cost::of(|| {
                    let r = &mut Scripted::drawing(k, q);
                    ibe.encrypt_attr(r, &mpk, ATTRIBUTE, NONCE, CipherAlgo::Aes128, b"aad", b"m")
                })
                .1;
                [mul, extract, sign, fixed_base, compose].map(|c| triple(&c))
            })
            .collect();
        for (k, cost) in scalars.iter().zip(&costs) {
            assert_eq!(
                *cost, costs[0],
                "{level:?}: [mul, extract_point, ibs_sign, mul_generator, encrypt_attr] \
                 at k = {k:?} != at k = 1"
            );
        }
    }
}

/// SHA-256 compressions `(operation, ceiling, parent)`: ceilings at the
/// counts since `Hmac` keeps its keyed states (the DRBG keys each `K`
/// once, the KDF its salt once per process and its PRK once per call), and
/// the counts at `ea14019`, when every HMAC re-keyed from the raw key. A
/// DRBG draw of up to 32 bytes is `V = HMAC_K(V)` plus the state update;
/// the KDF row derives 64 bytes from a 128-byte `G_T` encoding; the
/// compose is a Toy meter's whole `compose_deposit` (nonce, `r`, the
/// MapToPoint candidates' KDF, the hybrid key, the deposit MAC), the most
/// of eight.
const COMPRESSIONS: [(&str, u64, u64); 3] = [
    ("HmacDrbg::generate, 32 B", 8, 12),
    ("kdf, 64 B", 10, 14),
    ("compose_deposit", 86, 122),
];

#[test]
fn sha256_compressions_per_operation() {
    let mut drbg = HmacDrbg::from_u64(0x5a);
    let mut out = [0u8; 32];
    let generate = HashCost::of(|| drbg.generate(&mut out)).1;
    kdf(b"warm the salt", "", 1);
    let derive = HashCost::of(|| kdf(&[7; 128], "mws-attr-hybrid", 64)).1;
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    dep.register_device("meter-1");
    let mut meter = dep.device("meter-1");
    let compose = (0..8)
        .map(|_| HashCost::of(|| meter.compose_deposit("A", b"reading")).1)
        .max_by_key(|c| c.compressions)
        .unwrap();
    let measured = [generate, derive, compose].map(|c| c.compressions);
    let over: Vec<_> = COMPRESSIONS
        .iter()
        .zip(measured)
        .filter(|((_, ceiling, parent), got)| got > ceiling || ceiling >= parent)
        .map(|((name, ceiling, parent), got)| {
            format!("{name}: {got} (ceiling {ceiling}, parent {parent})")
        })
        .collect();
    assert!(
        over.is_empty(),
        "compressions over their ceilings:\n{}",
        over.join("\n")
    );
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
