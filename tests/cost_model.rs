//! The pairing layer's cost model: field products, inversions and square
//! roots per operation at Toy, Light and Standard, counted on the calling
//! thread by `mws-bigint`'s debug-build counters ([`Cost`]) rather than
//! timed, so the figures do not drift with the host.
//!
//! [`PARENT`] holds the counts of the commit before the device's compose
//! stopped clearing the cofactor (`e2a8533`). Every read-path operation —
//! MapToPoint, extraction, both pairings, decryption and one `collect`
//! message — must stay at exactly those counts. `encrypt_attr` pairs `sP`
//! with the uncleared MapToPoint candidate instead of `I = h·Q` (DESIGN
//! D7), so it has its own ceiling, [`COMPOSE`]. A change may lower a
//! figure here; raising one needs a sentence in DESIGN.

#![cfg(debug_assertions)]

use mws::bigint::cost::Cost;
use mws::crypto::{Digest, HmacDrbg, Sha1};
use mws::ibe::{CipherAlgo, IbeSystem};
use mws::pairing::SecurityLevel;

const LEVELS: [SecurityLevel; 3] = [
    SecurityLevel::Toy,
    SecurityLevel::Light,
    SecurityLevel::Standard,
];

/// `(products, inversions, square roots)`.
type Counts = (u64, u64, u64);

/// `(operation, [Toy, Light, Standard])` at `e2a8533`. `cofactor` is MapToPoint's `h·Q` on its
/// first candidate: the parent ran the same multiplication inside
/// `hash_to_point`, which costs it plus the candidate search.
const PARENT: [(&str, [Counts; 3]); 10] = [
    ("pairing", [(1901, 1, 0), (3005, 1, 0), (4493, 1, 0)]),
    ("pairing_with", [(926, 1, 0), (1454, 1, 0), (2558, 1, 0)]),
    ("hash_to_point", [(1466, 1, 1), (2271, 1, 1), (5694, 1, 1)]),
    ("cofactor", [(1252, 1, 0), (1944, 1, 0), (5042, 1, 0)]),
    ("mul", [(1157, 1, 0), (1892, 1, 0), (2647, 1, 0)]),
    ("extract_point", [(1141, 1, 0), (1835, 1, 0), (2500, 1, 0)]),
    ("in_subgroup", [(795, 0, 0), (1227, 0, 0), (1515, 0, 0)]),
    ("encrypt_attr", [(3238, 3, 1), (5150, 3, 1), (10252, 3, 1)]),
    ("decrypt_attr", [(1906, 1, 0), (3010, 1, 0), (4498, 1, 0)]),
    (
        "collect_message",
        [(4943, 3, 3), (7772, 3, 3), (13998, 3, 3)],
    ),
];

/// `encrypt_attr`'s ceiling per level: the cofactor multiplication and its
/// inversion are gone, the rest is the parent's compose.
const COMPOSE: [Counts; 3] = [(1991, 2, 1), (3211, 2, 1), (5215, 2, 1)];

const ATTRIBUTE: &str = "ELECTRIC-APT9";
const NONCE: &[u8] = b"nonce-0001";

/// `(operation, cost)` for every [`PARENT`] row at one level, each lazy
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

/// Every operation but the compose costs exactly what it did at the parent,
/// so the read path's arithmetic did not move; the compose is within its
/// ceiling.
#[test]
fn costs_per_operation() {
    let mut off = Vec::new();
    for (l, level) in LEVELS.into_iter().enumerate() {
        let rows = measure(level);
        assert_eq!(rows.len(), PARENT.len());
        for ((name, cost), (pinned, parent)) in rows.iter().zip(PARENT) {
            assert_eq!(*name, pinned);
            let got = triple(cost);
            let fits = match *name {
                "encrypt_attr" => {
                    let ceiling = COMPOSE[l];
                    got.0 <= ceiling.0 && got.1 <= ceiling.1 && got.2 <= ceiling.2
                }
                _ => got == parent[l],
            };
            if !fits {
                off.push(format!("{level:?} {name}: {got:?}, parent {:?}", parent[l]));
            }
        }
    }
    assert!(off.is_empty(), "costs moved:\n{}", off.join("\n"));
}

/// The compose's saving is the cofactor multiplication: its ceiling is at
/// most 0.65× the parent's products at Light and 0.55× at Standard, where
/// `h` is 353 bits. (It is not exactly the parent minus `cofactor`: `g`'s
/// exponent is now `h·r mod q`, whose zero windows differ from `r`'s.)
#[test]
fn compose_skips_the_cofactor() {
    let parent = PARENT.iter().find(|(n, _)| *n == "encrypt_attr").unwrap().1;
    for (l, bound) in [(1, 0.65), (2, 0.55)] {
        assert!(COMPOSE[l].0 as f64 <= bound * parent[l].0 as f64);
    }
}
