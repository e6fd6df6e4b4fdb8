//! Crypto micro-benchmark baseline (E3 addendum): times the pairing
//! against its affine reference and its prepared Miller tapes, scalar
//! multiplication by binary double-and-add, Montgomery ladder and the
//! generator's fixed-base table (and the table's build), and the
//! protocol's IBE operations — extract and the
//! hybrid attribute scheme's `encrypt_attr`/`decrypt_attr` — and writes
//! `BENCH_crypto.json` at the repository root. An `obs` section records
//! the observability hot-path overhead (disabled log event, counter
//! increment, histogram sample) so instrumentation-cost regressions surface
//! next to the crypto numbers they would pollute. A `symmetric` section
//! times the record cipher — AES block, AES-CTR, GHASH and AES-GCM at three
//! sizes — next to the same rows as measured at the commit before the
//! constant-time word-parallel core replaced the byte-wise one
//! ([`SYMMETRIC_BEFORE`]). A `bigint` section times Montgomery arithmetic
//! at the widths production runs, next to the same rows from the commit
//! before it was sized to the modulus ([`BIGINT_BEFORE`]). Each level's
//! pairing and IBE rows sit next to the same rows from the commit before
//! the pairing arithmetic ran at the field's width ([`LEVEL_BEFORE`]) and
//! from the commit before the Montgomery ladder and safegcd
//! ([`LADDER_BEFORE`]). An `inversion` section times the field's safegcd
//! inversion against Fermat's `a^(p−2)` at all three levels.
//!
//! Run with: `cargo run --release -p mws-bench --bin crypto_bench`
//!
//! Modes:
//! * default — pinned iteration counts, writes `BENCH_crypto.json`
//! * `--smoke` — few iterations, no file output; asserts that the
//!   projective and prepared pairings equal the affine reference at every
//!   level, that the release build's AES-GCM still produces the SP 800-38D
//!   vectors and one pinned seal, that Montgomery arithmetic agrees across
//!   container widths, that the device's cofactor-free `encrypt_attr`
//!   opens under the PKG's key at every level, that the ladder matches
//!   binary double-and-add and safegcd matches Fermat on 64 inputs per
//!   level, and that the fixed-base table and the regular `G_T` exponent
//!   match binary double-and-add and square-and-multiply on 64 scalars per
//!   level (used by `scripts/tier1.sh`)

use mws_bench::{time_op, timings_json, Json, Timing};
use mws_bigint::{random_below, random_bits, Mont, Uint};
use mws_crypto::{
    gcm_open, gcm_seal, Aes128, BlockCipher, CtrMode, Digest, HmacDrbg, Rng, RsaKeyPair, Sha256,
};
use mws_ibe::bf::IbeSystem;
use mws_ibe::CipherAlgo;
use mws_pairing::{Fp, FpCtx, FpW, PairingCtx, Point, SecurityLevel};

/// The attribute the `encrypt_attr` rows and the compose gate encrypt to.
const ATTRIBUTE: &str = "ELECTRIC-APT9";

struct LevelReport {
    level: &'static str,
    timings: Vec<Timing>,
}

fn find(timings: &[Timing], name: &str) -> f64 {
    timings
        .iter()
        .find(|t| t.name == name)
        .expect("timing row present")
        .ns_per_op
}

/// Benchmarks one security level. `iters` scales every row; the pairing
/// rows use `iters`, the cheaper scalar rows 4×.
fn bench_level(level: SecurityLevel, name: &'static str, iters: u32, smoke: bool) -> LevelReport {
    let ibe = IbeSystem::named(level);
    let ctx = ibe.pairing();
    let mut rng = HmacDrbg::from_u64(0xb_e4c4);
    let (msk, mpk) = ibe.setup(&mut rng);
    let q_id = ibe.identity_point(b"meter-00042");
    let payload = [0x5au8; 64];

    // Warm every lazy cache before the clock starts, so the rows measure
    // steady-state cost rather than first-call precomputation.
    ctx.warm_caches();
    mpk.prepared(ctx);

    if smoke {
        // Release-build gate: the projective loop and the prepared tape
        // give the affine reference's value.
        let e_fast = ctx.pairing(&q_id, mpk.point());
        let e_prep = ctx.pairing_with(mpk.prepared(ctx), &q_id);
        let e_aff = ctx.pairing_affine(&q_id, mpk.point());
        assert_eq!(e_fast, e_prep, "{name}: prepared pairing diverges");
        assert_eq!(e_fast, e_aff, "{name}: projective pairing diverges");
    }

    let scalar_iters = iters * 4;
    let r = ctx.random_scalar(&mut rng);
    let mut timings = Vec::new();

    timings.push(time_op("pairing_affine", iters, || {
        std::hint::black_box(ctx.pairing_affine(&q_id, mpk.point()));
    }));
    timings.push(time_op("pairing", iters, || {
        std::hint::black_box(ctx.pairing(&q_id, mpk.point()));
    }));
    timings.push(time_op("pairing_prepared", iters, || {
        std::hint::black_box(ctx.pairing_with(mpk.prepared(ctx), &q_id));
    }));
    timings.push(time_op("mul_binary", scalar_iters, || {
        std::hint::black_box(ctx.field().point_mul_binary(&ctx.generator(), &r));
    }));
    timings.push(time_op("mul_ladder", scalar_iters, || {
        std::hint::black_box(ctx.mul(&q_id, &r));
    }));
    timings.push(time_op("mul_generator", scalar_iters, || {
        std::hint::black_box(ctx.mul_generator(&r));
    }));
    // The table's build, each call in a fresh context built (and dropped)
    // off the clock, and timed with the one multiplication that builds it.
    let mut fresh: Vec<PairingCtx> = (0..5 * iters)
        .map(|_| PairingCtx::from_params(ctx.params()).expect("named parameters"))
        .collect();
    let mut built = Vec::with_capacity(fresh.len());
    timings.push(time_op("generator_table_build", iters, || {
        let c = fresh.pop().expect("one fresh context per call");
        std::hint::black_box(c.mul_generator(&r));
        built.push(c);
    }));
    drop(built);
    timings.push(time_op("extract", scalar_iters, || {
        std::hint::black_box(ibe.extract(&msk, b"meter-00042"));
    }));

    let encrypt = |rng: &mut HmacDrbg| {
        ibe.encrypt_attr(
            rng,
            &mpk,
            ATTRIBUTE,
            b"nonce-0001",
            CipherAlgo::Aes128,
            b"aad",
            &payload,
        )
    };
    let mut enc_rng = HmacDrbg::from_u64(1);
    timings.push(time_op("encrypt_attr", iters, || {
        std::hint::black_box(encrypt(&mut enc_rng));
    }));

    let ct = encrypt(&mut HmacDrbg::from_u64(2));
    let sk = ibe.extract_point(&msk, &ibe.attribute_point(ATTRIBUTE, b"nonce-0001"));
    timings.push(time_op("decrypt_attr", iters, || {
        std::hint::black_box(ibe.decrypt_attr(&sk, &ct, b"aad").expect("decrypt"));
    }));

    LevelReport {
        level: name,
        timings,
    }
}

/// Observability hot-path overhead (DESIGN.md §7). Instrumentation sits
/// on the deposit path, so a disabled log event, a counter increment and
/// a histogram sample must stay in the tens of nanoseconds or the obs
/// layer would show up in every E1 row.
fn bench_obs(iters: u32) -> Vec<Timing> {
    // Gate off: the disabled-event row measures the gate alone, which is
    // what every production `debug!` costs when MWS_LOG is unset or low.
    mws_obs::set_max_level(None);
    let counter = mws_obs::registry().counter("bench_obs_events_total");
    let histogram = mws_obs::registry().histogram("bench_obs_us");
    let mut timings = Vec::new();
    timings.push(time_op("log_event_disabled", iters, || {
        mws_obs::debug!(target: "bench", "disabled event", row = 1u64,);
    }));
    timings.push(time_op("counter_inc", iters, || {
        counter.inc();
    }));
    timings.push(time_op("histogram_record", iters, || {
        histogram.record(1729);
    }));
    timings
}

/// The `symmetric` rows at the parent commit 17a353b (byte-wise AES,
/// bit-by-bit GHASH), in ns/op: medians of five runs of this same function
/// built against that commit, alternated with five runs of this tree on
/// the same box (this tree's medians in that session: 302, 4841, 3823,
/// 1268, 8726, 127416, 8686, 1245). They are the "before" that
/// `BENCH_crypto.json` keeps beside every fresh "after". Two rows rise by
/// design: one block still costs a whole four-lane pass, and the key
/// schedule now runs `SubWord` through the circuit and stores bit-planes.
const SYMMETRIC_BEFORE: [(&str, f64); 8] = [
    ("aes128_block", 241.0),
    ("aes128_ctr/1024", 16584.7),
    ("ghash/1024", 15442.5),
    ("aes128_gcm_seal/64", 3003.2),
    ("aes128_gcm_seal/1024", 32608.6),
    ("aes128_gcm_seal/16384", 497056.6),
    ("aes128_gcm_open/1024", 31898.9),
    ("aes128_new", 500.9),
];

/// The pairing, scalar-multiplication and extract rows of each level at
/// the parent commit 2bd1a34 (every `Fp` operation an
/// out-of-line call through `Mont` in the 8-limb container, matching the
/// width again), in ns/op: medians of nine runs of this same binary built
/// against that commit, alternated with nine runs of this tree on the same
/// 2-vCPU host (this tree's medians in that session, in row order — toy:
/// 507158, 32863, 14048, 22562, 18333, 11180, 55103; light: 1140892,
/// 76511, 36180, 64825, 51770, 27510, 113892). `pairing` is the
/// projective loop `PairingCtx::pairing` runs.
const LEVEL_BEFORE: [(&str, [(&str, f64); 7]); 2] = [
    (
        "toy",
        [
            ("pairing_affine", 947276.8),
            ("pairing", 60634.8),
            ("pairing_prepared", 29090.3),
            ("mul_binary", 43203.1),
            ("mul_wnaf", 40386.1),
            ("mul_generator_comb", 18918.2),
            ("extract", 83123.6),
        ],
    ),
    (
        "light",
        [
            ("pairing_affine", 1752171.9),
            ("pairing", 112785.9),
            ("pairing_prepared", 51361.4),
            ("mul_binary", 91842.7),
            ("mul_wnaf", 74989.2),
            ("mul_generator_comb", 38157.2),
            ("extract", 173639.5),
        ],
    ),
];

/// Each level's rows at the parent commit 2beb55e (width-4 wNAF
/// `point_mul`, Fermat inversion), in ns/op: medians of nine runs of this
/// same binary built against that commit, alternated with nine runs of this
/// tree on the same 2-vCPU host (this tree's medians in that session, in
/// row order — toy: 410250, 56267, 21091, 33715, 21692, 14591, 64522,
/// 113314; light: 628467, 141333, 60301, 103398, 65519, 39988, 98835,
/// 198752; EXPERIMENTS E3 addendum 6). `mul_wnaf` is the row `mul_ladder`
/// replaces.
const LADDER_BEFORE: [(&str, [(&str, f64); 8]); 2] = [
    (
        "toy",
        [
            ("pairing_affine", 776060.7),
            ("pairing", 58870.8),
            ("pairing_prepared", 24426.8),
            ("mul_binary", 32993.8),
            ("mul_wnaf", 34372.8),
            ("mul_generator_comb", 18844.8),
            ("extract", 87248.9),
            ("encrypt_attr", 107972.3),
        ],
    ),
    (
        "light",
        [
            ("pairing_affine", 1958330.3),
            ("pairing", 153240.0),
            ("pairing_prepared", 73119.6),
            ("mul_binary", 127934.4),
            ("mul_wnaf", 93629.8),
            ("mul_generator_comb", 51881.7),
            ("extract", 216781.0),
            ("encrypt_attr", 222019.8),
        ],
    ),
];

/// A source of byte strings drawn from `HmacDrbg::from_u64(seed)`.
fn seeded_bytes(seed: u64) -> impl FnMut(usize) -> Vec<u8> {
    let mut rng = HmacDrbg::from_u64(seed);
    move |n| {
        let mut v = vec![0u8; n];
        rng.fill_bytes(&mut v);
        v
    }
}

/// The record cipher, through the public functions the rest of the
/// workspace calls. `ghash/1024` is a GMAC — 1024 bytes of AAD, no
/// plaintext — so GHASH is all of it but one cipher block.
fn bench_symmetric(scale: u32) -> Vec<Timing> {
    let mut bytes = seeded_bytes(0x5e41);
    let key = bytes(16);
    let cipher = Aes128::new(&key).expect("16-byte key");
    let (iv, aad) = (bytes(12), bytes(13));
    let mut timings = Vec::new();

    let mut block = bytes(16);
    timings.push(time_op("aes128_block", 4000 * scale, || {
        cipher.encrypt_block(std::hint::black_box(&mut block));
    }));
    let mut buf = bytes(1024);
    timings.push(time_op("aes128_ctr/1024", 200 * scale, || {
        CtrMode::apply(&cipher, &iv[..8], std::hint::black_box(&mut buf)).expect("ctr");
    }));
    let long_aad = bytes(1024);
    timings.push(time_op("ghash/1024", 200 * scale, || {
        std::hint::black_box(gcm_seal(&cipher, &iv, &long_aad, b"").expect("seal"));
    }));
    for len in [64usize, 1024, 16384] {
        let pt = bytes(len);
        let iters = (200_000 / len as u32).max(4) * scale;
        timings.push(time_op(format!("aes128_gcm_seal/{len}"), iters, || {
            std::hint::black_box(gcm_seal(&cipher, &iv, &aad, &pt).expect("seal"));
        }));
    }
    let sealed = gcm_seal(&cipher, &iv, &aad, &bytes(1024)).expect("seal");
    timings.push(time_op("aes128_gcm_open/1024", 200 * scale, || {
        std::hint::black_box(gcm_open(&cipher, &iv, &aad, &sealed).expect("open"));
    }));
    timings.push(time_op("aes128_new", 2000 * scale, || {
        std::hint::black_box(Aes128::new(std::hint::black_box(&key)).expect("key"));
    }));
    timings
}

/// The `bigint` rows at the parent commit 87f3e7c (CIOS over the whole
/// container: 8 limbs for every field, 32 for RSA, contexts rebuilt per RSA
/// call), in ns/op: medians of ten runs of this same function built against
/// that commit, alternated with ten runs of this tree on the same box (this
/// tree's medians in that session: 22.2, 22.1, 31.5, 33.2, 84.0, 85.3, 4107,
/// 168606, 24249; `mont_sqr` is `mont_mul(a, a)`, so its rows only show that
/// the two track each other). `rsa512_encrypt` is 44 DRBG draws for the
/// PKCS#1 padding plus 17 multiplies; the context build was the other half.
const BIGINT_BEFORE: [(&str, f64); 9] = [
    ("mont_mul/160_in_u512", 91.5),
    ("mont_sqr/160_in_u512", 90.8),
    ("mont_mul/256_in_u512", 89.8),
    ("mont_sqr/256_in_u512", 90.0),
    ("mont_mul/512_in_u512", 89.5),
    ("mont_sqr/512_in_u512", 92.0),
    ("mont_new_512_in_u2048", 111657.9),
    ("rsa512_encrypt", 332406.5),
    ("rsa512_decrypt", 1288701.1),
];

/// An odd modulus of exactly `bits` bits and two residues below it.
fn modulus_and_residues<const L: usize>(rng: &mut HmacDrbg, bits: u32) -> [Uint<L>; 3] {
    let mut n: Uint<L> = random_bits(rng, bits);
    n.set_bit(bits - 1, true);
    n.set_bit(0, true);
    [n, random_bits(rng, bits - 1), random_bits(rng, bits - 1)]
}

/// Montgomery arithmetic at the widths production runs: the three field
/// sizes inside the pairing's one `Uint<8>` container (Toy, Light, Standard)
/// and the RSA-512 token key inside `U2048`.
fn bench_bigint(scale: u32) -> Vec<Timing> {
    let mut rng = HmacDrbg::from_u64(0xb161);
    let mut timings = Vec::new();
    for bits in [160u32, 256, 512] {
        let [n, a, b] = modulus_and_residues::<8>(&mut rng, bits);
        let mont = Mont::new(&n).expect("odd modulus");
        let (mut x, y) = (mont.to_mont(&a), mont.to_mont(&b));
        let name = format!("mont_mul/{bits}_in_u512");
        timings.push(time_op(name, 20_000 * scale, || {
            x = mont.mont_mul(std::hint::black_box(&x), &y);
        }));
        let name = format!("mont_sqr/{bits}_in_u512");
        timings.push(time_op(name, 20_000 * scale, || {
            x = mont.mont_sqr(std::hint::black_box(&x));
        }));
        std::hint::black_box(x);
    }
    let [n, _, _] = modulus_and_residues::<32>(&mut rng, 512);
    timings.push(time_op("mont_new_512_in_u2048", 20 * scale, || {
        std::hint::black_box(Mont::<32>::new(std::hint::black_box(&n)).expect("odd modulus"));
    }));
    let kp = RsaKeyPair::generate(&mut rng, 512).expect("512-bit key");
    let mut ct = Vec::new();
    timings.push(time_op("rsa512_encrypt", 20 * scale, || {
        ct = kp
            .public
            .encrypt_pkcs1(&mut rng, b"token session key")
            .expect("fits");
    }));
    timings.push(time_op("rsa512_decrypt", 20 * scale, || {
        std::hint::black_box(kp.private.decrypt_pkcs1(&ct).expect("own ciphertext"));
    }));
    timings
}

/// `(name, level)` for the three named parameter sets.
const LEVELS: [(&str, SecurityLevel); 3] = [
    ("toy", SecurityLevel::Toy),
    ("light", SecurityLevel::Light),
    ("standard", SecurityLevel::Standard),
];

/// A random full-width field element: the x-coordinate of a random point.
fn random_element(f: &FpCtx, rng: &mut HmacDrbg) -> Fp {
    match f.random_curve_point(rng) {
        Point::Affine { x, .. } => x,
        Point::Infinity => unreachable!("random points are finite"),
    }
}

/// One field inversion at every level: `inv` is the field's safegcd (what
/// every caller runs), `inv_fermat` the exponentiation it replaced,
/// `a^(p−2)` by `Mont::pow` on the same prime — the same CIOS at the same
/// active width, plus a conversion into and out of the domain.
fn bench_inversion(scale: u32) -> Vec<Timing> {
    let mut rng = HmacDrbg::from_u64(0x1a7);
    let mut timings = Vec::new();
    for (name, level) in LEVELS {
        let ctx = PairingCtx::named(level);
        let f = ctx.field();
        let p = ctx.params().p;
        let a = random_element(f, &mut rng);
        timings.push(time_op(format!("inv/{name}"), 200 * scale, || {
            std::hint::black_box(f.inv(std::hint::black_box(&a)));
        }));
        let mont = Mont::new(&p).expect("odd prime");
        let (b, e) = (
            random_below(&mut rng, &p),
            p.wrapping_sub(&FpW::from_u64(2)),
        );
        timings.push(time_op(format!("inv_fermat/{name}"), 200 * scale, || {
            std::hint::black_box(mont.pow(std::hint::black_box(&b), &e));
        }));
    }
    timings
}

/// Release-profile gate on the ladder and safegcd: at every level, 64
/// full-group points times random scalars (and `0`, `1`, `q − 1`, `q`, `h`)
/// through `PairingCtx::mul` match the binary double-and-add, and 64
/// inversions match Fermat's `a^(p−2)` run through the field's own
/// products.
fn ladder_inv_smoke() {
    let mut rng = HmacDrbg::from_u64(0x1add);
    for (name, level) in LEVELS {
        let ctx = PairingCtx::named(level);
        let f = ctx.field();
        let q = ctx.group_order();
        let fixed = [
            FpW::ZERO,
            FpW::ONE,
            q.wrapping_sub(&FpW::ONE),
            *q,
            *ctx.cofactor(),
        ];
        for i in 0..64 {
            let p = f.random_curve_point(&mut rng);
            let k = fixed
                .get(i)
                .copied()
                .unwrap_or_else(|| ctx.random_scalar(&mut rng));
            assert_eq!(
                ctx.mul(&p, &k),
                f.point_mul_binary(&p, &k),
                "{name}: ladder != binary"
            );
        }
        let e = ctx.params().p.wrapping_sub(&FpW::from_u64(2));
        for _ in 0..64 {
            let a = random_element(f, &mut rng);
            let fermat = (0..e.bits()).rev().fold(f.one(), |acc, i| {
                let acc = f.sqr(&acc);
                if e.bit(i) {
                    f.mul(&acc, &a)
                } else {
                    acc
                }
            });
            assert_eq!(f.inv(&a), Some(fermat), "{name}: safegcd != Fermat");
        }
    }
}

/// Release-profile gate on the two regular paths: at every level, the
/// generator's fixed-base table against binary double-and-add and the
/// regular `G_T` exponent against square-and-multiply, for `0`, `1`,
/// `q − 1`, an even scalar and 60 random ones (half of them even).
fn regular_smoke() {
    let mut rng = HmacDrbg::from_u64(0xf1_4ed);
    for (name, level) in LEVELS {
        let ctx = PairingCtx::named(level);
        let (f, g, q) = (ctx.field(), ctx.generator(), *ctx.group_order());
        let e = ctx.pairing(&g, &ctx.hash_to_point(b"regular-smoke"));
        let fixed = [
            FpW::ZERO,
            FpW::ONE,
            q.wrapping_sub(&FpW::ONE),
            FpW::from_u64(0x1_0000),
        ];
        for i in 0..64 {
            let k = fixed.get(i).copied().unwrap_or_else(|| {
                let k = ctx.random_scalar(&mut rng);
                let mut even = k;
                even.set_bit(0, false);
                if i % 2 == 0 && !even.is_zero() {
                    even
                } else {
                    k
                }
            });
            assert_eq!(
                ctx.mul_generator(&k),
                f.point_mul_binary(&g, &k),
                "{name}: fixed-base table != binary"
            );
            assert_eq!(
                ctx.gt_pow(&e, &k),
                f.fp2_pow_binary(&e, &k),
                "{name}: regular exponent != square-and-multiply"
            );
        }
    }
}

/// The `encrypt_attr` row of each level at the parent commit e2a8533
/// (MapToPoint's cofactor multiplication on the device), in ns/op: medians
/// of nine runs of this same binary built against that commit, alternated
/// with nine runs of this tree on the same 2-vCPU host (this tree's
/// medians in that session: toy 105038.4, light 193480.2; EXPERIMENTS E3
/// addendum 5).
const COMPOSE_BEFORE: [(&str, f64); 2] = [("toy", 129114.9), ("light", 321690.2)];

/// Release-profile gate on the device's cofactor-free compose: at every
/// level, 64 seeded `encrypt_attr` calls open byte for byte under the key
/// the PKG extracts for the cleared point,
/// `extract_point(attribute_point(A, nonce))`.
fn compose_smoke() {
    for level in [
        SecurityLevel::Toy,
        SecurityLevel::Light,
        SecurityLevel::Standard,
    ] {
        let ibe = IbeSystem::named(level);
        let mut rng = HmacDrbg::from_u64(0xc0_3b05e);
        let (msk, mpk) = ibe.setup(&mut rng);
        for i in 0u32..64 {
            let nonce = i.to_be_bytes();
            let reading = format!("reading {i}");
            let ct = ibe.encrypt_attr(
                &mut rng,
                &mpk,
                ATTRIBUTE,
                &nonce,
                CipherAlgo::Aes128,
                b"aad",
                reading.as_bytes(),
            );
            let sk = ibe.extract_point(&msk, &ibe.attribute_point(ATTRIBUTE, &nonce));
            let opened = ibe.decrypt_attr(&sk, &ct, b"aad");
            assert_eq!(
                opened.as_deref(),
                Ok(reading.as_bytes()),
                "{level:?} compose {i} does not open under the PKG's key"
            );
        }
    }
}

/// Release-profile gate on the Montgomery kernel: the same modulus in 4-, 8-
/// and 32-limb containers (each its own instantiation of the width dispatch)
/// gives the same residues and the same canonical product, square and power,
/// and those match the division-based oracle.
fn bigint_smoke() {
    fn run<const L: usize>([n, a, b]: [Uint<4>; 3]) -> [Uint<4>; 4] {
        let m = Mont::<L>::new(&n.widen()).expect("odd modulus");
        let (am, bm) = (m.to_mont(&a.widen()), m.to_mont(&b.widen()));
        [
            am,
            m.from_mont(&m.mont_mul(&am, &bm)),
            m.from_mont(&m.mont_sqr(&am)),
            m.pow(&a.widen(), &b.widen()),
        ]
        .map(|v| v.narrow().expect("results are below the modulus"))
    }
    let mut rng = HmacDrbg::from_u64(0xb161);
    for bits in [160u32, 256] {
        let input = modulus_and_residues::<4>(&mut rng, bits);
        let [n, a, b] = input;
        let narrow = run::<4>(input);
        assert_eq!(run::<8>(input), narrow, "{bits} bits: Mont<8> != Mont<4>");
        assert_eq!(run::<32>(input), narrow, "{bits} bits: Mont<32> != Mont<4>");
        let oracle = [a.mul_mod(&b, &n), a.mul_mod(&a, &n), a.pow_mod(&b, &n)];
        assert_eq!(narrow[1..], oracle, "{bits} bits: Mont != division");
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 of `gcm_seal` over a 4 KiB plaintext, 13-byte AAD, key and IV
/// all drawn from `HmacDrbg::from_u64(0x4b1b)`; captured at commit 17a353b,
/// before the cipher core was replaced.
const PINNED_SEAL_SHA256: &str = "afb2e660e141fc2895928edf101a77e7b8132d4abe861f55d8a32eaf404a3db2";

/// Release-profile gate on the record cipher: `cargo test` checks the
/// vectors in the test profile, this checks the optimised build that
/// actually serves — the SP 800-38D one-block case, four full blocks, a
/// partial tail block with AAD, and one long pinned seal.
fn symmetric_smoke() {
    let zero = Aes128::new(&[0; 16]).expect("key");
    assert_eq!(
        hex(&gcm_seal(&zero, &[0; 12], b"", &[0; 16]).expect("seal")),
        "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        "SP 800-38D test case 2"
    );
    let aes = Aes128::new(&unhex("feffe9928665731c6d6a8f9467308308")).expect("key");
    let iv = unhex("cafebabefacedbaddecaf888");
    let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let pt = unhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
    );
    let sealed = gcm_seal(&aes, &iv, b"", &pt).expect("seal");
    assert_eq!(
        hex(&sealed),
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985\
         4d5c2af327cd64a62cf35abd2ba6fab4",
        "SP 800-38D test case 3"
    );
    let sealed = gcm_seal(&aes, &iv, &aad, &pt[..60]).expect("seal");
    assert_eq!(
        hex(&sealed[60..]),
        "5bc94fbc3221a5db94fae95ae7121a47",
        "SP 800-38D test case 4"
    );
    assert_eq!(gcm_open(&aes, &iv, &aad, &sealed).expect("open"), &pt[..60]);

    let mut bytes = seeded_bytes(0x4b1b);
    let cipher = Aes128::new(&bytes(16)).expect("key");
    let (iv, aad, pt) = (bytes(12), bytes(13), bytes(4096));
    let sealed = gcm_seal(&cipher, &iv, &aad, &pt).expect("seal");
    assert_eq!(
        hex(&Sha256::digest(&sealed)),
        PINNED_SEAL_SHA256,
        "pinned 4 KiB seal"
    );
    assert_eq!(gcm_open(&cipher, &iv, &aad, &sealed).expect("open"), pt);
}

fn render_json(
    reports: &[LevelReport],
    obs: &[Timing],
    symmetric: &[Timing],
    bigint: &[Timing],
    inversion: &[Timing],
) -> String {
    let levels = reports.iter().map(|rep| {
        let (_, before) = LEVEL_BEFORE
            .iter()
            .find(|(level, _)| *level == rep.level)
            .expect("a before row set per level");
        let (_, compose_before) = COMPOSE_BEFORE
            .iter()
            .find(|(level, _)| *level == rep.level)
            .expect("a before compose row per level");
        let (_, ladder_before) = LADDER_BEFORE
            .iter()
            .find(|(level, _)| *level == rep.level)
            .expect("a before row set per level");
        let level = [
            ("timings", timings_json(&rep.timings)),
            (
                "before_2bd1a34_ns_per_op",
                Json::obj(before.map(|(name, ns)| (name, Json::fixed(ns, 1)))),
            ),
            (
                "before_e2a8533_ns_per_op",
                Json::obj([("encrypt_attr", Json::fixed(*compose_before, 1))]),
            ),
            (
                "before_2beb55e_ns_per_op",
                Json::obj(ladder_before.map(|(name, ns)| (name, Json::fixed(ns, 1)))),
            ),
        ];
        (rep.level, Json::obj(level))
    });
    Json::obj([
        ("bench", Json::Str("crypto_bench".into())),
        ("unit", Json::Str("ns/op".into())),
        ("levels", Json::obj(levels)),
        ("obs", Json::obj([("timings", timings_json(obs))])),
        (
            "inversion",
            Json::obj([
                ("timings", timings_json(inversion)),
                (
                    "inv_over_fermat",
                    Json::obj(LEVELS.map(|(level, _)| {
                        let row = |name: &str| find(inversion, &format!("{name}/{level}"));
                        (level, Json::fixed(row("inv") / row("inv_fermat"), 3))
                    })),
                ),
            ]),
        ),
        (
            "symmetric",
            Json::obj([
                ("timings", timings_json(symmetric)),
                (
                    "before_17a353b_ns_per_op",
                    Json::obj(SYMMETRIC_BEFORE.map(|(name, ns)| (name, Json::fixed(ns, 1)))),
                ),
            ]),
        ),
        (
            "bigint",
            Json::obj([
                ("timings", timings_json(bigint)),
                (
                    "before_87f3e7c_ns_per_op",
                    Json::obj(BIGINT_BEFORE.map(|(name, ns)| (name, Json::fixed(ns, 1)))),
                ),
            ]),
        ),
    ])
    .pretty()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Pinned iteration counts (scripts/bench.sh relies on these for
    // reproducible medians). Smoke mode only runs the gates.
    let (toy_iters, light_iters) = if smoke { (2, 1) } else { (200, 40) };

    let reports = vec![
        bench_level(SecurityLevel::Toy, "toy", toy_iters, smoke),
        bench_level(SecurityLevel::Light, "light", light_iters, smoke),
    ];

    // Observability overhead rows are ns-scale, so even the smoke run can
    // afford enough iterations for a stable median.
    let obs_timings = bench_obs(if smoke { 100_000 } else { 2_000_000 });

    let symmetric_timings = bench_symmetric(if smoke { 1 } else { 10 });
    let bigint_timings = bench_bigint(if smoke { 1 } else { 10 });
    let inversion_timings = bench_inversion(if smoke { 1 } else { 20 });

    for rep in &reports {
        eprintln!("== {} ==", rep.level);
        rep.timings.iter().for_each(|t| eprintln!("  {t}"));
    }
    eprintln!("== obs ==");
    obs_timings.iter().for_each(|t| eprintln!("  {t}"));
    eprintln!("== symmetric ==");
    symmetric_timings.iter().for_each(|t| eprintln!("  {t}"));
    eprintln!("== bigint ==");
    bigint_timings.iter().for_each(|t| eprintln!("  {t}"));
    eprintln!("== inversion ==");
    inversion_timings.iter().for_each(|t| eprintln!("  {t}"));

    if smoke {
        symmetric_smoke();
        bigint_smoke();
        compose_smoke();
        ladder_inv_smoke();
        regular_smoke();
        eprintln!("crypto_bench --smoke: fast paths match their references");
        return;
    }

    let json = render_json(
        &reports,
        &obs_timings,
        &symmetric_timings,
        &bigint_timings,
        &inversion_timings,
    );
    std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    println!("{json}");
    eprintln!("wrote BENCH_crypto.json");
}
