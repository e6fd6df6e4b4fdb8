//! Crypto micro-benchmark baseline (E3 addendum): times the pairing and
//! IBE primitives with and without the PR's precomputation layer — prepared
//! Miller tapes, fixed-base comb / wNAF scalar multiplication, windowed
//! `fp2_pow` — and writes `BENCH_crypto.json` at the repository root. An
//! `obs` section records the observability hot-path overhead (disabled log
//! event, counter increment, histogram sample) so instrumentation-cost
//! regressions surface next to the crypto numbers they would pollute. A
//! `symmetric` section times the record cipher — AES block, AES-CTR, GHASH
//! and AES-GCM at three sizes — next to the same rows as measured at the
//! commit before the constant-time word-parallel core replaced the
//! byte-wise one ([`SYMMETRIC_BEFORE`]). A `bigint` section times Montgomery
//! arithmetic at the widths production runs, next to the same rows from the
//! commit before it was sized to the modulus ([`BIGINT_BEFORE`]).
//!
//! Run with: `cargo run --release -p mws-bench --bin crypto_bench`
//!
//! Modes:
//! * default — pinned iteration counts, writes `BENCH_crypto.json`
//! * `--smoke` — few iterations, no file output; asserts the fast paths are
//!   bit-identical to the reference paths and that the release build's
//!   AES-GCM still produces the SP 800-38D vectors and one pinned seal, and
//!   that Montgomery arithmetic agrees across container widths (used by
//!   `scripts/tier1.sh`)

use mws_bench::{time_op, timings_json, Json, Timing};
use mws_bigint::{random_bits, Mont, Uint, U256};
use mws_crypto::{
    gcm_open, gcm_seal, Aes128, Aes256, BlockCipher, CtrMode, Digest, HmacDrbg, Rng, RsaKeyPair,
    Sha256,
};
use mws_ibe::bf::IbeSystem;
use mws_pairing::SecurityLevel;

struct LevelReport {
    level: &'static str,
    timings: Vec<Timing>,
    encrypt_speedup: f64,
    decrypt_speedup: f64,
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
    let sk = ibe.extract(&msk, b"meter-00042");
    let dk = ibe.prepare_key(&sk);
    let q_id = ibe.identity_point(b"meter-00042");
    let payload = [0x5au8; 64];

    // Warm every lazy cache before the clock starts, so the rows measure
    // steady-state cost rather than first-call precomputation.
    ctx.warm_caches();
    mpk.prepared(ctx);

    if smoke {
        // Bit-identity gate: same DRBG seed through both paths must produce
        // identical ciphertexts, and every decrypt path must agree.
        let mut r1 = HmacDrbg::from_u64(7);
        let mut r2 = HmacDrbg::from_u64(7);
        let fast = ibe.encrypt_basic_point(&mut r1, &mpk, &q_id, &payload);
        let reference = ibe.encrypt_basic_point_reference(&mut r2, &mpk, &q_id, &payload);
        assert_eq!(fast, reference, "{name}: fast encrypt != reference");
        let m0 = ibe.decrypt_basic(&sk, &fast).expect("decrypt");
        let m1 = ibe.decrypt_basic_prepared(&dk, &fast).expect("prepared");
        let m2 = ibe.decrypt_basic_reference(&sk, &fast).expect("reference");
        assert_eq!(m0, payload.to_vec(), "{name}: wrong plaintext");
        assert_eq!(m0, m1, "{name}: prepared decrypt diverges");
        assert_eq!(m0, m2, "{name}: reference decrypt diverges");
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
    timings.push(time_op("pairing_projective", iters, || {
        std::hint::black_box(ctx.pairing(&q_id, mpk.point()));
    }));
    timings.push(time_op("pairing_prepared", iters, || {
        std::hint::black_box(ctx.pairing_with(mpk.prepared(ctx), &q_id));
    }));
    timings.push(time_op("mul_binary", scalar_iters, || {
        std::hint::black_box(ctx.field().point_mul_binary(&ctx.generator(), &r));
    }));
    timings.push(time_op("mul_wnaf", scalar_iters, || {
        std::hint::black_box(ctx.mul(&q_id, &r));
    }));
    timings.push(time_op("mul_generator_comb", scalar_iters, || {
        std::hint::black_box(ctx.mul_generator(&r));
    }));
    timings.push(time_op("extract", scalar_iters, || {
        std::hint::black_box(ibe.extract(&msk, b"meter-00042"));
    }));

    let mut enc_rng = HmacDrbg::from_u64(1);
    timings.push(time_op("encrypt_basic_reference", iters, || {
        std::hint::black_box(ibe.encrypt_basic_point_reference(
            &mut enc_rng,
            &mpk,
            &q_id,
            &payload,
        ));
    }));
    let mut enc_rng = HmacDrbg::from_u64(1);
    timings.push(time_op("encrypt_basic_fast", iters, || {
        std::hint::black_box(ibe.encrypt_basic_point(&mut enc_rng, &mpk, &q_id, &payload));
    }));

    let mut ct_rng = HmacDrbg::from_u64(2);
    let ct = ibe.encrypt_basic_point(&mut ct_rng, &mpk, &q_id, &payload);
    timings.push(time_op("decrypt_basic_reference", iters, || {
        std::hint::black_box(ibe.decrypt_basic_reference(&sk, &ct).expect("decrypt"));
    }));
    timings.push(time_op("decrypt_basic_fast", iters, || {
        std::hint::black_box(ibe.decrypt_basic(&sk, &ct).expect("decrypt"));
    }));
    timings.push(time_op("decrypt_basic_prepared", iters, || {
        std::hint::black_box(ibe.decrypt_basic_prepared(&dk, &ct).expect("decrypt"));
    }));

    let encrypt_speedup =
        find(&timings, "encrypt_basic_reference") / find(&timings, "encrypt_basic_fast");
    let decrypt_speedup =
        find(&timings, "decrypt_basic_reference") / find(&timings, "decrypt_basic_fast");
    LevelReport {
        level: name,
        timings,
        encrypt_speedup,
        decrypt_speedup,
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

/// Release-profile gate on the Montgomery kernel: the same modulus in 4-, 8-
/// and 32-limb containers (each its own instantiation of the width dispatch)
/// gives the same residues and the same canonical product, square and power,
/// and those match the division-based oracle.
fn bigint_smoke() {
    fn run<const L: usize>([n, a, b]: [U256; 3]) -> [U256; 4] {
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
/// actually serves — the SP 800-38D cases with a partial tail block and
/// AAD for both key sizes, the one-block cases, and one long pinned seal.
fn symmetric_smoke() {
    let zero128 = Aes128::new(&[0; 16]).expect("key");
    let zero256 = Aes256::new(&[0; 32]).expect("key");
    assert_eq!(
        hex(&gcm_seal(&zero128, &[0; 12], b"", &[0; 16]).expect("seal")),
        "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        "SP 800-38D test case 2"
    );
    assert_eq!(
        hex(&gcm_seal(&zero256, &[0; 12], b"", &[0; 16]).expect("seal")),
        "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919",
        "SP 800-38D test case 14"
    );
    let key = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
    let iv = unhex("cafebabefacedbaddecaf888");
    let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let pt = unhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
    );
    let sealed = gcm_seal(&Aes128::new(&key[..16]).expect("key"), &iv, &aad, &pt).expect("seal");
    assert_eq!(
        hex(&sealed[pt.len()..]),
        "5bc94fbc3221a5db94fae95ae7121a47",
        "SP 800-38D test case 4"
    );
    let aes256 = Aes256::new(&key).expect("key");
    let sealed = gcm_seal(&aes256, &iv, &aad, &pt).expect("seal");
    assert_eq!(
        hex(&sealed[pt.len()..]),
        "76fc6ece0f4e1768cddf8853bb2d551b",
        "SP 800-38D test case 16"
    );
    assert_eq!(gcm_open(&aes256, &iv, &aad, &sealed).expect("open"), pt);

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
) -> String {
    let levels = reports.iter().map(|rep| {
        let level = [
            ("timings", timings_json(&rep.timings)),
            ("encrypt_basic_speedup", Json::fixed(rep.encrypt_speedup, 2)),
            ("decrypt_basic_speedup", Json::fixed(rep.decrypt_speedup, 2)),
        ];
        (rep.level, Json::obj(level))
    });
    Json::obj([
        ("bench", Json::Str("crypto_bench".into())),
        ("unit", Json::Str("ns/op".into())),
        ("levels", Json::obj(levels)),
        ("obs", Json::obj([("timings", timings_json(obs))])),
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
    // reproducible medians). Smoke mode only checks bit-identity.
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

    for rep in &reports {
        eprintln!("== {} ==", rep.level);
        rep.timings.iter().for_each(|t| eprintln!("  {t}"));
        eprintln!(
            "  encrypt_basic speedup: {:.2}x   decrypt_basic speedup: {:.2}x",
            rep.encrypt_speedup, rep.decrypt_speedup
        );
    }
    eprintln!("== obs ==");
    obs_timings.iter().for_each(|t| eprintln!("  {t}"));
    eprintln!("== symmetric ==");
    symmetric_timings.iter().for_each(|t| eprintln!("  {t}"));
    eprintln!("== bigint ==");
    bigint_timings.iter().for_each(|t| eprintln!("  {t}"));

    if smoke {
        symmetric_smoke();
        bigint_smoke();
        eprintln!("crypto_bench --smoke: fast paths bit-identical to reference");
        return;
    }

    let json = render_json(&reports, &obs_timings, &symmetric_timings, &bigint_timings);
    std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    println!("{json}");
    eprintln!("wrote BENCH_crypto.json");
}
