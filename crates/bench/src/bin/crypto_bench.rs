//! Crypto micro-benchmark baseline (E3 addendum): times the pairing and
//! IBE primitives with and without the PR's precomputation layer — prepared
//! Miller tapes, fixed-base comb / wNAF scalar multiplication, windowed
//! `fp2_pow` — and writes `BENCH_crypto.json` at the repository root. An
//! `obs` section records the observability hot-path overhead (disabled log
//! event, counter increment, histogram sample) so instrumentation-cost
//! regressions surface next to the crypto numbers they would pollute.
//!
//! Run with: `cargo run --release -p mws-bench --bin crypto_bench`
//!
//! Modes:
//! * default — pinned iteration counts, writes `BENCH_crypto.json`
//! * `--smoke` — few iterations, no file output; asserts the fast paths are
//!   bit-identical to the reference paths (used by `scripts/tier1.sh`)

use mws_bench::{time_op, timings_json, Json, Timing};
use mws_crypto::HmacDrbg;
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

fn render_json(reports: &[LevelReport], obs: &[Timing]) -> String {
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

    if smoke {
        eprintln!("crypto_bench --smoke: fast paths bit-identical to reference");
        return;
    }

    let json = render_json(&reports, &obs_timings);
    std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    println!("{json}");
    eprintln!("wrote BENCH_crypto.json");
}
