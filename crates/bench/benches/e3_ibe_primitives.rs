//! E3 — the §IV algorithm suite: Setup / Extract / Encrypt / Decrypt, plus
//! the underlying pairing operations, at every parameter level.
//!
//! Regenerates: the microbenchmark rows an IBE systems paper reports, and
//! the D2 (BasicIdent vs FullIdent) and D5 (pairing vs scalar-mult cost)
//! ablations.

use mws_bench::Bench;
use mws_crypto::HmacDrbg;
use mws_ibe::bf::IbeSystem;
use mws_pairing::SecurityLevel;

fn main() {
    let mut bench = Bench::new("e3_ibe_primitives");

    for (name, level) in [
        ("toy_q80_p160", SecurityLevel::Toy),
        ("light_q128_p256", SecurityLevel::Light),
        ("standard_q160_p512", SecurityLevel::Standard),
    ] {
        let ibe = IbeSystem::named(level);
        let ctx = ibe.pairing().clone();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        let msg = vec![0x5au8; 64];

        let mut rng = HmacDrbg::from_u64(2);
        bench.run(format!("setup/{name}"), || ibe.setup(&mut rng));

        bench.run(format!("extract/{name}"), || {
            ibe.extract(&msk, b"ELECTRIC-APT9|nonce")
        });

        let mut rng = HmacDrbg::from_u64(3);
        bench.run(format!("encrypt_basic/{name}"), || {
            ibe.encrypt_basic(&mut rng, &mpk, b"id", &msg)
        });

        let mut rng = HmacDrbg::from_u64(4);
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"id", &msg);
        let sk = ibe.extract(&msk, b"id");
        bench.run(format!("decrypt_basic/{name}"), || {
            ibe.decrypt_basic(&sk, &ct).unwrap()
        });

        // D2 ablation: the CCA-secure variant.
        let mut rng = HmacDrbg::from_u64(5);
        bench.run(format!("encrypt_full/{name}"), || {
            ibe.encrypt_full(&mut rng, &mpk, b"id", &msg)
        });

        let mut rng = HmacDrbg::from_u64(6);
        let ct = ibe.encrypt_full(&mut rng, &mpk, b"id", &msg);
        let sk = ibe.extract(&msk, b"id");
        bench.run(format!("decrypt_full/{name}"), || {
            ibe.decrypt_full(&sk, &ct).unwrap()
        });

        // D5 view: raw pairing vs its building blocks.
        let g = ctx.generator();
        let mut rng2 = HmacDrbg::from_u64(7);
        let a = ctx.random_scalar(&mut rng2);
        let pa = ctx.mul(&g, &a);

        bench.run(format!("pairing/{name}"), || ctx.pairing(&pa, &g));

        // D5 ablation: the projective (inversion-free) Miller loop.
        bench.run(format!("pairing_projective/{name}"), || {
            ctx.pairing_projective(&pa, &g)
        });

        bench.run(format!("scalar_mul/{name}"), || ctx.mul(&g, &a));

        bench.run(format!("hash_to_point/{name}"), || {
            ctx.hash_to_point(b"ELECTRIC-APT9|nonce-42")
        });

        let e = ctx.pairing(&g, &g);
        bench.run(format!("gt_exponentiation/{name}"), || {
            ctx.field().fp2_pow(&e, &a)
        });
    }
    bench.finish();
}
