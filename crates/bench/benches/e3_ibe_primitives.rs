//! E3 — the §IV algorithm suite: Setup / Extract / Encrypt / Decrypt, plus
//! the underlying pairing operations, at every parameter level. Encrypt
//! and Decrypt are the hybrid attribute scheme the protocol runs
//! (`encrypt_attr` / `decrypt_attr`).
//!
//! Regenerates: the microbenchmark rows an IBE systems paper reports, and
//! the D5 ablations (projective vs affine Miller loop; pairing vs
//! scalar-mult cost).

use mws_bench::Bench;
use mws_crypto::HmacDrbg;
use mws_ibe::bf::IbeSystem;
use mws_ibe::CipherAlgo;
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
        let encrypt = |rng: &mut HmacDrbg| {
            ibe.encrypt_attr(
                rng,
                &mpk,
                "ELECTRIC-APT9",
                b"nonce",
                CipherAlgo::Aes128,
                b"aad",
                &msg,
            )
        };
        bench.run(format!("encrypt_attr/{name}"), || encrypt(&mut rng));

        let ct = encrypt(&mut HmacDrbg::from_u64(4));
        let sk = ibe.extract_point(&msk, &ibe.attribute_point("ELECTRIC-APT9", b"nonce"));
        bench.run(format!("decrypt_attr/{name}"), || {
            ibe.decrypt_attr(&sk, &ct, b"aad").unwrap()
        });

        // D5 view: raw pairing vs its building blocks.
        let g = ctx.generator();
        let mut rng2 = HmacDrbg::from_u64(7);
        let a = ctx.random_scalar(&mut rng2);
        let pa = ctx.mul(&g, &a);

        bench.run(format!("pairing/{name}"), || ctx.pairing(&pa, &g));

        // D5 ablation: the affine reference Miller loop, one inversion per
        // step, against the projective default above.
        bench.run(format!("pairing_affine/{name}"), || {
            ctx.pairing_affine(&pa, &g)
        });

        bench.run(format!("scalar_mul/{name}"), || ctx.mul(&g, &a));

        bench.run(format!("hash_to_point/{name}"), || {
            ctx.hash_to_point(b"ELECTRIC-APT9|nonce-42")
        });

        let e = ctx.pairing(&g, &g);
        bench.run(format!("gt_exponentiation/{name}"), || ctx.gt_pow(&e, &a));
    }
    bench.finish();
}
