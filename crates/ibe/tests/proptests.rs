//! Property-based tests for the IBE layer.

use mws_crypto::HmacDrbg;
use mws_ibe::bf::IbeSystem;
use mws_ibe::CipherAlgo;
use mws_pairing::SecurityLevel;
use mws_prop::cases;

fn system() -> IbeSystem {
    IbeSystem::named(SecurityLevel::Toy)
}

#[test]
fn basic_roundtrip_any_message() {
    cases(16, |g| {
        (
            g.bytes(0..500),
            g.string("abcdefghijklmnopqrstuvwxyz0123456789@.-", 1..41),
            g.u64(),
        )
    })
    .check(|(msg, id, seed)| {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(seed);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_basic(&mut rng, &mpk, id.as_bytes(), &msg);
        let sk = ibe.extract(&msk, id.as_bytes());
        assert_eq!(ibe.decrypt_basic(&sk, &ct).unwrap(), msg);
    });
}

#[test]
fn full_roundtrip_any_message() {
    cases(16, |g| (g.bytes(0..500), g.u64())).check(|(msg, seed)| {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(seed);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_full(&mut rng, &mpk, b"id", &msg);
        let sk = ibe.extract(&msk, b"id");
        assert_eq!(ibe.decrypt_full(&sk, &ct).unwrap(), msg);
    });
}

#[test]
fn full_tamper_always_rejected() {
    cases(16, |g| (g.bytes(1..200), g.u16())).check(|(msg, flip)| {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, mpk) = ibe.setup(&mut rng);
        let mut ct = ibe.encrypt_full(&mut rng, &mpk, b"id", &msg);
        // Flip one bit somewhere in (v ‖ w).
        let total_bits = (32 + ct.w.len()) * 8;
        let pos = (flip as usize) % total_bits;
        if pos < 32 * 8 {
            ct.v[pos / 8] ^= 1 << (pos % 8);
        } else {
            let p = pos - 32 * 8;
            ct.w[p / 8] ^= 1 << (p % 8);
        }
        let sk = ibe.extract(&msk, b"id");
        assert!(ibe.decrypt_full(&sk, &ct).is_err());
    });
}

#[test]
fn attr_scheme_roundtrip() {
    cases(16, |g| {
        (
            g.bytes(0..300),
            g.string("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-", 1..31),
            g.bytes(1..24),
            g.size(0..5),
        )
    })
    .check(|(msg, attr, nonce, algo_idx)| {
        let algos = [
            CipherAlgo::Des,
            CipherAlgo::TripleDes,
            CipherAlgo::Aes128,
            CipherAlgo::Aes256,
            CipherAlgo::ChaCha20,
        ];
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(2);
        let (msk, mpk) = ibe.setup(&mut rng);
        let ct = ibe.encrypt_attr(&mut rng, &mpk, &attr, &nonce, algos[algo_idx], b"aad", &msg);
        let sk = ibe.extract_point(&msk, &ibe.attribute_point(&attr, &nonce));
        assert_eq!(ibe.decrypt_attr(&sk, &ct, b"aad").unwrap(), msg);
    });
}

#[test]
fn threshold_any_t_of_n() {
    cases(16, |g| (g.int(1..5) as u32, g.int(0..3) as u32, g.u64())).check(
        |(t, extra, pick_seed)| {
            let n = t + extra;
            let ibe = system();
            let mut rng = HmacDrbg::from_u64(3);
            let (msk, _) = ibe.setup(&mut rng);
            let shares = ibe.share_master(&mut rng, &msk, t, n).unwrap();
            let q_id = ibe.identity_point(b"attr|n");
            let expect = ibe.extract(&msk, b"attr|n");
            // Pick t distinct share indices pseudo-randomly.
            let mut order: Vec<usize> = (0..n as usize).collect();
            let mut s = pick_seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (s as usize) % (i + 1));
            }
            let partials: Vec<_> = order[..t as usize]
                .iter()
                .map(|&i| ibe.partial_extract(&shares[i], &q_id))
                .collect();
            assert_eq!(ibe.combine_partial_keys(&partials).unwrap(), expect);
        },
    );
}

#[test]
fn bls_never_cross_verifies() {
    cases(16, |g| (g.bytes(1..60), g.bytes(1..60))).check(|(msg1, msg2)| {
        if msg1 == msg2 {
            return;
        }
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(4);
        let kp = ibe.bls_keygen(&mut rng);
        let sig = ibe.bls_sign(&kp, &msg1);
        assert!(ibe.bls_verify(&kp.pk, &msg1, &sig).is_ok());
        assert!(ibe.bls_verify(&kp.pk, &msg2, &sig).is_err());
    });
}
