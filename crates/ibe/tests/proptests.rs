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
fn attr_scheme_roundtrip() {
    cases(16, |g| {
        (
            g.bytes(0..300),
            g.string("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-", 1..31),
            g.bytes(1..24),
            g.size(0..2),
        )
    })
    .check(|(msg, attr, nonce, algo_idx)| {
        let algos = [CipherAlgo::Des, CipherAlgo::Aes128];
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
