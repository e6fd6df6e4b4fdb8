//! E6 — requirement iii (revocation): cost of policy changes and the D4
//! ablation (the per-message nonce that makes revocation work vs. a
//! hypothetical shared attribute key).

use mws_bench::Bench;
use mws_core::{Deployment, DeploymentConfig};
use mws_crypto::HmacDrbg;
use mws_ibe::bf::IbeSystem;
use mws_ibe::CipherAlgo;
use mws_pairing::SecurityLevel;

fn main() {
    let mut bench = Bench::new("e6_revocation");

    // Administrative cost: revoke + re-grant one row in a populated table.
    // (Deployment built once, outside the timed routine.)
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    for i in 0..200 {
        dep.register_client(&format!("rc{i}"), "pw", &[&format!("A{i}")]);
    }
    bench.run("revoke_and_regrant", || {
        dep.mws().revoke("rc100", "A100").unwrap();
        dep.mws().grant("rc100", "A100").unwrap();
    });

    // D4 ablation, crypto-level: with per-message nonces every message
    // costs Extract + pairing at the RC; with a (revocation-less) shared
    // attribute key the pairing result could be cached. The gap is the
    // price of revocation.
    let ibe = IbeSystem::named(SecurityLevel::Light);
    let mut rng = HmacDrbg::from_u64(1);
    let (msk, mpk) = ibe.setup(&mut rng);
    let n_messages = 8usize;

    // Fresh nonce per message (the paper's design).
    let fresh: Vec<_> = (0..n_messages)
        .map(|i| {
            let nonce = format!("nonce-{i}");
            let ct = ibe.encrypt_attr(
                &mut rng,
                &mpk,
                "ATTR",
                nonce.as_bytes(),
                CipherAlgo::Aes128,
                b"",
                b"reading",
            );
            (nonce, ct)
        })
        .collect();

    bench.run(
        format!("decrypt_with_per_message_keys/{n_messages}"),
        || {
            for (nonce, ct) in &fresh {
                let i_pt = ibe.attribute_point("ATTR", nonce.as_bytes());
                let sk = ibe.extract_point(&msk, &i_pt);
                ibe.decrypt_attr(&sk, ct, b"").unwrap();
            }
        },
    );

    // Shared nonce (ablation: no revocation granularity, one key reused).
    let shared: Vec<_> = (0..n_messages)
        .map(|_| {
            ibe.encrypt_attr(
                &mut rng,
                &mpk,
                "ATTR",
                b"shared-nonce",
                CipherAlgo::Aes128,
                b"",
                b"reading",
            )
        })
        .collect();
    let shared_key = ibe.extract_point(&msk, &ibe.attribute_point("ATTR", b"shared-nonce"));

    bench.run(format!("decrypt_with_shared_key/{n_messages}"), || {
        for ct in &shared {
            ibe.decrypt_attr(&shared_key, ct, b"").unwrap();
        }
    });

    bench.finish();
}
