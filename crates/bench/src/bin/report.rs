//! Experiment report generator: measures the untimed series
//! (wire sizes, message counts, E4 byte costs, figure artifacts) and emits
//! both a human-readable report and machine-readable JSON for
//! EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p mws-bench --bin report`

use mws_bench::Json;
use mws_core::{Deployment, DeploymentConfig};
use mws_crypto::{HmacDrbg, RsaKeyPair};
use mws_ibe::bf::IbeSystem;
use mws_ibe::CipherAlgo;
use mws_pairing::SecurityLevel;
use mws_wire::encode_envelope;

fn deposit_frame_size(level: SecurityLevel, payload: &[u8]) -> usize {
    let mut dep = Deployment::new(DeploymentConfig {
        level,
        ..DeploymentConfig::test_default()
    });
    dep.register_device("sd");
    let mut sd = dep.device("sd");
    let pdu = sd.compose_deposit("ELECTRIC-APT9-SV-CA", payload);
    encode_envelope(&pdu).len()
}

fn main() {
    // --- F2/F4: run the full protocol and account the wire ---
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    dep.register_device("meter");
    dep.register_client("rc", "pw", &["ELECTRIC-APT"]);
    let mut meter = dep.device("meter");
    for i in 0..5 {
        meter
            .deposit("ELECTRIC-APT", format!("kWh={i}").as_bytes())
            .unwrap();
    }
    let mut rc = dep.client("rc", "pw");
    let retrieved = rc.retrieve_and_decrypt(0).unwrap();
    let mws_m = dep.network().metrics("mws").unwrap();
    let pkg_m = dep.network().metrics("pkg").unwrap();
    let (mws_bytes, pkg_bytes) = (mws_m.bytes_total(), pkg_m.bytes_total());

    // --- E4: bytes leaving the device, IBE vs RSA-PKI, vs recipients ---
    let ibe = IbeSystem::named(SecurityLevel::Light);
    let mut rng = HmacDrbg::from_u64(1);
    let (_, mpk) = ibe.setup(&mut rng);
    let msg = b"kWh=42.70;err=none";
    let ibe_ct = ibe.encrypt_attr(
        &mut rng,
        &mpk,
        "ELECTRIC-APT9-SV-CA",
        b"nonce",
        CipherAlgo::Aes128,
        b"",
        msg,
    );
    let ibe_bytes = ibe.pairing().field().point_to_bytes(&ibe_ct.u).len() + ibe_ct.sealed.len();
    let rsa_pub = RsaKeyPair::generate(&mut rng, 1024).unwrap().public;
    let wrapped_key_len = rsa_pub.modulus_len(); // one RSA block per recipient
    let sym_body = msg.len() + 32; // ct + tag
    let mut e4 = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 64, 256] {
        // (recipients, PKI bytes); the IBE side is constant: one ciphertext
        // serves any number of RCs.
        e4.push((n, sym_body + n * wrapped_key_len));
    }

    // --- T1 ---
    let mut t1 = Deployment::new(DeploymentConfig::test_default());
    t1.register_client("IDRC1", "p1", &["A1", "A2"]);
    t1.register_client("IDRC2", "p2", &["A1"]);
    t1.register_client("IDRC3", "p3", &["A3"]);
    t1.register_client("IDRC4", "p4", &["A4"]);
    let t1_rows = t1.mws().policy_table().len();

    // --- Deposit frame sizes per security level ---
    let payload = b"kWh=42.70";
    let frame_toy = deposit_frame_size(SecurityLevel::Toy, payload);
    let frame_light = deposit_frame_size(SecurityLevel::Light, payload);

    println!("== MWS experiment report ==\n");
    println!(
        "F2/F4 protocol: 5 deposits -> {} retrieved+decrypted; \
         MWS {} reqs / {mws_bytes} B; PKG {} reqs / {pkg_bytes} B",
        retrieved.len(),
        mws_m.requests,
        pkg_m.requests,
    );
    println!("\nE4 device wire cost (bytes) vs recipients:");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "recipients", "IBE", "RSA-PKI", "winner"
    );
    for &(recipients, pki_bytes) in &e4 {
        let winner = if ibe_bytes <= pki_bytes { "IBE" } else { "PKI" };
        println!("{recipients:>10} {ibe_bytes:>12} {pki_bytes:>12} {winner:>8}");
    }
    println!("\nT1: {t1_rows} policy rows (matches the paper's 5)");
    println!(
        "\ndeposit frame: {} B payload -> {frame_toy} B (toy) / {frame_light} B (light) on the wire",
        payload.len(),
    );

    let n = |v: usize| Json::int(v as u64);
    let json = Json::obj([
        (
            "f2_f4_protocol",
            Json::obj([
                ("deposits", n(5)),
                ("retrieved", n(retrieved.len())),
                ("mws_requests", Json::int(mws_m.requests)),
                ("mws_bytes", Json::int(mws_bytes)),
                ("pkg_requests", Json::int(pkg_m.requests)),
                ("pkg_bytes", Json::int(pkg_bytes)),
            ]),
        ),
        (
            "e4_wire_bytes",
            Json::Arr(
                e4.iter()
                    .map(|&(recipients, pki_bytes)| {
                        Json::obj([
                            ("recipients", n(recipients)),
                            ("ibe_bytes", n(ibe_bytes)),
                            ("pki_bytes", n(pki_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("t1_rows", n(t1_rows)),
        (
            "deposit_frame_bytes",
            Json::obj([
                ("payload_bytes", n(payload.len())),
                ("frame_bytes_toy", n(frame_toy)),
                ("frame_bytes_light", n(frame_light)),
            ]),
        ),
    ])
    .pretty();
    let path = "target/experiment_report.json";
    std::fs::write(path, &json).expect("write report");
    println!("\nJSON written to {path}");

    // Sanity gates: the shapes EXPERIMENTS.md claims.
    assert_eq!(retrieved.len(), 5);
    assert_eq!(t1_rows, 5);
    assert!(
        e4.last().unwrap().1 > 10 * ibe_bytes,
        "PKI cost must blow past IBE at high recipient counts"
    );
}
