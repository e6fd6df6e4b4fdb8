//! E1 — wall time per protocol phase (Fig. 4's three phases).
//!
//! Regenerates: per-phase latency rows for SD–MWS (deposit), MWS–RC
//! (authenticated retrieval incl. token/ticket) and RC–PKG (session open +
//! key fetch + decrypt), at two parameter sizes.

use mws_bench::Bench;
use mws_core::clock::ReplayPolicy;
use mws_core::device::SmartDevice;
use mws_core::{Deployment, DeploymentConfig};
use mws_pairing::SecurityLevel;

fn config(level: SecurityLevel) -> DeploymentConfig {
    DeploymentConfig {
        level,
        // Benches re-run identical operations; the replay guard would
        // (correctly) reject them, so run with the prototype's policy.
        replay: ReplayPolicy::Off,
        ..DeploymentConfig::test_default()
    }
}

/// A deployment with device `sd` (handle returned) and client `rc`/`pw`
/// granted attribute `A`.
fn provisioned(level: SecurityLevel) -> (Deployment, SmartDevice) {
    let mut dep = Deployment::new(config(level));
    dep.register_device("sd");
    dep.register_client("rc", "pw", &["A"]);
    let sd = dep.device("sd");
    (dep, sd)
}

fn main() {
    let mut bench = Bench::new("e1_protocol_phases");

    for (name, level) in [("toy", SecurityLevel::Toy), ("light", SecurityLevel::Light)] {
        // Phase SD–MWS: one deposit, end to end over the wire.
        {
            let (_dep, mut sd) = provisioned(level); // `_dep` keeps the servers up
            bench.run(format!("sd_mws_deposit/{name}"), || {
                sd.deposit("A", b"kWh=42.70").unwrap()
            });
        }

        // Phase MWS–RC: authenticated retrieval (token + ticket + rows),
        // no PKG interaction.
        {
            let (mut dep, mut sd) = provisioned(level);
            for _ in 0..10 {
                sd.deposit("A", b"kWh=42.70").unwrap();
            }
            let mut rc = dep.client("rc", "pw");
            bench.run(format!("mws_rc_retrieve/{name}"), || {
                let (token, messages) = rc.retrieve(0).unwrap();
                assert_eq!(messages.len(), 10);
                token
            });
        }

        // Phase RC–PKG: open session, fetch one key, decrypt one message.
        {
            let (mut dep, mut sd) = provisioned(level);
            sd.deposit("A", b"kWh=42.70").unwrap();
            let mut rc = dep.client("rc", "pw");
            let (token, messages) = rc.retrieve(0).unwrap();
            let msg = messages[0].clone();
            bench.run(format!("rc_pkg_key_and_decrypt/{name}"), || {
                let session = rc.open_pkg_session(&token).unwrap();
                let sk = rc.fetch_key(&session, msg.aid, &msg.nonce).unwrap();
                rc.decrypt_message(&msg, &sk).unwrap()
            });
        }

        // Whole pipeline for one message (sum of the three phases).
        {
            let (mut dep, mut sd) = provisioned(level);
            let mut rc = dep.client("rc", "pw");
            let mut since = 0u64;
            bench.run(format!("full_pipeline/{name}"), || {
                dep.clock().advance(1);
                let now = dep.clock().now();
                sd.deposit("A", b"kWh=42.70").unwrap();
                let got = rc.retrieve_and_decrypt(since).unwrap();
                assert_eq!(got.len(), 1);
                since = now + 1;
            });
        }
    }
    bench.finish();
}
