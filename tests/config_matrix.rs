//! Integration: the deployment option matrix — every combination of
//! device-auth mode, threshold PKG, replay policy and parameter level must
//! run the full protocol correctly.

use mws::core::clock::ReplayPolicy;
use mws::core::protocol::DeviceAuthMode;
use mws::core::{Deployment, DeploymentConfig};
use mws::ibe::CipherAlgo;
use mws::net::{FaultConfig, LatencyModel};
use mws::pairing::SecurityLevel;

fn exercise(mut dep: Deployment, tag: &str) {
    dep.register_device("m");
    dep.register_client("rc", "pw", &["ATTR-X"]);
    let mut meter = dep.device("m");
    meter.deposit("ATTR-X", b"payload-1").unwrap();
    dep.clock().advance(1);
    meter.deposit("ATTR-X", b"payload-2").unwrap();
    let mut rc = dep.client("rc", "pw");
    let msgs = rc.retrieve_and_decrypt(0).unwrap();
    assert_eq!(msgs.len(), 2, "{tag}");
    assert_eq!(msgs[0].plaintext, b"payload-1", "{tag}");
    assert_eq!(msgs[1].plaintext, b"payload-2", "{tag}");
}

#[test]
fn auth_mode_times_threshold_matrix() {
    for device_auth in [DeviceAuthMode::Mac, DeviceAuthMode::Ibs] {
        for threshold in [None, Some((2, 3)), Some((1, 1)), Some((3, 3))] {
            let config = DeploymentConfig {
                device_auth,
                threshold,
                ..DeploymentConfig::test_default()
            };
            exercise(
                Deployment::new(config),
                &format!("auth={device_auth:?} threshold={threshold:?}"),
            );
        }
    }
}

#[test]
fn replay_policy_matrix() {
    for replay in [
        ReplayPolicy::Off,
        ReplayPolicy::standard(),
        ReplayPolicy::Window {
            window: 1,
            cache: 4,
        },
    ] {
        let config = DeploymentConfig {
            replay: replay.clone(),
            ..DeploymentConfig::test_default()
        };
        exercise(Deployment::new(config), &format!("replay={replay:?}"));
    }
}

#[test]
fn light_parameters_end_to_end() {
    // One pass at the larger (integration-grade) curve, under the paper's
    // cipher (the default AES-128 runs at Toy everywhere else).
    let config = DeploymentConfig {
        level: SecurityLevel::Light,
        algo: CipherAlgo::Des,
        ..DeploymentConfig::test_default()
    };
    exercise(Deployment::new(config), "light");
}

#[test]
fn modeled_wan_latency_accumulates() {
    let config = DeploymentConfig {
        mws_fault: FaultConfig {
            // A WAN-ish profile (20 ms RTT halves, ~10 Mbit/s).
            latency: LatencyModel {
                base_us: 10_000,
                per_byte_ns: 800,
            },
            ..Default::default()
        },
        pkg_fault: FaultConfig {
            latency: LatencyModel {
                base_us: 5_000,
                per_byte_ns: 100,
            },
            ..Default::default()
        },
        ..DeploymentConfig::test_default()
    };
    let mut dep = Deployment::new(config);
    dep.register_device("m");
    dep.register_client("rc", "pw", &["A"]);
    let mut meter = dep.device("m");
    meter.deposit("A", b"x").unwrap();
    let mut rc = dep.client("rc", "pw");
    rc.retrieve_and_decrypt(0).unwrap();
    let mws = dep.network().metrics("mws").unwrap();
    let pkg = dep.network().metrics("pkg").unwrap();
    // Each request crosses two legs; the deposit + retrieve hit the MWS,
    // bootstrap/params + auth + key fetch hit the PKG.
    assert!(
        mws.virtual_us >= 2 * 10_000 * mws.requests,
        "mws virtual clock"
    );
    assert!(
        pkg.virtual_us >= 2 * 5_000 * pkg.requests,
        "pkg virtual clock"
    );
    // The modeled time is bookkeeping, not wall time: the test itself ran
    // far faster than the ~60 modeled milliseconds.
}

#[test]
fn durable_plus_threshold_plus_ibs() {
    // The kitchen sink: durable storage + threshold PKG + IBS deposits.
    let dir = std::env::temp_dir().join(format!("mws-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = DeploymentConfig {
        storage_dir: Some(dir.clone()),
        threshold: Some((2, 3)),
        device_auth: DeviceAuthMode::Ibs,
        ..DeploymentConfig::test_default()
    };
    exercise(Deployment::new(config.clone()), "kitchen-sink");
    // Restart: messages survive.
    let dep = Deployment::new(config);
    assert_eq!(dep.mws().message_count(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
