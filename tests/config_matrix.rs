//! Integration: the deployment option matrix — every combination of
//! device-auth mode, threshold PKG, replay policy and parameter level must
//! run the full protocol correctly.

use mws::core::clock::ReplayPolicy;
use mws::core::protocol::DeviceAuthMode;
use mws::core::{Deployment, DeploymentConfig};
use mws::ibe::CipherAlgo;
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
