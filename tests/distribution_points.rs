//! Integration: §VIII distribution points — devices deposit at a regional
//! ingest site, the central warehouse pulls batches, receiving clients read
//! from the center. End-to-end confidentiality is unchanged: the edge never
//! holds anything decryptable either.

use mws::core::clock::ReplayPolicy;
use mws::core::device::{DeviceCredential, SmartDevice};
use mws::core::registry::DeviceRegistry;
use mws::core::relay::{IngestPoint, RelayPuller};
use mws::core::sda::DeviceAuthVerifier;
use mws::core::{Deployment, DeploymentConfig};
use mws::ibe::CipherAlgo;

/// Builds a central deployment plus one edge site on the same network.
fn setup() -> (Deployment, IngestPoint, Vec<u8>) {
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    dep.register_client("rc", "pw", &["ELECTRIC-WEST"]);

    // The edge site with its own device registry.
    let mut registry = DeviceRegistry::new();
    registry.register("edge-meter", b"edge-device-key");
    let relay_key = b"site-west<->center".to_vec();
    let point = IngestPoint::new(
        "site-west",
        registry,
        DeviceAuthVerifier::Mac,
        &relay_key,
        dep.clock().clone(),
        ReplayPolicy::Off,
    );
    dep.network().bind("ingest-west", point.as_service());
    (dep, point, relay_key)
}

/// A device provisioned against the edge endpoint.
fn edge_device(dep: &Deployment) -> SmartDevice {
    SmartDevice::bootstrap(
        "edge-meter",
        DeviceCredential::MacKey(b"edge-device-key".to_vec()),
        CipherAlgo::Aes128,
        dep.clock().clone(),
        77,
        dep.network().client("ingest-west"),
        &dep.network().client("pkg"),
    )
    .unwrap()
}

#[test]
fn edge_to_center_to_client() {
    let (mut dep, point, relay_key) = setup();
    let mut meter = edge_device(&dep);
    meter.deposit("ELECTRIC-WEST", b"west reading 1").unwrap();
    meter.deposit("ELECTRIC-WEST", b"west reading 2").unwrap();
    assert_eq!(point.buffered(), 2);
    assert_eq!(dep.mws().message_count(), 0, "not yet pulled");

    // The center drains the site.
    let mut puller = RelayPuller::new(dep.network().client("ingest-west"), &relay_key);
    let batch = puller.pull(100).unwrap();
    let ids = dep.mws().store_relayed(&batch).unwrap();
    assert_eq!(ids.len(), 2);
    assert_eq!(dep.mws().message_count(), 2);

    // The RC reads from the center, oblivious to the topology.
    let mut rc = dep.client("rc", "pw");
    let msgs = rc.retrieve_and_decrypt(0).unwrap();
    assert_eq!(msgs.len(), 2);
    assert_eq!(msgs[0].plaintext, b"west reading 1");
    assert_eq!(msgs[1].plaintext, b"west reading 2");
}

#[test]
fn incremental_pulls_deliver_each_message_once() {
    let (mut dep, _point, relay_key) = setup();
    let mut meter = edge_device(&dep);
    let mut puller = RelayPuller::new(dep.network().client("ingest-west"), &relay_key);

    for round in 0..3 {
        meter
            .deposit("ELECTRIC-WEST", format!("round {round}").as_bytes())
            .unwrap();
        let batch = puller.pull(100).unwrap();
        assert_eq!(batch.len(), 1, "round {round}");
        dep.mws().store_relayed(&batch).unwrap();
    }
    assert_eq!(dep.mws().message_count(), 3);
    let mut rc = dep.client("rc", "pw");
    assert_eq!(rc.retrieve_and_decrypt(0).unwrap().len(), 3);
}

#[test]
fn reapplying_a_batch_stores_nothing_twice() {
    let (mut dep, _point, relay_key) = setup();
    let mut meter = edge_device(&dep);
    meter.deposit("ELECTRIC-WEST", b"west reading 1").unwrap();
    meter.deposit("ELECTRIC-WEST", b"west reading 2").unwrap();
    let mut puller = RelayPuller::new(dep.network().client("ingest-west"), &relay_key);
    let batch = puller.pull(100).unwrap();
    let ids = dep.mws().store_relayed(&batch).unwrap();
    // The retry after an apply that failed part-way (or whose outcome was
    // lost): the same entries land on the same rows.
    assert_eq!(dep.mws().store_relayed(&batch).unwrap(), ids);
    assert_eq!(dep.mws().message_count(), 2);
    let mut rc = dep.client("rc", "pw");
    assert_eq!(rc.retrieve_and_decrypt(0).unwrap().len(), 2);
}

#[test]
fn tampered_batch_never_reaches_the_warehouse() {
    let (dep, _point, _relay_key) = setup();
    let mut meter = edge_device(&dep);
    meter.deposit("ELECTRIC-WEST", b"x").unwrap();
    // Puller configured with the wrong key models a MITM re-signing attempt.
    let mut puller = RelayPuller::new(dep.network().client("ingest-west"), b"attacker-key");
    assert!(puller.pull(100).is_err());
    assert_eq!(dep.mws().message_count(), 0);
}

#[test]
fn edge_site_rejects_unknown_devices() {
    let (dep, point, _) = setup();
    // A device with a key the site does not know.
    let rogue = SmartDevice::bootstrap(
        "rogue-meter",
        DeviceCredential::MacKey(b"rogue-key".to_vec()),
        CipherAlgo::Aes128,
        dep.clock().clone(),
        78,
        dep.network().client("ingest-west"),
        &dep.network().client("pkg"),
    )
    .unwrap();
    let mut rogue = rogue;
    assert!(rogue.deposit("ELECTRIC-WEST", b"evil").is_err());
    assert_eq!(point.buffered(), 0);
}
