//! Distribution points (§VIII future work): regional ingest sites buffer
//! device deposits; the central warehouse pulls integrity-protected batches;
//! receiving clients read from the center as usual.
//!
//! Run with: `cargo run --example distribution_points`

use mws::core::clock::ReplayPolicy;
use mws::core::device::{DeviceCredential, SmartDevice};
use mws::core::registry::DeviceRegistry;
use mws::core::relay::{IngestPoint, RelayPuller};
use mws::core::sda::DeviceAuthVerifier;
use mws::core::{Deployment, DeploymentConfig};
use mws::ibe::CipherAlgo;

fn main() {
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    dep.register_client("c-services", "pw", &["ELECTRIC-WEST", "ELECTRIC-EAST"]);

    // Two regional ingest sites, each with its own device population and
    // its own site↔center relay key. Device ids are global (a deposit
    // binds its id), so each site's meter has its own.
    let mut sites = Vec::new();
    for (site, region) in [("site-west", "WEST"), ("site-east", "EAST")] {
        let mut registry = DeviceRegistry::new();
        registry.register(
            &format!("meter-{region}"),
            format!("{site}-device-key").as_bytes(),
        );
        let relay_key = format!("{site}<->center");
        let point = IngestPoint::new(
            site,
            registry,
            DeviceAuthVerifier::Mac,
            relay_key.as_bytes(),
            dep.clock().clone(),
            ReplayPolicy::Off,
        );
        dep.network().bind(site, point.as_service());
        sites.push((site.to_string(), region.to_string(), relay_key, point));
    }

    // Devices deposit at their *local* site only.
    for (site, region, _, _) in &sites {
        let mut meter = SmartDevice::bootstrap(
            &format!("meter-{region}"),
            DeviceCredential::MacKey(format!("{site}-device-key").into_bytes()),
            CipherAlgo::Aes128,
            dep.clock().clone(),
            42,
            dep.network().client(site),
            &dep.network().client("pkg"),
        )
        .unwrap();
        for n in 0..3 {
            meter
                .deposit(
                    &format!("ELECTRIC-{region}"),
                    format!("{region} reading {n}").as_bytes(),
                )
                .unwrap();
        }
        println!("{site}: 3 deposits buffered locally");
    }
    println!(
        "central warehouse holds {} messages (nothing pulled yet)\n",
        dep.mws().message_count()
    );

    // The center drains both sites.
    for (site, _, relay_key, point) in &sites {
        let mut puller = RelayPuller::new(dep.network().client(site), relay_key.as_bytes());
        let batch = puller.pull(100).unwrap();
        let ids = dep.mws().store_relayed(&batch).unwrap();
        println!(
            "pulled {} entries from {site} -> warehouse ids {:?} ({} left buffered)",
            batch.len(),
            ids,
            point.buffered()
        );
    }

    // One client, one view, both regions.
    let mut rc = dep.client("c-services", "pw");
    let messages = rc.retrieve_and_decrypt(0).unwrap();
    println!(
        "\nc-services reads {} messages across both regions:",
        messages.len()
    );
    for m in &messages {
        println!(
            "  #{}: {}",
            m.message_id,
            String::from_utf8_lossy(&m.plaintext)
        );
    }
    assert_eq!(messages.len(), 6);
    println!("\nOK — distribution points drained into one confidential warehouse.");
}
