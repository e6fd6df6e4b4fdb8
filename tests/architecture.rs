//! Integration: Figure 3's architecture — each named component exists,
//! carries its stated responsibility, and the composition refuses what the
//! components individually refuse.

use mws::core::clock::{LogicalClock, ReplayPolicy};
use mws::core::gatekeeper::{compose_rc_auth, Gatekeeper};
use mws::core::mms::MessageManagementSystem;
use mws::core::registry::DeviceRegistry;
use mws::core::sda::{deposit_mac, SdAuthenticator};
use mws::core::token::{TicketContent, TokenGenerator};
use mws::crypto::{Digest, HmacDrbg, RsaKeyPair, Sha256};
use mws::store::StorageKind;

#[test]
fn sda_guards_the_message_database() {
    // SD Authenticator: only MAC-valid deposits reach storage.
    let mut registry = DeviceRegistry::new();
    registry.register("sd", b"shared-key");
    let mut sda = SdAuthenticator::new(registry, ReplayPolicy::Off);
    let mut mms = MessageManagementSystem::open(StorageKind::Memory, StorageKind::Memory).unwrap();

    let mac = deposit_mac(b"shared-key", b"U", b"C", "A", b"n", "sd", 0);
    assert!(sda.verify(0, "sd", 0, b"U", b"C", "A", b"n", &mac).is_ok());
    mms.store_message("A", b"n", b"U", 3, b"C", "sd", 0)
        .unwrap();

    let bad_mac = deposit_mac(b"wrong-key", b"U", b"C", "A", b"n2", "sd", 0);
    assert!(sda
        .verify(0, "sd", 0, b"U", b"C", "A", b"n2", &bad_mac)
        .is_err());
    // The composition (tested e2e in protocol tests) discards it; here the
    // contract is that SDA said no.
    assert_eq!(mms.messages().len(), 1);
}

#[test]
fn gatekeeper_fronts_the_user_database() {
    let mut gk = Gatekeeper::open(StorageKind::Memory, ReplayPolicy::Off).unwrap();
    gk.register("rc", "password", b"pubkey").unwrap();
    let mut rng = HmacDrbg::from_u64(1);
    let blob = compose_rc_auth(&mut rng, &Sha256::digest(b"password"), "rc", 0);
    let rec = gk.verify(0, "rc", &blob).unwrap();
    assert_eq!(rec.public_key, b"pubkey");
}

#[test]
fn mms_joins_policy_and_message_databases() {
    let mut mms = MessageManagementSystem::open(StorageKind::Memory, StorageKind::Memory).unwrap();
    mms.store_message("A1", b"n1", b"u", 3, b"c", "sd", 1)
        .unwrap();
    mms.store_message("A2", b"n2", b"u", 3, b"c", "sd", 2)
        .unwrap();
    let aid = mms.grant("IDRC1", "A1").unwrap();
    let rows = mms.retrieve_for("IDRC1", 0, 0).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1, aid);
    assert_eq!(rows[0].0.attribute, "A1");
}

#[test]
fn token_generator_hides_attributes_from_the_rc() {
    // TG: the RC can open the token (session key) but not the ticket.
    let mut rng = HmacDrbg::from_u64(2);
    let rsa = RsaKeyPair::generate(&mut rng, 512).unwrap();
    let tg = TokenGenerator::new(b"mws<->pkg");
    let session_key = TokenGenerator::fresh_session_key(&mut rng);
    let ticket = tg.build_ticket(
        &mut rng,
        &TicketContent {
            rc_id: "rc".into(),
            session_key: session_key.clone(),
            issued_at: 0,
            table: vec![(1, "SECRET-ATTRIBUTE".into())],
        },
    );
    let token = TokenGenerator::build_token(&mut rng, &rsa.public, &session_key, &ticket).unwrap();
    let (got_key, got_ticket) = TokenGenerator::parse_token(&rsa.private, &token).unwrap();
    assert_eq!(got_key, session_key);
    // The ticket is opaque: only the PKG secret opens it.
    assert!(TokenGenerator::open_ticket(&got_key, &got_ticket).is_none());
    let content = TokenGenerator::open_ticket(b"mws<->pkg", &got_ticket).unwrap();
    assert_eq!(content.table[0].1, "SECRET-ATTRIBUTE");
}

#[test]
fn clock_is_shared_infrastructure() {
    let clock = LogicalClock::new();
    let a = clock.clone();
    let b = clock.clone();
    a.advance(3);
    b.advance(4);
    assert_eq!(clock.now(), 7);
}

#[test]
fn deployment_exposes_every_figure3_component() {
    use mws::core::{Deployment, DeploymentConfig};
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    // PKG endpoint answers parameter requests (PKG box).
    let reply = dep
        .network()
        .client("pkg")
        .call(&mws::wire::Pdu::ParamsRequest)
        .unwrap();
    assert!(matches!(reply, mws::wire::Pdu::ParamsResponse { .. }));
    // MWS endpoint rejects nonsense (Gatekeeper/SDA front).
    let reply = dep
        .network()
        .client("mws")
        .call(&mws::wire::Pdu::ParamsRequest)
        .unwrap();
    assert!(matches!(reply, mws::wire::Pdu::Error { code: 400, .. }));
    // Policy table (PD), message count (MD), audit (administrator alerts).
    dep.register_client("rc", "pw", &["A"]);
    assert_eq!(dep.mws().policy_table().len(), 1);
    assert_eq!(dep.mws().message_count(), 0);
    assert_eq!(dep.mws().rejection_count(), 0);
}

/// The build has one dependency universe: this workspace. A registry crate
/// cannot resolve in the containers this builds in, and the stand-in crates
/// that used to be patched over the registry names are gone — this keeps
/// either from growing back.
#[test]
fn every_dependency_is_a_workspace_crate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();

    let lock = read(&root.join("Cargo.lock"));
    assert!(
        !lock.lines().any(|l| l.trim_start().starts_with("source =")),
        "Cargo.lock names a package from outside the workspace"
    );

    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        manifests.push(entry.unwrap().path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "found the member crates");
    for manifest in manifests {
        let mut section = "";
        for line in read(&manifest).lines().map(str::trim) {
            // A dependency is a line of a `[…dependencies]` table, or the
            // last segment of a `[…dependencies.name]` header.
            let dependency = match line.strip_prefix('[') {
                Some(header) => {
                    section = header.trim_end_matches(']');
                    let named = section.rsplit_once('.');
                    named.and_then(|(table, name)| table.ends_with("dependencies").then_some(name))
                }
                None if line.is_empty() || line.starts_with('#') => None,
                None => section.ends_with("dependencies").then_some(line),
            };
            if let Some(dependency) = dependency {
                let manifest = manifest.display();
                assert!(
                    dependency.starts_with("mws-"),
                    "{manifest}: [{section}] {dependency}"
                );
            }
        }
    }
}
