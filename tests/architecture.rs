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

/// Non-test lines of every `.rs` file under `dirs` (relative to the repo
/// root), with the file they came from: code up to a file's
/// `#[cfg(test)]` module, comment lines dropped.
fn code_lines(dirs: &[&str]) -> Vec<(std::path::PathBuf, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = dirs.iter().map(|d| root.join(d)).collect();
    let mut lines = Vec::new();
    while let Some(path) = paths.pop() {
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("tests") {
                paths.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let code = text.split("\n#[cfg(test)]").next().unwrap();
            for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
                lines.push((path.clone(), line.to_string()));
            }
        }
    }
    lines
}

/// Both ends of a connection drive one byte-stream layer: framing, the
/// handshake and the record layer are driven from the server's link module
/// alone, which the server's `Conn` and the `TcpClient` both hold; the
/// drivers move bytes. The blocking readers and the second handshake
/// driver that the client used to run are gone from the whole tree.
#[test]
fn one_connection_state_machine_in_the_server() {
    let (link, rest): (Vec<_>, Vec<_>) = code_lines(&["crates/server/src"])
        .into_iter()
        .partition(|(path, _)| path.ends_with("link.rs"));
    assert!(
        !link.is_empty() && rest.len() > 1000,
        "found the server sources"
    );
    for (path, line) in rest {
        for owned in ["StreamDecoder", "RecordDecoder", "Handshaker"] {
            assert!(
                !line.contains(owned),
                "{}: `{owned}` outside link.rs: {line}",
                path.display()
            );
        }
    }
    for (path, line) in code_lines(&["crates", "src", "examples", "benchmark/src"]) {
        for gone in ["SecureChannel", "read_raw_frame"] {
            assert!(
                !line.contains(gone),
                "{}: `{gone}` is back: {line}",
                path.display()
            );
        }
    }
}

/// The cluster's write path runs on the router's calling thread: a replica
/// wave forwards to its targets one after another, with no thread per
/// wave. The one thread the router starts on its own is the background
/// arc-transfer worker of a membership change (the health prober is built
/// with `thread::Builder` and named).
#[test]
fn cluster_write_path_spawns_no_threads() {
    let mut spawns = Vec::new();
    let mut in_fn = String::new();
    for (path, line) in code_lines(&["crates/cluster/src"]) {
        if let Some((_, rest)) = line.split_once("fn ") {
            in_fn = rest.split(['(', '<']).next().unwrap().to_string();
        }
        let file = path.file_name().unwrap().to_string_lossy();
        assert!(
            !line.contains("thread::scope"),
            "{file}: scoped threads in the cluster: {line}"
        );
        if line.contains("thread::spawn") {
            spawns.push(format!("{file}::{in_fn}"));
        }
    }
    assert_eq!(spawns, ["router.rs::start_transfers"]);
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

/// `mws-crypto` and `mws-net` hold what the protocol runs and nothing else:
/// every name each crate's `lib.rs` re-exports is named by some code outside
/// that crate (the workspace, `examples/`, `tests/`, `benchmark/src`), so a
/// primitive or transport only its own unit tests reach cannot grow back.
/// Types reached only through signatures are exempt: `*Error` types, and
/// `LinkMetrics`, which callers receive from `Network::metrics`.
#[test]
fn every_crypto_export_has_a_caller_outside_the_crate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let names = |line: &str, name: &str| {
        line.match_indices(name).any(|(at, _)| {
            let before = line[..at].chars().next_back();
            let after = line[at + name.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    };
    for krate in ["crates/crypto", "crates/net"] {
        let lib = std::fs::read_to_string(root.join(krate).join("src/lib.rs")).unwrap();
        let mut exports = Vec::new();
        for stmt in lib.split("pub use ").skip(1) {
            let path = stmt.split(';').next().unwrap();
            let names = match path.split_once('{') {
                Some((_, group)) => group.trim_end_matches('}'),
                None => path.rsplit("::").next().unwrap(),
            };
            exports.extend(names.split(',').map(str::trim).filter(|n| !n.is_empty()));
        }
        assert!(
            exports.len() > 5,
            "parsed {krate}'s re-exports: {exports:?}"
        );

        let mut code = Vec::new();
        let mut dirs: Vec<_> = ["src", "tests", "examples", "crates", "benchmark/src"]
            .iter()
            .map(|d| root.join(d))
            .collect();
        while let Some(path) = dirs.pop() {
            if path.is_dir() {
                if !path.ends_with(krate) && !path.ends_with("target") {
                    dirs.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                code.extend(
                    text.lines()
                        .filter(|l| !l.trim_start().starts_with("//"))
                        .map(str::to_owned),
                );
            }
        }
        let unused: Vec<_> = exports
            .iter()
            .filter(|name| !name.ends_with("Error") && **name != "LinkMetrics")
            .filter(|name| !code.iter().any(|line| names(line, name)))
            .collect();
        assert!(
            unused.is_empty(),
            "{krate} exports no caller outside the crate names: {unused:?}"
        );
    }
}

/// One deposit path: the warehouse stores every deposit through the
/// store's group commit (`deposit_batch`), never row by row, and the
/// cluster router's write wave is the only forwarder of deposits — besides
/// the retrieve fan-out, it is the one function that calls `fan_out`.
#[test]
fn one_deposit_path() {
    for (path, line) in code_lines(&["crates/core/src"]) {
        assert!(
            !line.contains("store.deposit("),
            "{}: a row-by-row store deposit: {line}",
            path.display()
        );
    }
    let mut callers = Vec::new();
    let mut in_fn = String::new();
    for (_, line) in code_lines(&["crates/cluster/src/router.rs"]) {
        if let Some((_, rest)) = line.split_once("fn ") {
            in_fn = rest.split(['(', '<']).next().unwrap().to_string();
        }
        if line.contains("fan_out(") && !line.contains("fn fan_out(") {
            callers.push(in_fn.clone());
        }
    }
    assert_eq!(callers, ["write_wave", "fan_retrieve"]);
}

/// Rows move between nodes over one plane. Distribution points and the
/// cluster replicas both answer `ReplicaPull` (no `Relay*` PDU is left),
/// the pull is built in one function — the shared pager every row
/// transfer calls — and the only MAC inputs over `RelayEntry` rows are
/// `mws-wire`'s.
#[test]
fn one_row_plane() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs = ["src", "examples", "crates", "benchmark/src"];
    let mut files: std::collections::BTreeMap<String, String> = Default::default();
    for (path, line) in code_lines(&dirs) {
        let path = path.strip_prefix(root).unwrap().display().to_string();
        let text = files.entry(path).or_default();
        text.push_str(&line);
        text.push('\n');
    }
    let mut builders = Vec::new();
    for (path, text) in &files {
        assert!(!text.contains("Pdu::Relay"), "{path}: a Relay* PDU");
        // A `Pdu::ReplicaPull { .. }` whose braces are followed by `=>`,
        // `|` or a `let` binding's `=` is a pattern; any other builds a
        // request (the codec's decoder aside).
        let built = if path == "crates/wire/src/pdu.rs" {
            ""
        } else {
            text.as_str()
        };
        for (at, _) in built.match_indices("Pdu::ReplicaPull {") {
            let body = &text[at..];
            let mut depth = 0;
            let close = body
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '{' => 1,
                        '}' => -1,
                        _ => 0,
                    };
                    c == '}' && depth == 0
                })
                .unwrap()
                .0;
            let after = body[close + 1..].trim_start();
            if after.starts_with(['=', '|']) {
                continue;
            }
            let before = &text[..at];
            let name = before[before.rfind("fn ").unwrap() + 3..]
                .split(['(', '<'])
                .next()
                .unwrap();
            builders.push(format!("{path}::{name}"));
        }
        // A function taking `RelayEntry` rows and returning bytes computes
        // a MAC input.
        if path != "crates/wire/src/pdu.rs" {
            for sig in text.split("fn ").skip(1) {
                let sig = &sig[..sig.find('{').unwrap_or(sig.len())];
                assert!(
                    !(sig.contains("RelayEntry") && sig.contains("-> Vec<u8>")),
                    "{path}: a MAC input over rows outside mws-wire: fn {sig}"
                );
            }
        }
    }
    let pdu = &files["crates/wire/src/pdu.rs"];
    let variants = &pdu[pdu.find("pub enum Pdu {").unwrap()..];
    let variants = &variants[..variants.find("\n}").unwrap()];
    assert!(
        !variants
            .lines()
            .any(|l| l.trim_start().starts_with("Relay")),
        "a Relay* variant in Pdu"
    );
    assert_eq!(builders, ["crates/net/src/rows.rs::pull_rows"]);
}

/// A request runs on the server's event loop only if its service says it
/// may, and only the memory-backed warehouse says so: `fn runs_inline` is
/// the trait's `false` default in `mws-net` and the warehouse's override,
/// nowhere else outside tests. A pairing or network-bound service cannot
/// quietly move onto the loop thread.
#[test]
fn only_the_memory_warehouse_runs_on_the_loop() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defined: Vec<_> = code_lines(&["src", "examples", "crates", "benchmark/src"])
        .into_iter()
        .filter(|(_, line)| line.contains("fn runs_inline"))
        .map(|(path, _)| path.strip_prefix(root).unwrap().display().to_string())
        .collect();
    defined.sort();
    defined.dedup();
    assert_eq!(
        defined,
        ["crates/core/src/protocol.rs", "crates/net/src/bus.rs"]
    );
}
