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
use mws::store::{PendingDeposit, StorageKind};

#[test]
fn sda_guards_the_message_database() {
    // SD Authenticator: only MAC-valid deposits reach storage.
    let mut registry = DeviceRegistry::new();
    registry.register("sd", b"shared-key");
    let mut sda = SdAuthenticator::new(registry, ReplayPolicy::Off);
    let mms = MessageManagementSystem::open(StorageKind::Memory, StorageKind::Memory).unwrap();

    let mac = deposit_mac(b"shared-key", b"U", b"C", "A", b"n", "sd", 0);
    assert!(sda.verify(0, "sd", 0, b"U", b"C", "A", b"n", &mac).is_ok());
    store(&mms, "A", b"n", 0);

    let bad_mac = deposit_mac(b"wrong-key", b"U", b"C", "A", b"n2", "sd", 0);
    assert!(sda
        .verify(0, "sd", 0, b"U", b"C", "A", b"n2", &bad_mac)
        .is_err());
    // The composition (tested e2e in protocol tests) discards it; here the
    // contract is that SDA said no.
    assert_eq!(mms.messages().len(), 1);
}

/// Stores one row in the MMS's message database through its store handle's
/// one deposit path.
fn store(mms: &MessageManagementSystem, attribute: &str, nonce: &[u8], timestamp: u64) {
    let row = PendingDeposit {
        attribute: attribute.into(),
        nonce: nonce.to_vec(),
        u: b"U".to_vec(),
        algo: 3,
        sealed: b"C".to_vec(),
        sd_id: "sd".into(),
        timestamp,
    };
    mms.store_handle().deposit(&row).unwrap();
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
    store(&mms, "A1", b"n1", 1);
    store(&mms, "A2", b"n2", 2);
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

/// Every `.rs` file under `dirs` (relative to the repo root), outside
/// `target` and `tests` directories.
fn rust_files(dirs: &[&str]) -> Vec<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = dirs.iter().map(|d| root.join(d)).collect();
    let mut files = Vec::new();
    while let Some(path) = paths.pop() {
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("tests") {
                paths.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// Non-test lines of every `.rs` file under `dirs` (relative to the repo
/// root), with the file they came from: code up to a file's
/// `#[cfg(test)]` module, comment lines dropped.
fn code_lines(dirs: &[&str]) -> Vec<(std::path::PathBuf, String)> {
    let mut lines = Vec::new();
    for path in rust_files(dirs) {
        let text = std::fs::read_to_string(&path).unwrap();
        let code = text.split("\n#[cfg(test)]").next().unwrap();
        for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
            lines.push((path.clone(), line.to_string()));
        }
    }
    lines
}

/// The non-test code of every `.rs` file under `dirs`, by path relative to
/// the repo root: every line but comments (trailing ones too), `pub use`
/// statements and the items `#[cfg(test)]` gates, wherever in the file
/// they sit.
fn non_test_code(dirs: &[&str]) -> std::collections::BTreeMap<String, Vec<String>> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = std::collections::BTreeMap::new();
    for path in rust_files(dirs) {
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines().filter(|l| !l.trim_start().starts_with("//"));
        let mut kept = Vec::new();
        while let Some(line) = lines.next() {
            let reexport = line.trim().starts_with("pub use ");
            // A `pub use` runs to its `;`; a gated item to the `}` that
            // closes it, or to its `;` if it opens no block.
            let (mut depth, mut opened) = (0, false);
            let mut ends = |l: &str| {
                depth += l.matches('{').count() as i32 - l.matches('}').count() as i32;
                opened |= l.contains('{');
                let semicolon = l.trim_end().ends_with(';');
                if reexport {
                    semicolon
                } else {
                    depth <= 0 && (opened || semicolon)
                }
            };
            if reexport {
                if !ends(line) {
                    lines.by_ref().find(|l| ends(l));
                }
            } else if line.trim() == "#[cfg(test)]" {
                lines.by_ref().find(|l| ends(l));
            } else {
                kept.push(line.split(" // ").next().unwrap().to_string());
            }
        }
        let path = path.strip_prefix(root).unwrap().display().to_string();
        files.insert(path, kept);
    }
    files
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

/// One seeded network fault model: `FaultyTransport` draws every drop,
/// duplicate and reset, over the in-process bus and TCP alike. The bus is
/// a plain wire, so no other non-test code builds a fault decider.
#[test]
fn one_network_fault_model() {
    let deciders: Vec<String> = non_test_code(&["crates", "src", "examples", "benchmark/src"])
        .into_iter()
        .filter(|(_, lines)| lines.iter().any(|l| l.contains("FaultState::new(")))
        .map(|(path, _)| path)
        .collect();
    assert_eq!(deciders, ["crates/net/src/transport.rs"]);
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

/// Every `pub` item of the library crates has a caller in non-test code
/// outside the file that defines it, so code that only its own tests reach
/// cannot grow back. An item is a `pub` (not `pub(crate)`) `fn`, `const`,
/// `static`, `struct`, `enum`, `trait` or `type` in `crates/*/src`, binaries
/// aside; a caller is a whole-word mention of its name in non-test code
/// (`crates/*/src` with the binaries, `crates/bench/benches`, `src/`,
/// `examples/`, `benchmark/src`) of another file. The benches and
/// `crypto_bench` time library code rather than run it, so they count as
/// callers of `mws-bench`'s own items only. Comments, doctests, `pub use`
/// lines, `tests/` directories and `#[cfg(test)]` code do not count. An
/// item that loses `pub` is rustc's `dead_code` lint's to police.
///
/// The exemption lists below are the rest, and each entry must still name
/// an item the rule needs to exempt. Beside it, `mws-crypto` and `mws-net`
/// hold what the protocol runs and nothing else: every name each crate's
/// `lib.rs` re-exports is named by some code outside that crate (the
/// workspace, `examples/`, `tests/`, `benchmark/src`).
#[test]
fn every_public_item_has_a_non_test_caller() {
    // The property-test harness: a dev-dependency whose callers are tests.
    const TEST_CRATES: &[&str] = &["crates/prop/"];
    // Names too generic to match as text: a mention of `new` says nothing
    // about which `new` it calls.
    const GENERIC: &[&str] = &["new", "len", "is_empty", "get", "open"];
    // Timing harnesses: a library item that only they name is one the
    // deployment never runs.
    const BENCH_ONLY: &[&str] = &[
        "crates/bench/benches/",
        "crates/bench/src/bin/crypto_bench.rs",
    ];
    // Types reached only through signatures: callers receive or pass them
    // (a return value, a trait object, a config field, an error) without
    // naming them.
    const THROUGH_SIGNATURES: &[&str] = &[
        "crates/bench/src/workload.rs::Reading",
        "crates/core/src/client.rs::RetrievedMessage",
        "crates/core/src/policy.rs::PatternError",
        "crates/core/src/protocol.rs::DeviceAuthMode",
        "crates/ibe/src/threshold.rs::PartialKey",
        "crates/obs/src/level.rs::ParseLevelError",
        "crates/obs/src/log.rs::Sink",
        "crates/obs/src/log.rs::Value",
        "crates/obs/src/metrics.rs::Registry",
        "crates/server/src/chaos.rs::ChaosStats",
        "crates/server/src/daemon.rs::FlagError",
        "crates/wire/src/secure.rs::Established",
    ];
    // Test hooks: reached only by tests, on purpose.
    #[rustfmt::skip]
    const TEST_HOOKS: &[(&str, &str)] = &[
        ("crates/bigint/src/arith.rs::pow_mod", "mont_matches_oracles_at_every_width_of_u256's oracle"),
        ("crates/bigint/src/cost.rs::Cost", "tests/cost_model.rs reads the counts"),
        ("crates/bigint/src/mont.rs::from_mont", "mont_matches_oracles_at_every_width_of_u256 reads results"),
        ("crates/cluster/src/router.rs::hint_board", "cluster suites inspect queued hints"),
        ("crates/cluster/src/router.rs::node_states", "cluster suites read router liveness"),
        ("crates/core/src/device.rs::compose_deposit_batch", "the chaos suite hand-sends a batch"),
        ("crates/crypto/src/cost.rs::HashCost", "tests/cost_model.rs reads the counts"),
        ("crates/core/src/protocol.rs::disable_device", "§III revocation; no daemon flag yet"),
        ("crates/net/src/bus.rs::unbind", "cluster tests take a node off the bus"),
        ("crates/net/src/transport.rs::FaultyTransport", "the chaos suite's lossy links"),
        ("crates/obs/src/log.rs::RingSink", "tests capture log events in it"),
        ("crates/pairing/src/curve.rs::point_mul_binary", "the ladder's oracle in ladder_matches_binary_on_full_group_points"),
        ("crates/pairing/src/fp2.rs::fp2_pow_binary", "gt_pow's oracle in fixed_base_matches_binary"),
        ("crates/server/src/chaos.rs::ChaosConfig", "the chaos suite's fault schedule"),
        ("crates/server/src/chaos.rs::ChaosProxy", "the chaos suite's faulty TCP relay"),
        ("crates/server/src/cost.rs::FrameCost", "tests/cost_model.rs reads the counts"),
        ("crates/server/src/secure.rs::ID_PKG", "what a secure PKG client expects"),
        ("crates/store/src/cost.rs::WalCost", "tests/cost_model.rs reads the counts"),
        ("crates/store/src/fault.rs::fail_append", "a FaultPlan injector"),
        ("crates/store/src/fault.rs::fail_sync", "a FaultPlan injector"),
        ("crates/store/src/fault.rs::syncs", "the FaultPlan's fsync count"),
        ("crates/store/src/fault.rs::tear_append", "a FaultPlan injector"),
        ("crates/store/src/shard.rs::shard_len", "the chaos suite counts rows per shard"),
    ];

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let files = non_test_code(&["crates", "src", "examples", "benchmark/src"]);
    let words: std::collections::BTreeMap<&String, std::collections::BTreeSet<&str>> = files
        .iter()
        .map(|(path, lines)| {
            let words = lines.iter().flat_map(|l| l.split(|c| !is_ident(c)));
            (path, words.filter(|w| !w.is_empty()).collect())
        })
        .collect();

    let mut items = Vec::new();
    for (path, lines) in &files {
        let library = path.starts_with("crates/") && path.contains("/src/");
        if !library || path.contains("/src/bin/") || TEST_CRATES.iter().any(|c| path.starts_with(c))
        {
            continue;
        }
        for line in lines {
            let Some(decl) = line.trim().strip_prefix("pub ") else {
                continue;
            };
            let mut tokens = decl
                .split(|c| !is_ident(c))
                .filter(|t| !["", "unsafe", "async", "mut"].contains(t))
                .skip_while(|&t| t == "const" && decl.starts_with("const fn"));
            let kind = tokens.next().unwrap_or_default();
            let kinds = ["fn", "const", "static", "struct", "enum", "trait", "type"];
            if let (true, Some(name)) = (kinds.contains(&kind), tokens.next()) {
                if !GENERIC.contains(&name) {
                    items.push((path.clone(), name.to_string()));
                }
            }
        }
    }
    assert!(
        items.len() > 500,
        "found the library items: {}",
        items.len()
    );

    let uncalled: Vec<String> = items
        .iter()
        .filter(|(path, name)| {
            let bench_item = path.starts_with("crates/bench/");
            !words.iter().any(|(file, words)| {
                let counts = bench_item || !BENCH_ONLY.iter().any(|b| file.starts_with(b));
                *file != path && counts && words.contains(name.as_str())
            })
        })
        .map(|(path, name)| format!("{path}::{name}"))
        .collect();
    let exempt: Vec<&str> = THROUGH_SIGNATURES
        .iter()
        .copied()
        .chain(TEST_HOOKS.iter().map(|(item, _)| *item))
        .collect();
    let flagged: Vec<_> = uncalled
        .iter()
        .filter(|item| !exempt.contains(&item.as_str()))
        .collect();
    assert!(
        flagged.is_empty(),
        "public items no non-test code outside their file names; delete each, \
         make it private, or exempt it with a reason: {flagged:#?}"
    );
    let stale: Vec<_> = exempt
        .iter()
        .filter(|item| !uncalled.iter().any(|u| u == *item))
        .collect();
    assert!(
        stale.is_empty(),
        "exemptions that name no uncalled public item (gone, private or called): {stale:?}"
    );
    for krate in TEST_CRATES.iter().chain(BENCH_ONLY) {
        assert!(
            files.keys().any(|path| path.starts_with(krate)),
            "`{krate}` holds no code"
        );
    }
    for name in GENERIC {
        let scanned = files.values().flatten().any(|line| {
            let decl = line.trim().strip_prefix("pub fn ").unwrap_or_default();
            decl.starts_with(name) && !decl[name.len()..].starts_with(is_ident)
        });
        assert!(scanned, "GENERIC names `{name}`, which no `pub fn` is");
    }

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
        let names = |line: &str, name: &str| {
            line.match_indices(name).any(|(at, _)| {
                let before = line[..at].chars().next_back();
                let after = line[at + name.len()..].chars().next();
                !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
            })
        };
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

/// No bare `.unwrap()` in the non-test code that reads bytes off the
/// network (`mws-wire`), serves the warehouse (`mws-core`'s `protocol.rs`)
/// or drives connections and daemons (`mws-server`): a hostile frame must
/// not panic a loop thread. A fallible site returns a typed error; one that
/// cannot fail says why in an `expect` message. In `mws-wire`, the codec
/// every hostile byte meets first, an `expect` also needs a proof: a
/// `// Infallible: …` comment right above the statement that holds it.
#[test]
fn no_bare_unwrap_on_the_network_path() {
    let files = non_test_code(&[
        "crates/wire/src",
        "crates/core/src/protocol.rs",
        "crates/server/src",
    ]);
    assert!(files.len() > 20, "found the sources: {:?}", files.keys());
    let bare: Vec<_> = files
        .iter()
        .flat_map(|(path, lines)| lines.iter().map(move |line| (path, line.trim())))
        .filter(|(_, line)| line.contains(".unwrap()"))
        .collect();
    assert!(bare.is_empty(), "bare unwraps: {bare:#?}");

    let mut proved = 0;
    let mut unproved = Vec::new();
    for path in rust_files(&["crates/wire/src"]) {
        let text = std::fs::read_to_string(&path).unwrap();
        let code = text.split("\n#[cfg(test)]").next().unwrap();
        // A proof covers the statement below it, however many lines that
        // statement (or the proof) wraps onto.
        let mut proof = false;
        for line in code.lines().map(str::trim) {
            if line.starts_with("//") {
                proof |= line.starts_with("// Infallible: ");
                continue;
            }
            if line.contains(".expect(") && proof {
                proved += 1;
            } else if line.contains(".expect(") {
                unproved.push(format!("{}: {line}", path.display()));
            }
            if line.ends_with(';') || line.ends_with('{') || line.ends_with('}') {
                proof = false;
            }
        }
    }
    assert!(proved > 0, "found the wire crate's proved expects");
    assert!(
        unproved.is_empty(),
        "an expect in mws-wire without a `// Infallible:` proof above it: {unproved:#?}"
    );
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

/// One field kernel: the CIOS Montgomery loop — the one line that draws
/// the quotient digit `t[0]·n0` — is written once, in `mws-bigint`, and
/// both `Mont` and the pairing arithmetic call it. The pairing crate holds
/// no `Mont` (so no per-operation `mont_mul`/`add`/`sub`/`neg` call on
/// one), and `with_width!`, `Mont`'s per-operation width match, stays
/// inside `mws-bigint`.
#[test]
fn one_field_kernel() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut cios = Vec::new();
    let mut in_fn = String::new();
    for (path, line) in code_lines(&["src", "examples", "crates", "benchmark/src"]) {
        let path = path.strip_prefix(root).unwrap().display().to_string();
        if let Some((_, rest)) = line.split_once("fn ") {
            in_fn = rest.split(['(', '<']).next().unwrap().to_string();
        }
        if line.contains(".wrapping_mul(") && line.contains("n0") {
            cios.push(format!("{path}::{in_fn}"));
        }
        if path.starts_with("crates/pairing/src") {
            let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            assert!(
                !words.clone().any(|w| w == "Mont"),
                "{path}: pairing code holds a Mont: {line}"
            );
            assert!(
                !words.clone().any(|w| w == "mont_mul" || w == "mont_sqr"),
                "{path}: a per-operation Mont call: {line}"
            );
        }
        if !path.starts_with("crates/bigint/") {
            assert!(
                !line.contains("with_width!"),
                "{path}: with_width! outside mws-bigint: {line}"
            );
        }
    }
    cios.dedup();
    assert_eq!(cios, ["crates/bigint/src/mont.rs::mont_mul_limbs"]);
}

/// One rule for points from the wire (DESIGN §5): a decoded point that a
/// secret scalar multiplies, or that serves as the order-`q` side every
/// pairing relies on, is subgroup-checked; a point that only meets an
/// order-`q` point inside a pairing is not, since the pairing cannot see
/// its part of order prime to `q`. Every `point_from_bytes` caller outside
/// `mws-pairing` is listed with its class, so a new one fails here until
/// someone classifies it.
#[test]
fn every_wire_point_is_classified() {
    const CHECKED: &str = "subgroup-checked";
    const PAIRED: &str = "pairing only";
    const KEY: &str = "own key, sealed delivery";
    let expected = [
        ("crates/core/src/client.rs::decrypt_message", PAIRED),
        ("crates/core/src/sda.rs::decode_ibs_signature", PAIRED),
        ("crates/core/src/sda.rs::decode_ibs_signature", PAIRED),
        ("crates/ibe/src/bf.rs::mpk_from_bytes", CHECKED),
        ("crates/ibe/src/bf.rs::sk_from_bytes", KEY),
        ("crates/server/src/secure.rs::agree", CHECKED),
        ("crates/server/src/secure.rs::verify", PAIRED),
        ("crates/server/src/secure.rs::verify", PAIRED),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut callers = Vec::new();
    let mut in_fn = String::new();
    let mut lines = code_lines(&["src", "examples", "crates", "benchmark/src"]);
    lines.sort_by(|a, b| a.0.cmp(&b.0));
    for (path, line) in lines {
        let path = path.strip_prefix(root).unwrap().display().to_string();
        if let Some((_, rest)) = line.split_once("fn ") {
            in_fn = rest.split(['(', '<']).next().unwrap().to_string();
        }
        if line.contains("point_from_bytes(") && !path.starts_with("crates/pairing/") {
            callers.push(format!("{path}::{in_fn}"));
        }
    }
    let listed: Vec<_> = expected
        .iter()
        .map(|(caller, _)| caller.to_string())
        .collect();
    assert_eq!(
        callers, listed,
        "classify each new caller in DESIGN §5 and here"
    );
    // A checked caller runs the subgroup test in the same function.
    for (caller, class) in expected.iter().filter(|(_, class)| *class == CHECKED) {
        let (file, name) = caller.split_once("::").unwrap();
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        let body = &text[text.find(&format!("fn {name}(")).unwrap()..];
        let body = &body[..body.find("\n    }\n").unwrap()];
        assert!(
            body.contains("in_subgroup("),
            "{caller} is {class} but runs no check"
        );
    }
}
