//! Scrapes the `Stats` admin PDU from each running daemon and prints the
//! Prometheus-style exposition text, one section per daemon.
//!
//! USAGE: `mws-stats [--shards] [--cluster] [--transport secure]
//! [--seed <u64>] [addr ...]` — defaults to the three fixed ports (7101
//! MMS, 7102 PKG, 7103 Gatekeeper). With `--transport secure` every
//! scrape authenticates as `mws/ops` over an encrypted session
//! (DESIGN.md §12). Unreachable
//! daemons are reported and skipped; the exit code is the number of scrape
//! failures. With `--shards`, a warehouse section is followed by a
//! per-shard summary table built from the `mws_store_shard_*` series
//! (DESIGN.md §9). With `--cluster`, a cluster-mode front door's section
//! is followed by a per-node membership table built from the
//! `mws_cluster_*` series (DESIGN.md §10).

use mws_core::protocol::{Deployment, DeploymentConfig};
use mws_server::{ClientConfig, SecureClientSettings, TcpClient, TransportMode, ID_OPS};
use mws_wire::Pdu;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The per-shard counter families, in summary-column order.
const SHARD_COLS: [&str; 4] = [
    "mws_store_shard_deposits_total",
    "mws_store_shard_dedup_hits_total",
    "mws_store_shard_group_commits_total",
    "mws_store_shard_coalesced_total",
];

/// Parses the `mws_store_shard_*{shard="k"}` series out of an exposition
/// dump into a per-shard table, or `None` when the daemon has no sharded
/// warehouse (PKG, gatekeeper, unsharded MMS).
fn shard_summary(text: &str) -> Option<String> {
    let mut rows: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for line in text.lines() {
        let Some((name_labels, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Some((name, labels)) = name_labels.split_once('{') else {
            continue;
        };
        let Some(col) = SHARD_COLS.iter().position(|c| *c == name) else {
            continue;
        };
        let shard = labels
            .trim_end_matches('}')
            .split(',')
            .find_map(|l| l.strip_prefix("shard=\""))
            .map(|s| s.trim_end_matches('"'));
        let (Some(Ok(shard)), Ok(value)) = (shard.map(str::parse::<u64>), value.parse::<u64>())
        else {
            continue;
        };
        rows.entry(shard).or_default()[col] = value;
    }
    if rows.is_empty() {
        return None;
    }
    let mut out = String::from("# shard   deposits  dedup_hits  group_commits  coalesced\n");
    for (shard, v) in rows {
        out.push_str(&format!(
            "# {shard:>5}  {:>9}  {:>10}  {:>13}  {:>9}\n",
            v[0], v[1], v[2], v[3]
        ));
    }
    Some(out)
}

/// The per-node cluster counter families, in summary-column order.
const CLUSTER_COLS: [&str; 4] = [
    "mws_cluster_forwards_total",
    "mws_cluster_node_errors_total",
    "mws_cluster_node_up",
    "mws_cluster_hint_queue_depth",
];

/// Cluster-level totals worth a summary line, with short headings.
const CLUSTER_TOTALS: [(&str, &str); 11] = [
    ("mws_cluster_ring_epoch", "epoch"),
    ("mws_cluster_deposits_acked_total", "acked"),
    ("mws_cluster_quorum_failures_total", "quorum_fail"),
    ("mws_cluster_retrieves_merged_total", "merged"),
    ("mws_cluster_repair_rows_total", "repaired"),
    ("mws_cluster_catchup_rows_total", "caught_up"),
    ("mws_cluster_hints_queued_total", "hints_q"),
    ("mws_cluster_hints_replayed_total", "hints_rp"),
    ("mws_cluster_hints_dropped_total", "hints_drop"),
    ("mws_cluster_rebalance_arcs_total", "rebal_arcs"),
    ("mws_cluster_rebalance_rows_total", "rebal_rows"),
];

/// Parses the `mws_cluster_*` series out of an exposition dump into a
/// per-node membership table plus a totals line, or `None` when the
/// daemon runs no cluster router (MMS, PKG, single-upstream gatekeeper).
fn cluster_summary(text: &str) -> Option<String> {
    let mut nodes: BTreeMap<String, [u64; 4]> = BTreeMap::new();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for line in text.lines() {
        let Some((name_labels, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        if let Some((name, labels)) = name_labels.split_once('{') {
            let Some(col) = CLUSTER_COLS.iter().position(|c| *c == name) else {
                continue;
            };
            let Some(node) = labels
                .trim_end_matches('}')
                .split(',')
                .find_map(|l| l.strip_prefix("node=\""))
                .map(|s| s.trim_end_matches('"'))
            else {
                continue;
            };
            nodes.entry(node.to_string()).or_default()[col] = value;
        } else if let Some((_, head)) = CLUSTER_TOTALS.iter().find(|(n, _)| *n == name_labels) {
            totals.insert(head, value);
        }
    }
    if nodes.is_empty() {
        return None;
    }
    let mut out = String::from("# node                    forwards  errors  up  hints\n");
    for (node, v) in &nodes {
        out.push_str(&format!(
            "# {node:<22}  {:>8}  {:>6}  {:>2}  {:>5}\n",
            v[0], v[1], v[2], v[3]
        ));
    }
    let line: Vec<String> = CLUSTER_TOTALS
        .iter()
        .map(|(_, head)| format!("{head}={}", totals.get(head).copied().unwrap_or(0)))
        .collect();
    out.push_str(&format!("# cluster: {}\n", line.join(" ")));
    Some(out)
}

fn scrape(
    addr: &str,
    secure: &Option<Arc<SecureClientSettings>>,
) -> Result<(String, String), String> {
    let sock = addr
        .parse()
        .map_err(|e| format!("bad address '{addr}': {e}"))?;
    let client = TcpClient::with_config(
        sock,
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(2),
            attempts: 1,
            breaker_threshold: 0,
            secure: secure.clone(),
            ..ClientConfig::default()
        },
    )
    .into_client();
    match client.call(&Pdu::StatsRequest) {
        Ok(Pdu::StatsResponse { role, text }) => Ok((role, text)),
        Ok(other) => Err(format!("unexpected reply: {}", other.type_name())),
        Err(e) => Err(e.to_string()),
    }
}

fn main() {
    let mut targets: Vec<String> = std::env::args().skip(1).collect();
    if targets.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "mws-stats — scrape the Stats admin PDU from MWS daemons\n\n\
             USAGE: mws-stats [--shards] [--cluster] [--transport <mode>] [--seed <u64>] [addr ...]   (default: the three fixed ports)\n\n\
             FLAGS:\n  --shards            append a per-shard warehouse summary table per section\n\
             \x20 --cluster           append a per-node cluster membership table per section\n\
             \x20 --transport <mode>  'plain' (default) or 'secure' (IBS handshake + AES-GCM)\n\
             \x20 --seed <u64>        deployment master seed for the secure credential, must match the daemons (default 42)"
        );
        return;
    }
    let shards = targets.iter().any(|a| a == "--shards");
    let cluster = targets.iter().any(|a| a == "--cluster");
    targets.retain(|a| a != "--shards" && a != "--cluster");
    let mut transport = TransportMode::Plain;
    let mut seed: u64 = 42;
    let mut i = 0;
    while i < targets.len() {
        let take_value = |targets: &mut Vec<String>, i: usize, flag: &str| {
            if i + 1 >= targets.len() {
                eprintln!("mws-stats: {flag} requires a value");
                std::process::exit(2);
            }
            targets.remove(i + 1)
        };
        match targets[i].as_str() {
            "--transport" => {
                let v = take_value(&mut targets, i, "--transport");
                transport = TransportMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("mws-stats: --transport expects 'plain' or 'secure', got '{v}'");
                    std::process::exit(2);
                });
                targets.remove(i);
            }
            "--seed" => {
                let v = take_value(&mut targets, i, "--seed");
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("mws-stats: --seed expects a u64, got '{v}'");
                    std::process::exit(2);
                });
                targets.remove(i);
            }
            _ => i += 1,
        }
    }
    // The operator credential only needs the master secret, so a bare
    // deployment at the right seed suffices — no provisioning list. No
    // pinned peer identity: one scrape loop visits MMS, PKG and
    // gatekeeper alike, and each still has to *prove* its identity.
    let secure: Option<Arc<SecureClientSettings>> = transport.is_secure().then(|| {
        let dep = Deployment::new(DeploymentConfig {
            seed,
            ..DeploymentConfig::test_default()
        });
        Arc::new(SecureClientSettings::new(&dep, ID_OPS, None))
    });
    if targets.is_empty() {
        targets = vec![
            "127.0.0.1:7101".into(),
            "127.0.0.1:7102".into(),
            "127.0.0.1:7103".into(),
        ];
    }
    let mut failures = 0;
    for addr in &targets {
        match scrape(addr, &secure) {
            Ok((role, text)) => {
                println!("# ---- {role} @ {addr} ----");
                print!("{text}");
                if shards {
                    match shard_summary(&text) {
                        Some(table) => print!("{table}"),
                        None => println!("# (no sharded warehouse on this daemon)"),
                    }
                }
                if cluster {
                    match cluster_summary(&text) {
                        Some(table) => print!("{table}"),
                        None => println!("# (no cluster router on this daemon)"),
                    }
                }
            }
            Err(e) => {
                eprintln!("mws-stats: {addr}: {e}");
                failures += 1;
            }
        }
    }
    std::process::exit(failures);
}
