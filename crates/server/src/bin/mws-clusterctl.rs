//! Membership control for a cluster-mode front door: order a warehouse
//! node to **join** the ring, **drain** out of it, or print the current
//! **status** of the ring and any running rebalance (DESIGN.md §10).
//!
//! Join and drain orders are authenticated with the replica-plane MAC
//! key, which this tool derives the same way the daemons do — from the
//! deployment seed and the provisioning list. Run it with the *same*
//! `--seed`/`--device`/`--client` flags the daemons were started with,
//! or the front door will refuse the order with a 403. The order also
//! carries the ring epoch it was computed against (fetched live from the
//! front door), so a captured order cannot be replayed after the ring
//! changes.
//!
//! USAGE:
//!   mws-clusterctl status [--addr <front-door>]
//!   mws-clusterctl join  <node-addr> [--addr ...] [--seed ...] [--device ...] [--client ...]
//!   mws-clusterctl drain <node-addr> [--addr ...] [--seed ...] [--device ...] [--client ...]

use mws_server::daemon::{provision, ClientSpec, DaemonOpts, Role};
use mws_server::{
    ClientConfig, SecureClientSettings, TcpClient, TransportMode, ID_GATEKEEPER, ID_OPS,
};
use mws_wire::{Pdu, MEMBER_DRAINING, MEMBER_JOINING};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "mws-clusterctl — order membership changes on a cluster-mode front door\n\n\
USAGE:\n  mws-clusterctl status [--addr <front-door>]\n\
\x20 mws-clusterctl join  <node-addr> [flags]\n\
\x20 mws-clusterctl drain <node-addr> [flags]\n\n\
FLAGS:\n  --addr <host:port>      front door to order (default 127.0.0.1:7103)\n\
\x20 --seed <u64>            deployment master seed, must match the daemons (default 42)\n\
\x20 --device <sd_id>        provisioned device, repeatable, same order as the daemons\n\
\x20 --client <rc:pw[:a,b]>  provisioned client, repeatable, same order as the daemons\n\
\x20 --transport <mode>      'plain' (default) or 'secure' (IBS handshake + AES-GCM)\n\
\x20 --wait <secs>           after join/drain, poll status until the transfer finishes";

struct Ctl {
    addr: String,
    seed: u64,
    devices: Vec<String>,
    clients: Vec<ClientSpec>,
    transport: TransportMode,
    wait: Option<u64>,
}

fn parse(mut args: std::env::Args) -> Result<(String, Option<String>, Ctl), String> {
    let Some(cmd) = args.next() else {
        return Err("missing subcommand (status | join | drain)".into());
    };
    if cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut ctl = Ctl {
        addr: "127.0.0.1:7103".into(),
        seed: 42,
        devices: Vec::new(),
        clients: Vec::new(),
        transport: TransportMode::Plain,
        wait: None,
    };
    let mut node = None;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} expects a value"));
        match arg.as_str() {
            "--addr" => ctl.addr = value("--addr")?,
            "--seed" => {
                let v = value("--seed")?;
                ctl.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects a u64, got '{v}'"))?;
            }
            "--device" => ctl.devices.push(value("--device")?),
            "--client" => ctl.clients.push(ClientSpec::parse(&value("--client")?)?),
            "--transport" => {
                let v = value("--transport")?;
                ctl.transport = TransportMode::parse(&v).ok_or(format!(
                    "--transport expects 'plain' or 'secure', got '{v}'"
                ))?;
            }
            "--wait" => {
                let v = value("--wait")?;
                ctl.wait = Some(
                    v.parse()
                        .map_err(|_| format!("--wait expects seconds, got '{v}'"))?,
                );
            }
            other if node.is_none() && !other.starts_with('-') => node = Some(arg),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((cmd, node, ctl))
}

fn door(ctl: &Ctl) -> Result<mws_net::Client, String> {
    let sock = ctl
        .addr
        .parse()
        .map_err(|e| format!("bad address '{}': {e}", ctl.addr))?;
    // The operator credential needs only the master secret at the right
    // seed; orders always target the front door, so its identity is
    // pinned.
    let secure: Option<Arc<SecureClientSettings>> = ctl.transport.is_secure().then(|| {
        let mut opts = DaemonOpts::defaults_for(Role::Gatekeeper);
        opts.seed = ctl.seed;
        let dep = provision(&opts);
        Arc::new(SecureClientSettings::new(&dep, ID_OPS, Some(ID_GATEKEEPER)))
    });
    Ok(TcpClient::with_config(
        sock,
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(5),
            attempts: 1,
            breaker_threshold: 0,
            secure,
            ..ClientConfig::default()
        },
    )
    .into_client())
}

/// Fetches the front door's rebalance report, or a printable error.
fn report(door: &mws_net::Client) -> Result<Pdu, String> {
    match door.call(&Pdu::RebalanceStatus) {
        Ok(report @ Pdu::RebalanceReport { .. }) => Ok(report),
        Ok(Pdu::Error { code, detail }) => Err(format!("front door refused: {code} {detail}")),
        Ok(other) => Err(format!("unexpected reply: {}", other.type_name())),
        Err(e) => Err(e.to_string()),
    }
}

fn print_report(report: &Pdu) {
    let Pdu::RebalanceReport {
        epoch,
        transferring,
        members,
        arcs_total,
        arcs_done,
        rows_moved,
    } = report
    else {
        return;
    };
    println!("ring epoch {epoch}, {} member(s)", members.len());
    for m in members {
        let state = match m.state {
            MEMBER_JOINING => "joining",
            MEMBER_DRAINING => "draining",
            _ => "active",
        };
        println!(
            "  {:<24} {:<9} {}",
            m.node,
            state,
            if m.up { "up" } else { "down" }
        );
    }
    if *transferring {
        println!("rebalance: transferring, {arcs_done}/{arcs_total} arcs, {rows_moved} rows moved");
    } else {
        println!("rebalance: idle ({arcs_done}/{arcs_total} arcs, {rows_moved} rows last run)");
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args();
    args.next();
    let (cmd, node, ctl) = parse(args)?;
    let door = door(&ctl)?;
    if cmd == "status" {
        print_report(&report(&door)?);
        return Ok(());
    }
    if cmd != "join" && cmd != "drain" {
        return Err(format!(
            "unknown subcommand '{cmd}' (status | join | drain)"
        ));
    }
    let node = node.ok_or(format!("{cmd} expects a node address"))?;
    // The order is MAC'd against the epoch the operator saw — a ring that
    // moved on in between refuses it (409) rather than acting stale.
    let Pdu::RebalanceReport { epoch, .. } = report(&door)? else {
        unreachable!("report() only returns RebalanceReport");
    };
    let mut opts = DaemonOpts::defaults_for(Role::Gatekeeper);
    opts.seed = ctl.seed;
    opts.devices = ctl.devices.clone();
    opts.clients = ctl.clients.clone();
    let dep = provision(&opts);
    let order = if cmd == "join" {
        Pdu::ClusterJoin {
            node: node.clone(),
            epoch,
            mac: dep.cluster_join_mac(&node, epoch),
        }
    } else {
        Pdu::ClusterDrain {
            node: node.clone(),
            epoch,
            mac: dep.cluster_drain_mac(&node, epoch),
        }
    };
    match door.call(&order) {
        Ok(Pdu::ClusterAdminAck { epoch, detail }) => {
            println!("{cmd} accepted: epoch {epoch}, {detail}");
        }
        Ok(Pdu::Error { code, detail }) => {
            return Err(format!("{cmd} refused: {code} {detail}"));
        }
        Ok(other) => return Err(format!("unexpected reply: {}", other.type_name())),
        Err(e) => return Err(e.to_string()),
    }
    if let Some(secs) = ctl.wait {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let rep = report(&door)?;
            let Pdu::RebalanceReport { transferring, .. } = &rep else {
                unreachable!();
            };
            if !transferring {
                print_report(&rep);
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                print_report(&rep);
                return Err(format!("rebalance still running after {secs}s"));
            }
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("mws-clusterctl: {e}");
        std::process::exit(1);
    }
}
