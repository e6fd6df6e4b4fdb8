//! Daemon plumbing shared by `mws-mmsd`, `mws-pkgd` and `mws-gatekeeperd`.
//!
//! The paper ran its prototype as four cooperating servers on one host with
//! "all ports and IP addresses hardcoded" (§VI.C). These daemons keep the
//! fixed default ports (7101 MMS, 7102 PKG, 7103 Gatekeeper) but make them
//! flags, and replace the hardcoded key material with something better:
//! **seed-deterministic provisioning**. Every daemon given the same
//! `--seed` and the same `--device`/`--client` list (in the same order)
//! derives bit-identical master keys, device MAC keys and RC keypairs from
//! its own local [`Deployment`], so no key ever crosses the network at
//! setup time — the multi-process analogue of the paper's pre-shared keys.

use crate::client::{ClientConfig, TcpClient};
use crate::gateway::GatekeeperFrontdoor;
use crate::secure::{SecureClientSettings, SecureSettings, TransportMode, ID_GATEKEEPER, ID_MMS};
use crate::server::{ServerConfig, TcpServer};
use mws_core::protocol::{Deployment, DeploymentConfig};
use std::sync::Arc;

/// Which of the topology's servers a daemon hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The warehouse (SDA + MMS + Gatekeeper + Token Generator).
    Mms,
    /// The Private Key Generator.
    Pkg,
    /// The standalone Gatekeeper front door relaying to the MMS.
    Gatekeeper,
}

impl Role {
    /// The §VI.C-style fixed default port for this server.
    fn default_port(self) -> u16 {
        match self {
            Role::Mms => 7101,
            Role::Pkg => 7102,
            Role::Gatekeeper => 7103,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Role::Mms => "mws-mmsd",
            Role::Pkg => "mws-pkgd",
            Role::Gatekeeper => "mws-gatekeeperd",
        }
    }

    fn title(self) -> &'static str {
        match self {
            Role::Mms => "message warehouse daemon",
            Role::Pkg => "private key generator daemon",
            Role::Gatekeeper => "gatekeeper front-door daemon",
        }
    }
}

/// A command-line parse outcome that stops the daemon before serving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagError {
    /// `--help` was requested: print the usage text and exit 0.
    Help(String),
    /// A flag was malformed or unknown: print the message and exit 2.
    Bad(String),
}

/// One `--client` provisioning entry: `rc_id:password[:attr1,attr2,...]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientSpec {
    /// RC identity.
    pub rc_id: String,
    /// Gatekeeper password.
    pub password: String,
    /// Initial attribute grants.
    pub attributes: Vec<String>,
}

impl ClientSpec {
    /// Parses one `--client` value; the error names the expected shape.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.splitn(3, ':');
        let rc_id = parts.next().filter(|s| !s.is_empty());
        let password = parts.next().filter(|s| !s.is_empty());
        let (Some(rc_id), Some(password)) = (rc_id, password) else {
            return Err(format!(
                "--client expects rc_id:password[:attr,attr], got '{spec}'"
            ));
        };
        let attributes = parts
            .next()
            .map(|attrs| {
                attrs
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        Ok(Self {
            rc_id: rc_id.to_string(),
            password: password.to_string(),
            attributes,
        })
    }
}

/// Parsed daemon command line.
#[derive(Clone, Debug)]
pub struct DaemonOpts {
    /// Listen address.
    pub listen: String,
    /// Deployment master seed (must match across all daemons).
    pub seed: u64,
    /// Worker pool size.
    pub workers: usize,
    /// Event-loop thread count (Linux; DESIGN.md §11).
    pub event_loops: usize,
    /// Open-connection ceiling; over-capacity peers get a 503 close.
    pub max_connections: Option<usize>,
    /// Idle-connection reaping window in milliseconds.
    pub idle_timeout_ms: Option<u64>,
    /// Wire protocol: plaintext envelopes or IBS-authenticated AES-GCM
    /// sessions (`--transport secure`; DESIGN.md §12).
    pub transport: TransportMode,
    /// Message-warehouse shard count (MMS role; DESIGN.md §9).
    pub shards: usize,
    /// Devices to provision, in registration order.
    pub devices: Vec<String>,
    /// Clients to provision, in registration order.
    pub clients: Vec<ClientSpec>,
    /// Upstream MMS address (gatekeeper role only).
    pub upstream: String,
    /// Cluster member addresses (gatekeeper role only). Non-empty turns
    /// the front door into a [`crate::ClusterFrontdoor`] over these nodes
    /// instead of a single-upstream relay.
    pub cluster_nodes: Vec<String>,
    /// Ring replication factor R (cluster mode).
    pub replicas: usize,
    /// Durable acks required before a deposit acks, W ≤ R (cluster mode).
    pub write_quorum: usize,
    /// Retrieve consistency: R-quorum merge or fastest replica (cluster
    /// mode).
    pub read: mws_cluster::ReadConsistency,
    /// Health-probe cadence in milliseconds (cluster mode).
    pub probe_interval_ms: u64,
    /// Directory for durable hinted-handoff queues; unset keeps hints in
    /// memory (lost on a front-door restart).
    pub hint_dir: Option<std::path::PathBuf>,
}

impl DaemonOpts {
    /// Defaults for a role: its fixed port, seed 42, 4 workers.
    pub fn defaults_for(role: Role) -> Self {
        Self {
            listen: format!("127.0.0.1:{}", role.default_port()),
            seed: 42,
            workers: 4,
            event_loops: 1,
            max_connections: None,
            idle_timeout_ms: None,
            transport: TransportMode::Plain,
            shards: 1,
            devices: Vec::new(),
            clients: Vec::new(),
            upstream: format!("127.0.0.1:{}", Role::Mms.default_port()),
            cluster_nodes: Vec::new(),
            replicas: 2,
            write_quorum: 2,
            read: mws_cluster::ReadConsistency::Quorum,
            probe_interval_ms: PROBE_EVERY_MS,
            hint_dir: None,
        }
    }
}

/// TCP connections per cluster node. A forward holds one of a node's
/// connections from its request to its reply, so a couple of pooled
/// sockets let the front door's concurrent waves to the same node overlap
/// instead of queueing for one.
const CLUSTER_POOL: usize = 2;

/// Default cluster health-probe cadence (`--probe-interval-ms`).
const PROBE_EVERY_MS: u64 = 500;

/// Flag summary for `--help` / parse errors.
pub fn usage(role: Role) -> String {
    let extra = if role == Role::Gatekeeper {
        "\n  --upstream <addr>       MMS address to relay to (default 127.0.0.1:7101)\n\
         \x20 --cluster-node <addr>   warehouse cluster member (repeatable; any given turns on cluster mode)\n\
         \x20 --replicas <n>          copies of every row across the cluster (default 2)\n\
         \x20 --write-quorum <n>      durable acks before a deposit acks, <= replicas (default 2)\n\
         \x20 --read-quorum <mode>    retrieve consistency: 'quorum' (merge all live replicas, default) or 'fastest' (one replica answers)\n\
         \x20 --probe-interval-ms <n> health-probe cadence (default 500)\n\
         \x20 --hint-dir <path>       durable hinted-handoff queue directory (default: in-memory hints)"
    } else {
        ""
    };
    format!(
        "{name} — MWS {title}\n\
         \n\
         USAGE: {name} [flags]\n\
         \n\
         FLAGS:\n\
         \x20 --listen <addr>         listen address (default 127.0.0.1:{port})\n\
         \x20 --seed <u64>            deployment master seed, identical across daemons (default 42)\n\
         \x20 --workers <n>           worker threads (default 4)\n\
         \x20 --event-loops <n>       event-loop threads, Linux (default 1)\n\
         \x20 --max-connections <n>   open-connection ceiling; extra peers get an explicit 503 close (default: unlimited)\n\
         \x20 --idle-timeout-ms <n>   reap connections idle this long (default: never)\n\
         \x20 --transport <mode>      wire protocol: 'plain' (default) or 'secure' (IBS handshake + AES-GCM records)\n\
         \x20 --shards <n>            message-warehouse shards (default 1)\n\
         \x20 --device <sd_id>        provision a smart device (repeatable, order matters)\n\
         \x20 --client <id:pw[:a,b]>  provision an RC with attribute grants (repeatable, order matters){extra}\n\
         \x20 --help                  print this help",
        name = role.name(),
        title = role.title(),
        port = role.default_port(),
    )
}

/// Parses daemon flags (exclusive of `argv[0]`).
pub fn parse_args<I>(role: Role, args: I) -> Result<DaemonOpts, FlagError>
where
    I: IntoIterator<Item = String>,
{
    let mut opts = DaemonOpts::defaults_for(role);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| FlagError::Bad(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| FlagError::Bad(format!("--seed expects a u64, got '{v}'")))?;
            }
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v
                    .parse()
                    .map_err(|_| FlagError::Bad(format!("--workers expects a count, got '{v}'")))?;
            }
            "--shards" => {
                let v = value("--shards")?;
                opts.shards = v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                    FlagError::Bad(format!("--shards expects a count >= 1, got '{v}'"))
                })?;
            }
            "--event-loops" => {
                let v = value("--event-loops")?;
                opts.event_loops =
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        FlagError::Bad(format!("--event-loops expects a count >= 1, got '{v}'"))
                    })?;
            }
            "--max-connections" => {
                let v = value("--max-connections")?;
                opts.max_connections =
                    Some(v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        FlagError::Bad(format!("--max-connections expects a count >= 1, got '{v}'"))
                    })?);
            }
            "--idle-timeout-ms" => {
                let v = value("--idle-timeout-ms")?;
                opts.idle_timeout_ms =
                    Some(v.parse::<u64>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        FlagError::Bad(format!(
                            "--idle-timeout-ms expects milliseconds >= 1, got '{v}'"
                        ))
                    })?);
            }
            "--transport" => {
                let v = value("--transport")?;
                opts.transport = TransportMode::parse(&v).ok_or_else(|| {
                    FlagError::Bad(format!(
                        "--transport expects 'plain' or 'secure', got '{v}'"
                    ))
                })?;
            }
            "--device" => opts.devices.push(value("--device")?),
            "--client" => opts
                .clients
                .push(ClientSpec::parse(&value("--client")?).map_err(FlagError::Bad)?),
            "--upstream" if role == Role::Gatekeeper => opts.upstream = value("--upstream")?,
            "--cluster-node" if role == Role::Gatekeeper => {
                opts.cluster_nodes.push(value("--cluster-node")?)
            }
            "--replicas" if role == Role::Gatekeeper => {
                let v = value("--replicas")?;
                opts.replicas = v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                    FlagError::Bad(format!("--replicas expects a count >= 1, got '{v}'"))
                })?;
            }
            "--write-quorum" if role == Role::Gatekeeper => {
                let v = value("--write-quorum")?;
                opts.write_quorum =
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        FlagError::Bad(format!("--write-quorum expects a count >= 1, got '{v}'"))
                    })?;
            }
            "--read-quorum" if role == Role::Gatekeeper => {
                let v = value("--read-quorum")?;
                opts.read = mws_cluster::ReadConsistency::parse(&v).ok_or_else(|| {
                    FlagError::Bad(format!(
                        "--read-quorum expects 'quorum' or 'fastest', got '{v}'"
                    ))
                })?;
            }
            "--probe-interval-ms" if role == Role::Gatekeeper => {
                let v = value("--probe-interval-ms")?;
                opts.probe_interval_ms =
                    v.parse::<u64>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        FlagError::Bad(format!(
                            "--probe-interval-ms expects milliseconds >= 1, got '{v}'"
                        ))
                    })?;
            }
            "--hint-dir" if role == Role::Gatekeeper => {
                opts.hint_dir = Some(std::path::PathBuf::from(value("--hint-dir")?));
            }
            "--help" | "-h" => return Err(FlagError::Help(usage(role))),
            other => {
                return Err(FlagError::Bad(format!(
                    "unknown flag '{other}'\n\n{}",
                    usage(role)
                )))
            }
        }
    }
    if opts.write_quorum > opts.replicas {
        return Err(FlagError::Bad(format!(
            "--write-quorum {} cannot exceed --replicas {}",
            opts.write_quorum, opts.replicas
        )));
    }
    Ok(opts)
}

/// Builds this daemon's deterministic [`Deployment`] replica: same seed +
/// same provisioning order ⇒ same keys as every other daemon.
pub fn provision(opts: &DaemonOpts) -> Deployment {
    let mut dep = Deployment::new(DeploymentConfig {
        seed: opts.seed,
        message_shards: opts.shards,
        ..DeploymentConfig::test_default()
    });
    for sd_id in &opts.devices {
        dep.register_device(sd_id);
    }
    for c in &opts.clients {
        let attrs: Vec<&str> = c.attributes.iter().map(String::as_str).collect();
        dep.register_client(&c.rc_id, &c.password, &attrs);
    }
    dep
}

/// One upstream TCP client, speaking the deployment's transport: a
/// fresh handshake per (re)connect in secure mode, bare sockets in
/// plain mode.
fn upstream_client(
    sock: std::net::SocketAddr,
    secure: &Option<Arc<SecureClientSettings>>,
) -> TcpClient {
    match secure {
        Some(s) => TcpClient::with_config(
            sock,
            ClientConfig {
                secure: Some(s.clone()),
                ..ClientConfig::default()
            },
        ),
        None => TcpClient::new(sock),
    }
}

/// Binds the role's service from `dep` onto a TCP listener.
pub fn serve(role: Role, dep: &Deployment, opts: &DaemonOpts) -> std::io::Result<TcpServer> {
    let cfg = ServerConfig {
        addr: opts.listen.clone(),
        workers: opts.workers,
        event_loops: opts.event_loops,
        max_connections: opts.max_connections,
        idle_timeout: opts.idle_timeout_ms.map(std::time::Duration::from_millis),
        secure: opts
            .transport
            .is_secure()
            .then(|| Arc::new(SecureSettings::for_role(dep, role))),
        ..ServerConfig::default()
    };
    // The gatekeeper's upstream hops authenticate as the gatekeeper and
    // pin the warehouse identity — a misrouted address (or an imposter)
    // fails the handshake instead of receiving relayed plaintext.
    let client_secure: Option<Arc<SecureClientSettings>> = opts
        .transport
        .is_secure()
        .then(|| Arc::new(SecureClientSettings::new(dep, ID_GATEKEEPER, Some(ID_MMS))));
    match role {
        Role::Mms => {
            let mws = dep.mws().clone();
            TcpServer::spawn(cfg, || mws.as_service())
        }
        Role::Pkg => {
            let pkg = dep.pkg().clone();
            TcpServer::spawn(cfg, || pkg.as_service())
        }
        Role::Gatekeeper if !opts.cluster_nodes.is_empty() => {
            // Cluster mode: the front door fans out over the member
            // warehouses instead of relaying to one upstream. Each node
            // gets a small connection pool so the door workers' concurrent
            // waves to one node overlap instead of queueing on one socket.
            let mut nodes = Vec::new();
            for addr in &opts.cluster_nodes {
                let sock: std::net::SocketAddr = addr.parse().map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("--cluster-node '{addr}': {e}"),
                    )
                })?;
                let pool = (0..CLUSTER_POOL)
                    .map(|_| upstream_client(sock, &client_secure).into_client())
                    .collect();
                nodes.push(mws_cluster::ClusterNode::new(addr.clone(), pool));
            }
            let cluster_cfg = mws_cluster::ClusterConfig::new(opts.replicas, opts.write_quorum)
                .with_read(opts.read);
            let router = mws_cluster::ClusterRouter::new(nodes, cluster_cfg, dep.replica_key());
            router.set_attribute_names(
                dep.mws()
                    .policy_table()
                    .into_iter()
                    .map(|row| (row.attribute_id, row.attribute)),
            );
            if let Some(dir) = &opts.hint_dir {
                std::fs::create_dir_all(dir)?;
            }
            router.enable_hints(opts.hint_dir.clone());
            // Live joins name nodes by address; build them the same way
            // the static member list is built.
            let factory_secure = client_secure.clone();
            router.set_node_factory(move |name| {
                let pool = match name.parse::<std::net::SocketAddr>() {
                    Ok(sock) => (0..CLUSTER_POOL)
                        .map(|_| upstream_client(sock, &factory_secure).into_client())
                        .collect(),
                    Err(e) => {
                        // The order was operator-MAC'd, but the address is
                        // unusable: admit a node that can never answer (it
                        // probes down) rather than panic the admin path.
                        mws_obs::error!(target: "mws_server", "unparseable join address",
                            node = name.to_string(), error = e.to_string(),);
                        let dead = std::net::SocketAddr::from(([127, 0, 0, 1], 9));
                        vec![TcpClient::new(dead).into_client()]
                    }
                };
                mws_cluster::ClusterNode::new(name, pool)
            });
            let front = crate::cluster::ClusterFrontdoor::new(
                dep.clock().clone(),
                mws_core::clock::ReplayPolicy::standard(),
                router,
            );
            for c in &opts.clients {
                let public_key = dep
                    .mws()
                    .client_public_key(&c.rc_id)
                    .expect("client provisioned in this replica");
                front.register(&c.rc_id, &c.password, &public_key);
            }
            front.start_prober(std::time::Duration::from_millis(opts.probe_interval_ms));
            TcpServer::spawn(cfg, || front.as_service())
        }
        Role::Gatekeeper => {
            let upstream_addr = opts.upstream.parse().map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("--upstream '{}': {e}", opts.upstream),
                )
            })?;
            let upstream = upstream_client(upstream_addr, &client_secure).into_client();
            let front = GatekeeperFrontdoor::new(
                dep.clock().clone(),
                mws_core::clock::ReplayPolicy::standard(),
                upstream,
            );
            for c in &opts.clients {
                let public_key = dep
                    .mws()
                    .client_public_key(&c.rc_id)
                    .expect("client provisioned in this replica");
                front.register(&c.rc_id, &c.password, &public_key);
            }
            TcpServer::spawn(cfg, || front.as_service())
        }
    }
}

/// Binary entry point: parse `std::env::args`, provision, serve, block.
/// Exits the process on flag errors; runs until killed otherwise.
pub fn run(role: Role) -> ! {
    // Structured stderr logging: MWS_LOG picks the level; unset, a daemon
    // still logs at info (a silent server helps nobody). The line format
    // stays human-readable either way.
    if std::env::var_os("MWS_LOG").is_some() {
        mws_obs::init_from_env();
    } else {
        mws_obs::set_max_level(Some(mws_obs::Level::Info));
        mws_obs::add_sink(std::sync::Arc::new(mws_obs::StderrSink));
    }
    let opts = match parse_args(role, std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(FlagError::Help(text)) => {
            // Tolerate a closed pipe (e.g. `mws-mmsd --help | head`).
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{text}");
            std::process::exit(0);
        }
        Err(FlagError::Bad(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let dep = provision(&opts);
    let server = match serve(role, &dep, &opts) {
        Ok(server) => server,
        Err(e) => {
            mws_obs::error!(target: "mws_server", "cannot serve",
                role = role.name(), addr = opts.listen.clone(), error = e.to_string(),);
            std::process::exit(1);
        }
    };
    mws_obs::info!(target: "mws_server", "listening",
        role = role.name(), addr = server.local_addr().to_string(),
        transport = opts.transport.to_string(),
        seed = opts.seed, devices = opts.devices.len(), clients = opts.clients.len(),);
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_use_fixed_ports() {
        let opts = parse_args(Role::Mms, argv(&[])).unwrap();
        assert_eq!(opts.listen, "127.0.0.1:7101");
        assert_eq!(
            parse_args(Role::Pkg, argv(&[])).unwrap().listen,
            "127.0.0.1:7102"
        );
        assert_eq!(
            parse_args(Role::Gatekeeper, argv(&[])).unwrap().listen,
            "127.0.0.1:7103"
        );
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = parse_args(
            Role::Gatekeeper,
            argv(&[
                "--listen",
                "0.0.0.0:9000",
                "--seed",
                "7",
                "--workers",
                "2",
                "--device",
                "meter-1",
                "--client",
                "utility:pw:ELECTRIC-APT9,WATER-APT9",
                "--client",
                "auditor:secret",
                "--upstream",
                "10.0.0.1:7101",
            ]),
        )
        .unwrap();
        assert_eq!(opts.listen, "0.0.0.0:9000");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.devices, vec!["meter-1"]);
        assert_eq!(opts.clients.len(), 2);
        assert_eq!(opts.clients[0].rc_id, "utility");
        assert_eq!(
            opts.clients[0].attributes,
            vec!["ELECTRIC-APT9", "WATER-APT9"]
        );
        assert!(opts.clients[1].attributes.is_empty());
        assert_eq!(opts.upstream, "10.0.0.1:7101");
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        let opts = parse_args(Role::Mms, argv(&["--shards", "4"])).unwrap();
        assert_eq!(opts.shards, 4);
        assert_eq!(parse_args(Role::Mms, argv(&[])).unwrap().shards, 1);
        assert!(parse_args(Role::Mms, argv(&["--shards", "0"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--shards", "many"])).is_err());
    }

    #[test]
    fn connection_scaling_flags_parse_on_every_role() {
        let opts = parse_args(
            Role::Mms,
            argv(&[
                "--event-loops",
                "2",
                "--max-connections",
                "10000",
                "--idle-timeout-ms",
                "30000",
            ]),
        )
        .unwrap();
        assert_eq!(opts.event_loops, 2);
        assert_eq!(opts.max_connections, Some(10000));
        assert_eq!(opts.idle_timeout_ms, Some(30000));
        // Defaults: one loop, no ceiling, no reaping.
        let plain = parse_args(Role::Gatekeeper, argv(&[])).unwrap();
        assert_eq!(plain.event_loops, 1);
        assert!(plain.max_connections.is_none());
        assert!(plain.idle_timeout_ms.is_none());
        // Rejects: zero loops/ceiling/window.
        assert!(parse_args(Role::Mms, argv(&["--event-loops", "0"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--max-connections", "0"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--idle-timeout-ms", "0"])).is_err());
    }

    #[test]
    fn transport_flag_parses_on_every_role() {
        for role in [Role::Mms, Role::Pkg, Role::Gatekeeper] {
            let opts = parse_args(role, argv(&["--transport", "secure"])).unwrap();
            assert_eq!(opts.transport, TransportMode::Secure);
            let opts = parse_args(role, argv(&["--transport", "plain"])).unwrap();
            assert_eq!(opts.transport, TransportMode::Plain);
        }
        assert!(parse_args(Role::Mms, argv(&["--transport", "tls"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--transport"])).is_err());
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(parse_args(Role::Mms, argv(&["--seed", "banana"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--client", "no-password"])).is_err());
        assert!(
            parse_args(Role::Mms, argv(&["--upstream", "x"])).is_err(),
            "MMS has no upstream"
        );
        assert!(
            parse_args(Role::Mms, argv(&["--listen"])).is_err(),
            "missing value"
        );
        assert!(parse_args(Role::Mms, argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn help_is_not_a_flag_error() {
        assert!(matches!(
            parse_args(Role::Pkg, argv(&["--help"])),
            Err(FlagError::Help(text)) if text.contains("mws-pkgd")
        ));
        assert!(matches!(
            parse_args(Role::Pkg, argv(&["--frobnicate"])),
            Err(FlagError::Bad(msg)) if msg.contains("unknown flag")
        ));
    }

    #[test]
    fn cluster_flags_parse_on_the_gatekeeper_only() {
        let opts = parse_args(
            Role::Gatekeeper,
            argv(&[
                "--cluster-node",
                "127.0.0.1:7111",
                "--cluster-node",
                "127.0.0.1:7112",
                "--cluster-node",
                "127.0.0.1:7113",
                "--replicas",
                "2",
                "--write-quorum",
                "2",
            ]),
        )
        .unwrap();
        assert_eq!(opts.cluster_nodes.len(), 3);
        assert_eq!((opts.replicas, opts.write_quorum), (2, 2));
        // Defaults: no cluster, R = W = 2.
        let plain = parse_args(Role::Gatekeeper, argv(&[])).unwrap();
        assert!(plain.cluster_nodes.is_empty());
        assert_eq!((plain.replicas, plain.write_quorum), (2, 2));
        assert!(
            parse_args(Role::Mms, argv(&["--cluster-node", "x:1"])).is_err(),
            "only the front door clusters"
        );
    }

    #[test]
    fn write_quorum_cannot_exceed_replicas() {
        let err = parse_args(
            Role::Gatekeeper,
            argv(&["--replicas", "2", "--write-quorum", "3"]),
        )
        .unwrap_err();
        assert!(matches!(err, FlagError::Bad(msg) if msg.contains("cannot exceed")));
        assert!(parse_args(Role::Gatekeeper, argv(&["--replicas", "0"])).is_err());
        assert!(parse_args(Role::Gatekeeper, argv(&["--write-quorum", "zero"])).is_err());
        // R = 3, W = 1 is legal (latency over durability, caller's choice).
        let opts = parse_args(
            Role::Gatekeeper,
            argv(&["--replicas", "3", "--write-quorum", "1"]),
        )
        .unwrap();
        assert_eq!((opts.replicas, opts.write_quorum), (3, 1));
    }

    #[test]
    fn membership_and_consistency_flags_parse() {
        let opts = parse_args(
            Role::Gatekeeper,
            argv(&[
                "--cluster-node",
                "127.0.0.1:7111",
                "--read-quorum",
                "fastest",
                "--probe-interval-ms",
                "100",
                "--hint-dir",
                "/tmp/mws-hints",
            ]),
        )
        .unwrap();
        assert_eq!(opts.read, mws_cluster::ReadConsistency::Fastest);
        assert_eq!(opts.probe_interval_ms, 100);
        assert_eq!(
            opts.hint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/mws-hints"))
        );
        // Defaults: quorum reads, 500 ms probes, memory hints.
        let plain = parse_args(Role::Gatekeeper, argv(&[])).unwrap();
        assert_eq!(plain.read, mws_cluster::ReadConsistency::Quorum);
        assert_eq!(plain.probe_interval_ms, 500);
        assert!(plain.hint_dir.is_none());
        // Rejects: bad mode, zero cadence, non-gatekeeper roles.
        assert!(parse_args(Role::Gatekeeper, argv(&["--read-quorum", "eventual"])).is_err());
        assert!(parse_args(Role::Gatekeeper, argv(&["--probe-interval-ms", "0"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--read-quorum", "quorum"])).is_err());
        assert!(parse_args(Role::Mms, argv(&["--hint-dir", "/x"])).is_err());
    }

    #[test]
    fn identical_seeds_derive_identical_key_material() {
        let opts = parse_args(
            Role::Mms,
            argv(&["--seed", "1234", "--device", "m", "--client", "rc:pw:A"]),
        )
        .unwrap();
        // Two independent replicas — as two daemon processes would build.
        let a = provision(&opts);
        let b = provision(&opts);
        assert_eq!(
            a.mws().client_public_key("rc").unwrap(),
            b.mws().client_public_key("rc").unwrap(),
            "same seed + same provisioning order must derive the same RSA key"
        );
    }

    #[test]
    fn divergent_seeds_diverge() {
        let mk = |seed: &str| {
            provision(
                &parse_args(Role::Mms, argv(&["--seed", seed, "--client", "rc:pw:A"])).unwrap(),
            )
        };
        assert_ne!(
            mk("1").mws().client_public_key("rc").unwrap(),
            mk("2").mws().client_public_key("rc").unwrap()
        );
    }
}
