//! R-way replicated routing across warehouse nodes (DESIGN.md §10).
//!
//! The router is the cluster's write path. Every deposit is forwarded —
//! byte-identical, original device MAC and all — to the R ring replicas of
//! its attribute; each node verifies and stores it independently, and the
//! device's ack is only issued after W of them reported the row durable.
//! A single deposit and a batch take one write wave that settles each item
//! on its own (`write_wave`): a single deposit is a batch of one.
//! This works *because* provisioning is seed-deterministic: every node in
//! the cluster derives the same device keys, policy tables and AID
//! assignment from the shared deployment seed, so a replica doesn't trust
//! the router — it re-verifies the device's own authenticator, exactly as
//! if the device had connected directly.
//!
//! Reads fan out: a retrieve is forwarded to every live node, each of
//! which runs its own gatekeeper check against the single forwarded auth
//! blob (independent replay guards, same two-guard pattern as the
//! gatekeeper front door). Responses merge by nonce — the one identity a
//! row keeps across nodes, since each node assigns its own message ids —
//! and divergence between live replicas triggers read-repair over the
//! MAC'd replica plane: rows are pulled with [`mws_net::pull_rows`], the
//! one pager every row transfer shares, and written with
//! [`Pdu::ReplicaPush`]. A node coming back up is caught up from every
//! live peer the same way.
//!
//! Membership is live: `ClusterJoin`/`ClusterDrain` admin PDUs (MAC'd
//! with the replica key, bound to the current ring epoch) swap the ring
//! immediately and stream the remapped arcs in the background (see
//! [`crate::rebalance`]). A write-wave replica that is down gets its
//! copy as a durable hint (see [`crate::handoff`]) replayed when the
//! prober marks it up, so sloppy-quorum writes converge to exactly R
//! copies without waiting for a retrieve.

use crate::handoff::HintBoard;
use crate::rebalance::{plan_transfers, ArcTransfer};
use crate::ring::HashRing;
use mws_crypto::{ct_eq, Hmac, Sha256};
use mws_net::rows::PAGE_ROWS;
use mws_net::{pull_rows, Client, NetError, PullError, Service};
use mws_obs::sync::{lock, read_lock, write_lock};
use mws_obs::{metric_name, Counter, Gauge, Histogram};
use mws_wire::pdu::{cluster_admin_bytes, replica_evict_bytes, replica_push_bytes};
use mws_wire::{
    DepositOutcome, MemberState, Pdu, RelayEntry, WireMessage, MEMBER_ACTIVE, MEMBER_DRAINING,
    MEMBER_JOINING,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Instant;

/// Read-side consistency knob: what a retrieve costs vs what it promises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Fan the retrieve to every live node, merge by nonce, read-repair
    /// divergence. One response covers everything any replica holds —
    /// the PR 6 behavior and the default.
    Quorum,
    /// Forward to a single live node (rotating; falls through to the
    /// next on transport failure). One hop of latency, but a lagging
    /// replica's gaps go unnoticed until repair or hint replay fills
    /// them — the classic staleness trade.
    Fastest,
}

impl ReadConsistency {
    /// Parses the `--read-quorum` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quorum" => Some(Self::Quorum),
            "fastest" => Some(Self::Fastest),
            _ => None,
        }
    }
}

/// Replication shape: R copies, acked at W.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Copies of every row (`R`): the replica-set size on the ring.
    pub replicas: usize,
    /// Durable acks required before the device's ack (`W ≤ R`). `W ≥ 2`
    /// with `R = 2` survives losing any single node without losing an
    /// acked row; `W = 1` trades that guarantee for latency.
    pub write_quorum: usize,
    /// Virtual nodes per physical node on the ring.
    pub vnodes: usize,
    /// Retrieve strategy (R-quorum merge vs fastest replica).
    pub read: ReadConsistency,
}

impl ClusterConfig {
    /// R copies acked at W, with the default vnode count and quorum
    /// reads. Panics on a quorum larger than the replica set or a zero
    /// anywhere.
    pub fn new(replicas: usize, write_quorum: usize) -> Self {
        assert!(replicas >= 1 && write_quorum >= 1, "R and W start at 1");
        assert!(write_quorum <= replicas, "W cannot exceed R");
        Self {
            replicas,
            write_quorum,
            vnodes: crate::ring::DEFAULT_VNODES,
            read: ReadConsistency::Quorum,
        }
    }

    /// Same shape with a different read strategy.
    pub fn with_read(mut self, read: ReadConsistency) -> Self {
        self.read = read;
        self
    }
}

/// One warehouse node as the router sees it: a name (its ring identity),
/// a connection pool, and a liveness flag flipped by probes and by
/// transport failures on the data path.
pub struct ClusterNode {
    name: String,
    pool: Vec<Client>,
    rr: AtomicUsize,
    up: AtomicBool,
    /// Membership state (`MEMBER_*` codes from `mws-wire`): active,
    /// joining (in the ring, arcs still streaming in) or draining (out
    /// of the ring, still donating).
    state: AtomicU8,
    forwards: Counter,
    errors: Counter,
    up_gauge: Gauge,
}

impl ClusterNode {
    /// A node reachable through any client in `pool` (picked round-robin;
    /// a pool wider than one lets concurrent forwards overlap on
    /// transports that serialize per connection). Panics on an empty pool.
    pub fn new(name: impl Into<String>, pool: Vec<Client>) -> Self {
        let name = name.into();
        assert!(!pool.is_empty(), "a node needs at least one client");
        let r = mws_obs::registry();
        let labeled = |base| r.counter(&metric_name(base, &[("node", &name)]));
        let forwards = labeled("mws_cluster_forwards_total");
        let errors = labeled("mws_cluster_node_errors_total");
        let up_gauge = r.gauge(&metric_name("mws_cluster_node_up", &[("node", &name)]));
        up_gauge.set(1);
        Self {
            name,
            pool,
            rr: AtomicUsize::new(0),
            up: AtomicBool::new(true),
            state: AtomicU8::new(MEMBER_ACTIVE),
            forwards,
            errors,
            up_gauge,
        }
    }

    /// The node's ring identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current liveness as the router believes it.
    fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Membership state (`MEMBER_*` code).
    fn member_state(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    fn set_member_state(&self, state: u8) {
        self.state.store(state, Ordering::Relaxed);
    }

    /// Flips liveness; returns true when the state actually changed.
    fn set_up(&self, up: bool) -> bool {
        let was = self.up.swap(up, Ordering::Relaxed);
        self.up_gauge.set(up as i64);
        was != up
    }

    fn client(&self) -> &Client {
        &self.pool[self.rr.fetch_add(1, Ordering::Relaxed) % self.pool.len()]
    }

    /// One forwarded call with the node's bookkeeping: transport failure
    /// marks the node down (the prober will mark it back up). The node's
    /// client owns the retry budget (a `TcpClient`'s attempts and
    /// deadline); the router adds no loop of its own.
    fn call(&self, req: &Pdu) -> Result<Pdu, NetError> {
        self.forwards.inc();
        match self.client().call(req) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                self.errors.inc();
                if self.set_up(false) {
                    mws_obs::warn!(target: "mws_cluster", "node marked down",
                        node = self.name.clone(), error = e.to_string(),);
                }
                Err(e)
            }
        }
    }
}

/// Ring + membership, swapped atomically on change so in-flight requests
/// keep a consistent view. The epoch counts swaps: every membership
/// change bumps it, and admin orders are bound to the epoch they were
/// written against.
struct Topology {
    ring: HashRing,
    nodes: Vec<Arc<ClusterNode>>,
    epoch: u64,
}

impl Topology {
    fn up_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_up()).count()
    }

    fn by_name(&self, name: &str) -> Option<&Arc<ClusterNode>> {
        self.nodes.iter().find(|n| n.name() == name)
    }
}

/// Builds a [`ClusterNode`] from its name — how the router grows a
/// connection pool for a node it only knows by `ClusterJoin` order.
type NodeFactory = dyn Fn(&str) -> ClusterNode + Send + Sync;

/// Progress of the current (or last) background arc transfer.
#[derive(Default)]
struct RebalanceState {
    transferring: bool,
    arcs_total: u64,
    arcs_done: u64,
    rows_moved: u64,
    /// A draining node: out of the ring (no new writes, no reads) but
    /// kept as a donor handle until its arcs finish streaming.
    leaving: Option<Arc<ClusterNode>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// The cluster router: N warehouse daemons presented as one logical
/// warehouse, with R-way replicated writes, quorum acks, fan-out reads
/// and read-repair. Bind [`Self::as_service`] where a single warehouse
/// service used to sit.
pub struct ClusterRouter {
    topo: RwLock<Arc<Topology>>,
    cfg: ClusterConfig,
    replica_key: Vec<u8>,
    /// AID → attribute string, fed by the integrator from its (seed-
    /// deterministic, hence cluster-wide identical) policy table; the
    /// router needs it to turn a diverging retrieve row back into the
    /// attribute the replica plane repairs by, and it doubles as the
    /// attribute universe arc-transfer plans cover.
    aid_attrs: RwLock<BTreeMap<u64, String>>,
    /// Hinted-handoff queues; `None` until [`Self::enable_hints`].
    hints: RwLock<Option<Arc<HintBoard>>>,
    /// Builds node handles for `ClusterJoin`; `None` refuses joins.
    factory: RwLock<Option<Box<NodeFactory>>>,
    rebal: Mutex<RebalanceState>,
    /// Rotates fastest-replica reads across the membership.
    fastest_rr: AtomicUsize,
    /// Self-handle for spawning background transfer workers.
    me: Weak<ClusterRouter>,
}

impl ClusterRouter {
    /// A router over the given nodes. `replica_key` authenticates the
    /// replica plane; derive it from the MWS–PKG secret the same way the
    /// warehouses do (`mws-core`'s `replica_key`) so both sides agree.
    pub fn new(nodes: Vec<ClusterNode>, cfg: ClusterConfig, replica_key: Vec<u8>) -> Arc<Self> {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let nodes: Vec<Arc<ClusterNode>> = nodes.into_iter().map(Arc::new).collect();
        let names: Vec<String> = nodes.iter().map(|n| n.name.clone()).collect();
        stats().ring_epoch.set(0);
        Arc::new_cyclic(|me| Self {
            topo: RwLock::new(Arc::new(Topology {
                ring: HashRing::new(&names, cfg.vnodes),
                nodes,
                epoch: 0,
            })),
            cfg,
            replica_key,
            aid_attrs: RwLock::new(BTreeMap::new()),
            hints: RwLock::new(None),
            factory: RwLock::new(None),
            rebal: Mutex::new(RebalanceState::default()),
            fastest_rr: AtomicUsize::new(0),
            me: me.clone(),
        })
    }

    /// A snapshot of the current topology (lookups never hold the lock).
    fn topo(&self) -> Arc<Topology> {
        read_lock(&self.topo).clone()
    }

    /// The replication shape.
    pub fn config(&self) -> ClusterConfig {
        self.cfg
    }

    /// The current ring epoch (bumped by every membership change).
    pub fn epoch(&self) -> u64 {
        self.topo().epoch
    }

    /// Turns hinted handoff on: deposits missing a down write-wave
    /// replica are queued (durably, when `dir` is given) and replayed by
    /// the prober once the replica is back.
    pub fn enable_hints(&self, dir: Option<PathBuf>) {
        *write_lock(&self.hints) = Some(Arc::new(HintBoard::new(dir)));
    }

    /// The hint board, if hinting is enabled (observability surface).
    pub fn hint_board(&self) -> Option<Arc<HintBoard>> {
        read_lock(&self.hints).clone()
    }

    /// Teaches the router how to build a node handle from a bare name,
    /// which is what lets a `ClusterJoin` order grow the cluster without
    /// a restart.
    pub fn set_node_factory(&self, factory: impl Fn(&str) -> ClusterNode + Send + Sync + 'static) {
        *write_lock(&self.factory) = Some(Box::new(factory));
    }

    /// Teaches the router the AID → attribute mapping read-repair routes
    /// by. Extends (never clears), so incremental grants just re-feed.
    pub fn set_attribute_names<I: IntoIterator<Item = (u64, String)>>(&self, pairs: I) {
        write_lock(&self.aid_attrs).extend(pairs);
    }

    /// Node names in member order, with liveness (observability surface).
    pub fn node_states(&self) -> Vec<(String, bool)> {
        let topo = self.topo();
        topo.nodes
            .iter()
            .map(|n| (n.name.clone(), n.is_up()))
            .collect()
    }

    /// A bindable service facade; clones share the router.
    pub fn as_service(self: &Arc<Self>) -> impl Service + 'static {
        let this = self.clone();
        move |req: Pdu| this.handle(req)
    }

    /// Routes one request.
    pub fn handle(&self, req: Pdu) -> Pdu {
        match req {
            Pdu::DepositRequest { .. } | Pdu::DepositBatch { .. } => {
                let start = Instant::now();
                let reply = self.forward_deposit(&req);
                stats().deposit_quorum_us.record_duration(start.elapsed());
                reply
            }
            Pdu::RetrieveRequest { .. } => self.fan_retrieve(&req),
            Pdu::HealthRequest => {
                let topo = self.topo();
                let up = topo.up_count();
                Pdu::HealthResponse {
                    role: "cluster".into(),
                    ready: up >= self.cfg.write_quorum,
                    detail: format!(
                        "{up}/{} nodes up, R={} W={}",
                        topo.nodes.len(),
                        self.cfg.replicas,
                        self.cfg.write_quorum
                    ),
                }
            }
            Pdu::StatsRequest => Pdu::StatsResponse {
                role: "cluster".into(),
                text: mws_obs::registry().exposition(),
            },
            Pdu::ClusterJoin { node, epoch, mac } => self.admin_join(&node, epoch, &mac),
            Pdu::ClusterDrain { node, epoch, mac } => self.admin_drain(&node, epoch, &mac),
            Pdu::RebalanceStatus => self.rebalance_report(),
            _ => err(400, "unexpected PDU at cluster router"),
        }
    }

    /// Verifies an admin order's MAC and epoch binding. The MAC covers
    /// (type, node, epoch) under the replica key; the epoch must equal
    /// the *current* ring epoch, so a captured order is single-use — the
    /// change it authorizes bumps the epoch and retires it.
    fn verify_admin(&self, type_byte: u8, node: &str, epoch: u64, mac: &[u8]) -> Option<Pdu> {
        let expect = Hmac::<Sha256>::mac(
            &self.replica_key,
            &cluster_admin_bytes(type_byte, node, epoch),
        );
        if !ct_eq(mac, &expect) {
            return Some(err(403, "bad admin MAC"));
        }
        let current = self.epoch();
        if epoch != current {
            return Some(err(
                409,
                &format!("stale admin epoch {epoch}, ring is at {current}"),
            ));
        }
        None
    }

    /// A verified `ClusterJoin`: builds the node through the factory,
    /// swaps the ring to N+1 *immediately* — new writes land on the new
    /// placement from this moment — and streams the remapped arcs to the
    /// newcomer in the background. The node serves reads and writes right
    /// away (quorum reads cover its gaps until the transfer finishes);
    /// its member state flips JOINING → ACTIVE when the stream completes.
    fn admin_join(&self, node: &str, epoch: u64, mac: &[u8]) -> Pdu {
        if let Some(reject) = self.verify_admin(0x64, node, epoch, mac) {
            return reject;
        }
        let mut rebal = lock(&self.rebal);
        if rebal.transferring {
            return err(409, "membership change already in progress");
        }
        if let Some(worker) = rebal.worker.take() {
            let _ = worker.join(); // finished; reap it
        }
        let factory = read_lock(&self.factory);
        let Some(factory) = factory.as_ref() else {
            return err(501, "no node factory configured; cannot join");
        };
        let mut topo = write_lock(&self.topo);
        if topo.by_name(node).is_some() {
            return err(409, "node is already a member");
        }
        let newcomer = factory(node);
        newcomer.set_member_state(MEMBER_JOINING);
        let old_names: Vec<String> = topo.nodes.iter().map(|n| n.name().to_string()).collect();
        let mut nodes = topo.nodes.clone();
        nodes.push(Arc::new(newcomer));
        let new_names: Vec<String> = nodes.iter().map(|n| n.name().to_string()).collect();
        let epoch = topo.epoch + 1;
        stats().ring_epoch.set(epoch as i64);
        *topo = Arc::new(Topology {
            ring: HashRing::new(&new_names, self.cfg.vnodes),
            nodes,
            epoch,
        });
        drop(topo);
        let attributes: Vec<String> = read_lock(&self.aid_attrs).values().cloned().collect();
        let plan = plan_transfers(
            &old_names,
            &new_names,
            self.cfg.vnodes,
            self.cfg.replicas,
            &attributes,
        );
        let detail = format!(
            "node {node} joined at epoch {epoch}; {} arcs to stream",
            plan.len()
        );
        mws_obs::info!(target: "mws_cluster", "cluster join",
            node = node.to_string(), epoch = epoch, arcs = plan.len() as u64,);
        self.start_transfers(&mut rebal, plan, Some(node.to_string()));
        Pdu::ClusterAdminAck { epoch, detail }
    }

    /// A verified `ClusterDrain`: swaps the ring to N−1 *immediately* —
    /// the leaving node takes no new writes and serves no reads — but
    /// keeps its handle as a donor until every arc it held has streamed
    /// to the nodes inheriting it. Zero-loss mid-transfer rests on quorum
    /// reads: with R ≥ 2 a surviving replica answers for every row while
    /// the stream completes.
    fn admin_drain(&self, node: &str, epoch: u64, mac: &[u8]) -> Pdu {
        if let Some(reject) = self.verify_admin(0x65, node, epoch, mac) {
            return reject;
        }
        let mut rebal = lock(&self.rebal);
        if rebal.transferring {
            return err(409, "membership change already in progress");
        }
        if let Some(worker) = rebal.worker.take() {
            let _ = worker.join(); // finished; reap it
        }
        let mut topo = write_lock(&self.topo);
        let Some(leaving) = topo.by_name(node).cloned() else {
            return err(404, "node is not a member");
        };
        if topo.nodes.len() <= self.cfg.replicas {
            return err(
                409,
                &format!("cannot drain below R={} members", self.cfg.replicas),
            );
        }
        leaving.set_member_state(MEMBER_DRAINING);
        let old_names: Vec<String> = topo.nodes.iter().map(|n| n.name().to_string()).collect();
        let nodes: Vec<Arc<ClusterNode>> = topo
            .nodes
            .iter()
            .filter(|n| n.name() != node)
            .cloned()
            .collect();
        let new_names: Vec<String> = nodes.iter().map(|n| n.name().to_string()).collect();
        let epoch = topo.epoch + 1;
        stats().ring_epoch.set(epoch as i64);
        *topo = Arc::new(Topology {
            ring: HashRing::new(&new_names, self.cfg.vnodes),
            nodes,
            epoch,
        });
        drop(topo);
        rebal.leaving = Some(leaving);
        let attributes: Vec<String> = read_lock(&self.aid_attrs).values().cloned().collect();
        let plan = plan_transfers(
            &old_names,
            &new_names,
            self.cfg.vnodes,
            self.cfg.replicas,
            &attributes,
        );
        let detail = format!(
            "node {node} draining at epoch {epoch}; {} arcs to stream",
            plan.len()
        );
        mws_obs::info!(target: "mws_cluster", "cluster drain",
            node = node.to_string(), epoch = epoch, arcs = plan.len() as u64,);
        self.start_transfers(&mut rebal, plan, None);
        Pdu::ClusterAdminAck { epoch, detail }
    }

    /// Kicks off (or, for an empty plan, immediately completes) the
    /// background arc stream for a membership change. Caller holds the
    /// rebalance lock.
    fn start_transfers(
        &self,
        rebal: &mut RebalanceState,
        plan: Vec<ArcTransfer>,
        joining: Option<String>,
    ) {
        rebal.arcs_total = plan.len() as u64;
        rebal.arcs_done = 0;
        rebal.rows_moved = 0;
        if plan.is_empty() {
            if let Some(name) = &joining {
                if let Some(node) = self.topo().by_name(name) {
                    node.set_member_state(MEMBER_ACTIVE);
                }
            }
            rebal.leaving = None;
            rebal.transferring = false;
            return;
        }
        rebal.transferring = true;
        let this = self.me.upgrade().expect("router owner alive");
        rebal.worker = Some(std::thread::spawn(move || {
            this.run_transfers(plan, joining)
        }));
    }

    /// The background arc stream: per remapped arc, pull the attribute's
    /// rows from the first live donor and push them to every inheriting
    /// node over the MAC'd replica plane. Failures are logged and left to
    /// catch-up/read-repair — the transfer is a fast path to convergence,
    /// not its only custodian.
    fn run_transfers(self: Arc<Self>, plan: Vec<ArcTransfer>, joining: Option<String>) {
        for arc in plan {
            let topo = self.topo();
            let leaving = lock(&self.rebal).leaving.clone();
            let by_name = |name: &String| {
                topo.by_name(name)
                    .cloned()
                    .or_else(|| leaving.clone().filter(|l| l.name() == name))
            };
            // Pull from a departed donor first: the ring already swapped,
            // so its copy is final — streaming it captures any deposit
            // that landed there in the swap window before we evict it.
            let donor_order = arc
                .departed
                .iter()
                .chain(arc.donors.iter().filter(|d| !arc.departed.contains(d)));
            let mut rows: Vec<RelayEntry> = Vec::new();
            for donor in donor_order {
                let Some(handle) = by_name(donor) else {
                    continue;
                };
                if !handle.is_up() {
                    continue;
                }
                rows = self.pull(&handle, &arc.attribute).unwrap_or_default();
                if !rows.is_empty() {
                    break; // any one donor's copy is the full arc
                }
            }
            let mut moved = 0u64;
            let mut all_pushed = true;
            for newcomer in &arc.newcomers {
                let Some(handle) = topo.by_name(newcomer) else {
                    continue; // membership changed again; its arc went with it
                };
                if rows.is_empty() {
                    continue;
                }
                if self.push_rows(handle, rows.clone()) {
                    moved += rows.len() as u64;
                } else {
                    all_pushed = false;
                    mws_obs::warn!(target: "mws_cluster", "arc transfer push failed; catch-up will heal",
                        node = handle.name.clone(), attribute = arc.attribute.clone(),);
                }
            }
            // Handover finalizer: once every inheriting node acked the arc,
            // order the nodes that fell out of its replica set to drop
            // their copy, so the change ends at exactly R copies. An empty
            // pull skips this — it could mean "no rows" or "donor down",
            // and evicting on a failed pull is the one path that loses
            // data. A failed evict only leaves a stale extra copy behind;
            // the placement audit will flag it, nothing is lost.
            if all_pushed && !rows.is_empty() {
                for name in &arc.departed {
                    let Some(handle) = by_name(name) else {
                        continue;
                    };
                    if !handle.is_up() {
                        continue; // it crashed out; nothing to drop
                    }
                    let mac = Hmac::<Sha256>::mac(
                        &self.replica_key,
                        &replica_evict_bytes(&arc.attribute, topo.epoch),
                    );
                    let order = Pdu::ReplicaEvict {
                        attribute: arc.attribute.clone(),
                        epoch: topo.epoch,
                        mac,
                    };
                    match handle.call(&order) {
                        Ok(Pdu::ReplicaEvicted { removed }) => {
                            stats().rebalance_evicted.add(removed);
                        }
                        _ => {
                            mws_obs::warn!(target: "mws_cluster", "replica evict failed; stale copy remains",
                                node = handle.name.clone(), attribute = arc.attribute.clone(),);
                        }
                    }
                }
            }
            stats().rebalance_arcs.inc();
            stats().rebalance_rows.add(moved);
            let mut rebal = lock(&self.rebal);
            rebal.arcs_done += 1;
            rebal.rows_moved += moved;
        }
        let topo = self.topo();
        if let Some(name) = &joining {
            if let Some(node) = topo.by_name(name) {
                node.set_member_state(MEMBER_ACTIVE);
            }
        }
        let mut rebal = lock(&self.rebal);
        rebal.leaving = None;
        rebal.transferring = false;
        mws_obs::info!(target: "mws_cluster", "rebalance complete",
            arcs = rebal.arcs_done, rows = rebal.rows_moved,);
    }

    /// The `RebalanceStatus` answer: ring epoch, transfer progress and
    /// per-member state (including a draining donor no longer in the
    /// ring). Unauthenticated — it names nodes and counts rows, which the
    /// Stats exposition already does.
    fn rebalance_report(&self) -> Pdu {
        let rebal = lock(&self.rebal);
        let topo = self.topo();
        let mut members: Vec<MemberState> = topo
            .nodes
            .iter()
            .map(|n| MemberState {
                node: n.name().to_string(),
                state: n.member_state(),
                up: n.is_up(),
            })
            .collect();
        if let Some(leaving) = &rebal.leaving {
            members.push(MemberState {
                node: leaving.name().to_string(),
                state: MEMBER_DRAINING,
                up: leaving.is_up(),
            });
        }
        Pdu::RebalanceReport {
            epoch: topo.epoch,
            transferring: rebal.transferring,
            members,
            arcs_total: rebal.arcs_total,
            arcs_done: rebal.arcs_done,
            rows_moved: rebal.rows_moved,
        }
    }

    /// Blocks until the background arc stream (if any) finishes, reaping
    /// the worker thread. Returns false on timeout.
    pub fn wait_rebalance(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let (done, worker) = {
                let mut rebal = lock(&self.rebal);
                if rebal.transferring {
                    (false, None)
                } else {
                    (true, rebal.worker.take())
                }
            };
            if done {
                if let Some(worker) = worker {
                    let _ = worker.join();
                }
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    /// Forwards a deposit. A single deposit goes out as the device's
    /// byte-identical PDU, a one-item wave. A batch's items are regrouped
    /// by ring walk — a batch may span attributes living on different
    /// nodes — and each group rides one sub-batch per target, so the
    /// per-shard group commit on every node still sees the whole group.
    fn forward_deposit(&self, req: &Pdu) -> Pdu {
        let topo = self.topo();
        match req {
            Pdu::DepositRequest { attribute, .. } => {
                let pref = topo.ring.preference(attribute);
                let ends = self.write_wave(&topo, &pref, 1, |_| Cow::Borrowed(req));
                match ends.into_iter().next().expect("a one-item wave ends once") {
                    ItemEnd::Acked(reply) | ItemEnd::Verdict(reply) => reply,
                    ItemEnd::QuorumFailed(held) => err(
                        503,
                        &format!(
                            "write quorum not reached ({held}/{})",
                            self.cfg.write_quorum
                        ),
                    ),
                }
            }
            Pdu::DepositBatch { sd_id, items } => {
                let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
                for (i, item) in items.iter().enumerate() {
                    groups
                        .entry(topo.ring.preference(&item.attribute))
                        .or_default()
                        .push(i);
                }
                let mut results = vec![
                    DepositOutcome {
                        status: DepositOutcome::STORAGE_ERROR,
                        message_id: 0,
                    };
                    items.len()
                ];
                for (pref, members) in groups {
                    let ends = self.write_wave(&topo, &pref, members.len(), |subset| {
                        Cow::Owned(Pdu::DepositBatch {
                            sd_id: sd_id.clone(),
                            items: subset.iter().map(|&j| items[members[j]].clone()).collect(),
                        })
                    });
                    for (&i, end) in members.iter().zip(ends) {
                        if let ItemEnd::Acked(outcome) | ItemEnd::Verdict(outcome) = end {
                            results[i] = outcome;
                        }
                    }
                }
                Pdu::DepositBatchAck { results }
            }
            _ => err(400, "unexpected PDU at cluster router"),
        }
    }

    /// The write wave: forwards `items` items that share one ring walk
    /// (`pref`) until each is settled, tracking holders and verdicts per
    /// item, and returns how each ended. `request` builds the PDU carrying
    /// the listed items (indices below `items`).
    ///
    /// The first wave targets only the *live preferred* replicas — the R
    /// nodes the ring actually places these attributes on. Per item, for
    /// every node's answer:
    ///
    /// * a durable answer (a stored or deduplicated row, or a replayed
    ///   nonce: a node records a nonce only after its shard fsynced the
    ///   row) makes the node a holder;
    /// * any other well-formed answer (a bad MAC, a stale timestamp) is the
    ///   item's verdict and ends its walk — every node verifies the same
    ///   evidence, so one verdict speaks for all;
    /// * a transport failure or a malformed reply extends the ring walk.
    ///
    /// The walk extends past the preferred set while an item is unsettled:
    /// with hints off (the default) until it has R holders somewhere
    /// (classic sloppy quorum; catch-up and read-repair converge the
    /// preferred set later); with hints on only while it is short of the
    /// ack quorum W, and each preferred replica that missed the wave gets a
    /// durable hint instead — replayed when the prober sees it back, so an
    /// acked row converges to exactly R copies on exactly the ring
    /// replicas.
    ///
    /// An item acks at W holders; failing that it reports its first
    /// verdict, or else a quorum failure. A hint carries only acked items:
    /// a failed item must leave no copy a retry wouldn't also place.
    fn write_wave<'r, A: Answer>(
        &self,
        topo: &Topology,
        pref: &[usize],
        items: usize,
        request: impl Fn(&[usize]) -> Cow<'r, Pdu>,
    ) -> Vec<ItemEnd<A>> {
        let hints = read_lock(&self.hints).clone();
        let seek = if hints.is_some() {
            self.cfg.write_quorum
        } else {
            self.cfg.replicas
        };
        let preferred = &pref[..self.cfg.replicas.min(pref.len())];
        let mut holders: Vec<Vec<(usize, A)>> = (0..items).map(|_| Vec::new()).collect();
        let mut verdicts: Vec<Option<A>> = (0..items).map(|_| None).collect();
        let mut owed: Vec<usize> = Vec::new(); // preferred replicas missing their copy
        let mut wave: Vec<usize> = preferred
            .iter()
            .copied()
            .filter(|&i| {
                let up = topo.nodes[i].is_up();
                if !up {
                    owed.push(i);
                }
                up
            })
            .collect();
        let mut walk = pref[preferred.len()..]
            .iter()
            .copied()
            .filter(|&i| topo.nodes[i].is_up());
        let mut active: Vec<usize> = (0..items).collect();
        loop {
            if !wave.is_empty() {
                let req = request(&active);
                for (idx, result) in fan_out(topo, &wave, &req) {
                    let answers = match result {
                        Ok(reply) => A::split(reply, active.len()),
                        Err(_) => {
                            if preferred.contains(&idx) {
                                owed.push(idx); // marked down inside ClusterNode::call
                            }
                            None
                        }
                    };
                    for (&j, answer) in active.iter().zip(answers.into_iter().flatten()) {
                        if answer.durable() {
                            holders[j].push((idx, answer));
                        } else if verdicts[j].is_none() {
                            verdicts[j] = Some(answer);
                        }
                    }
                }
            }
            active.retain(|&j| verdicts[j].is_none() && holders[j].len() < seek);
            // Unsettled items answered alike on every node so far (any
            // other answer settled them), so they hold equally many copies.
            let Some(&j) = active.first() else {
                break;
            };
            wave = walk.by_ref().take(seek - holders[j].len()).collect();
            if wave.is_empty() {
                break;
            }
        }
        if let Some(hints) = &hints {
            let acked: Vec<usize> = (0..items)
                .filter(|&j| holders[j].len() >= self.cfg.write_quorum)
                .collect();
            if !acked.is_empty() && !owed.is_empty() {
                let hint = hint_payload(&request(&acked));
                for &idx in &owed {
                    hints.queue(topo.nodes[idx].name(), &hint);
                }
            }
        }
        holders
            .into_iter()
            .zip(verdicts)
            .map(|(mut held, verdict)| {
                if held.len() >= self.cfg.write_quorum {
                    stats().deposits_acked.inc();
                    // A fresh store names the id the device is told; any
                    // holder proves the row.
                    let k = held.iter().position(|(_, a)| a.stored()).unwrap_or(0);
                    let (idx, answer) = held.swap_remove(k);
                    ItemEnd::Acked(answer.remapped(idx))
                } else if let Some(verdict) = verdict {
                    ItemEnd::Verdict(verdict)
                } else {
                    stats().quorum_failures.inc();
                    ItemEnd::QuorumFailed(held.len())
                }
            })
            .collect()
    }

    /// Fans a retrieve out to every live node, merges by nonce, and
    /// repairs divergence. Each node independently verifies the forwarded
    /// auth blob (their replay guards are distinct, so the single copy
    /// passes everywhere), and each assigns its own message ids — so the
    /// merged view keys rows by nonce and namespaces ids by node index.
    fn fan_retrieve(&self, req: &Pdu) -> Pdu {
        let topo = self.topo();
        if self.cfg.read == ReadConsistency::Fastest {
            return self.fastest_retrieve(&topo, req);
        }
        let live: Vec<usize> = (0..topo.nodes.len())
            .filter(|&i| topo.nodes[i].is_up())
            .collect();
        let mut successes: Vec<(usize, Vec<u8>, Vec<WireMessage>)> = Vec::new();
        let mut reject: Option<Pdu> = None;
        for (idx, result) in fan_out(&topo, &live, req) {
            match result {
                Ok(Pdu::RetrieveResponse { token, messages }) => {
                    successes.push((idx, token, messages))
                }
                Ok(other) => {
                    reject.get_or_insert(other);
                }
                Err(_) => {}
            }
        }
        if successes.is_empty() {
            return reject.unwrap_or_else(|| err(503, "no live warehouse node"));
        }
        successes.sort_by_key(|(idx, _, _)| *idx);
        let mut merged: Vec<WireMessage> = Vec::new();
        let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
        for (idx, _, messages) in &successes {
            for m in messages {
                if seen.insert(m.nonce.clone()) {
                    let mut m = m.clone();
                    m.message_id = remap_id(*idx, m.message_id);
                    merged.push(m);
                }
            }
        }
        merged.sort_by(|a, b| (a.timestamp, &a.nonce).cmp(&(b.timestamp, &b.nonce)));
        stats().retrieves_merged.inc();
        if let Pdu::RetrieveRequest { limit: 0, .. } = req {
            // Only un-truncated responses prove divergence; a limited page
            // legitimately differs between nodes (their ids order rows
            // differently).
            self.read_repair(&topo, &successes, &seen);
        }
        let token = successes.into_iter().next().expect("non-empty").1;
        Pdu::RetrieveResponse {
            token,
            messages: merged,
        }
    }

    /// The [`ReadConsistency::Fastest`] retrieve: one live node answers
    /// for the cluster. Targets rotate round-robin; a transport failure
    /// falls through to the next live node. No merge, no repair — the
    /// answer is whatever that one replica holds.
    fn fastest_retrieve(&self, topo: &Topology, req: &Pdu) -> Pdu {
        let n = topo.nodes.len();
        let start = self.fastest_rr.fetch_add(1, Ordering::Relaxed);
        for step in 0..n {
            let idx = (start + step) % n;
            let node = &topo.nodes[idx];
            if !node.is_up() {
                continue;
            }
            match node.call(req) {
                Ok(Pdu::RetrieveResponse {
                    token,
                    mut messages,
                }) => {
                    for m in &mut messages {
                        m.message_id = remap_id(idx, m.message_id);
                    }
                    stats().retrieves_fastest.inc();
                    return Pdu::RetrieveResponse { token, messages };
                }
                // A protocol verdict (auth reject, replay): every node
                // judges the same evidence, so one answer speaks for all.
                Ok(other) => return other,
                Err(_) => {} // marked down inside call; try the next node
            }
        }
        err(503, "no live warehouse node")
    }

    /// Pushes rows a lagging replica is missing, detected by comparing
    /// each live node's nonce set against the merged union. Rows travel
    /// over the replica plane: pulled (with attribute and origin identity
    /// intact) from a node that has them, MAC-verified, and pushed to the
    /// laggard, which stores them through the same durable origin-dedup
    /// path as a device retransmission.
    fn read_repair(
        &self,
        topo: &Topology,
        successes: &[(usize, Vec<u8>, Vec<WireMessage>)],
        union: &BTreeSet<Vec<u8>>,
    ) {
        let aid_attrs = read_lock(&self.aid_attrs);
        // (laggard, attribute) → donor holding the attribute's rows.
        let mut repairs: BTreeMap<(usize, String), usize> = BTreeMap::new();
        for (idx, _, messages) in successes {
            let have: BTreeSet<&Vec<u8>> = messages.iter().map(|m| &m.nonce).collect();
            if have.len() == union.len() {
                continue;
            }
            for (donor_idx, _, donor_msgs) in successes {
                for m in donor_msgs {
                    if have.contains(&m.nonce) {
                        continue;
                    }
                    let Some(attr) = aid_attrs.get(&m.aid) else {
                        continue; // can't name the attribute; skip
                    };
                    if topo.ring.replicas(attr, self.cfg.replicas).contains(idx) {
                        repairs.insert((*idx, attr.clone()), *donor_idx);
                    }
                }
            }
        }
        for ((laggard, attribute), donor) in repairs {
            match self.pull(&topo.nodes[donor], &attribute) {
                Ok(rows) if !rows.is_empty() => {
                    self.push_rows(&topo.nodes[laggard], rows);
                }
                _ => {} // best-effort; the next divergent read retries it
            }
        }
    }

    /// Every row of `attribute` (`""`: of every attribute) `node` holds,
    /// pulled over the replica plane with the shared pager.
    fn pull(&self, node: &ClusterNode, attribute: &str) -> Result<Vec<RelayEntry>, PullError> {
        pull_rows(
            |req| node.call(req),
            &self.replica_key,
            attribute,
            0,
            usize::MAX,
        )
    }

    /// Pushes rows to a node over the replica plane (chunked, MAC'd).
    /// Returns true when every chunk was acked.
    fn push_rows(&self, node: &ClusterNode, rows: Vec<RelayEntry>) -> bool {
        for chunk in rows.chunks(PAGE_ROWS) {
            let mac = Hmac::<Sha256>::mac(&self.replica_key, &replica_push_bytes(chunk));
            match node.call(&Pdu::ReplicaPush {
                rows: chunk.to_vec(),
                mac,
            }) {
                Ok(Pdu::ReplicaPushAck { stored, .. }) => {
                    stats().repair_rows.add(u64::from(stored));
                    if stored > 0 {
                        mws_obs::info!(target: "mws_cluster", "replica repaired",
                            node = node.name.clone(), rows = u64::from(stored),);
                    }
                }
                _ => return false, // best-effort; leave the rest for next time
            }
        }
        true
    }

    /// Probes every node with a Health PDU; its answer sets the node's
    /// liveness. A node coming back up is caught up: rows deposited while
    /// it was down (acked by the sloppy quorum on other nodes) are pulled
    /// from every live peer and pushed to it, filtered to the attributes
    /// the ring places on it. Any node that is up and owes hints gets its
    /// queue replayed. Returns the up count.
    pub fn probe_once(&self) -> usize {
        let topo = self.topo();
        let mut recovered = Vec::new();
        for (idx, node) in topo.nodes.iter().enumerate() {
            let healthy = matches!(
                node.client().call(&Pdu::HealthRequest),
                Ok(Pdu::HealthResponse { ready: true, .. })
            );
            if node.set_up(healthy) {
                mws_obs::info!(target: "mws_cluster", "node liveness changed",
                    node = node.name.clone(), up = healthy,);
                if healthy {
                    recovered.push(idx);
                }
            }
        }
        for idx in recovered {
            self.catch_up(&topo, idx);
        }
        if let Some(hints) = read_lock(&self.hints).clone() {
            for node in topo.nodes.iter().filter(|n| n.is_up()) {
                if hints.pending(node.name()) > 0 {
                    self.replay_hints(&hints, node);
                }
            }
        }
        topo.up_count()
    }

    /// Drains a node's hint queue: each hint is the byte-identical
    /// deposit PDU the node missed, re-forwarded as if freshly arrived.
    /// A durable verdict (ack, 409 replay, all-durable batch) retires the
    /// hint; a transport failure stops the drain for this round. Any
    /// other protocol verdict — a warehouse may legitimately reject a
    /// device deposit it considers stale by now — falls back to a replica
    /// push of the decoded rows, so a hint can never wedge the queue.
    fn replay_hints(&self, hints: &HintBoard, node: &ClusterNode) {
        hints.drain(node.name(), |payload| {
            let Some(pdu) = decode_hint(payload) else {
                mws_obs::warn!(target: "mws_cluster", "corrupt hint dropped",
                    node = node.name.clone(),);
                return true; // unreadable; retiring it is all we can do
            };
            match node.call(&pdu) {
                Ok(reply) if is_durable_ack(&reply) => true,
                Ok(Pdu::DepositBatchAck { results })
                    if results.iter().all(|o| is_durable_status(o.status)) =>
                {
                    true
                }
                Err(_) => false, // node went away again; next probe retries
                Ok(_) => self.replay_as_push(node, &pdu),
            }
        });
    }

    /// Fallback for a hint the warehouse rejected on re-verification:
    /// strip the deposit down to its rows and push them over the replica
    /// plane, which stores through origin-dedup without re-judging
    /// freshness. Returns true when the push landed.
    fn replay_as_push(&self, node: &ClusterNode, pdu: &Pdu) -> bool {
        let rows: Vec<RelayEntry> = match pdu {
            Pdu::DepositRequest {
                sd_id,
                timestamp,
                u,
                algo,
                sealed,
                attribute,
                nonce,
                ..
            } => vec![RelayEntry {
                seq: 0,
                sd_id: sd_id.clone(),
                timestamp: *timestamp,
                u: u.clone(),
                algo: *algo,
                sealed: sealed.clone(),
                attribute: attribute.clone(),
                nonce: nonce.clone(),
            }],
            Pdu::DepositBatch { sd_id, items } => items
                .iter()
                .map(|item| RelayEntry {
                    seq: 0,
                    sd_id: sd_id.clone(),
                    timestamp: item.timestamp,
                    u: item.u.clone(),
                    algo: item.algo,
                    sealed: item.sealed.clone(),
                    attribute: item.attribute.clone(),
                    nonce: item.nonce.clone(),
                })
                .collect(),
            _ => return true, // not a deposit; nothing to converge
        };
        self.push_rows(node, rows)
    }

    /// Replays everything a recovered node should hold: a full-scan pull
    /// from every live peer (the sloppy walk may have put its rows on any
    /// of them), filtered to the attributes the ring places on the node,
    /// and the union, one copy per `(sd_id, nonce)` origin, pushed through
    /// the idempotent origin-dedup store.
    fn catch_up(&self, topo: &Topology, idx: usize) {
        let target = &topo.nodes[idx];
        let mut mine: BTreeMap<(String, Vec<u8>), RelayEntry> = BTreeMap::new();
        for (i, peer) in topo.nodes.iter().enumerate() {
            if i == idx || !peer.is_up() {
                continue;
            }
            let Ok(rows) = self.pull(peer, "") else {
                continue; // the others may still hold every missed row
            };
            for row in rows {
                if topo
                    .ring
                    .replicas(&row.attribute, self.cfg.replicas)
                    .contains(&idx)
                {
                    mine.entry((row.sd_id.clone(), row.nonce.clone()))
                        .or_insert(row);
                }
            }
        }
        if mine.is_empty() {
            return;
        }
        stats().catchup_rows.add(mine.len() as u64);
        mws_obs::info!(target: "mws_cluster", "catching node up",
            node = target.name.clone(), rows = mine.len() as u64,);
        self.push_rows(target, mine.into_values().collect());
    }
}

/// Forwards `req` to every target, one call after another on the calling
/// thread, and pairs each reply with its node index in the order of
/// `targets` (the first durable deposit reply names the id the device
/// sees). The wave's latency is the sum of its round trips; a scoped
/// thread per forward overlapped them but cost more than it saved on a
/// loopback cluster (DESIGN §10).
fn fan_out(topo: &Topology, targets: &[usize], req: &Pdu) -> Vec<(usize, Result<Pdu, NetError>)> {
    targets
        .iter()
        .map(|&idx| (idx, topo.nodes[idx].call(req)))
        .collect()
}

/// Does this reply prove the node holds the row durably? An ack is
/// explicit; a 409 means the node's replay guard knows the nonce, which
/// it only learns *after* the owning shard fsyncs (PR 2's durable-
/// before-record invariant) — so a replayed retransmission still counts
/// toward the write quorum.
fn is_durable_ack(reply: &Pdu) -> bool {
    matches!(reply, Pdu::DepositAck { .. } | Pdu::Error { code: 409, .. })
}

/// Batch-item analog of [`is_durable_ack`].
fn is_durable_status(status: u8) -> bool {
    matches!(
        status,
        DepositOutcome::STORED | DepositOutcome::DUPLICATE | DepositOutcome::REPLAY
    )
}

/// One node's answer for one item of a write wave: a single deposit's
/// whole reply (the device sees it verbatim), or one outcome of a batch
/// ack.
trait Answer: Sized {
    /// Splits a node's reply into per-item answers; `None` marks a reply
    /// that is no well-formed answer for `n` items.
    fn split(reply: Pdu, n: usize) -> Option<impl Iterator<Item = Self>>;
    /// Does this answer prove the node holds the row durably?
    fn durable(&self) -> bool;
    /// Did this node store the row fresh?
    fn stored(&self) -> bool;
    /// The answer with its message id namespaced by the node index.
    fn remapped(self, node_idx: usize) -> Self;
}

impl Answer for Pdu {
    fn split(reply: Pdu, _: usize) -> Option<impl Iterator<Item = Self>> {
        matches!(reply, Pdu::DepositAck { .. } | Pdu::Error { .. }).then(|| std::iter::once(reply))
    }

    fn durable(&self) -> bool {
        is_durable_ack(self)
    }

    fn stored(&self) -> bool {
        matches!(self, Pdu::DepositAck { .. })
    }

    fn remapped(self, node_idx: usize) -> Self {
        match self {
            Pdu::DepositAck { message_id } => Pdu::DepositAck {
                message_id: remap_id(node_idx, message_id),
            },
            // Every holder answered 409: answer as one warehouse would.
            other => other,
        }
    }
}

impl Answer for DepositOutcome {
    fn split(reply: Pdu, n: usize) -> Option<impl Iterator<Item = Self>> {
        match reply {
            Pdu::DepositBatchAck { results } if results.len() == n => Some(results.into_iter()),
            _ => None,
        }
    }

    fn durable(&self) -> bool {
        is_durable_status(self.status)
    }

    fn stored(&self) -> bool {
        self.status == DepositOutcome::STORED
    }

    fn remapped(self, node_idx: usize) -> Self {
        DepositOutcome {
            message_id: remap_id(node_idx, self.message_id),
            ..self
        }
    }
}

/// Where one item's write wave ended.
enum ItemEnd<A> {
    /// W nodes hold it; the answer the device is given.
    Acked(A),
    /// Short of W, with the first non-durable verdict.
    Verdict(A),
    /// Short of W with no verdict: this many nodes hold it.
    QuorumFailed(usize),
}

/// Serializes a deposit PDU for the hint WAL: type byte, then body. The
/// hint must round-trip byte-identical — the replayed deposit carries
/// the device's original MAC, which covers these exact fields.
fn hint_payload(pdu: &Pdu) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + pdu.encoded_len());
    out.push(pdu.type_byte());
    pdu.encode_body(&mut out);
    out
}

/// Inverse of [`hint_payload`]; `None` means the hint is unreadable.
fn decode_hint(payload: &[u8]) -> Option<Pdu> {
    let (&type_byte, body) = payload.split_first()?;
    Pdu::decode_body(type_byte, body).ok()
}

/// Namespaces a node-local message id with the node's member index, so
/// ids stay unique in the merged view (node ids overlap freely — each
/// warehouse numbers its own rows).
fn remap_id(node_idx: usize, id: u64) -> u64 {
    ((node_idx as u64) << 56) | (id & ((1 << 56) - 1))
}

fn err(code: u16, detail: &str) -> Pdu {
    Pdu::Error {
        code,
        detail: detail.to_string(),
    }
}

/// Router-wide counters/latency (preregistered on first use).
struct RouterStats {
    deposits_acked: Counter,
    quorum_failures: Counter,
    retrieves_merged: Counter,
    retrieves_fastest: Counter,
    repair_rows: Counter,
    catchup_rows: Counter,
    rebalance_arcs: Counter,
    rebalance_rows: Counter,
    /// Rows dropped from departed replicas once every newcomer acked.
    rebalance_evicted: Counter,
    ring_epoch: Gauge,
    deposit_quorum_us: Histogram,
}

fn stats() -> &'static RouterStats {
    static STATS: std::sync::OnceLock<RouterStats> = std::sync::OnceLock::new();
    STATS.get_or_init(|| {
        let r = mws_obs::registry();
        RouterStats {
            deposits_acked: r.counter("mws_cluster_deposits_acked_total"),
            quorum_failures: r.counter("mws_cluster_quorum_failures_total"),
            retrieves_merged: r.counter("mws_cluster_retrieves_merged_total"),
            retrieves_fastest: r.counter("mws_cluster_retrieves_fastest_total"),
            repair_rows: r.counter("mws_cluster_repair_rows_total"),
            catchup_rows: r.counter("mws_cluster_catchup_rows_total"),
            rebalance_arcs: r.counter("mws_cluster_rebalance_arcs_total"),
            rebalance_rows: r.counter("mws_cluster_rebalance_rows_total"),
            rebalance_evicted: r.counter("mws_cluster_rebalance_evicted_total"),
            ring_epoch: r.gauge("mws_cluster_ring_epoch"),
            deposit_quorum_us: r.histogram("mws_cluster_deposit_quorum_us"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_net::Network;
    use mws_wire::{fnv1a64, DepositItem};

    /// A toy warehouse faithful to the router-visible contract: dedup by
    /// nonce, 409 on replayed nonces, 401 on a [`FORGED`] device MAC,
    /// retrieve listing, and the MAC'd replica plane. Shared behind a mutex
    /// so tests can inspect state.
    #[derive(Default)]
    struct ToyStore {
        rows: BTreeMap<Vec<u8>, RelayEntry>,
        replay: BTreeSet<Vec<u8>>,
        next_id: u64,
    }

    const KEY: &[u8] = b"toy-replica-key";

    /// The device MAC the toy warehouse refuses.
    const FORGED: &[u8] = b"forged";

    fn toy_service(store: Arc<Mutex<ToyStore>>) -> impl Service + 'static {
        move |req: Pdu| {
            let mut s = lock(&store);
            match req {
                Pdu::DepositRequest {
                    sd_id,
                    timestamp,
                    u,
                    algo,
                    sealed,
                    attribute,
                    nonce,
                    mac,
                } => {
                    if mac == FORGED {
                        return Pdu::Error {
                            code: 401,
                            detail: "bad mac".into(),
                        };
                    }
                    if s.replay.contains(&nonce) {
                        return Pdu::Error {
                            code: 409,
                            detail: "replayed".into(),
                        };
                    }
                    s.next_id += 1;
                    let id = s.next_id;
                    s.replay.insert(nonce.clone());
                    s.rows.insert(
                        nonce.clone(),
                        RelayEntry {
                            seq: id,
                            sd_id,
                            timestamp,
                            u,
                            algo,
                            sealed,
                            attribute,
                            nonce,
                        },
                    );
                    Pdu::DepositAck { message_id: id }
                }
                Pdu::DepositBatch { sd_id, items } => {
                    let results = items
                        .into_iter()
                        .map(|item| {
                            if item.mac == FORGED {
                                return DepositOutcome {
                                    status: DepositOutcome::REJECTED,
                                    message_id: 0,
                                };
                            }
                            if s.replay.contains(&item.nonce) {
                                return DepositOutcome {
                                    status: DepositOutcome::REPLAY,
                                    message_id: 0,
                                };
                            }
                            s.next_id += 1;
                            let id = s.next_id;
                            s.replay.insert(item.nonce.clone());
                            s.rows.insert(
                                item.nonce.clone(),
                                RelayEntry {
                                    seq: id,
                                    sd_id: sd_id.clone(),
                                    timestamp: item.timestamp,
                                    u: item.u,
                                    algo: item.algo,
                                    sealed: item.sealed,
                                    attribute: item.attribute,
                                    nonce: item.nonce,
                                },
                            );
                            DepositOutcome {
                                status: DepositOutcome::STORED,
                                message_id: id,
                            }
                        })
                        .collect();
                    Pdu::DepositBatchAck { results }
                }
                Pdu::RetrieveRequest { .. } => {
                    let messages = s
                        .rows
                        .values()
                        .map(|r| WireMessage {
                            message_id: r.seq,
                            u: r.u.clone(),
                            algo: r.algo,
                            sealed: r.sealed.clone(),
                            aid: fnv1a64(r.attribute.as_bytes()),
                            nonce: r.nonce.clone(),
                            timestamp: r.timestamp,
                            aad: Vec::new(),
                        })
                        .collect();
                    Pdu::RetrieveResponse {
                        token: b"tok".to_vec(),
                        messages,
                    }
                }
                req @ Pdu::ReplicaPull { .. } => {
                    mws_net::serve_pull(KEY, &req, |attribute, after| {
                        let mut rows: Vec<RelayEntry> = s
                            .rows
                            .values()
                            .filter(|r| {
                                (attribute.is_empty() || r.attribute == attribute) && r.seq >= after
                            })
                            .cloned()
                            .collect();
                        rows.sort_by_key(|r| r.seq);
                        Some(rows.into_iter())
                    })
                }
                Pdu::ReplicaPush { rows, mac } => {
                    if !ct_eq(&mac, &Hmac::<Sha256>::mac(KEY, &replica_push_bytes(&rows))) {
                        return Pdu::Error {
                            code: 401,
                            detail: "bad replica mac".into(),
                        };
                    }
                    let mut stored = 0;
                    let mut deduped = 0;
                    for mut row in rows {
                        if s.rows.contains_key(&row.nonce) {
                            deduped += 1;
                        } else {
                            s.next_id += 1;
                            row.seq = s.next_id;
                            s.rows.insert(row.nonce.clone(), row);
                            stored += 1;
                        }
                    }
                    Pdu::ReplicaPushAck { stored, deduped }
                }
                Pdu::HealthRequest => Pdu::HealthResponse {
                    role: "mms".into(),
                    ready: true,
                    detail: String::new(),
                },
                _ => Pdu::Error {
                    code: 400,
                    detail: "unexpected".into(),
                },
            }
        }
    }

    struct Cluster {
        net: Network,
        stores: Vec<Arc<Mutex<ToyStore>>>,
        router: Arc<ClusterRouter>,
    }

    fn cluster(n: usize, r: usize, w: usize) -> Cluster {
        let net = Network::new();
        let mut stores = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..n {
            let store = Arc::new(Mutex::new(ToyStore::default()));
            let name = format!("node-{i}");
            net.bind(&name, toy_service(store.clone()));
            nodes.push(ClusterNode::new(&name, vec![net.client(&name)]));
            stores.push(store);
        }
        let router = ClusterRouter::new(nodes, ClusterConfig::new(r, w), KEY.to_vec());
        Cluster {
            net,
            stores,
            router,
        }
    }

    fn deposit(attr: &str, nonce: &[u8]) -> Pdu {
        Pdu::DepositRequest {
            sd_id: "m".into(),
            timestamp: 1,
            u: b"\x02u".to_vec(),
            algo: 1,
            sealed: b"c".to_vec(),
            attribute: attr.into(),
            nonce: nonce.to_vec(),
            mac: b"mac".to_vec(),
        }
    }

    /// [`deposit`]'s fields as a batch item.
    fn item(attr: &str, nonce: &[u8]) -> DepositItem {
        DepositItem {
            timestamp: 1,
            u: b"\x02u".to_vec(),
            algo: 1,
            sealed: b"c".to_vec(),
            attribute: attr.into(),
            nonce: nonce.to_vec(),
            mac: b"mac".to_vec(),
        }
    }

    fn retrieve() -> Pdu {
        Pdu::RetrieveRequest {
            rc_id: "rc".into(),
            auth: b"auth".to_vec(),
            since: 0,
            limit: 0,
        }
    }

    fn holders(c: &Cluster, nonce: &[u8]) -> Vec<usize> {
        (0..c.stores.len())
            .filter(|&i| lock(&c.stores[i]).rows.contains_key(nonce))
            .collect()
    }

    #[test]
    fn deposit_lands_on_exactly_the_ring_replicas() {
        let c = cluster(3, 2, 2);
        for i in 0..16u8 {
            let attr = format!("ATTR-{i}");
            let reply = c.router.handle(deposit(&attr, &[i]));
            assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
            let mut expect = c.router.topo().ring.replicas(&attr, 2);
            expect.sort_unstable();
            assert_eq!(holders(&c, &[i]), expect);
        }
    }

    #[test]
    fn deposit_answers_with_the_first_preferred_replicas_id() {
        let c = cluster(3, 2, 2);
        let topo = c.router.topo();
        let mut against_node_order = 0;
        for i in 0..16u8 {
            let attr = format!("ORDER-{i}");
            let pref = topo.ring.preference(&attr);
            against_node_order += usize::from(pref[0] > pref[1]);
            let reply = c.router.handle(deposit(&attr, &[i]));
            let id = lock(&c.stores[pref[0]]).rows[&vec![i]].seq;
            assert_eq!(
                reply,
                Pdu::DepositAck {
                    message_id: remap_id(pref[0], id)
                },
                "{attr}"
            );
        }
        assert!(against_node_order > 0, "some waves run against node order");
    }

    #[test]
    fn retransmission_still_acks_through_dedup() {
        let c = cluster(3, 2, 2);
        let first = c.router.handle(deposit("A", b"n1"));
        let again = c.router.handle(deposit("A", b"n1"));
        // Both replicas 409 the replay; the quorum is met either way.
        assert!(matches!(first, Pdu::DepositAck { .. }));
        assert!(matches!(again, Pdu::Error { code: 409, .. }), "{again:?}");
        assert_eq!(holders(&c, b"n1").len(), 2, "no third copy appeared");
    }

    #[test]
    fn sloppy_quorum_survives_a_dead_primary() {
        let c = cluster(3, 2, 2);
        // Find an attribute whose primary is node 0, then kill node 0.
        let topo = c.router.topo();
        let attr = (0..)
            .map(|i| format!("K{i}"))
            .find(|a| topo.ring.replicas(a, 1)[0] == 0)
            .unwrap();
        drop(topo);
        c.net.unbind("node-0");
        let reply = c.router.handle(deposit(&attr, b"nx"));
        assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
        let have = holders(&c, b"nx");
        assert_eq!(have, vec![1, 2], "walk spilled past the dead primary");
        assert!(!c.router.topo().nodes[0].is_up(), "failure marked");
    }

    #[test]
    fn quorum_failure_is_an_honest_503() {
        let c = cluster(3, 2, 2);
        c.net.unbind("node-0");
        c.net.unbind("node-1");
        let reply = c.router.handle(deposit("A", b"n"));
        assert!(matches!(reply, Pdu::Error { code: 503, .. }), "{reply:?}");
    }

    #[test]
    fn batch_groups_by_replica_set_and_merges_outcomes() {
        let c = cluster(3, 2, 2);
        let items: Vec<DepositItem> = (0..8u8)
            .map(|i| DepositItem {
                timestamp: 1,
                u: b"\x02u".to_vec(),
                algo: 1,
                sealed: b"c".to_vec(),
                attribute: format!("ATTR-{i}"),
                nonce: vec![i],
                mac: b"mac".to_vec(),
            })
            .collect();
        let reply = c.router.handle(Pdu::DepositBatch {
            sd_id: "m".into(),
            items,
        });
        let Pdu::DepositBatchAck { results } = reply else {
            panic!("expected batch ack");
        };
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.status, DepositOutcome::STORED, "item {i}");
            assert_eq!(holders(&c, &[i as u8]).len(), 2, "item {i} replicated");
        }
    }

    /// A single deposit and the equivalent one-item batch take the same
    /// wave: under every set of down nodes, with hints on and off, at
    /// W = 1 and 2, they leave the same holders and the same hints, and the
    /// single reply maps onto the batch outcome — acks, replays, forged
    /// MACs and quorum failures alike. Replaying the hints keeps them equal.
    #[test]
    fn a_single_deposit_forwards_like_a_batch_of_one() {
        let maps_onto = |reply: &Pdu, batch: &Pdu| {
            let Pdu::DepositBatchAck { results } = batch else {
                return false;
            };
            let [o] = results.as_slice() else {
                return false;
            };
            match reply {
                Pdu::DepositAck { message_id } => {
                    o.status == DepositOutcome::STORED && o.message_id == *message_id
                }
                Pdu::Error { code: 409, .. } => o.status == DepositOutcome::REPLAY,
                Pdu::Error { code: 401, .. } => o.status == DepositOutcome::REJECTED,
                Pdu::Error { code: 503, .. } => o.status == DepositOutcome::STORAGE_ERROR,
                _ => false,
            }
        };
        for hinted in [false, true] {
            for w in [1, 2] {
                for down in 0..8usize {
                    let (a, b) = (cluster(3, 2, w), cluster(3, 2, w));
                    let downed: Vec<String> = (0..3)
                        .filter(|i| down & (1 << i) != 0)
                        .map(|i| format!("node-{i}"))
                        .collect();
                    for c in [&a, &b] {
                        if hinted {
                            c.router.enable_hints(None);
                        }
                        for name in &downed {
                            c.net.unbind(name);
                        }
                    }
                    let case = format!("hints {hinted}, W={w}, down {downed:?}");
                    let mut nonces = Vec::new();
                    for k in 0..8u8 {
                        let attr = format!("EQ-{}", k % 5);
                        // Deposits 5..7 retransmit 0..2; 3 and 7 are forged.
                        let nonce = vec![k % 5];
                        let (mut single, mut one) = (deposit(&attr, &nonce), item(&attr, &nonce));
                        if k % 4 == 3 {
                            one.mac = FORGED.to_vec();
                            if let Pdu::DepositRequest { mac, .. } = &mut single {
                                *mac = FORGED.to_vec();
                            }
                        }
                        let reply = a.router.handle(single);
                        let batch = b.router.handle(Pdu::DepositBatch {
                            sd_id: "m".into(),
                            items: vec![one],
                        });
                        assert!(
                            maps_onto(&reply, &batch),
                            "{case}, #{k}: {reply:?} vs {batch:?}"
                        );
                        assert_eq!(holders(&a, &nonce), holders(&b, &nonce), "{case}, #{k}");
                        nonces.push(nonce);
                    }
                    let pending = |c: &Cluster| -> Vec<usize> {
                        let board = c.router.hint_board();
                        (0..3)
                            .map(|i| {
                                board
                                    .as_ref()
                                    .map_or(0, |h| h.pending(&format!("node-{i}")))
                            })
                            .collect()
                    };
                    assert_eq!(pending(&a), pending(&b), "{case}: hints");
                    for c in [&a, &b] {
                        for name in &downed {
                            let i: usize = name["node-".len()..].parse().unwrap();
                            c.net.bind(name, toy_service(c.stores[i].clone()));
                        }
                        c.router.probe_once();
                    }
                    for nonce in &nonces {
                        assert_eq!(
                            holders(&a, nonce),
                            holders(&b, nonce),
                            "{case}: after replay"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn retrieve_merges_unique_rows_across_nodes() {
        let c = cluster(3, 2, 2);
        for i in 0..12u8 {
            c.router.handle(deposit(&format!("ATTR-{i}"), &[i]));
        }
        let Pdu::RetrieveResponse { token, messages } = c.router.handle(retrieve()) else {
            panic!("expected retrieve response");
        };
        assert_eq!(token, b"tok");
        assert_eq!(messages.len(), 12, "union without duplicates");
        let mut ids: Vec<u64> = messages.iter().map(|m| m.message_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "remapped ids stay unique");
    }

    #[test]
    fn read_repair_heals_a_diverged_replica() {
        let c = cluster(3, 2, 2);
        let reply = c.router.handle(deposit("A", b"n1"));
        assert!(matches!(reply, Pdu::DepositAck { .. }));
        let reps = c.router.topo().ring.replicas("A", 2);
        // Simulate a lost row on one replica (torn disk, rolled-back WAL).
        let laggard = reps[1];
        lock(&c.stores[laggard]).rows.clear();
        c.router
            .set_attribute_names([(fnv1a64(b"A"), "A".to_string())]);
        let Pdu::RetrieveResponse { messages, .. } = c.router.handle(retrieve()) else {
            panic!("expected retrieve response");
        };
        assert_eq!(messages.len(), 1, "survivor still serves the row");
        assert!(
            lock(&c.stores[laggard]).rows.contains_key(b"n1".as_slice()),
            "divergent replica repaired from the donor"
        );
    }

    #[test]
    fn restarted_node_catches_up_before_rejoining() {
        let c = cluster(3, 2, 2);
        c.net.unbind("node-0");
        c.router.probe_once(); // notice the death
        let mut mine = Vec::new();
        for i in 0..32u8 {
            let attr = format!("ATTR-{i}");
            let reply = c.router.handle(deposit(&attr, &[i]));
            assert!(matches!(reply, Pdu::DepositAck { .. }));
            if c.router.topo().ring.replicas(&attr, 2).contains(&0) {
                mine.push(i);
            }
        }
        assert!(!mine.is_empty(), "some attributes place on node 0");
        assert!(holders(&c, &[mine[0]]).len() >= 2, "spilled while down");
        // Restart: rebind the same store (its pre-crash rows intact).
        c.net.bind("node-0", toy_service(c.stores[0].clone()));
        c.router.probe_once(); // notice recovery + catch up
        assert!(c.router.topo().nodes[0].is_up());
        for i in mine {
            assert!(
                lock(&c.stores[0]).rows.contains_key(&vec![i]),
                "row {i} pushed during catch-up"
            );
        }
    }

    #[test]
    fn catch_up_pulls_from_every_live_peer() {
        // With hints off a write wave walks past a down replica to the
        // next live node on the attribute's preference list. Pick an
        // attribute homed on node 0 whose walk ends at node 1, the
        // lowest-index live peer: its rows land on nodes 2 and 3 only.
        let c = cluster(4, 2, 2);
        let ring = &c.router.topo().ring;
        let attr = (0..)
            .map(|i| format!("ATTR-{i}"))
            .find(|a| {
                let pref = ring.preference(a);
                pref[..2].contains(&0) && pref[3] == 1
            })
            .unwrap();
        c.net.unbind("node-0");
        c.router.probe_once();
        for n in 0..4u8 {
            let reply = c.router.handle(deposit(&attr, &[n]));
            assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
            assert_eq!(holders(&c, &[n]), [2, 3], "the walk skipped node 1");
        }
        c.net.bind("node-0", toy_service(c.stores[0].clone()));
        c.router.probe_once();
        for n in 0..4u8 {
            assert!(
                lock(&c.stores[0]).rows.contains_key(&vec![n]),
                "acked row {n} caught up onto its recovered replica"
            );
        }
    }

    #[test]
    fn membership_change_keeps_surviving_state() {
        let c = cluster(3, 2, 2);
        c.net.unbind("node-2");
        c.router.probe_once(); // observe the death

        // Grow to 4 nodes by a join order; the down state of node-2 must
        // carry over.
        let store = Arc::new(Mutex::new(ToyStore::default()));
        c.net.bind("node-3", toy_service(store.clone()));
        let net = c.net.clone();
        c.router
            .set_node_factory(move |name| ClusterNode::new(name, vec![net.client(name)]));
        let reply = c.router.handle(join_order("node-3", c.router.epoch()));
        assert!(matches!(reply, Pdu::ClusterAdminAck { .. }), "{reply:?}");
        assert!(c.router.wait_rebalance(WAIT), "transfer finished");
        let states = c.router.node_states();
        assert_eq!(states.len(), 4);
        assert!(!states[2].1, "node-2 still known dead after the swap");
        assert!(states[3].1, "new node starts up");
    }

    fn join_order(node: &str, epoch: u64) -> Pdu {
        Pdu::ClusterJoin {
            node: node.into(),
            epoch,
            mac: Hmac::<Sha256>::mac(KEY, &cluster_admin_bytes(0x64, node, epoch)),
        }
    }

    fn drain_order(node: &str, epoch: u64) -> Pdu {
        Pdu::ClusterDrain {
            node: node.into(),
            epoch,
            mac: Hmac::<Sha256>::mac(KEY, &cluster_admin_bytes(0x65, node, epoch)),
        }
    }

    const WAIT: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn hinted_handoff_converges_to_exactly_r_copies() {
        let c = cluster(3, 2, 1);
        c.router.enable_hints(None);
        // Find an attribute with node-0 in its replica set, then kill it.
        let topo = c.router.topo();
        let attr = (0..)
            .map(|i| format!("H{i}"))
            .find(|a| topo.ring.replicas(a, 2).contains(&0))
            .unwrap();
        let mut reps = topo.ring.replicas(&attr, 2);
        reps.sort_unstable();
        drop(topo);
        c.net.unbind("node-0");
        let reply = c.router.handle(deposit(&attr, b"hint-me"));
        assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
        // W=1 with hints: the copy owed to node-0 is a hint, not a spill.
        assert_eq!(holders(&c, b"hint-me").len(), 1, "no overflow copy");
        let board = c.router.hint_board().unwrap();
        assert_eq!(
            board.pending("node-0"),
            1,
            "hint queued for the dead replica"
        );
        // Recovery: the prober replays the hint; exactly R copies, on
        // exactly the ring replicas.
        c.net.bind("node-0", toy_service(c.stores[0].clone()));
        c.router.probe_once();
        assert_eq!(
            holders(&c, b"hint-me"),
            reps,
            "converged to the ring replicas"
        );
        assert_eq!(board.pending("node-0"), 0, "hint retired");
    }

    #[test]
    fn batch_hints_carry_only_acked_items() {
        let c = cluster(3, 2, 1);
        c.router.enable_hints(None);
        c.net.unbind("node-1");
        let items: Vec<DepositItem> = (0..6u8)
            .map(|i| DepositItem {
                timestamp: 1,
                u: b"\x02u".to_vec(),
                algo: 1,
                sealed: b"c".to_vec(),
                attribute: format!("ATTR-{i}"),
                nonce: vec![0x40 | i],
                mac: b"mac".to_vec(),
            })
            .collect();
        let Pdu::DepositBatchAck { results } = c.router.handle(Pdu::DepositBatch {
            sd_id: "m".into(),
            items,
        }) else {
            panic!("expected batch ack");
        };
        assert!(results.iter().all(|o| o.status == DepositOutcome::STORED));
        c.net.bind("node-1", toy_service(c.stores[1].clone()));
        c.router.probe_once();
        let topo = c.router.topo();
        for i in 0..6u8 {
            let mut reps = topo.ring.replicas(&format!("ATTR-{i}"), 2);
            reps.sort_unstable();
            assert_eq!(holders(&c, &[0x40 | i]), reps, "item {i} converged");
        }
    }

    #[test]
    fn fastest_read_skips_merge_and_repair() {
        let net = Network::new();
        let mut stores = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..3 {
            let store = Arc::new(Mutex::new(ToyStore::default()));
            let name = format!("node-{i}");
            net.bind(&name, toy_service(store.clone()));
            nodes.push(ClusterNode::new(&name, vec![net.client(&name)]));
            stores.push(store);
        }
        let cfg = ClusterConfig::new(2, 2).with_read(ReadConsistency::Fastest);
        let router = ClusterRouter::new(nodes, cfg, KEY.to_vec());
        let reply = router.handle(deposit("A", b"f1"));
        assert!(matches!(reply, Pdu::DepositAck { .. }));
        router.set_attribute_names([(fnv1a64(b"A"), "A".to_string())]);
        let laggard = router.topo().ring.replicas("A", 2)[1];
        lock(&stores[laggard]).rows.clear();
        for _ in 0..6 {
            let reply = router.handle(retrieve());
            assert!(matches!(reply, Pdu::RetrieveResponse { .. }), "{reply:?}");
        }
        assert!(
            lock(&stores[laggard]).rows.is_empty(),
            "fastest reads never trigger read-repair"
        );
    }

    #[test]
    fn join_streams_remapped_arcs_and_activates() {
        let c = cluster(3, 2, 2);
        let attrs: Vec<String> = (0..32).map(|i| format!("ATTR-{i}")).collect();
        c.router
            .set_attribute_names(attrs.iter().map(|a| (fnv1a64(a.as_bytes()), a.clone())));
        for (i, attr) in attrs.iter().enumerate() {
            let reply = c.router.handle(deposit(attr, &[i as u8]));
            assert!(matches!(reply, Pdu::DepositAck { .. }));
        }
        let store3 = Arc::new(Mutex::new(ToyStore::default()));
        c.net.bind("node-3", toy_service(store3.clone()));
        let net = c.net.clone();
        c.router
            .set_node_factory(move |name| ClusterNode::new(name, vec![net.client(name)]));
        let reply = c.router.handle(join_order("node-3", c.router.epoch()));
        let Pdu::ClusterAdminAck { epoch, .. } = reply else {
            panic!("join refused: {reply:?}");
        };
        assert_eq!(epoch, 1, "join bumped the ring epoch");
        assert!(c.router.wait_rebalance(WAIT), "transfer finished");
        let topo = c.router.topo();
        assert_eq!(topo.nodes.len(), 4);
        let node3 = topo.by_name("node-3").unwrap();
        assert_eq!(node3.member_state(), MEMBER_ACTIVE, "joining → active");
        let mut streamed = 0;
        for (i, attr) in attrs.iter().enumerate() {
            if topo.ring.replicas(attr, 2).contains(&3) {
                streamed += 1;
                assert!(
                    lock(&store3).rows.contains_key(&vec![i as u8]),
                    "remapped arc {attr} reached the newcomer"
                );
            }
        }
        assert!(streamed > 0, "a 3→4 join remaps some arcs");
        let Pdu::RebalanceReport {
            transferring,
            arcs_done,
            arcs_total,
            ..
        } = c.router.handle(Pdu::RebalanceStatus)
        else {
            panic!("expected rebalance report");
        };
        assert!(!transferring);
        assert_eq!(arcs_done, arcs_total);
    }

    #[test]
    fn drain_hands_off_arcs_before_dropping_the_node() {
        let c = cluster(3, 2, 2);
        let attrs: Vec<String> = (0..32).map(|i| format!("ATTR-{i}")).collect();
        c.router
            .set_attribute_names(attrs.iter().map(|a| (fnv1a64(a.as_bytes()), a.clone())));
        for (i, attr) in attrs.iter().enumerate() {
            let reply = c.router.handle(deposit(attr, &[i as u8]));
            assert!(matches!(reply, Pdu::DepositAck { .. }));
        }
        let reply = c.router.handle(drain_order("node-2", 0));
        assert!(
            matches!(reply, Pdu::ClusterAdminAck { epoch: 1, .. }),
            "{reply:?}"
        );
        assert!(c.router.wait_rebalance(WAIT), "transfer finished");
        let topo = c.router.topo();
        assert_eq!(topo.nodes.len(), 2, "leaving node out of the ring");
        assert!(topo.by_name("node-2").is_none());
        // R=2 over 2 survivors: every acked row on both remaining nodes.
        for i in 0..attrs.len() as u8 {
            assert_eq!(holders(&c, &[i])[..2], [0, 1], "row {i} handed off");
        }
    }

    #[test]
    fn admin_orders_are_mac_and_epoch_gated() {
        let c = cluster(3, 2, 2);
        let forged = Pdu::ClusterDrain {
            node: "node-2".into(),
            epoch: 0,
            mac: vec![0u8; 32],
        };
        assert!(matches!(
            c.router.handle(forged),
            Pdu::Error { code: 403, .. }
        ));
        // A well-MAC'd order for the wrong epoch is refused (replay of a
        // captured order after the ring moved).
        let stale = drain_order("node-2", 7);
        assert!(matches!(
            c.router.handle(stale),
            Pdu::Error { code: 409, .. }
        ));
        // The real order works once; replaying it verbatim is refused.
        let order = drain_order("node-2", 0);
        assert!(matches!(
            c.router.handle(order.clone()),
            Pdu::ClusterAdminAck { .. }
        ));
        assert!(c.router.wait_rebalance(WAIT));
        assert!(matches!(
            c.router.handle(order),
            Pdu::Error { code: 409, .. }
        ));
    }

    #[test]
    fn health_aggregates_membership() {
        let c = cluster(3, 2, 2);
        let Pdu::HealthResponse {
            role,
            ready,
            detail,
        } = c.router.handle(Pdu::HealthRequest)
        else {
            panic!("expected health response");
        };
        assert_eq!(role, "cluster");
        assert!(ready);
        assert!(detail.contains("3/3"), "{detail}");
        c.net.unbind("node-0");
        c.net.unbind("node-1");
        c.router.probe_once();
        let Pdu::HealthResponse { ready, detail, .. } = c.router.handle(Pdu::HealthRequest) else {
            panic!("expected health response");
        };
        assert!(!ready, "below write quorum: {detail}");
    }
}
