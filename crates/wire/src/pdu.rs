//! Typed protocol data units for the three protocol phases (§V.D).

use crate::codec::{WireReader, WireWriter};
use crate::WireError;

/// One warehoused message as delivered to an RC:
/// `rP ‖ C ‖ (AID ‖ Nonce)` plus bookkeeping.
///
/// Note the field the paper stresses: the RC sees the **AID**, never the
/// attribute string itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireMessage {
    /// Warehouse-assigned message id.
    pub message_id: u64,
    /// Compressed `U = rP`.
    pub u: Vec<u8>,
    /// Symmetric cipher id.
    pub algo: u8,
    /// Sealed ciphertext `C`.
    pub sealed: Vec<u8>,
    /// Attribute ID (row id in the Policy Database).
    pub aid: u64,
    /// Per-message nonce.
    pub nonce: Vec<u8>,
    /// Deposit timestamp.
    pub timestamp: u64,
    /// Authenticated associated data the SD bound into the seal.
    pub aad: Vec<u8>,
}

/// All protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pdu {
    // ---- SD – MWS phase ----
    /// SD deposit: `rP ‖ C ‖ (A ‖ Nonce) ‖ ID_SD ‖ T ‖ MAC`.
    DepositRequest {
        /// Depositing device identity.
        sd_id: String,
        /// Device timestamp `T`.
        timestamp: u64,
        /// Compressed `U = rP`.
        u: Vec<u8>,
        /// Symmetric cipher id.
        algo: u8,
        /// Sealed ciphertext `C`.
        sealed: Vec<u8>,
        /// Attribute string `A`.
        attribute: String,
        /// Per-message nonce.
        nonce: Vec<u8>,
        /// Deposit authenticator: `HMAC(SecK_SD-MWS, fields)` in shared-key
        /// mode, or an encoded Cha–Cheon signature in IBS mode (§VIII).
        mac: Vec<u8>,
    },
    /// MWS acknowledgment of a deposit.
    DepositAck {
        /// Assigned message id.
        message_id: u64,
    },
    /// SD deposit batch: several deposits from one device in one PDU, so
    /// the warehouse can group-commit rows landing on the same shard into
    /// a single WAL append + fsync (DESIGN.md §9).
    DepositBatch {
        /// Depositing device identity (shared by every item).
        sd_id: String,
        /// The batched deposits, each individually authenticated.
        items: Vec<DepositItem>,
    },
    /// MWS acknowledgment of a batch: one outcome per item, in order.
    /// Sent only after every stored item is durable on its shard.
    DepositBatchAck {
        /// Per-item outcomes, index-aligned with the request's items.
        results: Vec<DepositOutcome>,
    },

    // ---- MWS – RC phase ----
    /// RC retrieval: `ID_RC ‖ E(HashPassword, ID_RC ‖ T ‖ N)`.
    RetrieveRequest {
        /// Claimed RC identity (plaintext, checked against the encrypted copy).
        rc_id: String,
        /// `E(HashPassword, ID_RC ‖ T ‖ N)`.
        auth: Vec<u8>,
        /// Only messages with `timestamp ≥ since` are returned.
        since: u64,
        /// Maximum messages per response (0 = server default). Pagination:
        /// resume with `since = last.timestamp` and client-side id dedup.
        limit: u32,
    },
    /// MWS response: token + matching messages.
    RetrieveResponse {
        /// `Token = E(PubK_RC, SecK_RC-PKG ‖ Ticket)`.
        token: Vec<u8>,
        /// Messages the policy grants this RC.
        messages: Vec<WireMessage>,
    },

    // ---- RC – PKG phase ----
    /// RC → PKG: `ID_RC ‖ Ticket ‖ Authenticator`.
    PkgAuthRequest {
        /// RC identity.
        rc_id: String,
        /// `E(SecK_MWS-PKG, AID↦A table ‖ SecK_RC-PKG)`.
        ticket: Vec<u8>,
        /// `E(SecK_RC-PKG, ID_RC ‖ T)`.
        authenticator: Vec<u8>,
    },
    /// PKG confirmation establishing a key-request session.
    PkgAuthResponse {
        /// Session handle for subsequent [`Pdu::KeyRequest`]s.
        session_id: u64,
        /// `E(SecK_RC-PKG, T+1)` — proves the PKG knew the session key.
        confirmation: Vec<u8>,
    },
    /// RC → PKG: `AID ‖ Nonce` for one message's private key.
    KeyRequest {
        /// Session handle.
        session_id: u64,
        /// Attribute ID from the retrieved message header.
        aid: u64,
        /// The message's nonce.
        nonce: Vec<u8>,
    },
    /// PKG → RC: the private key `sI`, encrypted under the session key.
    KeyResponse {
        /// `E(SecK_RC-PKG, compressed sI)`.
        encrypted_key: Vec<u8>,
    },

    // ---- Administrative ----
    /// Request for system parameters (paper §VIII: "it would be easier if
    /// the SD obtains the parameters" from the PKG instead of generating).
    ParamsRequest,
    /// System parameters: curve + master public key.
    ParamsResponse {
        /// Field prime `p` (big-endian).
        p: Vec<u8>,
        /// Group order `q` (big-endian).
        q: Vec<u8>,
        /// Cofactor `h` (big-endian).
        h: Vec<u8>,
        /// Compressed generator `P`.
        generator: Vec<u8>,
        /// Compressed master public key `sP`.
        mpk: Vec<u8>,
    },

    // ---- Row plane: cluster replicas and distribution points (DESIGN.md §10) ----
    /// Paged row fetch: full rows (attribute + origin identity included)
    /// of one attribute, or of all when `attribute` is empty, with
    /// `seq >= after`. Warehouses answer it under the cluster replica key,
    /// ingest points (§VIII) under their site key, dropping the rows below
    /// `after`; a request whose MAC fails gets 401.
    ReplicaPull {
        /// Attribute to fetch, or `""` for a full scan.
        attribute: String,
        /// Resume cursor: only rows with `seq` at or above this (resume a
        /// page walk at `last.seq + 1`).
        after: u64,
        /// Maximum rows per response (0 = server default).
        max: u32,
        /// Fresh per request, so no captured page answers a later pull.
        nonce: Vec<u8>,
        /// `HMAC(plane key, replica_pull_bytes(..))`.
        mac: Vec<u8>,
    },
    /// Reply to [`Pdu::ReplicaPull`]: rows in `seq` order.
    ReplicaRows {
        /// The rows, `seq` carrying the answering node's cursor key.
        rows: Vec<RelayEntry>,
        /// True when no further rows exist above the last returned one.
        done: bool,
        /// `HMAC(plane key, replica_rows_bytes(pull, rows, done))`.
        mac: Vec<u8>,
    },
    /// Replica repair write: rows another node durably holds, pushed to a
    /// lagging replica. The receiver verifies the MAC, then stores each
    /// row idempotently by its `(sd_id, nonce)` origin — the same dedup
    /// identity a device retransmission carries, so repair and live
    /// traffic can never double-store a message.
    ReplicaPush {
        /// Full rows to (re)store; `seq` is the pushing node's id and is
        /// NOT preserved — the receiver assigns its own ids.
        rows: Vec<RelayEntry>,
        /// `HMAC(replica key, canonical rows)`.
        mac: Vec<u8>,
    },
    /// Reply to [`Pdu::ReplicaPush`]: how many rows were fresh vs already
    /// present, all durable before this ack.
    ReplicaPushAck {
        /// Rows stored fresh (and fsynced) by this push.
        stored: u32,
        /// Rows already present under the same origin.
        deduped: u32,
    },
    /// Replica handover finalizer: drop every row of one attribute. Sent
    /// by the rebalance worker to a node the new ring no longer names as
    /// a replica for that attribute, and only after the inheriting
    /// replicas acked the arc — so the cluster ends a membership change
    /// at exactly R copies instead of leaking stale donors. Authenticated
    /// with the replica key over [`replica_evict_bytes`]; a holder of
    /// that key can already rewrite rows via [`Pdu::ReplicaPush`], so
    /// this grants no new power.
    ReplicaEvict {
        /// Attribute whose rows the receiver must drop.
        attribute: String,
        /// The ring epoch the evicting transfer runs under (bound into
        /// the MAC for auditability and domain separation).
        epoch: u64,
        /// `HMAC(replica key, canonical evict bytes)`.
        mac: Vec<u8>,
    },
    /// Reply to [`Pdu::ReplicaEvict`]: rows dropped, durable before this
    /// ack.
    ReplicaEvicted {
        /// Rows removed by the sweep (0 when nothing was held).
        removed: u64,
    },

    // ---- Cluster membership admin plane (DESIGN.md §10) ----
    /// Admin order: add `node` to the cluster ring and stream the remapped
    /// arcs to it in the background. Authenticated with the replica key
    /// over [`cluster_join_bytes`]; `epoch` must equal the ring epoch the
    /// operator observed via [`Pdu::RebalanceStatus`], so a delayed or
    /// replayed order can never apply to a ring it was not written for.
    ClusterJoin {
        /// Node name (`host:port`) to add; the router's node factory
        /// resolves it to a connection pool.
        node: String,
        /// The ring epoch this order was built against.
        epoch: u64,
        /// `HMAC(replica key, canonical join bytes)`.
        mac: Vec<u8>,
    },
    /// Admin order: drain `node` out of the ring — new writes stop landing
    /// on it immediately, its arcs stream to the nodes that inherit them,
    /// and only then is the handle dropped. Same epoch + MAC discipline as
    /// [`Pdu::ClusterJoin`], over [`cluster_drain_bytes`].
    ClusterDrain {
        /// Node name to remove from the ring.
        node: String,
        /// The ring epoch this order was built against.
        epoch: u64,
        /// `HMAC(replica key, canonical drain bytes)`.
        mac: Vec<u8>,
    },
    /// Reply to a membership order: the epoch the ring moved to.
    ClusterAdminAck {
        /// The new ring epoch after the membership change.
        epoch: u64,
        /// Human-readable summary ("joining node-3: 42 arcs queued").
        detail: String,
    },
    /// Operator query for ring epoch, membership states and arc-transfer
    /// progress. Unauthenticated like [`Pdu::StatsRequest`]: it exposes
    /// topology shape only — never row data or key material.
    RebalanceStatus,
    /// Reply to [`Pdu::RebalanceStatus`].
    RebalanceReport {
        /// Current ring epoch (bumped by every join/drain).
        epoch: u64,
        /// True while a background arc transfer is running.
        transferring: bool,
        /// Every tracked node (ring members plus a still-draining donor).
        members: Vec<MemberState>,
        /// Arcs (attribute, newcomer) pairs in the current/last transfer.
        arcs_total: u64,
        /// Arcs fully streamed so far.
        arcs_done: u64,
        /// Rows moved by the current/last transfer.
        rows_moved: u64,
    },

    // ---- Operations ----
    /// Liveness/readiness probe; every daemon answers it without
    /// authentication (it carries no message data).
    HealthRequest,
    /// Daemon health report.
    HealthResponse {
        /// Which daemon answered ("mms", "pkg", "gatekeeper").
        role: String,
        /// True when the daemon can serve protocol traffic (stores open,
        /// upstreams provisioned) — not merely that the socket accepted.
        ready: bool,
        /// Human-readable detail (version, store state, ...).
        detail: String,
    },

    /// Operator request for a daemon's metrics snapshot. Served without
    /// authentication like [`Pdu::HealthRequest`]: the exposition holds
    /// traffic shape and timing only — never identities, plaintext or
    /// key material (the `mws-obs` labeling contract, DESIGN.md §7).
    StatsRequest,
    /// Metrics snapshot: Prometheus-style `name{label="v"} value` text.
    StatsResponse {
        /// Which daemon answered ("mms", "pkg", "gatekeeper").
        role: String,
        /// The text exposition of the daemon's metrics registry.
        text: String,
    },

    /// Error reply usable in any phase.
    Error {
        /// Machine-readable code (see `mws-core`'s error taxonomy).
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
}

/// One deposit inside a [`Pdu::DepositBatch`]. The fields mirror
/// [`Pdu::DepositRequest`] minus the device identity, which is hoisted to
/// the batch; the MAC covers the same per-deposit fields as a single
/// deposit's, so batching changes framing but not authentication.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepositItem {
    /// Device timestamp `T`.
    pub timestamp: u64,
    /// Compressed `U = rP`.
    pub u: Vec<u8>,
    /// Symmetric cipher id.
    pub algo: u8,
    /// Sealed ciphertext `C`.
    pub sealed: Vec<u8>,
    /// Attribute string `A`.
    pub attribute: String,
    /// Per-message nonce.
    pub nonce: Vec<u8>,
    /// Deposit authenticator (HMAC or Cha–Cheon signature).
    pub mac: Vec<u8>,
}

/// Per-item outcome in a [`Pdu::DepositBatchAck`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepositOutcome {
    /// One of the `DepositOutcome::*` status constants.
    pub status: u8,
    /// The warehoused id for `STORED`/`DUPLICATE`; 0 otherwise.
    pub message_id: u64,
}

impl DepositOutcome {
    /// Stored fresh and durable.
    pub const STORED: u8 = 0;
    /// Origin `(sd_id, nonce)` already warehoused; `message_id` is the
    /// original row's id.
    pub const DUPLICATE: u8 = 1;
    /// Authentication failed (bad MAC or unknown device).
    pub const REJECTED: u8 = 2;
    /// Timestamp outside the freshness window or nonce replayed.
    pub const REPLAY: u8 = 3;
    /// The owning shard failed to store or fsync the row; retry later.
    pub const STORAGE_ERROR: u8 = 4;
}

/// One stored row as the row plane carries it (an ingest point's buffered
/// deposit or a warehouse's row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelayEntry {
    /// The serving node's cursor key: an ingest point's site sequence
    /// number or a warehouse's message id (monotonic per node).
    pub seq: u64,
    /// Depositing device.
    pub sd_id: String,
    /// Device timestamp.
    pub timestamp: u64,
    /// Compressed `U = rP`.
    pub u: Vec<u8>,
    /// Cipher id.
    pub algo: u8,
    /// Sealed ciphertext.
    pub sealed: Vec<u8>,
    /// Attribute string.
    pub attribute: String,
    /// Per-message nonce.
    pub nonce: Vec<u8>,
}

/// Encodes a length-prefixed run of [`RelayEntry`] rows.
fn write_relay_entries(w: &mut WireWriter, entries: &[RelayEntry]) {
    w.u32(entries.len() as u32);
    for e in entries {
        w.u64(e.seq)
            .string(&e.sd_id)
            .u64(e.timestamp)
            .bytes(&e.u)
            .u8(e.algo)
            .bytes(&e.sealed)
            .string(&e.attribute)
            .bytes(&e.nonce);
    }
}

/// Decodes a length-prefixed run of [`RelayEntry`] rows, bounding the
/// declared count against [`crate::MAX_BODY`].
fn read_relay_entries(r: &mut WireReader) -> Result<Vec<RelayEntry>, WireError> {
    let n = r.u32()? as usize;
    if n > crate::MAX_BODY / 16 {
        return Err(WireError::BadLength);
    }
    let mut entries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        entries.push(RelayEntry {
            seq: r.u64()?,
            sd_id: r.string()?,
            timestamp: r.u64()?,
            u: r.bytes()?,
            algo: r.u8()?,
            sealed: r.bytes()?,
            attribute: r.string()?,
            nonce: r.bytes()?,
        });
    }
    Ok(entries)
}

/// Canonical bytes the row plane MACs: the PDU type byte (so a
/// [`Pdu::ReplicaRows`] MAC can never be replayed as a [`Pdu::ReplicaPush`]
/// or vice versa), the length-prefixed rows exactly as framed on the wire,
/// and the `done` flag (`false` for pushes, which have none).
fn replica_plane_bytes(type_byte: u8, rows: &[RelayEntry], done: bool) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(type_byte);
    write_relay_entries(&mut w, rows);
    w.u8(done as u8);
    w.finish()
}

/// MAC input of a [`Pdu::ReplicaPull`] request: the type byte and every
/// request field. The reply to it binds these same bytes.
pub fn replica_pull_bytes(attribute: &str, after: u64, max: u32, nonce: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(0x60)
        .string(attribute)
        .u64(after)
        .u32(max)
        .bytes(nonce);
    w.finish()
}

/// MAC input of a [`Pdu::ReplicaRows`] reply to the request whose
/// [`replica_pull_bytes`] are `pull`: bound to it, a captured page (say an
/// empty final one) answers no later pull.
pub fn replica_rows_bytes(pull: &[u8], rows: &[RelayEntry], done: bool) -> Vec<u8> {
    let mut bytes = replica_plane_bytes(0x61, rows, done);
    bytes.extend_from_slice(pull);
    bytes
}

/// MAC input of a [`Pdu::ReplicaPush`] (no `done` flag; pinned false).
pub fn replica_push_bytes(rows: &[RelayEntry]) -> Vec<u8> {
    replica_plane_bytes(0x62, rows, false)
}

/// One cluster member's membership state in a [`Pdu::RebalanceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberState {
    /// Node name.
    pub node: String,
    /// Membership state code ([`MEMBER_ACTIVE`], [`MEMBER_JOINING`],
    /// [`MEMBER_DRAINING`]).
    pub state: u8,
    /// Last probed liveness.
    pub up: bool,
}

/// [`MemberState::state`]: fully active ring member.
pub const MEMBER_ACTIVE: u8 = 0;
/// [`MemberState::state`]: in the ring, still receiving its arcs.
pub const MEMBER_JOINING: u8 = 1;
/// [`MemberState::state`]: out of the ring, still donating its arcs.
pub const MEMBER_DRAINING: u8 = 2;

/// Canonical bytes a cluster membership order MACs: the PDU type byte (a
/// join MAC can never authorize a drain or vice versa), the node name, and
/// the ring epoch the order targets. Binding the epoch makes every order
/// single-use — once the ring moves, a captured order verifies but no
/// longer matches the current epoch and is refused.
pub fn cluster_admin_bytes(type_byte: u8, node: &str, epoch: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(type_byte);
    w.string(node);
    w.u64(epoch);
    w.finish()
}

/// MAC input of a [`Pdu::ClusterJoin`] order.
pub fn cluster_join_bytes(node: &str, epoch: u64) -> Vec<u8> {
    cluster_admin_bytes(0x64, node, epoch)
}

/// MAC input of a [`Pdu::ClusterDrain`] order.
pub fn cluster_drain_bytes(node: &str, epoch: u64) -> Vec<u8> {
    cluster_admin_bytes(0x65, node, epoch)
}

/// MAC input of a [`Pdu::ReplicaEvict`] order: the PDU type byte (an
/// evict MAC authorizes nothing else), the attribute being dropped, and
/// the ring epoch of the transfer issuing it.
pub fn replica_evict_bytes(attribute: &str, epoch: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(0x69);
    w.string(attribute);
    w.u64(epoch);
    w.finish()
}

impl Pdu {
    /// Message-type byte for the envelope.
    pub fn type_byte(&self) -> u8 {
        match self {
            Pdu::DepositRequest { .. } => 0x01,
            Pdu::DepositAck { .. } => 0x02,
            Pdu::DepositBatch { .. } => 0x03,
            Pdu::DepositBatchAck { .. } => 0x04,
            Pdu::RetrieveRequest { .. } => 0x10,
            Pdu::RetrieveResponse { .. } => 0x11,
            Pdu::PkgAuthRequest { .. } => 0x20,
            Pdu::PkgAuthResponse { .. } => 0x21,
            Pdu::KeyRequest { .. } => 0x22,
            Pdu::KeyResponse { .. } => 0x23,
            Pdu::ParamsRequest => 0x30,
            Pdu::ParamsResponse { .. } => 0x31,
            Pdu::ReplicaPull { .. } => 0x60,
            Pdu::ReplicaRows { .. } => 0x61,
            Pdu::ReplicaPush { .. } => 0x62,
            Pdu::ReplicaPushAck { .. } => 0x63,
            Pdu::ReplicaEvict { .. } => 0x69,
            Pdu::ReplicaEvicted { .. } => 0x6a,
            Pdu::ClusterJoin { .. } => 0x64,
            Pdu::ClusterDrain { .. } => 0x65,
            Pdu::ClusterAdminAck { .. } => 0x66,
            Pdu::RebalanceStatus => 0x67,
            Pdu::RebalanceReport { .. } => 0x68,
            Pdu::HealthRequest => 0x50,
            Pdu::HealthResponse { .. } => 0x51,
            Pdu::StatsRequest => 0x52,
            Pdu::StatsResponse { .. } => 0x53,
            Pdu::Error { .. } => 0xff,
        }
    }

    /// Static snake_case variant name — the low-cardinality label used
    /// for per-PDU-type metrics (`pdu="deposit_request"`).
    pub fn type_name(&self) -> &'static str {
        match self {
            Pdu::DepositRequest { .. } => "deposit_request",
            Pdu::DepositAck { .. } => "deposit_ack",
            Pdu::DepositBatch { .. } => "deposit_batch",
            Pdu::DepositBatchAck { .. } => "deposit_batch_ack",
            Pdu::RetrieveRequest { .. } => "retrieve_request",
            Pdu::RetrieveResponse { .. } => "retrieve_response",
            Pdu::PkgAuthRequest { .. } => "pkg_auth_request",
            Pdu::PkgAuthResponse { .. } => "pkg_auth_response",
            Pdu::KeyRequest { .. } => "key_request",
            Pdu::KeyResponse { .. } => "key_response",
            Pdu::ParamsRequest => "params_request",
            Pdu::ParamsResponse { .. } => "params_response",
            Pdu::ReplicaPull { .. } => "replica_pull",
            Pdu::ReplicaRows { .. } => "replica_rows",
            Pdu::ReplicaPush { .. } => "replica_push",
            Pdu::ReplicaPushAck { .. } => "replica_push_ack",
            Pdu::ReplicaEvict { .. } => "replica_evict",
            Pdu::ReplicaEvicted { .. } => "replica_evicted",
            Pdu::ClusterJoin { .. } => "cluster_join",
            Pdu::ClusterDrain { .. } => "cluster_drain",
            Pdu::ClusterAdminAck { .. } => "cluster_admin_ack",
            Pdu::RebalanceStatus => "rebalance_status",
            Pdu::RebalanceReport { .. } => "rebalance_report",
            Pdu::HealthRequest => "health_request",
            Pdu::HealthResponse { .. } => "health_response",
            Pdu::StatsRequest => "stats_request",
            Pdu::StatsResponse { .. } => "stats_response",
            Pdu::Error { .. } => "error",
        }
    }

    /// Encodes the body (without the envelope).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
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
                w.string(sd_id)
                    .u64(*timestamp)
                    .bytes(u)
                    .u8(*algo)
                    .bytes(sealed)
                    .string(attribute)
                    .bytes(nonce)
                    .bytes(mac);
            }
            Pdu::DepositAck { message_id } => {
                w.u64(*message_id);
            }
            Pdu::DepositBatch { sd_id, items } => {
                w.string(sd_id).u32(items.len() as u32);
                for i in items {
                    w.u64(i.timestamp)
                        .bytes(&i.u)
                        .u8(i.algo)
                        .bytes(&i.sealed)
                        .string(&i.attribute)
                        .bytes(&i.nonce)
                        .bytes(&i.mac);
                }
            }
            Pdu::DepositBatchAck { results } => {
                w.u32(results.len() as u32);
                for r in results {
                    w.u8(r.status).u64(r.message_id);
                }
            }
            Pdu::RetrieveRequest {
                rc_id,
                auth,
                since,
                limit,
            } => {
                w.string(rc_id).bytes(auth).u64(*since).u32(*limit);
            }
            Pdu::RetrieveResponse { token, messages } => {
                w.bytes(token).u32(messages.len() as u32);
                for m in messages {
                    w.u64(m.message_id)
                        .bytes(&m.u)
                        .u8(m.algo)
                        .bytes(&m.sealed)
                        .u64(m.aid)
                        .bytes(&m.nonce)
                        .u64(m.timestamp)
                        .bytes(&m.aad);
                }
            }
            Pdu::PkgAuthRequest {
                rc_id,
                ticket,
                authenticator,
            } => {
                w.string(rc_id).bytes(ticket).bytes(authenticator);
            }
            Pdu::PkgAuthResponse {
                session_id,
                confirmation,
            } => {
                w.u64(*session_id).bytes(confirmation);
            }
            Pdu::KeyRequest {
                session_id,
                aid,
                nonce,
            } => {
                w.u64(*session_id).u64(*aid).bytes(nonce);
            }
            Pdu::KeyResponse { encrypted_key } => {
                w.bytes(encrypted_key);
            }
            Pdu::ParamsRequest => {}
            Pdu::ParamsResponse {
                p,
                q,
                h,
                generator,
                mpk,
            } => {
                w.bytes(p).bytes(q).bytes(h).bytes(generator).bytes(mpk);
            }
            Pdu::ReplicaPull {
                attribute,
                after,
                max,
                nonce,
                mac,
            } => {
                w.string(attribute)
                    .u64(*after)
                    .u32(*max)
                    .bytes(nonce)
                    .bytes(mac);
            }
            Pdu::ReplicaRows { rows, done, mac } => {
                write_relay_entries(&mut w, rows);
                w.u8(u8::from(*done)).bytes(mac);
            }
            Pdu::ReplicaPush { rows, mac } => {
                write_relay_entries(&mut w, rows);
                w.bytes(mac);
            }
            Pdu::ReplicaPushAck { stored, deduped } => {
                w.u32(*stored).u32(*deduped);
            }
            Pdu::ReplicaEvict {
                attribute,
                epoch,
                mac,
            } => {
                w.string(attribute).u64(*epoch).bytes(mac);
            }
            Pdu::ReplicaEvicted { removed } => {
                w.u64(*removed);
            }
            Pdu::ClusterJoin { node, epoch, mac } | Pdu::ClusterDrain { node, epoch, mac } => {
                w.string(node).u64(*epoch).bytes(mac);
            }
            Pdu::ClusterAdminAck { epoch, detail } => {
                w.u64(*epoch).string(detail);
            }
            Pdu::RebalanceStatus => {}
            Pdu::RebalanceReport {
                epoch,
                transferring,
                members,
                arcs_total,
                arcs_done,
                rows_moved,
            } => {
                w.u64(*epoch).u8(u8::from(*transferring));
                w.u32(members.len() as u32);
                for m in members {
                    w.string(&m.node).u8(m.state).u8(u8::from(m.up));
                }
                w.u64(*arcs_total).u64(*arcs_done).u64(*rows_moved);
            }
            Pdu::HealthRequest => {}
            Pdu::HealthResponse {
                role,
                ready,
                detail,
            } => {
                w.string(role).u8(u8::from(*ready)).string(detail);
            }
            Pdu::StatsRequest => {}
            Pdu::StatsResponse { role, text } => {
                w.string(role).string(text);
            }
            Pdu::Error { code, detail } => {
                w.u16(*code).string(detail);
            }
        }
        w.finish()
    }

    /// Decodes a body of the given type byte.
    pub fn decode_body(type_byte: u8, body: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(body);
        let pdu = match type_byte {
            0x01 => Pdu::DepositRequest {
                sd_id: r.string()?,
                timestamp: r.u64()?,
                u: r.bytes()?,
                algo: r.u8()?,
                sealed: r.bytes()?,
                attribute: r.string()?,
                nonce: r.bytes()?,
                mac: r.bytes()?,
            },
            0x02 => Pdu::DepositAck {
                message_id: r.u64()?,
            },
            0x03 => {
                let sd_id = r.string()?;
                let n = r.u32()? as usize;
                if n > crate::MAX_BODY / 16 {
                    return Err(WireError::BadLength);
                }
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(DepositItem {
                        timestamp: r.u64()?,
                        u: r.bytes()?,
                        algo: r.u8()?,
                        sealed: r.bytes()?,
                        attribute: r.string()?,
                        nonce: r.bytes()?,
                        mac: r.bytes()?,
                    });
                }
                Pdu::DepositBatch { sd_id, items }
            }
            0x04 => {
                let n = r.u32()? as usize;
                if n > crate::MAX_BODY / 9 {
                    return Err(WireError::BadLength);
                }
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    results.push(DepositOutcome {
                        status: r.u8()?,
                        message_id: r.u64()?,
                    });
                }
                Pdu::DepositBatchAck { results }
            }
            0x10 => Pdu::RetrieveRequest {
                rc_id: r.string()?,
                auth: r.bytes()?,
                since: r.u64()?,
                limit: r.u32()?,
            },
            0x11 => {
                let token = r.bytes()?;
                let n = r.u32()? as usize;
                if n > crate::MAX_BODY / 16 {
                    return Err(WireError::BadLength);
                }
                let mut messages = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    messages.push(WireMessage {
                        message_id: r.u64()?,
                        u: r.bytes()?,
                        algo: r.u8()?,
                        sealed: r.bytes()?,
                        aid: r.u64()?,
                        nonce: r.bytes()?,
                        timestamp: r.u64()?,
                        aad: r.bytes()?,
                    });
                }
                Pdu::RetrieveResponse { token, messages }
            }
            0x20 => Pdu::PkgAuthRequest {
                rc_id: r.string()?,
                ticket: r.bytes()?,
                authenticator: r.bytes()?,
            },
            0x21 => Pdu::PkgAuthResponse {
                session_id: r.u64()?,
                confirmation: r.bytes()?,
            },
            0x22 => Pdu::KeyRequest {
                session_id: r.u64()?,
                aid: r.u64()?,
                nonce: r.bytes()?,
            },
            0x23 => Pdu::KeyResponse {
                encrypted_key: r.bytes()?,
            },
            0x30 => Pdu::ParamsRequest,
            0x31 => Pdu::ParamsResponse {
                p: r.bytes()?,
                q: r.bytes()?,
                h: r.bytes()?,
                generator: r.bytes()?,
                mpk: r.bytes()?,
            },
            0x60 => Pdu::ReplicaPull {
                attribute: r.string()?,
                after: r.u64()?,
                max: r.u32()?,
                nonce: r.bytes()?,
                mac: r.bytes()?,
            },
            0x61 => Pdu::ReplicaRows {
                rows: read_relay_entries(&mut r)?,
                done: r.u8()? != 0,
                mac: r.bytes()?,
            },
            0x62 => Pdu::ReplicaPush {
                rows: read_relay_entries(&mut r)?,
                mac: r.bytes()?,
            },
            0x63 => Pdu::ReplicaPushAck {
                stored: r.u32()?,
                deduped: r.u32()?,
            },
            0x69 => Pdu::ReplicaEvict {
                attribute: r.string()?,
                epoch: r.u64()?,
                mac: r.bytes()?,
            },
            0x6a => Pdu::ReplicaEvicted { removed: r.u64()? },
            0x64 => Pdu::ClusterJoin {
                node: r.string()?,
                epoch: r.u64()?,
                mac: r.bytes()?,
            },
            0x65 => Pdu::ClusterDrain {
                node: r.string()?,
                epoch: r.u64()?,
                mac: r.bytes()?,
            },
            0x66 => Pdu::ClusterAdminAck {
                epoch: r.u64()?,
                detail: r.string()?,
            },
            0x67 => Pdu::RebalanceStatus,
            0x68 => {
                let epoch = r.u64()?;
                let transferring = r.u8()? != 0;
                let n = r.u32()? as usize;
                if n > crate::MAX_BODY / 6 {
                    return Err(WireError::BadLength);
                }
                let mut members = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    members.push(MemberState {
                        node: r.string()?,
                        state: r.u8()?,
                        up: r.u8()? != 0,
                    });
                }
                Pdu::RebalanceReport {
                    epoch,
                    transferring,
                    members,
                    arcs_total: r.u64()?,
                    arcs_done: r.u64()?,
                    rows_moved: r.u64()?,
                }
            }
            0x50 => Pdu::HealthRequest,
            0x51 => Pdu::HealthResponse {
                role: r.string()?,
                ready: r.u8()? != 0,
                detail: r.string()?,
            },
            0x52 => Pdu::StatsRequest,
            0x53 => Pdu::StatsResponse {
                role: r.string()?,
                text: r.string()?,
            },
            0xff => Pdu::Error {
                code: r.u16()?,
                detail: r.string()?,
            },
            other => return Err(WireError::UnknownType(other)),
        };
        r.finish()?;
        Ok(pdu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Pdu> {
        vec![
            Pdu::DepositRequest {
                sd_id: "meter-7".into(),
                timestamp: 42,
                u: vec![2; 65],
                algo: 3,
                sealed: vec![9; 40],
                attribute: "ELECTRIC-APT-SV-CA".into(),
                nonce: vec![1, 2, 3],
                mac: vec![7; 32],
            },
            Pdu::DepositAck { message_id: 17 },
            Pdu::DepositBatch {
                sd_id: "meter-7".into(),
                items: vec![
                    DepositItem {
                        timestamp: 42,
                        u: vec![2; 65],
                        algo: 3,
                        sealed: vec![9; 40],
                        attribute: "ELECTRIC-APT-SV-CA".into(),
                        nonce: vec![1, 2, 3],
                        mac: vec![7; 32],
                    },
                    DepositItem {
                        timestamp: 0,
                        u: vec![],
                        algo: 0,
                        sealed: vec![],
                        attribute: String::new(),
                        nonce: vec![],
                        mac: vec![],
                    },
                ],
            },
            Pdu::DepositBatchAck {
                results: vec![
                    DepositOutcome {
                        status: DepositOutcome::STORED,
                        message_id: 17,
                    },
                    DepositOutcome {
                        status: DepositOutcome::STORAGE_ERROR,
                        message_id: 0,
                    },
                ],
            },
            Pdu::RetrieveRequest {
                rc_id: "C-Services".into(),
                auth: vec![5; 24],
                since: 0,
                limit: 128,
            },
            Pdu::RetrieveResponse {
                token: vec![8; 100],
                messages: vec![
                    WireMessage {
                        message_id: 1,
                        u: vec![2; 65],
                        algo: 1,
                        sealed: vec![3; 48],
                        aid: 4,
                        nonce: vec![5],
                        timestamp: 6,
                        aad: vec![7, 8],
                    },
                    WireMessage {
                        message_id: 2,
                        u: vec![],
                        algo: 0,
                        sealed: vec![],
                        aid: 0,
                        nonce: vec![],
                        timestamp: 0,
                        aad: vec![],
                    },
                ],
            },
            Pdu::PkgAuthRequest {
                rc_id: "rc".into(),
                ticket: vec![1; 64],
                authenticator: vec![2; 32],
            },
            Pdu::PkgAuthResponse {
                session_id: 99,
                confirmation: vec![3; 16],
            },
            Pdu::KeyRequest {
                session_id: 99,
                aid: 3,
                nonce: vec![4; 8],
            },
            Pdu::KeyResponse {
                encrypted_key: vec![5; 80],
            },
            Pdu::ParamsRequest,
            Pdu::ParamsResponse {
                p: vec![1; 64],
                q: vec![2; 64],
                h: vec![3; 64],
                generator: vec![4; 65],
                mpk: vec![5; 65],
            },
            Pdu::ReplicaPull {
                attribute: "ELECTRIC-APT9".into(),
                after: 42,
                max: 256,
                nonce: vec![3; 16],
                mac: vec![4; 32],
            },
            Pdu::ReplicaRows {
                rows: vec![RelayEntry {
                    seq: 43,
                    sd_id: "meter-3".into(),
                    timestamp: 9,
                    u: vec![2; 65],
                    algo: 1,
                    sealed: vec![6; 40],
                    attribute: "ELECTRIC-APT9".into(),
                    nonce: vec![8; 16],
                }],
                done: true,
                mac: vec![9; 32],
            },
            Pdu::ReplicaPush {
                rows: vec![RelayEntry {
                    seq: 0,
                    sd_id: String::new(),
                    timestamp: 0,
                    u: vec![],
                    algo: 0,
                    sealed: vec![],
                    attribute: String::new(),
                    nonce: vec![],
                }],
                mac: vec![1; 32],
            },
            Pdu::ReplicaPushAck {
                stored: 3,
                deduped: 1,
            },
            Pdu::ReplicaEvict {
                attribute: "ELECTRIC-APT9".into(),
                epoch: 4,
                mac: vec![7; 32],
            },
            Pdu::ReplicaEvicted { removed: 17 },
            Pdu::ClusterJoin {
                node: "127.0.0.1:7114".into(),
                epoch: 4,
                mac: vec![2; 32],
            },
            Pdu::ClusterDrain {
                node: "127.0.0.1:7112".into(),
                epoch: 5,
                mac: vec![3; 32],
            },
            Pdu::ClusterAdminAck {
                epoch: 6,
                detail: "joining 127.0.0.1:7114: 42 arcs queued".into(),
            },
            Pdu::RebalanceStatus,
            Pdu::RebalanceReport {
                epoch: 6,
                transferring: true,
                members: vec![
                    MemberState {
                        node: "127.0.0.1:7111".into(),
                        state: MEMBER_ACTIVE,
                        up: true,
                    },
                    MemberState {
                        node: "127.0.0.1:7114".into(),
                        state: MEMBER_JOINING,
                        up: false,
                    },
                ],
                arcs_total: 42,
                arcs_done: 17,
                rows_moved: 1200,
            },
            Pdu::HealthRequest,
            Pdu::HealthResponse {
                role: "mms".into(),
                ready: true,
                detail: "store open".into(),
            },
            Pdu::StatsRequest,
            Pdu::StatsResponse {
                role: "mms".into(),
                text: "mws_server_requests_total{role=\"mms\"} 12\n".into(),
            },
            Pdu::Error {
                code: 404,
                detail: "no such attribute".into(),
            },
        ]
    }

    #[test]
    fn all_pdus_roundtrip() {
        for pdu in samples() {
            let body = pdu.encode_body();
            let decoded = Pdu::decode_body(pdu.type_byte(), &body).unwrap();
            assert_eq!(decoded, pdu);
        }
    }

    #[test]
    fn type_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for pdu in samples() {
            assert!(seen.insert(pdu.type_byte()), "duplicate type byte");
        }
    }

    #[test]
    fn type_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for pdu in samples() {
            assert!(seen.insert(pdu.type_name()), "duplicate type name");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(
            Pdu::decode_body(0x77, &[]).unwrap_err(),
            WireError::UnknownType(0x77)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Pdu::DepositAck { message_id: 1 }.encode_body();
        body.push(0);
        assert!(Pdu::decode_body(0x02, &body).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        for pdu in samples() {
            let body = pdu.encode_body();
            for cut in 0..body.len() {
                let _ = Pdu::decode_body(pdu.type_byte(), &body[..cut]);
            }
        }
    }

    #[test]
    fn hostile_message_count_bounded() {
        // A RetrieveResponse declaring 2^32-1 messages must fail fast.
        let mut w = WireWriter::new();
        w.bytes(b"token").u32(u32::MAX);
        let body = w.finish();
        assert!(Pdu::decode_body(0x11, &body).is_err());
    }

    #[test]
    fn hostile_batch_counts_bounded() {
        // A DepositBatch declaring 2^32-1 items must fail fast...
        let mut w = WireWriter::new();
        w.string("meter").u32(u32::MAX);
        let body = w.finish();
        assert!(Pdu::decode_body(0x03, &body).is_err());
        // ...and so must its ack.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let body = w.finish();
        assert!(Pdu::decode_body(0x04, &body).is_err());
    }

    #[test]
    fn hostile_replica_row_counts_bounded() {
        // ReplicaRows and ReplicaPush declaring 2^32-1 rows must fail fast.
        for type_byte in [0x61u8, 0x62] {
            let mut w = WireWriter::new();
            w.u32(u32::MAX);
            let body = w.finish();
            assert!(Pdu::decode_body(type_byte, &body).is_err());
        }
    }

    #[test]
    fn hostile_member_count_bounded() {
        // A RebalanceReport declaring 2^32-1 members must fail fast.
        let mut w = WireWriter::new();
        w.u64(1).u8(0).u32(u32::MAX);
        let body = w.finish();
        assert!(Pdu::decode_body(0x68, &body).is_err());
    }

    #[test]
    fn row_mac_inputs_cover_every_field() {
        let rows = vec![RelayEntry {
            seq: 1,
            sd_id: "m".into(),
            timestamp: 2,
            u: vec![3],
            algo: 4,
            sealed: vec![5],
            attribute: "A".into(),
            nonce: vec![6],
        }];
        let pull = replica_pull_bytes("A", 1, 8, b"n");
        for other in [
            replica_pull_bytes("B", 1, 8, b"n"),
            replica_pull_bytes("A", 2, 8, b"n"),
            replica_pull_bytes("A", 1, 9, b"n"),
            replica_pull_bytes("A", 1, 8, b"m"),
        ] {
            assert_ne!(other, pull, "every request field is bound");
        }
        let base = replica_rows_bytes(&pull, &rows, true);
        let mut tampered = rows.clone();
        tampered[0].attribute = "B".into();
        assert_ne!(replica_rows_bytes(&pull, &tampered, true), base);
        let mut tampered = rows.clone();
        tampered[0].sealed = vec![9];
        assert_ne!(replica_rows_bytes(&pull, &tampered, true), base);
        let mut tampered = rows.clone();
        tampered[0].seq = 2;
        assert_ne!(replica_rows_bytes(&pull, &tampered, true), base);
        assert_ne!(replica_rows_bytes(&pull, &rows, false), base, "done bound");
        let later = replica_pull_bytes("A", 1, 8, b"o");
        assert_ne!(
            replica_rows_bytes(&later, &rows, true),
            base,
            "request bound"
        );
        assert_ne!(
            replica_rows_bytes(&later, &[], true),
            replica_rows_bytes(&pull, &[], true),
            "an empty final page answers one pull only"
        );
        assert_ne!(
            replica_push_bytes(&rows),
            replica_rows_bytes(&[], &rows, false)
        );
    }

    #[test]
    fn join_and_drain_mac_inputs_are_domain_separated() {
        // The same (node, epoch) must never authorize the opposite
        // membership change, and the epoch must be load-bearing.
        let join = cluster_join_bytes("127.0.0.1:7114", 4);
        let drain = cluster_drain_bytes("127.0.0.1:7114", 4);
        assert_ne!(join, drain);
        assert_ne!(join, cluster_join_bytes("127.0.0.1:7114", 5));
        assert_ne!(join, cluster_join_bytes("127.0.0.1:7115", 4));
    }
}
