//! Typed protocol data units for the three protocol phases (§V.D).
//!
//! Each PDU is declared once, in the table that [`Pdu`] is generated
//! from: its variant, type byte, metric name and fields in wire order.
//! `pdus!` turns the table into the enum, [`Pdu::type_byte`],
//! [`Pdu::type_name`], [`Pdu::encoded_len`], [`Pdu::encode_body`] and
//! [`Pdu::decode_body`];
//! `records!` does the same for the records the PDUs carry in lists. A
//! field encodes by its type (`codec::Field`): integers little-endian, `bool`
//! as one byte, `String` and `Vec<u8>` `u32`-length-prefixed, and a list
//! of records as a `u32` count then each record's fields, the count
//! bounded by the bytes left in the body before anything is reserved.

use crate::codec::{write_list, Field, Record, WireReader, WireWriter};
use crate::WireError;

/// Declares the records carried in PDU lists: each struct, with public
/// fields, and its [`Field`] codec, the fields in declaration order.
macro_rules! records {
    ($(
        $(#[$meta:meta])*
        pub struct $record:ident {
            $($(#[$field_meta:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $record {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl Field for $record {
            const MIN: usize = 0 $(+ <$ty as Field>::MIN)*;
            fn encoded_len(&self) -> usize {
                0 $(+ self.$field.encoded_len())*
            }
            fn put(&self, w: &mut WireWriter<'_>) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: Field::get(r)?,)* })
            }
        }

        impl Record for $record {}
    )*};
}

/// Declares the PDU enum from one line per variant —
/// `Variant = type byte, "type name" { fields in wire order }` — and
/// generates its envelope type byte, metric name, body encoder and body
/// decoder, plus a `type_byte` module holding each type byte under its
/// variant's name for the MAC-input helpers.
macro_rules! pdus {
    (
        $(#[$meta:meta])*
        pub enum $pdu:ident {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $type_byte:literal, $type_name:literal
                $({ $($(#[$field_meta:meta])* $field:ident: $ty:ty,)* })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $pdu {
            $(
                $(#[$variant_meta])*
                $variant $({ $($(#[$field_meta])* $field: $ty,)* })?,
            )*
        }

        /// Each PDU's type byte, under its variant's name.
        #[allow(non_upper_case_globals)]
        mod type_byte {
            $(pub(super) const $variant: u8 = $type_byte;)*
        }

        impl $pdu {
            /// Message-type byte for the envelope.
            pub fn type_byte(&self) -> u8 {
                match self {
                    $($pdu::$variant { .. } => type_byte::$variant,)*
                }
            }

            /// Static snake_case variant name — the low-cardinality label
            /// used for per-PDU-type metrics (`pdu="deposit_request"`).
            pub fn type_name(&self) -> &'static str {
                match self {
                    $($pdu::$variant { .. } => $type_name,)*
                }
            }

            /// The bytes [`Pdu::encode_body`] appends: the body's length.
            pub fn encoded_len(&self) -> usize {
                match self {
                    $($pdu::$variant { $($($field,)*)? } => 0 $($(+ $field.encoded_len())*)?,)*
                }
            }

            /// Appends the body (without the envelope) to `out`.
            pub fn encode_body(&self, out: &mut Vec<u8>) {
                let mut w = WireWriter::new(out);
                match self {
                    $($pdu::$variant { $($($field,)*)? } => {
                        $($($field.put(&mut w);)*)?
                    })*
                }
            }

            /// Decodes a body of the given type byte. Unknown types, short
            /// or trailing bytes, non-UTF-8 strings and list counts the
            /// body cannot hold are refused.
            pub fn decode_body(type_byte: u8, body: &[u8]) -> Result<Self, WireError> {
                let mut r = WireReader::new(body);
                let pdu = match type_byte {
                    $(type_byte::$variant => $pdu::$variant {
                        $($($field: Field::get(&mut r)?,)*)?
                    },)*
                    other => return Err(WireError::UnknownType(other)),
                };
                r.finish()?;
                Ok(pdu)
            }
        }
    };
}

records! {
    /// One warehoused message as delivered to an RC:
    /// `rP ‖ C ‖ (AID ‖ Nonce)` plus bookkeeping.
    ///
    /// Note the field the paper stresses: the RC sees the **AID**, never the
    /// attribute string itself.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WireMessage {
        /// Warehouse-assigned message id.
        message_id: u64,
        /// Compressed `U = rP`.
        u: Vec<u8>,
        /// Symmetric cipher id.
        algo: u8,
        /// Sealed ciphertext `C`.
        sealed: Vec<u8>,
        /// Attribute ID (row id in the Policy Database).
        aid: u64,
        /// Per-message nonce.
        nonce: Vec<u8>,
        /// Deposit timestamp.
        timestamp: u64,
        /// Authenticated associated data the SD bound into the seal.
        aad: Vec<u8>,
    }

    /// One deposit inside a [`Pdu::DepositBatch`]. The fields mirror
    /// [`Pdu::DepositRequest`] minus the device identity, which is hoisted to
    /// the batch; the MAC covers the same per-deposit fields as a single
    /// deposit's, so batching changes framing but not authentication.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DepositItem {
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
        /// Deposit authenticator (HMAC or Cha–Cheon signature).
        mac: Vec<u8>,
    }

    /// Per-item outcome in a [`Pdu::DepositBatchAck`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct DepositOutcome {
        /// One of the `DepositOutcome::*` status constants.
        status: u8,
        /// The warehoused id for `STORED`/`DUPLICATE`; 0 otherwise.
        message_id: u64,
    }

    /// One stored row as the row plane carries it (an ingest point's buffered
    /// deposit or a warehouse's row).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RelayEntry {
        /// The serving node's cursor key: an ingest point's site sequence
        /// number or a warehouse's message id (monotonic per node).
        seq: u64,
        /// Depositing device.
        sd_id: String,
        /// Device timestamp.
        timestamp: u64,
        /// Compressed `U = rP`.
        u: Vec<u8>,
        /// Cipher id.
        algo: u8,
        /// Sealed ciphertext.
        sealed: Vec<u8>,
        /// Attribute string.
        attribute: String,
        /// Per-message nonce.
        nonce: Vec<u8>,
    }

    /// One cluster member's membership state in a [`Pdu::RebalanceReport`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MemberState {
        /// Node name.
        node: String,
        /// Membership state code ([`MEMBER_ACTIVE`], [`MEMBER_JOINING`],
        /// [`MEMBER_DRAINING`]).
        state: u8,
        /// Last probed liveness.
        up: bool,
    }
}

pdus! {
    /// All protocol messages.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Pdu {
        // ---- SD – MWS phase ----
        /// SD deposit: `rP ‖ C ‖ (A ‖ Nonce) ‖ ID_SD ‖ T ‖ MAC`.
        DepositRequest = 0x01, "deposit_request" {
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
        DepositAck = 0x02, "deposit_ack" {
            /// Assigned message id.
            message_id: u64,
        },
        /// SD deposit batch: several deposits from one device in one PDU, so
        /// the warehouse can group-commit rows landing on the same shard into
        /// a single WAL append + fsync (DESIGN.md §9).
        DepositBatch = 0x03, "deposit_batch" {
            /// Depositing device identity (shared by every item).
            sd_id: String,
            /// The batched deposits, each individually authenticated.
            items: Vec<DepositItem>,
        },
        /// MWS acknowledgment of a batch: one outcome per item, in order.
        /// Sent only after every stored item is durable on its shard.
        DepositBatchAck = 0x04, "deposit_batch_ack" {
            /// Per-item outcomes, index-aligned with the request's items.
            results: Vec<DepositOutcome>,
        },

        // ---- MWS – RC phase ----
        /// RC retrieval: `ID_RC ‖ E(HashPassword, ID_RC ‖ T ‖ N)`.
        RetrieveRequest = 0x10, "retrieve_request" {
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
        RetrieveResponse = 0x11, "retrieve_response" {
            /// `Token = E(PubK_RC, SecK_RC-PKG ‖ Ticket)`.
            token: Vec<u8>,
            /// Messages the policy grants this RC.
            messages: Vec<WireMessage>,
        },

        // ---- RC – PKG phase ----
        /// RC → PKG: `ID_RC ‖ Ticket ‖ Authenticator`.
        PkgAuthRequest = 0x20, "pkg_auth_request" {
            /// RC identity.
            rc_id: String,
            /// `E(SecK_MWS-PKG, AID↦A table ‖ SecK_RC-PKG)`.
            ticket: Vec<u8>,
            /// `E(SecK_RC-PKG, ID_RC ‖ T)`.
            authenticator: Vec<u8>,
        },
        /// PKG confirmation establishing a key-request session.
        PkgAuthResponse = 0x21, "pkg_auth_response" {
            /// Session handle for subsequent [`Pdu::KeyRequest`]s.
            session_id: u64,
            /// `E(SecK_RC-PKG, T+1)` — proves the PKG knew the session key.
            confirmation: Vec<u8>,
        },
        /// RC → PKG: `AID ‖ Nonce` for one message's private key.
        KeyRequest = 0x22, "key_request" {
            /// Session handle.
            session_id: u64,
            /// Attribute ID from the retrieved message header.
            aid: u64,
            /// The message's nonce.
            nonce: Vec<u8>,
        },
        /// PKG → RC: the private key `sI`, encrypted under the session key.
        KeyResponse = 0x23, "key_response" {
            /// `E(SecK_RC-PKG, compressed sI)`.
            encrypted_key: Vec<u8>,
        },

        // ---- Administrative ----
        /// Request for system parameters (paper §VIII: "it would be easier if
        /// the SD obtains the parameters" from the PKG instead of generating).
        ParamsRequest = 0x30, "params_request",
        /// System parameters: curve + master public key.
        ParamsResponse = 0x31, "params_response" {
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
        ReplicaPull = 0x60, "replica_pull" {
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
        ReplicaRows = 0x61, "replica_rows" {
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
        ReplicaPush = 0x62, "replica_push" {
            /// Full rows to (re)store; `seq` is the pushing node's id and is
            /// NOT preserved — the receiver assigns its own ids.
            rows: Vec<RelayEntry>,
            /// `HMAC(replica key, canonical rows)`.
            mac: Vec<u8>,
        },
        /// Reply to [`Pdu::ReplicaPush`]: how many rows were fresh vs already
        /// present, all durable before this ack.
        ReplicaPushAck = 0x63, "replica_push_ack" {
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
        ReplicaEvict = 0x69, "replica_evict" {
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
        ReplicaEvicted = 0x6a, "replica_evicted" {
            /// Rows removed by the sweep (0 when nothing was held).
            removed: u64,
        },

        // ---- Cluster membership admin plane (DESIGN.md §10) ----
        /// Admin order: add `node` to the cluster ring and stream the remapped
        /// arcs to it in the background. Authenticated with the replica key
        /// over [`cluster_join_bytes`]; `epoch` must equal the ring epoch the
        /// operator observed via [`Pdu::RebalanceStatus`], so a delayed or
        /// replayed order can never apply to a ring it was not written for.
        ClusterJoin = 0x64, "cluster_join" {
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
        ClusterDrain = 0x65, "cluster_drain" {
            /// Node name to remove from the ring.
            node: String,
            /// The ring epoch this order was built against.
            epoch: u64,
            /// `HMAC(replica key, canonical drain bytes)`.
            mac: Vec<u8>,
        },
        /// Reply to a membership order: the epoch the ring moved to.
        ClusterAdminAck = 0x66, "cluster_admin_ack" {
            /// The new ring epoch after the membership change.
            epoch: u64,
            /// Human-readable summary ("joining node-3: 42 arcs queued").
            detail: String,
        },
        /// Operator query for ring epoch, membership states and arc-transfer
        /// progress. Unauthenticated like [`Pdu::StatsRequest`]: it exposes
        /// topology shape only — never row data or key material.
        RebalanceStatus = 0x67, "rebalance_status",
        /// Reply to [`Pdu::RebalanceStatus`].
        RebalanceReport = 0x68, "rebalance_report" {
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
        HealthRequest = 0x50, "health_request",
        /// Daemon health report.
        HealthResponse = 0x51, "health_response" {
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
        StatsRequest = 0x52, "stats_request",
        /// Metrics snapshot: Prometheus-style `name{label="v"} value` text.
        StatsResponse = 0x53, "stats_response" {
            /// Which daemon answered ("mms", "pkg", "gatekeeper").
            role: String,
            /// The text exposition of the daemon's metrics registry.
            text: String,
        },

        /// Error reply usable in any phase.
        Error = 0xff, "error" {
            /// Machine-readable code (see `mws-core`'s error taxonomy).
            code: u16,
            /// Human-readable detail.
            detail: String,
        },
    }
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

/// [`MemberState::state`]: fully active ring member.
pub const MEMBER_ACTIVE: u8 = 0;
/// [`MemberState::state`]: in the ring, still receiving its arcs.
pub const MEMBER_JOINING: u8 = 1;
/// [`MemberState::state`]: out of the ring, still donating its arcs.
pub const MEMBER_DRAINING: u8 = 2;

/// Canonical bytes the row plane MACs: the PDU type byte (so a
/// [`Pdu::ReplicaRows`] MAC can never be replayed as a [`Pdu::ReplicaPush`]
/// or vice versa), the length-prefixed rows exactly as framed on the wire,
/// and the `done` flag (`false` for pushes, which have none).
fn replica_plane_bytes(type_byte: u8, rows: &[RelayEntry], done: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = WireWriter::new(&mut bytes);
    w.u8(type_byte);
    write_list(&mut w, rows);
    w.u8(u8::from(done));
    bytes
}

/// MAC input of a [`Pdu::ReplicaPull`] request: the type byte and every
/// request field. The reply to it binds these same bytes.
pub fn replica_pull_bytes(attribute: &str, after: u64, max: u32, nonce: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    WireWriter::new(&mut bytes)
        .u8(type_byte::ReplicaPull)
        .string(attribute)
        .u64(after)
        .u32(max)
        .bytes(nonce);
    bytes
}

/// MAC input of a [`Pdu::ReplicaRows`] reply to the request whose
/// [`replica_pull_bytes`] are `pull`: bound to it, a captured page (say an
/// empty final one) answers no later pull.
pub fn replica_rows_bytes(pull: &[u8], rows: &[RelayEntry], done: bool) -> Vec<u8> {
    let mut bytes = replica_plane_bytes(type_byte::ReplicaRows, rows, done);
    bytes.extend_from_slice(pull);
    bytes
}

/// MAC input of a [`Pdu::ReplicaPush`] (no `done` flag; pinned false).
pub fn replica_push_bytes(rows: &[RelayEntry]) -> Vec<u8> {
    replica_plane_bytes(type_byte::ReplicaPush, rows, false)
}

/// Canonical bytes a cluster membership order MACs: the PDU type byte (a
/// join MAC can never authorize a drain or vice versa), the node name, and
/// the ring epoch the order targets. Binding the epoch makes every order
/// single-use — once the ring moves, a captured order verifies but no
/// longer matches the current epoch and is refused.
pub fn cluster_admin_bytes(type_byte: u8, node: &str, epoch: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    WireWriter::new(&mut bytes)
        .u8(type_byte)
        .string(node)
        .u64(epoch);
    bytes
}

/// MAC input of a [`Pdu::ClusterJoin`] order.
pub fn cluster_join_bytes(node: &str, epoch: u64) -> Vec<u8> {
    cluster_admin_bytes(type_byte::ClusterJoin, node, epoch)
}

/// MAC input of a [`Pdu::ClusterDrain`] order.
pub fn cluster_drain_bytes(node: &str, epoch: u64) -> Vec<u8> {
    cluster_admin_bytes(type_byte::ClusterDrain, node, epoch)
}

/// MAC input of a [`Pdu::ReplicaEvict`] order: the PDU type byte (an
/// evict MAC authorizes nothing else), the attribute being dropped, and
/// the ring epoch of the transfer issuing it — laid out as a membership
/// order's.
pub fn replica_evict_bytes(attribute: &str, epoch: u64) -> Vec<u8> {
    cluster_admin_bytes(type_byte::ReplicaEvict, attribute, epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(pdu: &Pdu) -> Vec<u8> {
        let mut body = Vec::new();
        pdu.encode_body(&mut body);
        assert_eq!(body.len(), pdu.encoded_len(), "{}", pdu.type_name());
        body
    }

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

    /// The golden file's lines, one `type_name hex` line per sample.
    fn golden() -> Vec<&'static str> {
        include_str!("../tests/golden/pdu_envelopes.hex")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .collect()
    }

    #[test]
    fn envelopes_match_the_golden_bytes() {
        let golden = golden();
        let samples = samples();
        assert_eq!(golden.len(), samples.len(), "one golden line per sample");
        for (pdu, line) in samples.iter().zip(golden) {
            let frame = crate::encode_envelope(pdu);
            let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(format!("{} {hex}", pdu.type_name()), line);
            assert_eq!(crate::decode_envelope(&frame).unwrap().0, *pdu);
        }
    }

    /// A v2 frame is its v1 golden line with byte 0 set to `02` and the
    /// 16 trace bytes (`trace_id ‖ span_id`, little-endian) spliced in at
    /// offset 6.
    #[test]
    fn traced_envelopes_are_the_golden_bytes_with_the_trace_spliced_in() {
        let ctx = mws_obs::trace::TraceContext {
            trace_id: 0x0102_0304_0506_0708,
            span_id: 0x1112_1314_1516_1718,
        };
        let samples = samples();
        assert_eq!(golden().len(), samples.len(), "one golden line per sample");
        for (pdu, line) in samples.iter().zip(golden()) {
            let (_, hex) = line.split_once(' ').unwrap();
            let mut want: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            want[0] = 0x02;
            want.splice(
                6..6,
                [
                    8, 7, 6, 5, 4, 3, 2, 1, 0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
                ],
            );
            let mut frame = Vec::new();
            crate::encode_frame(pdu, Some(ctx), &mut frame);
            assert_eq!(frame, want, "{}", pdu.type_name());
        }
    }

    #[test]
    fn samples_cover_every_declared_type() {
        let sampled: std::collections::HashSet<u8> = samples().iter().map(Pdu::type_byte).collect();
        for t in 0..=u8::MAX {
            let declared = Pdu::decode_body(t, &[]) != Err(WireError::UnknownType(t));
            assert_eq!(declared, sampled.contains(&t), "type byte {t:#04x}");
        }
    }

    #[test]
    fn all_pdus_roundtrip() {
        for pdu in samples() {
            let body = body(&pdu);
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
        let mut body = body(&Pdu::DepositAck { message_id: 1 });
        body.push(0);
        assert!(Pdu::decode_body(0x02, &body).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        for pdu in samples() {
            let body = body(&pdu);
            for cut in 0..body.len() {
                let _ = Pdu::decode_body(pdu.type_byte(), &body[..cut]);
            }
        }
    }

    #[test]
    fn hostile_message_count_bounded() {
        // A RetrieveResponse declaring 2^32-1 messages must fail fast.
        let mut body = Vec::new();
        WireWriter::new(&mut body).bytes(b"token").u32(u32::MAX);
        assert!(Pdu::decode_body(0x11, &body).is_err());
    }

    #[test]
    fn hostile_batch_counts_bounded() {
        // A DepositBatch declaring 2^32-1 items must fail fast...
        let mut body = Vec::new();
        WireWriter::new(&mut body).string("meter").u32(u32::MAX);
        assert!(Pdu::decode_body(0x03, &body).is_err());
        // ...and so must its ack.
        let mut body = Vec::new();
        WireWriter::new(&mut body).u32(u32::MAX);
        assert!(Pdu::decode_body(0x04, &body).is_err());
    }

    #[test]
    fn hostile_replica_row_counts_bounded() {
        // ReplicaRows and ReplicaPush declaring 2^32-1 rows must fail fast.
        for type_byte in [0x61u8, 0x62] {
            let mut body = Vec::new();
            WireWriter::new(&mut body).u32(u32::MAX);
            assert!(Pdu::decode_body(type_byte, &body).is_err());
        }
    }

    #[test]
    fn hostile_member_count_bounded() {
        // A RebalanceReport declaring 2^32-1 members must fail fast.
        let mut body = Vec::new();
        WireWriter::new(&mut body).u64(1).u8(0).u32(u32::MAX);
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
