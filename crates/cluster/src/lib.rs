//! Multi-warehouse scale-out for the Message Warehousing Service.
//!
//! The paper's deployment is one MWS server (§VI.C); everything below it
//! in this repo — sharded WALs, group commit, the gatekeeper front door —
//! still funnels through that single process. This crate turns N
//! independent warehouse daemons into one logical warehouse:
//!
//! * [`HashRing`] — consistent hashing with virtual nodes, keyed on the
//!   attribute string with the same FNV-1a the in-process shard router
//!   uses. Membership changes remap an expected `keys/N`, not everything.
//! * [`ClusterRouter`] — replicates every deposit to R ring replicas and
//!   acks after W durable reports; fans retrieves out to all live nodes,
//!   merges by nonce, and read-repairs divergence over a MAC'd replica
//!   plane ([`mws_net::pull_rows`] / [`mws_wire::Pdu::ReplicaPush`]).
//! * [`HealthProber`] — periodic Health-PDU probes, each answer setting a
//!   node's liveness; a node that restarts is caught up from every live
//!   peer, and any hints owed to it are replayed.
//! * [`HintBoard`] — hinted handoff: a write-wave replica that is down
//!   gets its copy as a durable (WAL-backed) hint, replayed on recovery,
//!   so acked rows converge to exactly R copies.
//! * [`plan_transfers`] — live membership changes (`ClusterJoin` /
//!   `ClusterDrain` admin PDUs, MAC'd with the replica key) swap the
//!   ring immediately and stream exactly the remapped arcs in the
//!   background.
//!
//! The crate is transport-agnostic: nodes are [`mws_net::Client`]s, which
//! are bus endpoints in tests and TCP connection pools in the daemons.
//! End-to-end confidentiality is untouched by all of this — every
//! replicated byte is the device's original IBE-sealed deposit, and the
//! router verifies nothing it couldn't verify as a network observer
//! (integrity of the replica plane rides a key derived from the
//! MWS–PKG secret, never message plaintext).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handoff;
pub mod health;
pub mod rebalance;
pub mod ring;
pub mod router;

pub use handoff::HintBoard;
pub use health::HealthProber;
pub use rebalance::{plan_transfers, ArcTransfer};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{ClusterConfig, ClusterNode, ClusterRouter, ReadConsistency};
