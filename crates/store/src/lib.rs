//! Embedded storage engine for the Message Warehousing Service.
//!
//! The paper's prototype used flat files and listed "move to a database
//! management system" as future work (§VI, §VIII). This crate is that
//! move; the flat-file baseline experiment E8 measures it against lives in
//! `mws-bench`. It provides:
//!
//! * [`segment`] — CRC-framed append-only record segments over pluggable
//!   byte storage (in-memory or file-backed), with torn-write recovery.
//! * [`engine`] — [`KvEngine`]: a log-structured key-value store with an
//!   in-memory index rebuilt by replay, tombstone deletes, prefix scans and
//!   compaction.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): fail or
//!   tear the Nth append, fail the Nth fsync — so WAL recovery is
//!   exercised by injection rather than hand-crafted files.
//! * [`message_db`] / [`policy_db`] / [`user_db`] — the three databases of
//!   the paper's Figure 3 (Message Database, Policy Database with the
//!   Table 1 identity–attribute mapping, User Database).
//! * [`hints`] — [`HintQueue`]: durable per-target hinted-handoff queues
//!   backing the cluster's sloppy-quorum write path (DESIGN.md §10).
//! * [`shard`] — [`ShardedMessageDb`]: the message table striped N ways by
//!   attribute hash ([`ShardRouter`]), each shard with its own WAL, fsync
//!   cadence, compaction, and recovery (DESIGN.md §9).
//! * `cost` (debug builds only) — thread-local counts of WAL appends and
//!   fsyncs, the store's rows of `tests/cost_model.rs`.
//!
//! # Example
//!
//! ```
//! use mws_store::{KvEngine, StorageKind};
//!
//! let mut kv = KvEngine::open(StorageKind::Memory).unwrap();
//! kv.put(b"k", b"v1").unwrap();
//! kv.put(b"k", b"v2").unwrap();
//! assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
//! kv.delete(b"k").unwrap();
//! assert!(kv.get(b"k").unwrap().is_none());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

#[cfg(debug_assertions)]
pub mod cost;
pub mod engine;
pub mod fault;
pub mod hints;
pub mod message_db;
pub mod policy_db;
pub mod segment;
pub mod shard;
pub(crate) mod stats;
pub mod user_db;

pub use engine::{KvEngine, StorageKind};
pub use fault::FaultPlan;
pub use hints::HintQueue;
pub use message_db::{MessageDb, MessageId, PendingDeposit, StoredMessage};
pub use policy_db::{AttributeId, PolicyDb, PolicyRow};
pub use shard::{shard_kinds, ShardRouter, ShardedMessageDb};
pub use user_db::{UserDb, UserRecord};

/// Storage-layer errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed its CRC or framing check at the given offset.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
    },
    /// Record payload failed to decode.
    Codec(&'static str),
    /// A referenced row does not exist.
    NotFound,
    /// A uniqueness constraint would be violated.
    Duplicate,
    /// The owning shard failed to append or sync a deposit, so it is not
    /// durable (the shard's own error is counted in its WAL metrics).
    NotDurable,
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt { offset } => write!(f, "corrupt frame at offset {offset}"),
            StoreError::Codec(what) => write!(f, "codec error: {what}"),
            StoreError::NotFound => write!(f, "row not found"),
            StoreError::Duplicate => write!(f, "uniqueness violation"),
            StoreError::NotDurable => write!(f, "deposit not durable"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Rows at rest use the wire protocol's field codec (`u32 len ‖ bytes`,
/// little-endian integers); a row that fails to decode is a codec error.
impl From<mws_wire::WireError> for StoreError {
    fn from(e: mws_wire::WireError) -> Self {
        StoreError::Codec(match e {
            mws_wire::WireError::BadField(what) => what,
            _ => "truncated row",
        })
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
