//! Wire protocol for the Message Warehousing Service.
//!
//! The paper's prototype serialized ad-hoc Perl structures; this crate
//! defines a versioned binary protocol carrying exactly the fields of the
//! §V.D message grammar:
//!
//! * **SD → MWS**: `rP ‖ C ‖ (A ‖ Nonce) ‖ ID_SD ‖ T ‖ MAC`
//!   ([`Pdu::DepositRequest`]).
//! * **RC → MWS**: `ID_RC ‖ E(HashPassword, ID_RC ‖ T ‖ N)`
//!   ([`Pdu::RetrieveRequest`]); **MWS → RC**: token +
//!   `rP ‖ C ‖ (AID ‖ Nonce) ‖ N` rows ([`Pdu::RetrieveResponse`]).
//! * **RC → PKG**: `ID_RC ‖ Ticket ‖ Authenticator`
//!   ([`Pdu::PkgAuthRequest`]), then `AID ‖ Nonce` key requests answered
//!   with `sI` ([`Pdu::KeyRequest`]/[`Pdu::KeyResponse`]).
//!
//! Layers:
//!
//! * [`codec`] — primitive readers/writers (length-prefixed fields).
//! * [`pdu`] — typed protocol data units with symmetric encode/decode.
//! * [`envelope`] — the outer frame, `version ‖ type ‖ len ‖ body`: its
//!   one writer and its one header reader.
//! * [`stream`] — incremental decoding of envelopes arriving in arbitrary
//!   split chunks (TCP transports).
//! * [`secure`] — authenticated, encrypted sessions wrapping envelope
//!   frames in AES-GCM records (DESIGN.md §12).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod envelope;
pub mod hash;
pub mod pdu;
pub mod secure;
pub mod stream;

pub use codec::{WireReader, WireWriter};
pub use envelope::{
    decode_envelope, decode_envelope_traced, encode_envelope, encode_frame, read_header, Header,
};
pub use hash::fnv1a64;
pub use pdu::{
    cluster_admin_bytes, cluster_drain_bytes, cluster_join_bytes, replica_evict_bytes, DepositItem,
    DepositOutcome, MemberState, Pdu, RelayEntry, WireMessage, MEMBER_ACTIVE, MEMBER_DRAINING,
    MEMBER_JOINING,
};
pub use secure::{
    ChannelAuth, Handshaker, Opened, PskAuth, RecordDecoder, SecureError, SecureSession,
    SessionConfig, WIRE_VERSION_SECURE,
};
pub use stream::StreamDecoder;

/// Protocol version carried in every envelope.
pub const WIRE_VERSION: u8 = 1;

/// Envelope version whose header additionally carries a trace context
/// (`trace_id ‖ span_id`, 8 bytes each, LE) between type/len and body.
/// Both versions decode everywhere; a frame is v2 only when its writer
/// passes a context, so untraced traffic stays bit-identical to v1.
pub const WIRE_VERSION_TRACED: u8 = 2;

/// Maximum envelope body (4 MiB) — bounds allocation on decode.
pub const MAX_BODY: usize = 4 << 20;

/// Wire-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Body shorter than a field demanded, or trailing garbage.
    Truncated,
    /// Unknown message type byte.
    UnknownType(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared length exceeds [`MAX_BODY`] or the buffer.
    BadLength,
    /// A field held an invalid value (e.g. non-UTF-8 identity).
    BadField(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadLength => write!(f, "length out of bounds"),
            WireError::BadField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}
