//! Deterministic in-process transport for the MWS deployment.
//!
//! The paper's prototype ran "four servers … all ports and IP addresses
//! hardcoded" on one machine (§VI.C). This crate reproduces that topology
//! without sockets: named endpoints on a [`Network`] exchange framed
//! `mws-wire` PDUs. Every byte crosses the real codec, so wire sizes in the
//! benchmarks are the true protocol cost.
//!
//! Determinism is the point — experiments must be reproducible:
//!
//! * **Fault injection** ([`fault`]) drops requests/responses from a seeded
//!   DRBG stream, so "2% loss" is the *same* 2% on every run.
//! * **Latency** is modeled, not slept: a virtual clock accumulates
//!   per-message `base + per_byte` delays ([`metrics::LinkMetrics`]), so
//!   benches separate compute cost from modeled network cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod fault;
pub mod metrics;
pub mod rows;
pub mod transport;

pub use bus::{Client, Network, Service};
pub use fault::{FaultConfig, LatencyModel};
pub use metrics::LinkMetrics;
pub use rows::{pull_rows, serve_pull, PullError};
pub use transport::{BusTransport, FaultyTransport, Transport};

/// Transport-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No endpoint bound under that name.
    UnknownEndpoint(String),
    /// The (simulated) network dropped the message.
    Dropped,
    /// Frame failed to decode.
    Codec(mws_wire::WireError),
    /// A socket operation exceeded its deadline.
    Timeout,
    /// A socket operation failed (connect refused, reset, ...).
    Io(String),
    /// The client's circuit breaker is open: recent consecutive transport
    /// failures exceeded the threshold, so the call fails fast without
    /// touching the network until the cooldown elapses.
    CircuitOpen,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::UnknownEndpoint(name) => write!(f, "unknown endpoint '{name}'"),
            NetError::Dropped => write!(f, "message dropped by fault injection"),
            NetError::Codec(e) => write!(f, "codec failure: {e}"),
            NetError::Timeout => write!(f, "network operation timed out"),
            NetError::Io(detail) => write!(f, "socket error: {detail}"),
            NetError::CircuitOpen => write!(f, "circuit breaker open; failing fast"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<mws_wire::WireError> for NetError {
    fn from(e: mws_wire::WireError) -> Self {
        NetError::Codec(e)
    }
}
