//! Real TCP deployment of the MWS four-server topology.
//!
//! The paper evaluated its prototype as four cooperating TCP servers on one
//! host (§VI.C): the warehouse (MMS), the Private Key Generator, the
//! Gatekeeper, and the client side. The rest of this workspace runs that
//! topology over a deterministic in-process bus; this crate puts it on real
//! sockets without changing a line of protocol logic:
//!
//! * `link` — one connection's byte stream, sans-io, for either end:
//!   plaintext envelopes back to back (the `mws-wire` envelope is
//!   self-delimiting), or the secure handshake and then sealed records.
//!   The server's connections and [`TcpClient`] both drive it.
//! * [`server`] — [`TcpServer`]: one listening socket behind
//!   [`ServerConfig`] (DESIGN.md §11). Each connection is one sans-io
//!   state machine (`conn`: its link, bounded decode-ahead, replies in
//!   request order, deadlines, the server's connection counters). On Linux
//!   a few **epoll event loops** (`event`) accept and own every
//!   connection — 10k+ mostly-idle smart devices per process — while the
//!   worker pool handles decoded PDUs; elsewhere a blocking driver
//!   (`blocking`) serves one connection per worker thread. Both enforce
//!   `max_connections` with an explicit 503 close and join every thread
//!   on shutdown.
//! * `cost` (debug builds only) — thread-local counts of the frames links
//!   write and read, the transport's rows of `tests/cost_model.rs`.
//! * [`sys`] — the thin zero-dependency epoll/rlimit syscall shim the
//!   epoll driver is built on (the workspace's only `unsafe`).
//! * [`client`] — [`TcpClient`]: a persistent-connection socket
//!   implementation of the `mws-net` [`Transport`](mws_net::Transport)
//!   trait over the same link, with connect/request timeouts, seeded
//!   decorrelated-jitter retry backoff, a per-request wall-clock deadline
//!   and a circuit breaker that fails fast while a peer is down.
//! * [`gateway`] — [`GatekeeperFrontdoor`]: the standalone Gatekeeper
//!   server that authenticates RCs and relays to the warehouse.
//! * [`cluster`] — [`ClusterFrontdoor`]: the same front door in cluster
//!   mode, routing deposits and retrieves through an
//!   [`mws_cluster::ClusterRouter`] across N warehouse daemons.
//! * [`secure`] — IBS-backed transport security ([`secure::IbsAuth`]):
//!   every daemon link can run over the authenticated, encrypted
//!   sessions of `mws_wire::secure` (`--transport secure`, DESIGN.md
//!   §12), with endpoint credentials extracted from the deployment seed.
//! * [`chaos`] — [`ChaosProxy`]: a seed-deterministic chaos TCP relay
//!   injecting stalls, mid-frame truncation and connection resets between
//!   real sockets (the transport half of the chaos harness).
//! * [`daemon`] — flag parsing and seed-deterministic provisioning for the
//!   `mws-mmsd`, `mws-pkgd` and `mws-gatekeeperd` binaries.
//!
//! Everything is built on `std::net` + threads + raw `epoll`; no async
//! runtime and no dependencies beyond the workspace's existing ones.
//! `unsafe` is denied everywhere except the [`sys`] syscall shim.

#![deny(unsafe_code)]
#![deny(missing_docs)]

// Off Linux this is the only driver; on Linux only the tests run it.
#[cfg_attr(all(target_os = "linux", not(test)), allow(dead_code))]
mod blocking;
pub mod chaos;
pub mod client;
pub mod cluster;
mod conn;
#[cfg(debug_assertions)]
pub mod cost;
pub mod daemon;
#[cfg(target_os = "linux")]
mod event;
pub mod gateway;
mod link;
#[cfg(target_os = "linux")]
mod queue;
pub mod secure;
pub mod server;
pub(crate) mod stats;
#[cfg(target_os = "linux")]
pub mod sys;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{ClientConfig, TcpClient};
pub use cluster::ClusterFrontdoor;
pub use daemon::{DaemonOpts, FlagError, Role};
pub use gateway::GatekeeperFrontdoor;
pub use secure::{
    IbsAuth, SecureClientSettings, SecureSettings, TransportMode, ID_CLIENT, ID_GATEKEEPER, ID_MMS,
    ID_OPS, ID_PKG,
};
pub use server::{ServerConfig, TcpServer};
#[cfg(target_os = "linux")]
pub use sys::raise_nofile_limit;

/// Best-effort raise of the open-file limit (no-op stub off Linux, where
/// the epoll driver and its syscall shim are unavailable).
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit(_want: u64) -> u64 {
    u64::MAX
}
