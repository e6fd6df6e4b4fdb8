//! Preregistered metric handles for the TCP transport layer.
//!
//! Looked up once per process and cached (the per-PDU histograms are the
//! exception: bounded by the PDU type count, resolved per request).
//! Labels are low-cardinality protocol facts only — never identities,
//! payloads or key material (DESIGN.md §7).

use mws_obs::{metric_name, Counter, Gauge, Histogram};
use std::sync::OnceLock;

pub(crate) struct ServerStats {
    /// Connections a driver accepted and started serving.
    pub connections: Counter,
    /// Currently open connections across every server in this process.
    pub open_connections: Gauge,
    /// Connections closed at their idle deadline.
    pub idle_reaped: Counter,
    /// Connections refused with a 503 because the server was at
    /// `max_connections`.
    pub over_capacity: Counter,
    /// Requests decoded and dispatched to a service.
    pub requests: Counter,
    /// Connections dropped because the stream stopped parsing.
    pub wire_errors: Counter,
    /// Queue occupancy at dequeue: how many decoded requests were waiting
    /// behind the one being handled (0 = decode isn't the bottleneck).
    pub pipeline_depth: Histogram,
    /// Client-side retransmissions after a retryable failure.
    pub client_retries: Counter,
    pub breaker_opened: Counter,
    pub breaker_half_open: Counter,
    pub breaker_closed: Counter,
    /// Secure-transport handshakes completed (server side).
    pub secure_handshakes: Counter,
    /// Secure-transport handshakes that failed or were interrupted.
    pub secure_handshake_failures: Counter,
    /// Plaintext peers turned away from a secure listener with a 426.
    pub secure_downgrades: Counter,
    /// Server-side handshake latency (µs), accept to session keys.
    pub handshake_us: Histogram,
}

pub(crate) fn stats() -> &'static ServerStats {
    static STATS: OnceLock<ServerStats> = OnceLock::new();
    STATS.get_or_init(|| {
        let r = mws_obs::registry();
        let breaker = |to| {
            r.counter(&metric_name(
                "mws_server_breaker_transitions_total",
                &[("to", to)],
            ))
        };
        ServerStats {
            connections: r.counter("mws_server_connections_total"),
            open_connections: r.gauge("mws_server_open_connections"),
            idle_reaped: r.counter("mws_server_idle_reaped_total"),
            over_capacity: r.counter("mws_server_over_capacity_total"),
            requests: r.counter("mws_server_requests_total"),
            wire_errors: r.counter("mws_server_wire_errors_total"),
            pipeline_depth: r.histogram("mws_server_pipeline_depth"),
            client_retries: r.counter("mws_server_client_retries_total"),
            breaker_opened: breaker("open"),
            breaker_half_open: breaker("half_open"),
            breaker_closed: breaker("closed"),
            secure_handshakes: r.counter("mws_server_secure_handshakes_total"),
            secure_handshake_failures: r.counter("mws_server_secure_handshake_failures_total"),
            secure_downgrades: r.counter("mws_server_secure_downgrades_total"),
            handshake_us: r.histogram("mws_server_secure_handshake_us"),
        }
    })
}

/// Handler latency histogram (µs) for one PDU type. The label is the
/// static wire-level type name, so cardinality is bounded by the protocol.
pub(crate) fn handle_us(pdu: &str) -> Histogram {
    mws_obs::registry().histogram(&metric_name("mws_server_handle_us", &[("pdu", pdu)]))
}
