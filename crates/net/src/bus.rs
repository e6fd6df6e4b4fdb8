//! The in-process request/response bus.

use crate::fault::{FaultAction, FaultConfig, FaultState};
use crate::metrics::LinkMetrics;
use crate::transport::{BusTransport, Transport};
use crate::NetError;
use mws_obs::metric_name;
use mws_obs::sync::lock;
use mws_wire::{
    decode_envelope, decode_envelope_traced, encode_envelope, encode_envelope_traced, Pdu,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A request handler bound to an endpoint name.
///
/// Handlers receive decoded PDUs and return the reply PDU; transport
/// concerns (framing, faults, metrics) live in the bus.
pub trait Service: Send {
    /// Handles one request.
    fn handle(&mut self, request: Pdu) -> Pdu;
}

impl<F: FnMut(Pdu) -> Pdu + Send> Service for F {
    fn handle(&mut self, request: Pdu) -> Pdu {
        self(request)
    }
}

/// Handles into the shared `mws-obs` registry, preregistered at bind
/// time so per-dispatch updates are lock-free counter bumps. These
/// mirror [`LinkMetrics`] (which stays the cheap `Copy` snapshot for
/// tests) into the stats plane every daemon exposes.
struct EndpointStats {
    requests: mws_obs::Counter,
    dropped: mws_obs::Counter,
    bytes_in: mws_obs::Counter,
    bytes_out: mws_obs::Counter,
    duplicates: mws_obs::Counter,
    resets: mws_obs::Counter,
}

impl EndpointStats {
    fn preregister(endpoint: &str) -> Self {
        let reg = mws_obs::registry();
        let counter = |base: &str| reg.counter(&metric_name(base, &[("endpoint", endpoint)]));
        EndpointStats {
            requests: counter("mws_bus_requests_total"),
            dropped: counter("mws_bus_dropped_total"),
            bytes_in: counter("mws_bus_bytes_in_total"),
            bytes_out: counter("mws_bus_bytes_out_total"),
            duplicates: counter("mws_bus_duplicates_total"),
            resets: counter("mws_bus_resets_total"),
        }
    }
}

struct Endpoint {
    service: Box<dyn Service>,
    faults: FaultState,
    metrics: LinkMetrics,
    stats: EndpointStats,
    latency: crate::LatencyModel,
}

#[derive(Default)]
struct NetworkState {
    endpoints: HashMap<String, Endpoint>,
}

/// A named-endpoint network. Cheap to clone (shared state).
#[derive(Clone, Default)]
pub struct Network {
    state: Arc<Mutex<NetworkState>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a service under `name` with default (fault-free) links.
    pub fn bind<S: Service + 'static>(&self, name: &str, service: S) {
        self.bind_with(name, service, FaultConfig::default());
    }

    /// Binds a service with an explicit fault/latency configuration.
    pub fn bind_with<S: Service + 'static>(&self, name: &str, service: S, cfg: FaultConfig) {
        let mut state = lock(&self.state);
        state.endpoints.insert(
            name.to_string(),
            Endpoint {
                service: Box::new(service),
                faults: FaultState::new(&cfg),
                metrics: LinkMetrics::default(),
                stats: EndpointStats::preregister(name),
                latency: cfg.latency,
            },
        );
    }

    /// Removes an endpoint (server shutdown).
    pub fn unbind(&self, name: &str) -> bool {
        lock(&self.state).endpoints.remove(name).is_some()
    }

    /// A client handle for the named endpoint.
    pub fn client(&self, name: &str) -> Client {
        Client::from_transport(BusTransport::new(self.clone(), name).into_dyn())
    }

    /// Snapshot of an endpoint's metrics.
    pub fn metrics(&self, name: &str) -> Option<LinkMetrics> {
        lock(&self.state).endpoints.get(name).map(|e| e.metrics)
    }

    /// Dispatches one framed request; internal to [`BusTransport`].
    pub(crate) fn dispatch(&self, target: &str, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut state = lock(&self.state);
        let ep = state
            .endpoints
            .get_mut(target)
            .ok_or_else(|| NetError::UnknownEndpoint(target.to_string()))?;

        // Request leg.
        ep.metrics.virtual_us += ep.latency.cost_us(frame.len());
        let mut duplicated = false;
        match ep.faults.next_action() {
            FaultAction::Drop => {
                ep.metrics.dropped += 1;
                ep.stats.dropped.inc();
                return Err(NetError::Dropped);
            }
            FaultAction::Reset => {
                // The service processes the request, then the link dies
                // before the reply — the caller cannot tell whether the
                // request took effect.
                ep.metrics.resets += 1;
                ep.metrics.bytes_in += frame.len() as u64;
                ep.metrics.requests += 1;
                ep.stats.resets.inc();
                ep.stats.bytes_in.add(frame.len() as u64);
                ep.stats.requests.inc();
                let (request, _, trace) = decode_envelope_traced(frame)?;
                {
                    let _span = trace.map(mws_obs::trace::enter);
                    let _ = ep.service.handle(request);
                }
                return Err(NetError::Io(
                    "connection reset by fault injection mid-exchange".into(),
                ));
            }
            FaultAction::Duplicate => duplicated = true,
            FaultAction::Deliver => {}
        }
        ep.metrics.bytes_in += frame.len() as u64;
        ep.metrics.requests += 1;
        ep.stats.bytes_in.add(frame.len() as u64);
        ep.stats.requests.inc();
        let (request, _, trace) = decode_envelope_traced(frame)?;
        // The handler (and anything it logs or relays) runs inside the
        // caller's trace scope, so the trace id survives the hop.
        let reply = {
            let _span = trace.map(mws_obs::trace::enter);
            mws_obs::debug!(target: "mws_net", "bus dispatch",
                            endpoint = target, pdu = request.type_name());
            ep.service.handle(request)
        };
        if duplicated {
            // A late retransmission: the service handles the same frame a
            // second time; only the first reply travels back.
            ep.metrics.duplicates += 1;
            ep.metrics.bytes_in += frame.len() as u64;
            ep.metrics.requests += 1;
            ep.stats.duplicates.inc();
            ep.stats.bytes_in.add(frame.len() as u64);
            ep.stats.requests.inc();
            let (request, _, trace) = decode_envelope_traced(frame)?;
            let _span = trace.map(mws_obs::trace::enter);
            let _ = ep.service.handle(request);
        }
        // The reply travels back in the same trace scope it arrived in.
        let reply_frame = match trace {
            Some(ctx) => encode_envelope_traced(&reply, ctx),
            None => encode_envelope(&reply),
        };

        // Response leg.
        ep.metrics.virtual_us += ep.latency.cost_us(reply_frame.len());
        match ep.faults.next_action() {
            FaultAction::Drop => {
                ep.metrics.dropped += 1;
                ep.stats.dropped.inc();
                return Err(NetError::Dropped);
            }
            FaultAction::Reset => {
                ep.metrics.resets += 1;
                ep.stats.resets.inc();
                return Err(NetError::Io(
                    "connection reset by fault injection mid-exchange".into(),
                ));
            }
            // A duplicated reply is invisible to request/response callers.
            FaultAction::Duplicate | FaultAction::Deliver => {}
        }
        ep.metrics.bytes_out += reply_frame.len() as u64;
        ep.stats.bytes_out.add(reply_frame.len() as u64);
        Ok(reply_frame)
    }
}

/// A client handle for one endpoint, over any [`Transport`].
///
/// Constructed via [`Network::client`] (in-process bus) or
/// [`Client::from_transport`] (e.g. a TCP transport from `mws-server`).
/// Clones share the underlying transport.
#[derive(Clone)]
pub struct Client {
    transport: Arc<dyn Transport>,
}

impl Client {
    /// Wraps an arbitrary transport in the stock client.
    pub fn from_transport(transport: Arc<dyn Transport>) -> Self {
        Self { transport }
    }

    /// Sends a request and waits for the reply.
    ///
    /// When the calling thread has a trace scope entered, the frame
    /// carries that trace id with a fresh span id for this hop — this
    /// is the single choke point where trace context leaves a client.
    pub fn call(&self, request: &Pdu) -> Result<Pdu, NetError> {
        let frame = match mws_obs::trace::current() {
            Some(ctx) => encode_envelope_traced(request, mws_obs::trace::child_of(ctx)),
            None => encode_envelope(request),
        };
        let reply_frame = self.transport.round_trip(&frame)?;
        let (reply, _) = decode_envelope(&reply_frame)?;
        Ok(reply)
    }

    /// Like [`Self::call`] but retries transient failures (fault-injected
    /// drops, socket timeouts and I/O errors), up to `attempts` times — the
    /// retransmission loop a real deployment runs. Permanent failures
    /// (unknown endpoint, codec) surface immediately.
    pub fn call_with_retry(&self, request: &Pdu, attempts: u32) -> Result<Pdu, NetError> {
        let mut last = NetError::Dropped;
        for _ in 0..attempts {
            match self.call(request) {
                Ok(reply) => return Ok(reply),
                Err(e @ (NetError::Dropped | NetError::Timeout | NetError::Io(_))) => last = e,
                Err(other) => return Err(other),
            }
        }
        Err(last)
    }

    /// Peer identity: endpoint name on the bus, socket address over TCP.
    pub fn target(&self) -> String {
        self.transport.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;

    fn echo() -> impl Service {
        |req: Pdu| match req {
            Pdu::DepositAck { message_id } => Pdu::DepositAck {
                message_id: message_id + 1,
            },
            other => other,
        }
    }

    #[test]
    fn request_response_roundtrip() {
        let net = Network::new();
        net.bind("mws", echo());
        let client = net.client("mws");
        let reply = client.call(&Pdu::DepositAck { message_id: 1 }).unwrap();
        assert_eq!(reply, Pdu::DepositAck { message_id: 2 });
    }

    #[test]
    fn unknown_endpoint() {
        let net = Network::new();
        let client = net.client("ghost");
        assert!(matches!(
            client.call(&Pdu::ParamsRequest),
            Err(NetError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn unbind_disconnects() {
        let net = Network::new();
        net.bind("mws", echo());
        assert!(net.unbind("mws"));
        assert!(!net.unbind("mws"));
        assert!(net.client("mws").call(&Pdu::ParamsRequest).is_err());
    }

    #[test]
    fn metrics_account_bytes_and_requests() {
        let net = Network::new();
        net.bind("mws", echo());
        let client = net.client("mws");
        let req = Pdu::DepositAck { message_id: 7 };
        client.call(&req).unwrap();
        client.call(&req).unwrap();
        let m = net.metrics("mws").unwrap();
        assert_eq!(m.requests, 2);
        let frame_len = mws_wire::encode_envelope(&req).len() as u64;
        assert_eq!(m.bytes_in, 2 * frame_len);
        assert_eq!(m.bytes_out, 2 * frame_len); // echo: same size back
    }

    #[test]
    fn virtual_latency_accumulates() {
        let net = Network::new();
        net.bind_with(
            "slow",
            echo(),
            FaultConfig {
                latency: LatencyModel {
                    base_us: 100,
                    per_byte_ns: 0,
                },
                ..Default::default()
            },
        );
        net.client("slow").call(&Pdu::ParamsRequest).unwrap();
        let m = net.metrics("slow").unwrap();
        assert_eq!(m.virtual_us, 200, "request + response legs");
    }

    #[test]
    fn drops_surface_and_retry_recovers() {
        let net = Network::new();
        net.bind_with(
            "lossy",
            echo(),
            FaultConfig {
                drop_rate: 0.5,
                seed: 3,
                ..Default::default()
            },
        );
        let client = net.client("lossy");
        // With 50% loss per leg, 20 attempts succeed with overwhelming odds.
        let reply = client
            .call_with_retry(&Pdu::DepositAck { message_id: 0 }, 20)
            .unwrap();
        assert_eq!(reply, Pdu::DepositAck { message_id: 1 });
        assert!(net.metrics("lossy").unwrap().dropped > 0);
    }

    #[test]
    fn total_loss_exhausts_retries() {
        let net = Network::new();
        net.bind_with(
            "dead",
            echo(),
            FaultConfig {
                drop_rate: 1.0,
                ..Default::default()
            },
        );
        let client = net.client("dead");
        assert_eq!(
            client.call_with_retry(&Pdu::ParamsRequest, 3).unwrap_err(),
            NetError::Dropped
        );
        assert_eq!(net.metrics("dead").unwrap().dropped, 3);
        assert_eq!(net.metrics("dead").unwrap().requests, 0);
    }

    #[test]
    fn dispatch_propagates_trace_and_mirrors_the_registry() {
        let net = Network::new();
        let seen: Arc<Mutex<Option<mws_obs::trace::TraceContext>>> = Arc::new(Mutex::new(None));
        let seen_in_handler = seen.clone();
        net.bind("traced-probe", move |req: Pdu| {
            *lock(&seen_in_handler) = mws_obs::trace::current();
            req
        });
        let client = net.client("traced-probe");

        // Without a scope: the handler runs untraced.
        client.call(&Pdu::ParamsRequest).unwrap();
        assert_eq!(*lock(&seen), None);

        // With a scope: the handler sees the same trace id on a fresh
        // hop span, and the caller's own scope is restored afterwards.
        let ctx = mws_obs::trace::mint();
        let guard = mws_obs::trace::enter(ctx);
        client.call(&Pdu::ParamsRequest).unwrap();
        let inside = lock(&seen).expect("handler ran inside a scope");
        assert_eq!(inside.trace_id, ctx.trace_id, "trace id crosses the hop");
        assert_ne!(inside.span_id, ctx.span_id, "each hop gets its own span");
        assert_eq!(mws_obs::trace::current(), Some(ctx));
        drop(guard);

        // The shared registry mirrored both dispatches.
        let requests = mws_obs::registry().counter(&mws_obs::metric_name(
            "mws_bus_requests_total",
            &[("endpoint", "traced-probe")],
        ));
        assert_eq!(requests.get(), 2);
    }

    #[test]
    fn stateful_service_keeps_state() {
        let net = Network::new();
        let mut count = 0u64;
        net.bind("counter", move |_req: Pdu| {
            count += 1;
            Pdu::DepositAck { message_id: count }
        });
        let c = net.client("counter");
        assert_eq!(
            c.call(&Pdu::ParamsRequest).unwrap(),
            Pdu::DepositAck { message_id: 1 }
        );
        assert_eq!(
            c.call(&Pdu::ParamsRequest).unwrap(),
            Pdu::DepositAck { message_id: 2 }
        );
    }
}
