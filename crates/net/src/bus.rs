//! The in-process request/response bus: a plain wire. It decodes each
//! frame, runs the handler in the caller's trace scope, encodes the reply
//! and counts requests and bytes. It injects no faults; a lossy link is a
//! [`FaultyTransport`](crate::FaultyTransport) over a [`BusTransport`].

use crate::metrics::LinkMetrics;
use crate::transport::{BusTransport, Transport};
use crate::NetError;
use mws_obs::sync::lock;
use mws_wire::{decode_envelope, decode_envelope_traced, encode_frame, Pdu};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A request handler bound to an endpoint name.
///
/// Handlers receive decoded PDUs and return the reply PDU; framing and
/// metrics live in the bus.
pub trait Service: Send {
    /// Handles one request.
    fn handle(&mut self, request: Pdu) -> Pdu;

    /// Whether `request` is cheap enough to run on the TCP server's event
    /// loop thread instead of its worker pool: no fsync, no pairing, no
    /// network call, only short lock holds. While it runs, every other
    /// connection on that loop waits, so the default is `false`; only the
    /// memory-backed warehouse's deposits say otherwise (DESIGN.md §11).
    fn runs_inline(&self, _request: &Pdu) -> bool {
        false
    }
}

impl<F: FnMut(Pdu) -> Pdu + Send> Service for F {
    fn handle(&mut self, request: Pdu) -> Pdu {
        self(request)
    }
}

struct Endpoint {
    service: Box<dyn Service>,
    metrics: LinkMetrics,
}

/// A named-endpoint network. Cheap to clone (shared state).
///
/// Each endpoint has its own lock, held only while its handler runs: the
/// map lock is released before dispatch, so a handler may call another
/// endpoint on the same network, and calls to different endpoints run
/// concurrently.
#[derive(Clone, Default)]
pub struct Network {
    endpoints: Arc<Mutex<HashMap<String, Arc<Mutex<Endpoint>>>>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a service under `name`.
    pub fn bind<S: Service + 'static>(&self, name: &str, service: S) {
        let endpoint = Endpoint {
            service: Box::new(service),
            metrics: LinkMetrics::default(),
        };
        lock(&self.endpoints).insert(name.to_string(), Arc::new(Mutex::new(endpoint)));
    }

    /// Removes an endpoint (server shutdown).
    pub fn unbind(&self, name: &str) -> bool {
        lock(&self.endpoints).remove(name).is_some()
    }

    /// A client handle for the named endpoint.
    pub fn client(&self, name: &str) -> Client {
        Client::from_transport(BusTransport::new(self.clone(), name).into_dyn())
    }

    /// Snapshot of an endpoint's metrics.
    pub fn metrics(&self, name: &str) -> Option<LinkMetrics> {
        let endpoint = lock(&self.endpoints).get(name).cloned()?;
        let metrics = lock(&endpoint).metrics;
        Some(metrics)
    }

    /// Dispatches one framed request; internal to [`BusTransport`].
    pub(crate) fn dispatch(&self, target: &str, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let endpoint = lock(&self.endpoints)
            .get(target)
            .cloned()
            .ok_or_else(|| NetError::UnknownEndpoint(target.to_string()))?;
        let mut ep = lock(&endpoint);
        let (request, _, trace) = decode_envelope_traced(frame)?;
        // The handler (and anything it logs or relays) runs inside the
        // caller's trace scope, so the trace id survives the hop.
        let reply = {
            let _span = trace.map(mws_obs::trace::enter);
            mws_obs::debug!(target: "mws_net", "bus dispatch",
                            endpoint = target, pdu = request.type_name());
            ep.service.handle(request)
        };
        // A reply carries its request's context.
        let mut reply_frame = Vec::new();
        encode_frame(&reply, trace, &mut reply_frame);
        ep.metrics.requests += 1;
        ep.metrics.bytes_in += frame.len() as u64;
        ep.metrics.bytes_out += reply_frame.len() as u64;
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
    /// A request carries a child of the calling thread's trace scope: the
    /// scope's trace id with a fresh span id for this hop, and no context
    /// when no scope is entered. This is the single choke point where
    /// trace context leaves a client.
    pub fn call(&self, request: &Pdu) -> Result<Pdu, NetError> {
        let trace = mws_obs::trace::current().map(mws_obs::trace::child_of);
        let mut frame = Vec::new();
        encode_frame(request, trace, &mut frame);
        let reply_frame = self.transport.round_trip(&frame)?;
        let (reply, _) = decode_envelope(&reply_frame)?;
        Ok(reply)
    }

    /// Peer identity: endpoint name on the bus, socket address over TCP.
    pub fn target(&self) -> String {
        self.transport.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, FaultyTransport};

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

    /// `echo` on a fresh network behind a seeded lossy link.
    fn lossy(cfg: FaultConfig) -> (Network, Arc<FaultyTransport>) {
        let net = Network::new();
        net.bind("lossy", echo());
        let link = FaultyTransport::new(BusTransport::new(net.clone(), "lossy").into_dyn(), cfg);
        (net, Arc::new(link))
    }

    #[test]
    fn drops_surface_and_retry_recovers() {
        let (net, link) = lossy(FaultConfig {
            drop_rate: 0.5,
            seed: 3,
            ..Default::default()
        });
        let client = Client::from_transport(link.clone());
        let request = Pdu::DepositAck { message_id: 0 };
        let outcomes: Vec<_> = (0..20).map(|_| client.call(&request)).collect();
        let drops = outcomes
            .iter()
            .filter(|r| **r == Err(NetError::Dropped))
            .count();
        // With 50% loss, 20 calls see a drop and a later success with
        // overwhelming odds.
        let first_drop = outcomes.iter().position(Result::is_err).unwrap();
        let recovered = outcomes[first_drop..].iter().find_map(|r| r.as_ref().ok());
        assert_eq!(recovered, Some(&Pdu::DepositAck { message_id: 1 }));
        assert_eq!(link.metrics().dropped, drops as u64);
        let delivered = net.metrics("lossy").unwrap().requests;
        assert_eq!(delivered, 20 - drops as u64, "drops never arrive");
    }

    #[test]
    fn total_loss_exhausts_retries() {
        let (net, link) = lossy(FaultConfig {
            drop_rate: 1.0,
            ..Default::default()
        });
        let client = Client::from_transport(link.clone());
        for _ in 0..3 {
            assert_eq!(client.call(&Pdu::ParamsRequest), Err(NetError::Dropped));
        }
        assert_eq!(link.metrics().dropped, 3);
        assert_eq!(link.metrics().requests, 0);
        assert_eq!(net.metrics("lossy").unwrap().requests, 0);
    }

    #[test]
    fn dispatch_propagates_the_trace() {
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
