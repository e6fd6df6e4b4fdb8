//! Transport abstraction decoupling clients from the medium.
//!
//! [`Client`](crate::Client) speaks PDUs; a [`Transport`] moves the encoded
//! envelope frames. Two implementations exist today:
//!
//! * [`BusTransport`] — the deterministic in-process [`Network`] bus (the
//!   default; what [`Network::client`] hands out).
//! * `mws_server::TcpClient` — real sockets, one MWS daemon per process,
//!   reproducing the paper's four-server deployment (§VI.C).
//!
//! `mws-core` services and clients only ever hold a `Client`, so the same
//! protocol logic runs unchanged over either medium.

use crate::fault::{FaultAction, FaultConfig, FaultState};
use crate::metrics::LinkMetrics;
use crate::{NetError, Network};
use mws_obs::sync::lock;
use std::sync::{Arc, Mutex};

/// Moves one encoded envelope frame to a peer and returns the reply frame.
///
/// Implementations must be shareable across threads: a `Client` is `Clone`
/// and clones share the transport.
pub trait Transport: Send + Sync {
    /// Performs one request/response exchange of raw envelope frames.
    fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError>;

    /// Human-readable peer identity (endpoint name or socket address),
    /// for diagnostics.
    fn peer(&self) -> String;
}

/// [`Transport`] over the in-process [`Network`] bus.
pub struct BusTransport {
    network: Network,
    target: String,
}

impl BusTransport {
    /// A transport addressing `target` on `network`.
    pub fn new(network: Network, target: &str) -> Self {
        Self {
            network,
            target: target.to_string(),
        }
    }

    /// Boxed into the `Arc<dyn Transport>` a [`Client`](crate::Client) holds.
    pub fn into_dyn(self) -> Arc<dyn Transport> {
        Arc::new(self)
    }
}

impl Transport for BusTransport {
    fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        self.network.dispatch(&self.target, frame)
    }

    fn peer(&self) -> String {
        self.target.clone()
    }
}

/// A lossy link over any [`Transport`]: seeded drops, duplicate delivery,
/// mid-exchange resets, and modeled latency — the bus's fault model, made
/// medium-agnostic so the *same* seeded schedule can hit real TCP sockets.
///
/// Fault semantics per round trip (one DRBG draw each):
///
/// * **Drop** — the frame is lost before the peer sees it; the caller gets
///   [`NetError::Dropped`]. The request definitively did not happen.
/// * **Duplicate** — the peer processes the frame twice (a retransmission
///   arriving after the original); the caller sees the first reply. This is
///   what server-side replay protection exists for.
/// * **Reset** — the frame reaches the peer and is processed, but the
///   connection dies before the reply. The caller gets [`NetError::Io`] and
///   *cannot know* whether the request took effect — the ambiguity that
///   forces deposits to be idempotent.
///
/// Wrap any transport: `FaultyTransport::new(tcp_client.into_transport(), cfg)`.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    state: Mutex<FaultState>,
    latency: crate::LatencyModel,
    metrics: Mutex<LinkMetrics>,
}

impl FaultyTransport {
    /// Wraps `inner` with the seeded fault schedule of `cfg`.
    pub fn new(inner: Arc<dyn Transport>, cfg: FaultConfig) -> Self {
        Self {
            inner,
            state: Mutex::new(FaultState::new(&cfg)),
            latency: cfg.latency,
            metrics: Mutex::new(LinkMetrics::default()),
        }
    }

    /// Boxed into the `Arc<dyn Transport>` a [`Client`](crate::Client) holds.
    pub fn into_dyn(self) -> Arc<dyn Transport> {
        Arc::new(self)
    }

    /// Snapshot of the link's fault/traffic counters.
    pub fn metrics(&self) -> LinkMetrics {
        *lock(&self.metrics)
    }
}

impl Transport for FaultyTransport {
    fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let action = lock(&self.state).next_action();
        let mut m = lock(&self.metrics);
        m.virtual_us += self.latency.cost_us(frame.len());
        match action {
            FaultAction::Drop => {
                m.dropped += 1;
                Err(NetError::Dropped)
            }
            FaultAction::Reset => {
                m.resets += 1;
                drop(m);
                // The peer sees (and acts on) the frame; only the reply dies.
                let _ = self.inner.round_trip(frame);
                Err(NetError::Io(
                    "connection reset by fault injection mid-exchange".into(),
                ))
            }
            FaultAction::Duplicate => {
                m.duplicates += 1;
                m.requests += 2;
                m.bytes_in += 2 * frame.len() as u64;
                drop(m);
                let reply = self.inner.round_trip(frame)?;
                // The late retransmission: the peer handles it, but its
                // reply never reaches anyone.
                let _ = self.inner.round_trip(frame);
                let mut m = lock(&self.metrics);
                m.virtual_us += self.latency.cost_us(reply.len());
                m.bytes_out += reply.len() as u64;
                Ok(reply)
            }
            FaultAction::Deliver => {
                m.requests += 1;
                m.bytes_in += frame.len() as u64;
                drop(m);
                let reply = self.inner.round_trip(frame)?;
                let mut m = lock(&self.metrics);
                m.virtual_us += self.latency.cost_us(reply.len());
                m.bytes_out += reply.len() as u64;
                Ok(reply)
            }
        }
    }

    fn peer(&self) -> String {
        format!("faulty({})", self.inner.peer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use mws_wire::{encode_envelope, Pdu};

    #[test]
    fn bus_transport_round_trips_frames() {
        let net = Network::new();
        net.bind("echo", |req: Pdu| req);
        let t = BusTransport::new(net, "echo");
        let frame = encode_envelope(&Pdu::ParamsRequest);
        assert_eq!(t.round_trip(&frame).unwrap(), frame);
        assert_eq!(t.peer(), "echo");
    }

    #[test]
    fn client_over_custom_transport() {
        // A hand-rolled Transport (not the bus) behind the stock Client:
        // proves the client is medium-agnostic.
        struct Reverse;
        impl Transport for Reverse {
            fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
                let (pdu, _) = mws_wire::decode_envelope(frame)?;
                let reply = match pdu {
                    Pdu::DepositAck { message_id } => Pdu::DepositAck {
                        message_id: message_id.reverse_bits(),
                    },
                    other => other,
                };
                Ok(encode_envelope(&reply))
            }
            fn peer(&self) -> String {
                "reverse".into()
            }
        }
        let client = Client::from_transport(Arc::new(Reverse));
        let reply = client.call(&Pdu::DepositAck { message_id: 1 }).unwrap();
        assert_eq!(
            reply,
            Pdu::DepositAck {
                message_id: 1u64.reverse_bits()
            }
        );
        assert_eq!(client.target(), "reverse");
    }

    /// Transport that counts deliveries — lets tests observe duplicate and
    /// reset semantics from the peer's side.
    struct Counting {
        calls: std::sync::atomic::AtomicU64,
    }
    impl Transport for Counting {
        fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(frame.to_vec())
        }
        fn peer(&self) -> String {
            "counting".into()
        }
    }

    #[test]
    fn faulty_transport_drop_never_reaches_peer() {
        let peer = Arc::new(Counting {
            calls: Default::default(),
        });
        let t = FaultyTransport::new(
            peer.clone(),
            FaultConfig {
                drop_rate: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(t.round_trip(b"x").unwrap_err(), NetError::Dropped);
        assert_eq!(peer.calls.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(t.metrics().dropped, 1);
    }

    #[test]
    fn faulty_transport_reset_reaches_peer_but_loses_reply() {
        let peer = Arc::new(Counting {
            calls: Default::default(),
        });
        let t = FaultyTransport::new(
            peer.clone(),
            FaultConfig {
                reset_rate: 1.0,
                ..Default::default()
            },
        );
        assert!(matches!(t.round_trip(b"x").unwrap_err(), NetError::Io(_)));
        // The defining ambiguity: the request WAS delivered.
        assert_eq!(peer.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(t.metrics().resets, 1);
    }

    #[test]
    fn faulty_transport_duplicate_delivers_twice_one_reply() {
        let peer = Arc::new(Counting {
            calls: Default::default(),
        });
        let t = FaultyTransport::new(
            peer.clone(),
            FaultConfig {
                duplicate_rate: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(t.round_trip(b"x").unwrap(), b"x".to_vec());
        assert_eq!(peer.calls.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert_eq!(t.metrics().duplicates, 1);
    }

    #[test]
    fn faulty_transport_same_seed_same_schedule_over_bus() {
        let run = |seed: u64| {
            let net = Network::new();
            net.bind("echo", |req: Pdu| req);
            let t = FaultyTransport::new(
                BusTransport::new(net, "echo").into_dyn(),
                FaultConfig {
                    drop_rate: 0.3,
                    reset_rate: 0.2,
                    seed,
                    ..Default::default()
                },
            );
            let frame = encode_envelope(&Pdu::ParamsRequest);
            (0..200)
                .map(|_| match t.round_trip(&frame) {
                    Ok(_) => 0u8,
                    Err(NetError::Dropped) => 1,
                    Err(NetError::Io(_)) => 2,
                    Err(_) => 3,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed, same outcome sequence");
        assert_ne!(run(5), run(6), "different seed, different schedule");
    }
}
