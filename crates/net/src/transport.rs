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

/// A lossy link over any [`Transport`]: seeded drops, duplicate delivery
/// and mid-exchange resets. It is the one seeded fault model; the same
/// schedule hits the in-process bus or real TCP sockets.
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
/// [`Self::metrics`] counts a request and its bytes only once the inner
/// round trip that carried it succeeded.
///
/// Wrap any transport: `FaultyTransport::new(tcp_client.into_transport(), cfg)`.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    state: Mutex<FaultState>,
    metrics: Mutex<LinkMetrics>,
}

impl FaultyTransport {
    /// Wraps `inner` with the seeded fault schedule of `cfg`.
    pub fn new(inner: Arc<dyn Transport>, cfg: FaultConfig) -> Self {
        Self {
            inner,
            state: Mutex::new(FaultState::new(&cfg)),
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

    /// One inner round trip, counted as a delivered request if it succeeds.
    fn deliver(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let reply = self.inner.round_trip(frame)?;
        let mut m = lock(&self.metrics);
        m.requests += 1;
        m.bytes_in += frame.len() as u64;
        Ok(reply)
    }
}

impl Transport for FaultyTransport {
    fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let action = lock(&self.state).next_action();
        let reply = match action {
            FaultAction::Drop => {
                lock(&self.metrics).dropped += 1;
                return Err(NetError::Dropped);
            }
            FaultAction::Reset => {
                lock(&self.metrics).resets += 1;
                // The peer sees (and acts on) the frame; only the reply dies.
                let _ = self.deliver(frame);
                return Err(NetError::Io(
                    "connection reset by fault injection mid-exchange".into(),
                ));
            }
            FaultAction::Duplicate => {
                let reply = self.deliver(frame)?;
                // The late retransmission: the peer handles it, but its
                // reply never reaches anyone.
                if self.deliver(frame).is_ok() {
                    lock(&self.metrics).duplicates += 1;
                }
                reply
            }
            FaultAction::Deliver => self.deliver(frame)?,
        };
        lock(&self.metrics).bytes_out += reply.len() as u64;
        Ok(reply)
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
        // The defining ambiguity: the request WAS delivered, and counted.
        assert_eq!(peer.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        let m = t.metrics();
        assert_eq!(
            (m.resets, m.requests, m.bytes_in, m.bytes_out),
            (1, 1, 1, 0)
        );
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
        let m = t.metrics();
        assert_eq!(
            (m.duplicates, m.requests, m.bytes_in, m.bytes_out),
            (1, 2, 2, 1)
        );
    }

    /// Transport whose every round trip fails, as a refused connection or
    /// an unbound endpoint does.
    struct Refusing;
    impl Transport for Refusing {
        fn round_trip(&self, _frame: &[u8]) -> Result<Vec<u8>, NetError> {
            Err(NetError::Io("connection refused".into()))
        }
        fn peer(&self) -> String {
            "refusing".into()
        }
    }

    #[test]
    fn faulty_transport_counts_no_request_a_failed_inner_trip_lost() {
        for (duplicate_rate, reset_rate) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)] {
            let t = FaultyTransport::new(
                Arc::new(Refusing),
                FaultConfig {
                    duplicate_rate,
                    reset_rate,
                    ..Default::default()
                },
            );
            assert!(matches!(t.round_trip(b"x"), Err(NetError::Io(_))));
            let m = t.metrics();
            assert_eq!(
                (m.requests, m.bytes_in, m.bytes_out, m.duplicates),
                (0, 0, 0, 0),
                "duplicate {duplicate_rate}, reset {reset_rate}: {m:?}"
            );
        }
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
