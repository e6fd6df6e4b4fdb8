//! Distribution points — paper §VIII future work.
//!
//! "A more distributed infrastructure can also be proposed, so the MWS-SD
//! and MWS-Client can be located in different areas, and when required pull
//! messages. In such a case, distribution points can be considered to
//! improve the scalability of the system."
//!
//! An [`IngestPoint`] is a lightweight MWS-SD edge: it authenticates device
//! deposits exactly like the central SDA (same replay policy, same MAC/IBS
//! verification) and buffers them with per-site sequence numbers. The
//! central warehouse runs a [`RelayPuller`] that fetches them with a
//! resumable cursor over the cluster's row plane ([`mws_net::rows`]) under
//! the site↔center shared key, so neither a peer without the key nor a
//! compromised network between sites can read or drain the buffer, or
//! inject, reorder or replay deposits.

use crate::audit::{AuditEvent, AuditLog};
use crate::clock::{LogicalClock, ReplayPolicy};
use crate::errors::CoreError;
use crate::registry::DeviceRegistry;
use crate::sda::{DeviceAuthVerifier, SdAuthenticator};
use mws_net::{pull_rows, serve_pull, Client, PullError, Service};
use mws_obs::sync::lock;
use mws_wire::{Pdu, RelayEntry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Maximum entries an ingest point buffers before shedding oldest
/// (sites are expected to be drained far more often).
const MAX_BUFFER: usize = 100_000;

struct IngestInner {
    site: String,
    sda: SdAuthenticator,
    relay_key: Vec<u8>,
    buffer: VecDeque<RelayEntry>,
    next_seq: u64,
    clock: LogicalClock,
    audit: AuditLog,
}

/// An MWS-SD edge node buffering verified deposits for central pull.
#[derive(Clone)]
pub struct IngestPoint {
    inner: Arc<Mutex<IngestInner>>,
}

impl IngestPoint {
    /// Creates an ingest point for a site.
    pub fn new(
        site: &str,
        registry: DeviceRegistry,
        device_auth: DeviceAuthVerifier,
        relay_key: &[u8],
        clock: LogicalClock,
        replay: ReplayPolicy,
    ) -> Self {
        Self {
            inner: Arc::new(Mutex::new(IngestInner {
                site: site.to_string(),
                sda: SdAuthenticator::with_verifier(registry, replay, device_auth),
                relay_key: relay_key.to_vec(),
                buffer: VecDeque::new(),
                next_seq: 1, // 1-based so cursor 0 means "nothing applied"
                clock,
                audit: AuditLog::new(1024),
            })),
        }
    }

    /// A bindable service facade.
    pub fn as_service(&self) -> impl Service + 'static {
        let inner = self.inner.clone();
        move |req: Pdu| lock(&inner).handle(req)
    }

    /// Registers a device at this site.
    pub fn register_device(&self, sd_id: &str, mac_key: &[u8]) {
        lock(&self.inner)
            .sda
            .registry_mut()
            .register(sd_id, mac_key);
    }

    /// Entries currently buffered (not yet known to be applied centrally).
    pub fn buffered(&self) -> usize {
        lock(&self.inner).buffer.len()
    }

    /// The site name.
    pub fn site(&self) -> String {
        lock(&self.inner).site.clone()
    }
}

impl IngestInner {
    fn handle(&mut self, req: Pdu) -> Pdu {
        match req {
            Pdu::DepositRequest {
                sd_id,
                timestamp,
                u,
                algo,
                sealed,
                attribute,
                nonce,
                mac,
            } => {
                let now = self.clock.now();
                if let Err(reject) = self.sda.verify(
                    now, &sd_id, timestamp, &u, &sealed, &attribute, &nonce, &mac,
                ) {
                    self.audit.record(
                        now,
                        AuditEvent::DepositRejected {
                            sd_id,
                            reason: reject.to_string(),
                        },
                    );
                    return Pdu::Error {
                        code: 401,
                        detail: reject.to_string(),
                    };
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                if self.buffer.len() == MAX_BUFFER {
                    self.buffer.pop_front();
                }
                self.buffer.push_back(RelayEntry {
                    seq,
                    sd_id,
                    timestamp,
                    u,
                    algo,
                    sealed,
                    attribute,
                    nonce,
                });
                // Ack with the site-local sequence number; the warehouse id
                // is assigned when the center applies the entry.
                Pdu::DepositAck { message_id: seq }
            }
            req @ Pdu::ReplicaPull { .. } => {
                let buffer = &mut self.buffer;
                serve_pull(&self.relay_key, &req, |attribute, after| {
                    let asked =
                        move |e: &RelayEntry| attribute.is_empty() || e.attribute == attribute;
                    // The puller asks from past what it holds: entries
                    // below its cursor are safe at the center.
                    buffer.retain(|e| e.seq >= after || !asked(e));
                    Some(buffer.iter().filter(move |e| asked(e)).cloned())
                })
            }
            _ => Pdu::Error {
                code: 400,
                detail: "unexpected PDU at ingest point".into(),
            },
        }
    }
}

/// Central-side puller with a resumable cursor.
pub struct RelayPuller {
    client: Client,
    relay_key: Vec<u8>,
    cursor: u64,
}

impl RelayPuller {
    /// Creates a puller over a client bound to the ingest point's endpoint.
    pub fn new(client: Client, relay_key: &[u8]) -> Self {
        Self {
            client,
            relay_key: relay_key.to_vec(),
            cursor: 0,
        }
    }

    /// The resume cursor (last applied sequence).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Pulls up to `max` entries past the cursor and returns them. The
    /// cursor advances once the pages verify, not when they are applied
    /// (the site drops entries below a pull's cursor, so a pull longer
    /// than one page drops its earlier pages as it asks for the next): a
    /// failed apply is not fetched again, so the caller retries it with
    /// the entries it holds (`MwsService::store_relayed` stores nothing
    /// twice).
    pub fn pull(&mut self, max: u32) -> Result<Vec<RelayEntry>, CoreError> {
        let call = |req: &Pdu| self.client.call(req);
        let after = self.cursor.saturating_add(1);
        let entries =
            pull_rows(call, &self.relay_key, "", after, max as usize).map_err(|e| match e {
                PullError::Net(e) => CoreError::Net(e),
                PullError::Refused(code, detail) => CoreError::from_wire_error(code, detail),
                PullError::Forged(what) => CoreError::Crypto(what),
            })?;
        if let Some(last) = entries.last() {
            self.cursor = last.seq;
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sda::deposit_mac;
    use mws_net::Network;

    fn setup() -> (Network, IngestPoint, LogicalClock) {
        let clock = LogicalClock::new();
        let mut registry = DeviceRegistry::new();
        registry.register("meter-1", b"device-key");
        let point = IngestPoint::new(
            "site-west",
            registry,
            DeviceAuthVerifier::Mac,
            b"relay-shared-key",
            clock.clone(),
            ReplayPolicy::Off,
        );
        let net = Network::new();
        net.bind("ingest-west", point.as_service());
        (net, point, clock)
    }

    fn deposit(net: &Network, n: u64) -> Pdu {
        let mac = deposit_mac(
            b"device-key",
            b"U",
            b"C",
            "ATTR",
            &n.to_be_bytes(),
            "meter-1",
            n,
        );
        let pdu = Pdu::DepositRequest {
            sd_id: "meter-1".into(),
            timestamp: n,
            u: b"U".to_vec(),
            algo: 3,
            sealed: b"C".to_vec(),
            attribute: "ATTR".into(),
            nonce: n.to_be_bytes().to_vec(),
            mac,
        };
        net.client("ingest-west").call(&pdu).unwrap()
    }

    #[test]
    fn edge_verifies_and_buffers() {
        let (net, point, _) = setup();
        assert!(matches!(
            deposit(&net, 1),
            Pdu::DepositAck { message_id: 1 }
        ));
        assert!(matches!(
            deposit(&net, 2),
            Pdu::DepositAck { message_id: 2 }
        ));
        assert_eq!(point.buffered(), 2);
        // Bad MAC rejected at the edge.
        let bad = Pdu::DepositRequest {
            sd_id: "meter-1".into(),
            timestamp: 9,
            u: b"U".to_vec(),
            algo: 3,
            sealed: b"C".to_vec(),
            attribute: "ATTR".into(),
            nonce: b"x".to_vec(),
            mac: vec![0; 32],
        };
        let reply = net.client("ingest-west").call(&bad).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 401, .. }));
        assert_eq!(point.buffered(), 2);
    }

    #[test]
    fn pull_with_cursor_resumption() {
        let (net, _point, _) = setup();
        for n in 1..=5 {
            deposit(&net, n);
        }
        let mut puller = RelayPuller::new(net.client("ingest-west"), b"relay-shared-key");
        let batch = puller.pull(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(puller.cursor(), 3); // seqs 1..=3
        let rest = puller.pull(10).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].seq, 4);
        // Drained.
        assert!(puller.pull(10).unwrap().is_empty());
        // New deposits resume after the cursor.
        deposit(&net, 6);
        let more = puller.pull(10).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].seq, 6);
    }

    #[test]
    fn wrong_relay_key_rejected() {
        let (net, point, _) = setup();
        deposit(&net, 1);
        let mut puller = RelayPuller::new(net.client("ingest-west"), b"wrong-key");
        assert!(matches!(
            puller.pull(10),
            Err(CoreError::Remote {
                code: crate::errors::ErrorCode::AuthFailed,
                ..
            })
        ));
        assert_eq!(puller.cursor(), 0, "cursor does not advance on failure");
        assert_eq!(point.buffered(), 1);
    }

    #[test]
    fn a_keyless_pull_leaves_the_buffer_alone() {
        let (net, point, _) = setup();
        for n in 1..=3 {
            deposit(&net, n);
        }
        // A pull claiming the center holds everything, without the site
        // key: refused before the buffer is touched.
        let drain = Pdu::ReplicaPull {
            attribute: String::new(),
            after: u64::MAX,
            max: 10,
            nonce: vec![1; 16],
            mac: vec![0; 32],
        };
        let reply = net.client("ingest-west").call(&drain).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 401, .. }), "{reply:?}");
        assert_eq!(point.buffered(), 3);
        let mut puller = RelayPuller::new(net.client("ingest-west"), b"relay-shared-key");
        assert_eq!(puller.pull(10).unwrap().len(), 3);
    }

    #[test]
    fn acked_entries_are_garbage_collected() {
        let (net, point, _) = setup();
        for n in 1..=4 {
            deposit(&net, n);
        }
        let mut puller = RelayPuller::new(net.client("ingest-west"), b"relay-shared-key");
        puller.pull(2).unwrap(); // applies seq 1..=2
        puller.pull(2).unwrap(); // ack of 2 drops 1..=2 at the site
        assert!(point.buffered() <= 2);
    }
}
