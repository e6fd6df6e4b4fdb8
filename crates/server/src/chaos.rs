//! A deterministic chaos TCP relay.
//!
//! [`ChaosProxy`] sits between a client and a real daemon socket and
//! injects faults *between real sockets*: whole-frame stalls, mid-frame
//! byte-level truncation followed by a close, and connection resets. Every
//! decision comes from an [`HmacDrbg`] seeded by `(seed, connection index)`
//! — the same seed replays the same fault schedule, so any chaos-test
//! failure reproduces exactly from its printed seed.
//!
//! The relay is frame-aware (the `mws-wire` envelope is self-delimiting):
//! each direction is pumped through a small reassembly buffer, so poll
//! timeouts never desynchronize the stream, and faults land on exact frame
//! boundaries (or, for truncation, exactly mid-frame).

use crate::blocking::is_timeout;
use mws_crypto::HmacDrbg;
use mws_wire::read_header;
use mws_wire::secure::{RECORD_HEADER, WIRE_VERSION_SECURE};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-frame fault probabilities for a [`ChaosProxy`] (the remainder is
/// forwarded untouched). Rates are per relayed frame, in either direction.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Probability a frame is stalled by [`ChaosConfig::stall`] first.
    pub stall_rate: f64,
    /// Probability a frame is truncated mid-frame and the connection
    /// closed — the receiver sees a torn frame.
    pub truncate_rate: f64,
    /// Probability the connection is closed before the frame is relayed.
    pub reset_rate: f64,
    /// How long a stalled frame is delayed.
    pub stall: Duration,
    /// Fault schedule seed (combined with the connection index).
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            stall_rate: 0.0,
            truncate_rate: 0.0,
            reset_rate: 0.0,
            stall: Duration::from_millis(50),
            seed: 0,
        }
    }
}

/// What happens to one relayed frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameAction {
    Forward,
    Stall,
    Truncate,
    Reset,
}

/// One seeded decision per frame: a single 8-byte draw partitions `[0, 1)`
/// into `[0, stall) → Stall`, `[stall, stall+trunc) → Truncate`,
/// `[.., total) → Reset`, remainder `Forward` — mirroring the single-draw
/// discipline of `mws-net`'s `FaultConfig` so schedules stay comparable.
fn next_action(rng: &mut HmacDrbg, cfg: &ChaosConfig) -> FrameAction {
    let total = cfg.stall_rate + cfg.truncate_rate + cfg.reset_rate;
    if total <= 0.0 {
        return FrameAction::Forward;
    }
    let mut b = [0u8; 8];
    rng.generate(&mut b);
    let x = (u64::from_be_bytes(b) >> 11) as f64 / (1u64 << 53) as f64;
    if x < cfg.stall_rate {
        FrameAction::Stall
    } else if x < cfg.stall_rate + cfg.truncate_rate {
        FrameAction::Truncate
    } else if x < total {
        FrameAction::Reset
    } else {
        FrameAction::Forward
    }
}

/// Frame counters across all connections of one proxy.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Frames relayed untouched (including after a stall).
    pub forwarded: AtomicU64,
    /// Frames delayed before forwarding.
    pub stalled: AtomicU64,
    /// Frames cut mid-frame (connection closed after the prefix).
    pub truncated: AtomicU64,
    /// Connections closed before the frame was relayed.
    pub resets: AtomicU64,
}

/// A chaos TCP relay in front of one upstream daemon.
pub struct ChaosProxy {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    stats: Arc<ChaosStats>,
}

impl ChaosProxy {
    /// Spawns a relay on an ephemeral localhost port in front of
    /// `upstream`.
    pub fn spawn(upstream: SocketAddr, cfg: ChaosConfig) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(false)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let accept_stop = stop.clone();
        let accept_stats = stats.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            let mut conn_index = 0u64;
            for downstream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(downstream) = downstream else { continue };
                let cfg = cfg.clone();
                let stop = accept_stop.clone();
                let stats = accept_stats.clone();
                let index = conn_index;
                conn_index += 1;
                conns.push(std::thread::spawn(move || {
                    relay_connection(downstream, upstream, &cfg, index, &stop, &stats);
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Self {
            local,
            stop,
            accept_thread: Some(accept_thread),
            stats,
        })
    }

    /// The address clients should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Frame counters (shared across connections).
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Stops accepting, tears down relay threads and joins them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// Pulls the next complete unit out of a reassembly buffer: an envelope
/// frame, or a secure record. Garbage is the upstream's problem — only the
/// declared length is trusted, and only for splitting; bytes whose header
/// fails the envelope checks (an unknown version byte, a body over the
/// bound) are relayed as they are, for the real endpoint to reject.
fn extract_frame(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let total = if buf.first() == Some(&WIRE_VERSION_SECURE) {
        let [_, _, l0, l1, l2, l3, ..] = buf[..] else {
            return None;
        };
        RECORD_HEADER.checked_add(u32::from_le_bytes([l0, l1, l2, l3]) as usize)?
    } else {
        match read_header(buf) {
            Ok(header) => header?.frame_len,
            Err(_) => return Some(std::mem::take(buf)),
        }
    };
    if buf.len() < total {
        return None;
    }
    Some(buf.drain(..total).collect())
}

/// Reads whatever is available into `buf`. Returns `false` once the peer
/// has closed or the socket is dead (timeouts keep the pump alive).
fn pump(stream: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => false,
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            true
        }
        Err(e) if is_timeout(&e) => true,
        Err(_) => false,
    }
}

/// Applies one frame's fate; returns `false` when the connection must die.
fn apply_action(
    action: FrameAction,
    frame: &[u8],
    out: &mut TcpStream,
    cfg: &ChaosConfig,
    stats: &ChaosStats,
) -> bool {
    match action {
        FrameAction::Forward => {
            stats.forwarded.fetch_add(1, Ordering::Relaxed);
            out.write_all(frame).and_then(|()| out.flush()).is_ok()
        }
        FrameAction::Stall => {
            stats.stalled.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(cfg.stall);
            out.write_all(frame).and_then(|()| out.flush()).is_ok()
        }
        FrameAction::Truncate => {
            stats.truncated.fetch_add(1, Ordering::Relaxed);
            // Half the frame (at least one byte) lands, then the line dies:
            // the receiver holds a torn frame it must throw away.
            let cut = (frame.len() / 2).max(1);
            let _ = out.write_all(&frame[..cut]).and_then(|()| out.flush());
            false
        }
        FrameAction::Reset => {
            stats.resets.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

fn relay_connection(
    mut downstream: TcpStream,
    upstream_addr: SocketAddr,
    cfg: &ChaosConfig,
    conn_index: u64,
    stop: &AtomicBool,
    stats: &ChaosStats,
) {
    let Ok(mut upstream) = TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(1))
    else {
        return;
    };
    let poll = Some(Duration::from_millis(10));
    if downstream.set_read_timeout(poll).is_err() || upstream.set_read_timeout(poll).is_err() {
        return;
    }
    let _ = downstream.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    let mut seed = cfg.seed.to_be_bytes().to_vec();
    seed.extend_from_slice(&conn_index.to_be_bytes());
    let mut rng = HmacDrbg::new(&seed, b"mws-chaos-proxy");
    let mut dbuf: Vec<u8> = Vec::new();
    let mut ubuf: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if !pump(&mut downstream, &mut dbuf) {
            return;
        }
        while let Some(frame) = extract_frame(&mut dbuf) {
            let action = next_action(&mut rng, cfg);
            if !apply_action(action, &frame, &mut upstream, cfg, stats) {
                return;
            }
        }
        if !pump(&mut upstream, &mut ubuf) {
            return;
        }
        while let Some(frame) = extract_frame(&mut ubuf) {
            let action = next_action(&mut rng, cfg);
            if !apply_action(action, &frame, &mut downstream, cfg, stats) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, TcpClient};
    use crate::server::{ServerConfig, TcpServer};
    use mws_wire::Pdu;

    fn echo_server() -> TcpServer {
        TcpServer::spawn(ServerConfig::default(), || |req: Pdu| req).unwrap()
    }

    fn fast_client(addr: SocketAddr) -> mws_net::Client {
        TcpClient::with_config(
            addr,
            ClientConfig {
                request_timeout: Duration::from_millis(300),
                attempts: 2,
                backoff: Duration::from_millis(5),
                breaker_threshold: 0,
                ..ClientConfig::default()
            },
        )
        .into_client()
    }

    #[test]
    fn transparent_relay_when_all_rates_zero() {
        let server = echo_server();
        let mut proxy = ChaosProxy::spawn(server.local_addr(), ChaosConfig::default()).unwrap();
        let client = fast_client(proxy.local_addr());
        for id in 0..5 {
            let req = Pdu::DepositAck { message_id: id };
            assert_eq!(client.call(&req).unwrap(), req);
        }
        // 5 requests + 5 replies crossed the relay.
        assert_eq!(proxy.stats().forwarded.load(Ordering::Relaxed), 10);
        proxy.shutdown();
    }

    #[test]
    fn resets_and_truncation_are_survivable_with_retry() {
        let server = echo_server();
        let mut proxy = ChaosProxy::spawn(
            server.local_addr(),
            ChaosConfig {
                truncate_rate: 0.15,
                reset_rate: 0.15,
                seed: 11,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let client = fast_client(proxy.local_addr());
        let mut delivered = 0;
        for id in 0..30 {
            let req = Pdu::DepositAck { message_id: id };
            if let Some(reply) = (0..8).find_map(|_| client.call(&req).ok()) {
                assert_eq!(reply, req, "relay must never corrupt a frame");
                delivered += 1;
            }
        }
        assert_eq!(delivered, 30, "every call eventually succeeds via retry");
        let faults = proxy.stats().truncated.load(Ordering::Relaxed)
            + proxy.stats().resets.load(Ordering::Relaxed);
        assert!(faults > 0, "schedule at these rates must inject something");
        proxy.shutdown();
    }

    #[test]
    fn frames_split_on_their_own_header_sizes() {
        let ctx = mws_obs::trace::TraceContext {
            trace_id: 1,
            span_id: 2,
        };
        let mut traced = Vec::new();
        mws_wire::encode_frame(&Pdu::ParamsRequest, Some(ctx), &mut traced);
        let units = [
            traced,
            // A secure DATA record (type 4): `0x03 ‖ rtype ‖ len(4 LE) ‖ payload`.
            [
                &[WIRE_VERSION_SECURE, 4],
                &6u32.to_le_bytes()[..],
                b"sealed",
            ]
            .concat(),
            vec![0xde, 0xad],
        ];
        let mut buf = units.concat();
        for unit in units {
            assert_eq!(extract_frame(&mut buf), Some(unit));
        }
        assert_eq!(extract_frame(&mut buf), None);
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let counts = |seed: u64| {
            let cfg = ChaosConfig {
                stall_rate: 0.2,
                truncate_rate: 0.1,
                reset_rate: 0.1,
                seed,
                ..ChaosConfig::default()
            };
            let mut rng = HmacDrbg::new(
                &[seed.to_be_bytes(), 0u64.to_be_bytes()].concat(),
                b"mws-chaos-proxy",
            );
            (0..256)
                .map(|_| next_action(&mut rng, &cfg))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(5), counts(5));
        assert_ne!(counts(5), counts(6), "different seed, different schedule");
    }

    #[test]
    fn stalled_frames_arrive_late_but_intact() {
        let server = echo_server();
        let mut proxy = ChaosProxy::spawn(
            server.local_addr(),
            ChaosConfig {
                stall_rate: 1.0,
                stall: Duration::from_millis(30),
                seed: 2,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let client = fast_client(proxy.local_addr());
        let t0 = std::time::Instant::now();
        let req = Pdu::DepositAck { message_id: 9 };
        assert_eq!(client.call(&req).unwrap(), req);
        assert!(t0.elapsed() >= Duration::from_millis(60), "both legs stall");
        proxy.shutdown();
    }
}
