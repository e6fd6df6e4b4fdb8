//! Socket-backed [`Transport`]: the client side of the TCP deployment.
//!
//! A [`TcpClient`] holds one persistent connection per peer (lazily opened,
//! transparently reopened after failures) and implements the `mws-net`
//! [`Transport`] trait, so `Client::from_transport(Arc::new(tcp))` yields
//! the same [`mws_net::Client`] the in-process bus hands out — device and
//! RC logic in `mws-core` runs over real sockets unchanged.
//!
//! Degradation machinery (all deterministic given [`ClientConfig::seed`]):
//!
//! * **Decorrelated-jitter backoff** — each retry sleeps a seeded-random
//!   duration in `[backoff, min(backoff_cap, 3 × previous)]`, so a fleet of
//!   clients recovering from the same outage does not retry in lockstep.
//! * **Per-request deadline** — one wall-clock budget spans every attempt,
//!   backoff sleep and socket timeout of a round trip; a slow chain of
//!   retries cannot exceed it.
//! * **Circuit breaker** — after `breaker_threshold` consecutive transport
//!   failures the client fails fast with [`NetError::CircuitOpen`] instead
//!   of hammering a dead peer; once the (jittered, growing) cooldown lapses
//!   a single half-open probe decides between closing and re-opening.

use crate::framing::{read_raw_frame, write_raw_frame};
use crate::secure::SecureClientSettings;
use mws_crypto::HmacDrbg;
use mws_net::{NetError, Transport};
use mws_obs::sync::lock;
use mws_wire::secure::{Opened, SecureChannel, SecureSession};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timeouts, retry budget and degradation policy for a [`TcpClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Deadline for each request/response exchange (applied as the socket
    /// read and write timeout).
    pub request_timeout: Duration,
    /// Total attempts per round trip (1 = no retry). Only transport
    /// failures (timeout, connect/reset) are retried, on a fresh
    /// connection; protocol and framing errors surface immediately.
    pub attempts: u32,
    /// Minimum backoff before a retry (the decorrelated-jitter floor).
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Wall-clock budget for one round trip across *all* attempts and
    /// backoff sleeps; `None` removes the bound.
    pub deadline: Option<Duration>,
    /// Consecutive transport failures that open the circuit breaker;
    /// 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Initial breaker cooldown; failed half-open probes grow it (with
    /// decorrelated jitter, capped at 64×).
    pub breaker_cooldown: Duration,
    /// Seed for backoff and cooldown jitter — same seed, same schedule.
    pub seed: u64,
    /// `Some` dials the peer over a secure session (DESIGN.md §12): an
    /// IBS-authenticated handshake on every (re)connect, then AES-GCM
    /// records around each frame. `None` speaks plaintext envelopes.
    pub secure: Option<Arc<SecureClientSettings>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(2),
            attempts: 3,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            deadline: Some(Duration::from_secs(10)),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(100),
            seed: 0,
            secure: None,
        }
    }
}

/// Circuit-breaker state (classic three-state machine).
#[derive(Debug)]
enum Breaker {
    /// Normal operation, counting consecutive failures.
    Closed { failures: u32 },
    /// Failing fast until `until`; `cooldown` is the span that was chosen.
    Open { until: Instant, cooldown: Duration },
    /// Cooldown lapsed: one probe in flight decides the next state.
    HalfOpen { cooldown: Duration },
}

/// Seeded retry state shared by all attempts through one client.
struct RetryState {
    breaker: Breaker,
    rng: HmacDrbg,
    last_backoff: Duration,
}

/// One cached connection: the socket plus, in secure mode, the
/// established session keys (fresh handshake per (re)connect).
struct ConnState {
    stream: TcpStream,
    session: Option<SecureSession>,
}

/// A persistent-connection TCP transport to one MWS daemon.
///
/// Note on retries: a timed-out request may have been executed by the
/// server even though no reply arrived. The MWS protocol absorbs this —
/// deposits carry nonces, so a replayed retry is answered idempotently (or
/// with a 409) rather than stored twice.
pub struct TcpClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Mutex<Option<ConnState>>,
    state: Mutex<RetryState>,
}

/// A seeded draw in `[lo, hi]` (nanosecond granularity).
fn jittered(rng: &mut HmacDrbg, lo: Duration, hi: Duration) -> Duration {
    if hi <= lo {
        return lo;
    }
    let span = (hi - lo).as_nanos() as u64;
    let mut b = [0u8; 8];
    rng.generate(&mut b);
    lo + Duration::from_nanos(u64::from_be_bytes(b) % (span + 1))
}

impl TcpClient {
    /// A transport to `addr` with default timeouts.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, ClientConfig::default())
    }

    /// A transport with explicit timeouts/retry budget.
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> Self {
        let rng = HmacDrbg::new(&config.seed.to_be_bytes(), b"mws-tcp-client");
        Self {
            addr,
            config,
            conn: Mutex::new(None),
            state: Mutex::new(RetryState {
                breaker: Breaker::Closed { failures: 0 },
                rng,
                last_backoff: Duration::ZERO,
            }),
        }
    }

    /// Wraps this transport in the stock PDU client.
    pub fn into_client(self) -> mws_net::Client {
        mws_net::Client::from_transport(Arc::new(self))
    }

    /// One exchange on the cached connection (opening it if needed). Any
    /// failure poisons the cached connection so the next attempt redials.
    /// `io_timeout` is this attempt's socket deadline (the per-exchange
    /// timeout already clamped to the remaining request deadline).
    fn attempt(&self, frame: &[u8], io_timeout: Duration) -> Result<Vec<u8>, NetError> {
        let mut guard = lock(&self.conn);
        if guard.is_none() {
            let connect = self.config.connect_timeout.min(io_timeout);
            let mut stream = TcpStream::connect_timeout(&self.addr, connect)
                .map_err(|e| NetError::Io(format!("connect {}: {e}", self.addr)))?;
            let _ = stream.set_nodelay(true);
            // In secure mode every fresh connection pays one handshake,
            // under this attempt's socket deadline.
            let session = match &self.config.secure {
                None => None,
                Some(sec) => {
                    stream
                        .set_read_timeout(Some(io_timeout))
                        .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
                        .map_err(|e| NetError::Io(e.to_string()))?;
                    let (session, _peer) = SecureChannel::connect(
                        &mut stream,
                        &sec.auth,
                        sec.expect_peer.as_deref(),
                        &sec.session,
                    )
                    .map_err(|e| NetError::Io(format!("handshake {}: {e}", self.addr)))?;
                    Some(session)
                }
            };
            *guard = Some(ConnState { stream, session });
        }
        let conn = guard.as_mut().expect("connection just ensured");
        let result = Self::exchange(conn, frame, io_timeout);
        if result.is_err() {
            // Even a timeout leaves the stream desynchronized (the late
            // reply would be mistaken for the next response): drop it.
            *guard = None;
        }
        result
    }

    /// One request/response on an established connection.
    fn exchange(
        conn: &mut ConnState,
        frame: &[u8],
        io_timeout: Duration,
    ) -> Result<Vec<u8>, NetError> {
        let stream = &mut conn.stream;
        stream
            .set_read_timeout(Some(io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
            .map_err(|e| NetError::Io(e.to_string()))?;
        match conn.session.as_mut() {
            None => {
                write_raw_frame(stream, frame).map_err(NetError::from)?;
                read_raw_frame(stream).map_err(NetError::from)
            }
            Some(session) => {
                let io_err = |e: std::io::Error| {
                    if crate::framing::is_timeout(&e) {
                        NetError::Timeout
                    } else {
                        NetError::Io(e.to_string())
                    }
                };
                SecureChannel::write_frame(stream, session, frame).map_err(io_err)?;
                match SecureChannel::read_record(stream, session) {
                    Ok(Opened::Frame(reply)) => Ok(reply),
                    Ok(Opened::Close) => Err(NetError::Io("peer closed the secure session".into())),
                    Err(e) => Err(io_err(e)),
                }
            }
        }
    }

    fn retryable(e: &NetError) -> bool {
        matches!(e, NetError::Timeout | NetError::Io(_))
    }

    /// Gate before an attempt: fail fast while the breaker is open, flip to
    /// half-open once the cooldown has lapsed.
    fn breaker_admit(&self) -> Result<(), NetError> {
        if self.config.breaker_threshold == 0 {
            return Ok(());
        }
        let mut st = lock(&self.state);
        if let Breaker::Open { until, cooldown } = st.breaker {
            if Instant::now() < until {
                return Err(NetError::CircuitOpen);
            }
            st.breaker = Breaker::HalfOpen { cooldown };
            crate::stats::stats().breaker_half_open.inc();
            mws_obs::debug!(target: "mws_server", "breaker half-open, probing",
                peer = self.addr.to_string(),);
        }
        Ok(())
    }

    fn record_success(&self) {
        let mut st = lock(&self.state);
        if !matches!(st.breaker, Breaker::Closed { failures: 0 }) {
            if matches!(st.breaker, Breaker::HalfOpen { .. }) {
                crate::stats::stats().breaker_closed.inc();
                mws_obs::info!(target: "mws_server", "breaker closed, peer recovered",
                    peer = self.addr.to_string(),);
            }
            st.breaker = Breaker::Closed { failures: 0 };
        }
        st.last_backoff = Duration::ZERO;
    }

    fn record_failure(&self) {
        let threshold = self.config.breaker_threshold;
        if threshold == 0 {
            return;
        }
        let mut st = lock(&self.state);
        let base = self.config.breaker_cooldown.max(Duration::from_millis(1));
        let reopen_from = match st.breaker {
            Breaker::Closed { ref mut failures } => {
                *failures += 1;
                if *failures < threshold {
                    return;
                }
                base
            }
            // A failed probe re-opens with a grown cooldown.
            Breaker::HalfOpen { cooldown } => cooldown,
            Breaker::Open { .. } => return,
        };
        let cooldown = jittered(&mut st.rng, base, (reopen_from * 3).min(base * 64));
        st.breaker = Breaker::Open {
            until: Instant::now() + cooldown,
            cooldown,
        };
        crate::stats::stats().breaker_opened.inc();
        mws_obs::warn!(target: "mws_server", "breaker opened, failing fast",
            peer = self.addr.to_string(), cooldown_ms = cooldown.as_millis() as u64,);
    }

    /// The next decorrelated-jitter backoff sleep.
    fn next_backoff(&self) -> Duration {
        let mut st = lock(&self.state);
        let base = self.config.backoff;
        let prev = if st.last_backoff.is_zero() {
            base
        } else {
            st.last_backoff
        };
        let hi = (prev * 3).min(self.config.backoff_cap).max(base);
        let sleep = jittered(&mut st.rng, base, hi);
        st.last_backoff = sleep;
        sleep
    }

    /// Time left before `deadline` (`None` = unbounded).
    fn remaining(deadline: Option<Instant>) -> Option<Duration> {
        deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        // Best-effort authenticated `CLOSE` so the server can tell a
        // clean shutdown from truncation. Broken connections were
        // already dropped without ceremony when they poisoned the cache.
        let mut guard = lock(&self.conn);
        if let Some(conn) = guard.as_mut() {
            if let Some(session) = conn.session.as_mut() {
                let _ = conn
                    .stream
                    .set_write_timeout(Some(Duration::from_millis(100)));
                let _ = SecureChannel::write_close(&mut conn.stream, session);
            }
        }
    }
}

impl Transport for TcpClient {
    fn round_trip(&self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        let attempts = self.config.attempts.max(1);
        let mut last = NetError::Timeout;
        for attempt in 0..attempts {
            self.breaker_admit()?;
            if attempt > 0 {
                crate::stats::stats().client_retries.inc();
                mws_obs::debug!(target: "mws_server", "retrying request",
                    peer = self.addr.to_string(), attempt = attempt,
                    error = last.to_string(),);
                let mut sleep = self.next_backoff();
                if let Some(left) = Self::remaining(deadline) {
                    if left <= sleep {
                        // Sleeping would eat the whole budget: give up with
                        // the failure that got us here.
                        return Err(last);
                    }
                    sleep = sleep.min(left);
                }
                std::thread::sleep(sleep);
            }
            let mut io_timeout = self.config.request_timeout;
            if let Some(left) = Self::remaining(deadline) {
                if left.is_zero() {
                    return Err(last);
                }
                io_timeout = io_timeout.min(left);
            }
            match self.attempt(frame, io_timeout) {
                Ok(reply) => {
                    self.record_success();
                    return Ok(reply);
                }
                Err(e) if Self::retryable(&e) => {
                    self.record_failure();
                    last = e;
                }
                Err(fatal) => return Err(fatal),
            }
        }
        Err(last)
    }

    fn peer(&self) -> String {
        self.addr.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, TcpServer};
    use mws_wire::Pdu;

    fn echo_server() -> TcpServer {
        TcpServer::spawn(ServerConfig::default(), || |req: Pdu| req).unwrap()
    }

    /// Bind-then-drop guarantees a dead port.
    fn dead_addr() -> SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn pdu_roundtrip_and_reuse_of_connection() {
        let server = echo_server();
        let client = TcpClient::new(server.local_addr()).into_client();
        for id in 0..3 {
            let req = Pdu::DepositAck { message_id: id };
            assert_eq!(client.call(&req).unwrap(), req);
        }
        assert_eq!(client.target(), server.local_addr().to_string());
    }

    #[test]
    fn connection_refused_is_retryable_io_error() {
        let client = TcpClient::with_config(
            dead_addr(),
            ClientConfig {
                attempts: 2,
                backoff: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        );
        assert!(matches!(
            client.round_trip(&mws_wire::encode_envelope(&Pdu::ParamsRequest)),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn reconnects_after_server_restart_on_same_port() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let client = TcpClient::with_config(
            addr,
            ClientConfig {
                attempts: 5,
                backoff: Duration::from_millis(10),
                ..ClientConfig::default()
            },
        )
        .into_client();
        assert!(client.call(&Pdu::ParamsRequest).is_ok());
        server.shutdown();
        // Restart a fresh server on the very same port.
        let _server2 =
            TcpServer::spawn(ServerConfig::listen(&addr.to_string()), || |req: Pdu| req).unwrap();
        // The cached connection is dead; retry must redial and succeed.
        assert!(client.call_with_retry(&Pdu::ParamsRequest, 5).is_ok());
    }

    #[test]
    fn request_timeout_surfaces_as_timeout() {
        // A raw listener that accepts but never replies.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (_conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let client = TcpClient::with_config(
            addr,
            ClientConfig {
                request_timeout: Duration::from_millis(50),
                attempts: 1,
                ..ClientConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        let err = client
            .round_trip(&mws_wire::encode_envelope(&Pdu::ParamsRequest))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert!(t0.elapsed() < Duration::from_millis(400), "bounded wait");
        hold.join().unwrap();
    }

    #[test]
    fn deadline_bounds_the_whole_retry_chain() {
        // Unlimited attempts against a dead port, but a short deadline: the
        // call must return within the budget, not after `attempts` retries.
        let client = TcpClient::with_config(
            dead_addr(),
            ClientConfig {
                attempts: 1000,
                backoff: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(10),
                deadline: Some(Duration::from_millis(150)),
                breaker_threshold: 0,
                ..ClientConfig::default()
            },
        );
        let t0 = Instant::now();
        let err = client
            .round_trip(&mws_wire::encode_envelope(&Pdu::ParamsRequest))
            .unwrap_err();
        assert!(TcpClient::retryable(&err), "transport error, got {err:?}");
        assert!(
            t0.elapsed() < Duration::from_millis(600),
            "deadline enforced, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let addr = dead_addr();
        let client = TcpClient::with_config(
            addr,
            ClientConfig {
                attempts: 1,
                backoff: Duration::from_millis(1),
                breaker_threshold: 3,
                breaker_cooldown: Duration::from_millis(40),
                seed: 7,
                ..ClientConfig::default()
            },
        );
        let frame = mws_wire::encode_envelope(&Pdu::ParamsRequest);
        // Three consecutive failures trip the breaker...
        for _ in 0..3 {
            assert!(matches!(
                client.round_trip(&frame),
                Err(NetError::Io(_) | NetError::Timeout)
            ));
        }
        // ...after which calls fail fast without touching the socket.
        let t0 = Instant::now();
        assert!(matches!(
            client.round_trip(&frame),
            Err(NetError::CircuitOpen)
        ));
        assert!(t0.elapsed() < Duration::from_millis(20), "fast fail");
        // A server appears on the port; once the cooldown lapses, the
        // half-open probe succeeds and the breaker closes again.
        let server =
            TcpServer::spawn(ServerConfig::listen(&addr.to_string()), || |req: Pdu| req).unwrap();
        let recovered = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            client.round_trip(&frame).is_ok()
        });
        assert!(recovered, "breaker never recovered");
        // Closed again: the very next call succeeds directly.
        assert!(client.round_trip(&frame).is_ok());
        drop(server);
    }

    #[test]
    fn failed_probe_grows_the_cooldown() {
        let client = TcpClient::with_config(
            dead_addr(),
            ClientConfig {
                attempts: 1,
                backoff: Duration::from_millis(1),
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(10),
                seed: 3,
                ..ClientConfig::default()
            },
        );
        let frame = mws_wire::encode_envelope(&Pdu::ParamsRequest);
        assert!(client.round_trip(&frame).is_err()); // trips immediately
        let mut cooldowns = Vec::new();
        for _ in 0..4 {
            // Wait out the current cooldown, then probe (which fails).
            loop {
                std::thread::sleep(Duration::from_millis(5));
                match client.round_trip(&frame) {
                    Err(NetError::CircuitOpen) => continue,
                    Err(_) => break, // half-open probe went to the socket
                    Ok(_) => unreachable!("dead port cannot answer"),
                }
            }
            let st = lock(&client.state);
            if let Breaker::Open { cooldown, .. } = st.breaker {
                cooldowns.push(cooldown);
            }
        }
        assert!(!cooldowns.is_empty());
        assert!(
            cooldowns.iter().all(|c| *c >= Duration::from_millis(10)),
            "cooldown never below base: {cooldowns:?}"
        );
        assert!(
            cooldowns.last().unwrap() > cooldowns.first().unwrap(),
            "cooldown grew across failed probes: {cooldowns:?}"
        );
    }

    #[test]
    fn jitter_schedule_is_seed_deterministic() {
        let mut a = HmacDrbg::new(&9u64.to_be_bytes(), b"mws-tcp-client");
        let mut b = HmacDrbg::new(&9u64.to_be_bytes(), b"mws-tcp-client");
        let lo = Duration::from_millis(10);
        let hi = Duration::from_millis(100);
        for _ in 0..32 {
            let x = jittered(&mut a, lo, hi);
            assert_eq!(x, jittered(&mut b, lo, hi));
            assert!(x >= lo && x <= hi);
        }
    }
}
