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

use crate::blocking::is_timeout;
use crate::link::{Inbound, Link};
use crate::secure::SecureClientSettings;
use mws_crypto::HmacDrbg;
use mws_net::{NetError, Transport};
use mws_obs::sync::lock;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bytes per read: enough that one read takes in an ordinary reply whole.
const READ_CHUNK: usize = 16 * 1024;

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

/// One cached connection: the socket and the [`Link`] it speaks, keyed by
/// a fresh handshake on every (re)connect in secure mode.
struct ConnState {
    stream: TcpStream,
    link: Link,
    /// Bytes for the socket, written before each read.
    out: Vec<u8>,
    read_buf: Box<[u8]>,
    /// The read and write timeout the socket carries, once set.
    timeout: Option<Duration>,
}

impl ConnState {
    /// Dials the client's peer and, in secure mode, runs the handshake
    /// under `io_timeout`. The handshake's last record (FINISH) stays
    /// queued and goes out with the first request.
    fn open(client: &TcpClient, io_timeout: Duration) -> Result<Self, NetError> {
        let (addr, config) = (client.addr, &client.config);
        let connect = config.connect_timeout.min(io_timeout);
        let stream = TcpStream::connect_timeout(&addr, connect)
            .map_err(|e| NetError::Io(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let mut out = Vec::new();
        let link = match &config.secure {
            None => Link::plain(),
            Some(sec) => Link::client(
                sec.auth.clone(),
                sec.expect_peer.clone(),
                sec.session.clone(),
                &mut out,
            ),
        };
        let mut conn = Self {
            stream,
            link,
            out,
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            timeout: None,
        };
        conn.set_io_timeout(io_timeout)?;
        while matches!(conn.link, Link::Handshaking(_)) {
            conn.flush()
                .and_then(|()| conn.fill())
                .map_err(|e| NetError::Io(format!("handshake {addr}: {e}")))?;
        }
        Ok(conn)
    }

    /// One request/response: one write, then reads until the reply frame
    /// completes — one read, unless the reply outgrows it or arrives split.
    fn exchange(&mut self, frame: &[u8], io_timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.set_io_timeout(io_timeout)?;
        self.link
            .send(&mut self.out, |out| out.extend_from_slice(frame))?;
        self.flush()?;
        loop {
            match self.link.next_frame()? {
                Some(Inbound::Frame(reply)) => return Ok(reply.into_owned()),
                Some(Inbound::Close) => {
                    return Err(NetError::Io("peer closed the secure session".into()))
                }
                None => self.fill()?,
            }
        }
    }

    /// Sets the socket's read and write timeouts to `t`: two `setsockopt`
    /// calls, skipped when the socket already carries `t` (every exchange
    /// of a client whose deadline outlasts its request timeout).
    fn set_io_timeout(&mut self, t: Duration) -> Result<(), NetError> {
        if self.timeout == Some(t) {
            return Ok(());
        }
        self.stream
            .set_read_timeout(Some(t))
            .and_then(|()| self.stream.set_write_timeout(Some(t)))
            .map_err(|e| NetError::Io(e.to_string()))?;
        self.timeout = Some(t);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), NetError> {
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written.map_err(io_error)
    }

    /// One read, fed to the link. End of stream is an error: a reply (or
    /// a handshake record) is always owed when this runs.
    fn fill(&mut self) -> Result<(), NetError> {
        let n = loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(NetError::Io("connection closed by peer".into())),
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(e)),
            }
        };
        self.link.feed(&self.read_buf[..n], &mut self.out)?;
        Ok(())
    }
}

fn io_error(e: std::io::Error) -> NetError {
    if is_timeout(&e) {
        NetError::Timeout
    } else {
        NetError::Io(e.to_string())
    }
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
            *guard = Some(ConnState::open(self, io_timeout)?);
        }
        let conn = guard.as_mut().expect("connection just ensured");
        let result = conn.exchange(frame, io_timeout);
        // Even a timeout leaves the stream desynchronized (the late reply
        // would be mistaken for the next response), and so do bytes that
        // arrived behind the reply: drop it.
        if result.is_err() || conn.link.buffered() > 0 {
            *guard = None;
        }
        result
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
        if let Some(conn) = lock(&self.conn).as_mut() {
            if let Some(close) = conn.link.close_record() {
                let _ = conn
                    .stream
                    .set_write_timeout(Some(Duration::from_millis(100)));
                let _ = conn.stream.write_all(&close);
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
    use mws_wire::secure::{PskAuth, SessionConfig};
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

    /// A raw socket peer serving `conns` connections in turn: each speaks
    /// `link()` and echoes every request frame, writing the reply one byte
    /// at a time and `stray` together with its last byte.
    fn trickling_echo(conns: usize, link: fn() -> Link, stray: &'static [u8]) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for mut s in listener.incoming().take(conns).map(Result::unwrap) {
                s.set_nodelay(true).unwrap();
                let (mut link, mut buf, mut out) = (link(), [0u8; 512], Vec::new());
                while let Ok(n @ 1..) = s.read(&mut buf) {
                    link.feed(&buf[..n], &mut out).unwrap();
                    let mut tail: &[u8] = &[];
                    while let Some(Inbound::Frame(frame)) = link.next_frame().unwrap() {
                        let frame = frame.into_owned();
                        link.send(&mut out, |out| out.extend_from_slice(&frame))
                            .unwrap();
                        tail = stray;
                    }
                    if let Some((&last, head)) = out.split_last() {
                        head.iter().for_each(|b| s.write_all(&[*b]).unwrap());
                        s.write_all(&[&[last], tail].concat()).unwrap();
                    }
                    out.clear();
                }
            }
        });
        addr
    }

    #[test]
    fn replies_trickling_in_byte_by_byte_round_trip_plain_and_sealed() {
        const PSK: &[u8] = b"client-test-psk";
        let sealed = ClientConfig {
            secure: Some(Arc::new(SecureClientSettings {
                auth: Arc::new(PskAuth::new(PSK, "client", 1)),
                expect_peer: Some("server".into()),
                session: SessionConfig::default(),
            })),
            ..ClientConfig::default()
        };
        let server = || {
            Link::server(
                Arc::new(PskAuth::new(PSK, "server", 2)),
                SessionConfig::default(),
            )
        };
        for (link, config) in [
            (Link::plain as fn() -> Link, ClientConfig::default()),
            (server, sealed),
        ] {
            let client = TcpClient::with_config(trickling_echo(1, link, b""), config).into_client();
            for id in 0..3 {
                let req = Pdu::DepositAck { message_id: id };
                assert_eq!(client.call(&req).unwrap(), req);
            }
        }
    }

    #[test]
    fn bytes_behind_a_reply_drop_the_connection_and_the_next_call_redials() {
        let client = TcpClient::new(trickling_echo(2, Link::plain, &[0xde, 0xad])).into_client();
        for id in 0..2 {
            let req = Pdu::DepositAck { message_id: id };
            assert_eq!(client.call(&req).unwrap(), req, "call {id}");
        }
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
        // The cached connection is dead; the client's attempts redial and
        // succeed.
        assert!(client.call(&Pdu::ParamsRequest).is_ok());
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

    /// The socket timeout is re-applied only when it changes. With a
    /// deadline shorter than the request timeout, each exchange's timeout
    /// is what is left of the deadline — a little different on every call —
    /// and an exchange on a connection an earlier one set up must still
    /// give up on a silent server within what is left.
    #[test]
    fn a_nearly_spent_deadline_still_bounds_a_silent_exchange() {
        // Answers the first request on its one connection, then holds the
        // connection open and silent.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (mut link, mut buf, mut out) = (Link::plain(), [0u8; 512], Vec::new());
            while out.is_empty() {
                let n = s.read(&mut buf).unwrap();
                link.feed(&buf[..n], &mut out).unwrap();
                let frame = match link.next_frame().unwrap() {
                    Some(Inbound::Frame(frame)) => frame.into_owned(),
                    _ => continue,
                };
                link.send(&mut out, |out| out.extend_from_slice(&frame))
                    .unwrap();
            }
            s.write_all(&out).unwrap();
            std::thread::sleep(Duration::from_millis(1500));
        });
        let client = TcpClient::with_config(
            addr,
            ClientConfig {
                request_timeout: Duration::from_secs(5),
                deadline: Some(Duration::from_millis(300)),
                attempts: 1,
                ..ClientConfig::default()
            },
        );
        let frame = mws_wire::encode_envelope(&Pdu::ParamsRequest);
        assert_eq!(client.round_trip(&frame).unwrap(), frame);
        let t0 = Instant::now();
        assert_eq!(client.round_trip(&frame).unwrap_err(), NetError::Timeout);
        let took = t0.elapsed();
        assert!(
            took >= Duration::from_millis(250) && took < Duration::from_millis(1000),
            "the silent exchange gave up after {took:?}, not at the 300 ms deadline"
        );
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
