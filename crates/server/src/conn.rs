//! One connection's protocol state machine, sans-io — DESIGN.md §11.
//!
//! [`Conn`] owns everything a server connection means above the socket:
//! the byte stream (a [`Link`]: envelope framing, or the secure handshake
//! and record layer), decode-ahead, reply order, the deadlines and the
//! server's connection counters. It owns no socket and starts no thread; a
//! driver feeds it the bytes it read ([`Conn::feed`], [`Conn::on_eof`]),
//! runs the requests it hands out ([`Conn::next_job`] →
//! [`Conn::complete`]), writes [`Conn::output`] and reports how much went
//! out ([`Conn::consume`]), and closes once [`Conn::should_close`] says
//! so. The epoll loop ([`crate::event`]) and the blocking driver
//! ([`crate::blocking`]) are the two drivers.
//!
//! The invariants live here once, for both:
//!
//! * **FIFO replies.** At most one request is out at a time; decoded
//!   requests queue in arrival order, so reply order is request order.
//! * **Bounded pipeline.** At most `pipeline_depth` requests are
//!   decoded-but-unanswered; past that [`Conn::wants_read`] turns false and
//!   the driver stops reading, so TCP backpressure reaches the client.
//! * **Desync closes.** Every request decoded before a framing error is
//!   answered, then a `400` error frame goes out, then the connection
//!   closes.
//! * **Secure listeners.** A connection is born HANDSHAKING; no request
//!   decodes before the handshake proves the peer, a plaintext peer gets a
//!   plain `426`, and an open session ends with an authenticated CLOSE.

use crate::link::{Inbound, Link, LinkError};
use crate::server::ServerConfig;
use crate::stats::stats;
use mws_obs::trace::TraceContext;
use mws_wire::secure::SecureError;
use mws_wire::{decode_envelope_traced, encode_frame, Pdu};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A request, or a reply, with the trace context its envelope carries.
pub(crate) type Traced = (Pdu, Option<TraceContext>);

/// One connection's state machine.
pub(crate) struct Conn {
    link: Link,
    /// When the connection was accepted: the start of its handshake.
    born: Instant,
    /// How long a secure handshake may run; `None` on plaintext.
    handshake_timeout: Option<Duration>,
    /// Decoded requests not yet handed out, in arrival order.
    pending: VecDeque<Traced>,
    /// A request is out; its [`Conn::complete`] lets the next one go.
    busy: bool,
    /// Bytes for the driver to write, in order. Replies are encoded (and
    /// sealed) straight into it, and its capacity lasts across requests.
    out: Vec<u8>,
    depth: usize,
    idle_timeout: Option<Duration>,
    last_activity: Instant,
    /// EOF, read error or the peer's CLOSE: no further bytes count.
    read_done: bool,
    /// Framing error detail, answered with a 400 once `pending` drains.
    desync: Option<String>,
    /// Close as soon as `out` drains.
    closing: bool,
    /// A deadline passed: close now.
    expired: bool,
}

impl Conn {
    /// A fresh connection under `cfg`'s pipeline depth, idle timeout and
    /// (when set) secure settings.
    pub(crate) fn new(cfg: &ServerConfig) -> Self {
        let link = match cfg.secure.as_deref() {
            None => Link::plain(),
            Some(sec) => Link::server(sec.auth.clone(), sec.session.clone()),
        };
        stats().connections.inc();
        let now = Instant::now();
        Self {
            link,
            born: now,
            handshake_timeout: cfg.secure.as_ref().map(|sec| sec.handshake_timeout),
            pending: VecDeque::new(),
            busy: false,
            out: Vec::new(),
            depth: cfg.pipeline_depth.max(1),
            idle_timeout: cfg.idle_timeout,
            last_activity: now,
            read_done: false,
            desync: None,
            closing: false,
            expired: false,
        }
    }

    /// Takes bytes read from the peer, split anywhere, and decodes ahead.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.read_done || self.closing {
            return;
        }
        self.last_activity = Instant::now();
        match self.link.feed(bytes, &mut self.out) {
            Ok(None) => {}
            Ok(Some(peer)) => {
                stats().secure_handshakes.inc();
                stats().handshake_us.record_duration(self.born.elapsed());
                mws_obs::debug!(target: "mws_server", "secure session established",
                    peer_identity = peer,);
            }
            Err(e) => {
                stats().secure_handshake_failures.inc();
                self.out.clear();
                if matches!(e, LinkError::Secure(SecureError::PlaintextPeer(_))) {
                    // A plaintext client dialed a secure listener: answer
                    // in its own protocol so the operator sees the
                    // misconfiguration.
                    stats().secure_downgrades.inc();
                    let refusal = Pdu::Error {
                        code: 426,
                        detail: "secure transport required (--transport secure)".into(),
                    };
                    encode_frame(&refusal, None, &mut self.out);
                }
                mws_obs::warn!(target: "mws_server", "secure handshake failed",
                    error = e.to_string(),);
                self.read_done = true;
                self.closing = true;
            }
        }
        self.advance();
    }

    /// The peer will send nothing more (EOF or a read error): answer what
    /// was decoded, then close.
    pub(crate) fn on_eof(&mut self) {
        self.read_done = true;
    }

    /// The next request to run, unless one is already out.
    pub(crate) fn next_job(&mut self) -> Option<Traced> {
        if self.busy || self.closing {
            return None;
        }
        let request = self.pending.pop_front()?;
        self.busy = true;
        stats().requests.inc();
        // How far decode ran ahead of the handler.
        stats().pipeline_depth.record(self.pending.len() as u64);
        Some(request)
    }

    /// The reply to the request [`Conn::next_job`] handed out, with the
    /// context its frame carries.
    pub(crate) fn complete(&mut self, (reply, trace): Traced) {
        self.busy = false;
        self.push_reply(&reply, trace);
        self.advance();
    }

    /// Bytes waiting to be written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.out
    }

    /// The driver wrote the first `n` bytes of [`Conn::output`].
    pub(crate) fn consume(&mut self, n: usize) {
        if n > 0 {
            self.out.drain(..n);
            self.last_activity = Instant::now();
        }
    }

    /// Whether the driver should read from the peer now.
    pub(crate) fn wants_read(&self) -> bool {
        !self.read_done && !self.closing && self.desync.is_none() && self.in_pipeline() < self.depth
    }

    /// Whether the driver should close the connection now.
    pub(crate) fn should_close(&self) -> bool {
        self.expired
            || (self.closing && self.out.is_empty())
            || (self.read_done && self.quiescent())
    }

    /// Applies the deadlines at `now`: the handshake timeout while
    /// HANDSHAKING, the idle timeout once nothing is in flight.
    pub(crate) fn on_tick(&mut self, now: Instant) {
        let (from, limit, counter) = if matches!(self.link, Link::Handshaking(_)) {
            // A connection stuck mid-handshake goes on its own (shorter)
            // deadline, so a slowloris peer cannot park in HANDSHAKING.
            (
                self.born,
                self.handshake_timeout,
                &stats().secure_handshake_failures,
            )
        } else if self.quiescent() {
            // Only truly quiet connections reap: in-flight work or
            // unwritten replies both count as activity.
            (self.last_activity, self.idle_timeout, &stats().idle_reaped)
        } else {
            return;
        };
        if !self.expired && limit.is_some_and(|t| now.duration_since(from) >= t) {
            counter.inc();
            self.expired = true;
        }
    }

    /// See [`Link::close_record`].
    pub(crate) fn close_record(&mut self) -> Option<Vec<u8>> {
        self.link.close_record()
    }

    fn in_pipeline(&self) -> usize {
        self.busy as usize + self.pending.len()
    }

    fn quiescent(&self) -> bool {
        !self.busy && self.pending.is_empty() && self.out.is_empty()
    }

    /// Decodes ahead up to the pipeline bound, so `pending` always holds
    /// every buffered request that fits; once a desync's queue has
    /// drained, queues its 400.
    fn advance(&mut self) {
        if self.closing {
            return;
        }
        while self.desync.is_none() && self.in_pipeline() < self.depth {
            match self.decode() {
                Ok(Some(request)) => self.pending.push_back(request),
                Ok(None) => break,
                Err(e) => self.desync = Some(e),
            }
        }
        if self.busy || !self.pending.is_empty() {
            return;
        }
        if let Some(detail) = self.desync.take() {
            stats().wire_errors.inc();
            mws_obs::warn!(target: "mws_server", "stream desynchronized, dropping connection",
                error = detail.clone(),);
            self.push_reply(&Pdu::Error { code: 400, detail }, None);
            self.closing = true;
        }
    }

    /// The next complete request, if one is buffered. `Err` is a desync:
    /// the stream (or record sequence) can no longer be trusted.
    fn decode(&mut self) -> Result<Option<Traced>, String> {
        match self.link.next_frame().map_err(|e| e.to_string())? {
            None => Ok(None),
            // A plaintext frame decodes where it lies in the read buffer;
            // a record carries exactly one envelope frame.
            Some(Inbound::Frame(frame)) => match decode_envelope_traced(&frame) {
                Ok((pdu, consumed, trace)) if consumed == frame.len() => Ok(Some((pdu, trace))),
                Ok(_) => Err("trailing bytes in record".into()),
                Err(e) => Err(e.to_string()),
            },
            // Authenticated session close: the same drain-then-close as EOF.
            Some(Inbound::Close) => {
                self.read_done = true;
                Ok(None)
            }
        }
    }

    /// Encodes one reply frame onto the output, sealed on a secure
    /// connection. A seal failure is unrecoverable for the session: drop
    /// the reply and close.
    fn push_reply(&mut self, reply: &Pdu, trace: Option<TraceContext>) {
        let sent = self
            .link
            .send(&mut self.out, |out| encode_frame(reply, trace, out));
        self.closing |= sent.is_err();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::SecureSettings;
    use mws_wire::secure::{Opened, PskAuth, SessionConfig};
    use mws_wire::{decode_envelope, encode_envelope};
    use std::sync::Arc;

    const PSK: &[u8] = b"conn-test-psk";

    fn plain(depth: usize) -> Conn {
        Conn::new(&ServerConfig {
            pipeline_depth: depth,
            ..ServerConfig::default()
        })
    }

    fn secure(handshake_timeout: Duration) -> Conn {
        Conn::new(&ServerConfig {
            secure: Some(Arc::new(SecureSettings {
                auth: Arc::new(PskAuth::new(PSK, "server", 2)),
                session: SessionConfig::default(),
                handshake_timeout,
            })),
            ..ServerConfig::default()
        })
    }

    fn req(id: u64) -> Pdu {
        Pdu::DepositAck { message_id: id }
    }

    fn wire_of(ids: std::ops::Range<u64>) -> Vec<u8> {
        ids.flat_map(|id| encode_envelope(&req(id))).collect()
    }

    /// Everything the connection wants written, marked written.
    fn drain(conn: &mut Conn) -> Vec<u8> {
        let out = conn.output().to_vec();
        conn.consume(out.len());
        out
    }

    /// Every envelope frame in `bytes`, decoded.
    fn frames(mut bytes: &[u8]) -> Vec<Pdu> {
        let mut pdus = Vec::new();
        while !bytes.is_empty() {
            let (pdu, n) = decode_envelope(bytes).unwrap();
            pdus.push(pdu);
            bytes = &bytes[n..];
        }
        pdus
    }

    /// Echoes every request the connection hands out until it has none.
    fn serve_all(conn: &mut Conn) -> Vec<Pdu> {
        let mut served = Vec::new();
        while let Some((pdu, _)) = conn.next_job() {
            conn.complete((pdu.clone(), None));
            served.push(pdu);
        }
        served
    }

    /// A client link handshaking with `conn` up to its FINISH, which comes
    /// back unsent.
    fn client_until_finish(conn: &mut Conn) -> (Vec<u8>, Link) {
        let (auth, session) = (PskAuth::new(PSK, "client", 1), SessionConfig::default());
        let mut hello = Vec::new();
        let mut client = Link::client(Arc::new(auth), Some("server".into()), session, &mut hello);
        conn.feed(&hello);
        let mut finish = Vec::new();
        let accepted = client.feed(&drain(conn), &mut finish).unwrap();
        assert!(accepted.is_some(), "ACCEPT completes");
        (finish, client)
    }

    /// An established secure connection and the client's end of it.
    fn open_session() -> (Conn, Link) {
        let mut conn = secure(Duration::from_secs(5));
        let (finish, client) = client_until_finish(&mut conn);
        conn.feed(&finish);
        (conn, client)
    }

    /// Every record in `bytes`, opened on the client's end.
    fn open_all(client: &mut Link, bytes: &[u8]) -> Vec<Opened> {
        client.feed(bytes, &mut Vec::new()).unwrap();
        std::iter::from_fn(|| match client.next_frame().unwrap()? {
            Inbound::Frame(frame) => Some(Opened::Frame(frame.into_owned())),
            Inbound::Close => Some(Opened::Close),
        })
        .collect()
    }

    #[test]
    fn byte_at_a_time_feed_replies_in_request_order() {
        let mut conn = plain(32);
        let mut served = Vec::new();
        for b in wire_of(0..3) {
            conn.feed(&[b]);
            served.extend(serve_all(&mut conn));
        }
        let want: Vec<Pdu> = (0..3).map(req).collect();
        assert_eq!(served, want);
        assert_eq!(frames(&drain(&mut conn)), want);
        conn.on_eof();
        assert!(conn.should_close());
    }

    #[test]
    fn decode_stops_and_reads_stop_at_the_pipeline_depth() {
        let mut conn = plain(2);
        conn.feed(&wire_of(0..5));
        assert_eq!(conn.in_pipeline(), 2, "decode stopped at the bound");
        assert!(!conn.wants_read());
        let (first, _) = conn.next_job().unwrap();
        assert!(conn.next_job().is_none(), "one request out at a time");
        conn.complete((first.clone(), None));
        assert_eq!(conn.in_pipeline(), 2, "decode refilled from the buffer");
        assert!(!conn.wants_read());
        let mut served = vec![first];
        served.extend(serve_all(&mut conn));
        let want: Vec<Pdu> = (0..5).map(req).collect();
        assert_eq!(served, want);
        assert_eq!(frames(&drain(&mut conn)), want);
    }

    #[test]
    fn good_frames_then_garbage_get_their_replies_then_one_400() {
        let mut conn = plain(32);
        let mut wire = wire_of(0..3);
        wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        conn.feed(&wire);
        assert_eq!(serve_all(&mut conn).len(), 3);
        assert!(!conn.wants_read());
        assert!(!conn.should_close(), "replies not written yet");
        let replies = frames(&drain(&mut conn));
        assert_eq!(replies[..3], (0..3).map(req).collect::<Vec<_>>()[..]);
        assert!(matches!(replies[3..], [Pdu::Error { code: 400, .. }]));
        assert!(conn.should_close());
    }

    #[test]
    fn plaintext_peer_on_a_secure_conn_gets_a_plain_426() {
        let mut conn = secure(Duration::from_secs(5));
        conn.feed(&encode_envelope(&Pdu::ParamsRequest));
        assert!(conn.next_job().is_none());
        assert!(!conn.wants_read());
        assert!(matches!(
            frames(&drain(&mut conn))[..],
            [Pdu::Error { code: 426, .. }]
        ));
        assert!(conn.should_close());
        assert!(conn.close_record().is_none(), "no session to close");
    }

    #[test]
    fn finish_and_first_request_in_one_read() {
        let mut conn = secure(Duration::from_secs(5));
        let (mut chunk, mut client) = client_until_finish(&mut conn);
        client
            .send(&mut chunk, |out| encode_frame(&req(1), None, out))
            .unwrap();
        conn.feed(&chunk);
        assert_eq!(serve_all(&mut conn), vec![req(1)]);
        let out = drain(&mut conn);
        assert_eq!(
            open_all(&mut client, &out),
            vec![Opened::Frame(encode_envelope(&req(1)))]
        );
    }

    #[test]
    fn authenticated_close_drains_then_closes() {
        let (mut conn, mut client) = open_session();
        let mut wire = Vec::new();
        for id in 0..3 {
            client
                .send(&mut wire, |out| encode_frame(&req(id), None, out))
                .unwrap();
        }
        wire.extend(client.close_record().unwrap());
        conn.feed(&wire);
        let (first, _) = conn.next_job().unwrap();
        assert!(!conn.wants_read(), "nothing counts after CLOSE");
        assert!(!conn.should_close(), "requests still owed");
        conn.complete((first, None));
        assert_eq!(serve_all(&mut conn), vec![req(1), req(2)]);
        assert!(!conn.should_close(), "replies not written yet");
        let mut out = drain(&mut conn);
        assert!(conn.should_close());
        out.extend(
            conn.close_record()
                .expect("an open session ends with CLOSE"),
        );
        let mut want: Vec<Opened> = (0..3)
            .map(|id| Opened::Frame(encode_envelope(&req(id))))
            .collect();
        want.push(Opened::Close);
        assert_eq!(open_all(&mut client, &out), want);
    }

    #[test]
    fn seal_failure_drops_the_reply_and_closes() {
        let (mut conn, mut client) = open_session();
        let mut wire = Vec::new();
        client
            .send(&mut wire, |out| encode_frame(&req(1), None, out))
            .unwrap();
        conn.feed(&wire);
        let (pdu, _) = conn.next_job().unwrap();
        // The send half is shut, so the reply cannot seal.
        conn.close_record().unwrap();
        conn.complete((pdu, None));
        assert!(conn.output().is_empty(), "nothing leaks unsealed");
        assert!(conn.should_close());
    }

    #[test]
    fn handshake_deadline_expires_on_tick() {
        let mut conn = secure(Duration::from_secs(5));
        let start = Instant::now();
        conn.on_tick(start + Duration::from_secs(4));
        assert!(!conn.should_close());
        conn.on_tick(start + Duration::from_secs(6));
        assert!(conn.should_close());
    }

    #[test]
    fn idle_deadline_spares_in_flight_work_and_unwritten_replies() {
        let mut conn = Conn::new(&ServerConfig {
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        });
        let later = || Instant::now() + Duration::from_secs(60);
        conn.feed(&encode_envelope(&req(1)));
        let (pdu, _) = conn.next_job().unwrap();
        conn.on_tick(later());
        assert!(!conn.should_close(), "a request is out");
        conn.complete((pdu, None));
        conn.on_tick(later());
        assert!(!conn.should_close(), "a reply is unwritten");
        drain(&mut conn);
        conn.on_tick(Instant::now() + Duration::from_secs(5));
        assert!(!conn.should_close());
        conn.on_tick(later());
        assert!(conn.should_close());
    }

    /// Any chunking of the wire, any depth, with or without a garbage
    /// tail: replies come back as the requests in order, at most one 400
    /// follows them, and decode never runs past the depth.
    #[test]
    fn any_chunking_and_depth_keeps_the_pipeline_contract() {
        mws_prop::cases(256, |g| {
            (
                g.size(0..12),
                g.size(1..9),
                g.vec(1..16, |g| g.size(1..64)),
                g.size(1..4),
                g.bool(),
            )
        })
        .check(|(n, depth, chunks, lag, garbage)| {
            let mut wire = wire_of(0..n as u64);
            if garbage {
                wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
            }
            let mut conn = plain(depth);
            let (mut fed, mut chunk, mut step) = (0, 0, 0);
            let mut out_for: Option<Pdu> = None;
            let mut replies = Vec::new();
            while !conn.should_close() {
                step += 1;
                assert!(step < 10_000, "stuck");
                if conn.wants_read() {
                    if fed < wire.len() {
                        let k = chunks[chunk % chunks.len()].min(wire.len() - fed);
                        conn.feed(&wire[fed..fed + k]);
                        fed += k;
                        chunk += 1;
                    } else {
                        conn.on_eof();
                    }
                }
                if let Some((pdu, _)) = conn.next_job() {
                    assert!(out_for.replace(pdu).is_none(), "two requests out");
                }
                assert!(conn.in_pipeline() <= depth);
                // The worker answers every `lag` steps.
                if step % lag == 0 {
                    if let Some(pdu) = out_for.take() {
                        conn.complete((pdu, None));
                    }
                }
                replies.extend(frames(&drain(&mut conn)));
            }
            let want: Vec<Pdu> = (0..n as u64).map(req).collect();
            assert_eq!(replies[..n], want[..]);
            match replies[n..] {
                [] => assert!(!garbage),
                [Pdu::Error { code: 400, .. }] => assert!(garbage),
                ref rest => panic!("after the replies: {rest:?}"),
            }
        });
    }
}
