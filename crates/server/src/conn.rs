//! One connection's protocol state machine, sans-io — DESIGN.md §11.
//!
//! [`Conn`] owns everything a connection means above the socket: envelope
//! framing, the secure handshake and record layer, decode-ahead, reply
//! order, and the deadlines. It owns no socket and starts no thread; a
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

use crate::secure::SecureSettings;
use crate::server::ServerConfig;
use crate::stats::stats;
use mws_obs::trace::TraceContext;
use mws_wire::secure::{Handshaker, Opened, RecordDecoder, RecvHalf, SecureError, SendHalf};
use mws_wire::{decode_envelope_traced, encode_envelope, Pdu, StreamDecoder};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A decoded request plus the trace context from its envelope.
pub(crate) type Request = (Pdu, Option<TraceContext>);

/// How the connection's bytes are framed.
// `Sealed` is the steady state touched on every record, so its halves stay
// inline; only the transient handshake driver is boxed.
#[allow(clippy::large_enum_variant)]
enum Wire {
    /// Plaintext envelopes, back to back.
    Plain(StreamDecoder),
    /// Secure listener, handshake in progress. Boxed: the driver's
    /// transcript state would otherwise bloat every established
    /// connection.
    Handshaking {
        hs: Box<Handshaker>,
        since: Instant,
        timeout: Duration,
    },
    /// Keys established: inbound bytes split into records that open
    /// through `recv`; replies seal through `send`.
    Sealed {
        send: SendHalf,
        recv: RecvHalf,
        records: RecordDecoder,
    },
}

/// One connection's state machine.
pub(crate) struct Conn {
    wire: Wire,
    /// Decoded requests not yet handed out, in arrival order.
    pending: VecDeque<Request>,
    /// A request is out; its [`Conn::complete`] lets the next one go.
    busy: bool,
    /// Bytes for the driver to write, in order.
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
        let now = Instant::now();
        let wire = match cfg.secure.as_deref() {
            None => Wire::Plain(StreamDecoder::new()),
            // The server speaks second, so there is no output yet.
            Some(SecureSettings {
                auth,
                session,
                handshake_timeout,
            }) => Wire::Handshaking {
                hs: Box::new(Handshaker::server(auth.clone(), session.clone())),
                since: now,
                timeout: *handshake_timeout,
            },
        };
        stats().connections.inc();
        Self {
            wire,
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
        match &mut self.wire {
            Wire::Plain(decoder) => decoder.feed(bytes),
            Wire::Sealed { records, .. } => records.feed(bytes),
            Wire::Handshaking { hs, since, .. } => {
                let fed = hs.feed(bytes);
                let out = hs.take_output();
                let since = *since;
                self.push_out(out);
                match fed {
                    Ok(None) => {}
                    Ok(Some(est)) => {
                        stats().secure_handshakes.inc();
                        stats().handshake_us.record_duration(since.elapsed());
                        mws_obs::debug!(target: "mws_server", "secure session established",
                            peer_identity = est.peer.clone(),);
                        // A FINISH and the first request may share a read:
                        // whatever followed the handshake is already records.
                        let (send, recv) = est.session.into_halves();
                        let mut records = RecordDecoder::new();
                        records.feed(&est.leftover);
                        self.wire = Wire::Sealed {
                            send,
                            recv,
                            records,
                        };
                    }
                    Err(e) => {
                        stats().secure_handshake_failures.inc();
                        self.out.clear();
                        if matches!(e, SecureError::PlaintextPeer(_)) {
                            // A plaintext client dialed a secure listener:
                            // answer in its own protocol so the operator
                            // sees the misconfiguration.
                            stats().secure_downgrades.inc();
                            self.out = encode_envelope(&Pdu::Error {
                                code: 426,
                                detail: "secure transport required (--transport secure)".into(),
                            });
                        }
                        mws_obs::warn!(target: "mws_server", "secure handshake failed",
                            error = e.to_string(),);
                        self.read_done = true;
                        self.closing = true;
                    }
                }
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
    pub(crate) fn next_job(&mut self) -> Option<Request> {
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

    /// The encoded reply to the request [`Conn::next_job`] handed out.
    pub(crate) fn complete(&mut self, frame: Vec<u8>) {
        self.busy = false;
        self.push_reply(frame);
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
        let (from, limit, counter) = match &self.wire {
            // A connection stuck mid-handshake goes on its own (shorter)
            // deadline, so a slowloris peer cannot park in HANDSHAKING.
            Wire::Handshaking { since, timeout, .. } => {
                (*since, Some(*timeout), &stats().secure_handshake_failures)
            }
            // Only truly quiet connections reap: in-flight work or
            // unwritten replies both count as activity.
            _ if self.quiescent() => (self.last_activity, self.idle_timeout, &stats().idle_reaped),
            _ => return,
        };
        if !self.expired && limit.is_some_and(|t| now.duration_since(from) >= t) {
            counter.inc();
            self.expired = true;
        }
    }

    /// The authenticated CLOSE record that ends an open session, for a
    /// best-effort write just before the socket closes: the peer can then
    /// tell shutdown from truncation. `None` on plaintext or before keys.
    pub(crate) fn close_record(&mut self) -> Option<Vec<u8>> {
        match &mut self.wire {
            Wire::Sealed { send, .. } => send.seal_close().ok(),
            _ => None,
        }
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
            self.push_reply(encode_envelope(&Pdu::Error { code: 400, detail }));
            self.closing = true;
        }
    }

    /// The next complete request, if one is buffered. `Err` is a desync:
    /// the stream (or record sequence) can no longer be trusted.
    fn decode(&mut self) -> Result<Option<Request>, String> {
        let (recv, records) = match &mut self.wire {
            Wire::Plain(decoder) => return decoder.next_traced().map_err(|e| e.to_string()),
            Wire::Handshaking { .. } => return Ok(None),
            Wire::Sealed { recv, records, .. } => (recv, records),
        };
        let Some((rtype, payload)) = records.next_record().map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        // One record carries exactly one envelope frame.
        match recv
            .open_record(rtype, payload)
            .map_err(|e| e.to_string())?
        {
            Opened::Frame(frame) => match decode_envelope_traced(&frame) {
                Ok((pdu, consumed, trace)) if consumed == frame.len() => Ok(Some((pdu, trace))),
                Ok(_) => Err("trailing bytes in record".into()),
                Err(e) => Err(e.to_string()),
            },
            // Authenticated session close: the same drain-then-close as EOF.
            Opened::Close => {
                self.read_done = true;
                Ok(None)
            }
        }
    }

    /// Queues one reply frame, sealed on a secure connection. A seal
    /// failure is unrecoverable for the session: drop the reply and close.
    fn push_reply(&mut self, frame: Vec<u8>) {
        let bytes = match &mut self.wire {
            Wire::Plain(_) => Ok(frame),
            Wire::Sealed { send, .. } => send.seal_frame(&frame),
            // Unreachable (no request decodes before keys), but closing
            // beats leaking plaintext if it ever were.
            Wire::Handshaking { .. } => Err(SecureError::Closed),
        };
        match bytes {
            Ok(bytes) => self.push_out(bytes),
            Err(_) => self.closing = true,
        }
    }

    fn push_out(&mut self, bytes: Vec<u8>) {
        if self.out.is_empty() {
            self.out = bytes;
        } else {
            self.out.extend_from_slice(&bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_wire::decode_envelope;
    use mws_wire::secure::{ChannelAuth, Established, PskAuth, SessionConfig};
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
            conn.complete(encode_envelope(&pdu));
            served.push(pdu);
        }
        served
    }

    /// Drives a client handshake against `conn` up to the client's FINISH,
    /// which comes back unsent together with the client's session.
    fn client_until_finish(conn: &mut Conn) -> (Vec<u8>, Established) {
        let auth: Arc<dyn ChannelAuth> = Arc::new(PskAuth::new(PSK, "client", 1));
        let mut hs = Handshaker::client(auth, Some("server".into()), SessionConfig::default());
        conn.feed(&hs.take_output());
        let est = hs.feed(&drain(conn)).unwrap().expect("ACCEPT completes");
        (hs.take_output(), est)
    }

    /// An established secure connection and the client's end of it.
    fn open_session() -> (Conn, Established) {
        let mut conn = secure(Duration::from_secs(5));
        let (finish, client) = client_until_finish(&mut conn);
        conn.feed(&finish);
        (conn, client)
    }

    /// Opens every record in `bytes` on the client's end.
    fn open_all(client: &mut Established, bytes: &[u8]) -> Vec<Opened> {
        let mut records = RecordDecoder::new();
        records.feed(bytes);
        std::iter::from_fn(|| {
            let (rtype, payload) = records.next_record().unwrap()?;
            Some(client.session.open_record(rtype, payload).unwrap())
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
        conn.complete(encode_envelope(&first));
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
        chunk.extend(
            client
                .session
                .seal_frame(&encode_envelope(&req(1)))
                .unwrap(),
        );
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
            wire.extend(
                client
                    .session
                    .seal_frame(&encode_envelope(&req(id)))
                    .unwrap(),
            );
        }
        wire.extend(client.session.send.seal_close().unwrap());
        conn.feed(&wire);
        let (first, _) = conn.next_job().unwrap();
        assert!(!conn.wants_read(), "nothing counts after CLOSE");
        assert!(!conn.should_close(), "requests still owed");
        conn.complete(encode_envelope(&first));
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
        conn.feed(
            &client
                .session
                .seal_frame(&encode_envelope(&req(1)))
                .unwrap(),
        );
        let (pdu, _) = conn.next_job().unwrap();
        // The send half is shut, so the reply cannot seal.
        conn.close_record().unwrap();
        conn.complete(encode_envelope(&pdu));
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
        conn.complete(encode_envelope(&pdu));
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
                        conn.complete(encode_envelope(&pdu));
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
