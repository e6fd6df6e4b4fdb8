//! The readiness-based (epoll) server core — DESIGN.md §11.
//!
//! Thread-per-connection caps concurrent smart devices at thread-pool
//! size; a utility fleet is thousands of mostly-idle meters holding one
//! persistent connection each. This core inverts the shape: a small,
//! fixed set of **event-loop threads** owns every connection as a state
//! machine over nonblocking sockets, and the existing worker pool only
//! ever sees decoded PDUs, so crypto/storage work never blocks the loop
//! and an idle connection costs one fd plus a few hundred bytes.
//!
//! Per-connection invariants, identical to the threaded core:
//!
//! * **FIFO replies.** At most one request per connection is in flight
//!   at a worker; further decoded requests queue in arrival order and
//!   dispatch one-by-one as completions return, so reply order always
//!   equals request order.
//! * **Bounded pipeline.** At most [`pipeline_depth`] requests may be
//!   decoded-but-unanswered; past that the loop drops `EPOLLIN`
//!   interest and TCP backpressure reaches the client.
//! * **Write backpressure.** Replies append to a per-connection write
//!   queue flushed opportunistically; `EAGAIN` parks the queue behind
//!   `EPOLLOUT` interest instead of blocking the loop.
//! * **Desync closes.** Every request decoded before a framing error is
//!   answered, then a `400` error frame, then close — byte-for-byte the
//!   threaded core's sequence.
//!
//! The loop wakes for socket readiness, for worker completions and for
//! newly accepted connections (the accept thread stays blocking and
//! round-robins sockets across loops); both cross-thread signals ride a
//! [`UnixStream`] pair registered in the same epoll set, so there is no
//! polling hot loop. A periodic sweep reaps connections idle past
//! [`ServerConfig::idle_timeout`].
//!
//! [`pipeline_depth`]: crate::ServerConfig::pipeline_depth
//! [`ServerConfig::idle_timeout`]: crate::ServerConfig::idle_timeout

use crate::queue;
use crate::secure::SecureSettings;
use crate::server::{over_capacity_close, ServerConfig};
use crate::stats::{handle_us, stats};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use mws_net::Service;
use mws_obs::trace::TraceContext;
use mws_wire::secure::{Handshaker, Opened, RecordDecoder, RecvHalf, SecureError, SendHalf};
use mws_wire::{decode_envelope_traced, encode_envelope, encode_envelope_auto, Pdu, StreamDecoder};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for the loop's waker pipe; connections start at 1.
const WAKER_TOKEN: u64 = 0;
/// Bytes per nonblocking read. Also the decoder buffer's resting
/// capacity after a burst, so it bounds per-connection memory: 10k
/// connections hold ~40 MB of read buffers, not 80+.
const READ_CHUNK: usize = 4 * 1024;
/// Reads drained per readiness event before yielding back to the loop,
/// so one firehose connection cannot starve thousands of idle ones
/// (level-triggered epoll re-reports whatever is left).
const READS_PER_EVENT: usize = 16;
/// Readiness events pulled per `epoll_wait`.
const EVENTS_PER_TICK: usize = 1024;

/// A decoded request on its way to the worker pool.
struct Job {
    loop_id: usize,
    token: u64,
    pdu: Pdu,
    trace: Option<TraceContext>,
}

/// A handled request on its way back: the encoded reply frame.
struct Completion {
    token: u64,
    frame: Vec<u8>,
}

/// The cross-thread face of one event loop: where the accept thread
/// injects sockets, where workers post completions, and the pipe that
/// wakes the loop out of `epoll_wait` after either.
pub(crate) struct LoopHandle {
    injector: mpsc::Sender<TcpStream>,
    completions: mpsc::Sender<Completion>,
    waker: UnixStream,
}

impl LoopHandle {
    /// Kicks the loop out of `epoll_wait`. The pipe is nonblocking and
    /// a full pipe already guarantees a pending wakeup, so the result
    /// is ignorable by construction.
    pub(crate) fn wake(&self) {
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// Join handles plus wake handles for a running event core; owned by
/// [`TcpServer`](crate::TcpServer).
pub(crate) struct EventCore {
    pub(crate) handles: Arc<Vec<LoopHandle>>,
    pub(crate) accept: Option<JoinHandle<()>>,
    pub(crate) loops: Vec<JoinHandle<()>>,
    pub(crate) workers: Vec<JoinHandle<()>>,
}

/// Secure-transport state for one connection (`None` = plaintext).
/// On a secure listener every connection is born HANDSHAKING and only
/// reaches the decoded-PDU path once the handshake proves the peer and
/// derives session keys — the epoll analogue of the threaded core's
/// handshake-first `serve_conn`.
// `Open` is the steady state touched on every record, so its halves stay
// inline; only the transient handshake driver is boxed.
#[allow(clippy::large_enum_variant)]
enum SecState {
    /// Handshake in progress; `since` enforces the handshake deadline
    /// via the idle sweep. Boxed: the driver's transcript state would
    /// otherwise bloat every established connection's inline `Conn`.
    Handshaking { hs: Box<Handshaker>, since: Instant },
    /// Keys established: inbound bytes split into records, open through
    /// `recv`; replies seal through `send`.
    Open {
        send: SendHalf,
        recv: RecvHalf,
        records: RecordDecoder,
    },
}

/// One step of the secure decode loop (see [`EventLoop::next_request`]).
enum Decoded {
    /// No complete request buffered.
    Idle,
    /// One decoded request.
    Req(Pdu, Option<TraceContext>),
    /// The peer sent the authenticated CLOSE record.
    Close,
}

/// One connection's entire state machine. Owned by exactly one loop
/// thread; nothing here is shared or locked.
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// Secure-transport state; `None` on a plaintext listener.
    sec: Option<SecState>,
    /// Decoded-but-undispatched requests, in arrival order.
    pending: VecDeque<(Pdu, Option<TraceContext>)>,
    /// One request is at a worker; its completion dispatches the next.
    busy: bool,
    /// Encoded reply frames not yet fully written.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written (partial-write cursor).
    out_pos: usize,
    /// Current epoll interest mask (avoid redundant `EPOLL_CTL_MOD`s).
    interest: u32,
    last_activity: Instant,
    /// EOF or read error: no further bytes will arrive.
    read_done: bool,
    /// Framing error detail, reported as a 400 after `pending` drains.
    desync: Option<String>,
    /// Close as soon as `out` drains.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, interest: u32, sec: Option<SecState>) -> Self {
        Self {
            stream,
            decoder: StreamDecoder::new(),
            sec,
            pending: VecDeque::new(),
            busy: false,
            out: VecDeque::new(),
            out_pos: 0,
            interest,
            last_activity: Instant::now(),
            read_done: false,
            desync: None,
            closing: false,
        }
    }
}

struct EventLoop {
    id: usize,
    epoll: Epoll,
    waker_rx: UnixStream,
    injector: mpsc::Receiver<TcpStream>,
    completions: mpsc::Receiver<Completion>,
    jobs: Arc<queue::Sender<Job>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    pipeline_depth: usize,
    idle_timeout: Option<Duration>,
    secure: Option<Arc<SecureSettings>>,
    tick: Duration,
    shutdown: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::empty(); EVENTS_PER_TICK];
        let tick_ms = self.tick.as_millis().clamp(1, 1000) as i32;
        let mut last_sweep = Instant::now();
        loop {
            let n = self.epoll.wait(&mut events, tick_ms).unwrap_or(0);
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.iter().take(n) {
                let ev = *ev;
                let (token, bits) = ({ ev.token }, { ev.events });
                if token == WAKER_TOKEN {
                    self.drain_waker();
                } else {
                    self.handle_io(token, bits);
                }
            }
            self.drain_completions();
            self.drain_injector();
            self.sweep_idle(&mut last_sweep);
        }
        // Teardown closes every owned connection so the shared
        // open-connection accounting stays truthful across restarts.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close(t);
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break, // peer gone: shutdown path
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn handle_io(&mut self, token: u64, bits: u32) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // ERR/HUP/RDHUP all surface through the read path as an
            // error or EOF, which preserves the drain-then-close
            // sequencing; there is no separate teardown branch to get
            // subtly out of order.
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                Self::pump_read(conn);
            }
        }
        self.service_conn(token);
    }

    /// Nonblocking reads until `EAGAIN`, EOF, or the per-event fairness
    /// cap. Plaintext bytes go straight into the envelope decoder;
    /// secure bytes route through the handshake driver or record
    /// decoder via [`Self::feed_secure`].
    fn pump_read(conn: &mut Conn) {
        if conn.read_done {
            return;
        }
        if conn.sec.is_none() {
            for _ in 0..READS_PER_EVENT {
                match conn.decoder.fill_from(&mut conn.stream, READ_CHUNK) {
                    Ok(0) => {
                        conn.read_done = true;
                        return;
                    }
                    Ok(_) => conn.last_activity = Instant::now(),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.read_done = true;
                        return;
                    }
                }
            }
            return;
        }
        let mut buf = [0u8; READ_CHUNK];
        for _ in 0..READS_PER_EVENT {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_done = true;
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    Self::feed_secure(conn, &buf[..n]);
                    if conn.read_done || conn.closing {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_done = true;
                    return;
                }
            }
        }
    }

    /// Routes freshly read bytes through the connection's secure state.
    /// Handshake completion swaps HANDSHAKING for OPEN in place and
    /// carries buffered post-handshake records over; handshake failure
    /// closes (after a plaintext 426 when the peer never spoke the
    /// secure protocol at all).
    fn feed_secure(conn: &mut Conn, bytes: &[u8]) {
        match &mut conn.sec {
            Some(SecState::Handshaking { hs, since }) => {
                let fed = hs.feed(bytes);
                let out = hs.take_output();
                if !out.is_empty() {
                    conn.out.push_back(out);
                }
                match fed {
                    Ok(None) => {}
                    Ok(Some(est)) => {
                        stats().secure_handshakes.inc();
                        stats().handshake_us.record_duration(since.elapsed());
                        mws_obs::debug!(target: "mws_server", "secure session established",
                            peer_identity = est.peer.clone(),);
                        let (send, recv) = est.session.into_halves();
                        let mut records = RecordDecoder::new();
                        records.feed(&est.leftover);
                        conn.sec = Some(SecState::Open {
                            send,
                            recv,
                            records,
                        });
                    }
                    Err(e) => {
                        stats().secure_handshake_failures.inc();
                        conn.out.clear();
                        if matches!(e, SecureError::PlaintextPeer(_)) {
                            // A plaintext client dialed a secure
                            // listener: answer in its own protocol so
                            // the operator sees the misconfiguration.
                            stats().secure_downgrades.inc();
                            conn.out.push_back(encode_envelope(&Pdu::Error {
                                code: 426,
                                detail: "secure transport required (--transport secure)".into(),
                            }));
                        }
                        mws_obs::warn!(target: "mws_server", "secure handshake failed",
                            error = e.to_string(),);
                        conn.read_done = true;
                        conn.closing = true;
                    }
                }
            }
            Some(SecState::Open { records, .. }) => records.feed(bytes),
            None => {}
        }
    }

    /// Decodes the next complete request, routing through the secure
    /// record layer when the connection has one. `Err` is a desync: the
    /// stream (or record sequence) can no longer be trusted.
    fn next_request(conn: &mut Conn) -> Result<Decoded, String> {
        match &mut conn.sec {
            None => match conn.decoder.next_traced() {
                Ok(Some((pdu, trace))) => Ok(Decoded::Req(pdu, trace)),
                Ok(None) => Ok(Decoded::Idle),
                Err(e) => Err(e.to_string()),
            },
            // No requests exist before the handshake proves the peer.
            Some(SecState::Handshaking { .. }) => Ok(Decoded::Idle),
            // One record per call; the pipeline loop in `service_conn`
            // keeps calling until `Idle`, draining everything buffered.
            Some(SecState::Open { recv, records, .. }) => {
                let Some((rtype, payload)) = records.next_record().map_err(|e| e.to_string())?
                else {
                    return Ok(Decoded::Idle);
                };
                match recv
                    .open_record(rtype, payload)
                    .map_err(|e| e.to_string())?
                {
                    Opened::Close => Ok(Decoded::Close),
                    Opened::Frame(frame) => match decode_envelope_traced(&frame) {
                        Ok((pdu, consumed, trace)) if consumed == frame.len() => {
                            Ok(Decoded::Req(pdu, trace))
                        }
                        Ok(_) => Err("trailing bytes in record".into()),
                        Err(e) => Err(e.to_string()),
                    },
                }
            }
        }
    }

    /// Queues one reply frame, sealing it first on a secure connection.
    /// A seal failure is unrecoverable for the session: abandon the
    /// reply and close.
    fn push_reply(conn: &mut Conn, frame: Vec<u8>) {
        match &mut conn.sec {
            Some(SecState::Open { send, .. }) => match send.seal_frame(&frame) {
                Ok(rec) => conn.out.push_back(rec),
                Err(_) => conn.closing = true,
            },
            // Unreachable (no request decodes before keys), but closing
            // beats leaking plaintext if it ever were.
            Some(SecState::Handshaking { .. }) => conn.closing = true,
            None => conn.out.push_back(frame),
        }
    }

    /// Flushes the write queue until empty or `EAGAIN`. Returns `true`
    /// when the socket is dead for writing (reply undeliverable).
    fn flush(conn: &mut Conn) -> bool {
        while let Some(front) = conn.out.front() {
            match conn.stream.write(&front[conn.out_pos..]) {
                Ok(0) => return true,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                    if conn.out_pos == front.len() {
                        conn.out.pop_front();
                        conn.out_pos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        false
    }

    /// The connection state machine's single advance step: decode under
    /// the pipeline bound, dispatch at most one job, render a pending
    /// desync once the queue drains, flush, then either close or
    /// reconcile epoll interest. Every path that changes a connection
    /// funnels through here, so the invariants live in one place.
    fn service_conn(&mut self, token: u64) {
        let mut must_close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.desync.is_none()
                && (conn.busy as usize) + conn.pending.len() < self.pipeline_depth
            {
                match Self::next_request(conn) {
                    Ok(Decoded::Req(pdu, trace)) => conn.pending.push_back((pdu, trace)),
                    Ok(Decoded::Idle) => break,
                    Ok(Decoded::Close) => {
                        // Authenticated session close: same
                        // drain-then-close sequencing as EOF.
                        conn.read_done = true;
                        break;
                    }
                    Err(e) => conn.desync = Some(e),
                }
            }
            if !conn.busy {
                if let Some((pdu, trace)) = conn.pending.pop_front() {
                    conn.busy = true;
                    stats().requests.inc();
                    // Occupancy behind the dispatched request — same
                    // signal the threaded core records at dequeue.
                    stats().pipeline_depth.record(conn.pending.len() as u64);
                    let _ = self.jobs.send(Job {
                        loop_id: self.id,
                        token,
                        pdu,
                        trace,
                    });
                }
            }
            if conn.desync.is_some() && !conn.busy && conn.pending.is_empty() && !conn.closing {
                let detail = conn.desync.take().expect("guarded by is_some");
                stats().wire_errors.inc();
                mws_obs::warn!(target: "mws_server", "stream desynchronized, dropping connection",
                    error = detail.clone(),);
                Self::push_reply(conn, encode_envelope(&Pdu::Error { code: 400, detail }));
                conn.closing = true;
            }
            let write_dead = Self::flush(conn);
            let quiescent = !conn.busy && conn.pending.is_empty() && conn.out.is_empty();
            if write_dead || (conn.closing && conn.out.is_empty()) || (conn.read_done && quiescent)
            {
                must_close = true;
            } else {
                let want_read = !conn.read_done
                    && conn.desync.is_none()
                    && !conn.closing
                    && (conn.busy as usize) + conn.pending.len() < self.pipeline_depth;
                let mut mask = EPOLLRDHUP;
                if want_read {
                    mask |= EPOLLIN;
                }
                if !conn.out.is_empty() {
                    mask |= EPOLLOUT;
                }
                if mask != conn.interest
                    && self
                        .epoll
                        .modify(conn.stream.as_raw_fd(), mask, token)
                        .is_ok()
                {
                    conn.interest = mask;
                }
            }
        }
        if must_close {
            self.close(token);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(c) = self.completions.try_recv() {
            // Completions for already-closed connections drop silently;
            // tokens are never reused, so a late reply cannot land on a
            // different client's socket.
            let live = match self.conns.get_mut(&c.token) {
                Some(conn) => {
                    conn.busy = false;
                    Self::push_reply(conn, c.frame);
                    true
                }
                None => false,
            };
            if live {
                self.service_conn(c.token);
            }
        }
    }

    fn drain_injector(&mut self) {
        while let Ok(stream) = self.injector.try_recv() {
            if stream.set_nonblocking(true).is_err() {
                self.release_one();
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            let mask = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(stream.as_raw_fd(), mask, token).is_err() {
                self.release_one();
                continue;
            }
            // On a secure listener the connection is born HANDSHAKING;
            // the server speaks second, so there is no initial output.
            let sec = self.secure.as_ref().map(|s| SecState::Handshaking {
                hs: Box::new(Handshaker::server(s.auth.clone(), s.session.clone())),
                since: Instant::now(),
            });
            self.conns.insert(token, Conn::new(stream, mask, sec));
            stats().connections.inc();
        }
    }

    fn sweep_idle(&mut self, last_sweep: &mut Instant) {
        let idle = self.idle_timeout;
        let hs_timeout = self.secure.as_ref().map(|s| s.handshake_timeout);
        let Some(shortest) = [idle, hs_timeout].into_iter().flatten().min() else {
            return;
        };
        // Sweeping is O(connections); amortize it to a fraction of the
        // shortest deadline instead of every tick.
        let granularity = (shortest / 4).max(Duration::from_millis(10));
        if last_sweep.elapsed() < granularity {
            return;
        }
        *last_sweep = Instant::now();
        let now = Instant::now();
        let mut hs_expired = Vec::new();
        let mut stale = Vec::new();
        for (t, c) in &self.conns {
            // A connection stuck mid-handshake is dropped on its own
            // (shorter) deadline, so a slowloris peer cannot park in
            // HANDSHAKING forever.
            if let (Some(limit), Some(SecState::Handshaking { since, .. })) = (hs_timeout, &c.sec) {
                if now.duration_since(*since) >= limit {
                    hs_expired.push(*t);
                }
                continue;
            }
            // Only truly quiet connections reap: in-flight work or
            // unflushed replies both count as activity.
            if let Some(timeout) = idle {
                if !c.busy
                    && c.pending.is_empty()
                    && c.out.is_empty()
                    && now.duration_since(c.last_activity) >= timeout
                {
                    stale.push(*t);
                }
            }
        }
        for t in hs_expired {
            stats().secure_handshake_failures.inc();
            self.close(t);
        }
        for t in stale {
            stats().idle_reaped.inc();
            self.close(t);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            // A secure session announces its end with an authenticated
            // CLOSE record so the peer can tell shutdown from
            // truncation (best-effort: a nonblocking short write or
            // dead socket just drops it).
            if let Some(SecState::Open { send, .. }) = &mut conn.sec {
                if let Ok(rec) = send.seal_close() {
                    let _ = conn.stream.write(&rec);
                }
            }
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.release_one();
        }
    }

    /// Gives one connection slot back to the accept thread's limit.
    fn release_one(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
        stats().open_connections.add(-1);
    }
}

/// Blocking accept, enforcing `max_connections` with an explicit `503`
/// close, then round-robin handoff to the event loops.
fn accept_loop(
    listener: TcpListener,
    handles: &[LoopHandle],
    shutdown: &AtomicBool,
    open: &AtomicUsize,
    max_connections: Option<usize>,
) {
    let mut next = 0usize;
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            // Transient accept failures (EMFILE, aborted handshake) must
            // not kill the listener.
            Err(_) => continue,
        };
        if max_connections.is_some_and(|max| open.load(Ordering::SeqCst) >= max) {
            over_capacity_close(stream);
            continue;
        }
        open.fetch_add(1, Ordering::SeqCst);
        stats().open_connections.add(1);
        let h = &handles[next % handles.len()];
        next = next.wrapping_add(1);
        if h.injector.send(stream).is_err() {
            open.fetch_sub(1, Ordering::SeqCst);
            stats().open_connections.add(-1);
            break;
        }
        h.wake();
    }
}

/// Worker side: decoded request in, encoded reply frame out. The trace
/// scope wraps both handling and encoding, so handler events and the
/// reply envelope itself carry the caller's trace id — exactly the
/// threaded core's behaviour.
fn worker_loop<S: Service>(jobs: &queue::Receiver<Job>, handles: &[LoopHandle], service: &mut S) {
    while let Some(job) = jobs.recv() {
        let frame = {
            let _span = job.trace.map(mws_obs::trace::enter);
            let pdu = job.pdu.type_name();
            let started = Instant::now();
            let reply = service.handle(job.pdu);
            handle_us(pdu).record_duration(started.elapsed());
            encode_envelope_auto(&reply)
        };
        let h = &handles[job.loop_id];
        if h.completions
            .send(Completion {
                token: job.token,
                frame,
            })
            .is_ok()
        {
            h.wake();
        }
    }
}

/// Builds and starts the full event core: `event_loops` loop threads,
/// one blocking accept thread, and `workers` service threads.
pub(crate) fn spawn<S, F>(
    cfg: &ServerConfig,
    factory: &mut F,
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<EventCore>
where
    S: Service + 'static,
    F: FnMut() -> S,
{
    let local_addr = listener.local_addr()?;
    let n_loops = cfg.event_loops.max(1);
    let (jobs_tx, jobs_rx) = queue::channel::<Job>(usize::MAX);
    let open = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::with_capacity(n_loops);
    let mut parts = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        let (waker_tx, waker_rx) = UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        let (injector_tx, injector_rx) = mpsc::channel();
        let (completions_tx, completions_rx) = mpsc::channel();
        handles.push(LoopHandle {
            injector: injector_tx,
            completions: completions_tx,
            waker: waker_tx,
        });
        parts.push((epoll, waker_rx, injector_rx, completions_rx));
    }
    let handles = Arc::new(handles);

    let mut loops = Vec::with_capacity(n_loops);
    for (id, (epoll, waker_rx, injector, completions)) in parts.into_iter().enumerate() {
        let el = EventLoop {
            id,
            epoll,
            waker_rx,
            injector,
            completions,
            jobs: jobs_tx.clone(),
            conns: HashMap::new(),
            next_token: WAKER_TOKEN + 1,
            pipeline_depth: cfg.pipeline_depth.max(1),
            idle_timeout: cfg.idle_timeout,
            secure: cfg.secure.clone(),
            tick: cfg.read_poll,
            shutdown: shutdown.clone(),
            open: open.clone(),
        };
        loops.push(
            std::thread::Builder::new()
                .name(format!("mws-loop-{id}"))
                .spawn(move || el.run())?,
        );
    }
    // Loop threads own the only job senders: when they exit, workers'
    // recv() disconnects and the pool drains without a poison message.
    drop(jobs_tx);

    let accept = {
        let handles = handles.clone();
        let shutdown = shutdown.clone();
        let open = open.clone();
        let max_connections = cfg.max_connections;
        std::thread::Builder::new()
            .name(format!("mws-accept-{local_addr}"))
            .spawn(move || accept_loop(listener, &handles, &shutdown, &open, max_connections))?
    };

    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let jobs = jobs_rx.clone();
        let handles = handles.clone();
        let mut service = factory();
        workers.push(
            std::thread::Builder::new()
                .name(format!("mws-worker-{i}"))
                .spawn(move || worker_loop(&jobs, &handles, &mut service))?,
        );
    }

    Ok(EventCore {
        handles,
        accept: Some(accept),
        loops,
        workers,
    })
}
