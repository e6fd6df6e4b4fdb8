//! The TCP service host, in either of two cores.
//!
//! One [`TcpServer`] hosts one MWS role (warehouse, PKG, or gatekeeper
//! front door) on one listening socket — the process shape of the paper's
//! §VI.C deployment. Two interchangeable cores sit behind the same
//! [`ServerConfig`] (selected by [`ServerConfig::core`]):
//!
//! * **Event loop** (default on Linux) — a few epoll-driven loop threads
//!   own every connection as a nonblocking state machine and hand decoded
//!   PDUs to the worker pool; see [`crate::event`] and DESIGN.md §11.
//!   Connection count is bounded by fds and memory, not threads: one
//!   process holds tens of thousands of mostly-idle smart devices.
//! * **Threaded** (fallback, and the A/B baseline) — connections are
//!   handed from a dedicated accept thread to a bounded pool of workers
//!   over a bounded channel; each served connection gets a dedicated
//!   reader thread. Concurrency is capped at the worker count.
//!
//! Both cores share the protocol-visible semantics. Connections are
//! **pipelined**: the next request is decoded while the previous one is
//! being handled, up to [`ServerConfig::pipeline_depth`]
//! decoded-but-unanswered requests, past which TCP backpressure reaches
//! the client — and replies always match request order. Both enforce
//! [`ServerConfig::max_connections`] with an explicit over-capacity `503`
//! close instead of unbounded queueing.
//!
//! Shutdown is graceful and complete: a shared flag stops new work, a
//! self-connection wakes the accept loop out of `accept(2)` (plus a waker
//! byte per event loop), and every thread is joined before
//! [`TcpServer::shutdown`] returns.

use crate::framing::{is_timeout, write_frame};
use crate::queue;
use crate::secure::SecureSettings;
use crate::stats::{handle_us, stats};
use mws_net::Service;
use mws_wire::secure::{
    io_secure_error, Opened, RecordDecoder, RecvHalf, SecureChannel, SecureError, SendHalf,
};
use mws_wire::{Pdu, StreamDecoder};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which connection engine a [`TcpServer`] runs.
///
/// The protocol-visible behaviour is identical; the difference is the
/// concurrency model (and therefore the connection ceiling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerCore {
    /// Readiness-based epoll loops owning all connections (Linux only;
    /// silently falls back to [`ServerCore::Threaded`] elsewhere).
    EventLoop,
    /// Thread-per-served-connection from a bounded worker pool — the
    /// pre-event-loop core, kept as the A/B benchmarking baseline.
    Threaded,
}

impl Default for ServerCore {
    /// The platform's best core: epoll where it exists.
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            ServerCore::EventLoop
        } else {
            ServerCore::Threaded
        }
    }
}

/// Tuning for a [`TcpServer`].
///
/// ```
/// use mws_server::ServerConfig;
///
/// let cfg = ServerConfig::default();
/// assert_eq!(cfg.pipeline_depth, 32);
///
/// // Tune a single knob, keep the rest at defaults.
/// let tuned = ServerConfig { pipeline_depth: 4, ..ServerConfig::listen("127.0.0.1:0") };
/// assert_eq!(tuned.pipeline_depth, 4);
/// assert_eq!(tuned.workers, cfg.workers);
/// ```
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (tests).
    pub addr: String,
    /// Connection engine; defaults to the event loop on Linux.
    pub core: ServerCore,
    /// Worker threads. Under [`ServerCore::Threaded`] this caps the
    /// concurrently served connections; under [`ServerCore::EventLoop`]
    /// it is only the PDU-handling parallelism — connections are owned
    /// by the event loops.
    pub workers: usize,
    /// Event-loop threads ([`ServerCore::EventLoop`] only). One loop
    /// comfortably owns tens of thousands of mostly-idle connections;
    /// add more when readiness processing itself saturates a core.
    pub event_loops: usize,
    /// Open-connection ceiling. Connections beyond it are answered with
    /// an `Error {{ code: 503 }}` frame and closed immediately instead
    /// of queueing without bound. `None` = unlimited.
    pub max_connections: Option<usize>,
    /// Reap connections with no traffic in this window (event core
    /// only; connections with in-flight work never reap). `None`
    /// disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Accepted-but-unserved connection backlog for the threaded core;
    /// `accept` blocks when full.
    pub queue_depth: usize,
    /// Per-connection read timeout (threaded core), and the event
    /// loop's tick: the bound on how stale a shutdown check or idle
    /// sweep can be.
    pub read_poll: Duration,
    /// Per-connection write timeout (threaded core; the event core
    /// never blocks on a write).
    pub write_timeout: Duration,
    /// Per-connection pipeline: how many decoded-but-unhandled requests
    /// may run ahead of the handler. Past this the server stops pulling
    /// off the socket and TCP backpressure reaches the client. `1`
    /// still overlaps decode with handling; `0` is clamped to `1`.
    pub pipeline_depth: usize,
    /// `Some` requires every connection to complete the secure handshake
    /// (DESIGN.md §12) before any PDU is served; plaintext peers get a
    /// plain `426` and a close. `None` serves plaintext envelopes.
    pub secure: Option<Arc<SecureSettings>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            core: ServerCore::default(),
            workers: 4,
            event_loops: 1,
            max_connections: None,
            idle_timeout: None,
            queue_depth: 64,
            read_poll: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            pipeline_depth: 32,
            secure: None,
        }
    }
}

impl ServerConfig {
    /// A config listening on `addr` with defaults otherwise.
    pub fn listen(addr: &str) -> Self {
        Self {
            addr: addr.into(),
            ..Self::default()
        }
    }
}

/// The running threads of whichever core was spawned.
enum Core {
    Threaded {
        conn_tx: Option<Arc<queue::Sender<TcpStream>>>,
        accept: Option<JoinHandle<()>>,
        workers: Vec<JoinHandle<()>>,
    },
    #[cfg(target_os = "linux")]
    Event(crate::event::EventCore),
}

/// A running TCP service host.
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    core: Core,
}

impl TcpServer {
    /// Binds the listener and starts the configured core. `factory` is
    /// called once per worker; the returned services typically share
    /// state internally (e.g. clones of one `MwsService`).
    pub fn spawn<S, F>(cfg: ServerConfig, mut factory: F) -> std::io::Result<Self>
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let core = match cfg.core {
            #[cfg(target_os = "linux")]
            ServerCore::EventLoop => Core::Event(crate::event::spawn(
                &cfg,
                &mut factory,
                listener,
                &shutdown,
            )?),
            #[cfg(not(target_os = "linux"))]
            ServerCore::EventLoop => spawn_threaded(&cfg, &mut factory, listener, &shutdown)?,
            ServerCore::Threaded => spawn_threaded(&cfg, &mut factory, listener, &shutdown)?,
        };
        Ok(Self {
            local_addr,
            shutdown,
            core,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown, wakes every blocked thread, and joins them all.
    /// Returns the number of threads joined (accept + loops + workers);
    /// idempotent — a second call returns 0.
    pub fn shutdown(&mut self) -> usize {
        self.shutdown.store(true, Ordering::SeqCst);
        // accept(2) has no timeout: a throwaway self-connection forces the
        // accept loop around its loop where it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        let mut joined = 0;
        match &mut self.core {
            Core::Threaded {
                conn_tx,
                accept,
                workers,
            } => {
                if let Some(h) = accept.take() {
                    if h.join().is_ok() {
                        joined += 1;
                    }
                }
                // With the accept thread gone this drops the last sender,
                // so workers blocked in recv() observe the disconnect and
                // exit.
                conn_tx.take();
                for h in workers.drain(..) {
                    if h.join().is_ok() {
                        joined += 1;
                    }
                }
            }
            #[cfg(target_os = "linux")]
            Core::Event(core) => {
                // Each loop re-checks the flag after any wakeup; the tick
                // bounds the worst case even if a waker write is lost.
                for h in core.handles.iter() {
                    h.wake();
                }
                if let Some(h) = core.accept.take() {
                    if h.join().is_ok() {
                        joined += 1;
                    }
                }
                for h in core.loops.drain(..) {
                    if h.join().is_ok() {
                        joined += 1;
                    }
                }
                // Loop exit drops the job senders, draining the workers.
                for h in core.workers.drain(..) {
                    if h.join().is_ok() {
                        joined += 1;
                    }
                }
            }
        }
        joined
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Tells an over-capacity peer why it is being turned away, without
/// letting a slow peer stall the accept path. Shared by both cores.
pub(crate) fn over_capacity_close(mut stream: TcpStream) {
    stats().over_capacity.inc();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_frame(
        &mut stream,
        &Pdu::Error {
            code: 503,
            detail: "server at max connections".into(),
        },
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// Starts the thread-per-served-connection core (the pre-epoll engine,
/// kept as a fallback and A/B baseline).
fn spawn_threaded<S, F>(
    cfg: &ServerConfig,
    factory: &mut F,
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<Core>
where
    S: Service + 'static,
    F: FnMut() -> S,
{
    let local_addr = listener.local_addr()?;
    let (tx, rx) = queue::channel::<TcpStream>(cfg.queue_depth.max(1));
    let open = Arc::new(AtomicUsize::new(0));

    let accept = {
        let tx = tx.clone();
        let shutdown = shutdown.clone();
        let open = open.clone();
        let max_connections = cfg.max_connections;
        std::thread::Builder::new()
            .name(format!("mws-accept-{local_addr}"))
            .spawn(move || accept_loop(listener, tx, &shutdown, &open, max_connections))?
    };

    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let rx = rx.clone();
        let shutdown = shutdown.clone();
        let open = open.clone();
        let mut service = factory();
        let read_poll = cfg.read_poll;
        let write_timeout = cfg.write_timeout;
        let pipeline_depth = cfg.pipeline_depth.max(1);
        let secure = cfg.secure.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("mws-worker-{i}"))
                .spawn(move || {
                    while let Some(stream) = rx.recv() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        serve_conn(
                            stream,
                            &mut service,
                            &shutdown,
                            read_poll,
                            write_timeout,
                            pipeline_depth,
                            secure.as_deref(),
                        );
                        open.fetch_sub(1, Ordering::SeqCst);
                        stats().open_connections.add(-1);
                    }
                })?,
        );
    }

    Ok(Core::Threaded {
        conn_tx: Some(tx),
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(
    listener: TcpListener,
    tx: Arc<queue::Sender<TcpStream>>,
    shutdown: &AtomicBool,
    open: &AtomicUsize,
    max_connections: Option<usize>,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                // Over the ceiling: an explicit 503 close, never an
                // unbounded queue of accepted-but-unserved sockets.
                if max_connections.is_some_and(|max| open.load(Ordering::SeqCst) >= max) {
                    over_capacity_close(stream);
                    continue;
                }
                open.fetch_add(1, Ordering::SeqCst);
                stats().open_connections.add(1);
                if tx.send(stream).is_err() {
                    open.fetch_sub(1, Ordering::SeqCst);
                    stats().open_connections.add(-1);
                    break;
                }
            }
            // Transient accept failures (EMFILE, aborted handshake) must
            // not kill the listener.
            Err(_) => continue,
        }
    }
}

/// What the per-connection reader thread hands to the handler loop.
enum Inbound {
    /// A decoded request plus the trace context from its envelope.
    Req(Pdu, Option<mws_obs::trace::TraceContext>),
    /// The stream desynchronized; the rendered wire error ends the
    /// connection after the already-decoded queue drains.
    Desync(String),
}

/// Serves one connection until the peer closes, the stream corrupts, or
/// shutdown is signalled.
///
/// The socket is split in two (`try_clone` shares the fd): a reader
/// thread decodes frames — tolerating arbitrary split reads via
/// [`StreamDecoder`] — into a bounded queue while this thread handles
/// requests and writes replies. Replies stay in request order because one
/// handler drains one FIFO; the overlap is purely decode-vs-handle.
fn serve_conn<S: Service>(
    mut stream: TcpStream,
    service: &mut S,
    shutdown: &Arc<AtomicBool>,
    read_poll: Duration,
    write_timeout: Duration,
    pipeline_depth: usize,
    secure: Option<&SecureSettings>,
) {
    let _ = stream.set_nodelay(true);
    // In secure mode the handshake runs first, blocking, under its own
    // deadline — no plaintext PDU is ever served on a secure listener.
    let halves = match secure {
        None => None,
        Some(sec) => match accept_handshake(&mut stream, sec) {
            Some(session) => Some(session.into_halves()),
            None => return,
        },
    };
    if stream.set_read_timeout(Some(read_poll)).is_err()
        || stream.set_write_timeout(Some(write_timeout)).is_err()
    {
        return;
    }
    stats().connections.inc();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (send_half, recv_half) = match halves {
        None => (None, None),
        Some((s, r)) => (Some(s), Some(r)),
    };
    let done = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Inbound>(pipeline_depth.max(1));
    // `mpsc` has no `len`: the occupancy behind the pipeline-depth statistic
    // is counted alongside, up before each send, down at each receive.
    let queued = Arc::new(AtomicUsize::new(0));
    let reader = {
        let queued = queued.clone();
        let done = done.clone();
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name("mws-conn-reader".into())
            .spawn(move || match recv_half {
                None => read_loop(reader_stream, &tx, &queued, &done, &shutdown),
                Some(recv) => read_loop_secure(reader_stream, recv, &tx, &queued, &done, &shutdown),
            })
    };
    let Ok(reader) = reader else { return };
    let mut send_half = send_half;
    serve_replies(
        &mut stream,
        service,
        shutdown,
        &rx,
        &queued,
        read_poll,
        &mut send_half,
    );
    // A secure connection announces its end with an authenticated CLOSE
    // (best-effort; an already-broken socket just drops).
    if let Some(send) = send_half.as_mut() {
        if let Ok(rec) = send.seal_close() {
            use std::io::Write;
            let _ = stream.write_all(&rec);
        }
    }
    // Unwind the reader: the flag covers its timeout polls, the socket
    // shutdown unblocks a read in progress, and dropping the receiver
    // unparks a send() against a full queue.
    done.store(true, Ordering::SeqCst);
    let _ = stream.shutdown(Shutdown::Both);
    drop(rx);
    let _ = reader.join();
}

/// Runs the server side of the secure handshake on a fresh connection.
/// Returns `None` (after metrics and the downgrade 426) on any failure.
pub(crate) fn accept_handshake(
    stream: &mut TcpStream,
    sec: &SecureSettings,
) -> Option<mws_wire::secure::SecureSession> {
    let started = Instant::now();
    if stream
        .set_read_timeout(Some(sec.handshake_timeout))
        .and_then(|()| stream.set_write_timeout(Some(sec.handshake_timeout)))
        .is_err()
    {
        return None;
    }
    match SecureChannel::accept(stream, &sec.auth, &sec.session) {
        Ok((session, peer)) => {
            stats().secure_handshakes.inc();
            stats().handshake_us.record_duration(started.elapsed());
            mws_obs::debug!(target: "mws_server", "secure session established",
                peer_identity = peer,);
            session.into()
        }
        Err(e) => {
            stats().secure_handshake_failures.inc();
            if matches!(io_secure_error(&e), Some(SecureError::PlaintextPeer(_))) {
                // A plaintext client dialed a secure listener: answer in
                // its own protocol so the operator sees the misconfig.
                stats().secure_downgrades.inc();
                let _ = write_frame(
                    stream,
                    &Pdu::Error {
                        code: 426,
                        detail: "secure transport required (--transport secure)".into(),
                    },
                );
            }
            mws_obs::warn!(target: "mws_server", "secure handshake failed",
                error = e.to_string(),);
            let _ = stream.shutdown(Shutdown::Both);
            None
        }
    }
}

/// Reader half of a pipelined connection: socket bytes → decoded PDUs.
fn read_loop(
    mut stream: TcpStream,
    tx: &mpsc::SyncSender<Inbound>,
    queued: &AtomicUsize,
    done: &AtomicBool,
    shutdown: &AtomicBool,
) {
    let mut decoder = StreamDecoder::new();
    let mut buf = [0u8; 8 * 1024];
    loop {
        loop {
            match decoder.next_traced() {
                Ok(Some((request, trace))) => {
                    // A full queue blocks here, which stops the socket
                    // reads below — TCP backpressure is the flow control.
                    queued.fetch_add(1, Ordering::Relaxed);
                    if tx.send(Inbound::Req(request, trace)).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(wire_err) => {
                    // No resynchronizing a byte stream: stop decoding and
                    // let the handler report after the queue drains.
                    let _ = tx.send(Inbound::Desync(wire_err.to_string()));
                    return;
                }
            }
        }
        if done.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // clean close
            Ok(n) => decoder.feed(&buf[..n]),
            Err(ref e) if is_timeout(e) => continue, // poll the flags
            Err(_) => return,
        }
    }
}

/// Secure-mode reader: socket bytes → records → opened frames → PDUs.
/// One record carries exactly one envelope frame, so each opened record
/// decodes directly without a second incremental decoder.
fn read_loop_secure(
    mut stream: TcpStream,
    mut recv: RecvHalf,
    tx: &mpsc::SyncSender<Inbound>,
    queued: &AtomicUsize,
    done: &AtomicBool,
    shutdown: &AtomicBool,
) {
    let mut records = RecordDecoder::new();
    let mut buf = [0u8; 8 * 1024];
    loop {
        loop {
            match records.next_record() {
                Ok(Some((rtype, payload))) => {
                    let frame = match recv.open_record(rtype, payload) {
                        Ok(Opened::Frame(frame)) => frame,
                        Ok(Opened::Close) => return, // clean, authenticated close
                        Err(e) => {
                            let _ = tx.send(Inbound::Desync(e.to_string()));
                            return;
                        }
                    };
                    match mws_wire::decode_envelope_traced(&frame) {
                        Ok((request, consumed, trace)) if consumed == frame.len() => {
                            queued.fetch_add(1, Ordering::Relaxed);
                            if tx.send(Inbound::Req(request, trace)).is_err() {
                                return;
                            }
                        }
                        Ok(_) => {
                            let _ = tx.send(Inbound::Desync("trailing bytes in record".into()));
                            return;
                        }
                        Err(wire_err) => {
                            let _ = tx.send(Inbound::Desync(wire_err.to_string()));
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Inbound::Desync(e.to_string()));
                    return;
                }
            }
        }
        if done.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // transport close (no CLOSE record: truncation)
            Ok(n) => records.feed(&buf[..n]),
            Err(ref e) if is_timeout(e) => continue, // poll the flags
            Err(_) => return,
        }
    }
}

/// Handler half of a pipelined connection: decoded PDUs → replies, in
/// queue (= request) order.
fn serve_replies<S: Service>(
    stream: &mut TcpStream,
    service: &mut S,
    shutdown: &AtomicBool,
    rx: &mpsc::Receiver<Inbound>,
    queued: &AtomicUsize,
    poll: Duration,
    send: &mut Option<SendHalf>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let inbound = match rx.recv_timeout(poll) {
            Ok(inbound) => inbound,
            Err(mpsc::RecvTimeoutError::Timeout) => continue, // poll the flag
            Err(mpsc::RecvTimeoutError::Disconnected) => return, // reader gone
        };
        match inbound {
            Inbound::Req(request, trace) => {
                stats().requests.inc();
                // How far the reader ran ahead — queue occupancy at
                // dequeue time, 0 when decode isn't the bottleneck.
                let behind = queued.fetch_sub(1, Ordering::Relaxed) - 1;
                stats().pipeline_depth.record(behind as u64);
                // Re-enter the caller's trace scope for the whole
                // handle + reply, so every event the handler emits —
                // and the reply frame itself — carries the trace id.
                let _span = trace.map(mws_obs::trace::enter);
                let pdu = request.type_name();
                let started = Instant::now();
                let reply = service.handle(request);
                handle_us(pdu).record_duration(started.elapsed());
                if send_reply(stream, send, &reply).is_err() {
                    return;
                }
            }
            Inbound::Desync(detail) => {
                stats().wire_errors.inc();
                mws_obs::warn!(target: "mws_server", "stream desynchronized, dropping connection",
                    error = detail.clone(),);
                // Desynchronized stream: tell the peer why, then drop.
                let _ = send_reply(stream, send, &Pdu::Error { code: 400, detail });
                return;
            }
        }
    }
}

/// Writes one reply, sealed when the connection is secure. Shared by the
/// request and desync paths of the threaded core.
fn send_reply(
    stream: &mut TcpStream,
    send: &mut Option<SendHalf>,
    reply: &Pdu,
) -> std::io::Result<()> {
    match send {
        None => write_frame(stream, reply).map_err(|e| {
            let msg = match e {
                crate::framing::FrameError::Io(msg) => msg,
                crate::framing::FrameError::Closed => "connection closed by peer".into(),
                crate::framing::FrameError::Timeout => "write timed out".into(),
                crate::framing::FrameError::Wire(w) => format!("wire error: {w:?}"),
            };
            std::io::Error::other(msg)
        }),
        Some(half) => {
            use std::io::Write;
            let frame = mws_wire::encode_envelope_auto(reply);
            let rec = half
                .seal_frame(&frame)
                .map_err(mws_wire::secure::secure_to_io)?;
            stream.write_all(&rec)?;
            stream.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_wire::{decode_envelope, encode_envelope};
    use std::io::Write;

    /// Both cores must pass every behavioural test; this enumerates the
    /// ones available on this platform.
    fn cores() -> Vec<ServerCore> {
        if cfg!(target_os = "linux") {
            vec![ServerCore::EventLoop, ServerCore::Threaded]
        } else {
            vec![ServerCore::Threaded]
        }
    }

    fn echo_server_on(core: ServerCore) -> TcpServer {
        TcpServer::spawn(
            ServerConfig {
                core,
                ..ServerConfig::default()
            },
            || |req: Pdu| req,
        )
        .unwrap()
    }

    fn echo_server() -> TcpServer {
        TcpServer::spawn(ServerConfig::default(), || |req: Pdu| req).unwrap()
    }

    fn call(addr: SocketAddr, pdu: &Pdu) -> Pdu {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_envelope(pdu)).unwrap();
        let frame = crate::framing::read_raw_frame(&mut s).unwrap();
        decode_envelope(&frame).unwrap().0
    }

    #[test]
    fn echo_roundtrip_over_socket_on_both_cores() {
        for core in cores() {
            let server = echo_server_on(core);
            let req = Pdu::DepositAck { message_id: 99 };
            assert_eq!(call(server.local_addr(), &req), req, "{core:?}");
        }
    }

    #[test]
    fn traced_request_gets_a_traced_reply() {
        for core in cores() {
            let server = echo_server_on(core);
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            let ctx = mws_obs::trace::TraceContext {
                trace_id: 0xabad_1dea_abad_1dea,
                span_id: 0x5eed_5eed_5eed_5eed,
            };
            let req = Pdu::DepositAck { message_id: 7 };
            s.write_all(&mws_wire::encode_envelope_traced(&req, ctx))
                .unwrap();
            let frame = crate::framing::read_raw_frame(&mut s).unwrap();
            let (reply, _, trace) = mws_wire::decode_envelope_traced(&frame).unwrap();
            assert_eq!(reply, req);
            assert_eq!(
                trace.map(|t| t.trace_id),
                Some(ctx.trace_id),
                "{core:?}: the reply frame must carry the request's trace id"
            );
        }
    }

    #[test]
    fn split_writes_reassembled() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let frame = encode_envelope(&Pdu::Error {
            code: 1,
            detail: "split into single bytes".into(),
        });
        for b in &frame {
            s.write_all(&[*b]).unwrap();
            s.flush().unwrap();
        }
        let reply = crate::framing::read_raw_frame(&mut s).unwrap();
        assert_eq!(reply, frame);
    }

    #[test]
    fn pipelined_requests_on_one_connection() {
        for core in cores() {
            let server = echo_server_on(core);
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            let mut wire = Vec::new();
            for id in 0..5u64 {
                wire.extend_from_slice(&encode_envelope(&Pdu::DepositAck { message_id: id }));
            }
            s.write_all(&wire).unwrap();
            for id in 0..5u64 {
                let frame = crate::framing::read_raw_frame(&mut s).unwrap();
                assert_eq!(
                    decode_envelope(&frame).unwrap().0,
                    Pdu::DepositAck { message_id: id },
                    "{core:?}"
                );
            }
        }
    }

    #[test]
    fn slow_handler_still_replies_in_order_through_a_tiny_pipeline() {
        // A 2-deep pipeline with a slow handler: decode runs ahead,
        // fills the queue, backpressures — and every reply still comes
        // back in request order.
        for core in cores() {
            let server = TcpServer::spawn(
                ServerConfig {
                    core,
                    pipeline_depth: 2,
                    ..ServerConfig::default()
                },
                || {
                    |req: Pdu| {
                        std::thread::sleep(Duration::from_millis(5));
                        req
                    }
                },
            )
            .unwrap();
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            let mut wire = Vec::new();
            for id in 0..8u64 {
                wire.extend_from_slice(&encode_envelope(&Pdu::DepositAck { message_id: id }));
            }
            s.write_all(&wire).unwrap();
            for id in 0..8u64 {
                let frame = crate::framing::read_raw_frame(&mut s).unwrap();
                assert_eq!(
                    decode_envelope(&frame).unwrap().0,
                    Pdu::DepositAck { message_id: id },
                    "{core:?}"
                );
            }
        }
    }

    #[test]
    fn queued_requests_are_answered_before_a_desync_closes() {
        // Good frames followed by garbage on one write: the pipeline must
        // answer every decoded request, then the 400, then close.
        for core in cores() {
            let server = echo_server_on(core);
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            let mut wire = Vec::new();
            for id in 0..3u64 {
                wire.extend_from_slice(&encode_envelope(&Pdu::DepositAck { message_id: id }));
            }
            wire.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
            s.write_all(&wire).unwrap();
            for id in 0..3u64 {
                let frame = crate::framing::read_raw_frame(&mut s).unwrap();
                assert_eq!(
                    decode_envelope(&frame).unwrap().0,
                    Pdu::DepositAck { message_id: id },
                    "{core:?}"
                );
            }
            let frame = crate::framing::read_raw_frame(&mut s).unwrap();
            assert!(
                matches!(
                    decode_envelope(&frame).unwrap().0,
                    Pdu::Error { code: 400, .. }
                ),
                "{core:?}"
            );
            let mut rest = Vec::new();
            assert_eq!(s.read_to_end(&mut rest).unwrap_or(0), 0, "{core:?}");
        }
    }

    #[test]
    fn garbage_gets_error_then_close() {
        for core in cores() {
            let server = echo_server_on(core);
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
            let frame = crate::framing::read_raw_frame(&mut s).unwrap();
            assert!(
                matches!(
                    decode_envelope(&frame).unwrap().0,
                    Pdu::Error { code: 400, .. }
                ),
                "{core:?}"
            );
            // Connection is then closed by the server.
            let mut rest = Vec::new();
            assert_eq!(s.read_to_end(&mut rest).unwrap_or(0), 0, "{core:?}");
        }
    }

    #[test]
    fn shutdown_joins_every_thread() {
        // Threaded: accept + 3 workers. Event: accept + 1 loop + 3 workers.
        let expected: Vec<(ServerCore, usize)> = cores()
            .into_iter()
            .map(|core| match core {
                ServerCore::Threaded => (core, 4),
                ServerCore::EventLoop => (core, 5),
            })
            .collect();
        for (core, want) in expected {
            let mut server = TcpServer::spawn(
                ServerConfig {
                    core,
                    workers: 3,
                    ..ServerConfig::default()
                },
                || |req: Pdu| req,
            )
            .unwrap();
            // Park a live connection so shutdown must interrupt a
            // mid-connection read, not just idle threads.
            let _held = TcpStream::connect(server.local_addr()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(server.shutdown(), want, "{core:?}: all threads joined");
            assert_eq!(server.shutdown(), 0, "{core:?}: idempotent");
            assert!(
                TcpStream::connect(server.local_addr()).is_err(),
                "{core:?}: listener is down"
            );
        }
    }

    #[test]
    fn stateful_worker_services_share_state_via_clones() {
        use std::sync::Mutex;
        let counter = Arc::new(Mutex::new(0u64));
        let server = TcpServer::spawn(ServerConfig::default(), || {
            let counter = counter.clone();
            move |_req: Pdu| {
                let mut c = counter.lock().unwrap();
                *c += 1;
                Pdu::DepositAck { message_id: *c }
            }
        })
        .unwrap();
        let ids: Vec<u64> = (0..3)
            .map(|_| match call(server.local_addr(), &Pdu::ParamsRequest) {
                Pdu::DepositAck { message_id } => message_id,
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn over_capacity_connection_gets_503_then_close() {
        for core in cores() {
            let server = TcpServer::spawn(
                ServerConfig {
                    core,
                    max_connections: Some(1),
                    ..ServerConfig::default()
                },
                || |req: Pdu| req,
            )
            .unwrap();
            // A request on the first connection proves the accept thread
            // has registered it before the second one arrives.
            let mut first = TcpStream::connect(server.local_addr()).unwrap();
            first
                .write_all(&encode_envelope(&Pdu::ParamsRequest))
                .unwrap();
            let _ = crate::framing::read_raw_frame(&mut first).unwrap();

            let mut second = TcpStream::connect(server.local_addr()).unwrap();
            let frame = crate::framing::read_raw_frame(&mut second).unwrap();
            assert!(
                matches!(
                    decode_envelope(&frame).unwrap().0,
                    Pdu::Error { code: 503, .. }
                ),
                "{core:?}: over-capacity close announces itself"
            );
            let mut rest = Vec::new();
            assert_eq!(second.read_to_end(&mut rest).unwrap_or(0), 0, "{core:?}");

            // The slot frees when the first connection closes; a retry
            // then succeeds (poll briefly — the close is asynchronous).
            drop(first);
            let recovered = (0..100).any(|_| {
                std::thread::sleep(Duration::from_millis(10));
                let Ok(mut s) = TcpStream::connect(server.local_addr()) else {
                    return false;
                };
                if s.write_all(&encode_envelope(&Pdu::ParamsRequest)).is_err() {
                    return false;
                }
                match crate::framing::read_raw_frame(&mut s) {
                    Ok(f) => {
                        !matches!(decode_envelope(&f).unwrap().0, Pdu::Error { code: 503, .. })
                    }
                    Err(_) => false,
                }
            });
            assert!(recovered, "{core:?}: capacity frees on disconnect");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_connections_reap_and_active_ones_survive() {
        let reaped_before = mws_obs::registry()
            .counter("mws_server_idle_reaped_total")
            .get();
        let server = TcpServer::spawn(
            ServerConfig {
                core: ServerCore::EventLoop,
                idle_timeout: Some(Duration::from_millis(150)),
                read_poll: Duration::from_millis(10),
                ..ServerConfig::default()
            },
            || |req: Pdu| req,
        )
        .unwrap();
        let mut idle = TcpStream::connect(server.local_addr()).unwrap();
        let mut active = TcpStream::connect(server.local_addr()).unwrap();
        // Keep one connection warm past the other's reaping point.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(60));
            active
                .write_all(&encode_envelope(&Pdu::ParamsRequest))
                .unwrap();
            let _ = crate::framing::read_raw_frame(&mut active).unwrap();
        }
        // The idle peer was closed by the sweep: its read sees EOF.
        idle.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut rest = Vec::new();
        assert_eq!(idle.read_to_end(&mut rest).unwrap_or(0), 0);
        let reaped_after = mws_obs::registry()
            .counter("mws_server_idle_reaped_total")
            .get();
        assert!(reaped_after > reaped_before, "sweep counted the reap");
        // The active connection still works after the sweep.
        active
            .write_all(&encode_envelope(&Pdu::DepositAck { message_id: 5 }))
            .unwrap();
        let frame = crate::framing::read_raw_frame(&mut active).unwrap();
        assert_eq!(
            decode_envelope(&frame).unwrap().0,
            Pdu::DepositAck { message_id: 5 }
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn event_core_handles_many_more_connections_than_workers() {
        // The point of the epoll core: 64 concurrent connections on 2
        // workers, every one served (the threaded core would strand 62
        // of them waiting for a worker).
        let server = TcpServer::spawn(
            ServerConfig {
                core: ServerCore::EventLoop,
                workers: 2,
                ..ServerConfig::default()
            },
            || |req: Pdu| req,
        )
        .unwrap();
        let addr = server.local_addr();
        let conns: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, mut s) in conns.into_iter().enumerate() {
            let req = Pdu::DepositAck {
                message_id: i as u64,
            };
            s.write_all(&encode_envelope(&req)).unwrap();
            let frame = crate::framing::read_raw_frame(&mut s).unwrap();
            assert_eq!(decode_envelope(&frame).unwrap().0, req);
        }
    }
}
