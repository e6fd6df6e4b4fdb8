//! The epoll driver (Linux) — DESIGN.md §11.
//!
//! A utility fleet is thousands of mostly-idle meters holding one
//! persistent connection each, so a small, fixed set of **event-loop
//! threads** accepts and owns every connection (a [`Conn`] over a
//! nonblocking socket) and an idle connection costs one fd plus a few
//! hundred bytes.
//!
//! What the loop adds to [`Conn`] is I/O and hand-offs:
//!
//! * **Cheap requests run on the loop.** Each loop holds its own service;
//!   a request that [`Service::runs_inline`] admits (a memory-warehouse
//!   deposit) is handled right there, with no queue, wake-up or waker
//!   write. Everything else — fsync, pairing, RSA, network calls — goes
//!   to the worker pool as a decoded PDU, so that work never blocks a
//!   loop. Either way [`Conn`] hands out one request at a time, so reply
//!   order does not depend on where a request ran.
//! * **Accept in the loop.** Every loop registers the shared listener
//!   with `EPOLLEXCLUSIVE` and accepts nonblocking on readiness.
//! * **Write backpressure.** A connection's output is written
//!   opportunistically; `EAGAIN` parks it behind `EPOLLOUT` interest
//!   instead of blocking the loop.
//! * **Read backpressure.** Read interest follows [`Conn::wants_read`], so
//!   a full pipeline leaves bytes in the kernel and TCP backpressure
//!   reaches the client.
//!
//! The loop wakes for socket readiness, new connections and worker
//! completions; completions ride a [`UnixStream`] waker registered in the
//! same epoll set, so there is no polling hot loop. A periodic sweep runs
//! every connection's deadlines ([`Conn::on_tick`]).

use crate::conn::{Conn, Traced};
use crate::queue;
use crate::server::{admit, handle, over_capacity_close, release, Running, ServerConfig};
use crate::sys::{
    Epoll, EpollEvent, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use mws_net::Service;
use mws_wire::Pdu;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Token reserved for the loop's waker pipe.
const WAKER_TOKEN: u64 = 0;
/// Token of the shared listener; connections start after it.
const LISTENER_TOKEN: u64 = 1;
/// Bytes per nonblocking read.
const READ_CHUNK: usize = 4 * 1024;
/// Reads (or accepts) per readiness event before yielding back to the
/// loop, so one firehose connection cannot starve thousands of idle ones
/// (level-triggered epoll re-reports whatever is left).
const READS_PER_EVENT: usize = 16;
/// Readiness events pulled per `epoll_wait`.
const EVENTS_PER_TICK: usize = 1024;

/// A decoded request on its way to the worker pool.
struct Job {
    loop_id: usize,
    token: u64,
    request: Traced,
}

/// A handled request on its way back, to be encoded into its connection.
struct Completion {
    token: u64,
    reply: Traced,
}

/// The cross-thread face of one event loop: where workers post
/// completions, and the pipe that wakes the loop out of `epoll_wait`.
struct LoopHandle {
    completions: mpsc::Sender<Completion>,
    waker: UnixStream,
}

impl LoopHandle {
    /// Kicks the loop out of `epoll_wait`. The pipe is nonblocking and
    /// a full pipe already guarantees a pending wakeup, so the result
    /// is ignorable by construction.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// One registered connection, owned by exactly one loop thread.
struct Socket {
    stream: TcpStream,
    conn: Conn,
    /// Current epoll interest mask (avoid redundant `EPOLL_CTL_MOD`s).
    interest: u32,
}

struct EventLoop<S> {
    id: usize,
    /// Runs the requests [`Service::runs_inline`] admits, on this thread.
    service: S,
    epoll: Epoll,
    waker_rx: UnixStream,
    listener: Arc<TcpListener>,
    completions: mpsc::Receiver<Completion>,
    jobs: Arc<queue::Sender<Job>>,
    conns: HashMap<u64, Socket>,
    next_token: u64,
    cfg: ServerConfig,
    /// How often to run the connections' deadlines; `None` when there
    /// are none.
    sweep_every: Option<Duration>,
    shutdown: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    read_buf: Vec<u8>,
}

impl<S: Service> EventLoop<S> {
    fn run(mut self) {
        let mut events = vec![EpollEvent::empty(); EVENTS_PER_TICK];
        let tick_ms = self.cfg.read_poll.as_millis().clamp(1, 1000) as i32;
        let mut last_sweep = Instant::now();
        loop {
            let n = self.epoll.wait(&mut events, tick_ms).unwrap_or(0);
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.iter().take(n) {
                let ev = *ev;
                let (token, bits) = ({ ev.token }, { ev.events });
                match token {
                    WAKER_TOKEN => self.drain_waker(),
                    LISTENER_TOKEN => self.accept(),
                    _ => self.handle_io(token, bits),
                }
            }
            self.drain_completions();
            self.sweep(&mut last_sweep);
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
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn accept(&mut self) {
        for _ in 0..READS_PER_EVENT {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept failures (EMFILE, aborted handshake)
                // must not kill the listener.
                Err(_) => continue,
            };
            if !admit(&self.open, self.cfg.max_connections) {
                over_capacity_close(stream);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            let mask = EPOLLIN | EPOLLRDHUP;
            if stream.set_nonblocking(true).is_err()
                || self.epoll.add(stream.as_raw_fd(), mask, token).is_err()
            {
                release(&self.open);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let conn = Conn::new(&self.cfg);
            self.conns.insert(
                token,
                Socket {
                    stream,
                    conn,
                    interest: mask,
                },
            );
        }
    }

    fn handle_io(&mut self, token: u64, bits: u32) {
        let Some(s) = self.conns.get_mut(&token) else {
            return;
        };
        // ERR/HUP/RDHUP all surface through the read path as an error or
        // EOF, which keeps the drain-then-close sequencing in one place.
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            for _ in 0..READS_PER_EVENT {
                if !s.conn.wants_read() {
                    break;
                }
                match s.stream.read(&mut self.read_buf) {
                    Ok(0) => s.conn.on_eof(),
                    Ok(n) => {
                        s.conn.feed(&self.read_buf[..n]);
                        // A short read took in everything the socket held:
                        // a further read would only return `WouldBlock`,
                        // and level-triggered epoll reports later bytes.
                        if n < READ_CHUNK {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => s.conn.on_eof(),
                }
            }
        }
        self.service(token);
    }

    /// One advance of a connection after anything changed it: run its
    /// cheap requests to completion and hand the next other one to the
    /// pool, write what it has, then close it or reconcile its epoll
    /// interest.
    fn service(&mut self, token: u64) {
        let Some(s) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some((pdu, trace)) = s.conn.next_job() {
            if self.service.runs_inline(&pdu) {
                s.conn.complete(handle(&mut self.service, pdu, trace));
                continue;
            }
            let job = Job {
                loop_id: self.id,
                token,
                request: (pdu, trace),
            };
            if self.jobs.send(job).is_ok() {
                break;
            }
            // Every worker is gone: answer rather than leave the
            // connection waiting for a completion that cannot come.
            let unavailable = Pdu::Error {
                code: 503,
                detail: "worker pool unavailable".into(),
            };
            s.conn.complete((unavailable, None));
        }
        if !flush(s) || s.conn.should_close() {
            self.close(token);
            return;
        }
        let mut mask = 0;
        if s.conn.wants_read() {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if !s.conn.output().is_empty() {
            mask |= EPOLLOUT;
        }
        if mask != s.interest && self.epoll.modify(s.stream.as_raw_fd(), mask, token).is_ok() {
            s.interest = mask;
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(c) = self.completions.try_recv() {
            // Completions for already-closed connections drop silently;
            // tokens are never reused, so a late reply cannot land on a
            // different client's socket.
            if let Some(s) = self.conns.get_mut(&c.token) {
                s.conn.complete(c.reply);
                self.service(c.token);
            }
        }
    }

    fn sweep(&mut self, last_sweep: &mut Instant) {
        let Some(every) = self.sweep_every else {
            return;
        };
        if last_sweep.elapsed() < every {
            return;
        }
        let now = Instant::now();
        *last_sweep = now;
        let expired: Vec<u64> = self
            .conns
            .iter_mut()
            .filter_map(|(token, s)| {
                s.conn.on_tick(now);
                s.conn.should_close().then_some(*token)
            })
            .collect();
        for token in expired {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(mut s) = self.conns.remove(&token) {
            // Best-effort: a short write or a dead socket just drops it.
            if let Some(rec) = s.conn.close_record() {
                let _ = s.stream.write(&rec);
            }
            let _ = self.epoll.delete(s.stream.as_raw_fd());
            release(&self.open);
        }
    }
}

/// Writes a connection's output until it is empty or the socket would
/// block. `false` when the socket is dead for writing.
fn flush(s: &mut Socket) -> bool {
    while !s.conn.output().is_empty() {
        match s.stream.write(s.conn.output()) {
            Ok(0) => return false,
            Ok(n) => s.conn.consume(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Worker side: decoded request in, reply out, back to the loop that owns
/// the connection.
fn worker_loop<S: Service>(jobs: &queue::Receiver<Job>, handles: &[LoopHandle], service: &mut S) {
    while let Some(job) = jobs.recv() {
        let (pdu, trace) = job.request;
        let reply = handle(service, pdu, trace);
        let h = &handles[job.loop_id];
        if h.completions
            .send(Completion {
                token: job.token,
                reply,
            })
            .is_ok()
        {
            h.wake();
        }
    }
}

/// Starts `event_loops` loop threads sharing `listener`, then `workers`
/// service threads; each of them takes one service from `factory`.
pub(crate) fn spawn<S, F>(
    cfg: &ServerConfig,
    factory: &mut F,
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<Running>
where
    S: Service + 'static,
    F: FnMut() -> S,
{
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let n_loops = cfg.event_loops.max(1);
    let (jobs_tx, jobs_rx) = queue::channel::<Job>();
    let open = Arc::new(AtomicUsize::new(0));
    // Sweeping is O(connections); amortize it to a fraction of the
    // shortest deadline instead of every tick.
    let hs_timeout = cfg.secure.as_ref().map(|s| s.handshake_timeout);
    let sweep_every = [cfg.idle_timeout, hs_timeout]
        .into_iter()
        .flatten()
        .min()
        .map(|d| (d / 4).max(Duration::from_millis(10)));

    let mut handles = Vec::with_capacity(n_loops);
    let mut threads = Vec::with_capacity(n_loops + cfg.workers.max(1));
    for id in 0..n_loops {
        let (waker, waker_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        let shared = EPOLLIN | EPOLLEXCLUSIVE;
        epoll.add(listener.as_raw_fd(), shared, LISTENER_TOKEN)?;
        let (completions, completions_rx) = mpsc::channel();
        handles.push(LoopHandle { completions, waker });
        let el = EventLoop {
            id,
            service: factory(),
            epoll,
            waker_rx,
            listener: listener.clone(),
            completions: completions_rx,
            jobs: jobs_tx.clone(),
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            cfg: cfg.clone(),
            sweep_every,
            shutdown: shutdown.clone(),
            open: open.clone(),
            read_buf: vec![0; READ_CHUNK],
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("mws-loop-{id}"))
                .spawn(move || el.run())?,
        );
    }
    let handles = Arc::new(handles);
    // Loop threads own the only job senders: when they exit, workers'
    // recv() disconnects and the pool drains without a poison message.
    drop(jobs_tx);

    for i in 0..cfg.workers.max(1) {
        let jobs = jobs_rx.clone();
        let handles = handles.clone();
        let mut service = factory();
        threads.push(
            std::thread::Builder::new()
                .name(format!("mws-worker-{i}"))
                .spawn(move || worker_loop(&jobs, &handles, &mut service))?,
        );
    }

    // Each loop re-checks the flag after any wakeup; the tick bounds the
    // worst case even if a waker write is lost.
    let wake = Box::new(move || handles.iter().for_each(LoopHandle::wake));
    Ok(Running { threads, wake })
}
