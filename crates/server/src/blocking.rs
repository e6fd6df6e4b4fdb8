//! The blocking driver — DESIGN.md §11.
//!
//! The only driver where there is no epoll (every target but Linux), and
//! compiled everywhere so the Linux test suite runs it too. Each of
//! `workers` threads takes its own service, accepts on the shared
//! listener and serves one connection at a time over blocking reads and
//! writes, running each request inline. Concurrency is therefore capped at
//! the worker count; the [`Conn`] each connection runs is the epoll loop's.

use crate::conn::Conn;
use crate::server::{admit, handle, over_capacity_close, release, Running, ServerConfig};
use mws_net::Service;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes per read.
const READ_CHUNK: usize = 4 * 1024;
/// How long one reply write may block before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Whether a blocking socket call gave up at its timeout (Unix reports
/// `WouldBlock`, Windows `TimedOut`); the client and chaos relay ask too.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Starts `workers` accept-and-serve threads.
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
    let local_addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let open = Arc::new(AtomicUsize::new(0));
    let workers = cfg.workers.max(1);
    let mut threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let (listener, open, shutdown) = (listener.clone(), open.clone(), shutdown.clone());
        let cfg = cfg.clone();
        let mut service = factory();
        threads.push(
            std::thread::Builder::new()
                .name(format!("mws-worker-{i}"))
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        // Transient accept failures (EMFILE, aborted
                        // handshake) must not kill the listener.
                        let Ok((stream, _)) = listener.accept() else {
                            continue;
                        };
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if !admit(&open, cfg.max_connections) {
                            over_capacity_close(stream);
                            continue;
                        }
                        serve(stream, &mut service, &cfg, &shutdown);
                        release(&open);
                    }
                })?,
        );
    }
    // accept(2) has no timeout: one throwaway self-connection per worker
    // brings every blocked accept back around to the flag.
    let wake = Box::new(move || {
        for _ in 0..workers {
            let _ = TcpStream::connect(local_addr);
        }
    });
    Ok(Running { threads, wake })
}

/// Serves one connection until it closes or shutdown is signalled. The
/// read timeout is the tick: it bounds how late the flag and the
/// connection's deadlines are seen.
fn serve<S: Service>(
    mut stream: TcpStream,
    service: &mut S,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) {
    if stream
        .set_read_timeout(Some(cfg.read_poll))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut conn = Conn::new(cfg);
    let mut buf = [0u8; READ_CHUNK];
    loop {
        while let Some((pdu, trace)) = conn.next_job() {
            conn.complete(handle(service, pdu, trace));
        }
        if stream.write_all(conn.output()).is_err() {
            break;
        }
        conn.consume(conn.output().len());
        if conn.should_close() || shutdown.load(Ordering::SeqCst) {
            break;
        }
        debug_assert!(conn.wants_read(), "served inline, so never at the bound");
        match stream.read(&mut buf) {
            Ok(0) => conn.on_eof(),
            Ok(n) => conn.feed(&buf[..n]),
            Err(e) if is_timeout(&e) => conn.on_tick(Instant::now()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => conn.on_eof(),
        }
    }
    if let Some(rec) = conn.close_record() {
        let _ = stream.write_all(&rec);
    }
    let _ = stream.shutdown(Shutdown::Both);
}
