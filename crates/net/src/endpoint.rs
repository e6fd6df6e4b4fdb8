//! Threaded endpoints — the "four servers" deployment shape.
//!
//! [`ThreadedEndpoint`] runs a [`Service`] on its own OS thread behind
//! `std::sync::mpsc` channels and exposes a [`Service`] facade, so a thread-backed
//! server can be bound onto a [`crate::Network`] exactly like an in-process
//! one. This mirrors the prototype's process-per-component layout while
//! keeping tests deterministic.

use crate::bus::Service;
use crate::NetError;
use mws_wire::Pdu;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

enum Envelope {
    Request(Pdu, Sender<Pdu>),
    Shutdown,
}

/// A service running on its own thread.
pub struct ThreadedEndpoint {
    tx: Sender<Envelope>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadedEndpoint {
    /// Spawns `service` onto a worker thread.
    pub fn spawn<S: Service + 'static>(mut service: S) -> Self {
        let (tx, rx) = channel::<Envelope>();
        let handle = std::thread::spawn(move || {
            while let Ok(env) = rx.recv() {
                match env {
                    Envelope::Request(req, reply_tx) => {
                        let reply = service.handle(req);
                        // The caller may have given up; ignore send failure.
                        let _ = reply_tx.send(reply);
                    }
                    Envelope::Shutdown => break,
                }
            }
        });
        Self {
            tx,
            handle: Some(handle),
        }
    }

    /// Sends one request and blocks for the reply.
    pub fn call(&self, request: Pdu) -> Result<Pdu, NetError> {
        let (reply_tx, reply_rx) = channel();
        self.tx
            .send(Envelope::Request(request, reply_tx))
            .map_err(|_| NetError::Disconnected)?;
        reply_rx.recv().map_err(|_| NetError::Disconnected)
    }

    /// A cloneable [`Service`] facade that forwards into the thread, so the
    /// endpoint can be bound onto a [`crate::Network`].
    pub fn as_service(&self) -> impl Service + 'static {
        let tx = self.tx.clone();
        move |req: Pdu| {
            let (reply_tx, reply_rx) = channel();
            if tx.send(Envelope::Request(req, reply_tx)).is_err() {
                return Pdu::Error {
                    code: 503,
                    detail: "endpoint thread gone".into(),
                };
            }
            reply_rx.recv().unwrap_or(Pdu::Error {
                code: 503,
                detail: "endpoint thread gone".into(),
            })
        }
    }
}

impl Drop for ThreadedEndpoint {
    fn drop(&mut self) {
        let _ = self.tx.send(Envelope::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    #[test]
    fn threaded_call() {
        let ep = ThreadedEndpoint::spawn(|req: Pdu| match req {
            Pdu::DepositAck { message_id } => Pdu::DepositAck {
                message_id: message_id * 2,
            },
            other => other,
        });
        let reply = ep.call(Pdu::DepositAck { message_id: 21 }).unwrap();
        assert_eq!(reply, Pdu::DepositAck { message_id: 42 });
    }

    #[test]
    fn threaded_endpoint_on_network() {
        let ep = ThreadedEndpoint::spawn(|_req: Pdu| Pdu::DepositAck { message_id: 7 });
        let net = Network::new();
        net.bind("pkg", ep.as_service());
        let reply = net.client("pkg").call(&Pdu::ParamsRequest).unwrap();
        assert_eq!(reply, Pdu::DepositAck { message_id: 7 });
        drop(ep);
    }

    #[test]
    fn concurrent_callers() {
        let ep = std::sync::Arc::new(ThreadedEndpoint::spawn(|req: Pdu| req));
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let ep = ep.clone();
            joins.push(std::thread::spawn(move || {
                for j in 0..50 {
                    let id = i * 1000 + j;
                    let reply = ep.call(Pdu::DepositAck { message_id: id }).unwrap();
                    assert_eq!(reply, Pdu::DepositAck { message_id: id });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn shutdown_surfaces_as_error() {
        let ep = ThreadedEndpoint::spawn(|req: Pdu| req);
        let svc = ep.as_service();
        let net = Network::new();
        net.bind("x", svc);
        drop(ep); // thread gone
        let reply = net.client("x").call(&Pdu::ParamsRequest).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 503, .. }));
    }
}
