//! One connection's byte stream, sans-io, for either end — DESIGN.md §11.
//!
//! A [`Link`] is what a connection's bytes mean: plaintext envelopes back
//! to back, or the secure handshake and then sealed records. It owns no
//! socket and keeps no counters; its owner feeds it the bytes it read
//! ([`Link::feed`]), pulls the frames that completed ([`Link::next_frame`])
//! and writes what it emits. The server's [`crate::conn::Conn`] and the
//! client's [`crate::client::TcpClient`] are its two owners, so header
//! checks, the body and record bounds, the handshake and the CLOSE record
//! have one implementation for both ends of a connection.

use mws_net::NetError;
use mws_wire::secure::{
    ChannelAuth, Handshaker, Opened, RecordDecoder, RecvHalf, SecureError, SendHalf, SessionConfig,
};
use mws_wire::{StreamDecoder, WireError};
use std::borrow::Cow;
use std::sync::Arc;

/// The state of a connection's byte stream.
// `Sealed` is the steady state touched on every record, so its halves stay
// inline; only the transient handshake driver is boxed.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Link {
    /// Plaintext envelopes, back to back.
    Plain(StreamDecoder),
    /// Secure session, handshake in progress. Boxed: the driver's
    /// transcript state would otherwise bloat every established link.
    Handshaking(Box<Handshaker>),
    /// Keys established: inbound bytes split into records that open
    /// through `recv`; outbound frames seal through `send`.
    Sealed {
        send: SendHalf,
        recv: RecvHalf,
        records: RecordDecoder,
    },
}

/// One inbound unit a link yields.
pub(crate) enum Inbound<'a> {
    /// One envelope frame, header included: lent from the plaintext
    /// buffer, or the plaintext of one opened record.
    Frame(Cow<'a, [u8]>),
    /// The peer's authenticated end of session.
    Close,
}

/// Why a link's stream can no longer be trusted.
#[derive(Debug)]
pub(crate) enum LinkError {
    /// A plaintext envelope header failed its checks.
    Wire(WireError),
    /// A record failed to split or open, or the handshake failed.
    Secure(SecureError),
}

impl core::fmt::Display for LinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkError::Wire(e) => e.fmt(f),
            LinkError::Secure(e) => e.fmt(f),
        }
    }
}

/// A bad envelope is a codec failure, as on every transport; a bad record
/// is a transport fault, retried on a fresh connection.
impl From<LinkError> for NetError {
    fn from(e: LinkError) -> Self {
        match e {
            LinkError::Wire(w) => NetError::Codec(w),
            LinkError::Secure(s) => NetError::Io(s.to_string()),
        }
    }
}

impl Link {
    /// A plaintext link.
    pub(crate) fn plain() -> Self {
        Link::Plain(StreamDecoder::new())
    }

    /// The server end of a secure link. The server speaks second, so there
    /// is nothing to write yet.
    pub(crate) fn server(auth: Arc<dyn ChannelAuth>, session: SessionConfig) -> Self {
        Link::Handshaking(Box::new(Handshaker::server(auth, session)))
    }

    /// The client end of a secure link, pinning the server's identity when
    /// `expect_peer` is set. The client speaks first: its HELLO goes to
    /// `out`.
    pub(crate) fn client(
        auth: Arc<dyn ChannelAuth>,
        expect_peer: Option<String>,
        session: SessionConfig,
        out: &mut Vec<u8>,
    ) -> Self {
        let mut hs = Handshaker::client(auth, expect_peer, session);
        out.extend(hs.take_output());
        Link::Handshaking(Box::new(hs))
    }

    /// Takes bytes read from the peer, split anywhere. Mid-handshake, the
    /// records that answer them go to `out`, and `Ok(Some(peer))` says this
    /// feed proved `peer` and keyed the session; any bytes behind the last
    /// handshake record are already data records. Only a handshake fails
    /// here; the error ends it, and with it the connection.
    pub(crate) fn feed(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<Option<String>, LinkError> {
        match self {
            Link::Plain(decoder) => decoder.feed(bytes),
            Link::Sealed { records, .. } => records.feed(bytes),
            Link::Handshaking(hs) => {
                let fed = hs.feed(bytes);
                out.extend(hs.take_output());
                if let Some(est) = fed.map_err(LinkError::Secure)? {
                    let (send, recv) = est.session.into_halves();
                    let mut records = RecordDecoder::new();
                    records.feed(&est.leftover);
                    *self = Link::Sealed {
                        send,
                        recv,
                        records,
                    };
                    return Ok(Some(est.peer));
                }
            }
        }
        Ok(None)
    }

    /// The next complete inbound frame, if one is buffered. A plaintext
    /// frame is lent straight from the decoder's buffer. `Err` means the
    /// stream (or record sequence) has lost sync.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Inbound<'_>>, LinkError> {
        let inbound = match self {
            Link::Plain(decoder) => Ok(decoder
                .next_frame()
                .map_err(LinkError::Wire)?
                .map(|frame| Inbound::Frame(Cow::Borrowed(frame)))),
            Link::Handshaking(_) => Ok(None),
            Link::Sealed { recv, records, .. } => {
                let Some((rtype, payload)) = records.next_record().map_err(LinkError::Secure)?
                else {
                    return Ok(None);
                };
                let opened = recv.open_record(rtype, payload);
                Ok(Some(match opened.map_err(LinkError::Secure)? {
                    Opened::Frame(frame) => Inbound::Frame(Cow::Owned(frame)),
                    Opened::Close => Inbound::Close,
                }))
            }
        };
        #[cfg(debug_assertions)]
        if let Ok(Some(Inbound::Frame(_))) = &inbound {
            crate::cost::tally(|n| n.read += 1);
        }
        inbound
    }

    /// Bytes received but not yet returned as frames.
    pub(crate) fn buffered(&self) -> usize {
        match self {
            Link::Plain(decoder) => decoder.buffered(),
            Link::Handshaking(_) => 0,
            Link::Sealed { records, .. } => records.buffered(),
        }
    }

    /// Queues one outgoing envelope frame at the end of `out`: `write`
    /// appends it there, and once keys are up it is sealed where it lies.
    /// Nothing but handshake records goes out before keys.
    pub(crate) fn send(
        &mut self,
        out: &mut Vec<u8>,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), LinkError> {
        match self {
            Link::Plain(_) => write(out),
            Link::Sealed { send, .. } => send.seal_into(out, write).map_err(LinkError::Secure)?,
            // Closing beats leaking plaintext.
            Link::Handshaking(_) => return Err(LinkError::Secure(SecureError::Closed)),
        }
        #[cfg(debug_assertions)]
        crate::cost::tally(|n| n.written += 1);
        Ok(())
    }

    /// The authenticated CLOSE record that ends an open session, for a
    /// best-effort write just before the socket closes: the peer can then
    /// tell shutdown from truncation. `None` on plaintext or before keys.
    pub(crate) fn close_record(&mut self) -> Option<Vec<u8>> {
        match self {
            Link::Sealed { send, .. } => send.seal_close().ok(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_wire::secure::PskAuth;

    #[test]
    fn a_bad_envelope_is_a_codec_error_and_a_bad_record_an_io_error() {
        let mut plain = Link::plain();
        plain.feed(&[9], &mut Vec::new()).unwrap();
        let err = plain.next_frame().err().expect("unknown version");
        assert!(matches!(
            NetError::from(err),
            NetError::Codec(WireError::BadVersion(9))
        ));
        let auth = Arc::new(PskAuth::new(b"psk", "server", 2));
        let mut sealed = Link::server(auth, SessionConfig::default());
        let err = sealed.feed(&[9; 6], &mut Vec::new()).unwrap_err();
        assert!(matches!(NetError::from(err), NetError::Io(_)));
    }
}
