//! Envelope framing over byte streams.
//!
//! The `mws-wire` envelope (`version ‖ type ‖ len ‖ body`) is already
//! self-delimiting, so TCP framing is simply the envelope bytes written
//! back-to-back on the stream. This module maps stream I/O onto that frame
//! boundary and classifies the ways a read can end — clean close, timeout,
//! transport fault, or framing corruption — so callers can decide what is
//! retryable.

use mws_net::NetError;
use mws_wire::{header_len, WireError, MAX_BODY};
use std::io::{self, Read, Write};

/// Smallest envelope header (v1): `version(1) ‖ type(1) ‖ len(4)`. The
/// version byte then says whether trace-context words follow (v2).
pub(crate) const MIN_HEADER: usize = 6;

/// Why a framed stream operation failed.
#[derive(Debug)]
pub enum FrameError {
    /// Peer closed the connection cleanly.
    Closed,
    /// A read or write exceeded the socket deadline.
    Timeout,
    /// Transport fault (reset, refused, ...).
    Io(String),
    /// The byte stream no longer parses as envelopes; the connection must
    /// be dropped (there is no way to re-synchronize).
    Wire(WireError),
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Closed => NetError::Io("connection closed by peer".into()),
            FrameError::Timeout => NetError::Timeout,
            FrameError::Io(detail) => NetError::Io(detail),
            FrameError::Wire(w) => NetError::Codec(w),
        }
    }
}

/// Whether an I/O error is a socket-timeout expiry. Both kinds occur in the
/// wild: Unix reports `WouldBlock`, Windows `TimedOut`.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn classify(e: io::Error) -> FrameError {
    if is_timeout(&e) {
        FrameError::Timeout
    } else if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Closed
    } else {
        FrameError::Io(e.to_string())
    }
}

/// Writes one pre-encoded envelope frame.
pub fn write_raw_frame<W: Write>(stream: &mut W, frame: &[u8]) -> Result<(), FrameError> {
    stream.write_all(frame).map_err(classify)?;
    stream.flush().map_err(classify)
}

/// Reads exactly one envelope frame (header + body) as raw bytes,
/// validating the header before trusting the declared length.
///
/// A timeout mid-frame leaves the stream out of sync — the caller must drop
/// the connection, not retry the read.
pub fn read_raw_frame<R: Read>(stream: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut frame = vec![0u8; MIN_HEADER];
    stream.read_exact(&mut frame).map_err(classify)?;
    // The version byte fixes the header size (v2 appends trace words);
    // the body length sits at the same offset in every version.
    let header = header_len(frame[0]).map_err(FrameError::Wire)?;
    let len = u32::from_le_bytes(frame[2..6].try_into().expect("4 bytes")) as usize;
    if len > MAX_BODY {
        return Err(FrameError::Wire(WireError::BadLength));
    }
    frame.resize(header + len, 0);
    stream
        .read_exact(&mut frame[MIN_HEADER..])
        .map_err(classify)?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_wire::{decode_envelope, encode_envelope_auto, Pdu};

    #[test]
    fn frame_roundtrip_through_buffer() {
        let pdu = Pdu::Error {
            code: 7,
            detail: "framing".into(),
        };
        let mut wire = Vec::new();
        write_raw_frame(&mut wire, &encode_envelope_auto(&pdu)).unwrap();
        let frame = read_raw_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(decode_envelope(&frame).unwrap().0, pdu);
    }

    #[test]
    fn truncated_stream_reports_closed() {
        let mut wire = Vec::new();
        write_raw_frame(&mut wire, &encode_envelope_auto(&Pdu::ParamsRequest)).unwrap();
        wire.pop();
        assert!(matches!(
            read_raw_frame(&mut wire.as_slice()),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn traced_frame_roundtrip_carries_the_context() {
        let ctx = mws_obs::trace::TraceContext {
            trace_id: 0x1dea_c0de_1dea_c0de,
            span_id: 0x0bad_f00d_0bad_f00d,
        };
        let pdu = Pdu::ParamsRequest;
        let mut wire = Vec::new();
        {
            let _span = mws_obs::trace::enter(ctx);
            write_raw_frame(&mut wire, &encode_envelope_auto(&pdu)).unwrap();
        }
        let frame = read_raw_frame(&mut wire.as_slice()).unwrap();
        let (decoded, consumed, trace) = mws_wire::decode_envelope_traced(&frame).unwrap();
        assert_eq!(decoded, pdu);
        assert_eq!(consumed, frame.len());
        assert_eq!(trace, Some(ctx));
    }

    #[test]
    fn bad_version_rejected_from_header() {
        let bytes = [9u8, 0x30, 0, 0, 0, 0];
        assert!(matches!(
            read_raw_frame(&mut bytes.as_slice()),
            Err(FrameError::Wire(WireError::BadVersion(9)))
        ));
    }

    #[test]
    fn hostile_length_rejected_before_alloc() {
        let mut bytes = vec![mws_wire::WIRE_VERSION, 0x30];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_raw_frame(&mut bytes.as_slice()),
            Err(FrameError::Wire(WireError::BadLength))
        ));
    }
}
