//! The outer frame, in two wire versions:
//!
//! * v1 — `version(1) ‖ type(1) ‖ len(4, LE) ‖ body`
//! * v2 — `version(1) ‖ type(1) ‖ len(4, LE) ‖ trace_id(8, LE) ‖
//!   span_id(8, LE) ‖ body` — identical except the header additionally
//!   carries the [`TraceContext`] of the sending hop.
//!
//! `len` is the body length in both versions. This module is the only
//! code that knows the layout: [`encode_frame`] is the one writer and
//! [`read_header`] the one reader, which every decoder calls. The writer
//! emits v2 exactly when its caller passes a context, so untraced traffic
//! stays byte-identical v1.

use crate::pdu::Pdu;
use crate::{WireError, MAX_BODY, WIRE_VERSION, WIRE_VERSION_TRACED};
use mws_obs::trace::TraceContext;

/// v1 header: `version ‖ type ‖ len`.
const HEADER_V1: usize = 6;
/// v2 header: v1 plus `trace_id ‖ span_id`.
const HEADER_V2: usize = HEADER_V1 + 16;

/// Appends `pdu` to `out` as one frame: v1 when `trace` is `None`, v2
/// carrying it otherwise. Reserves the whole frame once, then writes the
/// header and the body in place, so a buffer with room takes it without
/// allocating.
pub fn encode_frame(pdu: &Pdu, trace: Option<TraceContext>, out: &mut Vec<u8>) {
    let body_len = pdu.encoded_len();
    let (version, header) = match trace {
        None => (WIRE_VERSION, HEADER_V1),
        Some(_) => (WIRE_VERSION_TRACED, HEADER_V2),
    };
    out.reserve(header + body_len);
    out.push(version);
    out.push(pdu.type_byte());
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    if let Some(ctx) = trace {
        out.extend_from_slice(&ctx.trace_id.to_le_bytes());
        out.extend_from_slice(&ctx.span_id.to_le_bytes());
    }
    pdu.encode_body(out);
}

/// Encodes a PDU into a fresh (untraced) v1 frame.
pub fn encode_envelope(pdu: &Pdu) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(pdu, None, &mut frame);
    frame
}

/// A frame's header, as [`read_header`] parsed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// The PDU type byte.
    pub type_byte: u8,
    /// The context a v2 header carries; `None` for v1.
    pub trace: Option<TraceContext>,
    /// Where the body starts: the header's size.
    pub body_start: usize,
    /// Where the frame ends: header plus body.
    pub frame_len: usize,
}

/// Reads the frame at the start of `bytes`. `Ok(None)` means more bytes
/// are needed: the header is short, or the body has not all arrived. Each
/// header field is checked as soon as it is there — the version on the
/// first byte, the body length against [`MAX_BODY`] on the sixth — so a
/// poisoned stream fails before any wait for bytes that will never come.
pub fn read_header(bytes: &[u8]) -> Result<Option<Header>, WireError> {
    let Some(&version) = bytes.first() else {
        return Ok(None);
    };
    let body_start = match version {
        WIRE_VERSION => HEADER_V1,
        WIRE_VERSION_TRACED => HEADER_V2,
        other => return Err(WireError::BadVersion(other)),
    };
    let [_, type_byte, l0, l1, l2, l3, ref words @ ..] = *bytes else {
        return Ok(None);
    };
    let body_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if body_len > MAX_BODY {
        return Err(WireError::BadLength);
    }
    let frame_len = body_start + body_len;
    if bytes.len() < frame_len {
        return Ok(None);
    }
    // A v2 frame this long holds all 16 trace bytes, `trace_id ‖ span_id`.
    let words = words.first_chunk().map(|&words| u128::from_le_bytes(words));
    let trace = words
        .filter(|_| version == WIRE_VERSION_TRACED)
        .map(|words| TraceContext {
            trace_id: words as u64,
            span_id: (words >> 64) as u64,
        });
    Ok(Some(Header {
        type_byte,
        trace,
        body_start,
        frame_len,
    }))
}

/// Decodes a framed message of either version, returning the PDU and
/// bytes consumed (any carried trace context is dropped).
pub fn decode_envelope(bytes: &[u8]) -> Result<(Pdu, usize), WireError> {
    let (pdu, consumed, _) = decode_envelope_traced(bytes)?;
    Ok((pdu, consumed))
}

/// Decodes a framed message of either version, returning the PDU, the
/// bytes consumed, and the trace context when the frame carried one.
pub fn decode_envelope_traced(
    bytes: &[u8],
) -> Result<(Pdu, usize, Option<TraceContext>), WireError> {
    let header = read_header(bytes)?.ok_or(WireError::Truncated)?;
    let body = &bytes[header.body_start..header.frame_len];
    let pdu = Pdu::decode_body(header.type_byte, body)?;
    Ok((pdu, header.frame_len, header.trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::WIRE_VERSION_SECURE;

    const CTX: TraceContext = TraceContext {
        trace_id: 0xdead_beef_0102_0304,
        span_id: 0x0a0b_0c0d_0e0f_1011,
    };

    fn traced(pdu: &Pdu, ctx: TraceContext) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(pdu, Some(ctx), &mut frame);
        frame
    }

    #[test]
    fn roundtrip() {
        let pdu = Pdu::DepositAck { message_id: 5 };
        let framed = encode_envelope(&pdu);
        let (decoded, consumed) = decode_envelope(&framed).unwrap();
        assert_eq!(decoded, pdu);
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn traced_roundtrip_carries_the_context() {
        let pdu = Pdu::DepositAck { message_id: 5 };
        let framed = traced(&pdu, CTX);
        assert_eq!(framed[0], WIRE_VERSION_TRACED);
        let (decoded, consumed, trace) = decode_envelope_traced(&framed).unwrap();
        assert_eq!(decoded, pdu);
        assert_eq!(consumed, framed.len());
        assert_eq!(trace, Some(CTX));
        // The v1 frame for the same PDU is the same bytes minus the
        // 16-byte trace extension.
        let v1 = encode_envelope(&pdu);
        assert_eq!(framed.len(), v1.len() + 16);
        assert_eq!(
            framed[1..6],
            v1[1..6],
            "type and length agree across versions"
        );
        assert_eq!(framed[22..], v1[6..], "body agrees across versions");
    }

    #[test]
    fn encode_frame_appends_after_what_the_buffer_holds() {
        let pdu = Pdu::ParamsRequest;
        let mut out = vec![0xaa];
        encode_frame(&pdu, None, &mut out);
        encode_frame(&pdu, Some(CTX), &mut out);
        let mut want = vec![0xaa];
        want.extend(encode_envelope(&pdu));
        want.extend(traced(&pdu, CTX));
        assert_eq!(out, want);
    }

    #[test]
    fn consumed_supports_streaming() {
        // Two frames back to back decode sequentially, mixed versions.
        let a = encode_envelope(&Pdu::ParamsRequest);
        let b = traced(
            &Pdu::DepositAck { message_id: 9 },
            TraceContext {
                trace_id: 1,
                span_id: 2,
            },
        );
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (p1, n1) = decode_envelope(&stream).unwrap();
        assert_eq!(p1, Pdu::ParamsRequest);
        let (p2, n2) = decode_envelope(&stream[n1..]).unwrap();
        assert_eq!(p2, Pdu::DepositAck { message_id: 9 });
        assert_eq!(n1 + n2, stream.len());

        // The shared reader over v1, v2, then a secure record: it
        // delimits both envelope versions, asks for more at every cut
        // inside a frame, and refuses the record's version byte.
        stream.extend_from_slice(&[WIRE_VERSION_SECURE, 4, 0, 0, 0, 0]);
        let mut at = 0;
        for (frame, trace) in [
            (&a, None),
            (
                &b,
                Some(TraceContext {
                    trace_id: 1,
                    span_id: 2,
                }),
            ),
        ] {
            for cut in 0..frame.len() {
                assert_eq!(read_header(&stream[at..at + cut]), Ok(None), "cut {cut}");
            }
            let header = read_header(&stream[at..]).unwrap().unwrap();
            assert_eq!(header.frame_len, frame.len());
            assert_eq!(header.type_byte, frame[1]);
            assert_eq!(header.trace, trace);
            at += header.frame_len;
        }
        assert_eq!(
            read_header(&stream[at..]),
            Err(WireError::BadVersion(WIRE_VERSION_SECURE))
        );
    }

    #[test]
    fn rejects_bad_version_and_lengths() {
        let mut framed = encode_envelope(&Pdu::ParamsRequest);
        framed[0] = 9;
        assert_eq!(
            decode_envelope(&framed).unwrap_err(),
            WireError::BadVersion(9)
        );
        // Declared length beyond cap.
        let mut huge = vec![WIRE_VERSION, 0x30];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_envelope(&huge).unwrap_err(), WireError::BadLength);
        // Shorter than header.
        assert_eq!(decode_envelope(&[1, 2]).unwrap_err(), WireError::Truncated);
        // A v2 frame cut inside the trace extension is truncated, not
        // misparsed as a short body.
        let traced = traced(
            &Pdu::ParamsRequest,
            TraceContext {
                trace_id: 3,
                span_id: 4,
            },
        );
        assert_eq!(
            decode_envelope(&traced[..10]).unwrap_err(),
            WireError::Truncated
        );
    }
}
