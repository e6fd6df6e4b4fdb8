//! Incremental envelope decoding for byte-stream transports.
//!
//! [`decode_envelope`] needs a complete frame in one
//! contiguous slice; a TCP connection delivers bytes in arbitrary split
//! chunks. [`StreamDecoder`] buffers fed bytes and yields each PDU as soon
//! as its frame completes, validating the header fields (version, declared
//! length) as early as they arrive so a poisoned stream fails fast instead
//! of waiting for `MAX_BODY` bytes that will never come.
//!
//! ```
//! use mws_wire::{encode_envelope, Pdu, StreamDecoder};
//!
//! let frame = encode_envelope(&Pdu::DepositAck { message_id: 7 });
//! let mut dec = StreamDecoder::new();
//! dec.feed(&frame[..3]); // partial delivery
//! assert!(dec.next_pdu().unwrap().is_none());
//! dec.feed(&frame[3..]);
//! assert_eq!(dec.next_pdu().unwrap(), Some(Pdu::DepositAck { message_id: 7 }));
//! ```

use crate::envelope::{decode_envelope, read_header, Header};
use crate::pdu::Pdu;
use crate::WireError;

/// An incremental decoder over a stream of envelope frames.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames.
    pos: usize,
}

/// The one compaction policy of this decoder and the `RecordDecoder`, run
/// before new bytes are appended: the consumed prefix `..pos` goes once it
/// is at least half the buffer, so a move copies no more bytes than were
/// consumed since the last (feeds stay amortized O(1)).
pub(crate) fn compact(buf: &mut Vec<u8>, pos: &mut usize) {
    if *pos > 0 && *pos * 2 >= buf.len() {
        buf.drain(..*pos);
        *pos = 0;
    }
}

impl StreamDecoder {
    /// A decoder enforcing the protocol-wide [`MAX_BODY`](crate::MAX_BODY)
    /// bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes (any split: single bytes up to whole frames).
    pub fn feed(&mut self, bytes: &[u8]) {
        compact(&mut self.buf, &mut self.pos);
        self.buf.extend_from_slice(bytes);
    }

    /// Feeds the decoder straight from a reader — at most `max` bytes in
    /// one `read` — without an intermediate copy buffer. Built for
    /// nonblocking sockets: a `WouldBlock` (EAGAIN) mid-stream propagates
    /// as the error it is while the buffer keeps exactly the bytes already
    /// fed, so the caller just retries on the next readiness event.
    ///
    /// Returns the byte count from the underlying `read` (0 = EOF).
    ///
    /// ```
    /// use mws_wire::{encode_envelope, Pdu, StreamDecoder};
    ///
    /// let frame = encode_envelope(&Pdu::DepositAck { message_id: 7 });
    /// let mut dec = StreamDecoder::new();
    /// let mut cursor = &frame[..];
    /// // A tiny `max` forces several partial reads, like EAGAIN slices.
    /// while dec.next_pdu().unwrap().is_none() {
    ///     assert!(dec.fill_from(&mut cursor, 3).unwrap() > 0);
    /// }
    /// ```
    pub fn fill_from<R: std::io::Read>(
        &mut self,
        reader: &mut R,
        max: usize,
    ) -> std::io::Result<usize> {
        compact(&mut self.buf, &mut self.pos);
        let old = self.buf.len();
        self.buf.resize(old + max, 0);
        match reader.read(&mut self.buf[old..]) {
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete PDU, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed. Errors are sticky in
    /// practice: a framing error means the stream has lost sync and the
    /// connection should be dropped.
    pub fn next_pdu(&mut self) -> Result<Option<Pdu>, WireError> {
        let Some(frame) = self.next_frame()? else {
            return Ok(None);
        };
        Ok(Some(decode_envelope(frame)?.0))
    }

    /// The next complete frame, header and body, lent from the decoder's
    /// buffer; `Ok(None)` when more bytes are needed. Every pull checks the
    /// header ([`read_header`]) as early as its fields arrive.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let start = self.pos;
        let Some(Header { frame_len, .. }) = read_header(&self.buf[start..])? else {
            return Ok(None);
        };
        self.pos += frame_len;
        Ok(Some(&self.buf[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_envelope, encode_frame, WIRE_VERSION};

    fn sample_frames() -> Vec<u8> {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_envelope(&Pdu::ParamsRequest));
        stream.extend_from_slice(&encode_envelope(&Pdu::DepositAck { message_id: 42 }));
        stream.extend_from_slice(&encode_envelope(&Pdu::Error {
            code: 404,
            detail: "missing".into(),
        }));
        stream
    }

    fn drain(dec: &mut StreamDecoder) -> Vec<Pdu> {
        let mut out = Vec::new();
        while let Some(pdu) = dec.next_pdu().unwrap() {
            out.push(pdu);
        }
        out
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let stream = sample_frames();
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.feed(&[*b]);
            got.extend(drain(&mut dec));
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[1], Pdu::DepositAck { message_id: 42 });
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn whole_stream_at_once() {
        let stream = sample_frames();
        let mut dec = StreamDecoder::new();
        dec.feed(&stream);
        assert_eq!(drain(&mut dec).len(), 3);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_version_fails_on_first_byte() {
        let mut dec = StreamDecoder::new();
        dec.feed(&[9]);
        assert_eq!(dec.next_pdu().unwrap_err(), WireError::BadVersion(9));
    }

    #[test]
    fn hostile_length_fails_before_body_arrives() {
        let mut dec = StreamDecoder::new();
        let mut header = vec![WIRE_VERSION, 0x30];
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        dec.feed(&header);
        assert_eq!(dec.next_pdu().unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn traced_frames_stream_byte_at_a_time() {
        let ctx = mws_obs::trace::TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            span_id: 0x99aa_bbcc_ddee_ff00,
        };
        let mut stream = Vec::new();
        encode_frame(&Pdu::DepositAck { message_id: 7 }, Some(ctx), &mut stream);
        encode_frame(&Pdu::ParamsRequest, None, &mut stream);
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.feed(&[*b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                let (pdu, _, trace) = crate::decode_envelope_traced(frame).unwrap();
                got.push((pdu, trace));
            }
        }
        assert_eq!(
            got,
            vec![
                (Pdu::DepositAck { message_id: 7 }, Some(ctx)),
                (Pdu::ParamsRequest, None),
            ]
        );
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn fill_from_reads_partial_and_preserves_buffer_on_eagain() {
        use std::io::{self, Read};

        /// A reader that yields planned chunks, interleaving `WouldBlock`
        /// errors — the shape a nonblocking socket presents.
        struct Eager<'a> {
            data: &'a [u8],
            pos: usize,
            plan: Vec<usize>, // 0 = WouldBlock, n = up to n bytes
            step: usize,
        }
        impl Read for Eager<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = self.plan[self.step % self.plan.len()];
                self.step += 1;
                if take == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = take.min(buf.len()).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        let stream = sample_frames();
        let mut reader = Eager {
            data: &stream,
            pos: 0,
            plan: vec![1, 0, 3, 0, 0, 7],
            step: 0,
        };
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        while got.len() < 3 {
            match dec.fill_from(&mut reader, 8) {
                Ok(n) => assert!(n > 0, "planned reads cover the stream"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    continue; // EAGAIN: nothing consumed, retry
                }
            }
            got.extend(drain(&mut dec));
        }
        let want: Vec<Pdu> = {
            let mut d = StreamDecoder::new();
            d.feed(&stream);
            drain(&mut d)
        };
        assert_eq!(got, want, "chunked fill_from decodes what one feed does");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn fill_from_reports_eof_as_zero() {
        let mut dec = StreamDecoder::new();
        let empty: &[u8] = &[];
        assert_eq!(dec.fill_from(&mut { empty }, 16).unwrap(), 0);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn interleaved_feed_and_decode() {
        let a = encode_envelope(&Pdu::DepositAck { message_id: 1 });
        let b = encode_envelope(&Pdu::DepositAck { message_id: 2 });
        let mut dec = StreamDecoder::new();
        // Feed all of a plus half of b, decode, then the rest.
        dec.feed(&a);
        dec.feed(&b[..b.len() / 2]);
        assert_eq!(
            dec.next_pdu().unwrap(),
            Some(Pdu::DepositAck { message_id: 1 })
        );
        assert_eq!(dec.next_pdu().unwrap(), None);
        dec.feed(&b[b.len() / 2..]);
        assert_eq!(
            dec.next_pdu().unwrap(),
            Some(Pdu::DepositAck { message_id: 2 })
        );
    }
}
