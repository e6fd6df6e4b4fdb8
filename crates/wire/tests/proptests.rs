//! Property-based tests for the wire codec: arbitrary PDUs roundtrip,
//! arbitrary bytes never panic the decoder, and the incremental decoder
//! agrees with one-shot decoding under adversarial socket behaviour.

use mws_prop::{cases, Gen};
use mws_wire::secure::{ChannelAuth, Handshaker, Opened, PskAuth, RecordDecoder, SessionConfig};
use mws_wire::{decode_envelope, encode_envelope, Pdu, StreamDecoder, WireMessage};
use std::sync::Arc;

/// A reader that misbehaves the way a nonblocking socket can: each call
/// follows a seeded script of short reads (down to one byte), spurious
/// `EAGAIN`s landing mid-envelope, and `EINTR`s — then EOF once the
/// stream is drained.
struct AdversarialReader<'a> {
    data: &'a [u8],
    pos: usize,
    script: &'a [u8],
    turn: usize,
}

impl std::io::Read for AdversarialReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.script[self.turn % self.script.len()];
        self.turn += 1;
        match step {
            0 => Err(std::io::ErrorKind::WouldBlock.into()),
            1 => Err(std::io::ErrorKind::Interrupted.into()),
            // Step n delivers an (n-1)-byte short read — as little as one
            // byte — or EOF once the stream is exhausted.
            n => {
                let take = ((n - 1) as usize)
                    .min(buf.len())
                    .min(self.data.len() - self.pos);
                buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
                self.pos += take;
                Ok(take)
            }
        }
    }
}

/// A PSK-authenticated client/server handshaker pair.
fn handshakers(seed: u64) -> (Handshaker, Handshaker) {
    let psk = b"proptest transport psk";
    let client: Arc<dyn ChannelAuth> = Arc::new(PskAuth::new(psk, "mws/client", seed));
    let server: Arc<dyn ChannelAuth> =
        Arc::new(PskAuth::new(psk, "mws/warehouse", seed.wrapping_add(1)));
    let cfg = SessionConfig::default();
    (
        Handshaker::client(client, Some("mws/warehouse".into()), cfg.clone()),
        Handshaker::server(server, cfg),
    )
}

fn arb_bytes(g: &mut Gen, max: usize) -> Vec<u8> {
    g.bytes(0..max)
}

fn arb_string(g: &mut Gen) -> String {
    const ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-.";
    g.string(ALPHABET, 0..41)
}

fn arb_wire_message(g: &mut Gen) -> WireMessage {
    WireMessage {
        message_id: g.u64(),
        u: arb_bytes(g, 80),
        algo: g.u8(),
        sealed: arb_bytes(g, 120),
        aid: g.u64(),
        nonce: arb_bytes(g, 24),
        timestamp: g.u64(),
        aad: arb_bytes(g, 60),
    }
}

fn arb_pdu(g: &mut Gen) -> Pdu {
    match g.size(0..11) {
        0 => Pdu::DepositRequest {
            sd_id: arb_string(g),
            timestamp: g.u64(),
            u: arb_bytes(g, 80),
            algo: g.u8(),
            sealed: arb_bytes(g, 200),
            attribute: arb_string(g),
            nonce: arb_bytes(g, 24),
            mac: arb_bytes(g, 32),
        },
        1 => Pdu::DepositAck {
            message_id: g.u64(),
        },
        2 => Pdu::RetrieveRequest {
            rc_id: arb_string(g),
            auth: arb_bytes(g, 100),
            since: g.u64(),
            limit: g.u32(),
        },
        3 => Pdu::RetrieveResponse {
            token: arb_bytes(g, 150),
            messages: g.vec(0..5, arb_wire_message),
        },
        4 => Pdu::PkgAuthRequest {
            rc_id: arb_string(g),
            ticket: arb_bytes(g, 120),
            authenticator: arb_bytes(g, 60),
        },
        5 => Pdu::PkgAuthResponse {
            session_id: g.u64(),
            confirmation: arb_bytes(g, 40),
        },
        6 => Pdu::KeyRequest {
            session_id: g.u64(),
            aid: g.u64(),
            nonce: arb_bytes(g, 24),
        },
        7 => Pdu::KeyResponse {
            encrypted_key: arb_bytes(g, 100),
        },
        8 => Pdu::ParamsRequest,
        9 => Pdu::ParamsResponse {
            p: arb_bytes(g, 64),
            q: arb_bytes(g, 64),
            h: arb_bytes(g, 64),
            generator: arb_bytes(g, 65),
            mpk: arb_bytes(g, 65),
        },
        _ => Pdu::Error {
            code: g.u16(),
            detail: arb_string(g),
        },
    }
}

#[test]
fn every_pdu_roundtrips() {
    cases(256, arb_pdu).check(|pdu| {
        let framed = encode_envelope(&pdu);
        let (decoded, consumed) = decode_envelope(&framed).unwrap();
        assert_eq!(decoded, pdu);
        assert_eq!(consumed, framed.len());
    });
}

#[test]
fn arbitrary_bytes_never_panic() {
    cases(256, |g| arb_bytes(g, 512)).check(|bytes| {
        let _ = decode_envelope(&bytes);
    });
}

#[test]
fn truncated_frames_error_cleanly() {
    cases(256, |g| (arb_pdu(g), g.unit_f64())).check(|(pdu, cut_fraction)| {
        let framed = encode_envelope(&pdu);
        let cut = ((framed.len() as f64) * cut_fraction) as usize;
        if cut < framed.len() {
            assert!(decode_envelope(&framed[..cut]).is_err());
        }
    });
}

#[test]
fn bit_flips_never_panic() {
    cases(256, |g| (arb_pdu(g), g.u32(), g.int(0..8) as u8)).check(|(pdu, pos, bit)| {
        let mut framed = encode_envelope(&pdu);
        let n = framed.len();
        framed[(pos as usize) % n] ^= 1 << bit;
        // May decode to a different valid PDU (payload bytes) or error —
        // but must never panic or over-read.
        let _ = decode_envelope(&framed);
    });
}

#[test]
fn pdu_sequences_survive_arbitrary_stream_chunking() {
    cases(256, |g| {
        (g.vec(1..8, arb_pdu), g.vec(1..48, |g| g.size(1..17)))
    })
    .check(|(pdus, chunk_sizes)| {
        // Concatenate the framed PDUs into one byte stream, then deliver it
        // to the incremental decoder in arbitrary chunks — the splits land
        // anywhere, including mid-header and mid-body — the way a TCP
        // receive loop would see it.
        let stream: Vec<u8> = pdus.iter().flat_map(encode_envelope).collect();

        let mut decoder = StreamDecoder::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut turn = 0;
        while offset < stream.len() {
            let take = chunk_sizes[turn % chunk_sizes.len()].min(stream.len() - offset);
            decoder.feed(&stream[offset..offset + take]);
            offset += take;
            turn += 1;
            while let Some(pdu) = decoder.next_pdu().unwrap() {
                decoded.push(pdu);
            }
        }

        assert_eq!(decoded, pdus);
        // The stream ended on a frame boundary, so nothing may linger.
        assert_eq!(decoder.buffered(), 0);
        assert_eq!(decoder.next_pdu().unwrap(), None);
    });
}

#[test]
fn adversarial_short_reads_match_one_shot_decode() {
    // The script ends on at least one delivering step, so all-failure
    // scripts still make progress each cycle and the loop terminates.
    cases(256, |g| {
        (
            g.vec(1..8, arb_pdu),
            g.vec(0..47, |g| g.int(0..18) as u8),
            g.int(2..18) as u8,
        )
    })
    .check(|(pdus, script_head, script_tail)| {
        // The event loop's read path (`fill_from` + `next_pdu`) against a
        // socket returning 1-byte reads, random short reads, EAGAIN
        // mid-envelope and EINTR, in a seeded adversarial order — it must
        // decode exactly the PDU sequence a one-shot decode of the full
        // stream would, and a failed read must never consume bytes.
        let stream: Vec<u8> = pdus.iter().flat_map(encode_envelope).collect();
        let mut script = script_head;
        script.push(script_tail);
        let mut reader = AdversarialReader {
            data: &stream,
            pos: 0,
            script: &script,
            turn: 0,
        };

        let mut decoder = StreamDecoder::new();
        let mut decoded = Vec::new();
        loop {
            let buffered_before = decoder.buffered();
            match decoder.fill_from(&mut reader, 16 * 1024) {
                Ok(0) => break, // EOF: the whole stream was delivered
                Ok(_) => {
                    while let Some(pdu) = decoder.next_pdu().unwrap() {
                        decoded.push(pdu);
                    }
                }
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                        ),
                        "unexpected error kind: {:?}",
                        e.kind()
                    );
                    assert_eq!(
                        decoder.buffered(),
                        buffered_before,
                        "a failed read consumed bytes"
                    );
                }
            }
        }

        let mut one_shot = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let (pdu, consumed) = decode_envelope(&stream[offset..]).unwrap();
            one_shot.push(pdu);
            offset += consumed;
        }
        assert_eq!(decoded, one_shot);
        assert_eq!(decoder.buffered(), 0);
        assert_eq!(decoder.next_pdu().unwrap(), None);
    });
}

#[test]
fn secure_handshake_survives_arbitrary_fragmentation() {
    cases(256, |g| (g.vec(1..64, |g| g.size(1..23)), g.u64())).check(|(chunk_sizes, seed)| {
        // The sans-io handshake driver against a transport delivering
        // its three flights in arbitrary fragments — splits land
        // mid-header, mid-signature, anywhere. Both sides must still
        // complete and derive byte-identical directional keys (proved
        // by sealing/opening in both directions), exactly as if each
        // flight had arrived whole.
        let (mut c, mut s) = handshakers(seed);
        let mut c_est = None;
        let mut s_est = None;
        let mut to_server: Vec<u8> = Vec::new();
        let mut to_client: Vec<u8> = Vec::new();
        // Generous bound: the whole exchange is a few KB of one-byte
        // fragments at worst; a stall would mean lost handshake bytes.
        for turn in 0..20_000 {
            to_server.extend(c.take_output());
            to_client.extend(s.take_output());
            if c_est.is_some() && s_est.is_some() {
                break;
            }
            let take = chunk_sizes[turn % chunk_sizes.len()];
            if s_est.is_none() && !to_server.is_empty() {
                let n = take.min(to_server.len());
                let bytes: Vec<u8> = to_server.drain(..n).collect();
                if let Some(est) = s.feed(&bytes).unwrap() {
                    s_est = Some(est);
                }
            } else if c_est.is_none() && !to_client.is_empty() {
                let n = take.min(to_client.len());
                let bytes: Vec<u8> = to_client.drain(..n).collect();
                if let Some(est) = c.feed(&bytes).unwrap() {
                    c_est = Some(est);
                }
            }
        }
        let mut c_est = c_est.expect("client handshake completed");
        let mut s_est = s_est.expect("server handshake completed");
        assert_eq!(&c_est.peer, "mws/warehouse");
        assert_eq!(&s_est.peer, "mws/client");
        assert!(c_est.leftover.is_empty());
        assert!(s_est.leftover.is_empty());

        // Same keys both ways: client→server and server→client frames
        // seal under one side's schedule and open under the other's.
        let rec = c_est.session.seal_frame(b"client frame").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(
            s_est.session.open_record(rt, pl).unwrap(),
            Opened::Frame(b"client frame".to_vec())
        );
        let rec = s_est.session.seal_frame(b"server frame").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(
            c_est.session.open_record(rt, pl).unwrap(),
            Opened::Frame(b"server frame".to_vec())
        );
    });
}

#[test]
fn tampered_handshake_bytes_never_panic_or_establish_mismatched_keys() {
    cases(256, |g| (g.u32(), g.int(0..8) as u8, g.u64())).check(|(pos, bit, seed)| {
        // A random bit flip anywhere in the client's first flight. The
        // server may error (typed), may wait for more bytes (a flip in
        // a length field), but must never panic — and if it somehow
        // answers, the client must not complete against a transcript
        // that differs from its own.
        let (mut c, mut s) = handshakers(seed);
        let mut hello = c.take_output();
        let n = hello.len();
        hello[(pos as usize) % n] ^= 1 << bit;
        match s.feed(&hello) {
            Err(_) => {} // typed rejection: the common case
            Ok(Some(_)) => unreachable!("server cannot establish on its first flight"),
            Ok(None) => {
                // Flip landed in framing: the server either waits for
                // bytes that will never come, or answered a mutated
                // HELLO — in which case the client's transcript check
                // must refuse the ACCEPT.
                let accept = s.take_output();
                if !accept.is_empty() {
                    assert!(c.feed(&accept).is_err());
                }
            }
        }
    });
}

#[test]
fn tampered_data_records_never_open() {
    cases(256, |g| (g.u32(), g.int(0..8) as u8, g.u64())).check(|(pos, bit, seed)| {
        // Establish a real session, then flip one bit anywhere in a
        // sealed record — header, ciphertext or tag. The receiver may
        // reject the record stream or keep waiting (length flip), but a
        // flipped record must never open as a frame.
        let (mut c, mut s) = handshakers(seed);
        assert!(s.feed(&c.take_output()).unwrap().is_none());
        let mut c_est = c
            .feed(&s.take_output())
            .unwrap()
            .expect("client established");
        let mut s_est = s
            .feed(&c.take_output())
            .unwrap()
            .expect("server established");

        let mut rec = c_est.session.seal_frame(b"meter reading 42").unwrap();
        let n = rec.len();
        rec[(pos as usize) % n] ^= 1 << bit;
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        match rd.next_record() {
            Err(_) => {}   // framing rejected (version/type/length flip)
            Ok(None) => {} // length flip: waits forever, never opens
            Ok(Some((rt, pl))) => {
                assert!(s_est.session.open_record(rt, pl).is_err());
            }
        }
    });
}
