//! Allocation budgets, counted by a global allocator that tallies calls and
//! bytes per thread, so the test harness's own threads cannot disturb the
//! count:
//!
//! * the envelope writer: a frame of either version goes into a buffer
//!   with room without allocating, and into an empty one with exactly one
//!   allocation, for every PDU in the golden file;
//! * the secure record layer: sealing a frame and opening a record each
//!   allocate once — the buffer they return, and nothing at all for an
//!   empty plaintext — however long the frame, and sealing in place into
//!   a buffer with room allocates nothing;
//! * PDU decoding: a list whose declared count the rest of the body cannot
//!   hold is refused before anything is reserved for it.

use mws_obs::trace::TraceContext;
use mws_wire::secure::{
    ChannelAuth, Handshaker, Opened, PskAuth, RecordDecoder, SecureSession, SessionConfig,
};
use mws_wire::{decode_envelope, encode_frame, Pdu};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-locals, which themselves never
// allocate. `try_with` tolerates a thread that is already tearing down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn bytes_allocated_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn sessions(rekey_every: u64) -> (SecureSession, SecureSession) {
    let cfg = SessionConfig { rekey_every };
    let client: Arc<dyn ChannelAuth> = Arc::new(PskAuth::new(b"alloc-psk", "client", 1));
    let server: Arc<dyn ChannelAuth> = Arc::new(PskAuth::new(b"alloc-psk", "server", 2));
    let mut c = Handshaker::client(client, None, cfg.clone());
    let mut s = Handshaker::server(server, cfg);
    s.feed(&c.take_output()).unwrap();
    let est_c = c.feed(&s.take_output()).unwrap().unwrap();
    let est_s = s.feed(&c.take_output()).unwrap().unwrap();
    (est_c.session, est_s.session)
}

#[test]
fn seal_and_open_allocate_once_per_record() {
    // No rekey inside the loop: a ratchet derives keys through HKDF,
    // which allocates, once per `rekey_every` records by design.
    let (mut sender, mut receiver) = sessions(1 << 20);
    let mut decoder = RecordDecoder::new();
    let frame = [0xa5u8; 1500];
    for len in [0usize, 1, 46, 175, 1500] {
        let (sealing, record) = allocations_in(|| sender.seal_frame(&frame[..len]).unwrap());
        assert_eq!(sealing, 1, "seal of {len} bytes");
        decoder.feed(&record); // the decoder's own buffer, grown outside the count
        let (opening, opened) = allocations_in(|| {
            let (rtype, payload) = decoder.next_record().unwrap().unwrap();
            receiver.open_record(rtype, payload).unwrap()
        });
        assert_eq!(opening, usize::from(len > 0), "open of {len} bytes");
        assert_eq!(opened, Opened::Frame(frame[..len].to_vec()));
    }
}

#[test]
fn hostile_list_counts_allocate_nothing() {
    // Each body declares 1,024 elements of its list in 8 bytes (13 for the
    // report's fixed head), which cannot hold a single element.
    let claim = 1024u32.to_le_bytes();
    let before = |head: &[u8]| [head, &claim].concat();
    let after = |tail: &[u8]| [&claim, tail].concat();
    let cases = [
        ("deposit_batch", 0x03, before(&[0; 4])), // sd_id ""
        ("deposit_batch_ack", 0x04, after(&[0; 4])),
        ("retrieve_response", 0x11, before(&[0; 4])), // token []
        ("replica_rows", 0x61, after(&[0; 4])),
        ("replica_push", 0x62, after(&[0; 4])),
        ("rebalance_report", 0x68, before(&[0; 9])), // epoch, transferring
    ];
    for (name, type_byte, body) in cases {
        let (bytes, decoded) = bytes_allocated_in(|| Pdu::decode_body(type_byte, &body));
        assert!(decoded.is_err(), "{name}: {decoded:?}");
        assert!(bytes < 1024, "{name}: {bytes} bytes allocated");
    }
}

/// Every PDU of the golden envelope file, decoded.
fn golden_pdus() -> Vec<Pdu> {
    include_str!("golden/pdu_envelopes.hex")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (_, hex) = line.split_once(' ').unwrap();
            let frame: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            decode_envelope(&frame).unwrap().0
        })
        .collect()
}

#[test]
fn encode_frame_allocates_once_into_an_empty_buffer_and_never_into_room() {
    let pdus = golden_pdus();
    assert!(pdus.len() > 20, "read the golden file");
    let ctx = TraceContext {
        trace_id: 1,
        span_id: 2,
    };
    let mut room = Vec::with_capacity(64 << 10);
    for pdu in &pdus {
        for trace in [None, Some(ctx)] {
            let name = pdu.type_name();
            let (fresh, frame) = allocations_in(|| {
                let mut frame = Vec::new();
                encode_frame(pdu, trace, &mut frame);
                frame
            });
            assert_eq!(fresh, 1, "{name} into an empty buffer, trace {trace:?}");
            room.clear();
            let (appended, ()) = allocations_in(|| encode_frame(pdu, trace, &mut room));
            assert_eq!(
                appended, 0,
                "{name} into a buffer with room, trace {trace:?}"
            );
            assert_eq!(room, frame);
        }
    }
}

#[test]
fn sealing_in_place_into_a_buffer_with_room_allocates_nothing() {
    let (mut sender, mut receiver) = sessions(1 << 20);
    let mut decoder = RecordDecoder::new();
    let mut out = Vec::with_capacity(64 << 10);
    for pdu in golden_pdus() {
        out.clear();
        let (sealing, sealed) = allocations_in(|| {
            sender
                .send
                .seal_into(&mut out, |out| encode_frame(&pdu, None, out))
        });
        sealed.unwrap();
        assert_eq!(sealing, 0, "{}", pdu.type_name());
        decoder.feed(&out);
        let (rtype, payload) = decoder.next_record().unwrap().unwrap();
        let Opened::Frame(frame) = receiver.open_record(rtype, payload).unwrap() else {
            panic!("a DATA record");
        };
        assert_eq!(decode_envelope(&frame).unwrap(), (pdu, frame.len()));
    }
}
