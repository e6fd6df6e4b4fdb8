//! The secure record layer's allocation budget: sealing a frame and
//! opening a record each allocate once — the buffer they return, and
//! nothing at all for an empty plaintext — however long the frame. Counted
//! by a global allocator that tallies per thread, so the test harness's own
//! threads cannot disturb the count.

use mws_wire::secure::{
    ChannelAuth, Handshaker, Opened, PskAuth, RecordDecoder, SecureSession, SessionConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-local, which itself never
// allocates. `try_with` tolerates a thread that is already tearing down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
