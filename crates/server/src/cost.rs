//! Frame counts for the workspace's cost model — debug builds only.
//!
//! Every envelope frame a connection's link queues for its peer, and every
//! one it takes from the peer, is counted here, sealed or plain; handshake
//! and CLOSE records are not frames. `tests/cost_model.rs` holds ceilings
//! on the frames one exchange costs, so a change that adds a round trip
//! shows up as a count, not as a timing inside the noise.
//!
//! The counters are thread-local, like `mws_store::cost`'s: a client's link
//! runs on the thread that calls, so a test counts its own exchanges
//! whatever the server's threads do. The module exists only under
//! `debug_assertions`.

use std::cell::Cell;

/// Envelope frames the calling thread's links moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCost {
    /// Frames queued for the peer.
    pub written: u64,
    /// Frames taken from the peer.
    pub read: u64,
}

thread_local! {
    static FRAMES: Cell<FrameCost> = const { Cell::new(FrameCost { written: 0, read: 0 }) };
}

impl FrameCost {
    /// Runs `f` and returns its result with the frames it moved on this
    /// thread.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, FrameCost) {
        let before = FRAMES.with(Cell::get);
        let out = f();
        let after = FRAMES.with(Cell::get);
        let cost = FrameCost {
            written: after.written - before.written,
            read: after.read - before.read,
        };
        (out, cost)
    }
}

/// Counts one frame: `tally(|n| n.written += 1)`.
pub(crate) fn tally(count: impl FnOnce(&mut FrameCost)) {
    FRAMES.with(|frames| {
        let mut n = frames.get();
        count(&mut n);
        frames.set(n);
    });
}
