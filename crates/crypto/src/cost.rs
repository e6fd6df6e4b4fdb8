//! SHA-256 compression counts for the workspace's cost model — debug
//! builds only.
//!
//! Every SHA-256 digest, HMAC, HKDF step and HMAC-DRBG draw is a run of
//! 64-byte compressions. Counting them gives the symmetric half of a
//! compose or a key delivery a cost that does not drift with the host:
//! `tests/cost_model.rs` holds ceilings on them, so a change that re-keys
//! an HMAC per message shows up as a count, not as a timing inside the
//! noise.
//!
//! The counter is thread-local, like `mws_bigint::cost`'s, so a test counts
//! its own thread's work whatever else runs. The module exists only under
//! `debug_assertions`.

use std::cell::Cell;

/// Hash work run on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashCost {
    /// SHA-256 compression-function calls (one per 64-byte block).
    pub compressions: u64,
}

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

impl HashCost {
    /// Runs `f` and returns its result with what it cost on this thread.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, HashCost) {
        let before = COMPRESSIONS.with(Cell::get);
        let out = f();
        let cost = HashCost {
            compressions: COMPRESSIONS.with(Cell::get) - before,
        };
        (out, cost)
    }
}

/// Counts one SHA-256 compression.
#[inline(always)]
pub(crate) fn compression() {
    COMPRESSIONS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Digest, Sha256};

    #[test]
    fn counts_one_compression_per_padded_block() {
        // 55 bytes pad into one block, 56 into two; 64 + padding is two.
        for (len, blocks) in [(0, 1), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)] {
            let (_, cost) = HashCost::of(|| Sha256::digest(&vec![0u8; len]));
            assert_eq!(cost.compressions, blocks, "{len} bytes");
        }
        assert_eq!(HashCost::of(|| ()).1, HashCost::default());
    }
}
