//! WAL operation counts for the workspace's cost model — debug builds only.
//!
//! Every record the store makes durable is one [`crate::segment::Segment`]
//! append, and every durability point on a file is one fsync. Counting those
//! calls gives each deposit a cost that does not drift with the disk:
//! `tests/cost_model.rs` holds ceilings on them, so a change that adds a
//! WAL frame or an fsync to the write path shows up as a count, not as a
//! timing inside the noise.
//!
//! The counters are thread-local, like `mws_bigint::cost`'s: a shard
//! appends and syncs on the thread that deposits, so a test counts its own
//! deposits whatever else runs. The module exists only under
//! `debug_assertions`.

use std::cell::Cell;

/// WAL operations run on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalCost {
    /// Records appended to a segment (memory or file).
    pub appends: u64,
    /// Flushes of a file-backed segment to the medium.
    pub fsyncs: u64,
}

thread_local! {
    static APPENDS: Cell<u64> = const { Cell::new(0) };
    static FSYNCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|n| n.set(n.get() + 1));
}

impl WalCost {
    /// Runs `f` and returns its result with what it cost on this thread.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, WalCost) {
        let before = Self::so_far();
        let out = f();
        let after = Self::so_far();
        let cost = WalCost {
            appends: after.appends - before.appends,
            fsyncs: after.fsyncs - before.fsyncs,
        };
        (out, cost)
    }

    /// The thread's totals since it started.
    fn so_far() -> WalCost {
        WalCost {
            appends: APPENDS.with(Cell::get),
            fsyncs: FSYNCS.with(Cell::get),
        }
    }
}

/// Counts one appended record.
pub(crate) fn append() {
    bump(&APPENDS);
}

/// Counts one fsync.
pub(crate) fn fsync() {
    bump(&FSYNCS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    #[test]
    fn counts_appends_and_only_file_fsyncs() {
        let mut mem = Segment::memory();
        let (_, cost) = WalCost::of(|| {
            mem.append(b"one").unwrap();
            mem.append(b"two").unwrap();
            mem.sync().unwrap();
        });
        assert_eq!(
            cost,
            WalCost {
                appends: 2,
                fsyncs: 0
            }
        );

        let path = std::env::temp_dir().join(format!("mws-store-cost-{}", std::process::id()));
        let mut file = Segment::open_file(&path).unwrap();
        let (_, cost) = WalCost::of(|| {
            file.append(b"one").unwrap();
            file.sync().unwrap();
        });
        assert_eq!(
            cost,
            WalCost {
                appends: 1,
                fsyncs: 1
            }
        );
        drop(file);
        std::fs::remove_file(path).unwrap();
    }
}
