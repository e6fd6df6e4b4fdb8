//! Hinted handoff: durable per-target queues of missed writes
//! (DESIGN.md §10).
//!
//! When a write-wave replica is down, the router owes that node its copy
//! of the deposit. The [`HintBoard`] records the debt: one WAL-backed
//! [`HintQueue`](mws_store::HintQueue) per target node, holding the
//! byte-identical deposit PDU. The health prober replays a node's queue
//! as soon as it sees the node up, so sloppy-quorum writes converge to R
//! real copies without waiting for a retrieve to notice the divergence.
//!
//! Hints are queued only for deposits the router actually acked — a
//! rejected or quorum-failed deposit leaves no hint — which is what
//! makes "every acked row ends at exactly R copies" a checkable
//! invariant (the chaos suite checks it).

use mws_obs::sync::lock;
use mws_obs::{metric_name, Counter, Gauge};
use mws_store::{HintQueue, StorageKind};
use mws_wire::fnv1a64;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Per-target hint queues. `dir = None` keeps queues in memory (tests,
/// or operators who accept losing hints on a router crash); a directory
/// makes every queue a WAL + cursor pair inside it, so queued hints
/// survive router restarts.
pub struct HintBoard {
    dir: Option<PathBuf>,
    slots: Mutex<BTreeMap<String, Arc<Mutex<Slot>>>>,
}

struct Slot {
    queue: HintQueue,
    depth: Gauge,
}

impl HintBoard {
    /// A board storing queues under `dir`, or in memory when `None`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    fn slot(&self, node: &str) -> Arc<Mutex<Slot>> {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(node) {
            return slot.clone();
        }
        let kind = match &self.dir {
            None => StorageKind::Memory,
            Some(dir) => StorageKind::File(dir.join(hint_file(node))),
        };
        let queue = HintQueue::open(kind).unwrap_or_else(|e| {
            // A board that cannot open its WAL still works, just without
            // crash durability — strictly better than dropping the hint.
            mws_obs::error!(target: "mws_cluster", "hint WAL unavailable; using memory queue",
                node = node.to_string(), error = e.to_string(),);
            HintQueue::open(StorageKind::Memory).expect("memory queue cannot fail")
        });
        let depth = mws_obs::registry().gauge(&metric_name(
            "mws_cluster_hint_queue_depth",
            &[("node", node)],
        ));
        depth.set(queue.pending() as i64);
        let slot = Arc::new(Mutex::new(Slot { queue, depth }));
        slots.insert(node.to_string(), slot.clone());
        slot
    }

    /// Durably queues one hint for `node`. Returns false (and counts a
    /// drop) if the WAL refused the append — the caller still holds its
    /// write quorum, it just lost the fast-convergence promise.
    pub fn queue(&self, node: &str, payload: &[u8]) -> bool {
        let slot = self.slot(node);
        let mut slot = lock(&slot);
        match slot.queue.push(payload) {
            Ok(()) => {
                slot.depth.set(slot.queue.pending() as i64);
                stats().queued.inc();
                true
            }
            Err(e) => {
                stats().dropped.inc();
                mws_obs::error!(target: "mws_cluster", "hint dropped",
                    node = node.to_string(), error = e.to_string(),);
                false
            }
        }
    }

    /// Hints waiting for `node`. Opens the slot if need be, so hints
    /// queued by a previous process (the WAL file on disk) are found.
    pub fn pending(&self, node: &str) -> usize {
        lock(&self.slot(node)).queue.pending()
    }

    /// Hints waiting across all targets.
    pub fn total_pending(&self) -> usize {
        let slots: Vec<_> = lock(&self.slots).values().cloned().collect();
        slots.iter().map(|s| lock(s).queue.pending()).sum()
    }

    /// Replays `node`'s queue in FIFO order: `deliver` is called per hint
    /// and must return true once the hint is durably applied (only then
    /// does the cursor advance). A false return stops the drain — the
    /// node went away again; the queue waits for the next probe round.
    /// Returns the number of hints replayed.
    pub fn drain(&self, node: &str, mut deliver: impl FnMut(&[u8]) -> bool) -> usize {
        let slot = {
            let slots = lock(&self.slots);
            match slots.get(node) {
                Some(slot) => slot.clone(),
                None => return 0,
            }
        };
        let mut slot = lock(&slot);
        let mut replayed = 0;
        while let Some(payload) = slot.queue.peek() {
            if !deliver(payload) {
                break;
            }
            if let Err(e) = slot.queue.pop() {
                // The hint WAS applied; a cursor that refuses to advance
                // only means an idempotent re-delivery after restart.
                mws_obs::warn!(target: "mws_cluster", "hint cursor stuck",
                    node = node.to_string(), error = e.to_string(),);
                break;
            }
            replayed += 1;
        }
        slot.depth.set(slot.queue.pending() as i64);
        stats().replayed.add(replayed as u64);
        replayed
    }
}

/// Stable, filesystem-safe queue file name for a node: sanitized name
/// plus a hash suffix so distinct node names can never collide.
fn hint_file(node: &str) -> String {
    let safe: String = node
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{:016x}.hints", fnv1a64(node.as_bytes()))
}

struct HandoffStats {
    queued: Counter,
    replayed: Counter,
    dropped: Counter,
}

fn stats() -> &'static HandoffStats {
    static STATS: std::sync::OnceLock<HandoffStats> = std::sync::OnceLock::new();
    STATS.get_or_init(|| {
        let r = mws_obs::registry();
        HandoffStats {
            queued: r.counter("mws_cluster_hints_queued_total"),
            replayed: r.counter("mws_cluster_hints_replayed_total"),
            dropped: r.counter("mws_cluster_hints_dropped_total"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queue_and_drain() {
        let board = HintBoard::new(None);
        assert!(board.queue("node-1", b"a"));
        assert!(board.queue("node-1", b"b"));
        assert!(board.queue("node-2", b"c"));
        assert_eq!(board.pending("node-1"), 2);
        assert_eq!(board.total_pending(), 3);
        let mut seen = Vec::new();
        let n = board.drain("node-1", |p| {
            seen.push(p.to_vec());
            true
        });
        assert_eq!(n, 2);
        assert_eq!(seen, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(board.pending("node-1"), 0);
        assert_eq!(board.pending("node-2"), 1);
    }

    #[test]
    fn failed_delivery_stops_the_drain_and_keeps_the_hint() {
        let board = HintBoard::new(None);
        board.queue("n", b"a");
        board.queue("n", b"b");
        let mut calls = 0;
        let n = board.drain("n", |_| {
            calls += 1;
            false
        });
        assert_eq!((n, calls), (0, 1));
        assert_eq!(board.pending("n"), 2, "nothing lost");
    }

    #[test]
    fn file_backed_hints_survive_a_new_board() {
        let dir = std::env::temp_dir().join(format!(
            "mws-handoff-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let board = HintBoard::new(Some(dir.clone()));
            board.queue("node-1:7111", b"payload");
        }
        let board = HintBoard::new(Some(dir.clone()));
        assert_eq!(board.pending("node-1:7111"), 1);
        let n = board.drain("node-1:7111", |p| p == b"payload");
        assert_eq!(n, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn distinct_nodes_never_share_a_file() {
        assert_ne!(hint_file("a:1"), hint_file("a_1"));
        assert!(hint_file("127.0.0.1:7111").ends_with(".hints"));
    }
}
