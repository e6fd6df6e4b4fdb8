//! Consistent-hash ring with virtual nodes (DESIGN.md §10).
//!
//! The in-process [`ShardRouter`](https://docs.rs) maps an attribute to one
//! of N WAL stripes with a bare `hash % N` — fine inside one process, where
//! changing the stripe count means re-opening the store anyway. Across
//! *machines* that scheme is disastrous: adding one warehouse node would
//! remap almost every attribute, forcing a near-total data migration. The
//! ring fixes that with the classic construction: every node projects
//! `vnodes` points onto a `u64` circle, a key is owned by the first point
//! at or clockwise of its hash, and replicas are the next distinct nodes
//! along the walk. Adding a node only captures the key ranges directly
//! behind its own points — an expected `keys/N` — and removing one only
//! reassigns the keys it owned (proved by the property tests).
//!
//! Placement hashes with the same [`fnv1a64`] the shard router uses, so
//! the whole placement story — attribute → node → shard — rests on one
//! stable function that never differs between builds or processes. The
//! ring passes it through a finalizer first; see [`position`].

use mws_wire::fnv1a64;

/// Virtual nodes projected per physical node by [`HashRing::new`]'s
/// callers unless they choose otherwise. 128 points per node keeps the
/// per-node load spread within a few percent at single-digit cluster
/// sizes while the ring stays small enough to rebuild on every
/// membership change (it is just a sorted `Vec`).
pub const DEFAULT_VNODES: usize = 128;

/// Where a byte string sits on the circle: [`fnv1a64`] through the
/// SplitMix64 finalizer. The circle is ordered by the *high* bits, and
/// FNV-1a's last multiply carries a trailing-byte difference no higher
/// than the middle of the word — so `"{name}#0"` … `"{name}#127"` (and
/// attribute strings that differ in their last characters) landed in a
/// handful of tight clusters. Measured on the bare hash: 4 nodes × 128
/// points owned 55 % / 2 % / 13 % / 29 % of the circle. The finalizer
/// spreads every input bit over the whole word.
fn position(bytes: &[u8]) -> u64 {
    let z = fnv1a64(bytes);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring over `n` nodes, each projected as `vnodes`
/// points keyed `position("{name}#{v}")`.
///
/// The ring is immutable: membership changes build a new ring (cheap — a
/// sort of `n * vnodes` points) and swap it in, so lookups never lock.
///
/// ```
/// use mws_cluster::HashRing;
///
/// let names: Vec<String> = (0..3).map(|i| format!("node-{i}")).collect();
/// let ring = HashRing::new(&names, 128);
/// // Same key, same replicas — on every process that builds this ring.
/// assert_eq!(ring.replicas("ELECTRIC-APT-SV-CA", 2), ring.replicas("ELECTRIC-APT-SV-CA", 2));
/// // R distinct nodes, primary first.
/// let reps = ring.replicas("ELECTRIC-APT-SV-CA", 2);
/// assert_eq!(reps.len(), 2);
/// assert_ne!(reps[0], reps[1]);
/// ```
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(position, node index)`, sorted by position.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds a ring over the named nodes. Node *names* determine point
    /// placement, so two processes configured with the same member list
    /// (in any order — placement hashes the name, not the index) agree on
    /// ownership. Panics on an empty member list or zero vnodes.
    pub fn new(names: &[String], vnodes: usize) -> Self {
        assert!(!names.is_empty(), "a ring needs at least one node");
        assert!(vnodes > 0, "a node needs at least one virtual node");
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                points.push((position(format!("{name}#{v}").as_bytes()), idx));
            }
        }
        // Ties (two vnodes hashing identically) resolve to the lower node
        // index on every build — sort on the full tuple keeps it stable.
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        Self {
            points,
            nodes: names.len(),
        }
    }

    /// Number of physical nodes on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The first `r` distinct nodes at or clockwise of the key's hash —
    /// primary first. `r` is clamped to the node count.
    pub fn replicas(&self, key: &str, r: usize) -> Vec<usize> {
        let mut order = self.preference(key);
        order.truncate(r.min(self.nodes));
        order
    }

    /// Every node in ring-walk order from the key's hash: the replica set
    /// is the prefix, and the continuation is the sloppy-quorum overflow
    /// order — where writes spill when a preferred replica is down.
    pub fn preference(&self, key: &str) -> Vec<usize> {
        let h = position(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; self.nodes];
        let mut order = Vec::with_capacity(self.nodes);
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen[idx] {
                seen[idx] = true;
                order.push(idx);
                if order.len() == self.nodes {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node-{i}")).collect()
    }

    #[test]
    fn replicas_are_distinct_and_deterministic() {
        let ring = HashRing::new(&names(4), DEFAULT_VNODES);
        for i in 0..64 {
            let key = format!("ATTR-{i}");
            let reps = ring.replicas(&key, 3);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas are distinct nodes");
            assert_eq!(reps, ring.replicas(&key, 3), "stable across lookups");
        }
    }

    #[test]
    fn every_node_owns_about_its_share_of_the_circle() {
        // The defect the balance property found the first time it ran
        // (`thousand_vnode_ring_balances_within_tolerance`, case 0: one of
        // four nodes owned 111 of 293 keys): on the bare hash these shares
        // were 42 % / 6 % / 22 % / 30 % at 256 points per node.
        let names: Vec<String> = (0..4)
            .map(|i| format!("warehouse-{i}.example:7101"))
            .collect();
        for vnodes in [DEFAULT_VNODES, 256] {
            let points = HashRing::new(&names, vnodes).points;
            let mut share = [0.0; 4];
            let mut prev = points[points.len() - 1].0;
            for &(at, idx) in &points {
                share[idx] += at.wrapping_sub(prev) as f64 / 2f64.powi(64);
                prev = at;
            }
            let balanced = share.iter().all(|s| (0.15..0.35).contains(s));
            assert!(balanced, "{vnodes} points per node: {share:?}");
        }
    }

    #[test]
    fn replica_count_clamps_to_membership() {
        let ring = HashRing::new(&names(2), 16);
        assert_eq!(ring.replicas("A", 5).len(), 2);
        let solo = HashRing::new(&names(1), 16);
        assert_eq!(solo.replicas("A", 3), vec![0]);
    }

    #[test]
    fn preference_is_a_permutation() {
        let ring = HashRing::new(&names(5), 64);
        for i in 0..32 {
            let mut order = ring.preference(&format!("K{i}"));
            assert_eq!(order.len(), 5);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn member_order_does_not_move_placement() {
        // Two routers configured with the same members in different order
        // must agree on ownership (names place points, indices don't).
        let a = names(3);
        let b = vec![a[2].clone(), a[0].clone(), a[1].clone()];
        let ra = HashRing::new(&a, DEFAULT_VNODES);
        let rb = HashRing::new(&b, DEFAULT_VNODES);
        for i in 0..64 {
            let key = format!("ATTR-{i}");
            let owner_a = a[ra.replicas(&key, 1)[0]].clone();
            let owner_b = b[rb.replicas(&key, 1)[0]].clone();
            assert_eq!(owner_a, owner_b);
        }
    }

    #[test]
    fn removal_only_remaps_the_lost_nodes_keys() {
        // Dropping node 2 must not move any key it didn't own: survivors'
        // points are untouched, so a key's first surviving hit is stable.
        let full = HashRing::new(&names(3), DEFAULT_VNODES);
        let less = HashRing::new(&names(2), DEFAULT_VNODES);
        for i in 0..256 {
            let key = format!("ATTR-{i}");
            let before = full.replicas(&key, 1)[0];
            if before != 2 {
                assert_eq!(less.replicas(&key, 1)[0], before);
            }
        }
    }
}
