//! Property-based tests for the consistent-hash ring: balance within
//! tolerance across ~1k virtual nodes, and minimal disruption when
//! membership changes (the two properties that make ring routing safe to
//! deploy — a hash that clumped or a membership edit that remapped the
//! world would both show up here).

use mws_cluster::{plan_transfers, HashRing};
use mws_prop::{cases, Gen};

fn names(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("warehouse-{i}.example:7101"))
        .collect()
}

/// Keys that look like the deposit path's attribute strings.
fn arb_keys(g: &mut Gen) -> Vec<String> {
    let mut keys = std::collections::BTreeSet::new();
    for _ in 0..g.size(256..512) {
        let letters = g.string("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 2..9);
        let mut key = format!("{letters}-{}", g.string("0123456789", 1..7));
        // Distinct on any tape (a shrunk one repeats itself): a taken key
        // moves on to the first free number.
        let mut n = 0;
        while keys.contains(&key) {
            key = format!("{letters}-{n}");
            n += 1;
        }
        keys.insert(key);
    }
    keys.into_iter().collect()
}

/// With ~1k vnodes (4 nodes × 256), every node's share of primary
/// ownership lands within ±50% of the fair 1/N — loose enough for
/// hash variance on a few hundred keys, tight enough to catch a
/// clumped ring (an unbalanced ring concentrates 2–3× on one node).
#[test]
fn thousand_vnode_ring_balances_within_tolerance() {
    cases(24, arb_keys).check(|keys| {
        let n = 4;
        let ring = HashRing::new(&names(n), 256);
        let mut counts = vec![0usize; n];
        for key in &keys {
            counts[ring.replicas(key, 1)[0]] += 1;
        }
        let fair = keys.len() as f64 / n as f64;
        for (idx, &c) in counts.iter().enumerate() {
            let share = c as f64;
            assert!(
                share > fair * 0.5 && share < fair * 1.5,
                "node {idx} owns {c} of {} keys (fair {fair:.0})",
                keys.len()
            );
        }
    });
}

/// Replica sets (R = 2) spread load too: no node appears in more
/// than twice its fair share of replica slots.
#[test]
fn replica_slots_balance() {
    cases(24, arb_keys).check(|keys| {
        let n = 4;
        let r = 2;
        let ring = HashRing::new(&names(n), 256);
        let mut counts = vec![0usize; n];
        for key in &keys {
            for idx in ring.replicas(key, r) {
                counts[idx] += 1;
            }
        }
        let fair = (keys.len() * r) as f64 / n as f64;
        for (idx, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) < fair * 2.0,
                "node {idx} holds {c} replica slots (fair {fair:.0})"
            );
        }
    });
}

/// Adding one node to an N-node ring remaps at most keys/(N+1) plus
/// slack — the minimal-disruption property that makes scale-out a
/// bounded migration instead of a full reshuffle.
#[test]
fn adding_a_node_remaps_minimally() {
    cases(24, |g| (arb_keys(g), g.size(2..6))).check(|(keys, n)| {
        let before = HashRing::new(&names(n), 128);
        let after = HashRing::new(&names(n + 1), 128);
        let moved = keys
            .iter()
            .filter(|k| before.replicas(k, 1)[0] != after.replicas(k, 1)[0])
            .count();
        // Expected keys/(N+1); allow 2× for hash variance plus a small
        // additive floor for tiny samples.
        let bound = (keys.len() as f64 * 2.0 / (n + 1) as f64) + 8.0;
        assert!(
            (moved as f64) <= bound,
            "{moved} of {} keys moved adding node {} (bound {bound:.0})",
            keys.len(),
            n + 1
        );
        // And every key that moved, moved TO the new node: growth never
        // shuffles keys between survivors.
        for key in &keys {
            let (b, a) = (before.replicas(key, 1)[0], after.replicas(key, 1)[0]);
            if b != a {
                assert_eq!(a, n, "key moved between surviving nodes");
            }
        }
    });
}

/// Removing a node remaps exactly the keys it owned: survivors' keys
/// never move (their first surviving ring point is untouched).
#[test]
fn removing_a_node_strands_no_survivor_keys() {
    cases(24, |g| (arb_keys(g), g.size(3..7))).check(|(keys, n)| {
        let full = HashRing::new(&names(n), 128);
        let less = HashRing::new(&names(n - 1), 128);
        for key in &keys {
            let owner = full.replicas(key, 1)[0];
            if owner != n - 1 {
                assert_eq!(less.replicas(key, 1)[0], owner);
            }
        }
    });
}

/// The full replica set is stable under growth for most keys: a key
/// whose R-set avoids the new node keeps its exact R-set.
#[test]
fn replica_sets_only_change_toward_the_new_node() {
    cases(24, |g| (arb_keys(g), g.size(2..6))).check(|(keys, n)| {
        let before = HashRing::new(&names(n), 128);
        let after = HashRing::new(&names(n + 1), 128);
        for key in &keys {
            let b = before.replicas(key, 2);
            let a = after.replicas(key, 2);
            if !a.contains(&n) {
                assert_eq!(&b, &a, "R-set changed without involving the new node");
            }
        }
    });
}

/// The rebalance planner is minimal and complete for a join: an
/// attribute appears in the plan *iff* its R-replica set changed, so
/// the membership change moves exactly the remapped rows. Per arc,
/// the role lists are the literal set differences — donors are the
/// full old set, newcomers `new − old`, departed `old − new` — and
/// the two diffs never overlap.
#[test]
fn join_plan_is_exactly_the_remapped_diff() {
    cases(24, |g| (arb_keys(g), g.size(2..6))).check(|(keys, n)| {
        assert!(plan_is_exactly_the_remapped_diff(
            &names(n),
            &names(n + 1),
            &keys
        ));
    });
}

/// Same contract for a drain: the plan covers every attribute the
/// leaving node replicated and nothing else, with the same set-diff
/// role lists — the property the "zero loss, exactly R copies after"
/// chaos scenarios lean on.
#[test]
fn drain_plan_is_exactly_the_remapped_diff() {
    cases(24, |g| (arb_keys(g), g.size(3..7))).check(|(keys, n)| {
        assert!(plan_is_exactly_the_remapped_diff(
            &names(n),
            &names(n - 1),
            &keys
        ));
    });
}

/// Shared checker for the planner properties: compares `plan_transfers`
/// against an independent per-attribute recomputation of both rings.
fn plan_is_exactly_the_remapped_diff(old: &[String], new: &[String], keys: &[String]) -> bool {
    const R: usize = 2;
    const VNODES: usize = 128;
    let old_ring = HashRing::new(old, VNODES);
    let new_ring = HashRing::new(new, VNODES);
    let plan = plan_transfers(old, new, VNODES, R, keys);
    for key in keys {
        let old_set: Vec<&String> = old_ring
            .replicas(key, R)
            .into_iter()
            .map(|i| &old[i])
            .collect();
        let new_set: Vec<&String> = new_ring
            .replicas(key, R)
            .into_iter()
            .map(|i| &new[i])
            .collect();
        let changed =
            old_set.len() != new_set.len() || old_set.iter().any(|m| !new_set.contains(m));
        let arc = plan.iter().find(|a| &a.attribute == key);
        // Minimality AND completeness: planned iff remapped.
        if changed != arc.is_some() {
            return false;
        }
        let Some(arc) = arc else { continue };
        let donors: Vec<&String> = arc.donors.iter().collect();
        let newcomers: Vec<&String> = arc.newcomers.iter().collect();
        let departed: Vec<&String> = arc.departed.iter().collect();
        let want_new: Vec<&String> = new_set
            .iter()
            .filter(|m| !old_set.contains(m))
            .copied()
            .collect();
        let want_out: Vec<&String> = old_set
            .iter()
            .filter(|m| !new_set.contains(m))
            .copied()
            .collect();
        if donors != old_set || newcomers != want_new || departed != want_out {
            return false;
        }
        // The diffs are disjoint, and every departed node really donates.
        if departed.iter().any(|m| newcomers.contains(m)) {
            return false;
        }
        if departed.iter().any(|m| !donors.contains(m)) {
            return false;
        }
    }
    true
}
