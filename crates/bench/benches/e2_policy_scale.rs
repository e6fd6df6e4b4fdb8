//! E2 — Table 1 at scale (requirement iv): policy lookup latency as the
//! identity–attribute mapping grows.
//!
//! Regenerates: lookup latency vs. table population for (a) the paper's
//! flat "access list" shape and (b) the indexed PolicyDb, plus the
//! retrieval join.

use mws_bench::Bench;
use mws_store::{PolicyDb, StorageKind};

/// The flat access-list the Perl prototype used: a Vec scanned linearly.
struct FlatAccessList {
    rows: Vec<(String, String, u64)>,
}

impl FlatAccessList {
    fn attributes_for(&self, identity: &str) -> Vec<(u64, String)> {
        self.rows
            .iter()
            .filter(|(id, _, _)| id == identity)
            .map(|(_, attr, aid)| (*aid, attr.clone()))
            .collect()
    }
}

fn populate(n_identities: usize, attrs_per_identity: usize) -> (PolicyDb, FlatAccessList) {
    let mut db = PolicyDb::open(StorageKind::Memory).unwrap();
    let mut flat = Vec::new();
    for i in 0..n_identities {
        let identity = format!("IDRC{i:05}");
        for a in 0..attrs_per_identity {
            let attribute = format!("ATTR-{:03}-{a}", i % 97);
            let aid = db.grant(&identity, &attribute).unwrap();
            flat.push((identity.clone(), attribute, aid));
        }
    }
    (db, FlatAccessList { rows: flat })
}

fn main() {
    let mut bench = Bench::new("e2_policy_scale");
    for n in [100usize, 1_000, 10_000] {
        let (db, flat) = populate(n, 4);
        // Probe an identity in the middle of the population.
        let probe = format!("IDRC{:05}", n / 2);

        bench.run(format!("indexed_lookup/{n}"), || {
            let got = db.attributes_for(&probe);
            assert_eq!(got.len(), 4);
            got
        });

        bench.run(format!("flat_scan_lookup/{n}"), || {
            let got = flat.attributes_for(&probe);
            assert_eq!(got.len(), 4);
            got
        });

        let attr = format!("ATTR-{:03}-0", (n / 2) % 97);
        bench.run(format!("has_access/{n}"), || db.has_access(&probe, &attr));
    }
    bench.finish();
}
