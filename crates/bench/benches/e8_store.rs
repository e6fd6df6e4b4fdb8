//! E8 — design decision D3: the prototype's flat files vs. the §VIII
//! "move to a DBMS" — attribute retrieval cost as the warehouse grows.
//!
//! Two access patterns:
//!
//! * **`narrow_*`** — the MWS's real shape: one attribute per
//!   apartment/meter (`ELECTRIC-<APT>`), so a retrieval touches ~10
//!   messages no matter how large the warehouse is. Here the index is O(1)
//!   in warehouse size and the flat scan is O(n) — this is the §VIII claim.
//! * **`broad_*`** — a degenerate shape (10 fleet-wide attributes, 10%
//!   selectivity): both layouts are Θ(result), so the flat file's better
//!   constant factors win. Included for honesty: a DBMS is *not* free when
//!   every query returns a constant fraction of the data.

use mws_bench::Bench;
use mws_store::{FlatFileStore, MessageDb, StorageKind};

/// Narrow shape: one attribute per ~10 messages (per-meter attributes).
fn populate_narrow(n: usize) -> (FlatFileStore, MessageDb, String) {
    let mut flat = FlatFileStore::memory();
    let mut db = MessageDb::open(StorageKind::Memory).unwrap();
    let n_attrs = (n / 10).max(1);
    for i in 0..n {
        let attr = format!("ELECTRIC-APT{:05}", i % n_attrs);
        let payload = format!("payload-{i}");
        flat.append(&attr, payload.as_bytes()).unwrap();
        db.insert(&attr, b"n", b"u", 3, payload.as_bytes(), "sd", i as u64)
            .unwrap();
    }
    let probe = format!("ELECTRIC-APT{:05}", n_attrs / 2);
    (flat, db, probe)
}

/// Broad shape: 10 fleet-wide attributes (10% selectivity).
fn populate_broad(n: usize) -> (FlatFileStore, MessageDb, String) {
    let mut flat = FlatFileStore::memory();
    let mut db = MessageDb::open(StorageKind::Memory).unwrap();
    for i in 0..n {
        let attr = format!("FLEET-{:02}", i % 10);
        let payload = format!("payload-{i}");
        flat.append(&attr, payload.as_bytes()).unwrap();
        db.insert(&attr, b"n", b"u", 3, payload.as_bytes(), "sd", i as u64)
            .unwrap();
    }
    (flat, db, "FLEET-05".to_string())
}

fn main() {
    let mut bench = Bench::new("e8_store");

    for n in [100usize, 1_000, 10_000, 100_000] {
        let (flat, db, probe) = populate_narrow(n);
        let expect = db.by_attribute(&probe).unwrap().len();
        assert!(expect >= 10, "narrow probe has ≥10 rows");

        bench.run(format!("narrow_flatfile_scan/{n}"), || {
            let got = flat.find_by_attribute(&probe).unwrap();
            assert_eq!(got.len(), expect);
            got
        });

        bench.run(format!("narrow_indexed_lookup/{n}"), || {
            let got = db.by_attribute(&probe).unwrap();
            assert_eq!(got.len(), expect);
            got
        });
    }

    for n in [1_000usize, 10_000] {
        let (flat, db, probe) = populate_broad(n);
        bench.run(format!("broad_flatfile_scan/{n}"), || {
            flat.find_by_attribute(&probe).unwrap()
        });
        bench.run(format!("broad_indexed_lookup/{n}"), || {
            db.by_attribute(&probe).unwrap()
        });
        // The incremental-poll shape retrieval actually uses.
        bench.run(format!("broad_indexed_since_tail/{n}"), || {
            db.by_attribute_since(&probe, (n - 10) as u64).unwrap()
        });
    }

    // Write side: append throughput for both layouts.
    let mut s = FlatFileStore::memory();
    let mut i = 0u64;
    bench.run("flatfile_append", || {
        s.append("ELECTRIC-A", &i.to_be_bytes()).unwrap();
        i += 1;
    });

    let mut db = MessageDb::open(StorageKind::Memory).unwrap();
    let mut i = 0u64;
    bench.run("messagedb_insert", || {
        db.insert("ELECTRIC-A", b"n", b"u", 3, &i.to_be_bytes(), "sd", i)
            .unwrap();
        i += 1;
    });

    bench.finish();
}
