//! Property-based tests: the KvEngine must behave exactly like a model
//! `BTreeMap` under any operation sequence, including across reopen.

use mws_prop::{cases, Gen};
use mws_store::{KvEngine, StorageKind};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Del(Vec<u8>),
    Compact,
}

/// Puts, deletes and compactions weighted 4 : 2 : 1.
fn arb_op(g: &mut Gen) -> Op {
    match g.size(0..7) {
        0..=3 => Op::Put(g.bytes(1..8), g.bytes(0..24)),
        4..=5 => Op::Del(g.bytes(1..8)),
        _ => Op::Compact,
    }
}

#[test]
fn engine_matches_model() {
    cases(64, |g| g.vec(0..60, arb_op)).check(|ops| {
        let mut kv = KvEngine::open(StorageKind::Memory).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    kv.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Del(k) => {
                    kv.delete(k).unwrap();
                    model.remove(k);
                }
                Op::Compact => kv.compact().unwrap(),
            }
            assert_eq!(kv.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(kv.get(k).unwrap(), Some(v.clone()));
        }
        // Full iteration agrees.
        let got: Vec<_> = kv.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, want);
    });
}

#[test]
fn file_engine_reopen_matches_model() {
    cases(64, |g| (g.vec(0..40, arb_op), g.size(0..40))).check(|(ops, reopen_at)| {
        // Cases run one after another, so one path per process does.
        let path = std::env::temp_dir().join(format!("mws-prop-{}-reopen.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            if i == reopen_at {
                kv.sync().unwrap();
                drop(kv);
                kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            }
            match op {
                Op::Put(k, v) => {
                    kv.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Del(k) => {
                    kv.delete(k).unwrap();
                    model.remove(k);
                }
                Op::Compact => kv.compact().unwrap(),
            }
        }
        kv.sync().unwrap();
        drop(kv);
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), model.len());
        for (k, v) in &model {
            assert_eq!(kv.get(k).unwrap(), Some(v.clone()));
        }
        std::fs::remove_file(&path).unwrap();
    });
}
