//! [`KvEngine`] — a log-structured key-value store.
//!
//! Architecture: every mutation is appended to a [`Segment`] WAL
//! (`put` / tombstone frames); the full live state is kept in an in-memory
//! B-tree (rebuilt by replay on open). Reads never touch storage. Compaction
//! rewrites the log to contain exactly the live rows.
//!
//! This is the "move to a DBMS" the paper's §VIII asks for, scoped to what
//! the MWS actually needs: point lookups, prefix scans and durable appends.

use crate::fault::FaultPlan;
use crate::segment::Segment;
use crate::stats::stats;
use crate::{Result, StoreError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const OP_PUT: u8 = 1;
const OP_DEL: u8 = 2;
/// A group-committed batch of `OP_PUT` sub-entries carried in ONE WAL
/// frame: the whole batch shares a single CRC, so recovery either replays
/// every row or discards the frame — a torn batch can never surface a
/// prefix of itself.
const OP_BATCH: u8 = 3;

/// Where the engine's WAL lives.
#[derive(Debug, Clone)]
pub enum StorageKind {
    /// Volatile (tests, benchmarks).
    Memory,
    /// Durable file at the given path.
    File(PathBuf),
    /// Any of the above with an injected-failure schedule attached — the
    /// `FaultStore` flavor used by the chaos harness. The shared
    /// [`FaultPlan`] handle steers which appends/syncs fail or tear.
    Faulty {
        /// The real storage underneath.
        base: Box<StorageKind>,
        /// The shared fault schedule.
        plan: FaultPlan,
    },
}

impl StorageKind {
    /// Wraps this kind with a fault-injection schedule.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        StorageKind::Faulty {
            base: Box::new(self),
            plan,
        }
    }

    /// The file path behind this kind, if it is file-backed.
    fn file_path(&self) -> Option<&Path> {
        match self {
            StorageKind::Memory => None,
            StorageKind::File(p) => Some(p),
            StorageKind::Faulty { base, .. } => base.file_path(),
        }
    }

    /// Opens the segment this kind describes, attaching any fault plan.
    fn open_segment(&self) -> Result<Segment> {
        match self {
            StorageKind::Memory => Ok(Segment::memory()),
            StorageKind::File(path) => Segment::open_file(path),
            StorageKind::Faulty { base, plan } => {
                let mut seg = base.open_segment()?;
                seg.attach_faults(plan.clone());
                Ok(seg)
            }
        }
    }
}

/// Log-structured KV store with an in-memory materialized state.
#[derive(Debug)]
pub struct KvEngine {
    wal: Segment,
    kind: StorageKind,
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Appends since the last compaction (compaction heuristic input).
    dead_writes: usize,
}

impl KvEngine {
    /// Opens an engine, replaying any existing WAL.
    pub fn open(kind: StorageKind) -> Result<Self> {
        if let Some(path) = kind.file_path() {
            // A sibling `.compact` file is debris from a compaction that
            // crashed before its atomic rename; the WAL is still the truth.
            let _ = std::fs::remove_file(path.with_extension("compact"));
        }
        let mut wal = kind.open_segment()?;
        let mut map = BTreeMap::new();
        let mut dead_writes = 0usize;
        let mut replayed = 0u64;
        let mut apply = |op: u8, key: Vec<u8>, value: Vec<u8>| -> Result<()> {
            match op {
                OP_PUT => {
                    if map.insert(key, value).is_some() {
                        dead_writes += 1;
                    }
                    Ok(())
                }
                OP_DEL => {
                    map.remove(&key);
                    dead_writes += 1;
                    Ok(())
                }
                _ => Err(StoreError::Codec("unknown op")),
            }
        };
        for (_, payload) in wal.iter()? {
            replayed += 1;
            if payload.first() == Some(&OP_BATCH) {
                for entry in decode_batch(&payload)? {
                    let (op, key, value) = decode_entry(&entry)?;
                    apply(op, key, value)?;
                }
            } else {
                let (op, key, value) = decode_entry(&payload)?;
                apply(op, key, value)?;
            }
        }
        stats().replayed_records.add(replayed);
        mws_obs::debug!(
            target: "mws_store",
            "engine opened",
            replayed = replayed,
            live_rows = map.len(),
            dead_writes = dead_writes as u64,
        );
        Ok(Self {
            wal,
            kind,
            map,
            dead_writes,
        })
    }

    /// Inserts or replaces a row.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.wal.append(&encode_entry(OP_PUT, key, value))?;
        if self.map.insert(key.to_vec(), value.to_vec()).is_some() {
            self.dead_writes += 1;
        }
        Ok(())
    }

    /// Inserts or replaces several rows through ONE group-committed WAL
    /// append: the batch rides in a single `OP_BATCH` frame under one CRC,
    /// so after a crash recovery replays either the whole batch or none of
    /// it. One call costs one `append` regardless of batch size — the
    /// storage half of the deposit group-commit protocol (DESIGN.md §9).
    ///
    /// An empty batch is a no-op; a single pair is written as [`Self::put`]
    /// writes it (identical WAL bytes to the unbatched path). The pairs move
    /// into the index, so a batch costs no copy of its keys or values.
    pub fn put_many(&mut self, pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Result<()> {
        let payload = match pairs.as_slice() {
            [] => return Ok(()),
            [(k, v)] => encode_entry(OP_PUT, k, v),
            _ => {
                let mut payload = Vec::with_capacity(
                    1 + pairs
                        .iter()
                        .map(|(k, v)| 4 + 5 + k.len() + v.len())
                        .sum::<usize>(),
                );
                payload.push(OP_BATCH);
                for (k, v) in &pairs {
                    let entry = encode_entry(OP_PUT, k, v);
                    payload.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                    payload.extend_from_slice(&entry);
                }
                payload
            }
        };
        self.wal.append(&payload)?;
        for (k, v) in pairs {
            if self.map.insert(k, v).is_some() {
                self.dead_writes += 1;
            }
        }
        Ok(())
    }

    /// Removes a row (idempotent).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.wal.append(&encode_entry(OP_DEL, key, &[]))?;
        self.map.remove(key);
        self.dead_writes += 1;
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.map.get(key).cloned())
    }

    /// True if the key exists.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates all live rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Vec<u8>)> {
        self.map.iter()
    }

    /// Durability point: flush + fsync the WAL (no-op for memory).
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Fraction of WAL appends that are dead (overwritten or deleted).
    pub fn garbage_ratio(&self) -> f64 {
        let total = self.map.len() + self.dead_writes;
        if total == 0 {
            0.0
        } else {
            self.dead_writes as f64 / total as f64
        }
    }

    /// Rewrites the WAL to contain exactly the live rows.
    ///
    /// File engines compact via a sibling `.compact` file followed by an
    /// atomic rename; memory engines rebuild in place.
    pub fn compact(&mut self) -> Result<()> {
        let start = Instant::now();
        let reclaimable = self.dead_writes;
        match self.kind.file_path() {
            None => {
                // The rewrite itself runs fault-free (it is a rebuild from
                // the in-memory truth, not a client write); the reopened WAL
                // keeps any attached fault schedule for subsequent appends.
                let mut fresh = Segment::memory();
                for (k, v) in &self.map {
                    fresh.append(&encode_entry(OP_PUT, k, v))?;
                }
                self.wal = fresh;
            }
            Some(path) => {
                let path = path.to_path_buf();
                let tmp = path.with_extension("compact");
                let _ = std::fs::remove_file(&tmp);
                {
                    let mut fresh = Segment::open_file(&tmp)?;
                    for (k, v) in &self.map {
                        fresh.append(&encode_entry(OP_PUT, k, v))?;
                    }
                    fresh.sync()?;
                }
                std::fs::rename(&tmp, path)?;
                self.wal = self.kind.open_segment()?;
            }
        }
        self.dead_writes = 0;
        stats().compactions.inc();
        stats().compaction_us.record_duration(start.elapsed());
        mws_obs::info!(
            target: "mws_store",
            "compaction complete",
            live_rows = self.map.len(),
            dropped_writes = reclaimable as u64,
            wal_bytes = self.wal.len_bytes(),
        );
        Ok(())
    }
}

fn encode_entry(op: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 + key.len() + value.len());
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    out
}

/// Splits an `OP_BATCH` frame into its length-prefixed sub-entries.
fn decode_batch(payload: &[u8]) -> Result<Vec<Vec<u8>>> {
    let mut rest = &payload[1..];
    let mut entries = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 4 {
            return Err(StoreError::Codec("batch length truncated"));
        }
        let n = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if rest.len() < 4 + n {
            return Err(StoreError::Codec("batch entry overruns frame"));
        }
        entries.push(rest[4..4 + n].to_vec());
        rest = &rest[4 + n..];
    }
    Ok(entries)
}

fn decode_entry(payload: &[u8]) -> Result<(u8, Vec<u8>, Vec<u8>)> {
    if payload.len() < 5 {
        return Err(StoreError::Codec("entry too short"));
    }
    let op = payload[0];
    let klen = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
    if payload.len() < 5 + klen {
        return Err(StoreError::Codec("key overruns entry"));
    }
    let key = payload[5..5 + klen].to_vec();
    let value = payload[5 + klen..].to_vec();
    Ok((op, key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut kv = KvEngine::open(StorageKind::Memory).unwrap();
        assert!(kv.is_empty());
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(kv.len(), 2);
        kv.put(b"a", b"updated").unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"updated");
        kv.delete(b"a").unwrap();
        assert!(kv.get(b"a").unwrap().is_none());
        assert!(!kv.contains(b"a"));
        assert!(kv.contains(b"b"));
        // Deleting a missing key is fine.
        kv.delete(b"zzz").unwrap();
    }

    #[test]
    fn replay_rebuilds_state() {
        let path = std::env::temp_dir().join(format!("mws-kv-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            kv.put(b"alive", b"yes").unwrap();
            kv.put(b"dead", b"soon").unwrap();
            kv.delete(b"dead").unwrap();
            kv.put(b"alive", b"still").unwrap();
            kv.sync().unwrap();
        }
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.get(b"alive").unwrap().unwrap(), b"still");
        assert!(kv.get(b"dead").unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_drops_garbage_and_preserves_state() {
        let path = std::env::temp_dir().join(format!("mws-kvc-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        for i in 0..100u32 {
            kv.put(b"hot", format!("v{i}").as_bytes()).unwrap();
        }
        kv.put(b"cold", b"1").unwrap();
        let before = kv.wal.len_bytes();
        assert!(kv.garbage_ratio() > 0.9);
        kv.compact().unwrap();
        assert!(kv.wal.len_bytes() < before / 10);
        assert_eq!(kv.garbage_ratio(), 0.0);
        assert_eq!(kv.get(b"hot").unwrap().unwrap(), b"v99");
        assert_eq!(kv.get(b"cold").unwrap().unwrap(), b"1");
        // Reopen after compaction.
        drop(kv);
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get(b"hot").unwrap().unwrap(), b"v99");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_wal_tail_recovers_valid_prefix() {
        let path = std::env::temp_dir().join(format!("mws-kv-torn-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            kv.put(b"a", b"1").unwrap();
            kv.put(b"b", b"2").unwrap();
            kv.sync().unwrap();
        }
        let durable_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            kv.put(b"c", b"3-never-fully-written").unwrap();
            kv.sync().unwrap();
        }
        // Crash mid-append: cut the file partway through the last frame.
        let full_len = std::fs::metadata(&path).unwrap().len();
        assert!(full_len > durable_len);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(durable_len + (full_len - durable_len) / 2)
            .unwrap();
        drop(f);

        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 2, "torn record discarded, prefix intact");
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(kv.get(b"b").unwrap().unwrap(), b"2");
        assert!(kv.get(b"c").unwrap().is_none());

        // The engine keeps working: new appends overwrite the torn tail
        // and survive the next replay.
        let mut kv = kv;
        kv.put(b"c", b"3").unwrap();
        kv.sync().unwrap();
        drop(kv);
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 3);
        assert_eq!(kv.get(b"c").unwrap().unwrap(), b"3");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_in_tail_discards_only_the_tail() {
        let path = std::env::temp_dir().join(format!("mws-kv-crc-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            kv.put(b"good", b"kept").unwrap();
            kv.sync().unwrap();
        }
        let prefix_len = std::fs::metadata(&path).unwrap().len() as usize;
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            kv.put(b"bad", b"bit-rotted").unwrap();
            kv.sync().unwrap();
        }
        // Flip a payload byte of the last record: its CRC no longer matches.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 1, "corrupt record dropped at the CRC check");
        assert_eq!(kv.get(b"good").unwrap().unwrap(), b"kept");
        assert!(kv.get(b"bad").unwrap().is_none());
        assert_eq!(kv.wal.len_bytes() as usize, prefix_len);
        std::fs::remove_file(&path).unwrap();
    }

    /// Seeds a file engine with live rows `a=1, b=2` plus garbage, returning
    /// the WAL path.
    fn seeded_wal(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mws-kv-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("compact"));
        let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        kv.put(b"a", b"1").unwrap();
        kv.put(b"doomed", b"x").unwrap();
        kv.delete(b"doomed").unwrap();
        kv.put(b"b", b"2").unwrap();
        kv.sync().unwrap();
        path
    }

    fn assert_consistent(path: &Path) {
        let kv = KvEngine::open(StorageKind::File(path.to_path_buf())).unwrap();
        assert_eq!(kv.len(), 2, "exactly the live rows");
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(kv.get(b"b").unwrap().unwrap(), b"2");
        assert!(kv.get(b"doomed").unwrap().is_none());
    }

    #[test]
    fn compact_interrupted_before_swap_recovers_from_wal() {
        // Crash model: the compaction wrote (part of) the .compact sibling
        // but died before the atomic rename. The original WAL is untouched,
        // so reopening must serve the same state and clear the debris.
        let path = seeded_wal("precswap");
        let tmp = path.with_extension("compact");
        // A half-written rewrite, torn mid-frame for good measure.
        std::fs::write(&tmp, [0xa7u8, 0xff, 0x00, 0x00]).unwrap();

        assert_consistent(&path);
        assert!(
            !tmp.exists(),
            "stale .compact debris removed on open, not left to shadow later compactions"
        );
        // The next compaction proceeds normally despite the earlier crash.
        let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        kv.compact().unwrap();
        assert_consistent(&path);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_interrupted_after_swap_recovers_from_new_wal() {
        // Crash model: the rename landed (the WAL *is* the compacted file)
        // but the process died before reopening it. A fresh open must see
        // the compacted state — nothing refers to the old log anymore.
        let path = seeded_wal("postswap");
        {
            let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            // Run the same rewrite compact() performs, then "crash": drop
            // everything without reopening the swapped file.
            let tmp = path.with_extension("compact");
            let mut fresh = Segment::open_file(&tmp).unwrap();
            for (k, v) in kv.iter() {
                fresh.append(&encode_entry(OP_PUT, k, v)).unwrap();
            }
            fresh.sync().unwrap();
            drop(fresh);
            std::fs::rename(&tmp, &path).unwrap();
        }
        assert_consistent(&path);
        // And the compacted log accepts new writes across another restart.
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            kv.put(b"c", b"3").unwrap();
            kv.sync().unwrap();
        }
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_append_failure_leaves_state_unchanged() {
        let plan = crate::FaultPlan::new();
        let mut kv = KvEngine::open(StorageKind::Memory.with_faults(plan.clone())).unwrap();
        kv.put(b"a", b"1").unwrap();
        plan.fail_append(plan.appends());
        assert!(matches!(kv.put(b"b", b"2"), Err(StoreError::Io(_))));
        assert!(kv.get(b"b").unwrap().is_none(), "failed put not applied");
        // The engine keeps working after the fault.
        kv.put(b"b", b"2").unwrap();
        assert_eq!(kv.get(b"b").unwrap().unwrap(), b"2");
    }

    #[test]
    fn injected_torn_append_discarded_on_reopen() {
        let path = std::env::temp_dir().join(format!("mws-kv-fault-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = crate::FaultPlan::new();
        {
            let kind = StorageKind::File(path.clone()).with_faults(plan.clone());
            let mut kv = KvEngine::open(kind).unwrap();
            kv.put(b"a", b"1").unwrap();
            kv.sync().unwrap();
            plan.tear_append(plan.appends());
            assert!(matches!(kv.put(b"b", b"2"), Err(StoreError::Io(_))));
            // Crash here: the torn frame is on disk past the valid prefix.
        }
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 1, "torn append discarded by recovery scan");
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_sync_failure_surfaces() {
        let plan = crate::FaultPlan::new();
        let mut kv = KvEngine::open(StorageKind::Memory.with_faults(plan.clone())).unwrap();
        kv.put(b"a", b"1").unwrap();
        plan.fail_sync(plan.syncs());
        assert!(matches!(kv.sync(), Err(StoreError::Io(_))));
        kv.sync().unwrap();
    }

    #[test]
    fn memory_compaction() {
        let mut kv = KvEngine::open(StorageKind::Memory).unwrap();
        for i in 0..50u32 {
            kv.put(b"k", format!("{i}").as_bytes()).unwrap();
        }
        kv.compact().unwrap();
        assert_eq!(kv.get(b"k").unwrap().unwrap(), b"49");
        assert_eq!(kv.garbage_ratio(), 0.0);
    }

    #[test]
    fn put_many_is_one_wal_append_and_replays() {
        let path = std::env::temp_dir().join(format!("mws-kv-batch-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
            let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                (0..5u8).map(|i| (vec![b'k', i], vec![b'v', i])).collect();
            kv.put_many(pairs).unwrap();
            kv.sync().unwrap();
            assert_eq!(kv.len(), 5);
        }
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 5, "whole batch replayed from one frame");
        assert_eq!(kv.get(&[b'k', 3]).unwrap().unwrap(), vec![b'v', 3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn put_many_counts_a_single_append() {
        let plan = crate::FaultPlan::new();
        let mut kv = KvEngine::open(StorageKind::Memory.with_faults(plan.clone())).unwrap();
        let before = plan.appends();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..8u8).map(|i| (vec![i], vec![i, i])).collect();
        kv.put_many(pairs).unwrap();
        assert_eq!(plan.appends(), before + 1, "8 rows, one WAL append");
        // Empty and singleton degenerate cleanly.
        kv.put_many(Vec::new()).unwrap();
        assert_eq!(plan.appends(), before + 1);
        kv.put_many(vec![(b"solo".to_vec(), b"v".to_vec())])
            .unwrap();
        assert_eq!(plan.appends(), before + 2);
        assert_eq!(kv.len(), 9);
    }

    #[test]
    fn torn_batch_append_is_all_or_nothing() {
        let path = std::env::temp_dir().join(format!("mws-kv-tbatch-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = crate::FaultPlan::new();
        {
            let kind = StorageKind::File(path.clone()).with_faults(plan.clone());
            let mut kv = KvEngine::open(kind).unwrap();
            kv.put(b"before", b"1").unwrap();
            kv.sync().unwrap();
            plan.tear_append(plan.appends());
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..4u8).map(|i| (vec![i], vec![i])).collect();
            assert!(kv.put_many(pairs).is_err());
        }
        let kv = KvEngine::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(kv.len(), 1, "no partial batch survives the torn frame");
        assert_eq!(kv.get(b"before").unwrap().unwrap(), b"1");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batched_rows_compact_and_overwrite_like_plain_puts() {
        let mut kv = KvEngine::open(StorageKind::Memory).unwrap();
        kv.put(b"a", b"old").unwrap();
        kv.put_many(vec![
            (b"a".to_vec(), b"new".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
        ])
        .unwrap();
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"new");
        assert!(kv.garbage_ratio() > 0.0, "overwrite inside a batch counted");
        kv.compact().unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get(b"a").unwrap().unwrap(), b"new");
    }

    #[test]
    fn binary_keys_and_values() {
        let mut kv = KvEngine::open(StorageKind::Memory).unwrap();
        let key = vec![0u8, 255, 1, 254];
        let val = (0..=255u8).collect::<Vec<_>>();
        kv.put(&key, &val).unwrap();
        assert_eq!(kv.get(&key).unwrap().unwrap(), val);
        // Empty value is distinct from absent.
        kv.put(b"empty", b"").unwrap();
        assert_eq!(kv.get(b"empty").unwrap(), Some(vec![]));
    }
}
