//! The Message Database (MD) of Figure 3.
//!
//! "Once authenticated, `rP ‖ C ‖ (A ‖ Nonce)` is stored in the Message
//! Database" (§V.D). Rows keep the IBE component `U = rP`, the symmetric
//! ciphertext, the attribute string and nonce, plus provenance (depositing
//! device, logical timestamp). A secondary in-memory index maps attribute →
//! message ids so the MMS can serve "all records whose attribute field
//! matches" without a full scan (experiment E8 measures the difference
//! against the flat-file baseline).

use crate::engine::{KvEngine, StorageKind};
use crate::{Result, StoreError};
use mws_wire::{WireReader, WireWriter};
use std::collections::BTreeMap;

/// Message identifier (monotonically increasing).
pub type MessageId = u64;

/// One warehoused message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredMessage {
    /// Assigned id.
    pub id: MessageId,
    /// The attribute string `A` used for encryption (the MWS stores it in
    /// the clear — it needs it for access mapping; §V.A).
    pub attribute: String,
    /// Per-message nonce.
    pub nonce: Vec<u8>,
    /// Compressed encoding of `U = rP`.
    pub u: Vec<u8>,
    /// Symmetric cipher id (see `mws_ibe::CipherAlgo::wire_id`).
    pub algo: u8,
    /// The sealed symmetric ciphertext `C`.
    pub sealed: Vec<u8>,
    /// Identity of the depositing smart device.
    pub sd_id: String,
    /// Logical deposit timestamp.
    pub timestamp: u64,
}

/// One deposit awaiting storage — the row shape shared by the single and
/// batched deposit paths ([`MessageDb::insert_batch_dedup`],
/// [`crate::shard::ShardedMessageDb::deposit_batch`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingDeposit {
    /// Attribute string `A` the message was encrypted under.
    pub attribute: String,
    /// Per-message nonce (dedup key together with `sd_id`).
    pub nonce: Vec<u8>,
    /// Compressed encoding of `U = rP`.
    pub u: Vec<u8>,
    /// Symmetric cipher id.
    pub algo: u8,
    /// The sealed symmetric ciphertext `C`.
    pub sealed: Vec<u8>,
    /// Identity of the depositing smart device.
    pub sd_id: String,
    /// Logical deposit timestamp.
    pub timestamp: u64,
}

/// The message table plus its attribute index.
#[derive(Debug)]
pub struct MessageDb {
    kv: KvEngine,
    next_id: MessageId,
    /// Id-space striding for sharded deployments: this table only ever
    /// assigns ids congruent to its opening offset modulo `stride`, so N
    /// striped tables share one global id space without coordination. The
    /// unsharded default is `stride = 1`.
    stride: u64,
    by_attribute: BTreeMap<String, Vec<MessageId>>,
    /// Deposit origin `(sd_id, nonce)` → id, for idempotent retransmission
    /// handling. Rebuilt from the message rows on open, so it is exactly as
    /// durable as the messages themselves.
    by_origin: BTreeMap<Vec<u8>, MessageId>,
}

fn key_of(id: MessageId) -> Vec<u8> {
    let mut k = b"m/".to_vec();
    k.extend_from_slice(&id.to_be_bytes());
    k
}

/// Deduplication key for a deposit's origin `(sd_id, nonce)`.
/// Length-prefixed so no `(sd_id, nonce)` pair can collide with another.
fn origin_key(sd_id: &str, nonce: &[u8]) -> Vec<u8> {
    let mut k = (sd_id.len() as u32).to_le_bytes().to_vec();
    k.extend_from_slice(sd_id.as_bytes());
    k.extend_from_slice(nonce);
    k
}

fn encode(msg: &StoredMessage) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(msg.id)
        .string(&msg.attribute)
        .bytes(&msg.nonce)
        .bytes(&msg.u)
        .u8(msg.algo)
        .bytes(&msg.sealed)
        .string(&msg.sd_id)
        .u64(msg.timestamp);
    w.finish()
}

fn decode(row: &[u8]) -> Result<StoredMessage> {
    let mut r = WireReader::new(row);
    let msg = StoredMessage {
        id: r.u64()?,
        attribute: r.string()?,
        nonce: r.bytes()?,
        u: r.bytes()?,
        algo: r.u8()?,
        sealed: r.bytes()?,
        sd_id: r.string()?,
        timestamp: r.u64()?,
    };
    r.finish()?;
    Ok(msg)
}

impl MessageDb {
    /// Opens the table, rebuilding the attribute index by replay.
    pub fn open(kind: StorageKind) -> Result<Self> {
        Self::open_with_stride(kind, 0, 1)
    }

    /// Opens the table with a strided id space: every id this table
    /// assigns is congruent to `offset` modulo `stride`. Shard k of an
    /// n-way warehouse opens with `(k, n)` so ids stay globally unique
    /// and `id % n` routes reads back to the owning shard.
    pub fn open_with_stride(kind: StorageKind, offset: u64, stride: u64) -> Result<Self> {
        assert!(stride > 0 && offset < stride, "offset must be < stride");
        let kv = KvEngine::open(kind)?;
        let mut next_id = offset;
        let mut by_attribute: BTreeMap<String, Vec<MessageId>> = BTreeMap::new();
        let mut by_origin = BTreeMap::new();
        for (_, row) in kv.iter() {
            let msg = decode(row)?;
            next_id = next_id.max(msg.id + stride);
            by_origin.insert(origin_key(&msg.sd_id, &msg.nonce), msg.id);
            by_attribute.entry(msg.attribute).or_default().push(msg.id);
        }
        for ids in by_attribute.values_mut() {
            ids.sort_unstable();
        }
        Ok(Self {
            kv,
            next_id,
            stride,
            by_attribute,
            by_origin,
        })
    }

    /// Inserts a message, assigning and returning its id.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        attribute: &str,
        nonce: &[u8],
        u: &[u8],
        algo: u8,
        sealed: &[u8],
        sd_id: &str,
        timestamp: u64,
    ) -> Result<MessageId> {
        let id = self.next_id;
        let msg = StoredMessage {
            id,
            attribute: attribute.to_string(),
            nonce: nonce.to_vec(),
            u: u.to_vec(),
            algo,
            sealed: sealed.to_vec(),
            sd_id: sd_id.to_string(),
            timestamp,
        };
        self.kv.put(&key_of(id), &encode(&msg))?;
        self.next_id += self.stride;
        self.by_origin.insert(origin_key(sd_id, nonce), id);
        self.by_attribute.entry(msg.attribute).or_default().push(id);
        Ok(id)
    }

    /// Group-commits a batch of deposits in ONE WAL append: all fresh rows
    /// share a single frame (and, after the caller's [`Self::sync`], a
    /// single fsync), which is what makes batched deposits cheap. Per row
    /// the result mirrors [`Self::insert_dedup`] — `(id, fresh)` where a
    /// duplicate origin (against the table or an earlier row of the same
    /// batch) returns the already-assigned id with `fresh = false`.
    ///
    /// All-or-nothing: on append failure no id is consumed and no index is
    /// touched, so a retry after a torn append starts from clean state.
    pub fn insert_batch_dedup(
        &mut self,
        rows: &[PendingDeposit],
    ) -> Result<Vec<(MessageId, bool)>> {
        let mut results = Vec::with_capacity(rows.len());
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(rows.len());
        let mut staged: BTreeMap<Vec<u8>, MessageId> = BTreeMap::new();
        let mut next = self.next_id;
        for row in rows {
            let okey = origin_key(&row.sd_id, &row.nonce);
            if let Some(&id) = self.by_origin.get(&okey).or_else(|| staged.get(&okey)) {
                results.push((id, false));
                continue;
            }
            let id = next;
            next += self.stride;
            staged.insert(okey, id);
            let msg = StoredMessage {
                id,
                attribute: row.attribute.clone(),
                nonce: row.nonce.clone(),
                u: row.u.clone(),
                algo: row.algo,
                sealed: row.sealed.clone(),
                sd_id: row.sd_id.clone(),
                timestamp: row.timestamp,
            };
            pairs.push((key_of(id), encode(&msg)));
            results.push((id, true));
        }
        // One frame, one CRC: the WAL either replays every fresh row or
        // none. Indices and the id cursor commit only after the append
        // succeeds, so a failed batch leaves the table untouched.
        self.kv.put_many(&pairs)?;
        self.next_id = next;
        for row in rows.iter() {
            let okey = origin_key(&row.sd_id, &row.nonce);
            if let Some(&id) = staged.get(&okey) {
                if self.by_origin.insert(okey, id).is_none() {
                    self.by_attribute
                        .entry(row.attribute.clone())
                        .or_default()
                        .push(id);
                }
            }
        }
        Ok(results)
    }

    /// Like [`Self::insert`], but idempotent on the deposit origin
    /// `(sd_id, nonce)`: a retransmission of an already-stored deposit —
    /// even one from before a crash and restart — returns the original id
    /// with `fresh = false` instead of storing a second copy. The origin
    /// index is rebuilt from the message rows on open, so the guarantee is
    /// exactly as durable as the message itself.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_dedup(
        &mut self,
        attribute: &str,
        nonce: &[u8],
        u: &[u8],
        algo: u8,
        sealed: &[u8],
        sd_id: &str,
        timestamp: u64,
    ) -> Result<(MessageId, bool)> {
        if let Some(&id) = self.by_origin.get(&origin_key(sd_id, nonce)) {
            return Ok((id, false));
        }
        let id = self.insert(attribute, nonce, u, algo, sealed, sd_id, timestamp)?;
        Ok((id, true))
    }

    /// Fetches one message.
    pub fn get(&self, id: MessageId) -> Result<StoredMessage> {
        match self.kv.get(&key_of(id))? {
            Some(row) => decode(&row),
            None => Err(StoreError::NotFound),
        }
    }

    /// All messages carrying exactly this attribute, oldest first.
    pub fn by_attribute(&self, attribute: &str) -> Result<Vec<StoredMessage>> {
        let Some(ids) = self.by_attribute.get(attribute) else {
            return Ok(Vec::new());
        };
        ids.iter().map(|&id| self.get(id)).collect()
    }

    /// Union over several attributes, deduplicated, oldest first.
    pub fn by_attributes(&self, attributes: &[String]) -> Result<Vec<StoredMessage>> {
        let mut ids: Vec<MessageId> = attributes
            .iter()
            .filter_map(|a| self.by_attribute.get(a))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.iter().map(|&id| self.get(id)).collect()
    }

    /// Messages newer than a logical timestamp for one attribute.
    pub fn by_attribute_since(&self, attribute: &str, since: u64) -> Result<Vec<StoredMessage>> {
        Ok(self
            .by_attribute(attribute)?
            .into_iter()
            .filter(|m| m.timestamp >= since)
            .collect())
    }

    /// Deletes every message with `timestamp < before` (retention sweep).
    /// Returns how many rows were removed. Compacts the WAL when the sweep
    /// leaves a majority of dead appends behind.
    pub fn purge_before(&mut self, before: u64) -> Result<usize> {
        let victims: Vec<StoredMessage> = self
            .kv
            .iter()
            .map(|(_, row)| decode(row))
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .filter(|m| m.timestamp < before)
            .collect();
        for msg in &victims {
            self.kv.delete(&key_of(msg.id))?;
            self.by_origin.remove(&origin_key(&msg.sd_id, &msg.nonce));
            if let Some(ids) = self.by_attribute.get_mut(&msg.attribute) {
                ids.retain(|x| *x != msg.id);
                if ids.is_empty() {
                    self.by_attribute.remove(&msg.attribute);
                }
            }
        }
        if self.kv.garbage_ratio() > 0.5 {
            self.kv.compact()?;
        }
        Ok(victims.len())
    }

    /// Deletes every message carrying exactly `attribute` (replica-plane
    /// handover: this node is no longer in the attribute's replica set).
    /// Returns how many rows were removed; compacts like
    /// [`Self::purge_before`] when the sweep leaves mostly garbage.
    pub fn evict_attribute(&mut self, attribute: &str) -> Result<usize> {
        let Some(ids) = self.by_attribute.remove(attribute) else {
            return Ok(0);
        };
        for &id in &ids {
            let msg = self.get(id)?;
            self.kv.delete(&key_of(id))?;
            self.by_origin.remove(&origin_key(&msg.sd_id, &msg.nonce));
        }
        if self.kv.garbage_ratio() > 0.5 {
            self.kv.compact()?;
        }
        Ok(ids.len())
    }

    /// Number of stored messages.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }

    /// Distinct attributes present.
    pub fn attributes(&self) -> Vec<String> {
        self.by_attribute.keys().cloned().collect()
    }

    /// Durability point.
    pub fn sync(&mut self) -> Result<()> {
        self.kv.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(db: &mut MessageDb, attr: &str, sd: &str, ts: u64) -> MessageId {
        db.insert(attr, b"n", b"\x02u-bytes", 3, b"sealed", sd, ts)
            .unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        let id = db
            .insert(
                "ELECTRIC-APT-SV-CA",
                b"nonce9",
                b"\x02abc",
                1,
                b"ciphertext",
                "meter-7",
                42,
            )
            .unwrap();
        let msg = db.get(id).unwrap();
        assert_eq!(msg.attribute, "ELECTRIC-APT-SV-CA");
        assert_eq!(msg.nonce, b"nonce9");
        assert_eq!(msg.algo, 1);
        assert_eq!(msg.sd_id, "meter-7");
        assert_eq!(msg.timestamp, 42);
        assert!(matches!(db.get(id + 1), Err(StoreError::NotFound)));
    }

    #[test]
    fn attribute_index() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        mk(&mut db, "ELECTRIC", "m1", 1);
        mk(&mut db, "WATER", "m2", 2);
        mk(&mut db, "ELECTRIC", "m3", 3);
        let elec = db.by_attribute("ELECTRIC").unwrap();
        assert_eq!(elec.len(), 2);
        assert!(elec[0].timestamp < elec[1].timestamp);
        assert_eq!(db.by_attribute("GAS").unwrap().len(), 0);
        assert_eq!(db.attributes(), vec!["ELECTRIC", "WATER"]);
    }

    #[test]
    fn multi_attribute_union_dedups() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        mk(&mut db, "A", "m", 1);
        mk(&mut db, "B", "m", 2);
        mk(&mut db, "A", "m", 3);
        let got = db
            .by_attributes(&["A".into(), "B".into(), "A".into()])
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got.iter().map(|m| m.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn since_filter() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        for ts in 1..=5 {
            mk(&mut db, "A", "m", ts);
        }
        assert_eq!(db.by_attribute_since("A", 3).unwrap().len(), 3);
        assert_eq!(db.by_attribute_since("A", 6).unwrap().len(), 0);
    }

    #[test]
    fn purge_before_sweeps_and_reindexes() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        for ts in 1..=10 {
            mk(&mut db, if ts % 2 == 0 { "EVEN" } else { "ODD" }, "m", ts);
        }
        assert_eq!(db.purge_before(6).unwrap(), 5);
        assert_eq!(db.len(), 5);
        // Index reflects the sweep.
        assert_eq!(db.by_attribute("ODD").unwrap().len(), 2); // ts 7, 9
        assert_eq!(db.by_attribute("EVEN").unwrap().len(), 3); // ts 6, 8, 10
                                                               // Idempotent.
        assert_eq!(db.purge_before(6).unwrap(), 0);
        // Purging everything clears the attribute index.
        assert_eq!(db.purge_before(u64::MAX).unwrap(), 5);
        assert!(db.attributes().is_empty());
        // Ids are not reused after a purge.
        let id = mk(&mut db, "NEW", "m", 99);
        assert_eq!(id, 10);
    }

    #[test]
    fn purge_survives_reopen() {
        let path = std::env::temp_dir().join(format!("mws-mdp-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            for ts in 1..=6 {
                mk(&mut db, "A", "m", ts);
            }
            assert_eq!(db.purge_before(4).unwrap(), 3);
            db.sync().unwrap();
        }
        let db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.by_attribute("A").unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evict_attribute_sweeps_rows_index_and_origins() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        for ts in 1..=4 {
            db.insert("GONE", &[ts as u8], b"\x02u", 1, b"c", "m", ts)
                .unwrap();
        }
        mk(&mut db, "KEPT", "m", 9);
        assert_eq!(db.evict_attribute("GONE").unwrap(), 4);
        assert_eq!(db.len(), 1);
        assert!(db.by_attribute("GONE").unwrap().is_empty());
        assert_eq!(db.attributes(), vec!["KEPT"]);
        // The origin index forgot the evicted rows: a re-push of one is
        // fresh again (the node may re-inherit the arc later).
        let (_, fresh) = db
            .insert_dedup("GONE", &[1], b"\x02u", 1, b"c", "m", 1)
            .unwrap();
        assert!(fresh, "evicted origin must not shadow a re-inherited row");
        // Idempotent.
        db.evict_attribute("GONE").unwrap();
        assert_eq!(db.evict_attribute("NEVER").unwrap(), 0);
    }

    #[test]
    fn insert_dedup_is_idempotent_per_origin() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        let (id, fresh) = db
            .insert_dedup("A", b"nonce-1", b"\x02u", 1, b"c", "meter", 5)
            .unwrap();
        assert!(fresh);
        // Retransmission of the same deposit: same id, nothing stored.
        let (again, fresh) = db
            .insert_dedup("A", b"nonce-1", b"\x02u", 1, b"c", "meter", 5)
            .unwrap();
        assert_eq!(again, id);
        assert!(!fresh);
        assert_eq!(db.len(), 1);
        // Same nonce from a *different* device is a different origin.
        let (other, fresh) = db
            .insert_dedup("A", b"nonce-1", b"\x02u", 1, b"c", "meter-2", 5)
            .unwrap();
        assert!(fresh);
        assert_ne!(other, id);
    }

    #[test]
    fn insert_dedup_survives_reopen() {
        // The crash-between-store-and-ack case: the deposit is on disk, the
        // ack was lost, the warehouse restarted, and the device retransmits.
        let path = std::env::temp_dir().join(format!("mws-md-dedup-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let id = {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            let (id, fresh) = db
                .insert_dedup("A", b"nonce-9", b"\x02u", 1, b"c", "meter", 5)
                .unwrap();
            assert!(fresh);
            db.sync().unwrap();
            id
        };
        let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        let (again, fresh) = db
            .insert_dedup("A", b"nonce-9", b"\x02u", 1, b"c", "meter", 5)
            .unwrap();
        assert_eq!(again, id, "retransmit after restart maps to the stored row");
        assert!(!fresh);
        assert_eq!(db.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    fn pending(attr: &str, nonce: &[u8], sd: &str, ts: u64) -> PendingDeposit {
        PendingDeposit {
            attribute: attr.to_string(),
            nonce: nonce.to_vec(),
            u: b"\x02u".to_vec(),
            algo: 1,
            sealed: b"c".to_vec(),
            sd_id: sd.to_string(),
            timestamp: ts,
        }
    }

    #[test]
    fn strided_ids_stay_in_the_residue_class() {
        let mut db = MessageDb::open_with_stride(StorageKind::Memory, 2, 4).unwrap();
        let a = mk(&mut db, "A", "m1", 1);
        let b = mk(&mut db, "A", "m2", 2);
        assert_eq!(a, 2);
        assert_eq!(b, 6);
    }

    #[test]
    fn strided_reopen_continues_the_stripe() {
        let path = std::env::temp_dir().join(format!("mws-md-stride-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db =
                MessageDb::open_with_stride(StorageKind::File(path.clone()), 1, 3).unwrap();
            assert_eq!(mk(&mut db, "A", "m", 1), 1);
            assert_eq!(mk(&mut db, "A", "m2", 2), 4);
            db.sync().unwrap();
        }
        let mut db = MessageDb::open_with_stride(StorageKind::File(path.clone()), 1, 3).unwrap();
        assert_eq!(mk(&mut db, "A", "m3", 3), 7, "replay resumes after max id");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_dedup_against_table_and_within_batch() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        let (prior, _) = db
            .insert_dedup("A", b"n0", b"\x02u", 1, b"c", "m", 1)
            .unwrap();
        let rows = vec![
            pending("A", b"n0", "m", 1), // dup of the stored row
            pending("B", b"n1", "m", 2), // fresh
            pending("B", b"n1", "m", 2), // dup within the batch
            pending("C", b"n2", "m2", 3),
        ];
        let got = db.insert_batch_dedup(&rows).unwrap();
        assert_eq!(got[0], (prior, false));
        assert!(got[1].1);
        assert_eq!(got[2], (got[1].0, false));
        assert!(got[3].1);
        assert_eq!(db.len(), 3);
        assert_eq!(db.by_attribute("B").unwrap().len(), 1);
    }

    #[test]
    fn batch_survives_reopen_with_indices() {
        let path = std::env::temp_dir().join(format!("mws-md-batch-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            let rows: Vec<PendingDeposit> = (0..6u8)
                .map(|i| pending("A", &[i], "m", i as u64))
                .collect();
            assert!(db.insert_batch_dedup(&rows).unwrap().iter().all(|r| r.1));
            db.sync().unwrap();
        }
        let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(db.len(), 6);
        assert_eq!(db.by_attribute("A").unwrap().len(), 6);
        // Origin dedup holds across the reopen for batched rows too.
        let again = db
            .insert_batch_dedup(&[pending("A", &[3], "m", 3)])
            .unwrap();
        assert!(!again[0].1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_batch_leaves_the_table_clean() {
        let plan = crate::FaultPlan::new();
        let mut db = MessageDb::open(StorageKind::Memory.with_faults(plan.clone())).unwrap();
        mk(&mut db, "A", "m0", 1);
        plan.fail_append(plan.appends());
        let rows = vec![pending("B", b"x", "m", 2), pending("B", b"y", "m", 3)];
        assert!(db.insert_batch_dedup(&rows).is_err());
        assert_eq!(db.len(), 1, "no partial state from the failed batch");
        assert!(db.by_attribute("B").unwrap().is_empty());
        // A retry reuses the ids the failed batch never consumed.
        let got = db.insert_batch_dedup(&rows).unwrap();
        assert_eq!(got[0].0, 1);
        assert!(got.iter().all(|r| r.1));
    }

    #[test]
    fn reopen_rebuilds_index_and_ids() {
        let path = std::env::temp_dir().join(format!("mws-md-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            mk(&mut db, "A", "m1", 1);
            mk(&mut db, "B", "m2", 2);
            db.sync().unwrap();
        }
        let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.by_attribute("A").unwrap().len(), 1);
        // New ids continue after the persisted maximum.
        let id = mk(&mut db, "A", "m3", 3);
        assert_eq!(id, 2);
        std::fs::remove_file(&path).unwrap();
    }
}
