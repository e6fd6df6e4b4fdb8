//! The Message Database (MD) of Figure 3.
//!
//! "Once authenticated, `rP ‖ C ‖ (A ‖ Nonce)` is stored in the Message
//! Database" (§V.D). Rows keep the IBE component `U = rP`, the symmetric
//! ciphertext, the attribute string and nonce, plus provenance (depositing
//! device, logical timestamp). A secondary in-memory index maps attribute →
//! `(message id, timestamp)` entries so the MMS can serve "all records whose
//! attribute field matches" without a full scan (experiment E8 measures the
//! difference against the flat-file baseline), and so time-filtered reads,
//! pages and attribute evictions decode only the rows they return or remove.

use crate::engine::{KvEngine, StorageKind};
use crate::{Result, StoreError};
use mws_wire::{WireReader, WireWriter};
use std::collections::btree_map::{BTreeMap, Entry};

/// Message identifier (monotonically increasing).
pub type MessageId = u64;

/// One attribute-index entry: a row's id and its deposit timestamp.
type IndexEntry = (MessageId, u64);

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

/// One deposit awaiting storage — the row shape of the one deposit path
/// ([`MessageDb::insert_batch_dedup`],
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
    /// Attribute → its rows' `(id, timestamp)`, in id order.
    by_attribute: BTreeMap<String, Vec<IndexEntry>>,
    /// Deposit origin `(sd_id, nonce)` → id, for idempotent retransmission
    /// handling. Rebuilt from the message rows on open, so it is exactly as
    /// durable as the messages themselves.
    by_origin: BTreeMap<Vec<u8>, MessageId>,
}

fn key_of(id: MessageId) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + 8);
    k.extend_from_slice(b"m/");
    k.extend_from_slice(&id.to_be_bytes());
    k
}

/// Deduplication key for a deposit's origin `(sd_id, nonce)`.
/// Length-prefixed so no `(sd_id, nonce)` pair can collide with another.
fn origin_key(sd_id: &str, nonce: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(4 + sd_id.len() + nonce.len());
    k.extend_from_slice(&(sd_id.len() as u32).to_le_bytes());
    k.extend_from_slice(sd_id.as_bytes());
    k.extend_from_slice(nonce);
    k
}

/// Encodes row `id` straight from the deposit's fields, sized up front:
/// one allocation, and no copy of the row.
fn encode(id: MessageId, row: &PendingDeposit) -> Vec<u8> {
    // Two u64s, the algo byte and five u32 length prefixes, then the fields.
    let fields = row.attribute.len() + row.nonce.len() + row.u.len() + row.sealed.len();
    let mut bytes = Vec::with_capacity(8 + 8 + 1 + 5 * 4 + fields + row.sd_id.len());
    WireWriter::new(&mut bytes)
        .u64(id)
        .string(&row.attribute)
        .bytes(&row.nonce)
        .bytes(&row.u)
        .u8(row.algo)
        .bytes(&row.sealed)
        .string(&row.sd_id)
        .u64(row.timestamp);
    bytes
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
        let mut by_attribute: BTreeMap<String, Vec<IndexEntry>> = BTreeMap::new();
        let mut by_origin = BTreeMap::new();
        for (_, row) in kv.iter() {
            let msg = decode(row)?;
            next_id = next_id.max(msg.id + stride);
            by_origin.insert(origin_key(&msg.sd_id, &msg.nonce), msg.id);
            by_attribute
                .entry(msg.attribute)
                .or_default()
                .push((msg.id, msg.timestamp));
        }
        for entries in by_attribute.values_mut() {
            entries.sort_unstable();
        }
        Ok(Self {
            kv,
            next_id,
            stride,
            by_attribute,
            by_origin,
        })
    }

    /// Adds a stored row to the attribute index; the attribute string is
    /// copied only the first time the table sees it.
    fn index(&mut self, attribute: &str, id: MessageId, timestamp: u64) {
        match self.by_attribute.get_mut(attribute) {
            Some(entries) => entries.push((id, timestamp)),
            None => {
                self.by_attribute
                    .insert(attribute.to_string(), vec![(id, timestamp)]);
            }
        }
    }

    /// Stores deposits, idempotent on each deposit's origin
    /// `(sd_id, nonce)`, in ONE WAL append: the fresh rows share a single
    /// frame (and, after the caller's [`Self::sync`], a single fsync). Per
    /// row the result is `(id, fresh)`: a retransmission of a stored
    /// deposit — even one from before a crash and restart, or an earlier
    /// row of the same call — returns the already-assigned id with
    /// `fresh = false` instead of storing a second copy. The origin index
    /// is rebuilt from the message rows on open, so the guarantee is
    /// exactly as durable as the message itself.
    ///
    /// All-or-nothing: on append failure no id is consumed and no index is
    /// touched, so a retry after a torn append starts from clean state.
    pub fn insert_batch_dedup<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a PendingDeposit>,
    ) -> Result<Vec<(MessageId, bool)>> {
        let rows = rows.into_iter();
        let mut results = Vec::with_capacity(rows.size_hint().0);
        let mut pairs = Vec::with_capacity(rows.size_hint().0);
        let mut fresh: Vec<&PendingDeposit> = Vec::with_capacity(rows.size_hint().0);
        let mut next = self.next_id;
        for row in rows {
            // Staging the origin right away also catches a repeat inside
            // this call; a failed append unstages it below.
            match self.by_origin.entry(origin_key(&row.sd_id, &row.nonce)) {
                Entry::Occupied(stored) => results.push((*stored.get(), false)),
                Entry::Vacant(slot) => {
                    slot.insert(next);
                    pairs.push((key_of(next), encode(next, row)));
                    fresh.push(row);
                    results.push((next, true));
                    next += self.stride;
                }
            }
        }
        // One frame, one CRC: the WAL either replays every fresh row or
        // none. The attribute index and the id cursor commit only after
        // the append succeeds.
        if let Err(e) = self.kv.put_many(pairs) {
            for row in fresh {
                self.by_origin.remove(&origin_key(&row.sd_id, &row.nonce));
            }
            return Err(e);
        }
        let first = self.next_id;
        for (k, row) in fresh.into_iter().enumerate() {
            self.index(
                &row.attribute,
                first + k as u64 * self.stride,
                row.timestamp,
            );
        }
        self.next_id = next;
        Ok(results)
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
        self.ids_since(attribute, 0)
            .into_iter()
            .map(|id| self.get(id))
            .collect()
    }

    /// Union over several attributes, deduplicated, oldest first.
    pub fn by_attributes(&self, attributes: &[String]) -> Result<Vec<StoredMessage>> {
        let mut ids: Vec<MessageId> = attributes
            .iter()
            .flat_map(|a| self.ids_since(a, 0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.iter().map(|&id| self.get(id)).collect()
    }

    /// Ids of this attribute's messages with `timestamp ≥ since`, in id
    /// order, read from the index alone — nothing is decoded.
    pub fn ids_since(&self, attribute: &str, since: u64) -> Vec<MessageId> {
        self.by_attribute
            .get(attribute)
            .into_iter()
            .flatten()
            .filter(|&&(_, ts)| ts >= since)
            .map(|&(id, _)| id)
            .collect()
    }

    /// Messages newer than a logical timestamp for one attribute. Filters
    /// on the index, so only the returned rows are decoded.
    pub fn by_attribute_since(&self, attribute: &str, since: u64) -> Result<Vec<StoredMessage>> {
        self.ids_since(attribute, since)
            .into_iter()
            .map(|id| self.get(id))
            .collect()
    }

    /// Deletes one row and its dedup origin; the caller has already
    /// dropped its attribute-index entry.
    fn remove_row(&mut self, id: MessageId) -> Result<()> {
        let msg = self.get(id)?;
        self.kv.delete(&key_of(id))?;
        self.by_origin.remove(&origin_key(&msg.sd_id, &msg.nonce));
        Ok(())
    }

    /// Deletes every message carrying exactly `attribute` (replica-plane
    /// handover: this node is no longer in the attribute's replica set).
    /// Returns how many rows were removed. Compacts the WAL when the sweep
    /// leaves a majority of dead appends behind. On a failed delete the
    /// rows still stored stay indexed, so a retry finishes the sweep.
    pub fn evict_attribute(&mut self, attribute: &str) -> Result<usize> {
        let Some(entries) = self.by_attribute.remove(attribute) else {
            return Ok(0);
        };
        for (removed, &(id, _)) in entries.iter().enumerate() {
            if let Err(e) = self.remove_row(id) {
                self.by_attribute
                    .insert(attribute.to_string(), entries[removed..].to_vec());
                return Err(e);
            }
        }
        if self.kv.garbage_ratio() > 0.5 {
            self.kv.compact()?;
        }
        Ok(entries.len())
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

    /// Deposits one fresh row; its nonce is the id it will get, so no two
    /// rows share an origin.
    fn mk(db: &mut MessageDb, attr: &str, sd: &str, ts: u64) -> MessageId {
        let nonce = db.next_id.to_le_bytes();
        let (id, fresh) = deposit(db, &pending(attr, &nonce, sd, ts));
        assert!(fresh);
        id
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        let row = PendingDeposit {
            attribute: "ELECTRIC-APT-SV-CA".into(),
            nonce: b"nonce9".to_vec(),
            u: b"\x02abc".to_vec(),
            algo: 1,
            sealed: b"ciphertext".to_vec(),
            sd_id: "meter-7".into(),
            timestamp: 42,
        };
        let (id, _) = deposit(&mut db, &row);
        let msg = db.get(id).unwrap();
        assert_eq!(msg.id, id);
        assert_eq!(msg.attribute, "ELECTRIC-APT-SV-CA");
        assert_eq!(msg.nonce, b"nonce9");
        assert_eq!((msg.u, msg.sealed), (row.u, row.sealed));
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
        assert_eq!(db.evict_attribute("ODD").unwrap(), 5);
        assert_eq!(db.len(), 5);
        // The index reflects the sweep.
        assert!(db.by_attribute("ODD").unwrap().is_empty());
        assert_eq!(db.by_attribute("EVEN").unwrap().len(), 5);
        assert_eq!(db.attributes(), vec!["EVEN"]);
        // Sweeping everything clears the attribute index.
        assert_eq!(db.evict_attribute("EVEN").unwrap(), 5);
        assert!(db.is_empty() && db.attributes().is_empty());
        // Ids are not reused after a sweep.
        assert_eq!(mk(&mut db, "NEW", "m", 99), 10);
    }

    /// Timestamps that jump back and forth as ids grow.
    fn scrambled_ts(i: u64) -> u64 {
        (i * 7919) % 23
    }

    /// Every row, in id order, through the index.
    fn table(db: &MessageDb) -> Vec<StoredMessage> {
        db.by_attributes(&db.attributes()).unwrap()
    }

    #[test]
    fn since_filter_uses_row_timestamps_not_id_order() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        for i in 0..30 {
            mk(&mut db, ["A", "B"][i as usize % 2], "m", scrambled_ts(i));
        }
        for since in [0, 5, 11, 22, 23] {
            for attr in ["A", "B", "C"] {
                let reference: Vec<StoredMessage> = db
                    .by_attribute(attr)
                    .unwrap()
                    .into_iter()
                    .filter(|m| m.timestamp >= since)
                    .collect();
                assert_eq!(db.by_attribute_since(attr, since).unwrap(), reference);
                let ids: Vec<MessageId> = reference.iter().map(|m| m.id).collect();
                assert_eq!(db.ids_since(attr, since), ids);
            }
        }
    }

    #[test]
    fn purge_from_the_index_matches_a_full_scan_and_replays() {
        let path = std::env::temp_dir().join(format!("mws-md-purge-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let survivors = {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            for i in 0..40u64 {
                let attr = ["A", "B", "C"][i as usize % 3];
                deposit(&mut db, &pending(attr, &[i as u8], "m", scrambled_ts(i)));
            }
            // The reference: a full scan of the table before the eviction.
            let all: Vec<StoredMessage> = (0..40).map(|id| db.get(id).unwrap()).collect();
            let (victims, survivors): (Vec<_>, Vec<_>) =
                all.into_iter().partition(|m| m.attribute == "B");
            assert_eq!(db.evict_attribute("B").unwrap(), victims.len());
            for m in &victims {
                assert!(matches!(db.get(m.id), Err(StoreError::NotFound)));
                // Its origin is forgotten: a retransmission is fresh again.
                let (_, fresh) = deposit(&mut db, &pending(&m.attribute, &m.nonce, "m", 99));
                assert!(fresh);
            }
            let mut survivors = survivors;
            survivors.extend((40..40 + victims.len() as u64).map(|id| db.get(id).unwrap()));
            assert_eq!(table(&db), survivors);
            db.sync().unwrap();
            survivors
        };
        let db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(table(&db), survivors, "replay gives the same table");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_purge_keeps_the_index_true_to_the_rows() {
        let plan = crate::FaultPlan::new();
        let mut db = MessageDb::open(StorageKind::Memory.with_faults(plan.clone())).unwrap();
        for ts in 1..=6 {
            mk(&mut db, "A", "m", ts);
        }
        mk(&mut db, "B", "m", 7);
        // The second tombstone append fails: one row is gone, the rest stay
        // stored and indexed.
        plan.fail_append(plan.appends() + 1);
        assert!(db.evict_attribute("A").is_err());
        assert_eq!(db.len(), 6);
        assert_eq!(db.by_attribute("A").unwrap().len(), 5, "no unindexed row");
        assert_eq!(db.evict_attribute("A").unwrap(), 5);
        assert_eq!(table(&db).len(), 1);
    }

    #[test]
    fn purge_survives_reopen() {
        let path = std::env::temp_dir().join(format!("mws-mdp-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            for ts in 1..=6 {
                mk(&mut db, ["A", "B"][ts as usize % 2], "m", ts);
            }
            assert_eq!(db.evict_attribute("A").unwrap(), 3);
            db.sync().unwrap();
        }
        let db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        assert_eq!(db.len(), 3);
        assert!(db.by_attribute("A").unwrap().is_empty());
        assert_eq!(db.by_attribute("B").unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evict_attribute_sweeps_rows_index_and_origins() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        for ts in 1..=4 {
            deposit(&mut db, &pending("GONE", &[ts as u8], "m", ts));
        }
        mk(&mut db, "KEPT", "m", 9);
        assert_eq!(db.evict_attribute("GONE").unwrap(), 4);
        assert_eq!(db.len(), 1);
        assert!(db.by_attribute("GONE").unwrap().is_empty());
        assert_eq!(db.attributes(), vec!["KEPT"]);
        // The origin index forgot the evicted rows: a re-push of one is
        // fresh again (the node may re-inherit the arc later).
        let (_, fresh) = deposit(&mut db, &pending("GONE", &[1], "m", 1));
        assert!(fresh, "evicted origin must not shadow a re-inherited row");
        // Idempotent.
        db.evict_attribute("GONE").unwrap();
        assert_eq!(db.evict_attribute("NEVER").unwrap(), 0);
    }

    #[test]
    fn insert_dedup_is_idempotent_per_origin() {
        let mut db = MessageDb::open(StorageKind::Memory).unwrap();
        let (id, fresh) = deposit(&mut db, &pending("A", b"nonce-1", "meter", 5));
        assert!(fresh);
        // Retransmission of the same deposit: same id, nothing stored.
        let (again, fresh) = deposit(&mut db, &pending("A", b"nonce-1", "meter", 5));
        assert_eq!(again, id);
        assert!(!fresh);
        assert_eq!(db.len(), 1);
        // Same nonce from a *different* device is a different origin.
        let (other, fresh) = deposit(&mut db, &pending("A", b"nonce-1", "meter-2", 5));
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
            let (id, fresh) = deposit(&mut db, &pending("A", b"nonce-9", "meter", 5));
            assert!(fresh);
            db.sync().unwrap();
            id
        };
        let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
        let (again, fresh) = deposit(&mut db, &pending("A", b"nonce-9", "meter", 5));
        assert_eq!(again, id, "retransmit after restart maps to the stored row");
        assert!(!fresh);
        assert_eq!(db.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// One deposit through the batch path: `(id, fresh)`.
    fn deposit(db: &mut MessageDb, row: &PendingDeposit) -> (MessageId, bool) {
        db.insert_batch_dedup([row]).unwrap()[0]
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
        let (prior, _) = deposit(&mut db, &pending("A", b"n0", "m", 1));
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
