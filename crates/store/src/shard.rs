//! N-way sharding of the message warehouse (DESIGN.md §9).
//!
//! The paper's MWS fronts fleets of smart devices depositing continuously
//! (§III); a single WAL serializes every deposit behind one fsync. This
//! module stripes [`MessageDb`] across N independent shards — each with its
//! own WAL file, fsync cadence, and compaction — routed by an attribute-
//! string hash so one attribute's messages always share a shard. Recovery,
//! origin dedup, and fault injection all stay *per shard*: a torn append on
//! shard k cannot disturb shard k+1 (proved by the chaos harness).
//!
//! Global id uniqueness needs no cross-shard coordination: shard k of n
//! assigns ids congruent to k (mod n), so `id % n` routes any id back to
//! its owning shard.

use crate::engine::StorageKind;
use crate::message_db::{MessageDb, MessageId, PendingDeposit, StoredMessage};
use crate::{Result, StoreError};
use mws_obs::{metric_name, Counter};
use mws_wire::fnv1a64;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Maps attribute strings (and message ids) to shard indices.
///
/// Routing is a stable FNV-1a 64-bit hash of the attribute bytes, reduced
/// modulo the shard count — deterministic across processes and restarts, so
/// a reopened deployment routes every attribute exactly as before.
///
/// ```
/// use mws_store::ShardRouter;
///
/// let router = ShardRouter::new(4);
/// let shard = router.route("ELECTRIC-APT-SV-CA");
/// assert!(shard < 4);
/// // Routing is deterministic: the same attribute always lands on the
/// // same shard, so its messages never straddle WAL files.
/// assert_eq!(shard, router.route("ELECTRIC-APT-SV-CA"));
/// // A single-shard router degenerates to the unsharded warehouse.
/// assert_eq!(ShardRouter::new(1).route("anything"), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards. Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a warehouse needs at least one shard");
        Self { shards }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning this attribute string.
    pub fn route(&self, attribute: &str) -> usize {
        (fnv1a64(attribute.as_bytes()) % self.shards as u64) as usize
    }

    /// The shard owning this message id (ids are striped `id ≡ k mod n`).
    fn shard_of_id(&self, id: MessageId) -> usize {
        (id % self.shards as u64) as usize
    }
}

/// Per-shard metric handles, registered when the shard opens so the
/// exposition is scrape-complete from startup (no first-traffic gaps).
struct ShardStats {
    /// Fresh rows made durable on this shard (single or batched).
    deposits: Counter,
    /// Deposits answered from the origin-dedup index.
    dedup_hits: Counter,
    /// Deposit appends that stored ≥ 1 fresh row: one WAL frame and one
    /// fsync each, whether the rows came as one deposit or a batch.
    group_commits: Counter,
    /// Fresh rows that shared their WAL frame with at least one other row —
    /// the fsyncs the group commit saved.
    coalesced: Counter,
}

impl ShardStats {
    fn new(shard: usize) -> Self {
        let r = mws_obs::registry();
        let label = shard.to_string();
        let c = |base| r.counter(&metric_name(base, &[("shard", &label)]));
        Self {
            deposits: c("mws_store_shard_deposits_total"),
            dedup_hits: c("mws_store_shard_dedup_hits_total"),
            group_commits: c("mws_store_shard_group_commits_total"),
            coalesced: c("mws_store_shard_coalesced_total"),
        }
    }
}

/// The sharded warehouse: N independent [`MessageDb`] stripes behind the
/// same API the single table offered, routed by [`ShardRouter`].
///
/// Each shard is guarded by its own mutex, so deposits on different shards
/// append and fsync fully in parallel; the type is `Sync` and all methods
/// take `&self`, so one instance is shared across server workers without an
/// outer lock. A single-shard instance (`shards = 1`) is byte-compatible
/// with the unsharded [`MessageDb`]: same WAL path, same frames.
pub struct ShardedMessageDb {
    router: ShardRouter,
    shards: Vec<Mutex<MessageDb>>,
    stats: Vec<ShardStats>,
}

impl std::fmt::Debug for ShardedMessageDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMessageDb")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Derives the per-shard storage kinds for an n-way warehouse over one
/// base kind: file-backed stores get `<stem>-shard-<k>` sibling paths when
/// `n > 1` (and keep the base path untouched at `n = 1`), memory stores
/// stay memory (each shard opens its own segment), and fault wrappers
/// carry through to each derived base. Callers that need per-shard fault
/// plans (the chaos harness) wrap individual entries before
/// [`ShardedMessageDb::open_with`].
pub fn shard_kinds(base: &StorageKind, n: usize) -> Vec<StorageKind> {
    assert!(n > 0, "a warehouse needs at least one shard");
    (0..n).map(|k| derive_shard_kind(base, k, n)).collect()
}

/// Derives shard k's storage from the base kind: file-backed stores get a
/// `<stem>-shard-<k>` sibling path (shard counts > 1), memory stores stay
/// memory (each shard opens its own segment), and fault wrappers carry
/// through to the derived base.
fn derive_shard_kind(base: &StorageKind, k: usize, n: usize) -> StorageKind {
    match base {
        StorageKind::Memory => StorageKind::Memory,
        StorageKind::File(path) => {
            if n == 1 {
                StorageKind::File(path.clone())
            } else {
                StorageKind::File(shard_path(path, k))
            }
        }
        StorageKind::Faulty { base, plan } => StorageKind::Faulty {
            base: Box::new(derive_shard_kind(base, k, n)),
            plan: plan.clone(),
        },
    }
}

/// `dir/messages.wal` → `dir/messages-shard-3.wal`.
fn shard_path(path: &std::path::Path, k: usize) -> PathBuf {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("messages");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-shard-{k}.{ext}"),
        None => format!("{stem}-shard-{k}"),
    };
    path.with_file_name(name)
}

impl ShardedMessageDb {
    /// Opens an n-way warehouse from one base kind, deriving per-shard WAL
    /// paths. `shards = 1` reuses the base path unchanged, so existing
    /// single-store deployments reopen their data bit-for-bit.
    pub fn open(base: StorageKind, shards: usize) -> Result<Self> {
        Self::open_with(shard_kinds(&base, shards))
    }

    /// Opens a warehouse from explicit per-shard kinds (the chaos harness
    /// uses this to pin a [`crate::FaultPlan`] to one shard). Panics on an
    /// empty vector; per-shard WAL paths must already be distinct.
    pub fn open_with(kinds: Vec<StorageKind>) -> Result<Self> {
        assert!(!kinds.is_empty(), "a warehouse needs at least one shard");
        let n = kinds.len();
        let mut shards = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        for (k, kind) in kinds.into_iter().enumerate() {
            shards.push(Mutex::new(MessageDb::open_with_stride(
                kind, k as u64, n as u64,
            )?));
            stats.push(ShardStats::new(k));
        }
        Ok(Self {
            router: ShardRouter::new(n),
            shards,
            stats,
        })
    }

    /// The routing function (copyable; clients can pre-compute placement).
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    fn shard(&self, k: usize) -> MutexGuard<'_, MessageDb> {
        self.shards[k].lock().expect("shard lock poisoned")
    }

    /// Stores one deposit durably: a one-row [`Self::deposit_batch`].
    pub fn deposit(&self, row: &PendingDeposit) -> Result<(MessageId, bool)> {
        self.deposit_batch(std::slice::from_ref(row))[0].ok_or(StoreError::NotDurable)
    }

    /// Stores deposits durably — the one deposit path. Rows are grouped by
    /// shard, and each touched shard takes ONE lock acquisition, ONE WAL
    /// append (an origin-dedup [`MessageDb::insert_batch_dedup`]) and ONE
    /// fsync for all its rows before any of them is acknowledged; other
    /// shards keep depositing in parallel. Results keep the caller's row
    /// order: `(id, fresh)`, or `None` for a row whose shard failed to
    /// store or sync it (the caller answers it with a storage error, never
    /// an ack). Duplicates sync too, so a retransmitted ack is never issued
    /// ahead of durability. Failure on one shard does not disturb the
    /// others.
    pub fn deposit_batch(&self, rows: &[PendingDeposit]) -> Vec<Option<(MessageId, bool)>> {
        let route: Vec<usize> = rows
            .iter()
            .map(|row| self.router.route(&row.attribute))
            .collect();
        let mut results = vec![None; rows.len()];
        for (k, stats) in self.stats.iter().enumerate() {
            let on_shard = || (0..rows.len()).filter(|&i| route[i] == k);
            if on_shard().next().is_none() {
                continue;
            }
            let mut shard = self.shard(k);
            let stored = shard
                .insert_batch_dedup(on_shard().map(|i| &rows[i]))
                .and_then(|stored| shard.sync().map(|()| stored));
            drop(shard);
            // Appended but not durable: acking would break
            // durable-before-ack, so the shard's rows report failure.
            let Ok(stored) = stored else {
                continue;
            };
            let fresh = stored.iter().filter(|(_, f)| *f).count() as u64;
            stats.deposits.add(fresh);
            stats.dedup_hits.add(stored.len() as u64 - fresh);
            if fresh > 0 {
                stats.group_commits.inc();
            }
            if fresh > 1 {
                stats.coalesced.add(fresh);
            }
            for (i, r) in on_shard().zip(stored) {
                results[i] = Some(r);
            }
        }
        results
    }

    /// Fetches one message, routing by the id's residue class.
    pub fn get(&self, id: MessageId) -> Result<StoredMessage> {
        self.shard(self.router.shard_of_id(id)).get(id)
    }

    /// All messages carrying exactly this attribute, oldest first. An
    /// attribute lives entirely on its routed shard, so this is one lookup.
    pub fn by_attribute(&self, attribute: &str) -> Result<Vec<StoredMessage>> {
        self.shard(self.router.route(attribute))
            .by_attribute(attribute)
    }

    /// Union over several attributes, deduplicated, oldest first (by id,
    /// matching the unsharded table's ordering).
    pub fn by_attributes(&self, attributes: &[String]) -> Result<Vec<StoredMessage>> {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for attribute in attributes {
            for msg in self.by_attribute(attribute)? {
                if seen.insert(msg.id) {
                    out.push(msg);
                }
            }
        }
        out.sort_unstable_by_key(|m| m.id);
        Ok(out)
    }

    /// Messages newer than a logical timestamp for one attribute.
    pub fn by_attribute_since(&self, attribute: &str, since: u64) -> Result<Vec<StoredMessage>> {
        self.shard(self.router.route(attribute))
            .by_attribute_since(attribute, since)
    }

    /// Ids of one attribute's messages with `timestamp ≥ since`, in id
    /// order, from the owning shard's index alone (see
    /// [`MessageDb::ids_since`]).
    pub fn ids_since(&self, attribute: &str, since: u64) -> Vec<MessageId> {
        self.shard(self.router.route(attribute))
            .ids_since(attribute, since)
    }

    /// Distinct attributes present, across all shards, sorted.
    pub fn attributes(&self) -> Vec<String> {
        let mut all: Vec<String> = (0..self.shards.len())
            .flat_map(|k| self.shard(k).attributes())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Total stored messages across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|k| self.shard(k).len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every row of one attribute (replica-plane handover). The
    /// attribute lives entirely on its routed shard; that shard syncs
    /// before this returns, so the eviction is as durable as a deposit.
    pub fn evict_attribute(&self, attribute: &str) -> Result<usize> {
        let mut shard = self.shard(self.router.route(attribute));
        let removed = shard.evict_attribute(attribute)?;
        if removed > 0 {
            shard.sync()?;
        }
        Ok(removed)
    }

    /// Durability point across every shard. The first error is returned
    /// after all shards have been attempted.
    pub fn sync_all(&self) -> Result<()> {
        let mut first_err = None;
        for k in 0..self.shards.len() {
            if let Err(e) = self.shard(k).sync() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Messages stored on one shard (observability; panics on a bad index).
    pub fn shard_len(&self, k: usize) -> usize {
        self.shard(k).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn router_is_deterministic_and_in_range() {
        let r = ShardRouter::new(7);
        for attr in ["ELECTRIC", "WATER", "GAS", "x", ""] {
            let k = r.route(attr);
            assert!(k < 7);
            assert_eq!(k, r.route(attr));
        }
        assert_eq!(ShardRouter::new(1).route("ELECTRIC"), 0);
    }

    #[test]
    fn router_spreads_attributes() {
        let r = ShardRouter::new(4);
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[r.route(&format!("ATTR-{i}"))] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 attributes cover 4 shards");
    }

    #[test]
    fn ids_are_globally_unique_and_route_home() {
        let db = ShardedMessageDb::open(StorageKind::Memory, 4).unwrap();
        let mut ids = Vec::new();
        for i in 0..32 {
            let (id, fresh) = db
                .deposit(&pending(&format!("A{i}"), &[i as u8], "m", i))
                .unwrap();
            assert!(fresh);
            ids.push(id);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "no id collisions across shards");
        for (i, &id) in ids.iter().enumerate() {
            let msg = db.get(id).unwrap();
            assert_eq!(msg.attribute, format!("A{i}"));
        }
    }

    #[test]
    fn single_shard_reopens_unsharded_files() {
        // shards = 1 must keep the original WAL path so pre-sharding
        // deployments reopen their data unchanged.
        let path = std::env::temp_dir().join(format!("mws-shard1-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = MessageDb::open(StorageKind::File(path.clone())).unwrap();
            db.insert_batch_dedup(&[pending("A", b"n", "m", 7)])
                .unwrap();
            db.sync().unwrap();
        }
        let db = ShardedMessageDb::open(StorageKind::File(path.clone()), 1).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.by_attribute("A").unwrap()[0].timestamp, 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_files_reopen_per_shard() {
        let dir = std::env::temp_dir().join(format!("mws-shardN-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = StorageKind::File(dir.join("messages.wal"));
        {
            let db = ShardedMessageDb::open(base.clone(), 4).unwrap();
            for i in 0..16u64 {
                db.deposit(&pending(&format!("A{i}"), &[i as u8], "m", i))
                    .unwrap();
            }
        }
        assert!(
            dir.join("messages-shard-0.wal").exists(),
            "per-shard WAL files on disk"
        );
        let db = ShardedMessageDb::open(base, 4).unwrap();
        assert_eq!(db.len(), 16);
        for i in 0..16u64 {
            assert_eq!(db.by_attribute(&format!("A{i}")).unwrap().len(), 1);
        }
        // Dedup index survives the reopen, per shard.
        let (_, fresh) = db.deposit(&pending("A3", &[3], "m", 3)).unwrap();
        assert!(!fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_coalesces_per_shard_and_keeps_order() {
        let plans: Vec<crate::FaultPlan> = (0..2).map(|_| crate::FaultPlan::new()).collect();
        let db = ShardedMessageDb::open_with(
            plans
                .iter()
                .map(|p| StorageKind::Memory.with_faults(p.clone()))
                .collect(),
        )
        .unwrap();
        let r = db.router();
        // Mine attributes pinned to each shard.
        let attr_on = |shard: usize| {
            (0..)
                .map(|i| format!("PIN-{i}"))
                .find(|a| r.route(a) == shard)
                .unwrap()
        };
        let (a0, a1) = (attr_on(0), attr_on(1));
        let rows: Vec<PendingDeposit> = (0..8u8)
            .map(|i| pending(if i % 2 == 0 { &a0 } else { &a1 }, &[i], "m", i as u64))
            .collect();
        let before: Vec<u64> = plans.iter().map(|p| p.appends()).collect();
        let results = db.deposit_batch(&rows);
        assert!(results.iter().all(|r| r.map(|(_, f)| f) == Some(true)));
        for (p, b) in plans.iter().zip(before) {
            assert_eq!(p.appends(), b + 1, "4 rows per shard, 1 append per shard");
        }
        // Row order is preserved in the results.
        for (i, r) in results.iter().enumerate() {
            let (id, _) = r.unwrap();
            assert_eq!(db.get(id).unwrap().nonce, vec![i as u8]);
        }
    }

    #[test]
    fn batch_failure_is_isolated_to_the_faulted_shard() {
        let bad = crate::FaultPlan::new();
        let db = ShardedMessageDb::open_with(vec![
            StorageKind::Memory.with_faults(bad.clone()),
            StorageKind::Memory,
        ])
        .unwrap();
        let r = db.router();
        let attr_on = |shard: usize| {
            (0..)
                .map(|i| format!("PIN-{i}"))
                .find(|a| r.route(a) == shard)
                .unwrap()
        };
        let (a0, a1) = (attr_on(0), attr_on(1));
        bad.fail_append(bad.appends());
        let rows = vec![
            pending(&a0, b"x", "m", 1), // shard 0: append fails
            pending(&a1, b"y", "m", 2), // shard 1: unaffected
        ];
        let results = db.deposit_batch(&rows);
        assert!(results[0].is_none(), "faulted shard reports failure");
        assert_eq!(results[1].map(|(_, f)| f), Some(true));
        assert_eq!(db.len(), 1);
        // The failed row retries cleanly once the fault passes.
        let retry = db.deposit_batch(&rows[..1]);
        assert_eq!(retry[0].map(|(_, f)| f), Some(true));
    }

    #[test]
    fn reads_union_across_shards() {
        let db = ShardedMessageDb::open(StorageKind::Memory, 3).unwrap();
        for i in 0..9u64 {
            db.deposit(&pending(&format!("A{i}"), &[i as u8], "m", i))
                .unwrap();
        }
        assert_eq!(db.attributes().len(), 9);
        let attrs: Vec<String> = (0..9).map(|i| format!("A{i}")).collect();
        let union = db.by_attributes(&attrs).unwrap();
        assert_eq!(union.len(), 9);
        assert!(union.windows(2).all(|w| w[0].id < w[1].id), "ordered by id");
        db.sync_all().unwrap();
    }
}
