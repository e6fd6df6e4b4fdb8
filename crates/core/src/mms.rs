//! Message Management System (Figure 3) — "the core of the MWS-RC".
//!
//! Owns the Message Database and the Policy Database: stores authenticated
//! deposits, maintains the identity–attribute mapping (Table 1), and serves
//! retrievals by joining the two ("it fetches all those records from the
//! Message Database in which the attribute field matches the corresponding
//! attributes fetched from Policy Database", §V.D).

use crate::policy::AttrPattern;
use mws_store::{
    AttributeId, MessageId, PolicyDb, Result as StoreResult, ShardedMessageDb, StorageKind,
    StoreError, StoredMessage,
};
use std::sync::Arc;

/// The MMS: message store + policy store + pattern grants.
///
/// The message warehouse is the sharded store behind an `Arc`, so the
/// deposit hot path can append + fsync shard WALs *outside* the service
/// lock (see `MwsService`) while this struct keeps exclusive ownership of
/// the policy table and pattern grants.
pub struct MessageManagementSystem {
    messages: Arc<ShardedMessageDb>,
    policy: PolicyDb,
    /// §VIII "enhanced policies": pattern grants expanded lazily at
    /// retrieval time against the attributes actually warehoused.
    patterns: Vec<(String, AttrPattern)>,
}

impl MessageManagementSystem {
    /// Opens the MMS over the given storage backends (single-shard
    /// warehouse, byte-compatible with pre-sharding deployments).
    pub fn open(messages: StorageKind, policy: StorageKind) -> StoreResult<Self> {
        Self::open_sharded(vec![messages], policy)
    }

    /// Opens the MMS with one warehouse shard per entry of `messages`.
    pub fn open_sharded(messages: Vec<StorageKind>, policy: StorageKind) -> StoreResult<Self> {
        Ok(Self {
            messages: Arc::new(ShardedMessageDb::open_with(messages)?),
            policy: PolicyDb::open(policy)?,
            patterns: Vec::new(),
        })
    }

    /// A shared handle to the message warehouse, for depositing outside
    /// the owner's lock.
    pub fn store_handle(&self) -> Arc<ShardedMessageDb> {
        Arc::clone(&self.messages)
    }

    /// Grants `identity` access to a literal attribute (Table 1 row).
    /// Durable before returning (policy changes are rare, deposits aren't,
    /// so the fsync lives here rather than on the deposit path).
    pub fn grant(&mut self, identity: &str, attribute: &str) -> StoreResult<AttributeId> {
        let aid = self.policy.grant(identity, attribute)?;
        self.policy.sync()?;
        Ok(aid)
    }

    /// Grants by pattern (future-work policy language). Literal patterns
    /// degrade to a plain grant.
    pub fn grant_pattern(&mut self, identity: &str, pattern: AttrPattern) -> StoreResult<()> {
        if pattern.is_literal() {
            self.policy.grant(identity, pattern.source())?;
            self.policy.sync()?;
        } else {
            self.patterns.push((identity.to_string(), pattern));
        }
        Ok(())
    }

    /// Revokes one attribute (requirement iii). Durable before returning.
    pub fn revoke(&mut self, identity: &str, attribute: &str) -> StoreResult<()> {
        // A pattern that would re-derive this grant must go too, otherwise
        // the next retrieval silently re-grants it.
        self.patterns
            .retain(|(id, p)| !(id == identity && p.matches(attribute)));
        self.policy.revoke(identity, attribute)?;
        self.policy.sync()
    }

    /// Revokes everything for an identity. Durable before returning.
    pub fn revoke_identity(&mut self, identity: &str) -> StoreResult<usize> {
        self.patterns.retain(|(id, _)| id != identity);
        let n = self.policy.revoke_identity(identity)?;
        self.policy.sync()?;
        Ok(n)
    }

    /// Expands this identity's pattern grants against the warehoused
    /// attributes, materializing missing Table 1 rows.
    fn expand_patterns(&mut self, identity: &str) -> StoreResult<()> {
        let attrs = self.messages.attributes();
        let mine: Vec<AttrPattern> = self
            .patterns
            .iter()
            .filter(|(id, _)| id == identity)
            .map(|(_, p)| p.clone())
            .collect();
        let mut granted = false;
        for pattern in mine {
            for attr in &attrs {
                if pattern.matches(attr) && !self.policy.has_access(identity, attr) {
                    self.policy.grant(identity, attr)?;
                    granted = true;
                }
            }
        }
        if granted {
            self.policy.sync()?;
        }
        Ok(())
    }

    /// The `(AID, A)` pairs an identity may currently read.
    pub fn attribute_table_for(
        &mut self,
        identity: &str,
    ) -> StoreResult<Vec<(AttributeId, String)>> {
        self.expand_patterns(identity)?;
        Ok(self.policy.attributes_for(identity))
    }

    /// Serves a retrieval: every message (with its AID) the identity may
    /// read, filtered to `timestamp ≥ since`, oldest first. A nonzero
    /// `limit` caps the page size (pagination for large warehouses).
    ///
    /// The page is chosen from the attribute indexes — filter, id sort,
    /// dedup, truncate — and only the rows it returns are decoded.
    pub fn retrieve_for(
        &mut self,
        identity: &str,
        since: u64,
        limit: u32,
    ) -> StoreResult<Vec<(StoredMessage, AttributeId)>> {
        let table = self.attribute_table_for(identity)?;
        let mut page: Vec<(MessageId, AttributeId)> = Vec::new();
        for (aid, attr) in &table {
            page.extend(
                self.messages
                    .ids_since(attr, since)
                    .into_iter()
                    .map(|id| (id, *aid)),
            );
        }
        page.sort_by_key(|&(id, _)| id);
        page.dedup_by_key(|&mut (id, _)| id);
        if limit != 0 {
            page.truncate(limit as usize);
        }
        let mut out = Vec::with_capacity(page.len());
        for (id, aid) in page {
            match self.messages.get(id) {
                Ok(msg) => out.push((msg, aid)),
                // Evicted by a replica handover between the index read and
                // the decode: it is no longer this node's to serve.
                Err(StoreError::NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Read access to the policy table (Table 1 regeneration).
    pub fn policy(&self) -> &PolicyDb {
        &self.policy
    }

    /// Read access to the message store.
    pub fn messages(&self) -> &ShardedMessageDb {
        &self.messages
    }

    /// Durability point for both stores (every warehouse shard, then the
    /// policy table).
    pub fn sync(&mut self) -> StoreResult<()> {
        self.messages.sync_all()?;
        self.policy.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_store::PendingDeposit;

    fn mms() -> MessageManagementSystem {
        MessageManagementSystem::open(StorageKind::Memory, StorageKind::Memory).unwrap()
    }

    /// Stores a row whose nonce is `attr ‖ ts`, so no two calls share an
    /// origin.
    fn store(m: &mut MessageManagementSystem, attr: &str, ts: u64) -> MessageId {
        store_nonce(m, attr, &[attr.as_bytes(), &ts.to_le_bytes()].concat(), ts)
    }

    /// Stores a row through the warehouse's one deposit path.
    fn store_nonce(
        m: &mut MessageManagementSystem,
        attr: &str,
        nonce: &[u8],
        ts: u64,
    ) -> MessageId {
        let row = PendingDeposit {
            attribute: attr.to_string(),
            nonce: nonce.to_vec(),
            u: b"u".to_vec(),
            algo: 3,
            sealed: b"c".to_vec(),
            sd_id: "sd".to_string(),
            timestamp: ts,
        };
        let (id, fresh) = m.store_handle().deposit(&row).unwrap();
        assert!(fresh);
        id
    }

    #[test]
    fn retrieval_joins_policy_and_messages() {
        let mut m = mms();
        store(&mut m, "ELECTRIC-1", 1);
        store(&mut m, "WATER-1", 2);
        store(&mut m, "ELECTRIC-1", 3);
        let aid = m.grant("rc", "ELECTRIC-1").unwrap();
        let got = m.retrieve_for("rc", 0, 0).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got
            .iter()
            .all(|(msg, a)| msg.attribute == "ELECTRIC-1" && *a == aid));
        assert!(got[0].0.id < got[1].0.id);
    }

    #[test]
    fn since_filter_applies() {
        let mut m = mms();
        for ts in 1..=4 {
            store(&mut m, "A", ts);
        }
        m.grant("rc", "A").unwrap();
        assert_eq!(m.retrieve_for("rc", 3, 0).unwrap().len(), 2);
    }

    #[test]
    fn unknown_identity_gets_nothing() {
        let mut m = mms();
        store(&mut m, "A", 1);
        assert!(m.retrieve_for("ghost", 0, 0).unwrap().is_empty());
    }

    #[test]
    fn multi_attribute_identity_dedups() {
        let mut m = mms();
        store(&mut m, "A", 1);
        store(&mut m, "B", 2);
        m.grant("rc", "A").unwrap();
        m.grant("rc", "B").unwrap();
        let got = m.retrieve_for("rc", 0, 0).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn revocation_stops_future_reads() {
        let mut m = mms();
        store(&mut m, "A", 1);
        m.grant("rc", "A").unwrap();
        assert_eq!(m.retrieve_for("rc", 0, 0).unwrap().len(), 1);
        m.revoke("rc", "A").unwrap();
        assert!(m.retrieve_for("rc", 0, 0).unwrap().is_empty());
    }

    #[test]
    fn pattern_grants_cover_future_devices() {
        // Requirement v (dynamic recipients): a pattern grant picks up
        // attributes that appear *after* the grant.
        let mut m = mms();
        m.grant_pattern("rc", AttrPattern::parse("ELECTRIC-**").unwrap())
            .unwrap();
        assert!(m.retrieve_for("rc", 0, 0).unwrap().is_empty());
        store(&mut m, "ELECTRIC-NEW-METER", 5);
        store(&mut m, "WATER-NEW-METER", 6);
        let got = m.retrieve_for("rc", 0, 0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.attribute, "ELECTRIC-NEW-METER");
        // The expansion materialized a Table 1 row with a real AID.
        assert!(m.policy().has_access("rc", "ELECTRIC-NEW-METER"));
    }

    #[test]
    fn revoke_kills_matching_patterns_too() {
        let mut m = mms();
        m.grant_pattern("rc", AttrPattern::parse("GAS-**").unwrap())
            .unwrap();
        store(&mut m, "GAS-1", 1);
        assert_eq!(m.retrieve_for("rc", 0, 0).unwrap().len(), 1);
        m.revoke("rc", "GAS-1").unwrap();
        // Without pattern cleanup the next retrieve would re-grant.
        assert!(m.retrieve_for("rc", 0, 0).unwrap().is_empty());
    }

    #[test]
    fn literal_pattern_grant_is_plain_grant() {
        let mut m = mms();
        m.grant_pattern("rc", AttrPattern::parse("PLAIN-ATTR").unwrap())
            .unwrap();
        assert!(m.policy().has_access("rc", "PLAIN-ATTR"));
    }

    /// The page a full decode builds: every readable row decoded, filtered
    /// to `since`, stably sorted by id, deduplicated, truncated.
    fn reference_page(
        m: &mut MessageManagementSystem,
        identity: &str,
        since: u64,
        limit: u32,
    ) -> Vec<(StoredMessage, AttributeId)> {
        let mut out = Vec::new();
        for (aid, attr) in m.attribute_table_for(identity).unwrap() {
            for msg in m.messages().by_attribute(&attr).unwrap() {
                if msg.timestamp >= since {
                    out.push((msg, aid));
                }
            }
        }
        out.sort_by_key(|(msg, _)| msg.id);
        out.dedup_by_key(|(msg, _)| msg.id);
        if limit != 0 {
            out.truncate(limit as usize);
        }
        out
    }

    #[test]
    fn retrieve_page_matches_a_full_decode_reference() {
        // ELECTRIC-A-1 is reachable through both patterns; WATER-B-1
        // through neither.
        const ATTRS: [&str; 5] = [
            "ELECTRIC-A-1",
            "ELECTRIC-B-1",
            "WATER-A-1",
            "GAS-A-1",
            "WATER-B-1",
        ];
        mws_prop::cases(48, |g| {
            let rows = g.vec(1..40, |g| (g.size(0..ATTRS.len()), g.int(0..20)));
            (rows, g.int(0..22), g.bool())
        })
        .check(|(rows, since, sharded)| {
            let shards = if sharded { 3 } else { 1 };
            let mut m = MessageManagementSystem::open_sharded(
                vec![StorageKind::Memory; shards],
                StorageKind::Memory,
            )
            .unwrap();
            m.grant_pattern("rc", AttrPattern::parse("ELECTRIC-**").unwrap())
                .unwrap();
            m.grant_pattern("rc", AttrPattern::parse("*-A-1").unwrap())
                .unwrap();
            // Timestamps are drawn per row, so they are not monotone in id.
            for (i, &(attr, ts)) in rows.iter().enumerate() {
                store_nonce(&mut m, ATTRS[attr], &i.to_le_bytes(), ts);
            }
            for limit in [0, 1, 8, rows.len() as u32] {
                let want = reference_page(&mut m, "rc", since, limit);
                assert_eq!(m.retrieve_for("rc", since, limit).unwrap(), want);
            }
        });
    }

    #[test]
    fn revoke_identity_sweeps_patterns() {
        let mut m = mms();
        store(&mut m, "X-1", 1);
        m.grant("rc", "X-1").unwrap();
        m.grant_pattern("rc", AttrPattern::parse("Y-**").unwrap())
            .unwrap();
        assert_eq!(m.revoke_identity("rc").unwrap(), 1);
        store(&mut m, "Y-1", 2);
        assert!(m.retrieve_for("rc", 0, 0).unwrap().is_empty());
    }
}
