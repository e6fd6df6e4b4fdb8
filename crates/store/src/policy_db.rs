//! The Policy Database (PD) of Figure 3 — the paper's Table 1.
//!
//! "The MMS accesses the Policy Database, which maintains a mapping between
//! RC's identity and the attributes to which RC has access. It also contains
//! an 'Attribute ID – Attribute' mapping" (§V.D).
//!
//! Note the subtlety in Table 1: the *Attribute ID* is per **row** — the
//! same attribute `A1` has AID 1 for `IDRC1` but AID 3 for `IDRC2`. AIDs are
//! what RCs see in plaintext; per-row ids prevent two RCs from correlating
//! that they share an attribute, which is the point of hiding attributes
//! inside the ticket.

use crate::engine::{KvEngine, StorageKind};
use crate::{Result, StoreError};
use mws_wire::{WireReader, WireWriter};
use std::collections::BTreeMap;

/// Row identifier — the paper's "Attribute ID".
pub type AttributeId = u64;

/// One row of Table 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyRow {
    /// RC identity (`ID_RC`).
    pub identity: String,
    /// Attribute string (`A`).
    pub attribute: String,
    /// Row id (`AID`).
    pub attribute_id: AttributeId,
}

/// The identity–attribute mapping table.
#[derive(Debug)]
pub struct PolicyDb {
    kv: KvEngine,
    next_aid: AttributeId,
    rows: BTreeMap<AttributeId, PolicyRow>,
    by_identity: BTreeMap<String, Vec<AttributeId>>,
}

fn key_of(aid: AttributeId) -> Vec<u8> {
    let mut k = b"p/".to_vec();
    k.extend_from_slice(&aid.to_be_bytes());
    k
}

fn encode(row: &PolicyRow) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(row.attribute_id)
        .string(&row.identity)
        .string(&row.attribute);
    w.finish()
}

fn decode(bytes: &[u8]) -> Result<PolicyRow> {
    let mut r = WireReader::new(bytes);
    let row = PolicyRow {
        attribute_id: r.u64()?,
        identity: r.string()?,
        attribute: r.string()?,
    };
    r.finish()?;
    Ok(row)
}

impl PolicyDb {
    /// Opens the table.
    pub fn open(kind: StorageKind) -> Result<Self> {
        let kv = KvEngine::open(kind)?;
        let mut rows = BTreeMap::new();
        let mut by_identity: BTreeMap<String, Vec<AttributeId>> = BTreeMap::new();
        let mut next_aid = 1; // Table 1 starts AIDs at 1
        for (_, bytes) in kv.iter() {
            let row = decode(bytes)?;
            next_aid = next_aid.max(row.attribute_id + 1);
            by_identity
                .entry(row.identity.clone())
                .or_default()
                .push(row.attribute_id);
            rows.insert(row.attribute_id, row);
        }
        for aids in by_identity.values_mut() {
            aids.sort_unstable();
        }
        Ok(Self {
            kv,
            next_aid,
            rows,
            by_identity,
        })
    }

    /// Grants `identity` access to `attribute`. Idempotent: re-granting an
    /// existing pair returns the existing AID.
    pub fn grant(&mut self, identity: &str, attribute: &str) -> Result<AttributeId> {
        if let Some(existing) = self.find_pair(identity, attribute) {
            return Ok(existing);
        }
        let aid = self.next_aid;
        let row = PolicyRow {
            identity: identity.to_string(),
            attribute: attribute.to_string(),
            attribute_id: aid,
        };
        self.kv.put(&key_of(aid), &encode(&row))?;
        self.next_aid += 1;
        self.by_identity
            .entry(row.identity.clone())
            .or_default()
            .push(aid);
        self.rows.insert(aid, row);
        Ok(aid)
    }

    /// Revokes `identity`'s access to `attribute` (requirement iii).
    pub fn revoke(&mut self, identity: &str, attribute: &str) -> Result<()> {
        let aid = self
            .find_pair(identity, attribute)
            .ok_or(StoreError::NotFound)?;
        self.kv.delete(&key_of(aid))?;
        self.rows.remove(&aid);
        if let Some(aids) = self.by_identity.get_mut(identity) {
            aids.retain(|&a| a != aid);
            if aids.is_empty() {
                self.by_identity.remove(identity);
            }
        }
        Ok(())
    }

    /// Revokes everything for an identity (e.g. C-Services discontinues
    /// service). Returns how many rows were removed.
    pub fn revoke_identity(&mut self, identity: &str) -> Result<usize> {
        let aids = self.by_identity.remove(identity).unwrap_or_default();
        for aid in &aids {
            self.kv.delete(&key_of(*aid))?;
            self.rows.remove(aid);
        }
        Ok(aids.len())
    }

    fn find_pair(&self, identity: &str, attribute: &str) -> Option<AttributeId> {
        self.by_identity
            .get(identity)?
            .iter()
            .copied()
            .find(|aid| self.rows.get(aid).is_some_and(|r| r.attribute == attribute))
    }

    /// Does `identity` currently map to `attribute`?
    pub fn has_access(&self, identity: &str, attribute: &str) -> bool {
        self.find_pair(identity, attribute).is_some()
    }

    /// The `(AID, A)` pairs an identity may read — what the MMS feeds the
    /// Token Generator.
    pub fn attributes_for(&self, identity: &str) -> Vec<(AttributeId, String)> {
        self.by_identity
            .get(identity)
            .map(|aids| {
                aids.iter()
                    .filter_map(|aid| self.rows.get(aid).map(|r| (*aid, r.attribute.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolves an AID to its attribute (the PKG-side lookup: "PKG replaces
    /// AID with A").
    pub fn attribute_by_id(&self, aid: AttributeId) -> Option<&PolicyRow> {
        self.rows.get(&aid)
    }

    /// Every row in AID order — regenerates the paper's Table 1.
    pub fn table(&self) -> Vec<PolicyRow> {
        self.rows.values().cloned().collect()
    }

    /// Number of mapping rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Durability point.
    pub fn sync(&mut self) -> Result<()> {
        self.kv.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recreates the paper's Table 1 exactly.
    fn table1() -> PolicyDb {
        let mut db = PolicyDb::open(StorageKind::Memory).unwrap();
        assert_eq!(db.grant("IDRC1", "A1").unwrap(), 1);
        assert_eq!(db.grant("IDRC1", "A2").unwrap(), 2);
        assert_eq!(db.grant("IDRC2", "A1").unwrap(), 3);
        assert_eq!(db.grant("IDRC3", "A3").unwrap(), 4);
        assert_eq!(db.grant("IDRC4", "A4").unwrap(), 5);
        db
    }

    #[test]
    fn reproduces_paper_table_1() {
        let db = table1();
        let rows = db.table();
        let expect = [
            ("IDRC1", "A1", 1),
            ("IDRC1", "A2", 2),
            ("IDRC2", "A1", 3),
            ("IDRC3", "A3", 4),
            ("IDRC4", "A4", 5),
        ];
        assert_eq!(rows.len(), expect.len());
        for (row, (id, attr, aid)) in rows.iter().zip(expect.iter()) {
            assert_eq!(row.identity, *id);
            assert_eq!(row.attribute, *attr);
            assert_eq!(row.attribute_id, *aid);
        }
    }

    #[test]
    fn per_row_aids_hide_shared_attributes() {
        // IDRC1 and IDRC2 both hold A1 but under different AIDs.
        let db = table1();
        let rc1: Vec<_> = db.attributes_for("IDRC1");
        let rc2: Vec<_> = db.attributes_for("IDRC2");
        assert_eq!(rc1, vec![(1, "A1".into()), (2, "A2".into())]);
        assert_eq!(rc2, vec![(3, "A1".into())]);
    }

    #[test]
    fn grant_is_idempotent() {
        let mut db = table1();
        assert_eq!(db.grant("IDRC1", "A1").unwrap(), 1);
        assert_eq!(db.len(), 5);
    }

    #[test]
    fn revoke_removes_access() {
        let mut db = table1();
        assert!(db.has_access("IDRC1", "A1"));
        db.revoke("IDRC1", "A1").unwrap();
        assert!(!db.has_access("IDRC1", "A1"));
        assert!(db.has_access("IDRC1", "A2"), "other grants survive");
        assert!(db.has_access("IDRC2", "A1"), "other identities survive");
        assert!(matches!(
            db.revoke("IDRC1", "A1"),
            Err(StoreError::NotFound)
        ));
    }

    #[test]
    fn revoke_identity_sweeps_all_rows() {
        let mut db = table1();
        assert_eq!(db.revoke_identity("IDRC1").unwrap(), 2);
        assert!(db.attributes_for("IDRC1").is_empty());
        assert_eq!(db.len(), 3);
        assert_eq!(db.revoke_identity("IDRC1").unwrap(), 0);
    }

    #[test]
    fn aid_resolution() {
        let db = table1();
        let row = db.attribute_by_id(3).unwrap();
        assert_eq!(row.identity, "IDRC2");
        assert_eq!(row.attribute, "A1");
        assert!(db.attribute_by_id(99).is_none());
    }

    #[test]
    fn reopen_preserves_table_and_aid_counter() {
        let path = std::env::temp_dir().join(format!("mws-pd-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = PolicyDb::open(StorageKind::File(path.clone())).unwrap();
            db.grant("IDRC1", "A1").unwrap();
            db.grant("IDRC1", "A2").unwrap();
            db.revoke("IDRC1", "A1").unwrap();
            db.sync().unwrap();
        }
        let mut db = PolicyDb::open(StorageKind::File(path.clone())).unwrap();
        assert!(!db.has_access("IDRC1", "A1"));
        assert!(db.has_access("IDRC1", "A2"));
        // AIDs are never reused after revocation.
        assert_eq!(db.grant("IDRC9", "A9").unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
