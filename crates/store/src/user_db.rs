//! The User Database of Figure 3.
//!
//! "It is used by the Gatekeeper to authenticate RCs. It stores RC
//! identities and their hashed passwords." The protocol (§V.D) then uses
//! `HashPassword` directly as a symmetric key (`E(HashPassword, ID ‖ T ‖ N)`),
//! so — unlike a login database — the stored value must be the *exact* hash
//! both sides derive, not a salted verifier. The table additionally keeps
//! the RC's RSA public key (`PubK_RC`), which the prototype hardcoded.

use crate::engine::{KvEngine, StorageKind};
use crate::{Result, StoreError};
use mws_crypto::{ct_eq, Digest, Sha256};
use mws_wire::{WireReader, WireWriter};

/// One registered receiving client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserRecord {
    /// RC identity string.
    pub identity: String,
    /// `SHA-256(password)` — the shared authentication key of §V.D.
    pub hash_password: Vec<u8>,
    /// Serialized RSA public key material (opaque to this table).
    pub public_key: Vec<u8>,
}

/// The RC registry.
#[derive(Debug)]
pub struct UserDb {
    kv: KvEngine,
}

fn key_of(identity: &str) -> Vec<u8> {
    let mut k = b"u/".to_vec();
    k.extend_from_slice(identity.as_bytes());
    k
}

impl UserDb {
    /// Opens the table.
    pub fn open(kind: StorageKind) -> Result<Self> {
        Ok(Self {
            kv: KvEngine::open(kind)?,
        })
    }

    /// Registers a new RC. Fails with [`StoreError::Duplicate`] if the
    /// identity exists.
    pub fn register(&mut self, identity: &str, password: &str, public_key: &[u8]) -> Result<()> {
        let key = key_of(identity);
        if self.kv.contains(&key) {
            return Err(StoreError::Duplicate);
        }
        let rec = UserRecord {
            identity: identity.to_string(),
            hash_password: Sha256::digest(password.as_bytes()),
            public_key: public_key.to_vec(),
        };
        self.kv.put(&key, &encode(&rec))
    }

    /// Looks up a registered RC.
    pub fn get(&self, identity: &str) -> Result<UserRecord> {
        match self.kv.get(&key_of(identity))? {
            Some(row) => decode(&row),
            None => Err(StoreError::NotFound),
        }
    }

    /// Verifies a password in constant time.
    pub fn verify_password(&self, identity: &str, password: &str) -> bool {
        match self.get(identity) {
            Ok(rec) => ct_eq(&rec.hash_password, &Sha256::digest(password.as_bytes())),
            Err(_) => false,
        }
    }

    /// Removes an RC entirely.
    pub fn remove(&mut self, identity: &str) -> Result<()> {
        if !self.kv.contains(&key_of(identity)) {
            return Err(StoreError::NotFound);
        }
        self.kv.delete(&key_of(identity))
    }

    /// Number of registered RCs.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }

    /// Durability point.
    pub fn sync(&mut self) -> Result<()> {
        self.kv.sync()
    }
}

fn encode(rec: &UserRecord) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.string(&rec.identity)
        .bytes(&rec.hash_password)
        .bytes(&rec.public_key);
    w.finish()
}

fn decode(row: &[u8]) -> Result<UserRecord> {
    let mut r = WireReader::new(row);
    let rec = UserRecord {
        identity: r.string()?,
        hash_password: r.bytes()?,
        public_key: r.bytes()?,
    };
    r.finish()?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_verify() {
        let mut db = UserDb::open(StorageKind::Memory).unwrap();
        db.register("C-Services", "hunter2", b"pubkey-bytes")
            .unwrap();
        assert!(db.verify_password("C-Services", "hunter2"));
        assert!(!db.verify_password("C-Services", "hunter3"));
        assert!(!db.verify_password("Nobody", "hunter2"));
        let rec = db.get("C-Services").unwrap();
        assert_eq!(rec.public_key, b"pubkey-bytes");
        assert_eq!(rec.hash_password.len(), 32);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut db = UserDb::open(StorageKind::Memory).unwrap();
        db.register("rc", "pw", b"").unwrap();
        assert!(matches!(
            db.register("rc", "other", b""),
            Err(StoreError::Duplicate)
        ));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn remove_and_missing() {
        let mut db = UserDb::open(StorageKind::Memory).unwrap();
        db.register("rc", "pw", b"").unwrap();
        db.remove("rc").unwrap();
        assert!(matches!(db.get("rc"), Err(StoreError::NotFound)));
        assert!(matches!(db.remove("rc"), Err(StoreError::NotFound)));
        assert!(db.is_empty());
    }

    #[test]
    fn persistence() {
        let path = std::env::temp_dir().join(format!("mws-ud-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut db = UserDb::open(StorageKind::File(path.clone())).unwrap();
            db.register("rc1", "pw1", b"k1").unwrap();
            db.sync().unwrap();
        }
        let db = UserDb::open(StorageKind::File(path.clone())).unwrap();
        assert!(db.verify_password("rc1", "pw1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hash_is_protocol_compatible() {
        // The stored value must equal SHA-256(password) because the RC
        // derives the same value locally as an encryption key (§V.D).
        let mut db = UserDb::open(StorageKind::Memory).unwrap();
        db.register("rc", "secret", b"").unwrap();
        assert_eq!(
            db.get("rc").unwrap().hash_password,
            Sha256::digest(b"secret")
        );
    }
}
