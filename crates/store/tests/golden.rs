//! On-disk format gate: WAL images written at commit e1e27ef (when rows went
//! through `mws_store::tables` over the `bytes` crate) must reopen, and the
//! same writes must still produce the same bytes.

use mws_crypto::{Digest, Sha256};
use mws_store::{MessageDb, PendingDeposit, PolicyDb, StorageKind, UserDb};

const MESSAGES_WAL: &str = "\
a74e000000c7c67304010a0000006d2f000000000000000000000000000000000700000057415445522d3004000000\
0000000002000000bb000106000000000000000000070000006d657465722d326400000000000000a7a5000000f5b3\
4c43034e000000010a0000006d2f000000000000000101000000000000000700000057415445522d31040000000101\
010102000000bb010106000000010101010101070000006d657465722d3265000000000000004e000000010a000000\
6d2f000000000000000202000000000000000700000057415445522d32040000000202020202000000bb0201060000\
00020202020202070000006d657465722d326600000000000000";
const POLICY_WAL: &str = "\
a7330000001afa296d010a000000702f00000000000000010100000000000000070000007574696c6974790d000000\
454c4543545249432d41505439";
const USERS_WAL: &str = "\
a74400000028d91bca0109000000752f7574696c697479070000007574696c6974792000000030c952fab122c3f975\
9f02a6d95c3758b246b4fee239957b2d4fee46e26170c403000000090807";

/// Runs `read` on a WAL file holding the image, then `write` on a fresh
/// one, and checks the fresh file came out byte-identical to the image.
fn reopens_and_rewrites(name: &str, hex: &str, read: fn(StorageKind), write: fn(StorageKind)) {
    let image: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let path = std::env::temp_dir().join(format!("mws-golden-{}-{name}.wal", std::process::id()));
    std::fs::write(&path, &image).unwrap();
    read(StorageKind::File(path.clone()));
    std::fs::remove_file(&path).unwrap();
    write(StorageKind::File(path.clone()));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        image,
        "{name}: rewritten bytes"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Deposit `n` of the image: 0 went in alone, 1 and 2 as one batch.
fn deposit(n: u8) -> PendingDeposit {
    PendingDeposit {
        attribute: format!("WATER-{n}"),
        nonce: vec![n; 4],
        u: vec![0xbb, n],
        algo: 1,
        sealed: vec![n; 6],
        sd_id: "meter-2".into(),
        timestamp: 100 + u64::from(n),
    }
}

#[test]
fn message_wal_from_parent_commit() {
    fn read(kind: StorageKind) {
        let db = MessageDb::open(kind).unwrap();
        assert_eq!(db.len(), 3);
        for n in 0..3u8 {
            let (got, want) = (db.get(u64::from(n)).unwrap(), deposit(n));
            assert_eq!(got.id, u64::from(n));
            assert_eq!(
                (got.attribute, got.nonce, got.u),
                (want.attribute, want.nonce, want.u)
            );
            assert_eq!((got.algo, got.sealed), (want.algo, want.sealed));
            assert_eq!((got.sd_id, got.timestamp), (want.sd_id, want.timestamp));
        }
    }
    fn write(kind: StorageKind) {
        let mut db = MessageDb::open(kind).unwrap();
        db.insert_batch_dedup(&[deposit(0)]).unwrap();
        db.insert_batch_dedup(&[deposit(1), deposit(2)]).unwrap();
        db.sync().unwrap();
    }
    reopens_and_rewrites("messages", MESSAGES_WAL, read, write);
}

#[test]
fn policy_and_user_wals_from_parent_commit() {
    fn read_policy(kind: StorageKind) {
        let db = PolicyDb::open(kind).unwrap();
        assert!(db.has_access("utility", "ELECTRIC-APT9") && db.len() == 1);
    }
    fn write_policy(kind: StorageKind) {
        let mut db = PolicyDb::open(kind).unwrap();
        db.grant("utility", "ELECTRIC-APT9").unwrap();
        db.sync().unwrap();
    }
    reopens_and_rewrites("policy", POLICY_WAL, read_policy, write_policy);

    fn read_users(kind: StorageKind) {
        let db = UserDb::open(kind).unwrap();
        assert_eq!(
            db.get("utility").unwrap().hash_password,
            Sha256::digest(b"pw")
        );
        assert_eq!(db.get("utility").unwrap().public_key, [9, 8, 7]);
    }
    fn write_users(kind: StorageKind) {
        let mut db = UserDb::open(kind).unwrap();
        db.register("utility", "pw", &[9, 8, 7]).unwrap();
        db.sync().unwrap();
    }
    reopens_and_rewrites("users", USERS_WAL, read_users, write_users);
}
