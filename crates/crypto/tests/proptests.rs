//! Property-based tests for the crypto substrate.

use mws_crypto::{
    gcm_open, gcm_seal, open, pkcs7_pad, pkcs7_unpad, seal, Aes128, Aes256, BlockCipher, CbcMode,
    ChaCha20, CtrMode, Des, Digest, Hmac, Md5, Sha1, Sha256, TripleDes,
};
use mws_prop::cases;

fn incremental_any_split<D: Digest>() {
    cases(128, |g| (g.bytes(0..512), g.size(0..512))).check(|(data, split)| {
        let split = split.min(data.len());
        let mut h = D::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), D::digest(&data));
    });
}

#[test]
fn sha256_incremental_any_split() {
    incremental_any_split::<Sha256>();
}

#[test]
fn sha1_incremental_any_split() {
    incremental_any_split::<Sha1>();
}

#[test]
fn md5_incremental_any_split() {
    incremental_any_split::<Md5>();
}

#[test]
fn hmac_key_sensitivity() {
    cases(128, |g| (g.bytes(1..100), g.bytes(0..100))).check(|(key, data)| {
        let t1 = Hmac::<Sha256>::mac(&key, &data);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        let t2 = Hmac::<Sha256>::mac(&key2, &data);
        assert_ne!(t1, t2);
    });
}

#[test]
fn pkcs7_roundtrip() {
    cases(128, |g| (g.bytes(0..200), g.size(1..33))).check(|(data, bs)| {
        let padded = pkcs7_pad(&data, bs);
        assert_eq!(padded.len() % bs, 0);
        assert_eq!(pkcs7_unpad(&padded, bs).unwrap(), data);
    });
}

#[test]
fn des_block_roundtrip() {
    cases(128, |g| (g.array::<8>(), g.array::<8>())).check(|(key, block)| {
        let des = Des::new(&key).unwrap();
        let mut b = block;
        des.encrypt_block(&mut b);
        des.decrypt_block(&mut b);
        assert_eq!(b, block);
    });
}

#[test]
fn tdes_block_roundtrip() {
    cases(128, |g| (g.bytes(24..25), g.array::<8>())).check(|(key, block)| {
        let tdes = TripleDes::new(&key).unwrap();
        let mut b = block;
        tdes.encrypt_block(&mut b);
        tdes.decrypt_block(&mut b);
        assert_eq!(b, block);
    });
}

#[test]
fn aes128_block_roundtrip() {
    cases(128, |g| (g.array::<16>(), g.array::<16>())).check(|(key, block)| {
        let aes = Aes128::new(&key).unwrap();
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        assert_eq!(b, block);
    });
}

#[test]
fn aes256_block_roundtrip() {
    cases(128, |g| (g.bytes(32..33), g.array::<16>())).check(|(key, block)| {
        let aes = Aes256::new(&key).unwrap();
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        assert_eq!(b, block);
    });
}

#[test]
fn cbc_roundtrip_any_message() {
    cases(128, |g| (g.array::<16>(), g.array::<16>(), g.bytes(0..300))).check(|(key, iv, msg)| {
        let aes = Aes128::new(&key).unwrap();
        let ct = CbcMode::encrypt(&aes, &iv, &msg).unwrap();
        assert_eq!(CbcMode::decrypt(&aes, &iv, &ct).unwrap(), msg);
    });
}

#[test]
fn ctr_roundtrip_any_message() {
    cases(128, |g| (g.array::<16>(), g.array::<8>(), g.bytes(0..300))).check(
        |(key, nonce, msg)| {
            let aes = Aes128::new(&key).unwrap();
            let ct = CtrMode::encrypt(&aes, &nonce, &msg).unwrap();
            assert_eq!(ct.len(), msg.len());
            assert_eq!(CtrMode::decrypt(&aes, &nonce, &ct).unwrap(), msg);
        },
    );
}

#[test]
fn chacha_roundtrip_any_message() {
    cases(128, |g| (g.bytes(32..33), g.bytes(12..13), g.bytes(0..300))).check(
        |(key, nonce, msg)| {
            let ct = ChaCha20::encrypt(&key, &nonce, &msg).unwrap();
            assert_eq!(ChaCha20::decrypt(&key, &nonce, &ct).unwrap(), msg);
        },
    );
}

#[test]
fn gcm_roundtrip_and_tamper() {
    cases(128, |g| {
        (
            g.array::<16>(),
            g.bytes(1..32),
            g.bytes(0..200),
            g.bytes(0..50),
            g.u16(),
        )
    })
    .check(|(key, iv, msg, aad, flip)| {
        let cipher = Aes128::new(&key).unwrap();
        let sealed = gcm_seal(&cipher, &iv, &aad, &msg).unwrap();
        assert_eq!(gcm_open(&cipher, &iv, &aad, &sealed).unwrap(), msg);
        let pos = (flip as usize) % (sealed.len() * 8);
        let mut bad = sealed.clone();
        bad[pos / 8] ^= 1 << (pos % 8);
        assert!(gcm_open(&cipher, &iv, &aad, &bad).is_err());
    });
}

#[test]
fn aead_roundtrip_and_tamper() {
    cases(128, |g| {
        (g.array::<16>(), g.bytes(0..200), g.bytes(0..50), g.u16())
    })
    .check(|(key, msg, aad, flip)| {
        let cipher = Aes128::new(&key).unwrap();
        let mac_key = [7u8; 32];
        let nonce = [5u8; 8];
        let sealed = seal(&cipher, &mac_key, &nonce, &aad, &msg).unwrap();
        assert_eq!(open(&cipher, &mac_key, &nonce, &aad, &sealed).unwrap(), msg);
        // Random single-bit corruption always detected.
        let pos = (flip as usize) % (sealed.len() * 8);
        let mut bad = sealed.clone();
        bad[pos / 8] ^= 1 << (pos % 8);
        assert!(open(&cipher, &mac_key, &nonce, &aad, &bad).is_err());
    });
}
