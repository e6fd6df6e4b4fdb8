//! Block-cipher modes of operation: ECB (tests only), CBC and CTR.

use crate::{pkcs7_pad, pkcs7_unpad, BlockCipher, CipherError};

/// Electronic codebook mode.
///
/// ECB leaks plaintext structure and is exposed only because the paper's
/// prototype Perl `Crypt::DES` calls were effectively single-block ECB; it
/// exists for comparison tests, not for protocol use.
pub struct EcbMode;

impl EcbMode {
    /// Encrypts with PKCS#7 padding.
    pub fn encrypt<C: BlockCipher>(cipher: &C, plaintext: &[u8]) -> Vec<u8> {
        let mut data = pkcs7_pad(plaintext, C::BLOCK_SIZE);
        for block in data.chunks_mut(C::BLOCK_SIZE) {
            cipher.encrypt_block(block);
        }
        data
    }

    /// Decrypts and strips PKCS#7 padding.
    pub fn decrypt<C: BlockCipher>(cipher: &C, ciphertext: &[u8]) -> Result<Vec<u8>, CipherError> {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(C::BLOCK_SIZE) {
            return Err(CipherError::BadLength);
        }
        let mut data = ciphertext.to_vec();
        for block in data.chunks_mut(C::BLOCK_SIZE) {
            cipher.decrypt_block(block);
        }
        pkcs7_unpad(&data, C::BLOCK_SIZE).map_err(|_| CipherError::BadPadding)
    }
}

/// Cipher block chaining with PKCS#7 padding.
pub struct CbcMode;

impl CbcMode {
    /// Encrypts `plaintext` under `iv` (must be one block long).
    pub fn encrypt<C: BlockCipher>(
        cipher: &C,
        iv: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, CipherError> {
        if iv.len() != C::BLOCK_SIZE {
            return Err(CipherError::BadIv);
        }
        let mut data = pkcs7_pad(plaintext, C::BLOCK_SIZE);
        let mut prev = iv.to_vec();
        for block in data.chunks_mut(C::BLOCK_SIZE) {
            for (b, p) in block.iter_mut().zip(prev.iter()) {
                *b ^= p;
            }
            cipher.encrypt_block(block);
            prev.copy_from_slice(block);
        }
        Ok(data)
    }

    /// Decrypts and strips padding.
    pub fn decrypt<C: BlockCipher>(
        cipher: &C,
        iv: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, CipherError> {
        if iv.len() != C::BLOCK_SIZE {
            return Err(CipherError::BadIv);
        }
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(C::BLOCK_SIZE) {
            return Err(CipherError::BadLength);
        }
        let mut data = ciphertext.to_vec();
        let mut prev = iv.to_vec();
        for block in data.chunks_mut(C::BLOCK_SIZE) {
            let this_ct = block.to_vec();
            cipher.decrypt_block(block);
            for (b, p) in block.iter_mut().zip(prev.iter()) {
                *b ^= p;
            }
            prev = this_ct;
        }
        pkcs7_unpad(&data, C::BLOCK_SIZE).map_err(|_| CipherError::BadPadding)
    }
}

/// Counter mode (no padding; encryption == decryption).
///
/// The counter block is `nonce ‖ big-endian block counter` where the nonce
/// occupies the first half of the block.
pub struct CtrMode;

impl CtrMode {
    /// Applies the CTR keystream to `data` in place.
    pub fn apply<C: BlockCipher>(
        cipher: &C,
        nonce: &[u8],
        data: &mut [u8],
    ) -> Result<(), CipherError> {
        let half = C::BLOCK_SIZE / 2;
        if nonce.len() != half {
            return Err(CipherError::BadIv);
        }
        // The counter occupies the second half-block (big-endian), so the
        // nonce is never overwritten regardless of block size. For 64-bit
        // blocks the counter is 32-bit: 2³² blocks = 32 GiB, far above any
        // protocol message.
        let counter_max = if half >= 8 {
            u64::MAX
        } else {
            (1u64 << (8 * half)) - 1
        };
        if data.len().div_ceil(C::BLOCK_SIZE) as u64 > counter_max {
            return Err(CipherError::BadLength);
        }
        // Counter blocks go to the cipher a stack buffer at a time, so a
        // multi-block cipher (bitsliced AES) fills its lanes.
        let mut run = [0u8; 128];
        let run_len = run.len() / C::BLOCK_SIZE * C::BLOCK_SIZE;
        let mut counter = 0u64;
        for chunk in data.chunks_mut(run_len) {
            let used = chunk.len().next_multiple_of(C::BLOCK_SIZE);
            for block in run[..used].chunks_exact_mut(C::BLOCK_SIZE) {
                block[..half].copy_from_slice(nonce);
                block[half..].copy_from_slice(&counter.to_be_bytes()[8 - half.min(8)..]);
                counter = counter.wrapping_add(1);
            }
            cipher.encrypt_blocks(&mut run[..used]);
            for (d, k) in chunk.iter_mut().zip(&run) {
                *d ^= k;
            }
        }
        Ok(())
    }

    /// One-shot encryption.
    pub fn encrypt<C: BlockCipher>(
        cipher: &C,
        nonce: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, CipherError> {
        let mut out = plaintext.to_vec();
        Self::apply(cipher, nonce, &mut out)?;
        Ok(out)
    }

    /// One-shot decryption (identical to encryption).
    pub fn decrypt<C: BlockCipher>(
        cipher: &C,
        nonce: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, CipherError> {
        Self::encrypt(cipher, nonce, ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aes128, Des};

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn cbc_roundtrip_des() {
        let des = Des::new(&unhex("133457799bbcdff1")).unwrap();
        let iv = [0x42u8; 8];
        for len in [0usize, 1, 7, 8, 9, 100] {
            let msg: Vec<u8> = (0..len as u8).collect();
            let ct = CbcMode::encrypt(&des, &iv, &msg).unwrap();
            assert_eq!(CbcMode::decrypt(&des, &iv, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn cbc_nist_aes128_vector() {
        // NIST SP 800-38A F.2.1 (CBC-AES128), first block, with manual padding
        // removed: encrypt exactly one block and compare the first 16 ct bytes.
        let aes = Aes128::new(&unhex("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        let iv = unhex("000102030405060708090a0b0c0d0e0f");
        let pt = unhex("6bc1bee22e409f96e93d7e117393172a");
        let ct = CbcMode::encrypt(&aes, &iv, &pt).unwrap();
        assert_eq!(&ct[..16], &unhex("7649abac8119b246cee98e9b12e9197d")[..]);
    }

    #[test]
    fn cbc_different_iv_different_ct() {
        let des = Des::new(&[1; 8]).unwrap();
        let msg = b"same message";
        let c1 = CbcMode::encrypt(&des, &[0u8; 8], msg).unwrap();
        let c2 = CbcMode::encrypt(&des, &[1u8; 8], msg).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn cbc_bad_inputs() {
        let des = Des::new(&[1; 8]).unwrap();
        assert_eq!(
            CbcMode::encrypt(&des, &[0u8; 7], b"x").unwrap_err(),
            CipherError::BadIv
        );
        assert_eq!(
            CbcMode::decrypt(&des, &[0u8; 8], &[1, 2, 3]).unwrap_err(),
            CipherError::BadLength
        );
        // Corrupt padding surfaces as BadPadding.
        let ct = CbcMode::encrypt(&des, &[0u8; 8], b"hello").unwrap();
        let mut bad = ct.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xff;
        assert!(matches!(
            CbcMode::decrypt(&des, &[0u8; 8], &bad),
            Err(CipherError::BadPadding) | Ok(_)
        ));
    }

    #[test]
    fn ctr_nonce_is_effective_for_64_bit_blocks() {
        // Regression: the counter must not overwrite the nonce half of the
        // block (it used to for 8-byte-block ciphers, making every DES-CTR
        // stream under one key identical).
        let des = Des::new(&[3; 8]).unwrap();
        let msg = [0u8; 32];
        let c1 = CtrMode::encrypt(&des, &[0u8; 4], &msg).unwrap();
        let c2 = CtrMode::encrypt(&des, &[1u8; 4], &msg).unwrap();
        assert_ne!(c1, c2, "different nonces must give different keystreams");
        // And each decrypts with its own nonce only.
        assert_eq!(CtrMode::decrypt(&des, &[0u8; 4], &c1).unwrap(), msg);
        assert_ne!(CtrMode::decrypt(&des, &[1u8; 4], &c1).unwrap(), msg);
    }

    #[test]
    fn ctr_roundtrip_and_symmetry() {
        let aes = Aes128::new(&[9; 16]).unwrap();
        let nonce = [7u8; 8];
        let msg: Vec<u8> = (0..100u8).collect();
        let ct = CtrMode::encrypt(&aes, &nonce, &msg).unwrap();
        assert_ne!(ct, msg);
        assert_eq!(ct.len(), msg.len(), "CTR adds no padding");
        assert_eq!(CtrMode::decrypt(&aes, &nonce, &ct).unwrap(), msg);
    }

    #[test]
    fn ctr_multi_block_runs_match_per_block_oracle() {
        // Every length across two stack runs: the bitsliced AES fed runs
        // of counter blocks against the byte-wise cipher fed one at a time.
        let key = [0x3c; 16];
        let fast = Aes128::new(&key).unwrap();
        let oracle = crate::aes::OracleAes128(Aes128::new(&key).unwrap());
        let msg: Vec<u8> = (0..=255u8).chain(0..=44).collect();
        for len in 0..=msg.len() {
            assert_eq!(
                CtrMode::encrypt(&fast, &[7; 8], &msg[..len]).unwrap(),
                CtrMode::encrypt(&oracle, &[7; 8], &msg[..len]).unwrap(),
                "len {len}"
            );
        }
    }

    #[test]
    fn ecb_exposes_structure_cbc_hides_it() {
        // Two identical blocks: ECB repeats ciphertext, CBC does not —
        // the property that justifies the mode choice in mws-core.
        let des = Des::new(&[5; 8]).unwrap();
        let msg = [0xabu8; 16]; // two identical 8-byte blocks
        let ecb = EcbMode::encrypt(&des, &msg);
        assert_eq!(&ecb[..8], &ecb[8..16]);
        let cbc = CbcMode::encrypt(&des, &[0u8; 8], &msg).unwrap();
        assert_ne!(&cbc[..8], &cbc[8..16]);
    }

    #[test]
    fn ecb_roundtrip() {
        let des = Des::new(&[5; 8]).unwrap();
        let msg = b"attack at dawn";
        let ct = EcbMode::encrypt(&des, msg);
        assert_eq!(EcbMode::decrypt(&des, &ct).unwrap(), msg);
    }
}
