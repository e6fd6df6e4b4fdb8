//! Counter mode, the one block-cipher mode of operation: the keystream
//! under the encrypt-then-MAC [`crate::seal`].

use crate::{BlockCipher, CipherError};

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
}
