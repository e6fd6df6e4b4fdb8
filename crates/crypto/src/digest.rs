//! Core traits shared by the hash functions and block ciphers.

/// An incremental cryptographic hash function.
pub trait Digest: Sized + Clone {
    /// Digest output length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal compression block length in bytes (needed by HMAC).
    const BLOCK_LEN: usize;

    /// Creates a fresh hasher.
    fn new() -> Self;

    /// Absorbs more input.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and returns the digest.
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot over several segments, avoiding concatenation at call sites
    /// (the protocol hashes `A ‖ Nonce`-style concatenations frequently).
    fn digest_parts(parts: &[&[u8]]) -> Vec<u8> {
        let mut h = Self::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }
}

/// A block cipher with a fixed block size.
pub trait BlockCipher {
    /// Block size in bytes.
    const BLOCK_SIZE: usize;

    /// Encrypts one block in place. `block.len()` must equal
    /// [`Self::BLOCK_SIZE`].
    fn encrypt_block(&self, block: &mut [u8]);

    /// Encrypts `blocks.len() / BLOCK_SIZE` independent blocks in place —
    /// what CTR and GCM call with a run of counter blocks. The default is
    /// the per-block loop; a cipher that is faster on several blocks at
    /// once (bitsliced AES) overrides it.
    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        for block in blocks.chunks_exact_mut(Self::BLOCK_SIZE) {
            self.encrypt_block(block);
        }
    }

    /// Decrypts one block in place.
    fn decrypt_block(&self, block: &mut [u8]);
}

/// A borrowed cipher is a cipher, so a keyed context ([`crate::Gcm`]) can
/// either own its cipher or wrap a caller's for one call.
impl<C: BlockCipher> BlockCipher for &C {
    const BLOCK_SIZE: usize = C::BLOCK_SIZE;

    fn encrypt_block(&self, block: &mut [u8]) {
        (**self).encrypt_block(block);
    }

    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        (**self).encrypt_blocks(blocks);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        (**self).decrypt_block(block);
    }
}
