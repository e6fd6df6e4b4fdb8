//! The workspace's random-source trait.

/// A source of random bits. `mws_crypto::HmacDrbg` is the workspace's one
/// production implementation; everything that draws randomness is generic
/// over this trait so callers can hand a `&mut` DRBG down the stack.
pub trait Rng {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// SplitMix64 for this crate's unit tests (`mws-crypto`, which owns the
/// DRBG, sits above this crate).
#[cfg(test)]
pub(crate) struct TestRng(pub u64);

#[cfg(test)]
impl Rng for TestRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}
