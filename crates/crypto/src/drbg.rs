//! HMAC-DRBG (NIST SP 800-90A) — the workspace's deterministic CSPRNG.
//!
//! Smart devices in the simulation are seeded deterministically so that every
//! experiment is reproducible; the DRBG also backs nonce generation in
//! `mws-core`. It implements [`Rng`] so it can be used anywhere a
//! random source is expected (e.g. prime generation).

use crate::{Digest, Hmac, Sha256};
use mws_bigint::Rng;

/// HMAC-SHA256 deterministic random bit generator.
pub struct HmacDrbg {
    k: Vec<u8>,
    v: Vec<u8>,
    reseed_counter: u64,
}

impl HmacDrbg {
    /// Instantiates from entropy (plus optional personalization).
    pub fn new(seed: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = Self {
            k: vec![0u8; Sha256::OUTPUT_LEN],
            v: vec![1u8; Sha256::OUTPUT_LEN],
            reseed_counter: 1,
        };
        let mut material = seed.to_vec();
        material.extend_from_slice(personalization);
        drbg.drbg_update(Some(&material));
        drbg
    }

    /// Convenience: instantiate from a 64-bit seed (simulation use).
    pub fn from_u64(seed: u64) -> Self {
        Self::new(&seed.to_be_bytes(), b"mws-sim")
    }

    /// Mixes fresh entropy into the state.
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.drbg_update(Some(entropy));
        self.reseed_counter = 1;
    }

    fn drbg_update(&mut self, provided: Option<&[u8]>) {
        let mut h = Hmac::<Sha256>::new(&self.k);
        h.update(&self.v);
        h.update(&[0x00]);
        if let Some(p) = provided {
            h.update(p);
        }
        self.k = h.finalize();
        self.v = Hmac::<Sha256>::mac(&self.k, &self.v);
        if let Some(p) = provided {
            let mut h = Hmac::<Sha256>::new(&self.k);
            h.update(&self.v);
            h.update(&[0x01]);
            h.update(p);
            self.k = h.finalize();
            self.v = Hmac::<Sha256>::mac(&self.k, &self.v);
        }
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn generate(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            self.v = Hmac::<Sha256>::mac(&self.k, &self.v);
            let take = (out.len() - filled).min(self.v.len());
            out[filled..filled + take].copy_from_slice(&self.v[..take]);
            filled += take;
        }
        self.drbg_update(None);
        self.reseed_counter += 1;
    }

    /// Returns `n` pseudorandom bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.generate(&mut out);
        out
    }
}

impl Rng for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.generate(&mut b);
        u32::from_be_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.generate(&mut b);
        u64::from_be_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.generate(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_cavp_vector() {
        // NIST CAVP HMAC_DRBG SHA-256, no reseed, no additional input:
        // EntropyInput || Nonce as seed material, two generate calls of 1024 bits.
        let entropy = unhex("ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488");
        let nonce = unhex("659ba96c601dc69fc902940805ec0ca8");
        let mut seed = entropy;
        seed.extend_from_slice(&nonce);
        let mut drbg = HmacDrbg::new(&seed, &[]);
        let mut out = vec![0u8; 128];
        drbg.generate(&mut out);
        drbg.generate(&mut out);
        assert_eq!(
            hex(&out),
            "e528e9abf2dece54d47c7e75e5fe302149f817ea9fb4bee6f4199697d04d5b89\
             d54fbb978a15b5c443c9ec21036d2460b6f73ebad0dc2aba6e624abf07745bc1\
             07694bb7547bb0995f70de25d6b29e2d3011bb19d27676c07162c8b5ccde0668\
             961df86803482cb37ed6d5c0bb8d50cf1f50d476aa0458bdaba806f48be9dcb8"
        );
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = HmacDrbg::from_u64(7).bytes(64);
        let b = HmacDrbg::from_u64(7).bytes(64);
        let c = HmacDrbg::from_u64(8).bytes(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::from_u64(1);
        let mut b = HmacDrbg::from_u64(1);
        let _ = a.bytes(32);
        let _ = b.bytes(32);
        b.reseed(b"fresh entropy");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn rng_stream_is_pinned() {
        // Captured at e1e27ef, when these were `rand::RngCore` methods:
        // daemons, `mws-clusterctl` and seeded provisioning all derive keys
        // from this stream, so it must never move.
        let mut drbg = HmacDrbg::from_u64(1);
        assert_eq!(drbg.next_u32(), 0x58fe_5fe3);
        assert_eq!(drbg.next_u64(), 0x6655_1432_2aae_51f1);
        let mut buf = [0u8; 40];
        drbg.fill_bytes(&mut buf);
        assert_eq!(
            hex(&buf),
            "fdaa074157a37f1923c8cca2285ccb956b53a9f76bfa014b951769d93eb83d48\
             cde351a47b2153de"
        );
    }

    #[test]
    fn large_generate_spans_blocks() {
        let mut drbg = HmacDrbg::from_u64(5);
        let out = drbg.bytes(1000);
        assert_eq!(out.len(), 1000);
        // Entropy sanity: not all equal.
        assert!(out.windows(2).any(|w| w[0] != w[1]));
    }
}
