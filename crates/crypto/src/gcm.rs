//! Galois/Counter Mode (NIST SP 800-38D) over any 128-bit block cipher.
//!
//! The modern single-pass AEAD alternative to the workspace's
//! encrypt-then-MAC composition (benchmarked against it in E7) and the
//! record cipher of `mws-wire::secure`.
//!
//! A [`Gcm`] is a cipher keyed once: it holds the block cipher and the
//! hash subkey `H = E(0¹²⁸)` expanded for multiplication, so a session
//! that seals many records pays for `H` once per key, not once per record.
//! [`gcm_seal`]/[`gcm_open`] build that context for a single call.
//!
//! # Constant time
//!
//! GHASH multiplies in `GF(2¹²⁸)` by carry-less multiplication assembled
//! from ordinary integer multiplies on operands with three-in-four bits
//! masked out (BearSSL's `ctmul64` construction): the holes absorb the
//! carries, so the integer product, masked again, *is* the carry-less one.
//! No branch and no memory index depends on `H`, the data or the running
//! hash. The counter blocks go to the cipher in runs
//! ([`BlockCipher::encrypt_blocks`]), `E(J₀)` for the tag riding in the
//! first run; tags are compared with [`ct_eq`]. Whether the whole seal is
//! constant-time is then the cipher's property — see `aes.rs`.
//!
//! # Oracle
//!
//! The bit-by-bit, branching `gf_mul` this replaced is kept under
//! `#[cfg(test)]`; the tests hold the fast multiply to it and the whole
//! of GCM to a per-block composition over it, for every tail length.

use crate::{ct_eq, BlockCipher, CipherError};

/// GCM tag length (full 128-bit tags only).
pub const GCM_TAG_LEN: usize = 16;

/// Counter blocks encrypted per [`BlockCipher::encrypt_blocks`] call: two
/// passes of the four-lane AES core, on the stack.
const RUN_BLOCKS: usize = 8;

/// Low 64 bits of the carry-less product `x ⊗ y`. Each operand is split
/// into four words holding every fourth bit; a product of two such words
/// sums at most 16 one-bit terms per 4-bit slot — 16 only in the top slot,
/// whose carry falls off the word — so no slot disturbs its neighbour and
/// the bit wanted is the low bit of each slot.
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    let x = [x & M0, x & (M0 << 1), x & (M0 << 2), x & (M0 << 3)];
    let y = [y & M0, y & (M0 << 1), y & (M0 << 2), y & (M0 << 3)];
    let mut z = 0;
    for k in 0..4 {
        let mut slot = 0;
        for i in 0..4 {
            slot ^= x[i].wrapping_mul(y[(4 + k - i) % 4]);
        }
        z |= slot & (M0 << k);
    }
    z
}

/// The hash subkey `H`, ready to multiply by: its two halves and their sum
/// (Karatsuba's three products), each also bit-reversed for the high half
/// of a product — `rev(a) ⊗ rev(b)` is `rev(a ⊗ b)` one bit along.
#[derive(Clone)]
struct GHashKey {
    h: [u64; 3],
    h_rev: [u64; 3],
}

impl GHashKey {
    fn new(h: u128) -> Self {
        let (lo, hi) = (h as u64, (h >> 64) as u64);
        let h = [lo, hi, lo ^ hi];
        Self {
            h,
            h_rev: h.map(u64::reverse_bits),
        }
    }

    /// `y · H` in `GF(2¹²⁸)`, both in GCM's bit order (the most
    /// significant bit of the big-endian block is the coefficient of x⁰).
    fn mul(&self, y: u128) -> u128 {
        let (lo, hi) = (y as u64, (y >> 64) as u64);
        let y = [lo, hi, lo ^ hi];
        let y_rev = [lo.reverse_bits(), hi.reverse_bits()];
        let y_rev = [y_rev[0], y_rev[1], y_rev[0] ^ y_rev[1]];
        // Full 127-bit products of the three 64-bit pairs.
        let mut z = [0u128; 3];
        for i in 0..3 {
            let low = bmul64(y[i], self.h[i]);
            let high = bmul64(y_rev[i], self.h_rev[i]).reverse_bits() >> 1;
            z[i] = (u128::from(high) << 64) | u128::from(low);
        }
        let mid = z[2] ^ z[0] ^ z[1];
        let lo = z[0] ^ (mid << 64);
        let hi = z[1] ^ (mid >> 64);
        // In GCM's reflected order the 255-bit product sits one bit low.
        let (hi, lo) = ((hi << 1) | (lo >> 127), lo << 1);
        // `lo` now holds x¹²⁸…x²⁵⁵: fold it down by x¹²⁸ = x⁷ + x² + x + 1,
        // where multiplying by x is a right shift. The seven bits that
        // fall off the first fold are folded again via `carry`.
        let carry = (lo << 127) ^ (lo << 126) ^ (lo << 121);
        let lo = lo ^ carry;
        hi ^ lo ^ (lo >> 1) ^ (lo >> 2) ^ (lo >> 7)
    }
}

/// GHASH over a sequence of zero-padded segments.
struct GHash<'k> {
    key: &'k GHashKey,
    acc: u128,
}

impl<'k> GHash<'k> {
    fn new(key: &'k GHashKey) -> Self {
        Self { key, acc: 0 }
    }

    fn update_padded(&mut self, data: &[u8]) {
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let block = u128::from_be_bytes(block.try_into().expect("16 bytes"));
            self.acc = self.key.mul(self.acc ^ block);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 16];
            block[..tail.len()].copy_from_slice(tail);
            self.acc = self.key.mul(self.acc ^ u128::from_be_bytes(block));
        }
    }

    fn finalize(self, aad_len: usize, ct_len: usize) -> u128 {
        let lengths = ((aad_len as u128 * 8) << 64) | (ct_len as u128 * 8);
        self.key.mul(self.acc ^ lengths)
    }
}

/// AES-GCM (or GCM over any 128-bit block cipher) keyed once: the cipher
/// and its hash subkey. `C` may be an owned cipher — a session keeps one
/// `Gcm` per key generation — or a `&C` borrowed for a single call.
#[derive(Clone)]
pub struct Gcm<C> {
    cipher: C,
    key: GHashKey,
}

impl<C: BlockCipher> Gcm<C> {
    /// Derives `H` under `cipher`: one block encryption, the only work
    /// beyond the cipher's own key schedule.
    pub fn new(cipher: C) -> Result<Self, CipherError> {
        if C::BLOCK_SIZE != 16 {
            return Err(CipherError::BadKey);
        }
        let mut h = [0u8; 16];
        cipher.encrypt_block(&mut h);
        Ok(Self {
            cipher,
            key: GHashKey::new(u128::from_be_bytes(h)),
        })
    }

    /// The pre-counter block `J₀` for `iv`.
    fn j0(&self, iv: &[u8]) -> Result<[u8; 16], CipherError> {
        if iv.len() == 12 {
            let mut j0 = [0u8; 16];
            j0[..12].copy_from_slice(iv);
            j0[15] = 1;
            return Ok(j0);
        }
        if iv.is_empty() {
            return Err(CipherError::BadIv);
        }
        // GHASH the IV for non-96-bit lengths.
        let mut g = GHash::new(&self.key);
        g.update_padded(iv);
        Ok(g.finalize(0, iv.len()).to_be_bytes())
    }

    /// GCTR from `J₀` itself: XORs the keystream of counters `1..` into
    /// `data` and returns `E(J₀)`, the tag mask, which comes out of the
    /// same run of cipher blocks as the first of the keystream.
    fn gctr(&self, j0: &[u8; 16], mut data: &mut [u8]) -> u128 {
        let base = u32::from_be_bytes(j0[12..].try_into().expect("4 bytes"));
        let mut run = [0u8; 16 * RUN_BLOCKS];
        let mut counter = 0u32;
        let mut tag_mask = 0;
        // The first run spends one block on J₀.
        let mut skip = 16;
        loop {
            let used = (skip + data.len()).min(run.len()).next_multiple_of(16);
            for block in run[..used].chunks_exact_mut(16) {
                block[..12].copy_from_slice(&j0[..12]);
                block[12..].copy_from_slice(&base.wrapping_add(counter).to_be_bytes());
                counter = counter.wrapping_add(1);
            }
            self.cipher.encrypt_blocks(&mut run[..used]);
            if skip != 0 {
                tag_mask = u128::from_be_bytes(run[..16].try_into().expect("16 bytes"));
            }
            let (now, later) = data.split_at_mut(data.len().min(used - skip));
            for (d, k) in now.iter_mut().zip(&run[skip..]) {
                *d ^= k;
            }
            if later.is_empty() {
                return tag_mask;
            }
            (data, skip) = (later, 0);
        }
    }

    fn tag(&self, tag_mask: u128, aad: &[u8], ct: &[u8]) -> [u8; GCM_TAG_LEN] {
        let mut g = GHash::new(&self.key);
        g.update_padded(aad);
        g.update_padded(ct);
        (g.finalize(aad.len(), ct.len()) ^ tag_mask).to_be_bytes()
    }

    /// Encrypts `data` in place and returns the tag over `aad` and the
    /// ciphertext — for callers that lay out `… ‖ ciphertext ‖ tag`
    /// in a buffer of their own.
    pub fn seal_in_place(
        &self,
        iv: &[u8],
        aad: &[u8],
        data: &mut [u8],
    ) -> Result<[u8; GCM_TAG_LEN], CipherError> {
        let j0 = self.j0(iv)?;
        let tag_mask = self.gctr(&j0, data);
        Ok(self.tag(tag_mask, aad, data))
    }

    /// GCM encryption: returns `ciphertext ‖ tag(16)`.
    pub fn seal(&self, iv: &[u8], aad: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CipherError> {
        let mut out = Vec::with_capacity(plaintext.len() + GCM_TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(iv, aad, &mut out)?;
        out.extend_from_slice(&tag);
        Ok(out)
    }

    /// GCM decryption of `ciphertext ‖ tag(16)` into one fresh buffer. The
    /// keystream is applied before the tag is known to be good (`E(J₀)`
    /// comes out of that pass), but nothing is returned unless it is.
    pub fn open(&self, iv: &[u8], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CipherError> {
        if sealed.len() < GCM_TAG_LEN {
            return Err(CipherError::BadLength);
        }
        let j0 = self.j0(iv)?;
        let (ct, tag) = sealed.split_at(sealed.len() - GCM_TAG_LEN);
        let mut out = ct.to_vec();
        let tag_mask = self.gctr(&j0, &mut out);
        if !ct_eq(&self.tag(tag_mask, aad, ct), tag) {
            return Err(CipherError::BadPadding); // tag mismatch
        }
        Ok(out)
    }
}

/// GCM encryption: returns `ciphertext ‖ tag(16)`.
pub fn gcm_seal<C: BlockCipher>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    plaintext: &[u8],
) -> Result<Vec<u8>, CipherError> {
    Gcm::new(cipher)?.seal(iv, aad, plaintext)
}

/// GCM decryption of a [`gcm_seal`] output.
pub fn gcm_open<C: BlockCipher>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CipherError> {
    Gcm::new(cipher)?.open(iv, aad, sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aes128;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn nist_test_case_1_empty() {
        // AES-128, zero key, zero IV, empty everything.
        let aes = Aes128::new(&[0; 16]).unwrap();
        let sealed = gcm_seal(&aes, &[0; 12], b"", b"").unwrap();
        assert_eq!(hex(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
        assert_eq!(gcm_open(&aes, &[0; 12], b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn nist_test_case_2_one_block() {
        let aes = Aes128::new(&[0; 16]).unwrap();
        let sealed = gcm_seal(&aes, &[0; 12], b"", &[0u8; 16]).unwrap();
        assert_eq!(
            hex(&sealed),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn nist_test_case_3_and_4() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let aes = Aes128::new(&key).unwrap();
        let iv = unhex("cafebabefacedbaddecaf888");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        // Case 3: no AAD.
        let sealed = gcm_seal(&aes, &iv, b"", &pt).unwrap();
        assert_eq!(
            hex(&sealed[..64]),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(hex(&sealed[64..]), "4d5c2af327cd64a62cf35abd2ba6fab4");

        // Case 4: with AAD and a short final block.
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let sealed = gcm_seal(&aes, &iv, &aad, &pt[..60]).unwrap();
        assert_eq!(hex(&sealed[60..]), "5bc94fbc3221a5db94fae95ae7121a47");
        assert_eq!(gcm_open(&aes, &iv, &aad, &sealed).unwrap(), &pt[..60]);
    }

    #[test]
    fn non_96_bit_iv() {
        // NIST test case 6 uses a 60-byte IV.
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let aes = Aes128::new(&key).unwrap();
        let iv = unhex(
            "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728\
             c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
        );
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let sealed = gcm_seal(&aes, &iv, &aad, &pt).unwrap();
        assert_eq!(hex(&sealed[pt.len()..]), "619cc5aefffe0bfa462af43c1699d050");
        assert_eq!(gcm_open(&aes, &iv, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn nist_test_cases_13_to_16_aes256() {
        let aes = crate::Aes256::new(&[0; 32]).unwrap();
        // Case 13: empty everything.
        let sealed = gcm_seal(&aes, &[0; 12], b"", b"").unwrap();
        assert_eq!(hex(&sealed), "530f8afbc74536b9a963b4f1c4cb738b");
        // Case 14: one zero block.
        let sealed = gcm_seal(&aes, &[0; 12], b"", &[0u8; 16]).unwrap();
        assert_eq!(
            hex(&sealed),
            "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"
        );

        let key = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
        let aes = crate::Aes256::new(&key).unwrap();
        let iv = unhex("cafebabefacedbaddecaf888");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let ct = "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                  8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";
        // Case 15: four blocks, no AAD.
        let sealed = gcm_seal(&aes, &iv, b"", &pt).unwrap();
        assert_eq!(hex(&sealed[..64]), ct);
        assert_eq!(hex(&sealed[64..]), "b094dac5d93471bdec1a502270e3cc6c");
        assert_eq!(gcm_open(&aes, &iv, b"", &sealed).unwrap(), pt);
        // Case 16: AAD and a short final block.
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let sealed = gcm_seal(&aes, &iv, &aad, &pt[..60]).unwrap();
        assert_eq!(hex(&sealed[..60]), ct[..120]);
        assert_eq!(hex(&sealed[60..]), "76fc6ece0f4e1768cddf8853bb2d551b");
        assert_eq!(gcm_open(&aes, &iv, &aad, &sealed).unwrap(), &pt[..60]);
    }

    #[test]
    fn tamper_and_aad_binding() {
        let aes = Aes128::new(&[7; 16]).unwrap();
        let sealed = gcm_seal(&aes, &[1; 12], b"hdr", b"payload").unwrap();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(gcm_open(&aes, &[1; 12], b"hdr", &bad).is_err(), "byte {i}");
        }
        assert!(gcm_open(&aes, &[1; 12], b"other", &sealed).is_err());
        assert!(gcm_open(&aes, &[2; 12], b"hdr", &sealed).is_err());
        assert!(gcm_open(&aes, &[1; 12], b"hdr", &sealed[..10]).is_err());
    }

    #[test]
    fn rejects_64_bit_block_ciphers() {
        let des = crate::Des::new(&[1; 8]).unwrap();
        assert!(gcm_seal(&des, &[0; 12], b"", b"").is_err());
    }

    /// Multiplication in GF(2¹²⁸) with the GCM polynomial
    /// `x¹²⁸ + x⁷ + x² + x + 1` (right-shift formulation, MSB-first bits),
    /// one branching step per bit: the oracle for [`GHashKey::mul`].
    fn gf_mul(x: u128, y: u128) -> u128 {
        let mut z = 0u128;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= 0xe1 << 120;
            }
        }
        z
    }

    /// SP 800-38D for a 96-bit IV, composed block by block from
    /// `encrypt_block` and [`gf_mul`]: the oracle for [`Gcm::seal`].
    fn seal_oracle<C: BlockCipher>(cipher: &C, iv: &[u8; 12], aad: &[u8], pt: &[u8]) -> Vec<u8> {
        let encrypt = |counter: u32| {
            let mut block = [0u8; 16];
            block[..12].copy_from_slice(iv);
            block[12..].copy_from_slice(&counter.to_be_bytes());
            cipher.encrypt_block(&mut block);
            block
        };
        let mut h = [0u8; 16];
        cipher.encrypt_block(&mut h);
        let h = u128::from_be_bytes(h);
        let mut out = pt.to_vec();
        for (i, chunk) in out.chunks_mut(16).enumerate() {
            for (d, k) in chunk.iter_mut().zip(encrypt(i as u32 + 2)) {
                *d ^= k;
            }
        }
        let mut acc = 0u128;
        for segment in [aad, &out[..]] {
            for chunk in segment.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                acc = gf_mul(acc ^ u128::from_be_bytes(block), h);
            }
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (pt.len() as u128 * 8);
        let s = gf_mul(acc ^ lengths, h);
        out.extend_from_slice(&(s ^ u128::from_be_bytes(encrypt(1))).to_be_bytes());
        out
    }

    #[test]
    fn ghash_multiply_matches_bitwise_oracle() {
        let edges = [0u128, 1 << 127, u128::MAX, 1, 0xe1 << 120];
        for x in edges {
            for y in edges {
                assert_eq!(GHashKey::new(y).mul(x), gf_mul(x, y), "{x:#x} · {y:#x}");
            }
        }
        let u128_of = |b: [u8; 16]| u128::from_be_bytes(b);
        mws_prop::cases(512, |g| (u128_of(g.array()), u128_of(g.array()))).check(|(x, y)| {
            assert_eq!(GHashKey::new(y).mul(x), gf_mul(x, y));
        });
    }

    #[test]
    fn ghash_intermediate_of_nist_test_case_2() {
        // SP 800-38D validation set, test case 2: X₁ = C₁ · H.
        let h = u128::from_str_radix("66e94bd4ef8a2c3b884cfa59ca342b2e", 16).unwrap();
        let c1 = u128::from_str_radix("0388dace60b6a392f328c2b971b2fe78", 16).unwrap();
        let x1 = u128::from_str_radix("5e2ec746917062882c85b0685353deb7", 16).unwrap();
        assert_eq!(GHashKey::new(h).mul(c1), x1);
        assert_eq!(gf_mul(c1, h), x1);
    }

    #[test]
    fn seal_matches_oracle_composition_for_every_tail_and_lane_remainder() {
        // Plaintexts 0..=80 bytes cross every partial tail block and every
        // fill of the four AES lanes and of the first (J₀-carrying) run;
        // the AAD lengths are empty, the record layer's 13, one block, and
        // a block and a bit.
        let key: [u8; 16] = core::array::from_fn(|i| 0xa0 ^ i as u8);
        let fast = Gcm::new(Aes128::new(&key).unwrap()).unwrap();
        let oracle = crate::aes::OracleAes128(Aes128::new(&key).unwrap());
        let bytes: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5c).collect();
        for pt_len in 0..=80 {
            for aad_len in [0, 13, 16, 20] {
                let iv = [pt_len as u8; 12];
                let (aad, pt) = (&bytes[80..80 + aad_len], &bytes[..pt_len]);
                let sealed = fast.seal(&iv, aad, pt).unwrap();
                assert_eq!(
                    sealed,
                    seal_oracle(&oracle, &iv, aad, pt),
                    "pt {pt_len} aad {aad_len}"
                );
                assert_eq!(fast.open(&iv, aad, &sealed).unwrap(), pt);
            }
        }
    }

    #[test]
    fn long_messages_match_oracle_composition() {
        // Past one run of counter blocks, where `gctr` loops.
        mws_prop::cases(24, |g| (g.array::<16>(), g.array::<12>(), g.bytes(81..700))).check(
            |(key, iv, pt)| {
                let fast = Gcm::new(Aes128::new(&key).unwrap()).unwrap();
                let oracle = crate::aes::OracleAes128(Aes128::new(&key).unwrap());
                assert_eq!(
                    fast.seal(&iv, b"aad", &pt).unwrap(),
                    seal_oracle(&oracle, &iv, b"aad", &pt)
                );
            },
        );
    }
}
