//! DES (FIPS 46-3), encryption direction only.
//!
//! DES is the cipher the paper's protocol actually names ("We have used DES
//! encryption method throughout this protocol", §V.C). Its 56-bit key is far
//! below modern standards; the reproduction keeps it for fidelity
//! (`CipherAlgo::Des` in `mws-ibe`) and benchmarks it against AES-128 in
//! experiment E7. It only ever runs forward, as a CTR keystream, so the
//! decryption key schedule is not implemented.

use crate::{BlockCipher, CipherError};

// Initial permutation.
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, //
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8, //
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, //
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

// Final permutation (inverse of IP).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, //
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29, //
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27, //
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

// Expansion from 32 to 48 bits.
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, //
    12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25, //
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

// P permutation on the S-box output.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, //
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
];

// The eight S-boxes.
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, //
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8, //
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, //
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, //
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5, //
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, //
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, //
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1, //
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, //
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, //
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9, //
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, //
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, //
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6, //
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, //
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, //
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8, //
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, //
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, //
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6, //
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, //
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, //
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2, //
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, //
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

// Permuted choice 1 (key schedule).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, //
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36, //
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, //
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
];

// Permuted choice 2.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, //
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, //
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48, //
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// Applies a DES permutation table: bit `i` of the output comes from bit
/// `table[i]` (1-based, MSB-first) of the `width`-bit input.
fn permute(input: u64, table: &[u8], width: u32) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out = (out << 1) | ((input >> (width - src as u32)) & 1);
    }
    out
}

/// The DES round function f(R, K).
fn feistel(r: u32, subkey: u64) -> u32 {
    let expanded = permute(r as u64, &E, 32);
    let x = expanded ^ subkey;
    let mut out = 0u32;
    for (i, sbox) in SBOX.iter().enumerate() {
        let six = ((x >> (42 - 6 * i)) & 0x3f) as usize;
        // Row from outer bits, column from inner four.
        let row = ((six & 0x20) >> 4) | (six & 1);
        let col = (six >> 1) & 0xf;
        out = (out << 4) | sbox[row * 16 + col] as u32;
    }
    permute(out as u64, &P, 32) as u32
}

/// Single-key DES.
#[derive(Clone)]
pub struct Des {
    subkeys: [u64; 16],
}

impl core::fmt::Debug for Des {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("Des {{ .. }}")
    }
}

impl Des {
    /// Creates a DES instance from an 8-byte key (parity bits ignored).
    pub fn new(key: &[u8]) -> Result<Self, CipherError> {
        if key.len() != 8 {
            return Err(CipherError::BadKey);
        }
        let key64 = u64::from_be_bytes(key.try_into().expect("checked length"));
        let permuted = permute(key64, &PC1, 64);
        let mut c = (permuted >> 28) as u32 & 0x0fff_ffff;
        let mut d = permuted as u32 & 0x0fff_ffff;
        let mut subkeys = [0u64; 16];
        for (i, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0fff_ffff;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0fff_ffff;
            let cd = ((c as u64) << 28) | d as u64;
            subkeys[i] = permute(cd, &PC2, 56);
        }
        Ok(Self { subkeys })
    }
}

impl BlockCipher for Des {
    const BLOCK_SIZE: usize = 8;

    fn encrypt_block(&self, block: &mut [u8]) {
        debug_assert_eq!(block.len(), 8);
        let input = u64::from_be_bytes(block.try_into().expect("8-byte block"));
        let permuted = permute(input, &IP, 64);
        let mut l = (permuted >> 32) as u32;
        let mut r = permuted as u32;
        for &k in &self.subkeys {
            let next_r = l ^ feistel(r, k);
            l = r;
            r = next_r;
        }
        // Note the final swap: output is R16 ‖ L16.
        let pre_output = ((r as u64) << 32) | l as u64;
        let output = permute(pre_output, &FP, 64);
        block.copy_from_slice(&output.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn classic_textbook_vector() {
        // The worked example from the original DES walkthrough.
        let des = Des::new(&unhex("133457799bbcdff1")).unwrap();
        let mut block = unhex("0123456789abcdef");
        des.encrypt_block(&mut block);
        assert_eq!(block, unhex("85e813540f0ab405"));
    }

    #[test]
    fn nist_ip_vectors() {
        // Single-bit plaintext vectors with the weak all-parity key.
        let des = Des::new(&unhex("0101010101010101")).unwrap();
        let cases = [
            ("8000000000000000", "95f8a5e5dd31d900"),
            ("4000000000000000", "dd7f121ca5015619"),
            ("2000000000000000", "2e8653104f3834ea"),
            ("0000000000000001", "166b40b44aba4bd6"),
        ];
        for (pt, ct) in cases {
            let mut block = unhex(pt);
            des.encrypt_block(&mut block);
            assert_eq!(block, unhex(ct), "plaintext {pt}");
        }
    }

    #[test]
    fn nist_key_vectors() {
        // Varied-key vectors with fixed zero plaintext.
        let cases = [
            ("8001010101010101", "0000000000000000", "95a8d72813daa94d"),
            ("1007103489988020", "0000000000000000", "0c0cc00c83ea48fd"),
        ];
        for (key, pt, ct) in cases {
            let des = Des::new(&unhex(key)).unwrap();
            let mut block = unhex(pt);
            des.encrypt_block(&mut block);
            assert_eq!(block, unhex(ct), "key {key}");
        }
    }

    #[test]
    fn rejects_bad_key_lengths() {
        assert_eq!(Des::new(&[0; 7]).unwrap_err(), CipherError::BadKey);
        assert_eq!(Des::new(&[0; 9]).unwrap_err(), CipherError::BadKey);
    }
}
