//! AES-128 / AES-256 (FIPS 197).
//!
//! The modern replacement for the paper's DES (benchmark E7/D1), and the
//! cipher under every sealed transport record (`mws-wire::secure`).
//!
//! # Encryption: one constant-time bitsliced core
//!
//! `encrypt_block` and `encrypt_blocks` run on a single table-free core
//! that encrypts four blocks at once in eight `u64` bit-planes (plane `i`
//! holds bit `i` of all 64 state bytes). SubBytes is the Boyar–Peralta
//! 113-gate circuit; ShiftRows is never executed — each round's MixColumns
//! reads the rows where they lie and the round keys are stored
//! pre-shifted to match (the "fixslicing" idea), with one `ShiftRows²` left
//! over after the last round. The key schedule's `SubWord` goes through the
//! same circuit. Nothing on this path branches on, or indexes memory by,
//! key or data: its running time depends only on the number of blocks.
//! CTR and GCM fill the four lanes with consecutive counter blocks and
//! never decrypt a block.
//!
//! # Decryption: byte-wise, table-driven, not constant-time
//!
//! `decrypt_block` is the straightforward FIPS 197 inverse cipher with an
//! inverse S-box lookup. Only ECB/CBC decryption reaches it, which no
//! protocol path uses with AES; it is not optimised and its lookups are
//! key- and data-dependent.
//!
//! # Oracle
//!
//! The byte-wise forward cipher the fast core replaced survives as
//! `AesEngine::encrypt_oracle`, compiled only under `#[cfg(test)]`; the
//! property tests below hold the bitsliced core bit-identical to it for
//! both key sizes, on top of the FIPS 197 appendix vectors.

use crate::{BlockCipher, CipherError};

/// The AES S-box. Only `INV_SBOX` and the test oracle read it; the
/// encrypt path computes SubBytes as a circuit.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box for the byte-wise decrypt path.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Blocks one pass of the bitsliced core encrypts.
const LANES: usize = 4;
/// Round keys of the largest schedule (AES-256: 14 rounds + whitening).
const MAX_ROUND_KEYS: usize = 15;

/// Four blocks as eight bit-planes: bit `16·row + 4·col + lane` of plane
/// `i` is bit `i` of state byte (row, col) of block `lane`.
type Planes = [u64; 8];

/// Transposes the 8×8 bit matrix formed by (plane index, bit index mod 8)
/// in every byte position; an involution.
fn transpose(q: &mut Planes) {
    fn swap(q: &mut Planes, a: usize, b: usize, low: u64, shift: u32) {
        let (x, y) = (q[a], q[b]);
        q[a] = (x & low) | ((y & low) << shift);
        q[b] = ((x & !low) >> shift) | (y & !low);
    }
    for a in [0, 2, 4, 6] {
        swap(q, a, a + 1, 0x5555_5555_5555_5555, 1);
    }
    for a in [0, 1, 4, 5] {
        swap(q, a, a + 2, 0x3333_3333_3333_3333, 2);
    }
    for a in 0..4 {
        swap(q, a, a + 4, 0x0f0f_0f0f_0f0f_0f0f, 4);
    }
}

/// Moves the four bytes of `x` (< 2³²) to the even byte positions.
fn spread(x: u64) -> u64 {
    let x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    (x | (x << 8)) & 0x00ff_00ff_00ff_00ff
}

/// Inverse of [`spread`]: gathers the even bytes of `x` into 32 bits.
fn gather(x: u64) -> u64 {
    let x = x & 0x00ff_00ff_00ff_00ff;
    let x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0xffff_ffff
}

/// Loads four 16-byte blocks into bit-planes.
fn pack(blocks: &[u8; 16 * LANES]) -> Planes {
    let mut q = [0u64; 8];
    for (lane, block) in blocks.chunks_exact(16).enumerate() {
        // Columns 0,1 and 2,3; a column's row r is byte r of its word.
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
        q[lane] = spread(lo & 0xffff_ffff) | (spread(hi & 0xffff_ffff) << 8);
        q[lane + 4] = spread(lo >> 32) | (spread(hi >> 32) << 8);
    }
    transpose(&mut q);
    q
}

/// Stores bit-planes back as four 16-byte blocks.
fn unpack(mut q: Planes, blocks: &mut [u8; 16 * LANES]) {
    transpose(&mut q);
    for (lane, block) in blocks.chunks_exact_mut(16).enumerate() {
        let (a, b) = (q[lane], q[lane + 4]);
        let lo = gather(a) | (gather(b) << 32);
        let hi = gather(a >> 8) | (gather(b >> 8) << 32);
        block[..8].copy_from_slice(&lo.to_le_bytes());
        block[8..].copy_from_slice(&hi.to_le_bytes());
    }
}

/// SubBytes on all 64 bytes: the Boyar–Peralta circuit ("A new
/// combinational logic minimization technique with applications to
/// cryptology", 2009) — 32 AND, 81 XOR/XNOR, no lookups. The paper numbers
/// bits from the top: `x0` is bit 7.
#[allow(clippy::many_single_char_names)]
fn sub_bytes(q: &mut Planes) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear layer.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Shared non-linear core: inversion in GF(2⁴)² .
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear layer.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// Rotates each 16-bit row of a plane right by `bits` (a multiple of 4):
/// the byte at column `c` becomes the one that was at column `c + bits/4`.
#[inline(always)]
fn rotate_rows(x: u64, bits: u32) -> u64 {
    const ROWS: u64 = 0x0001_0001_0001_0001;
    let bits = bits % 16;
    if bits == 0 {
        return x;
    }
    let low = ROWS * ((1 << bits) - 1);
    ((x >> bits) & !(low << (16 - bits))) | ((x & low) << (16 - bits))
}

/// MixColumns for a state on which `SKIPPED` (mod 4) ShiftRows have been
/// left out: the byte `i` rows below (row, col) is then found `i·SKIPPED`
/// columns to the right, so "next row" is a 16-bit rotation of the plane
/// plus a rotation inside every row. One instance per value, so every
/// shift count is a constant in the generated code.
fn mix_columns<const SKIPPED: u32>(q: &mut Planes) {
    let (mut below, mut t, mut far) = ([0u64; 8], [0u64; 8], [0u64; 8]);
    for i in 0..8 {
        below[i] = rotate_rows(q[i].rotate_right(16), 4 * SKIPPED);
        // t = a ⊕ a↓; the output is 2·t ⊕ a↓ ⊕ (t two rows down).
        t[i] = q[i] ^ below[i];
        far[i] = rotate_rows(t[i].rotate_right(32), 8 * SKIPPED);
    }
    // Doubling in GF(2⁸) shifts the planes up one; plane 7 feeds back
    // into planes 0, 1, 3 and 4 (the polynomial 0x1b).
    q[0] = t[7] ^ below[0] ^ far[0];
    q[1] = t[0] ^ t[7] ^ below[1] ^ far[1];
    q[2] = t[1] ^ below[2] ^ far[2];
    q[3] = t[2] ^ t[7] ^ below[3] ^ far[3];
    q[4] = t[3] ^ t[7] ^ below[4] ^ far[4];
    q[5] = t[4] ^ below[5] ^ far[5];
    q[6] = t[5] ^ below[6] ^ far[6];
    q[7] = t[6] ^ below[7] ^ far[7];
}

fn xor_planes(q: &mut Planes, key: &Planes) {
    for (p, k) in q.iter_mut().zip(key) {
        *p ^= k;
    }
}

/// SubWord of the key schedule through the circuit, so that expanding a
/// key is as lookup-free as using it. Four bytes need no transposition:
/// plane `i` is bit `i` of each byte, shifted down to the byte's bit 0.
fn sub_word(word: [u8; 4]) -> [u8; 4] {
    const BIT0: u64 = 0x0101_0101;
    let x = u64::from(u32::from_le_bytes(word));
    let mut q: Planes = core::array::from_fn(|i| (x >> i) & BIT0);
    sub_bytes(&mut q);
    let y = (0..8).fold(0, |y, i| y | ((q[i] & BIT0) << i));
    (y as u32).to_le_bytes()
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// AES engine over an expanded key: byte-wise round keys for the inverse
/// cipher, and the same keys as pre-shifted bit-planes for the forward one.
#[derive(Clone)]
struct AesEngine {
    rounds: usize,
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    plane_keys: [Planes; MAX_ROUND_KEYS],
}

impl AesEngine {
    fn new(key: &[u8]) -> Self {
        let nk = key.len() / 4; // 4 or 8
        let rounds = nk + 6; // 10 or 14
        let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            word.copy_from_slice(bytes);
        }
        let mut rcon = 1u8;
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                temp = sub_word(temp);
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; MAX_ROUND_KEYS];
        let mut plane_keys = [[0u64; 8]; MAX_ROUND_KEYS];
        for r in 0..=rounds {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            // Round r of the forward core works on a state that is r
            // ShiftRows behind, so its key is shifted back r times; the
            // last key meets a state `finish` has put right again.
            let mut shifted = round_keys[r];
            if r < rounds {
                for _ in 0..r % 4 {
                    inv_shift_rows(&mut shifted);
                }
            }
            let mut lanes = [0u8; 16 * LANES];
            for lane in lanes.chunks_exact_mut(16) {
                lane.copy_from_slice(&shifted);
            }
            plane_keys[r] = pack(&lanes);
        }
        Self {
            rounds,
            round_keys,
            plane_keys,
        }
    }

    /// Encrypts four blocks held as bit-planes.
    fn encrypt_planes(&self, q: &mut Planes) {
        xor_planes(q, &self.plane_keys[0]);
        for round in 1..self.rounds {
            sub_bytes(q);
            match round % 4 {
                1 => mix_columns::<1>(q),
                2 => mix_columns::<2>(q),
                3 => mix_columns::<3>(q),
                _ => mix_columns::<0>(q),
            }
            xor_planes(q, &self.plane_keys[round]);
        }
        sub_bytes(q);
        // Ten and fourteen rounds are both 2 mod 4: the state is two
        // ShiftRows behind, i.e. rows 1 and 3 are off by two columns.
        for plane in q.iter_mut() {
            let odd_rows = *plane & 0xffff_0000_ffff_0000;
            *plane = (*plane & 0x0000_ffff_0000_ffff) | rotate_rows(odd_rows, 8);
        }
        xor_planes(q, &self.plane_keys[self.rounds]);
    }

    /// Encrypts `blocks.len() / 16` independent blocks in place, four per
    /// pass; a short last pass runs with idle lanes.
    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        let mut passes = blocks.chunks_exact_mut(16 * LANES);
        for pass in &mut passes {
            let pass: &mut [u8; 16 * LANES] = pass.try_into().expect("exact chunk");
            let mut q = pack(pass);
            self.encrypt_planes(&mut q);
            unpack(q, pass);
        }
        let rest = passes.into_remainder();
        if !rest.is_empty() {
            let mut pass = [0u8; 16 * LANES];
            pass[..rest.len()].copy_from_slice(rest);
            let mut q = pack(&pass);
            self.encrypt_planes(&mut q);
            unpack(q, &mut pass);
            rest.copy_from_slice(&pass[..rest.len()]);
        }
    }

    /// The byte-wise forward cipher the bitsliced core replaced: the
    /// reference the tests compare against.
    #[cfg(test)]
    fn encrypt_oracle(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16);
        add_round_key(block, &self.round_keys[0]);
        for round in 1..self.rounds {
            sub_bytes_oracle(block);
            shift_rows(block);
            mix_columns_oracle(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes_oracle(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    fn decrypt(&self, block: &mut [u8]) {
        debug_assert_eq!(block.len(), 16);
        add_round_key(block, &self.round_keys[self.rounds]);
        for round in (1..self.rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_keys[0]);
    }
}

fn add_round_key(state: &mut [u8], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[cfg(test)]
fn sub_bytes_oracle(state: &mut [u8]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: column-major — state[4*c + r] is row r, column c.
#[cfg(test)]
fn shift_rows(state: &mut [u8]) {
    let s = |r: usize, c: usize| state[4 * c + r];
    let mut out = [0u8; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[4 * c + r] = s(r, (c + r) % 4);
        }
    }
    state.copy_from_slice(&out);
}

fn inv_shift_rows(state: &mut [u8]) {
    let s = |r: usize, c: usize| state[4 * c + r];
    let mut out = [0u8; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[4 * c + r] = s(r, (c + 4 - r) % 4);
        }
    }
    state.copy_from_slice(&out);
}

#[cfg(test)]
fn mix_columns_oracle(state: &mut [u8]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

fn inv_mix_columns(state: &mut [u8]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[4 * c + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[4 * c + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[4 * c + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

/// AES with a 128-bit key.
#[derive(Clone)]
pub struct Aes128 {
    engine: AesEngine,
}

impl Aes128 {
    /// Creates an AES-128 instance from a 16-byte key.
    pub fn new(key: &[u8]) -> Result<Self, CipherError> {
        if key.len() != 16 {
            return Err(CipherError::BadKey);
        }
        Ok(Self {
            engine: AesEngine::new(key),
        })
    }
}

impl BlockCipher for Aes128 {
    const BLOCK_SIZE: usize = 16;

    fn encrypt_block(&self, block: &mut [u8]) {
        self.engine.encrypt_blocks(block);
    }

    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        self.engine.encrypt_blocks(blocks);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        self.engine.decrypt(block);
    }
}

/// [`Aes128`] with the byte-wise oracle as its forward cipher and the
/// default per-block `encrypt_blocks`: what the CTR and GCM composition
/// tests run the fast paths against.
#[cfg(test)]
pub(crate) struct OracleAes128(pub(crate) Aes128);

#[cfg(test)]
impl BlockCipher for OracleAes128 {
    const BLOCK_SIZE: usize = 16;

    fn encrypt_block(&self, block: &mut [u8]) {
        self.0.engine.encrypt_oracle(block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        self.0.engine.decrypt(block);
    }
}

/// AES with a 256-bit key.
#[derive(Clone)]
pub struct Aes256 {
    engine: AesEngine,
}

impl Aes256 {
    /// Creates an AES-256 instance from a 32-byte key.
    pub fn new(key: &[u8]) -> Result<Self, CipherError> {
        if key.len() != 32 {
            return Err(CipherError::BadKey);
        }
        Ok(Self {
            engine: AesEngine::new(key),
        })
    }
}

impl BlockCipher for Aes256 {
    const BLOCK_SIZE: usize = 16;

    fn encrypt_block(&self, block: &mut [u8]) {
        self.engine.encrypt_blocks(block);
    }

    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        self.engine.encrypt_blocks(blocks);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        self.engine.decrypt(block);
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
    fn fips197_appendix_b_aes128() {
        let aes = Aes128::new(&unhex("2b7e151628aed2a6abf7158809cf4f3c")).unwrap();
        let mut block = unhex("3243f6a8885a308d313198a2e0370734");
        aes.encrypt_block(&mut block);
        assert_eq!(block, unhex("3925841d02dc09fbdc118597196a0b32"));
        aes.decrypt_block(&mut block);
        assert_eq!(block, unhex("3243f6a8885a308d313198a2e0370734"));
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let aes = Aes128::new(&unhex("000102030405060708090a0b0c0d0e0f")).unwrap();
        let mut block = unhex("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut block);
        assert_eq!(block, unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let aes = Aes256::new(&unhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ))
        .unwrap();
        let mut block = unhex("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut block);
        assert_eq!(block, unhex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block, unhex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn sub_bytes_circuit_matches_table() {
        // Every byte value through the circuit, 64 per pass.
        for base in (0..256).step_by(64) {
            let mut bytes = [0u8; 64];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = (base + i) as u8;
            }
            let mut q = pack(&bytes);
            sub_bytes(&mut q);
            let mut out = [0u8; 64];
            unpack(q, &mut out);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(*o, SBOX[base + i], "S({:#04x})", base + i);
            }
        }
        assert_eq!(sub_word([0x00, 0x53, 0xff, 0x10]), [0x63, 0xed, 0x16, 0xca]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        mws_prop::cases(64, |g| g.array::<64>()).check(|blocks| {
            let mut out = [0u8; 64];
            unpack(pack(&blocks), &mut out);
            assert_eq!(out, blocks);
        });
    }

    /// The bitsliced core against the byte-wise oracle, and the byte-wise
    /// inverse cipher against the bitsliced core.
    fn fast_matches_oracle(engine: &AesEngine, block: [u8; 16]) {
        let mut fast = block;
        engine.encrypt_blocks(&mut fast);
        let mut slow = block;
        engine.encrypt_oracle(&mut slow);
        assert_eq!(fast, slow);
        engine.decrypt(&mut fast);
        assert_eq!(fast, block);
    }

    #[test]
    fn aes128_fast_matches_bytewise_oracle() {
        mws_prop::cases(256, |g| (g.array::<16>(), g.array::<16>())).check(|(key, block)| {
            fast_matches_oracle(&Aes128::new(&key).unwrap().engine, block);
        });
    }

    #[test]
    fn aes256_fast_matches_bytewise_oracle() {
        mws_prop::cases(256, |g| (g.array::<32>(), g.array::<16>())).check(|(key, block)| {
            fast_matches_oracle(&Aes256::new(&key).unwrap().engine, block);
        });
    }

    #[test]
    fn multi_block_matches_per_block_in_every_lane_remainder() {
        mws_prop::cases(64, |g| (g.array::<16>(), g.size(0..14), g.bytes(208..209))).check(
            |(key, blocks, data)| {
                let aes = Aes128::new(&key).unwrap();
                let mut many = data[..16 * blocks].to_vec();
                aes.encrypt_blocks(&mut many);
                for (got, block) in many.chunks(16).zip(data.chunks(16)) {
                    let mut one = block.to_vec();
                    aes.engine.encrypt_oracle(&mut one);
                    assert_eq!(got, one);
                }
            },
        );
    }

    #[test]
    fn rejects_bad_key_lengths() {
        assert!(Aes128::new(&[0; 15]).is_err());
        assert!(Aes128::new(&[0; 32]).is_err());
        assert!(Aes256::new(&[0; 16]).is_err());
    }

    #[test]
    fn roundtrip_random_blocks() {
        let aes = Aes128::new(&[7u8; 16]).unwrap();
        for seed in 0u8..16 {
            let original: Vec<u8> = (0..16).map(|i| i as u8 ^ seed.wrapping_mul(31)).collect();
            let mut block = original.clone();
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }
}
