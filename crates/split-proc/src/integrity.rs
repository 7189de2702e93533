//! Integrity primitives shared by the checkpoint image format and the `ckpt-store`
//! storage engine: CRC-32 (IEEE) for end-to-end corruption detection of manifests and
//! cold-tier frames, XXH64 for the flat image's seal and the chunk content address.
//!
//! Both are implemented in-tree (no registry access) and are deliberately simple: the
//! threat model is bit rot and truncation on a checkpoint filesystem, not an
//! adversary. XXH64 collisions between distinct chunks of the same length are
//! astronomically unlikely at the store sizes this simulation handles, and the chunk
//! store keys on `(digest, length)` to shrink the window further.

use mpi_model::error::{MpiError, MpiResult};

/// CRC-32 lookup tables for the IEEE polynomial (0xEDB88320, reflected), sliced by 8:
/// `CRC32_TABLES[0]` is the classic one-byte table, and `CRC32_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes — so eight input bytes fold
/// into the state with eight independent lookups instead of a serial chain of eight.
const CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let shorter = tables[k - 1][i];
            tables[k][i] = (shorter >> 8) ^ tables[0][(shorter & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Fold one byte into a (pre-inverted) CRC-32 state.
#[inline]
fn crc32_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// CRC-32 (IEEE 802.3) of `bytes`, eight bytes per iteration (slice-by-8); the value
/// is the standard one, whatever the length or alignment of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let high = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = CRC32_TABLES[7][(low & 0xFF) as usize]
            ^ CRC32_TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(low >> 24) as usize]
            ^ CRC32_TABLES[3][(high & 0xFF) as usize]
            ^ CRC32_TABLES[2][((high >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((high >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(high >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = crc32_step(crc, byte);
    }
    !crc
}

// XXH64 prime constants (the published algorithm parameters).
const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

#[inline]
fn xxh_merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

#[inline]
#[expect(
    clippy::unwrap_used,
    reason = "provable invariant — every caller checks `at + 8 <= len` first"
)]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[inline]
#[expect(
    clippy::unwrap_used,
    reason = "provable invariant — every caller checks `at + 4 <= len` first"
)]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// XXH64 digest of `bytes` with seed 0: the content address of the multi-KiB chunks
/// the store keys on. Matches the published XXH64 algorithm bit for bit (see the
/// known-vector test), so digests are stable across builds and comparable with
/// external tooling.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    let mut hash;
    let mut at = 0usize;
    if len >= 32 {
        let mut v1 = XXH_PRIME_1.wrapping_add(XXH_PRIME_2);
        let mut v2 = XXH_PRIME_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(XXH_PRIME_1);
        while at + 32 <= len {
            v1 = xxh_round(v1, read_u64(bytes, at));
            v2 = xxh_round(v2, read_u64(bytes, at + 8));
            v3 = xxh_round(v3, read_u64(bytes, at + 16));
            v4 = xxh_round(v4, read_u64(bytes, at + 24));
            at += 32;
        }
        hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        hash = xxh_merge_round(hash, v1);
        hash = xxh_merge_round(hash, v2);
        hash = xxh_merge_round(hash, v3);
        hash = xxh_merge_round(hash, v4);
    } else {
        hash = XXH_PRIME_5; // seed 0
    }
    hash = hash.wrapping_add(len as u64);
    while at + 8 <= len {
        hash ^= xxh_round(0, read_u64(bytes, at));
        hash = hash
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
        at += 8;
    }
    if at + 4 <= len {
        hash ^= (read_u32(bytes, at) as u64).wrapping_mul(XXH_PRIME_1);
        hash = hash
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        at += 4;
    }
    while at < len {
        hash ^= (bytes[at] as u64).wrapping_mul(XXH_PRIME_5);
        hash = hash.rotate_left(11).wrapping_mul(XXH_PRIME_1);
        at += 1;
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_PRIME_3);
    hash ^= hash >> 32;
    hash
}

/// Bounds-checked little-endian byte cursor shared by the binary checkpoint formats
/// (the flat image and `ckpt-store`'s manifest). `what` names the format in
/// truncation errors ("checkpoint image", "checkpoint manifest").
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    /// Start reading `bytes` from the beginning.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            what,
        }
    }

    /// Current read position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> MpiResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(MpiError::Checkpoint(format!("truncated {}", self.what)));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> MpiResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    #[expect(
        clippy::unwrap_used,
        reason = "provable invariant — take(4) returns exactly 4 bytes or errors"
    )]
    pub fn u32(&mut self) -> MpiResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    #[expect(
        clippy::unwrap_used,
        reason = "provable invariant — take(8) returns exactly 8 bytes or errors"
    )]
    pub fn u64(&mut self) -> MpiResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Classic check value for the ASCII digits "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-lookup-per-byte loop `crc32` used before it was sliced: the oracle
    /// the word-at-a-time kernel must agree with on every length and alignment.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(0xFFFF_FFFF, |crc, &byte| crc32_step(crc, byte))
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        // 1 MiB + 13 seeded bytes (xorshift64): long enough for the word loop to
        // dominate, with a 5-byte tail; every short slice below is cut from it.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer));
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = vec![0x5Au8; 4096];
        let baseline = crc32(&data);
        for position in [0usize, 1, 100, 4095] {
            let mut corrupted = data.clone();
            corrupted[position] ^= 0x01;
            assert_ne!(crc32(&corrupted), baseline, "flip at {position} undetected");
        }
    }

    #[test]
    fn xxh64_known_vectors() {
        // Reference values from the canonical xxHash implementation, seed 0.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_covers_every_tail_length() {
        // Exercise the 32-byte stripe loop plus each of the 8/4/1-byte tail paths.
        let data: Vec<u8> = (0..97u8).collect();
        let digests: Vec<u64> = (0..data.len()).map(|n| xxh64(&data[..n])).collect();
        let distinct: std::collections::HashSet<&u64> = digests.iter().collect();
        assert_eq!(
            distinct.len(),
            digests.len(),
            "prefix digests must all differ"
        );
    }

    #[test]
    fn xxh64_distinguishes_neighbouring_chunks() {
        let a = vec![0u8; 65536];
        let mut b = a.clone();
        b[40000] = 1;
        assert_ne!(xxh64(&a), xxh64(&b));
    }
}
