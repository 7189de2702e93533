//! The chunk store's one on-store format, plus the in-tree LZ compressor.
//!
//! Every store writes chunks the same way: content-addressed by XXH64 ([`Digest`]),
//! and under a compressing policy run through the LZ codec below, whose stream is
//! kept only when it is strictly smaller than the chunk ([`StoredForm`]). The
//! manifest ([`crate::manifest`]) records both per image, under tags that never
//! change: digest XXH64 = 1, stored forms Raw = 0 and LZ = 2. The values earlier
//! formats used (digest tag 0, stored-form tag 1) are refused as typed errors.
//! Nothing here is configurable; [`StorageConfig`] is the format as a value.
//!
//! ## LZ stream format (self-framed, byte-exact)
//!
//! A sequence of ops; control byte `c`:
//!
//! * `c < 0x80` — literal run: the next `c + 1` bytes are copied verbatim (1..=128);
//! * `c >= 0x80` — match: copy `(c & 0x7F) + 4` bytes from `distance` bytes back in
//!   the produced output, where `distance` is the following little-endian `u16`
//!   (1..=65535, may be shorter than the match length — overlapping copies
//!   replicate runs). When `(c & 0x7F) == 0x7F` the distance is followed by
//!   extension bytes, each adding its value to the length, ending with the first
//!   byte below 255 (so a multi-KiB run is one op).
//!
//! The decoder validates everything: a match may not reach behind the start of the
//! produced output, the stream may not end inside an op, and the final length must
//! equal the recorded chunk length exactly. Combined with the digest check on the
//! decompressed bytes, a corrupted or truncated stored chunk cannot decode silently.

use mpi_model::error::{MpiError, MpiResult};
use split_proc::integrity::xxh64;

/// The 64-bit digest chunks are content-addressed and validated by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Digest {
    /// XXH64 (seed 0).
    Xx64,
}

impl Digest {
    /// Digest `bytes` with this function.
    pub fn hash(self, bytes: &[u8]) -> u64 {
        match self {
            Digest::Xx64 => xxh64(bytes),
        }
    }

    /// Stable on-manifest tag.
    pub fn tag(self) -> u8 {
        match self {
            Digest::Xx64 => 1,
        }
    }

    /// Decode an on-manifest tag.
    pub fn from_tag(tag: u8) -> MpiResult<Digest> {
        match tag {
            1 => Ok(Digest::Xx64),
            other => Err(MpiError::Checkpoint(format!(
                "unknown chunk digest tag {other}"
            ))),
        }
    }
}

/// The form a chunk's bytes take in the store — recorded per chunk in the manifest,
/// so the read path decodes by what was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredForm {
    /// Stored verbatim (incompressible, or a non-compressing policy).
    Raw,
    /// LZ stream ([`lz_compress`]).
    Lz,
}

impl StoredForm {
    /// Whether this form needs a decompression pass on read.
    pub(crate) fn is_compressed(self) -> bool {
        self != StoredForm::Raw
    }

    /// Stable on-manifest tag.
    pub fn tag(self) -> u8 {
        match self {
            StoredForm::Raw => 0,
            StoredForm::Lz => 2,
        }
    }

    /// Decode an on-manifest tag.
    pub fn from_tag(tag: u8) -> MpiResult<StoredForm> {
        match tag {
            0 => Ok(StoredForm::Raw),
            2 => Ok(StoredForm::Lz),
            other => Err(MpiError::Checkpoint(format!(
                "unknown chunk stored-form tag {other}"
            ))),
        }
    }
}

/// The store's on-store format as a value: the digest every chunk is addressed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageConfig {
    /// Content-address digest for chunk keys and read-path validation.
    pub digest: Digest,
}

impl Default for StorageConfig {
    /// XXH64 content addressing — the only format there is.
    fn default() -> Self {
        StorageConfig {
            digest: Digest::Xx64,
        }
    }
}

// ----------------------------------------------------------------------------------
// LZ codec
// ----------------------------------------------------------------------------------

/// Shortest match worth encoding: a match op costs 3 bytes (control + distance).
const MIN_MATCH: usize = 4;
/// Longest match the control byte alone encodes; `(control & 0x7F) == 0x7F` marks
/// extension bytes carrying the rest.
const CONTROL_MATCH_MAX: usize = 0x7F + MIN_MATCH;
/// Longest literal run one op encodes.
const LITERAL_MAX: usize = 128;
/// Farthest back a match may reach (16-bit distance; chunks are ≤ 64 KiB anyway).
const MAX_DISTANCE: usize = u16::MAX as usize;
/// Hash-chain buckets (power of two).
const HASH_BUCKETS: usize = 1 << 13;
/// How many chain candidates the matcher tries per position before settling —
/// bounds worst-case encode time on adversarial data.
const MAX_CHAIN_DEPTH: usize = 32;
/// Slots of the `prev` ring: one per position a match may still reach.
const PREV_SLOTS: usize = MAX_DISTANCE + 1;
/// "No entry" in the match tables (positions are `u32`; inputs are capped below it).
const NO_POSITION: u32 = u32::MAX;

/// The encoder's hash-chain tables: 288 KiB that live as long as the thread that
/// first compressed, instead of being allocated and filled for every chunk.
///
/// `head[h]` is the most recent position whose 4-byte window hashes to `h`;
/// `prev[p % PREV_SLOTS]` is the previous position in `p`'s chain. A slot of `prev`
/// is shared by positions 64 KiB apart, which is sound because a chain walk stops at
/// the first candidate farther back than [`MAX_DISTANCE`] *before* following its
/// link, and the slot of a candidate within reach cannot have been overwritten yet.
struct MatchTables {
    head: Box<[u32; HASH_BUCKETS]>,
    prev: Box<[u32; PREV_SLOTS]>,
}

impl MatchTables {
    fn new() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "infallible by construction — a boxed slice of exactly N elements always converts to a boxed N-element array"
        )]
        fn table<const N: usize>() -> Box<[u32; N]> {
            // Built on the heap (a 256 KiB array literal would live on the stack
            // first) and zeroed, so the allocator hands out untouched pages: a thread
            // that only ever compresses short chunks never faults most of `prev` in.
            // The content is irrelevant — `head` is filled per chunk, `prev` is
            // written before it is read.
            let table = vec![0u32; N].into_boxed_slice().try_into();
            table.expect("a vector of N elements boxes to an N-element array")
        }
        MatchTables {
            head: table(),
            prev: table(),
        }
    }

    /// Link `position` (whose 4-byte window hashes to `bucket`) in as its chain's head.
    #[inline]
    fn insert(&mut self, bucket: usize, position: usize) {
        self.prev[position % PREV_SLOTS] = self.head[bucket];
        self.head[bucket] = position as u32;
    }
}

thread_local! {
    /// Created by the first chunk a thread compresses, so threads that never reach
    /// the codec (step loops, non-compressing policies) never pay for it.
    static MATCH_TABLES: std::cell::RefCell<Option<MatchTables>> =
        const { std::cell::RefCell::new(None) };
}

#[inline]
fn window_at(data: &[u8], at: usize) -> u32 {
    // The 4 bytes starting at `at` (caller guarantees them), little-endian.
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

#[inline]
fn read_u64(data: &[u8], at: usize) -> u64 {
    // The 8 bytes starting at `at` (caller guarantees them), little-endian.
    let bytes = &data[at..at + 8];
    u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ])
}

#[inline]
fn hash_window(window: u32) -> usize {
    // Multiplicative hash of a 4-byte window down to a bucket index.
    (window.wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize & (HASH_BUCKETS - 1)
}

/// How many leading bytes `data[candidate..]` and `data[at..]` share
/// (`candidate < at`), eight at a time: the first differing byte of two words is the
/// lowest set byte of their XOR.
#[inline]
fn match_length(data: &[u8], candidate: usize, at: usize) -> usize {
    let ahead = &data[at..];
    let behind = &data[candidate..candidate + ahead.len()];
    let mut len = 0usize;
    for (a, b) in behind.chunks_exact(8).zip(ahead.chunks_exact(8)) {
        let difference = read_u64(a, 0) ^ read_u64(b, 0);
        if difference != 0 {
            return len + (difference.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    let tail = behind[len..].iter().zip(&ahead[len..]);
    len + tail.take_while(|(a, b)| a == b).count()
}

/// LZ-compress `data`; returns `None` unless the compressed form is strictly smaller
/// (incompressible chunks are stored raw).
///
/// The parse is frozen: greedy, longest match among the first 32 hash-chain
/// candidates, ties to the nearest. Everything below is a faster way to
/// compute that same parse, so the stream for a given input never changes and is
/// independent of what the calling thread compressed before.
pub fn lz_compress(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < MIN_MATCH || data.len() >= NO_POSITION as usize {
        // Too short for an op to win, or too long for `u32` table positions (no
        // chunk is: the manifest records chunk lengths as `u32`) — stored raw.
        return None;
    }
    MATCH_TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        compress_with(tables.get_or_insert_with(MatchTables::new), data)
    })
}

fn compress_with(tables: &mut MatchTables, data: &[u8]) -> Option<Vec<u8>> {
    // Only `head` carries state from one chunk to the next. `prev` needs no reset:
    // a slot is written when its position is inserted, and a walk reaches a position
    // only through `head` or a link written by a later insert of this same chunk.
    tables.head.fill(NO_POSITION);
    let mut out = Vec::with_capacity(data.len() / 2);
    // First position past the last one that still has a whole 4-byte window.
    let windows_end = data.len() - (MIN_MATCH - 1);
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i < windows_end {
        let bucket = hash_window(window_at(data, i));
        let limit = data.len() - i;
        // Greedy: take the longest match among the first MAX_CHAIN_DEPTH candidates.
        let mut best_len = 0usize;
        let mut best_distance = 0usize;
        let mut candidate = tables.head[bucket];
        let mut depth = 0;
        while candidate != NO_POSITION && depth < MAX_CHAIN_DEPTH {
            let candidate_at = candidate as usize;
            let distance = i - candidate_at;
            if distance > MAX_DISTANCE {
                break; // chains are position-ordered: older entries are farther
            }
            // Only a strictly longer match replaces the best, and a longer match
            // agrees at offset `best_len` (in range: `best_len == limit` stops the
            // walk) — one byte rules most candidates out without measuring them.
            if data[candidate_at + best_len] == data[i + best_len] {
                let len = match_length(data, candidate_at, i);
                if len > best_len {
                    best_len = len;
                    best_distance = distance;
                    if len == limit {
                        break;
                    }
                }
            }
            candidate = tables.prev[candidate_at % PREV_SLOTS];
            depth += 1;
        }
        if best_len >= MIN_MATCH {
            flush_lz_literals(&mut out, &data[literal_start..i]);
            let control_len = best_len.min(CONTROL_MATCH_MAX);
            out.push(0x80 | (control_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_distance as u16).to_le_bytes());
            if control_len == CONTROL_MATCH_MAX {
                // LZ4-style length extension: each byte adds its value, the first
                // byte below 255 terminates. An exactly-CONTROL_MATCH_MAX match
                // still emits one 0 byte, keeping the framing unambiguous.
                let mut rest = best_len - CONTROL_MATCH_MAX;
                while rest >= 255 {
                    out.push(255);
                    rest -= 255;
                }
                out.push(rest as u8);
            }
            // Insert every covered position into the chains so later matches can
            // reach into this match's span — four positions per 8-byte load, their
            // windows being the load shifted down a byte at a time.
            let covered_end = (i + best_len).min(windows_end);
            let mut position = i;
            while position + 4 <= covered_end && position + 8 <= data.len() {
                let word = read_u64(data, position);
                for offset in 0..4 {
                    let window = (word >> (8 * offset)) as u32;
                    tables.insert(hash_window(window), position + offset);
                }
                position += 4;
            }
            for position in position..covered_end {
                tables.insert(hash_window(window_at(data, position)), position);
            }
            i += best_len;
            literal_start = i;
        } else {
            tables.insert(bucket, i);
            i += 1;
        }
        if out.len() + (i - literal_start) >= data.len() {
            return None; // already not worth it
        }
    }
    flush_lz_literals(&mut out, &data[literal_start..]);
    (out.len() < data.len()).then_some(out)
}

fn flush_lz_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let take = literals.len().min(LITERAL_MAX);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

/// Decompress an LZ stream produced by [`lz_compress`], verifying the expected
/// output length and every match distance.
pub fn lz_decompress(stream: &[u8], expected_len: usize) -> MpiResult<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    lz_decompress_onto(stream, expected_len, &mut out)?;
    Ok(out)
}

/// [`lz_decompress`] onto the tail of `out`: the `expected_len` bytes are appended
/// after whatever `out` already holds, and matches may not reach into that earlier
/// content. Every op is checked against `expected_len` *before* it copies, so a
/// forged length never makes the decoder produce more than the chunk's recorded
/// size. On error `out` keeps the bytes of the ops that preceded the bad one.
fn lz_decompress_onto(stream: &[u8], expected_len: usize, out: &mut Vec<u8>) -> MpiResult<()> {
    let base = out.len();
    out.reserve(expected_len);
    let overrun = |produced: usize, len: usize| {
        MpiError::Checkpoint(format!(
            "LZ chunk decompressed past its recorded length ({} > {expected_len})",
            produced.saturating_add(len)
        ))
    };
    let mut i = 0usize;
    while i < stream.len() {
        let control = stream[i];
        i += 1;
        let produced = out.len() - base;
        if control < 0x80 {
            let take = control as usize + 1;
            let literals = stream
                .get(i..i + take)
                .ok_or_else(|| MpiError::Checkpoint("truncated LZ literal run in chunk".into()))?;
            if take > expected_len - produced {
                return Err(overrun(produced, take));
            }
            out.extend_from_slice(literals);
            i += take;
        } else {
            let mut len = (control & 0x7F) as usize + MIN_MATCH;
            let Some(&[low, high]) = stream.get(i..i + 2) else {
                return Err(MpiError::Checkpoint(
                    "truncated LZ match distance in chunk".into(),
                ));
            };
            let distance = u16::from_le_bytes([low, high]) as usize;
            i += 2;
            if len == CONTROL_MATCH_MAX {
                loop {
                    let extra = *stream.get(i).ok_or_else(|| {
                        MpiError::Checkpoint("truncated LZ match length extension in chunk".into())
                    })?;
                    i += 1;
                    len += extra as usize;
                    if extra < 255 {
                        break;
                    }
                    if len > expected_len {
                        return Err(MpiError::Checkpoint(
                            "LZ match length extension overruns the chunk".into(),
                        ));
                    }
                }
            }
            if distance == 0 || distance > produced {
                return Err(MpiError::Checkpoint(format!(
                    "LZ match reaches {distance} bytes back with only {produced} produced"
                )));
            }
            if len > expected_len - produced {
                return Err(overrun(produced, len));
            }
            // A distance shorter than the length is an overlapping copy replicating
            // the last `distance` bytes (a run). The bytes from `start` on
            // are periodic in `distance`, and every piece begins a whole number of
            // periods in, so each copy can take everything produced so far: the
            // pieces double, and a non-overlapping match is one piece.
            let start = out.len() - distance;
            let mut copied = 0usize;
            while copied < len {
                let piece = (distance + copied).min(len - copied);
                out.extend_from_within(start..start + piece);
                copied += piece;
            }
        }
    }
    let produced = out.len() - base;
    if produced != expected_len {
        return Err(MpiError::Checkpoint(format!(
            "LZ chunk decompressed to {produced} bytes, expected {expected_len}"
        )));
    }
    Ok(())
}

/// Decode a stored chunk according to its recorded form, appending its `raw_len`
/// bytes to `out` — the read path reassembles a region in place instead of through
/// a buffer per chunk. Length and content of what was appended are for the caller's
/// digest check to vouch for (a `Raw` chunk is appended exactly as stored).
pub(crate) fn decode_chunk_onto(
    form: StoredForm,
    stored: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> MpiResult<()> {
    match form {
        StoredForm::Raw => out.extend_from_slice(stored),
        StoredForm::Lz => lz_decompress_onto(stored, raw_len, out)?,
    }
    Ok(())
}

/// The kernels as they were before they went word-at-a-time — one byte per compare,
/// per copy and per table lookup, fresh `usize` tables per call — kept as they were as
/// the oracle the differential tests hold the fast paths to: same stream for every
/// input, same accept/reject verdict and bytes for every stream.
#[cfg(test)]
mod reference {
    use super::{
        flush_lz_literals, MpiError, MpiResult, CONTROL_MATCH_MAX, HASH_BUCKETS, MAX_CHAIN_DEPTH,
        MAX_DISTANCE, MIN_MATCH,
    };

    #[inline]
    fn hash4(bytes: &[u8], at: usize) -> usize {
        // Multiplicative hash of the 4 bytes starting at `at` (caller guarantees them).
        let v = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize & (HASH_BUCKETS - 1)
    }

    pub fn lz_compress(data: &[u8]) -> Option<Vec<u8>> {
        if data.len() < MIN_MATCH {
            return None;
        }
        let mut out = Vec::with_capacity(data.len() / 2);
        // head[h] = most recent position hashing to h; prev[i] = previous position in
        // i's chain. NONE marks "no entry".
        const NONE: usize = usize::MAX;
        let mut head = vec![NONE; HASH_BUCKETS];
        let mut prev = vec![NONE; data.len()];
        let mut literal_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= data.len() {
            let bucket = hash4(data, i);
            // Greedy: take the longest match among the first MAX_CHAIN_DEPTH candidates.
            let mut best_len = 0usize;
            let mut best_distance = 0usize;
            let mut candidate = head[bucket];
            let mut depth = 0;
            while candidate != NONE && depth < MAX_CHAIN_DEPTH {
                let distance = i - candidate;
                if distance > MAX_DISTANCE {
                    break; // chains are position-ordered: older entries are farther
                }
                let limit = data.len() - i;
                let mut len = 0usize;
                while len < limit && data[candidate + len] == data[i + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_distance = distance;
                    if len == limit {
                        break;
                    }
                }
                candidate = prev[candidate];
                depth += 1;
            }
            if best_len >= MIN_MATCH {
                flush_lz_literals(&mut out, &data[literal_start..i]);
                let control_len = best_len.min(CONTROL_MATCH_MAX);
                out.push(0x80 | (control_len - MIN_MATCH) as u8);
                out.extend_from_slice(&(best_distance as u16).to_le_bytes());
                if control_len == CONTROL_MATCH_MAX {
                    // LZ4-style length extension: each byte adds its value, the first
                    // byte below 255 terminates. An exactly-CONTROL_MATCH_MAX match
                    // still emits one 0 byte, keeping the framing unambiguous.
                    let mut rest = best_len - CONTROL_MATCH_MAX;
                    while rest >= 255 {
                        out.push(255);
                        rest -= 255;
                    }
                    out.push(rest as u8);
                }
                // Insert every covered position into the chains so later matches can
                // reach into this match's span.
                #[expect(
                    clippy::needless_range_loop,
                    reason = "indexes two tables by different keys, so an iterator form would not simplify this"
                )]
                for position in i..(i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                    let bucket = hash4(data, position);
                    prev[position] = head[bucket];
                    head[bucket] = position;
                }
                i += best_len;
                literal_start = i;
            } else {
                prev[i] = head[bucket];
                head[bucket] = i;
                i += 1;
            }
            if out.len() + (i - literal_start) >= data.len() {
                return None; // already not worth it
            }
        }
        flush_lz_literals(&mut out, &data[literal_start..]);
        (out.len() < data.len()).then_some(out)
    }

    pub fn lz_decompress(stream: &[u8], expected_len: usize) -> MpiResult<Vec<u8>> {
        let mut out = Vec::with_capacity(expected_len);
        let mut i = 0usize;
        while i < stream.len() {
            let control = stream[i];
            i += 1;
            if control < 0x80 {
                let take = control as usize + 1;
                if i + take > stream.len() {
                    return Err(MpiError::Checkpoint(
                        "truncated LZ literal run in chunk".into(),
                    ));
                }
                out.extend_from_slice(&stream[i..i + take]);
                i += take;
            } else {
                let mut len = (control & 0x7F) as usize + MIN_MATCH;
                if i + 2 > stream.len() {
                    return Err(MpiError::Checkpoint(
                        "truncated LZ match distance in chunk".into(),
                    ));
                }
                let distance = u16::from_le_bytes([stream[i], stream[i + 1]]) as usize;
                i += 2;
                if len == CONTROL_MATCH_MAX {
                    loop {
                        let extra = *stream.get(i).ok_or_else(|| {
                            MpiError::Checkpoint(
                                "truncated LZ match length extension in chunk".into(),
                            )
                        })?;
                        i += 1;
                        len += extra as usize;
                        if extra < 255 {
                            break;
                        }
                        if len > expected_len {
                            return Err(MpiError::Checkpoint(
                                "LZ match length extension overruns the chunk".into(),
                            ));
                        }
                    }
                }
                if distance == 0 || distance > out.len() {
                    return Err(MpiError::Checkpoint(format!(
                        "LZ match reaches {distance} bytes back with only {} produced",
                        out.len()
                    )));
                }
                // Byte-at-a-time: a distance shorter than the length is an overlapping
                // copy that replicates the last `distance` bytes (a run).
                let start = out.len() - distance;
                for offset in 0..len {
                    let byte = out[start + offset];
                    out.push(byte);
                }
            }
            if out.len() > expected_len {
                return Err(MpiError::Checkpoint(format!(
                    "LZ chunk decompressed past its recorded length ({} > {expected_len})",
                    out.len()
                )));
            }
        }
        if out.len() != expected_len {
            return Err(MpiError::Checkpoint(format!(
                "LZ chunk decompressed to {} bytes, expected {expected_len}",
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> bool {
        match lz_compress(data) {
            Some(stream) => {
                assert_eq!(lz_decompress(&stream, data.len()).unwrap(), data);
                true
            }
            None => false,
        }
    }

    #[test]
    fn lz_roundtrips_runs_and_repeats() {
        let mut data = vec![0u8; 10_000];
        data[5000..5010].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let stream = lz_compress(&data).expect("zero-dominated data compresses");
        assert!(stream.len() < data.len() / 10);
        assert_eq!(lz_decompress(&stream, data.len()).unwrap(), data);

        // Repeated strings (not runs) — the case run-length coding cannot touch.
        let phrase = b"the quick brown checkpoint fox ".repeat(64);
        let stream = lz_compress(&phrase).expect("repeated strings compress");
        assert!(stream.len() < phrase.len() / 4);
        assert_eq!(lz_decompress(&stream, phrase.len()).unwrap(), phrase);
    }

    #[test]
    fn lz_handles_overlapping_copies_and_boundaries() {
        // Run of one byte → distance-1 overlapping matches.
        assert!(roundtrip(&[7u8; 500]));
        // Period-2 and period-3 patterns.
        assert!(roundtrip(
            &(0..600).map(|i| (i % 2) as u8).collect::<Vec<_>>()
        ));
        assert!(roundtrip(
            &(0..600).map(|i| (i % 3) as u8).collect::<Vec<_>>()
        ));
        // Exactly MIN_MATCH-long repeat.
        let mut data = b"abcdWXYZabcd".to_vec();
        data.extend_from_slice(&[0; 64]);
        roundtrip(&data);
        // Tiny inputs never compress (no room for an op to win).
        assert!(lz_compress(b"").is_none());
        assert!(lz_compress(b"abc").is_none());
    }

    #[test]
    fn lz_declines_incompressible_data() {
        // A xorshift byte stream: no 4-byte repeats within the window to speak of.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        assert!(lz_compress(&data).is_none());
    }

    #[test]
    fn lz_beats_or_matches_rle_on_run_heavy_data() {
        let mut data = vec![0u8; 40_000];
        for block in 0..10 {
            let at = block * 4000;
            data[at..at + 100].copy_from_slice(&[block as u8 + 1; 100]);
        }
        // The run-length codec the store wrote before LZ encoded this input in 620
        // bytes (recorded when it was retired).
        const RLE_STREAM_LEN: usize = 620;
        let lz = lz_compress(&data).unwrap().len();
        assert!(
            lz <= RLE_STREAM_LEN,
            "LZ ({lz}) must not lose to RLE ({RLE_STREAM_LEN}) on runs"
        );
    }

    #[test]
    fn lz_decompress_rejects_malformed_streams() {
        assert!(lz_decompress(&[0x05], 6).is_err()); // literal run cut off
        assert!(lz_decompress(&[0x80], 4).is_err()); // match missing distance
        assert!(lz_decompress(&[0x80, 1], 4).is_err()); // distance truncated
        assert!(lz_decompress(&[0x00, 9, 0x80, 5, 0], 5).is_err()); // distance 5 > 1 produced
        assert!(lz_decompress(&[0x00, 9, 0x80, 0, 0], 5).is_err()); // distance 0
        assert!(lz_decompress(&[0x01, 1, 2], 10).is_err()); // too short overall
        assert!(lz_decompress(&[0x00, 9, 0xFF, 1, 0], 2).is_err()); // overruns expected
    }

    #[test]
    fn digests_and_tags_round_trip() {
        assert_eq!(Digest::Xx64.hash(b"checkpoint"), xxh64(b"checkpoint"));
        assert_eq!(Digest::Xx64.tag(), 1);
        assert_eq!(Digest::from_tag(1).unwrap(), Digest::Xx64);
        assert_eq!((StoredForm::Raw.tag(), StoredForm::Lz.tag()), (0, 2));
        for form in [StoredForm::Raw, StoredForm::Lz] {
            assert_eq!(StoredForm::from_tag(form.tag()).unwrap(), form);
        }
        // The retired FNV-1a digest (0) and RLE form (1) are refused, as is any
        // other unknown tag.
        for tag in [0, 2, 9] {
            assert!(Digest::from_tag(tag).is_err(), "digest tag {tag}");
        }
        for tag in [1, 3, 9] {
            assert!(StoredForm::from_tag(tag).is_err(), "form tag {tag}");
        }
        assert!(!StoredForm::Raw.is_compressed());
        assert!(StoredForm::Lz.is_compressed());
    }

    #[test]
    fn decode_chunk_dispatches_by_form_and_appends() {
        let data = vec![3u8; 1000];
        let stored = lz_compress(&data).unwrap();
        // Onto a non-empty tail: earlier content stays, and no match reaches it.
        let mut out = vec![3u8; 7];
        decode_chunk_onto(StoredForm::Lz, &stored, data.len(), &mut out).unwrap();
        assert_eq!(out[..7], [3u8; 7]);
        assert_eq!(out[7..], data[..]);
        let mut out = Vec::new();
        decode_chunk_onto(StoredForm::Raw, &data, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
        // A match may not reach behind the chunk's own start into the region's
        // earlier bytes, however many of them there are.
        let mut out = vec![9u8; 64];
        assert!(decode_chunk_onto(StoredForm::Lz, &[0x80, 1, 0], 4, &mut out).is_err());
    }

    // ------------------------------------------------------------------------------
    // Differential tests against `reference` (all seeded, none timing-based)
    // ------------------------------------------------------------------------------

    /// SplitMix64: the seeded byte source of every corpus below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The repo benchmark's compressible region texture (`benchmark/src/gen.rs`): six
    /// of every seven bytes a constant, the seventh position noise.
    fn texture(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Rng(seed);
        let constant = rng.next() as u8;
        let noise = rng.next();
        (0..len as u64)
            .map(|i| match i % 7 {
                0 => ((i.wrapping_mul(2_654_435_761) ^ noise) >> 5) as u8,
                _ => constant,
            })
            .collect()
    }

    fn high_entropy(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Rng(seed);
        (0..len).map(|_| (rng.next() >> 32) as u8).collect()
    }

    /// Words drawn from a small vocabulary: repeated strings at many distances.
    fn vocabulary_text(seed: u64, len: usize) -> Vec<u8> {
        const WORDS: [&str; 12] = [
            "checkpoint",
            "restart",
            "rank",
            "communicator",
            "halo",
            "lattice",
            "the",
            "of",
            "MPI_Allreduce",
            "generation",
            "epoch",
            "drain",
        ];
        let mut rng = Rng(seed);
        let mut text = Vec::with_capacity(len + 16);
        while text.len() < len {
            text.extend_from_slice(WORDS[(rng.next() % WORDS.len() as u64) as usize].as_bytes());
            text.push(b' ');
        }
        text.truncate(len);
        text
    }

    /// Zeros, texture, noise, text and a far repeat of the texture, back to back.
    fn mixed(seed: u64, len: usize) -> Vec<u8> {
        let part = len / 5;
        let mut data = vec![0u8; part];
        data.extend(texture(seed, part));
        data.extend(high_entropy(seed ^ 1, part));
        data.extend(vocabulary_text(seed ^ 2, part));
        let rest = len - data.len();
        data.extend(texture(seed, part + 4).into_iter().cycle().take(rest));
        data
    }

    /// Every generator at every length the kernels have an edge at: below and at
    /// `MIN_MATCH`, one word short, odd, exactly one chunk, one past it, and well
    /// past the `prev` ring and the 16-bit distance.
    fn corpus() -> Vec<Vec<u8>> {
        let mut inputs = Vec::new();
        for (index, len) in [0, 3, 4, 5, 63, 4_099, 65_536, 65_537, 200_000]
            .into_iter()
            .enumerate()
        {
            let seed = 0xC0DE_C000 + index as u64;
            inputs.push(texture(seed, len));
            inputs.push(vec![0u8; len]);
            inputs.push(high_entropy(seed, len));
            inputs.push(vocabulary_text(seed, len));
            inputs.push(mixed(seed, len));
        }
        inputs
    }

    /// One input's contribution to a pinned stream digest: a presence byte, then the
    /// stream. Shared with `apps/tests/codec_corpus.rs` by convention, not by code.
    fn append_stream(all: &mut Vec<u8>, stream: Option<&[u8]>) {
        all.push(stream.is_some() as u8);
        all.extend_from_slice(stream.unwrap_or_default());
    }

    #[test]
    fn encoder_emits_the_reference_stream_on_the_whole_corpus() {
        let mut all = Vec::new();
        for (index, data) in corpus().iter().enumerate() {
            let fast = lz_compress(data);
            assert_eq!(
                fast,
                reference::lz_compress(data),
                "input {index} (len {})",
                data.len()
            );
            if let Some(stream) = &fast {
                assert_eq!(&lz_decompress(stream, data.len()).unwrap(), data);
            }
            append_stream(&mut all, fast.as_deref());
        }
        // Recorded from the parent commit's encoder on this same corpus: the parse is
        // frozen, so a kernel edit that moves this digest changed stored bytes — and
        // must not be fixed by updating the constant.
        assert_eq!(
            split_proc::integrity::xxh64(&all),
            PINNED_CORPUS_STREAMS_XXH64,
            "the LZ parse changed: streams differ from every earlier build's"
        );
    }

    const PINNED_CORPUS_STREAMS_XXH64: u64 = 0x35D4_069D_F8CB_5D28;

    #[test]
    fn scratch_reuse_leaves_no_trace_in_the_next_stream() {
        // Same thread: a full chunk, then a short, different one whose positions all
        // alias slots the first chunk left populated.
        let long = texture(7, 65_536);
        let short = vocabulary_text(8, 1_500);
        let warm_long = lz_compress(&long);
        let warm_short = lz_compress(&short);
        let again_long = lz_compress(&long);
        // Fresh threads: tables never used before.
        let (fresh_long, fresh_short) = {
            let (long, short) = (long.clone(), short.clone());
            let fresh_long = std::thread::spawn(move || lz_compress(&long));
            let fresh_short = std::thread::spawn(move || lz_compress(&short));
            (fresh_long.join().unwrap(), fresh_short.join().unwrap())
        };
        assert!(warm_short.is_some() && warm_long.is_some());
        assert_eq!(warm_short, fresh_short);
        assert_eq!(warm_long, fresh_long);
        assert_eq!(again_long, fresh_long);
        assert_eq!(warm_short, reference::lz_compress(&short));
    }

    /// Both decoders on one stream: same verdict, and the same bytes when accepted.
    fn assert_decoders_agree(stream: &[u8], expected_len: usize, what: &str) -> bool {
        let fast = lz_decompress(stream, expected_len);
        let oracle = reference::lz_decompress(stream, expected_len);
        match (&fast, &oracle) {
            (Ok(fast), Ok(oracle)) => assert_eq!(fast, oracle, "{what}: bytes differ"),
            (Err(MpiError::Checkpoint(_)), Err(_)) => {}
            _ => panic!("{what}: fast {fast:?} vs reference {oracle:?}"),
        }
        fast.is_ok()
    }

    #[test]
    fn decoder_agrees_with_the_reference_on_truncations_and_bit_flips() {
        let inputs = [
            texture(21, 65_536),
            vocabulary_text(22, 20_000),
            mixed(23, 30_000),
        ];
        let mut rng = Rng(0xF11B);
        let mut accepted_flips = 0;
        for (index, data) in inputs.iter().enumerate() {
            let stream = lz_compress(data).expect("corpus input compresses");
            for cut in 0..=stream.len() {
                let ok = assert_decoders_agree(
                    &stream[..cut],
                    data.len(),
                    &format!("input {index} cut at {cut}"),
                );
                assert_eq!(ok, cut == stream.len(), "input {index} cut at {cut}");
            }
            for _ in 0..400 {
                let bit = (rng.next() % (stream.len() as u64 * 8)) as usize;
                let mut flipped = stream.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                accepted_flips += usize::from(assert_decoders_agree(
                    &flipped,
                    data.len(),
                    &format!("input {index} bit {bit}"),
                ));
                // A forged expected length must fail the same way in both.
                let forged_len = data.len() - 1 - (rng.next() % 64) as usize;
                assert_decoders_agree(&stream, forged_len, "forged expected length");
            }
        }
        // Flips inside literal bytes still frame correctly (the store's digest check
        // is what catches those), so both verdicts were exercised above.
        assert!(accepted_flips > 0);
    }

    /// A match op as the encoder frames it.
    fn match_op(len: usize, distance: usize) -> Vec<u8> {
        let control_len = len.min(CONTROL_MATCH_MAX);
        let mut op = vec![0x80 | (control_len - MIN_MATCH) as u8];
        op.extend_from_slice(&(distance as u16).to_le_bytes());
        if control_len == CONTROL_MATCH_MAX {
            let mut rest = len - CONTROL_MATCH_MAX;
            while rest >= 255 {
                op.push(255);
                rest -= 255;
            }
            op.push(rest as u8);
        }
        op
    }

    #[test]
    fn decoder_replicates_overlapping_matches_exactly() {
        // (distance, len): the short periods, around the doubling copy's piece
        // boundaries, and one byte either side of `distance == len`.
        let mut cases = vec![(8, 7), (8, 9), (200, 199), (200, 201)];
        for distance in [1, 2, 3, 7] {
            for len in [4, 5, 6, 8, 15, 100, 131, 132, 386, 1_000, 40_000] {
                cases.push((len, distance));
            }
        }
        for (len, distance) in cases {
            let seed: Vec<u8> = (0..distance).map(|i| (i * 37 + 11) as u8).collect();
            let mut stream = Vec::new();
            flush_lz_literals(&mut stream, &seed);
            stream.extend(match_op(len, distance));
            stream.extend([0x00, 0xEE]); // a literal after the match
            let expected: Vec<u8> = (0..distance + len)
                .map(|i| seed[i % distance])
                .chain([0xEE])
                .collect();
            let what = format!("len {len} at distance {distance}");
            assert!(assert_decoders_agree(&stream, expected.len(), &what));
            assert_eq!(lz_decompress(&stream, expected.len()).unwrap(), expected);
            // One byte short of the match's end: refused before anything is copied
            // past the recorded length.
            assert_decoders_agree(&stream, distance + len - 1, &what);
            let mut out = Vec::new();
            assert!(lz_decompress_onto(&stream, distance + len - 1, &mut out).is_err());
            assert!(out.len() <= distance, "{what}: produced past the bound");
        }
    }

    #[test]
    fn forged_length_extension_is_refused_before_it_copies() {
        // 4 literals, then a match whose extension bytes claim ~64 KiB into a chunk
        // recorded as 16 bytes: typed error, and the output never grows past it.
        let mut stream = vec![0x03, 1, 2, 3, 4, 0xFF, 4, 0];
        stream.extend([255u8; 250]);
        stream.push(0);
        let mut out = Vec::new();
        let refused = lz_decompress_onto(&stream, 16, &mut out);
        assert!(matches!(refused, Err(MpiError::Checkpoint(_))));
        assert_eq!(out, [1, 2, 3, 4]);
        assert_decoders_agree(&stream, 16, "forged extension");
    }
}
