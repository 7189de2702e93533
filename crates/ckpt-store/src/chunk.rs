//! Fixed-size chunking and content digests.

use crate::codec::{Digest, StoredForm};

/// Default chunk size: 64 KiB balances dedup granularity against per-chunk overhead
/// (digest + manifest entry) for the multi-MiB upper halves of Table 3.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// One chunk reference inside a region manifest: enough to find the chunk in the
/// store and to verify it end-to-end after reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Digest of the *uncompressed* chunk content (the content address). Which
    /// digest function produced it is recorded once per manifest
    /// ([`crate::Manifest::digest`]), not per chunk.
    pub digest: u64,
    /// Uncompressed chunk length in bytes.
    pub raw_len: u32,
    /// Bytes the chunk occupies in the store (post-compression if compressed).
    pub stored_len: u32,
    /// The form the stored bytes take (raw / LZ) — the read path decodes by this
    /// record.
    pub form: StoredForm,
}

impl ChunkRef {
    /// The store key: digest plus length, shrinking the collision window further.
    pub fn key(&self) -> (u64, u32) {
        (self.digest, self.raw_len)
    }
}

/// Split `data` into fixed-size chunks and hand `(digest, slice)` pairs to `visit` in
/// order, addressing each chunk with `digest_fn`. The final chunk may be short; empty
/// data yields no chunks.
pub fn for_each_chunk(
    data: &[u8],
    chunk_size: usize,
    digest_fn: Digest,
    mut visit: impl FnMut(u64, &[u8]),
) {
    debug_assert!(chunk_size > 0);
    for piece in data.chunks(chunk_size.max(1)) {
        visit(digest_fn.hash(piece), piece);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_all_bytes_in_order() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let mut reassembled = Vec::new();
        let mut count = 0;
        for_each_chunk(&data, 128, Digest::Xx64, |digest, piece| {
            assert_eq!(digest, Digest::Xx64.hash(piece));
            reassembled.extend_from_slice(piece);
            count += 1;
        });
        assert_eq!(reassembled, data);
        assert_eq!(count, 3); // 128 + 128 + 44

        let mut none = 0;
        for_each_chunk(&[], 128, Digest::Xx64, |_, _| none += 1);
        assert_eq!(none, 0);
    }
}
