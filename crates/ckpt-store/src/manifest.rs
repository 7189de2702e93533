//! The CRC-validated checkpoint manifest: how to reassemble one rank's image for one
//! generation from content-addressed chunks.
//!
//! Binary layout (version 2, the only one written or read):
//!
//! ```text
//! magic (8 bytes, "CKPTMANI")
//! version (u32 LE, 2)
//! metadata length (u32 LE) | metadata JSON (split_proc ImageMetadata)
//! upper epoch (u64 LE) | policy tag (u8) | chunk size (u32 LE) | digest tag (u8)
//! region count (u32 LE)
//! per region:
//!   name length (u32 LE) | name UTF-8 | region length (u64 LE) | reused flag (u8)
//!   chunk count (u32 LE)
//!   per chunk: digest (u64 LE) | raw length (u32 LE) | stored length (u32 LE) | form (u8)
//! crc32 of everything above (u32 LE)
//! ```
//!
//! The digest tag names the function chunks were content-addressed with (1 = XXH64)
//! and the per-chunk form byte is a [`StoredForm`] tag (0 = raw, 2 = LZ). Version 1,
//! digest tag 0 (FNV-1a/64) and form tag 1 (RLE) belonged to the retired pre-LZ
//! format: a manifest carrying any of them decodes to an [`MpiError::Checkpoint`]
//! naming the value.

use crate::chunk::ChunkRef;
use crate::codec::{Digest, StoredForm};
use crate::StoragePolicy;
use mpi_model::error::{MpiError, MpiResult};
use split_proc::image::ImageMetadata;
use split_proc::integrity::{crc32, Cursor};

const MAGIC: &[u8; 8] = b"CKPTMANI";
/// The format version written and read.
const VERSION: u32 = 2;

/// One region's reassembly recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionManifest {
    /// Region name within the upper half.
    pub name: String,
    /// Uncompressed region length in bytes.
    pub len: u64,
    /// Chunks, in order; empty for an empty region.
    pub chunks: Vec<ChunkRef>,
    /// Whether this region's chunk list was reused verbatim from the previous
    /// generation (the dirty-region fast path). Informational.
    pub reused: bool,
}

/// A complete per-`(generation, rank)` manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The image metadata (rank, world size, generation, implementation).
    pub metadata: ImageMetadata,
    /// Checkpoint epoch of the upper half when the image was built.
    pub upper_epoch: u64,
    /// Policy this manifest was written under.
    pub policy: StoragePolicy,
    /// Digest function the chunks were content-addressed with.
    pub digest: Digest,
    /// Chunk size used when the image was split.
    pub chunk_size: u32,
    /// Regions in name order.
    pub regions: Vec<RegionManifest>,
}

impl Manifest {
    /// The epoch the upper half entered after this checkpoint completed. An
    /// incremental write may only reuse this manifest's clean regions when the live
    /// upper half is still in exactly this epoch.
    pub(crate) fn base_epoch(&self) -> u64 {
        self.upper_epoch + 1
    }

    /// Look up a region's recipe by name.
    pub fn region(&self, name: &str) -> Option<&RegionManifest> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Sum of uncompressed region lengths.
    pub fn logical_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }

    /// Every chunk reference in the manifest, in region order.
    pub(crate) fn chunk_refs(&self) -> impl Iterator<Item = &ChunkRef> {
        self.regions.iter().flat_map(|r| r.chunks.iter())
    }

    /// Encode to the CRC-trailed binary form (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        #[expect(
            clippy::expect_used,
            reason = "infallible by construction — metadata is a plain string/number struct; the value-model serializer has no failure mode for it, and encode() has no Result channel"
        )]
        let metadata =
            serde_json::to_vec(&self.metadata).expect("image metadata always serializes");
        let mut out = Vec::with_capacity(64 + metadata.len() + self.regions.len() * 48);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(metadata.len() as u32).to_le_bytes());
        out.extend_from_slice(&metadata);
        out.extend_from_slice(&self.upper_epoch.to_le_bytes());
        out.push(policy_tag(self.policy));
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.push(self.digest.tag());
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        for region in &self.regions {
            out.extend_from_slice(&(region.name.len() as u32).to_le_bytes());
            out.extend_from_slice(region.name.as_bytes());
            out.extend_from_slice(&region.len.to_le_bytes());
            out.push(region.reused as u8);
            out.extend_from_slice(&(region.chunks.len() as u32).to_le_bytes());
            for chunk in &region.chunks {
                out.extend_from_slice(&chunk.digest.to_le_bytes());
                out.extend_from_slice(&chunk.raw_len.to_le_bytes());
                out.extend_from_slice(&chunk.stored_len.to_le_bytes());
                out.push(chunk.form.tag());
            }
        }
        let checksum = crc32(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode a binary manifest, verifying the trailing CRC-32 before interpreting
    /// any content.
    pub fn decode(bytes: &[u8]) -> MpiResult<Self> {
        let mut cursor = Cursor::new(bytes, "checkpoint manifest");
        if cursor.take(8)? != MAGIC {
            return Err(MpiError::Checkpoint("bad checkpoint manifest magic".into()));
        }
        let version = cursor.u32()?;
        if version != VERSION {
            return Err(MpiError::Checkpoint(format!(
                "unsupported checkpoint manifest version {version} (expected {VERSION})"
            )));
        }
        if bytes.len() < 16 {
            return Err(MpiError::Checkpoint("truncated checkpoint manifest".into()));
        }
        let payload_end = bytes.len() - 4;
        let stored_crc = u32::from_le_bytes(bytes[payload_end..].try_into().map_err(|_| {
            MpiError::Checkpoint("checkpoint manifest CRC trailer truncated".into())
        })?);
        let computed_crc = crc32(&bytes[..payload_end]);
        if stored_crc != computed_crc {
            return Err(MpiError::Checkpoint(format!(
                "checkpoint manifest failed CRC validation \
                 (stored {stored_crc:#010x}, computed {computed_crc:#010x})"
            )));
        }
        let metadata_len = cursor.u32()? as usize;
        let metadata: ImageMetadata = serde_json::from_slice(cursor.take(metadata_len)?)
            .map_err(|e| MpiError::Checkpoint(format!("bad manifest metadata: {e}")))?;
        let upper_epoch = cursor.u64()?;
        let policy = policy_from_tag(cursor.u8()?)?;
        let chunk_size = cursor.u32()?;
        let digest = Digest::from_tag(cursor.u8()?)?;
        let region_count = cursor.u32()? as usize;
        let mut regions = Vec::with_capacity(region_count.min(1 << 16));
        for _ in 0..region_count {
            let name_len = cursor.u32()? as usize;
            let name = std::str::from_utf8(cursor.take(name_len)?)
                .map_err(|e| MpiError::Checkpoint(format!("bad region name: {e}")))?
                .to_string();
            let len = cursor.u64()?;
            let reused = cursor.u8()? != 0;
            let chunk_count = cursor.u32()? as usize;
            let mut chunks = Vec::with_capacity(chunk_count.min(1 << 16));
            // The read path sizes its buffers from `len` and `raw_len`, so a manifest
            // that is CRC-valid but wrong must fail here, typed, not there on an
            // allocation: no chunk longer than the chunk size, and the chunks of a
            // region adding up to exactly its length.
            if chunk_size == 0 && chunk_count > 0 {
                return Err(MpiError::Checkpoint(format!(
                    "region {name:?} lists {chunk_count} chunks under a chunk size of 0"
                )));
            }
            let mut chunked_len = 0u64;
            for _ in 0..chunk_count {
                let chunk_digest = cursor.u64()?;
                let raw_len = cursor.u32()?;
                if raw_len > chunk_size {
                    return Err(MpiError::Checkpoint(format!(
                        "chunk of region {name:?} records {raw_len} raw bytes, \
                         more than the manifest's chunk size {chunk_size}"
                    )));
                }
                chunked_len += u64::from(raw_len);
                let stored_len = cursor.u32()?;
                let form = StoredForm::from_tag(cursor.u8()?)?;
                chunks.push(ChunkRef {
                    digest: chunk_digest,
                    raw_len,
                    stored_len,
                    form,
                });
            }
            if chunked_len != len {
                return Err(MpiError::Checkpoint(format!(
                    "region {name:?} records {len} bytes but its chunks add up to {chunked_len}"
                )));
            }
            regions.push(RegionManifest {
                name,
                len,
                chunks,
                reused,
            });
        }
        if cursor.pos() != payload_end {
            return Err(MpiError::Checkpoint(format!(
                "checkpoint manifest length mismatch: {} bytes",
                payload_end.abs_diff(cursor.pos())
            )));
        }
        Ok(Manifest {
            metadata,
            upper_epoch,
            policy,
            digest,
            chunk_size,
            regions,
        })
    }
}

fn policy_tag(policy: StoragePolicy) -> u8 {
    match policy {
        StoragePolicy::FullImage => 0,
        StoragePolicy::Incremental => 1,
        StoragePolicy::IncrementalCompressed => 2,
    }
}

fn policy_from_tag(tag: u8) -> MpiResult<StoragePolicy> {
    match tag {
        0 => Ok(StoragePolicy::FullImage),
        1 => Ok(StoragePolicy::Incremental),
        2 => Ok(StoragePolicy::IncrementalCompressed),
        other => Err(MpiError::Checkpoint(format!(
            "unknown storage policy tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest(first_form: StoredForm) -> Manifest {
        Manifest {
            metadata: ImageMetadata {
                rank: 2,
                world_size: 8,
                generation: 5,
                implementation: "openmpi".into(),
            },
            upper_epoch: 5,
            policy: StoragePolicy::IncrementalCompressed,
            digest: Digest::Xx64,
            chunk_size: 65536,
            regions: vec![
                RegionManifest {
                    name: "app.lattice".into(),
                    len: 130_000,
                    chunks: vec![
                        ChunkRef {
                            digest: 0xDEAD_BEEF_0123_4567,
                            raw_len: 65536,
                            stored_len: 120,
                            form: first_form,
                        },
                        ChunkRef {
                            digest: 0x0102_0304_0506_0708,
                            raw_len: 64464,
                            stored_len: 64464,
                            form: StoredForm::Raw,
                        },
                    ],
                    reused: false,
                },
                RegionManifest {
                    name: "empty".into(),
                    len: 0,
                    chunks: vec![],
                    reused: true,
                },
            ],
        }
    }

    /// Re-seal a hand-edited manifest: recompute the CRC trailer over the payload.
    fn reseal(encoded: &mut [u8]) {
        let payload_end = encoded.len() - 4;
        let crc = crc32(&encoded[..payload_end]);
        encoded[payload_end..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Offset of the first sample chunk's record (digest | raw_len | stored_len | form).
    fn first_chunk_at(encoded: &[u8]) -> usize {
        let digest = 0xDEAD_BEEF_0123_4567u64.to_le_bytes();
        (0..encoded.len())
            .find(|&i| encoded[i..].starts_with(&digest))
            .expect("sample chunk present")
    }

    #[test]
    fn roundtrip_both_versions() {
        // Both stored forms, with the first chunk raw and with it LZ-compressed.
        for form in [StoredForm::Raw, StoredForm::Lz] {
            let manifest = sample_manifest(form);
            let encoded = manifest.encode();
            assert_eq!(&encoded[8..12], &2u32.to_le_bytes());
            let decoded = Manifest::decode(&encoded).unwrap();
            assert_eq!(decoded, manifest);
            assert_eq!(decoded.base_epoch(), 6);
            assert_eq!(decoded.logical_bytes(), 130_000);
            assert_eq!(decoded.chunk_refs().count(), 2);
            assert!(decoded.region("empty").unwrap().reused);
            assert!(decoded.region("missing").is_none());
        }
    }

    #[test]
    fn rejects_crc_valid_manifests_with_impossible_lengths() {
        let manifest = sample_manifest(StoredForm::Lz);
        let pristine = manifest.encode();
        let chunk_at = first_chunk_at(&pristine);
        let forge = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut forged = pristine.clone();
            edit(&mut forged);
            reseal(&mut forged);
            match Manifest::decode(&forged) {
                Err(MpiError::Checkpoint(message)) => message,
                other => panic!("forged manifest accepted: {other:?}"),
            }
        };
        // A chunk claiming 4 GiB of raw bytes: what `read` would have reserved.
        let message = forge(&|bytes| {
            bytes[chunk_at + 8..chunk_at + 12].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert!(message.contains("chunk size"), "{message}");
        // One byte over the chunk size is already too many.
        let message = forge(&|bytes| {
            bytes[chunk_at + 8..chunk_at + 12].copy_from_slice(&65_537u32.to_le_bytes())
        });
        assert!(message.contains("chunk size"), "{message}");
        // A chunk within bounds, but the region no longer adds up.
        let message = forge(&|bytes| {
            bytes[chunk_at + 8..chunk_at + 12].copy_from_slice(&65_535u32.to_le_bytes())
        });
        assert!(message.contains("add up"), "{message}");
        // A region length of 2^60 over the same chunks (the u64 precedes the
        // reused flag and the chunk count, 13 bytes before the first chunk).
        let message = forge(&|bytes| {
            bytes[chunk_at - 13..chunk_at - 5].copy_from_slice(&(1u64 << 60).to_le_bytes())
        });
        assert!(message.contains("add up"), "{message}");
        // Chunk size 0 with chunks present. The u32 follows the metadata, the
        // epoch and the policy tag; the digest tag follows it.
        let metadata_len = u32::from_le_bytes(pristine[12..16].try_into().unwrap()) as usize;
        let chunk_size_at = 16 + metadata_len + 8 + 1;
        assert_eq!(
            pristine[chunk_size_at..chunk_size_at + 4],
            65_536u32.to_le_bytes()
        );
        let message = forge(&|bytes| bytes[chunk_size_at..chunk_size_at + 4].fill(0));
        assert!(message.contains("chunk size"), "{message}");
        // The retired pre-LZ format's values, each in an otherwise valid manifest:
        // version word 1, digest tag 0 (FNV-1a/64), chunk form tag 1 (RLE).
        let digest_tag_at = chunk_size_at + 4;
        assert_eq!(pristine[digest_tag_at], Digest::Xx64.tag());
        assert_eq!(pristine[chunk_at + 16], StoredForm::Lz.tag());
        let message = forge(&|bytes| bytes[8..12].copy_from_slice(&1u32.to_le_bytes()));
        assert!(message.contains("version 1"), "{message}");
        let message = forge(&|bytes| bytes[digest_tag_at] = 0);
        assert!(message.contains("digest tag 0"), "{message}");
        let message = forge(&|bytes| bytes[chunk_at + 16] = 1);
        assert!(message.contains("stored-form tag 1"), "{message}");
        // And the untouched encoding still decodes after a reseal.
        let mut resealed = pristine.clone();
        reseal(&mut resealed);
        assert_eq!(Manifest::decode(&resealed).unwrap(), manifest);
    }

    #[test]
    fn rejects_zero_length_chunks_under_a_zero_chunk_size() {
        let mut manifest = sample_manifest(StoredForm::Lz);
        manifest.chunk_size = 0;
        manifest.regions[0].len = 0;
        for chunk in &mut manifest.regions[0].chunks {
            chunk.raw_len = 0;
        }
        assert!(Manifest::decode(&manifest.encode()).is_err());
    }

    #[test]
    fn rejects_corruption_and_truncation_everywhere() {
        let encoded = sample_manifest(StoredForm::Lz).encode();
        for cut in 0..encoded.len() {
            assert!(Manifest::decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
        for position in 0..encoded.len() {
            let mut corrupted = encoded.clone();
            corrupted[position] ^= 0x10;
            assert!(
                Manifest::decode(&corrupted).is_err(),
                "flip at {position} accepted"
            );
        }
    }
}
