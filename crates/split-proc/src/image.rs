//! The checkpoint image: a self-describing binary serialization of one rank's upper
//! half plus a small metadata header.
//!
//! Layout (version 4):
//!
//! ```text
//! magic (8 bytes, "MANACKPT")
//! version (u32 LE)
//! metadata length (u32 LE) | metadata JSON
//! checkpoint epoch (u64 LE)
//! region count (u32 LE)
//! per region: name length (u32 LE) | name UTF-8 | data length (u64 LE) | data
//! xxh64 of everything above (u64 LE)
//! ```
//!
//! The trailing seal is the same [`xxh64`] that validates every stored chunk. It
//! makes any single-byte corruption (and any truncation) of a stored image
//! detectable at decode time, which is what lets restart fall back to an older
//! generation instead of resurrecting silently wrong state. The seal is most of the
//! work of an encode or decode, and XXH64 runs at several times the speed of the
//! CRC-32 that sealed version 3. Version 3 images are rejected as an unsupported
//! version: none outlives the process that wrote it, and no store holds one (every
//! storage policy writes manifests over chunks).
//!
//! The format mirrors the property the paper highlights in §4.2: the MANA-internal
//! descriptor structures are *not* given a special section in the image — they are
//! simply part of the upper-half memory (a region like any other), so the image format
//! is independent of MANA's internal data-structure layout.

use crate::address_space::UpperHalfSpace;
use crate::integrity::{xxh64, Cursor};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::Rank;
use serde::{Deserialize, Serialize};

const MAGIC: &[u8; 8] = b"MANACKPT";
const VERSION: u32 = 4;
/// Bytes of the trailing XXH64 seal.
const SEAL_LEN: usize = 8;

/// Metadata stored in the image header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageMetadata {
    /// Rank this image belongs to.
    pub rank: Rank,
    /// World size of the job at checkpoint time.
    pub world_size: usize,
    /// Monotone checkpoint generation number within the job.
    pub generation: u64,
    /// Name of the MPI implementation that was loaded in the lower half when the
    /// checkpoint was taken. Informational only: restart may use a different one
    /// (the paper's §9 cross-implementation restart).
    pub implementation: String,
}

/// A complete checkpoint image for one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointImage {
    /// Header metadata.
    pub metadata: ImageMetadata,
    /// The saved upper half.
    pub upper_half: UpperHalfSpace,
}

impl CheckpointImage {
    /// Create an image from a rank's upper half.
    pub fn new(metadata: ImageMetadata, upper_half: UpperHalfSpace) -> Self {
        CheckpointImage {
            metadata,
            upper_half,
        }
    }

    /// Encode to the binary image format.
    pub fn encode(&self) -> Vec<u8> {
        #[expect(
            clippy::expect_used,
            reason = "infallible by construction — metadata is a plain string/number struct with no non-serializable fields, and encode() has no Result channel"
        )]
        let metadata =
            serde_json::to_vec(&self.metadata).expect("image metadata always serializes");
        let regions_len: usize = self
            .upper_half
            .iter()
            .map(|(name, data)| 4 + name.len() + 8 + data.len())
            .sum();
        let mut out =
            Vec::with_capacity(8 + 4 + 4 + metadata.len() + 8 + 4 + regions_len + SEAL_LEN);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(metadata.len() as u32).to_le_bytes());
        out.extend_from_slice(&metadata);
        out.extend_from_slice(&self.upper_half.epoch().to_le_bytes());
        out.extend_from_slice(&(self.upper_half.region_count() as u32).to_le_bytes());
        for (name, data) in self.upper_half.iter() {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            out.extend_from_slice(data);
        }
        let seal = xxh64(&out);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    /// Decode a binary image, verifying the trailing XXH64 seal first: truncated and
    /// corrupted images are rejected before any of their content is interpreted.
    pub fn decode(bytes: &[u8]) -> MpiResult<Self> {
        let mut cursor = Cursor::new(bytes, "checkpoint image");
        let magic = cursor.take(8)?;
        if magic != MAGIC {
            return Err(MpiError::Checkpoint("bad checkpoint image magic".into()));
        }
        let version = cursor.u32()?;
        if version != VERSION {
            return Err(MpiError::Checkpoint(format!(
                "unsupported checkpoint image version {version} (expected {VERSION})"
            )));
        }
        if bytes.len() < 8 + 4 + 4 + SEAL_LEN {
            return Err(MpiError::Checkpoint(
                "truncated checkpoint image".to_string(),
            ));
        }
        let payload_end = bytes.len() - SEAL_LEN;
        let stored_seal = u64::from_le_bytes(
            bytes[payload_end..]
                .try_into()
                .map_err(|_| MpiError::Checkpoint("checkpoint image seal truncated".into()))?,
        );
        let computed_seal = xxh64(&bytes[..payload_end]);
        if stored_seal != computed_seal {
            return Err(MpiError::Checkpoint(format!(
                "checkpoint image failed XXH64 seal validation \
                 (stored {stored_seal:#018x}, computed {computed_seal:#018x})"
            )));
        }
        let metadata_len = cursor.u32()? as usize;
        let metadata_bytes = cursor.take(metadata_len)?;
        let metadata: ImageMetadata = serde_json::from_slice(metadata_bytes)
            .map_err(|e| MpiError::Checkpoint(format!("bad image metadata: {e}")))?;
        let epoch = cursor.u64()?;
        let region_count = cursor.u32()? as usize;
        let mut upper_half = UpperHalfSpace::new();
        for _ in 0..region_count {
            let name_len = cursor.u32()? as usize;
            let name = std::str::from_utf8(cursor.take(name_len)?)
                .map_err(|e| MpiError::Checkpoint(format!("bad region name: {e}")))?
                .to_string();
            let data_len = cursor.u64()? as usize;
            let data = cursor.take(data_len)?.to_vec();
            upper_half.map_region(name, data);
        }
        if cursor.pos() != payload_end {
            return Err(MpiError::Checkpoint(format!(
                "checkpoint image length mismatch: {} bytes",
                payload_end.abs_diff(cursor.pos())
            )));
        }
        // A decoded image is clean relative to the checkpoint it came from.
        upper_half.set_epoch(epoch);
        upper_half.mark_clean();
        Ok(CheckpointImage {
            metadata,
            upper_half,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> CheckpointImage {
        let mut upper = UpperHalfSpace::new();
        upper.map_region("app.heap", vec![1, 2, 3, 4, 5]);
        upper.map_region("mana.descriptors", vec![0xAA; 100]);
        upper.map_region("empty", vec![]);
        CheckpointImage::new(
            ImageMetadata {
                rank: 3,
                world_size: 8,
                generation: 2,
                implementation: "openmpi".to_string(),
            },
            upper,
        )
    }

    #[test]
    fn roundtrip() {
        let image = sample_image();
        let encoded = image.encode();
        // Sized once, exactly: no reallocation copies the image on its way out.
        assert_eq!(encoded.capacity(), encoded.len());
        let decoded = CheckpointImage::decode(&encoded).unwrap();
        assert_eq!(decoded, image);
        assert_eq!(decoded.metadata.rank, 3);
        assert_eq!(
            decoded.upper_half.region("app.heap").unwrap(),
            &[1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let image = sample_image();
        let mut encoded = image.encode();
        assert!(CheckpointImage::decode(&encoded[..10]).is_err());
        encoded[0] = b'X';
        assert!(CheckpointImage::decode(&encoded).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_wrong_version() {
        let image = sample_image();
        let mut encoded = image.encode();
        encoded.push(0);
        assert!(CheckpointImage::decode(&encoded).is_err());

        let mut encoded = image.encode();
        encoded[8] = 99; // version field
        let err = CheckpointImage::decode(&encoded).unwrap_err();
        assert!(matches!(err, MpiError::Checkpoint(_)));

        // A version 3 image: the same layout under a CRC-32 trailer.
        let encoded = image.encode();
        let mut v3 = encoded[..encoded.len() - SEAL_LEN].to_vec();
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        let crc = crate::integrity::crc32(&v3);
        v3.extend_from_slice(&crc.to_le_bytes());
        match CheckpointImage::decode(&v3) {
            Err(MpiError::Checkpoint(message)) => {
                assert!(message.contains("version 3"), "{message}")
            }
            other => panic!("a version 3 image was not refused: {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let encoded = sample_image().encode();
        // Every proper prefix must fail to decode — whether the cut lands in the
        // header, the metadata JSON, a region payload, or the seal itself.
        for cut in 0..encoded.len() {
            assert!(
                CheckpointImage::decode(&encoded[..cut]).is_err(),
                "truncation to {cut}/{} bytes was accepted",
                encoded.len()
            );
        }
    }

    #[test]
    fn rejects_every_single_byte_corruption() {
        let encoded = sample_image().encode();
        // Flip one bit of every byte in turn: each corrupted image must be rejected.
        // (Without the XXH64 seal, flips inside region payloads decoded "cleanly".)
        for position in 0..encoded.len() {
            let mut corrupted = encoded.clone();
            corrupted[position] ^= 0x40;
            assert!(
                CheckpointImage::decode(&corrupted).is_err(),
                "single-byte corruption at offset {position} was accepted"
            );
        }
    }

    #[test]
    fn epoch_survives_the_image_roundtrip() {
        let mut image = sample_image();
        image.upper_half.set_epoch(5);
        image.upper_half.region_mut("app.heap").unwrap().push(9);
        assert!(image.upper_half.is_dirty("app.heap"));
        let decoded = CheckpointImage::decode(&image.encode()).unwrap();
        assert_eq!(decoded.upper_half.epoch(), 5);
        // The decoded copy is clean: it *is* the checkpoint.
        assert_eq!(decoded.upper_half.dirty_count(), 0);
        assert_eq!(decoded, image);
    }

    #[test]
    fn image_size_tracks_region_sizes() {
        let small = sample_image().encode().len();
        let mut big_upper = UpperHalfSpace::new();
        big_upper.map_region("app.heap", vec![0; 1 << 20]);
        let big = CheckpointImage::new(
            ImageMetadata {
                rank: 0,
                world_size: 1,
                generation: 0,
                implementation: "mpich".into(),
            },
            big_upper,
        )
        .encode()
        .len();
        assert!(big > small);
        assert!(big >= 1 << 20);
    }
}
