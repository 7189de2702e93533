//! The cold tier: file-backed spill storage for least-recently-referenced chunks.
//!
//! A multi-tenant checkpoint service holds the chunk working set of *many* jobs; most
//! of it is referenced only by old generations that exist purely as restart insurance.
//! The [`ColdTier`] lets [`CheckpointStorage`](crate::CheckpointStorage) demote such
//! chunks to file-backed storage (one file per chunk, CRC-32 framed) while the hot set
//! stays in memory. Demotion and promotion are transparent to readers: `read` fetches
//! a cold chunk from its file, **re-validates the CRC**, promotes it back into the
//! in-memory shard, and then runs the usual content-digest validation — a torn or
//! rotted spill file therefore fails a generation exactly like an in-memory
//! corruption, and restart falls back to an older generation.

use mpi_model::error::{MpiError, MpiResult};
use split_proc::integrity::crc32;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrently created tempdir-rooted tiers within one process.
static TIER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// File-backed spill storage for cold chunks: one CRC-32-framed file per chunk key.
///
/// A tier created with [`ColdTier::in_temp`] owns its directory and removes it on
/// drop; [`ColdTier::at`] adopts an existing path and leaves it in place.
pub struct ColdTier {
    dir: PathBuf,
    owned: bool,
}

impl std::fmt::Debug for ColdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdTier")
            .field("dir", &self.dir)
            .field("owned", &self.owned)
            .finish()
    }
}

impl ColdTier {
    /// A tier rooted in a fresh directory under the system temp dir. The directory
    /// (and every spilled chunk in it) is removed when the tier is dropped.
    pub fn in_temp() -> MpiResult<ColdTier> {
        let dir = std::env::temp_dir().join(format!(
            "ckpt-cold-{}-{}",
            std::process::id(),
            TIER_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| MpiError::Checkpoint(format!("creating cold tier {dir:?}: {e}")))?;
        Ok(ColdTier { dir, owned: true })
    }

    /// A tier rooted at `dir` (created if missing, never removed on drop).
    pub fn at(dir: impl Into<PathBuf>) -> MpiResult<ColdTier> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| MpiError::Checkpoint(format!("creating cold tier {dir:?}: {e}")))?;
        Ok(ColdTier { dir, owned: false })
    }

    /// The directory spilled chunks live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: (u64, u32)) -> PathBuf {
        self.dir.join(format!("c{:016x}-{}.chunk", key.0, key.1))
    }

    /// Write one chunk's stored form to its spill file, framed with a CRC-32 of the
    /// payload so rot or truncation is detected on the way back in.
    pub(crate) fn spill(&self, key: (u64, u32), stored: &[u8]) -> MpiResult<()> {
        let mut framed = Vec::with_capacity(stored.len() + 4);
        framed.extend_from_slice(&crc32(stored).to_le_bytes());
        framed.extend_from_slice(stored);
        let path = self.path_of(key);
        std::fs::write(&path, framed)
            .map_err(|e| MpiError::Checkpoint(format!("spilling chunk to {path:?}: {e}")))
    }

    /// Read one chunk's stored form back, verifying the CRC-32 frame.
    pub(crate) fn fetch(&self, key: (u64, u32)) -> MpiResult<Vec<u8>> {
        let path = self.path_of(key);
        let framed = std::fs::read(&path)
            .map_err(|e| MpiError::Checkpoint(format!("fetching cold chunk {path:?}: {e}")))?;
        if framed.len() < 4 {
            return Err(MpiError::Checkpoint(format!(
                "cold chunk {path:?} is truncated ({} bytes)",
                framed.len()
            )));
        }
        let expected = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]);
        let payload = &framed[4..];
        if crc32(payload) != expected {
            return Err(MpiError::Checkpoint(format!(
                "cold chunk {path:?} failed CRC re-validation on promote"
            )));
        }
        Ok(payload.to_vec())
    }

    /// Remove one chunk's spill file (best effort — a leftover file is unreachable
    /// garbage, never served, because fetches only happen for entries marked cold).
    pub(crate) fn discard(&self, key: (u64, u32)) {
        let _ = std::fs::remove_file(self.path_of(key));
    }

    /// Flip one byte of a spilled chunk's payload on disk (integrity testing: the
    /// CRC re-validation on promote must refuse it).
    pub(crate) fn corrupt_spilled(&self, key: (u64, u32)) -> MpiResult<()> {
        let path = self.path_of(key);
        let mut framed = std::fs::read(&path)
            .map_err(|e| MpiError::Checkpoint(format!("reading cold chunk {path:?}: {e}")))?;
        if framed.len() <= 4 {
            return Err(MpiError::Checkpoint(format!(
                "cold chunk {path:?} too short"
            )));
        }
        let position = 4 + (framed.len() - 4) / 2;
        framed[position] ^= 0x01;
        std::fs::write(&path, framed)
            .map_err(|e| MpiError::Checkpoint(format!("rewriting cold chunk {path:?}: {e}")))
    }
}

impl Drop for ColdTier {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_fetch_round_trip_and_crc_rejection() {
        let tier = ColdTier::in_temp().unwrap();
        let key = (0xABCD, 64);
        tier.spill(key, b"payload bytes").unwrap();
        assert_eq!(tier.fetch(key).unwrap(), b"payload bytes");
        tier.corrupt_spilled(key).unwrap();
        assert!(tier.fetch(key).is_err(), "corrupt spill must fail CRC");
        tier.discard(key);
        assert!(tier.fetch(key).is_err(), "discarded chunk is gone");
    }

    #[test]
    fn owned_temp_dir_is_removed_on_drop() {
        let dir = {
            let tier = ColdTier::in_temp().unwrap();
            tier.spill((1, 1), b"x").unwrap();
            tier.dir().to_path_buf()
        };
        assert!(!dir.exists(), "owned tier dir must be cleaned up");
    }
}
