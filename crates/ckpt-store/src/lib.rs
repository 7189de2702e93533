//! # ckpt-store
//!
//! An incremental, content-addressed checkpoint storage engine for the MANA
//! reproduction — the subsystem behind the paper's Table 3 observation that checkpoint
//! cost is dominated by how many bytes reach the filesystem.
//!
//! Every policy decomposes a rank's image into fixed-size chunks addressed by
//! content digest, shared across generations and ranks, and records one manifest
//! per `(generation, rank)`. The [`StoragePolicy::FullImage`] baseline trusts no
//! dirty flag and hashes every region it cannot prove unchanged; the incremental
//! policies also reuse the chunk lists of regions that stayed clean:
//!
//! * **Chunk store** ([`chunk`]) — fixed-size chunking, 64-bit content digests,
//!   reference-counted chunk entries, optional per-chunk compression. A chunk
//!   whose digest is already stored costs zero new bytes, whoever wrote it first.
//! * **One on-store format** ([`codec`]) — chunks are addressed by XXH64 and, under
//!   a compressing policy, stored as an in-tree LZ stream when that is smaller.
//!   Nothing about the format is configurable; every manifest records the digest
//!   and each chunk's stored form under stable tags, and the retired pre-LZ
//!   format's values are refused as typed errors.
//! * **Dirty-region tracking** — [`split_proc::address_space::UpperHalfSpace`] records
//!   which regions were touched since the previous checkpoint epoch; under the
//!   incremental policies clean regions are re-referenced from the previous
//!   generation's manifest without even re-hashing their data. `FullImage` trusts
//!   no dirty flag: it skips hashing only a region whose every previous chunk the
//!   store still holds as a window of the very buffer being written.
//! * **Manifests** ([`manifest`]) — per `(generation, rank)` a CRC-32-validated
//!   description of how to reassemble the image from chunks. Corruption or truncation
//!   of a manifest *or any chunk* is detected at read time, so restart can fall back
//!   to the newest generation that still validates end-to-end.
//! * **Generation GC** — pruning a generation decrements chunk refcounts and frees
//!   chunks no surviving generation references. The newest committed generation and
//!   any generation with a flush in flight are never pruned, whatever the cutoff.
//! * **Asynchronous flush** ([`flush`]) — a [`FlusherPool`] writes frozen images off
//!   the ranks' critical path, each into the storage its submitter names (the
//!   checkpoint service in `ckpt-service` owns the pool and admits its
//!   submissions); generations move through a *pending → committed* state so a
//!   half-flushed generation is never visible to readers or restart.
//! * **Tenant views** ([`CheckpointStorage::tenant_view`]) — additional catalog
//!   namespaces over one shared chunk space: each tenant's generations, reads and
//!   GC are isolated, while identical chunks written by different tenants are
//!   stored once (the multi-tenant service in `ckpt-service` builds on this).
//! * **Cold tier** ([`tier`]) — least-recently-referenced chunks can be spilled to
//!   CRC-framed files ([`CheckpointStorage::spill_over`]) and are transparently
//!   promoted — with CRC re-validation — when a read needs them.
//!
//! The policy is selected through [`StoragePolicy`] (a `ManaConfig` knob in the MANA
//! layer): `FullImage` trusts no dirty flag and hashes every region it cannot
//! prove unchanged — mirroring the paper's legacy-vs-new-design methodology —
//! while `Incremental` and `IncrementalCompressed` exercise dirty tracking. All
//! three write the same on-store format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod codec;
pub mod flush;
pub mod manifest;
pub mod store;
pub mod tier;

pub use chunk::{ChunkRef, DEFAULT_CHUNK_SIZE};
pub use codec::{Digest, StorageConfig, StoredForm};
pub use flush::{FlushHandle, FlusherPool};
pub use manifest::{Manifest, RegionManifest};
pub use store::{
    CheckpointStorage, PruneReport, ShardStats, SpillReport, StorageStats, StoreReport,
    DEFAULT_SHARD_COUNT,
};
pub use tier::ColdTier;

/// How a rank's checkpoint image is written to storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoragePolicy {
    /// The legacy baseline: no dirty flag is trusted, and every region is hashed
    /// unless the store still holds each chunk of the rank's previous record of it
    /// as a window of the very buffer being written, which proves it unchanged.
    /// Chunks are still content-addressed, so an unchanged chunk is stored once;
    /// the manifest records policy tag 0.
    FullImage,
    /// Content-addressed chunking with dirty-region reuse: only regions touched since
    /// the previous generation are re-chunked, and only chunks whose digest is new
    /// reach storage.
    Incremental,
    /// [`StoragePolicy::Incremental`] plus per-chunk LZ compression (kept only when
    /// it actually shrinks the chunk).
    IncrementalCompressed,
}

impl StoragePolicy {
    /// Short label used by benches and the harness.
    pub fn label(self) -> &'static str {
        match self {
            StoragePolicy::FullImage => "full",
            StoragePolicy::Incremental => "incremental",
            StoragePolicy::IncrementalCompressed => "incremental+comp",
        }
    }

    /// Whether this policy reuses a clean region's chunk list from the previous
    /// generation instead of re-digesting the region (trusting its dirty flag).
    pub(crate) fn is_incremental(self) -> bool {
        !matches!(self, StoragePolicy::FullImage)
    }

    /// Whether chunks are candidates for compression.
    pub fn compresses(self) -> bool {
        matches!(self, StoragePolicy::IncrementalCompressed)
    }
}
