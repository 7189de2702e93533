//! The checkpoint storage engine: a ref-counted chunk store plus one manifest per
//! `(generation, rank)`, shared by all ranks of a job (clone-shared).

use crate::chunk::{for_each_chunk, ChunkRef, DEFAULT_CHUNK_SIZE};
use crate::codec::{decode_chunk_onto, lz_compress, Digest, StorageConfig, StoredForm};
use crate::gc::TenantQuota;
use crate::manifest::{Manifest, RegionManifest};
use crate::service::{ServiceConfig, Space, Tenant};
use crate::tier::ColdTier;
use crate::StoragePolicy;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::payload::PayloadBuf;
use mpi_model::types::Rank;
use parking_lot::Mutex;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::CheckpointImage;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::{Deref, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// What one checkpoint write cost, physically and logically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreReport {
    /// Checkpoint generation written.
    pub generation: u64,
    /// Rank whose image was written.
    pub rank: Rank,
    /// Policy in force for this write.
    pub policy: StoragePolicy,
    /// Uncompressed upper-half payload bytes (what a full copy of the regions would
    /// occupy, regardless of policy) — the "logical" checkpoint size of Table 3.
    pub logical_bytes: usize,
    /// Bytes that actually reached storage: new chunk payloads (post-compression)
    /// plus the manifest.
    pub written_bytes: usize,
    /// Bytes of the manifest itself.
    pub manifest_bytes: usize,
    /// Chunks newly stored by this write.
    pub chunks_new: usize,
    /// Chunks re-referenced from content already in the store.
    pub chunks_reused: usize,
    /// Regions whose chunk lists were reused wholesale via dirty-region tracking.
    pub regions_reused: usize,
    /// Region bytes this write hashed. A region reused through its dirty flag, or
    /// proven unchanged by the store's windows of its buffer, is not hashed.
    pub digested_bytes: usize,
    /// Bytes saved by compression on the chunks this write stored.
    pub compression_saved_bytes: usize,
}

impl StoreReport {
    /// `logical / written`: how many times smaller this write was than a full copy
    /// of the same upper half (1.0 ≈ no savings).
    pub fn reduction_factor(&self) -> f64 {
        if self.written_bytes == 0 {
            f64::INFINITY
        } else {
            self.logical_bytes as f64 / self.written_bytes as f64
        }
    }
}

/// What one [`CheckpointStorage::prune_before`] sweep did — and, as important, what
/// it deliberately did **not** do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// **Physical** chunk payload bytes freed by the sweep: stored bytes of chunks
    /// whose reference count reached zero. With cross-tenant dedup this can be far
    /// smaller than [`logical_freed_bytes`](PruneReport::logical_freed_bytes) — a
    /// pruned generation whose chunks are still referenced by another generation (or
    /// another tenant's manifests) only drops reference counts.
    pub freed_bytes: usize,
    /// **Logical** bytes released by the sweep: the uncompressed upper-half payload
    /// size of every `(generation, rank)` slot dropped, regardless of whether the
    /// underlying chunks were shared. This is the number quota accounting wants.
    pub logical_freed_bytes: usize,
    /// Generations whose checkpoints were dropped, ascending.
    pub pruned: Vec<u64>,
    /// Generations older than the cutoff that were *kept*: the newest committed
    /// generation (the job's only restart point) and any generation still pending
    /// (a flush in flight must never have its chunks deleted under it), ascending.
    pub retained: Vec<u64>,
}

/// Occupancy of one digest-keyed chunk shard — the real numbers the service's
/// tiering and GC decisions are driven by, not a recomputation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Distinct chunks resident in this shard (hot or cold).
    pub chunk_count: usize,
    /// Stored bytes held by this shard's chunks, hot and cold combined.
    pub stored_bytes: usize,
    /// Stored bytes resident in memory (hot payloads).
    pub hot_bytes: usize,
    /// Chunks whose payload currently lives in the cold tier.
    pub(crate) cold_chunks: usize,
    /// Sum of reference counts across this shard's chunks.
    pub refcount_total: u64,
}

/// Aggregate occupancy of the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageStats {
    /// Distinct chunks held.
    pub chunk_count: usize,
    /// Bytes held by chunk payloads (stored form), hot and cold combined.
    pub chunk_bytes: usize,
    /// Chunk payload bytes resident in memory (the hot set).
    pub hot_bytes: usize,
    /// Chunks whose payload currently lives in the cold tier.
    pub cold_chunk_count: usize,
    /// Chunk payload bytes currently spilled to the cold tier.
    pub(crate) cold_bytes: usize,
    /// Sum of chunk reference counts across all shards.
    pub refcount_total: u64,
    /// Chunk fetches served by promoting a cold-tier payload (lifetime counter).
    pub cold_hits: u64,
    /// Total chunk fetches on the read path (lifetime counter, hot + cold).
    pub chunk_reads: u64,
    /// Chunks demoted to the cold tier over the store's lifetime.
    pub(crate) spilled_chunks: u64,
    /// Stored bytes demoted to the cold tier over the store's lifetime.
    pub(crate) spilled_bytes: u64,
    /// Per-shard occupancy, in shard order.
    pub shards: Vec<ShardStats>,
    /// Manifests held.
    pub manifest_count: usize,
    /// Bytes held by encoded manifests.
    pub manifest_bytes: usize,
}

impl StorageStats {
    /// Total bytes resident in the store (in memory or spilled).
    pub fn total_bytes(&self) -> usize {
        self.chunk_bytes + self.manifest_bytes
    }

    /// Fraction of chunk fetches served by promoting from the cold tier, or 0.0
    /// when nothing has been read yet.
    pub fn cold_hit_rate(&self) -> f64 {
        if self.chunk_reads == 0 {
            0.0
        } else {
            self.cold_hits as f64 / self.chunk_reads as f64
        }
    }
}

/// What one [`CheckpointStorage::spill_over`] pass demoted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillReport {
    /// Chunks demoted to the cold tier by this pass.
    pub(crate) spilled_chunks: usize,
    /// Stored bytes demoted by this pass.
    pub(crate) spilled_bytes: usize,
    /// Hot bytes resident after the pass.
    pub hot_bytes: usize,
}

/// A hot chunk's stored bytes. Either kind clones as a refcount bump, so reads hand
/// the stored bytes out without a copy per read.
#[derive(Clone)]
enum Body {
    /// Bytes the store owns: an LZ stream, a promoted cold chunk or a corrupted copy.
    Owned(PayloadBuf),
    /// A raw chunk kept as `len` bytes at `start` of the upper-half region it was cut
    /// from, shared with the image that handed the region over (see
    /// [`UpperHalfSpace::iter_shared`]). The region stays allocated until the last
    /// window into it is freed; the space copies it before its next mutation.
    Window {
        region: Arc<Vec<u8>>,
        start: usize,
        len: usize,
    },
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Window { region, start, len } => &region[*start..*start + *len],
        }
    }
}

/// Where a chunk's stored payload currently lives.
enum ChunkPayload {
    /// Resident in memory.
    Hot(Body),
    /// Demoted to the cold tier; fetched (and CRC-revalidated) on next read.
    Cold,
}

struct ChunkEntry {
    refs: u64,
    payload: ChunkPayload,
    /// Length of the stored form (kept even while the payload is cold).
    stored_len: u32,
    /// The form the stored bytes take — mirrored into every [`ChunkRef`] that
    /// references this entry.
    form: StoredForm,
    /// Last-referenced tick from the store's LRU clock; spill candidates are the
    /// chunks with the oldest touch.
    touch: u64,
}

/// Counters and tiering state shared by every tenant view of one chunk space.
struct TierState {
    cold: Option<ColdTier>,
    /// Monotonic LRU clock; bumped on every chunk reference.
    clock: AtomicU64,
    hot_bytes: AtomicUsize,
    cold_hits: AtomicU64,
    chunk_reads: AtomicU64,
    spilled_chunks: AtomicU64,
    spilled_bytes: AtomicU64,
}

impl Default for TierState {
    fn default() -> Self {
        TierState {
            cold: None,
            clock: AtomicU64::new(0),
            hot_bytes: AtomicUsize::new(0),
            cold_hits: AtomicU64::new(0),
            chunk_reads: AtomicU64::new(0),
            spilled_chunks: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
        }
    }
}

/// Number of digest-keyed chunk shards a store carves its content-addressed space
/// into. Concurrent rank writes land on different shards with high probability, so an
/// 8-rank coordinated checkpoint no longer serializes on one global lock.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// The most readers a read's region pass runs at once: the host's parallelism (which
/// honours the affinity mask), queried once per process (each query is a system call
/// of some tens of microseconds) and only by a read of two units or more.
fn reader_threads() -> usize {
    static READERS: OnceLock<usize> = OnceLock::new();
    *READERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Why a zero-rank read fails: there is nothing to restore.
const EMPTY_WORLD: &str = "an empty world (0 ranks) has no checkpoint";

/// Prefix a checkpoint error with the slot it came from, and with the region when a
/// region failed, so a failed read names what tore.
fn slot_error(generation: u64, rank: Rank, region: Option<&str>, error: MpiError) -> MpiError {
    let MpiError::Checkpoint(message) = error else {
        return error;
    };
    let region = region.map_or(String::new(), |region| format!(" region {region:?}:"));
    MpiError::Checkpoint(format!(
        "generation {generation}, rank {rank}:{region} {message}"
    ))
}

/// Copy a region's pending run of windows into `data`, allocating `data` for the
/// whole region when this is the read's first copy.
fn copy_run(data: &mut Vec<u8>, run: Option<(Arc<Vec<u8>>, usize)>, region_len: u64) {
    if data.capacity() == 0 {
        data.reserve_exact(region_len as usize);
    }
    if let Some((buffer, end)) = run {
        data.extend_from_slice(&buffer[..end]);
    }
}

/// One digest-keyed slice of the content-addressed chunk space, behind its own lock.
#[derive(Default)]
struct ChunkShard {
    /// Content-addressed chunks, keyed by `(digest, raw_len)`.
    chunks: HashMap<(u64, u32), ChunkEntry>,
}

/// One landed `(generation, rank)` checkpoint.
struct Slot {
    /// The encoded manifest — kept encoded so every read re-validates the CRC,
    /// exactly like a file on a checkpoint filesystem.
    manifest: Vec<u8>,
    /// The image's logical (uncompressed upper-half) bytes: what quota GC and tenant
    /// accounting count.
    logical_bytes: u64,
}

/// The per-job checkpoint catalog: which `(generation, rank)` slots exist, their
/// manifests and logical sizes, and the resume step of each committed step-driven
/// generation. Held separately from the chunk shards (and its lock is never held
/// while a shard lock is taken), so catalog lookups and chunk traffic never contend
/// with each other.
#[derive(Default)]
struct Catalog {
    slots: BTreeMap<(u64, Rank), Slot>,
    /// The step a committed generation resumes from (see
    /// [`CheckpointStorage::note_resume_step`]). Inserted in the critical section
    /// that commits the generation, and removed with the first of its slots to be
    /// released, so a pending, aborted or pruned generation never has one.
    resume: BTreeMap<u64, u64>,
}

impl Catalog {
    /// Count `rank`'s image of `generation` as landed, under the caller's catalog and
    /// pending locks. Returns whether the slot is to be recorded: `false` only when
    /// the generation's round was aborted.
    ///
    /// The landing that completes a pending round's rank set ends the round: a live
    /// round commits (its entry leaves `pending`, and its resume record becomes
    /// readable in the same critical section; a round that noted no step leaves no
    /// record, not a stale one from an earlier round of the same number), and an
    /// aborted round's tombstone retires, since no write of the round is left to
    /// land. A generation never announced is visible as soon as it lands.
    fn land(
        &mut self,
        pending: &mut BTreeMap<u64, PendingGeneration>,
        generation: u64,
        rank: Rank,
    ) -> bool {
        let Some(entry) = pending.get_mut(&generation) else {
            return true;
        };
        entry.landed.insert(rank);
        let live = !entry.aborted;
        if entry.landed.len() >= entry.expected_ranks {
            let resume = entry.resume;
            pending.remove(&generation);
            match resume.filter(|_| live) {
                Some(step) => self.resume.insert(generation, step),
                None => self.resume.remove(&generation),
            };
        }
        live
    }
}

/// One catalog namespace over a chunk space — its slots and pending rounds — and
/// the tenant that writes it. [`CheckpointStorage::tenant_view`] makes a new one;
/// clones of a storage share theirs.
pub(crate) struct View {
    catalog: Mutex<Catalog>,
    /// Generations announced but not yet fully flushed. Never locked while a shard
    /// lock is held; where both are needed, the catalog is locked first (a commit
    /// and its resume record move together under both).
    pending: Mutex<BTreeMap<u64, PendingGeneration>>,
    pub(crate) tenant: Tenant,
}

impl View {
    pub(crate) fn new(tenant: Tenant) -> View {
        View {
            catalog: Mutex::default(),
            pending: Mutex::default(),
            tenant,
        }
    }

    /// Every committed generation, ascending, with the logical bytes its slots
    /// record, summed over its ranks: what quota GC and tenant accounting count.
    pub(crate) fn committed_sizes(&self) -> Vec<(u64, u64)> {
        let catalog = self.catalog.lock();
        let pending = self.pending.lock();
        let mut sizes: Vec<(u64, u64)> = Vec::new();
        for (&(generation, _), slot) in &catalog.slots {
            if pending.contains_key(&generation) {
                continue;
            }
            match sizes.last_mut() {
                Some((last, bytes)) if *last == generation => *bytes += slot.logical_bytes,
                _ => sizes.push((generation, slot.logical_bytes)),
            }
        }
        sizes
    }
}

/// One generation announced as in flight: which ranks' images have landed so far,
/// out of how many the commit needs.
struct PendingGeneration {
    expected_ranks: usize,
    /// Ranks whose image has landed, recorded or (after an abort) not.
    landed: BTreeSet<Rank>,
    /// Tombstone: the round was aborted. The entry stays (keeping the generation
    /// invisible) so a straggler write that lands *after* the abort is never
    /// recorded. It retires once every expected rank has landed, before the abort
    /// or after it: no write of the round is left to land.
    aborted: bool,
    /// The minimum over the noting ranks of their completed steps, if any noted one.
    resume: Option<u64>,
}

/// The storage engine. Cloning shares the underlying store (all ranks of a job write
/// into one engine, which is what makes cross-rank chunk dedup possible).
///
/// Internally the chunk space is split into [`DEFAULT_SHARD_COUNT`] digest-keyed
/// shards, each behind its own lock, so the parallel per-rank writes of a coordinated
/// checkpoint proceed concurrently instead of queueing on one global mutex.
///
/// Generations move through a **pending → committed** state: a generation announced
/// via [`begin_generation`](CheckpointStorage::begin_generation) stays invisible to
/// [`generations`](CheckpointStorage::generations),
/// [`read`](CheckpointStorage::read) and therefore
/// [`latest_valid_images`](CheckpointStorage::latest_valid_images) until every rank's
/// image has landed, and the write that lands last commits it. A write into a
/// generation never announced (a standalone checkpoint) is visible immediately.
///
/// Each view is a tenant of its chunk space: every write meters itself into it.
#[derive(Clone)]
pub struct CheckpointStorage {
    shards: Arc<Vec<Mutex<ChunkShard>>>,
    /// This view's catalog namespace and its tenant.
    pub(crate) view: Arc<View>,
    /// Cold tier + LRU clock + occupancy counters, shared by every clone and every
    /// tenant view of this chunk space.
    tier: Arc<TierState>,
    /// The flusher pool, admission cap, hot-set target and tenant registry, shared
    /// like the tier state. Set only here, by `unmetered` and `with_space`.
    pub(crate) space: Arc<Space>,
    chunk_size: usize,
}

impl Default for CheckpointStorage {
    fn default() -> Self {
        CheckpointStorage::unmetered()
    }
}

impl std::fmt::Debug for CheckpointStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CheckpointStorage")
            .field("chunks", &stats.chunk_count)
            .field("manifests", &stats.manifest_count)
            .field("total_bytes", &stats.total_bytes())
            .finish()
    }
}

impl CheckpointStorage {
    /// An empty engine with the default chunk size and shard count: a chunk space
    /// under [`ServiceConfig::default`] plus its first tenant, which has no quota
    /// and no in-flight budget of its own.
    pub fn unmetered() -> Self {
        CheckpointStorage {
            shards: Arc::new((0..DEFAULT_SHARD_COUNT).map(|_| Mutex::default()).collect()),
            view: Arc::new(View::new(Tenant::new(
                0,
                "job",
                TenantQuota::default().with_max_in_flight(usize::MAX),
            ))),
            tier: Arc::new(TierState::default()),
            space: Arc::new(Space::new(&ServiceConfig::default())),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Override the chunk size (mainly for tests and benches).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// The on-store format every write uses — the same for every store.
    pub fn config(&self) -> StorageConfig {
        StorageConfig::default()
    }

    /// Override the number of digest-keyed chunk shards. `1` reproduces the old
    /// single-lock engine (the serialized baseline the Table 3 bench compares
    /// against); the default is [`DEFAULT_SHARD_COUNT`].
    ///
    /// Must be called before the store is shared (cloned): it rebuilds the shard set.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Arc::new((0..shards.max(1)).map(|_| Mutex::default()).collect());
        self
    }

    /// Attach a cold tier: least-recently-referenced chunks can then be demoted to
    /// file-backed storage by [`spill_over`](CheckpointStorage::spill_over) and are
    /// transparently promoted (CRC-revalidated) on read.
    ///
    /// Must be called before the store is shared (cloned or viewed): it rebuilds the
    /// shared tier state, so earlier occupancy counters are reset.
    pub fn with_cold_tier(mut self, cold: ColdTier) -> Self {
        self.tier = Arc::new(TierState {
            cold: Some(cold),
            ..TierState::default()
        });
        self
    }

    /// Rebuild the space's shared state (flusher pool, admission cap, hot-set
    /// target, tenant registry) under `config`.
    ///
    /// Must be called before the store is shared (cloned or viewed), like
    /// [`with_cold_tier`](CheckpointStorage::with_cold_tier).
    pub(crate) fn with_space(mut self, config: &ServiceConfig) -> Self {
        self.space = Arc::new(Space::new(config));
        self
    }

    /// A new catalog namespace over the **same** content-addressed chunk space, and
    /// a new tenant of the space under the default quota.
    ///
    /// The view shares the chunk shards (and their reference counts), the cold tier,
    /// the LRU clock and the space (pool, admission cap, hot-set target) with
    /// `self`, but has a fresh, empty catalog and pending table, and its own tenant.
    /// This is the tenancy primitive of the multi-tenant checkpoint service:
    /// every tenant writes generations and manifests into its own namespace —
    /// `generations`, `read`, `prune_before`, `latest_valid_images` are all
    /// per-tenant — while identical chunks written by different tenants are
    /// stored once. Shared reference counts make cross-tenant GC safe: a tenant
    /// pruning its generations only frees chunks no other tenant references.
    ///
    /// Configure the store (`with_shards`, `with_chunk_size`, `with_cold_tier`)
    /// **before** creating views; views snapshot the configuration.
    pub fn tenant_view(&self) -> CheckpointStorage {
        self.add_tenant("tenant", TenantQuota::default())
    }

    /// [`tenant_view`](CheckpointStorage::tenant_view) with a name and a quota.
    pub(crate) fn add_tenant(&self, name: &str, quota: TenantQuota) -> CheckpointStorage {
        CheckpointStorage {
            shards: Arc::clone(&self.shards),
            view: self.space.new_tenant(name, quota),
            tier: Arc::clone(&self.tier),
            space: Arc::clone(&self.space),
            chunk_size: self.chunk_size,
        }
    }

    /// Number of digest-keyed chunk shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Chunk payload bytes currently resident in memory (the hot set).
    pub fn hot_bytes(&self) -> usize {
        self.tier.hot_bytes.load(Ordering::Relaxed)
    }

    /// Next tick of the shared LRU clock.
    fn tick(&self) -> u64 {
        self.tier.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Decrease the hot-byte counter (saturating — defensive against double frees).
    fn sub_hot(&self, bytes: usize) {
        let _ = self
            .tier
            .hot_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                Some(current.saturating_sub(bytes))
            });
    }

    /// The shard a chunk digest routes to.
    fn shard(&self, digest: u64) -> &Mutex<ChunkShard> {
        &self.shards[(digest % self.shards.len() as u64) as usize]
    }

    /// Increment the reference count of `key` if the chunk is resident, returning its
    /// stored form `(stored_len, form)` when it was.
    fn bump_chunk_ref(&self, key: (u64, u32)) -> Option<(u32, StoredForm)> {
        let now = self.tick();
        let mut shard = self.shard(key.0).lock();
        shard.chunks.get_mut(&key).map(|entry| {
            entry.refs += 1;
            entry.touch = now;
            (entry.stored_len, entry.form)
        })
    }

    /// Decrement the reference count of `key` (undo of a bump that must not stand).
    fn release_chunk_ref(&self, key: (u64, u32)) {
        let mut shard = self.shard(key.0).lock();
        if let Some(entry) = shard.chunks.get_mut(&key) {
            entry.refs = entry.refs.saturating_sub(1);
        }
    }

    /// Re-reference every chunk of a previous generation's region, all or nothing:
    /// returns `false` (with any partial bumps released) if a chunk is no longer
    /// resident — a concurrent prune freed it after the manifest was snapshotted.
    fn bump_region_refs(&self, region: &RegionManifest) -> bool {
        for (position, chunk) in region.chunks.iter().enumerate() {
            if self.bump_chunk_ref(chunk.key()).is_none() {
                for taken in &region.chunks[..position] {
                    self.release_chunk_ref(taken.key());
                }
                return false;
            }
        }
        true
    }

    /// Re-reference every chunk of `previous`, an earlier record of a region of the
    /// same name and length as `region`, all or nothing, if each chunk is still held
    /// as a hot window of `region` itself, at the offset and length this write would
    /// cut it at. Returns `false` (with any partial bumps released) otherwise.
    ///
    /// A pass proves the region unchanged without hashing it: while the store holds
    /// a window of a buffer, nothing writes to that buffer (the upper half copies a
    /// shared region before handing it out mutably), and the window keeps the
    /// buffer alive, so its address cannot name a new allocation. A spilled, pruned,
    /// corrupted or compressed chunk is no longer such a window and fails the check.
    fn bump_unchanged_windows(&self, previous: &RegionManifest, region: &Arc<Vec<u8>>) -> bool {
        if previous.chunks.len() != region.len().div_ceil(self.chunk_size) {
            return false;
        }
        for (position, chunk) in previous.chunks.iter().enumerate() {
            let offset = position * self.chunk_size;
            let len = self.chunk_size.min(region.len() - offset);
            let now = self.tick();
            let held = chunk.raw_len as usize == len
                && {
                    let mut shard = self.shard(chunk.digest).lock();
                    match shard.chunks.get_mut(&chunk.key()) {
                        Some(entry)
                            if matches!(&entry.payload, ChunkPayload::Hot(Body::Window { region: window, start, len: held })
                            if Arc::ptr_eq(window, region) && *start == offset && *held == len) =>
                        {
                            entry.refs += 1;
                            entry.touch = now;
                            true
                        }
                        _ => false,
                    }
                };
            if !held {
                for taken in &previous.chunks[..position] {
                    self.release_chunk_ref(taken.key());
                }
                return false;
            }
        }
        true
    }

    /// Remove whatever `(generation, rank)` currently holds, decrementing the chunk
    /// references a removed manifest owned. Zero-ref chunks stay resident until the
    /// next `prune_before` sweep (or are immediately re-referenced by a rewrite).
    /// Returns the **logical** bytes the slot represented (the uncompressed
    /// upper-half payload size), so GC paths can report logical and physical frees
    /// separately.
    ///
    /// Best effort on an undecodable manifest: it cannot tell us which chunks to
    /// release, so its chunks leak until the store is dropped.
    fn release_slot(&self, generation: u64, rank: Rank) -> usize {
        let slot = {
            let mut catalog = self.view.catalog.lock();
            let slot = catalog.slots.remove(&(generation, rank));
            if slot.is_some() {
                catalog.resume.remove(&generation);
            }
            slot
        };
        let Some(slot) = slot else { return 0 };
        if let Ok(manifest) = Manifest::decode(&slot.manifest) {
            self.release_chunks(&manifest);
        }
        slot.logical_bytes as usize
    }

    /// Drop one reference from every chunk `manifest` references.
    fn release_chunks(&self, manifest: &Manifest) {
        for chunk in manifest.chunk_refs() {
            self.release_chunk_ref(chunk.key());
        }
    }

    // ------------------------------------------------------------------
    // Pending-generation lifecycle
    // ------------------------------------------------------------------

    /// Announce `generation` as in flight: the `expected_ranks` ranks of a job are
    /// about to write its images, by whatever route. Until every rank's
    /// [`write_image`](CheckpointStorage::write_image) has landed, the generation is
    /// invisible to readers and protected from
    /// [`prune_before`](CheckpointStorage::prune_before); the write that lands last
    /// commits it.
    ///
    /// Idempotent: later calls for the same generation are no-ops, so every rank can
    /// announce before writing its own image without coordinating who goes first.
    /// That includes an **aborted** round's tombstone (see
    /// [`abort_generation`](CheckpointStorage::abort_generation)): a rank that
    /// announces after a peer already aborted the round joins the dead round, and
    /// its write is never recorded. A restarted job that reuses the generation
    /// number drops the tombstone first, with
    /// [`abort_pending`](CheckpointStorage::abort_pending), once no write of the
    /// dead incarnation can still land.
    pub fn begin_generation(&self, generation: u64, expected_ranks: usize) {
        self.view
            .pending
            .lock()
            .entry(generation)
            .or_insert_with(|| PendingGeneration {
                expected_ranks: expected_ranks.max(1),
                landed: BTreeSet::new(),
                aborted: false,
                resume: None,
            });
    }

    /// Record that a rank of pending `generation` had completed `step` steps when it
    /// checkpointed. The generation's resume step is the minimum over the ranks that
    /// note one — a resume must re-run whatever *any* rank had not completed — and it
    /// becomes readable through [`resume_step`](CheckpointStorage::resume_step) in
    /// the critical section that commits the generation. A no-op unless the
    /// generation is pending and not aborted.
    pub fn note_resume_step(&self, generation: u64, step: u64) {
        let mut pending = self.view.pending.lock();
        if let Some(entry) = pending.get_mut(&generation).filter(|entry| !entry.aborted) {
            entry.resume = Some(entry.resume.map_or(step, |folded| folded.min(step)));
        }
    }

    /// The step committed `generation` resumes from, if its round noted one (see
    /// [`note_resume_step`](CheckpointStorage::note_resume_step)). `None` for a
    /// pending, aborted, pruned or dropped generation, and for one written outside a
    /// step-driven run.
    pub fn resume_step(&self, generation: u64) -> Option<u64> {
        self.view.catalog.lock().resume.get(&generation).copied()
    }

    /// Does nothing: a rank's [`write_image`](CheckpointStorage::write_image)
    /// counts it as landed, and the landing that completes the rank set commits the
    /// generation. A compatibility stub for callers that still note each landing
    /// by hand after the write; it goes with them.
    pub fn note_rank_flushed(&self, _generation: u64, _rank: Rank) {}

    /// Abort every pending generation, then drop its pending entry, abort tombstone
    /// included, and return them ascending. This is restart's hygiene for the
    /// generations a dead incarnation never committed: torn by definition, their
    /// half-landed slots are released, and dropping the tombstone lets the
    /// restarted job's *synchronous* checkpoints reuse the numbers without the stale
    /// tombstone hiding them forever. Only safe once no flush of the dead
    /// incarnation can still be in flight: the tombstone exists precisely to catch
    /// stragglers.
    pub fn abort_pending(&self) -> Vec<u64> {
        let pending = self.pending_generations();
        for &generation in &pending {
            self.abort_generation(generation);
            self.view.pending.lock().remove(&generation);
        }
        pending
    }

    /// Abort a pending generation: release every slot already written for it (the
    /// chunks become unreferenced and are reclaimed by the next
    /// [`prune_before`](CheckpointStorage::prune_before) sweep) and tombstone the
    /// pending entry — the generation stays invisible, and a straggler write still
    /// in flight at abort time is never recorded when it lands. The tombstone
    /// retires by itself once every expected rank has landed, before the abort or
    /// after it. Returns the number of `(generation, rank)` slots released here.
    pub fn abort_generation(&self, generation: u64) -> usize {
        {
            let mut pending = self.view.pending.lock();
            // Only a *pending* round can be aborted: a generation that already
            // committed (or was never announced) is left alone, so an abort racing
            // a completed round cannot destroy a valid restart point.
            match pending.get_mut(&generation) {
                Some(entry) => entry.aborted = true,
                None => return 0,
            }
        }
        let ranks = self.ranks_in_generation(generation);
        for &rank in &ranks {
            self.release_slot(generation, rank);
        }
        ranks.len()
    }

    /// Whether `generation` is announced but not yet committed.
    pub fn is_pending(&self, generation: u64) -> bool {
        self.view.pending.lock().contains_key(&generation)
    }

    /// Generations currently pending (announced, not yet fully flushed), ascending.
    pub fn pending_generations(&self) -> Vec<u64> {
        self.view.pending.lock().keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Write one rank's image for the generation recorded in its metadata, under the
    /// given policy. Every policy writes a manifest over content-addressed chunks;
    /// raw chunks are windows of the image's regions, not copies.
    ///
    /// The manifest lands in one critical section with the rank's landing in a
    /// pending generation (see [`begin_generation`](CheckpointStorage::begin_generation)):
    /// the landing that completes the round's rank set commits the generation with
    /// its resume record, and a landing on an aborted round is never recorded (the
    /// references the write took are dropped again). Then the write meters itself
    /// into this view's tenant, whatever route called it, and runs the tenant's
    /// quota GC and the space's spill check.
    pub fn write_image(&self, policy: StoragePolicy, image: &CheckpointImage) -> StoreReport {
        let generation = image.metadata.generation;
        let rank = image.metadata.rank;
        let logical_bytes = image.upper_half.total_bytes();

        let mut report = StoreReport {
            generation,
            rank,
            policy,
            logical_bytes,
            written_bytes: 0,
            manifest_bytes: 0,
            chunks_new: 0,
            chunks_reused: 0,
            regions_reused: 0,
            digested_bytes: 0,
            compression_saved_bytes: 0,
        };

        // Rewriting an existing (generation, rank) — e.g. re-checkpointing after a
        // restart replaced a torn generation — must release whatever the slot held,
        // or the replaced manifest's chunk references leak forever.
        self.release_slot(generation, rank);
        self.write_chunked(policy, image, &mut report);
        self.meter(&report);
        report
    }

    fn write_chunked(
        &self,
        policy: StoragePolicy,
        image: &CheckpointImage,
        report: &mut StoreReport,
    ) {
        let rank = image.metadata.rank;
        let generation = image.metadata.generation;
        let upper = &image.upper_half;

        // The rank's previous manifest. The incremental policies reuse a clean
        // region's chunk list only if the epoch chain links that manifest directly to
        // this image's epoch — otherwise dirty flags describe changes relative to
        // some *other* checkpoint and clean-region reuse would be unsound. `FullImage`
        // trusts no dirty flag, so it needs no epoch link: it re-references a region
        // only where the store's windows prove the region's buffer unchanged, and
        // hashes every region it cannot prove so. Copied out under the catalog lock,
        // decoded outside it.
        let previous = {
            let catalog = self.view.catalog.lock();
            catalog
                .slots
                .range(..(generation, rank))
                .rev()
                .find(|((_, r), _)| *r == rank)
                .map(|(_, slot)| slot.manifest.clone())
        }
        .and_then(|bytes| Manifest::decode(&bytes).ok())
        .filter(|m| !policy.is_incremental() || m.base_epoch() == upper.epoch())
        // A manifest's chunks are bounded by the chunk size it records (decode
        // enforces it), so regions chunked at another size are re-chunked rather
        // than carried over.
        .filter(|m| m.chunk_size as usize == self.chunk_size);

        // The image's regions and the previous manifest's are both in name order, so
        // one forward walk pairs them up — no per-region search inside the stall. (A
        // manifest out of order only loses reuse: the walk skips what it cannot pair.)
        let mut previous_regions = previous
            .as_ref()
            .map_or(&[][..], |m| &m.regions[..])
            .iter()
            .peekable();
        let mut regions = Vec::with_capacity(upper.region_count());
        for (name, region) in upper.iter_shared() {
            let data: &[u8] = region;
            while previous_regions
                .next_if(|r| r.name.as_str() < name)
                .is_some()
            {}
            let same = previous_regions
                .peek()
                .copied()
                .filter(|r| r.name == name && r.len == data.len() as u64);
            if let Some(prev_region) = same {
                if policy.is_incremental() {
                    // Clean region: re-reference the previous generation's chunks
                    // without re-reading the data. A concurrent `prune_before` may
                    // have freed some of them between our catalog snapshot and now —
                    // if any bump misses, release the ones taken and re-chunk the
                    // region from its data instead of committing a manifest with
                    // dangling references.
                    if !upper.is_dirty(name) && self.bump_region_refs(prev_region) {
                        report.chunks_reused += prev_region.chunks.len();
                        report.regions_reused += 1;
                        regions.push(RegionManifest {
                            reused: true,
                            ..prev_region.clone()
                        });
                        continue;
                    }
                } else if self.bump_unchanged_windows(prev_region, region) {
                    // The chunk list hashing would produce, counted as hashing counts
                    // it: every chunk re-referenced, the region not reused.
                    report.chunks_reused += prev_region.chunks.len();
                    regions.push(RegionManifest {
                        reused: false,
                        ..prev_region.clone()
                    });
                    continue;
                }
            }

            // Dirty (or unproven) region: hash and chunk it; content addressing still
            // dedups any chunk the store has seen before, from any rank or
            // generation. Only the per-digest shard is locked, and never while
            // compressing, so concurrent rank writes proceed in parallel.
            report.digested_bytes += data.len();
            let mut chunks = Vec::with_capacity(data.len() / self.chunk_size + 1);
            let mut offset = 0;
            for_each_chunk(data, self.chunk_size, Digest::Xx64, |digest, piece| {
                let start = offset;
                offset += piece.len();
                let key = (digest, piece.len() as u32);
                if let Some((stored_len, form)) = self.bump_chunk_ref(key) {
                    report.chunks_reused += 1;
                    chunks.push(ChunkRef {
                        digest,
                        raw_len: piece.len() as u32,
                        stored_len,
                        form,
                    });
                    return;
                }
                // An LZ stream is the store's own bytes; a raw chunk (uncompressed
                // policy, or LZ did not shrink it) is a window of the region, no copy.
                let (stored, form) = match policy.compresses().then(|| lz_compress(piece)).flatten()
                {
                    Some(stream) => (Body::Owned(stream.into()), StoredForm::Lz),
                    None => (
                        Body::Window {
                            region: Arc::clone(region),
                            start,
                            len: piece.len(),
                        },
                        StoredForm::Raw,
                    ),
                };
                // Re-check under the shard lock: another rank may have stored the
                // same content while we were compressing. Whoever loses the race
                // re-references the winner's copy instead of inserting a duplicate.
                let now = self.tick();
                let mut shard = self.shard(digest).lock();
                if let Some(entry) = shard.chunks.get_mut(&key) {
                    entry.refs += 1;
                    entry.touch = now;
                    report.chunks_reused += 1;
                    chunks.push(ChunkRef {
                        digest,
                        raw_len: piece.len() as u32,
                        stored_len: entry.stored_len,
                        form: entry.form,
                    });
                    return;
                }
                if form.is_compressed() {
                    report.compression_saved_bytes += piece.len() - stored.len();
                }
                report.chunks_new += 1;
                report.written_bytes += stored.len();
                chunks.push(ChunkRef {
                    digest,
                    raw_len: piece.len() as u32,
                    stored_len: stored.len() as u32,
                    form,
                });
                self.tier
                    .hot_bytes
                    .fetch_add(stored.len(), Ordering::Relaxed);
                shard.chunks.insert(
                    key,
                    ChunkEntry {
                        refs: 1,
                        stored_len: stored.len() as u32,
                        payload: ChunkPayload::Hot(stored),
                        form,
                        touch: now,
                    },
                );
            });
            regions.push(RegionManifest {
                name: name.to_string(),
                len: data.len() as u64,
                chunks,
                reused: false,
            });
        }

        let manifest = Manifest {
            metadata: image.metadata.clone(),
            upper_epoch: upper.epoch(),
            policy,
            digest: Digest::Xx64,
            chunk_size: self.chunk_size as u32,
            regions,
        };
        let encoded = manifest.encode();
        report.manifest_bytes = encoded.len();
        report.written_bytes += encoded.len();
        let mut catalog = self.view.catalog.lock();
        if catalog.land(&mut self.view.pending.lock(), generation, rank) {
            let logical_bytes = report.logical_bytes as u64;
            let slot = Slot {
                manifest: encoded,
                logical_bytes,
            };
            catalog.slots.insert((generation, rank), slot);
        } else {
            // No shard lock is taken under the catalog lock.
            drop(catalog);
            self.release_chunks(&manifest);
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Read one rank's image back, whichever policy wrote it, verifying the manifest
    /// CRC and every chunk digest end to end. Its regions are read concurrently,
    /// exactly as a job's are (see [`read_job`](CheckpointStorage::read_job)).
    ///
    /// A generation still pending (an asynchronous flush in flight) is refused: a
    /// half-flushed generation must never be observed, even piecewise.
    ///
    /// Every failure is an [`MpiError::Checkpoint`] prefixed with the generation and
    /// rank it came from, and with the region when one region failed, so a failed
    /// job read names the torn slot.
    pub fn read(&self, generation: u64, rank: Rank) -> MpiResult<CheckpointImage> {
        self.read_generation(generation, Some(rank..rank.saturating_add(1)))?
            .pop()
            .ok_or_else(|| MpiError::Checkpoint(format!("generation {generation}: {EMPTY_WORLD}")))
    }

    /// Read the images of `ranks` of `generation` (with `None`, of the generation's
    /// own rank set, which must be a contiguous `0..n` whose every image records a
    /// world of `n` ranks), in rank order. The one reader behind
    /// [`read`](CheckpointStorage::read), [`read_job`](CheckpointStorage::read_job)
    /// and the `latest_valid_*` lookups; its two phases are documented on `read_job`.
    fn read_generation(
        &self,
        generation: u64,
        ranks: Option<Range<Rank>>,
    ) -> MpiResult<Vec<CheckpointImage>> {
        // Phase 1, the manifest pass, on the calling thread: everything but the chunks.
        if self.is_pending(generation) {
            let rank = ranks.as_ref().map_or(0, |ranks| ranks.start);
            return Err(MpiError::Checkpoint(format!(
                "generation {generation}, rank {rank}: pending (its asynchronous flush has not \
                 committed); refusing to read a half-flushed checkpoint"
            )));
        }
        // One catalog snapshot for every slot, copied out so that the decodes below run
        // with the catalog unlocked.
        let mut manifests: BTreeMap<Rank, Vec<u8>> = {
            let span = ranks.clone().unwrap_or(0..Rank::MAX);
            self.view
                .catalog
                .lock()
                .slots
                .range((generation, span.start)..(generation, span.end))
                .map(|(&(_, rank), slot)| (rank, slot.manifest.clone()))
                .collect()
        };
        let own_size = ranks.is_none();
        // A set with a gap misses one of 0..=its highest rank, and fails below.
        let ranks = ranks.unwrap_or_else(|| 0..manifests.keys().max().map_or(0, |&rank| rank + 1));
        if ranks.is_empty() {
            return Err(MpiError::Checkpoint(format!(
                "generation {generation}: {EMPTY_WORLD}"
            )));
        }
        let world = ranks.len();
        // Collected in rank order, so the first error is the lowest failing rank's.
        let slots = ranks
            .clone()
            .map(|rank| {
                let in_slot = |error| slot_error(generation, rank, None, error);
                let bytes = manifests
                    .remove(&rank)
                    .ok_or_else(|| in_slot(MpiError::Checkpoint("no checkpoint".into())))?;
                let manifest = Manifest::decode(&bytes).map_err(in_slot)?;
                // A standalone checkpoint is never announced as pending, so a job whose
                // tail ranks died before writing leaves a shorter rank set that looks
                // committed; its images still record the whole world.
                if own_size && manifest.metadata.world_size != world {
                    return Err(in_slot(MpiError::Checkpoint(format!(
                        "records a world of {} ranks, but the generation holds {world}",
                        manifest.metadata.world_size
                    ))));
                }
                Ok(manifest)
            })
            .collect::<MpiResult<Vec<_>>>()?;

        // Phase 2, the region pass: one unit per region of every slot, ordered by
        // (rank, region).
        let units: Vec<(Rank, &RegionManifest, Digest)> = ranks
            .zip(&slots)
            .flat_map(|(rank, manifest)| {
                manifest
                    .regions
                    .iter()
                    .map(move |region| (rank, region, manifest.digest))
            })
            .collect();
        let run = |&(rank, region, digest): &(Rank, &RegionManifest, Digest)| {
            catch_unwind(AssertUnwindSafe(|| self.read_region(digest, region)))
                .unwrap_or_else(|_| Err(MpiError::Checkpoint("reading panicked".into())))
                .map_err(|error| slot_error(generation, rank, Some(&region.name), error))
        };
        let readers = if units.len() < 2 {
            1
        } else {
            reader_threads().min(units.len())
        };
        // Reader k reads the k-th of `readers` contiguous runs of units, in order. A
        // reader allocates the regions it reads in its own allocator arena, and each
        // arena keeps its high-water mark, so the split must not vary from read to
        // read: units pulled from a shared counter instead measured +20 MiB of peak
        // RSS over repeated reads of two 32 MiB ranks.
        //
        // `first_failure` is relaxed: the pieces themselves are handed back through the
        // joins. It only falls, so a unit is skipped only when a lower unit has already
        // failed — every unit up to the lowest failure is read.
        let first_failure = AtomicUsize::new(units.len());
        let reader = |k: usize| {
            let span = k * units.len() / readers..(k + 1) * units.len() / readers;
            let mut read = Vec::new();
            for (index, unit) in span.clone().zip(&units[span]) {
                if index >= first_failure.load(Ordering::Relaxed) {
                    break;
                }
                let piece = run(unit);
                if piece.is_err() {
                    first_failure.fetch_min(index, Ordering::Relaxed);
                }
                read.push((index, piece));
            }
            read
        };
        // Every handle is joined before any result is looked at: a panicked reader left
        // unjoined would make the scope itself panic.
        let (mut read, joined) = std::thread::scope(|scope| {
            let reader = &reader;
            let spawned: Vec<_> = (1..readers)
                .map(|k| scope.spawn(move || reader(k)))
                .collect();
            let read = reader(0);
            let joined: Vec<_> = spawned.into_iter().map(|handle| handle.join()).collect();
            (read, joined)
        });
        for batch in joined {
            read.extend(batch.map_err(|_| {
                MpiError::Checkpoint(format!("a reader of generation {generation} panicked"))
            })?);
        }
        // Units 0..=lowest failure are all present, so the first error in unit order
        // is the lowest failing unit's; without a failure every unit is present.
        read.sort_unstable_by_key(|(index, _)| *index);
        let mut pieces = read
            .into_iter()
            .map(|(_, piece)| piece)
            .collect::<MpiResult<Vec<_>>>()?
            .into_iter();
        // Each slot takes its own units' pieces, in the order the units were queued.
        slots
            .into_iter()
            .map(|manifest| {
                let mut upper = UpperHalfSpace::new();
                for region in manifest.regions {
                    let data = pieces.next().ok_or_else(|| {
                        MpiError::Checkpoint(format!(
                            "generation {generation}: a read unit was lost"
                        ))
                    })?;
                    upper.map_region(region.name, data);
                }
                upper.set_epoch(manifest.upper_epoch);
                upper.mark_clean();
                Ok(CheckpointImage::new(manifest.metadata, upper))
            })
            .collect()
    }

    /// One unit of the region pass: reassemble a region of a chunked image from its
    /// chunks, checking each chunk's digest and length and then the region's length.
    ///
    /// Nothing is copied while the raw chunks read so far are windows of one stored
    /// buffer, each starting where the previous one ended from offset 0: the loop only
    /// extends that pending run. The first chunk that breaks it (an LZ stream, a
    /// promoted cold chunk, an owned or corrupted copy, a window of another buffer or
    /// at another offset) copies the run into a fresh buffer, and every chunk after is
    /// appended to it. A run that still tiles its whole buffer at the end, which is
    /// exactly the region's length, *is* the region: it is handed back with a
    /// refcount bump, and the space it is mapped into copies it on its first write.
    fn read_region(&self, digest: Digest, region: &RegionManifest) -> MpiResult<Arc<Vec<u8>>> {
        // Allocated only when the first chunk is copied.
        let mut data = Vec::new();
        let mut run: Option<(Arc<Vec<u8>>, usize)> = None;
        for (index, chunk) in region.chunks.iter().enumerate() {
            self.tier.chunk_reads.fetch_add(1, Ordering::Relaxed);
            let now = self.tick();
            // Hot chunks are served straight from the shard; a cold chunk is fetched
            // from its spill file (outside the shard lock), CRC-verified by the tier,
            // and promoted back into memory.
            let hot = {
                let mut shard = self.shard(chunk.digest).lock();
                let entry = shard.chunks.get_mut(&chunk.key()).ok_or_else(|| {
                    MpiError::Checkpoint(format!(
                        "chunk {:#018x} (len {}) is missing from the store",
                        chunk.digest, chunk.raw_len
                    ))
                })?;
                entry.touch = now;
                match &entry.payload {
                    // A body clone is a refcount bump on the stored allocation, not a
                    // copy — the hot read path shares.
                    ChunkPayload::Hot(stored) => Some((stored.clone(), entry.form)),
                    ChunkPayload::Cold => None,
                }
            };
            let (stored, form) = match hot {
                Some(hot) => hot,
                None => {
                    let (stored, form) = self.promote_chunk(chunk)?;
                    (Body::Owned(stored), form)
                }
            };
            let check = |raw: &[u8]| {
                if raw.len() != chunk.raw_len as usize || digest.hash(raw) != chunk.digest {
                    return Err(MpiError::Checkpoint(format!(
                        "chunk {:#018x} failed digest validation",
                        chunk.digest
                    )));
                }
                Ok(())
            };
            // Decode by the manifest's per-chunk record. A compressed chunk is decoded
            // straight onto the region's tail and digested there: no buffer per
            // chunk, no second copy. A raw one is digested where it is stored, then
            // extends the run or is appended.
            if form.is_compressed() {
                copy_run(&mut data, run.take(), region.len);
                let chunk_start = data.len();
                decode_chunk_onto(form, &stored, chunk.raw_len as usize, &mut data)?;
                check(&data[chunk_start..])?;
                continue;
            }
            check(&stored)?;
            let window = match &stored {
                Body::Window { region, start, len } => Some((region, *start, *len)),
                Body::Owned(_) => None,
            };
            run = match (run, window) {
                (None, Some((buffer, 0, len))) if index == 0 => Some((Arc::clone(buffer), len)),
                (Some((buffer, end)), Some((window, start, len)))
                    if Arc::ptr_eq(&buffer, window) && start == end =>
                {
                    Some((buffer, end + len))
                }
                (run, _) => {
                    copy_run(&mut data, run, region.len);
                    data.extend_from_slice(&stored);
                    None
                }
            };
        }
        match run {
            Some((buffer, end)) if end == buffer.len() && end == region.len as usize => {
                return Ok(buffer);
            }
            run => copy_run(&mut data, run, region.len),
        }
        if data.len() != region.len as usize {
            return Err(MpiError::Checkpoint(format!(
                "reassembled to {} bytes, manifest says {}",
                data.len(),
                region.len
            )));
        }
        Ok(Arc::new(data))
    }

    /// Fetch a cold chunk's stored form from the spill file (the tier re-validates
    /// its CRC-32 frame) and promote it back into the in-memory shard. Returns the
    /// stored bytes and their form for the caller's decode. The promoted entry and
    /// the returned buffer share one allocation.
    fn promote_chunk(&self, chunk: &ChunkRef) -> MpiResult<(PayloadBuf, StoredForm)> {
        let cold = self.tier.cold.as_ref().ok_or_else(|| {
            MpiError::Checkpoint(format!(
                "chunk {:#018x} is marked cold but no cold tier is attached",
                chunk.digest
            ))
        })?;
        let stored: PayloadBuf = cold.fetch(chunk.key())?.into();
        if stored.len() != chunk.stored_len as usize {
            return Err(MpiError::Checkpoint(format!(
                "cold chunk {:#018x} promoted to {} bytes, manifest says {}",
                chunk.digest,
                stored.len(),
                chunk.stored_len
            )));
        }
        let mut shard = self.shard(chunk.digest).lock();
        let form = match shard.chunks.get_mut(&chunk.key()) {
            Some(entry) => {
                if matches!(entry.payload, ChunkPayload::Cold) {
                    entry.payload = ChunkPayload::Hot(Body::Owned(stored.clone()));
                    self.tier
                        .hot_bytes
                        .fetch_add(stored.len(), Ordering::Relaxed);
                }
                entry.form
            }
            // The entry was pruned while we were fetching; serve this read from the
            // file's content anyway (the digest check downstream still guards it).
            None => chunk.form,
        };
        self.tier.cold_hits.fetch_add(1, Ordering::Relaxed);
        Ok((stored, form))
    }

    /// Whether a checkpoint exists (valid or not) for `(generation, rank)`.
    pub fn contains(&self, generation: u64, rank: Rank) -> bool {
        self.view
            .catalog
            .lock()
            .slots
            .contains_key(&(generation, rank))
    }

    /// The encoded manifest of `(generation, rank)`, byte for byte as stored (every
    /// read decodes and CRC-checks these bytes), if the slot exists.
    pub fn encoded_manifest(&self, generation: u64, rank: Rank) -> Option<Vec<u8>> {
        self.view
            .catalog
            .lock()
            .slots
            .get(&(generation, rank))
            .map(|slot| slot.manifest.clone())
    }

    /// The newest **committed** generation, if any: the highest catalogued generation
    /// that is not pending. Walks the catalog's keys from the top without
    /// allocating, so it is cheap enough to poll while a flush is outstanding.
    pub fn newest_committed(&self) -> Option<u64> {
        let catalog = self.view.catalog.lock();
        let pending = self.view.pending.lock();
        catalog
            .slots
            .keys()
            .rev()
            .map(|&(generation, _)| generation)
            .find(|generation| !pending.contains_key(generation))
    }

    /// The first generation number nothing in this store uses: one past the highest
    /// generation that holds a slot or is pending, or 0 for an empty store. A fresh
    /// world launched over a store that already holds generations numbers its first
    /// checkpoint here, so it never rewrites one of them.
    pub fn next_generation(&self) -> u64 {
        let catalog = self.view.catalog.lock();
        let pending = self.view.pending.lock();
        let catalogued = catalog.slots.keys().next_back().map(|&(g, _)| g);
        let announced = pending.keys().next_back().copied();
        catalogued.max(announced).map_or(0, |highest| highest + 1)
    }

    /// Drop every committed generation newer than `generation` — its slots and its
    /// resume record — and return them ascending. A restart calls this once it has
    /// restored `generation`: anything newer failed validation, and left in place it
    /// would stay the newest committed generation, the one
    /// [`prune_before`](CheckpointStorage::prune_before) protects, while the
    /// generation actually restored could be pruned. Pending generations are
    /// [`abort_pending`](CheckpointStorage::abort_pending)'s.
    pub fn drop_generations_after(&self, generation: u64) -> Vec<u64> {
        let slots: Vec<(u64, Rank)> = {
            let catalog = self.view.catalog.lock();
            let pending = self.view.pending.lock();
            catalog
                .slots
                .range((Excluded((generation, Rank::MAX)), Unbounded))
                .map(|(&slot, _)| slot)
                .filter(|(newer, _)| !pending.contains_key(newer))
                .collect()
        };
        for &(newer, rank) in &slots {
            self.release_slot(newer, rank);
        }
        let mut dropped: Vec<u64> = slots.into_iter().map(|(newer, _)| newer).collect();
        dropped.dedup();
        dropped
    }

    /// All **committed** generations with at least one checkpoint, ascending.
    /// Generations whose asynchronous flush is still pending are excluded — they do
    /// not exist yet as far as readers (and restart fallback) are concerned.
    pub fn generations(&self) -> Vec<u64> {
        self.view
            .committed_sizes()
            .into_iter()
            .map(|(generation, _)| generation)
            .collect()
    }

    /// The ranks holding a checkpoint in `generation`, ascending (used by tests that
    /// assert a committed generation is complete for the whole world).
    pub fn ranks_in_generation(&self, generation: u64) -> Vec<Rank> {
        self.view
            .catalog
            .lock()
            .slots
            .range((generation, Rank::MIN)..=(generation, Rank::MAX))
            .map(|((_, r), _)| *r)
            .collect()
    }

    /// The newest generation for which **every** rank of a `world_size` job reads back
    /// and validates end to end, together with the validated images in rank order.
    /// Generations with corrupt or missing pieces are skipped — this is the job-level
    /// fallback restart relies on. Returning the images means the validation decode is
    /// also the restart decode: nothing is reassembled twice.
    ///
    /// Each candidate generation is one [`read_job`](CheckpointStorage::read_job): a
    /// torn manifest rejects it before any chunk is read, and it is accepted only once
    /// every unit of its region pass validates, so every rank restores from one agreed
    /// generation, never a mix. An empty world (`world_size == 0`) has no checkpoint.
    pub fn latest_valid_images(&self, world_size: usize) -> MpiResult<(u64, Vec<CheckpointImage>)> {
        if world_size == 0 {
            return Err(MpiError::Checkpoint(EMPTY_WORLD.into()));
        }
        self.newest_valid(Some(world_size)).ok_or_else(|| {
            MpiError::Checkpoint(format!(
                "no complete, valid checkpoint generation for a {world_size}-rank job"
            ))
        })
    }

    /// The newest generation that validates end to end at **its own** recorded world
    /// size — whatever that size is — together with the validated images in rank
    /// order. A generation missing any rank of the world its images record is
    /// skipped. This is the elastic-restart entry point: the caller learns the
    /// checkpointed rank count from the returned images and maps it onto the new
    /// world, instead of asserting a size up front.
    ///
    /// The generation's rank set must be a contiguous `0..n`, and every manifest must
    /// record a world of `n` ranks: both are checked in the manifest pass, before any
    /// chunk is read. Images are read and the fallback is job-level, exactly as in
    /// [`latest_valid_images`](CheckpointStorage::latest_valid_images).
    pub fn latest_valid_images_any_size(&self) -> MpiResult<(u64, Vec<CheckpointImage>)> {
        self.newest_valid(None).ok_or_else(|| {
            MpiError::Checkpoint(
                "no complete, valid checkpoint generation at any world size".into(),
            )
        })
    }

    /// The newest generation for which **every** rank of a `world_size` job validates
    /// end to end (see [`latest_valid_images`](CheckpointStorage::latest_valid_images)).
    /// A generation with a torn or missing manifest is rejected by the manifest pass,
    /// without reading a chunk; every other candidate is read in full, then dropped.
    pub fn latest_valid_generation(&self, world_size: usize) -> MpiResult<u64> {
        self.latest_valid_images(world_size)
            .map(|(generation, _)| generation)
    }

    /// Walk committed generations newest first and return the first whose every rank
    /// reads back and validates, with its images. `world_size: None` takes each
    /// generation's own rank set (see `read_generation`).
    fn newest_valid(&self, world_size: Option<usize>) -> Option<(u64, Vec<CheckpointImage>)> {
        let ranks = world_size.map(|world_size| 0..world_size as Rank);
        self.generations().into_iter().rev().find_map(|generation| {
            let images = self.read_generation(generation, ranks.clone()).ok()?;
            Some((generation, images))
        })
    }

    /// Read the full job's images for one generation, in rank order, or return the
    /// error of the lowest failing rank. An empty world (`world_size == 0`) has no
    /// checkpoint and is an error.
    ///
    /// Every read runs one pool of region work in two phases:
    ///
    /// 1. **Manifest pass**, on the calling thread: the pending check, one catalog
    ///    snapshot of every slot, and the decode and CRC check of every manifest. A
    ///    torn or missing manifest rejects the generation before any chunk is read.
    /// 2. **Region pass**: every region of every slot is one unit in a queue ordered
    ///    by (rank, region). min(cores, units)
    ///    readers — the calling thread is one of them — each read one contiguous run
    ///    of it, so a one-rank job still reads on every core and a wide job never
    ///    means one thread per rank. The images are then assembled in rank order.
    ///
    /// The generation is accepted only when every unit validates. The error returned
    /// is the lowest rank's manifest error if the manifest pass failed; otherwise the
    /// lowest failing unit's — the lowest rank's, and within it the first failing
    /// region in manifest order — whatever order the readers finish in. A unit that
    /// panics fails with an [`MpiError::Checkpoint`] naming its slot and region.
    pub fn read_job(&self, generation: u64, world_size: usize) -> MpiResult<Vec<CheckpointImage>> {
        self.read_generation(generation, Some(0..world_size as Rank))
    }

    // ------------------------------------------------------------------
    // GC and occupancy
    // ------------------------------------------------------------------

    /// Drop checkpoints from generations older than `keep_from`, releasing chunk
    /// references and freeing chunks nothing references any more.
    ///
    /// Two classes of generation are **never** pruned, whatever the cutoff says:
    ///
    /// * the newest committed generation — deleting it could leave
    ///   `restart_job_from_storage` with nothing to fall back to (the cutoff may be
    ///   arbitrarily aggressive, e.g. computed from a generation counter that ran
    ///   ahead of the commits);
    /// * any pending generation — its flush is mid-flight, and deleting chunks under
    ///   a concurrent writer would tear the generation it is about to commit.
    ///
    /// The returned [`PruneReport`] says exactly which generations were dropped and
    /// which were retained despite being older than the cutoff.
    pub fn prune_before(&self, keep_from: u64) -> PruneReport {
        let mut report = PruneReport::default();
        let doomed: Vec<(u64, Rank)> = {
            let catalog = self.view.catalog.lock();
            // The pending snapshot is taken *while the catalog is held*: any
            // catalogued slot of an async generation implies `begin_generation`
            // already ran, so a half-flushed generation can never be mistaken for
            // the newest committed one (a stale pre-catalog snapshot could miss a
            // generation that began and landed its first slot in between, stripping
            // protection from the real restart point). Lock order catalog → pending
            // is safe: no other path acquires the catalog while holding pending.
            let pending: BTreeSet<u64> = self.view.pending.lock().keys().copied().collect();
            let all: BTreeSet<u64> = catalog.slots.keys().map(|(g, _)| *g).collect();
            let newest_committed = all.iter().rev().find(|g| !pending.contains(g)).copied();
            let protected = |generation: u64| {
                pending.contains(&generation) || Some(generation) == newest_committed
            };
            for &generation in all.iter().filter(|g| **g < keep_from) {
                if protected(generation) {
                    report.retained.push(generation);
                } else {
                    report.pruned.push(generation);
                }
            }
            catalog
                .slots
                .keys()
                .filter(|(generation, _)| *generation < keep_from && !protected(*generation))
                .copied()
                .collect()
        };
        for (generation, rank) in doomed {
            report.logical_freed_bytes += self.release_slot(generation, rank);
        }

        let mut cold_doomed: Vec<(u64, u32)> = Vec::new();
        for shard in self.shards.iter() {
            shard.lock().chunks.retain(|key, entry| {
                if entry.refs == 0 {
                    report.freed_bytes += entry.stored_len as usize;
                    match entry.payload {
                        ChunkPayload::Hot(_) => self.sub_hot(entry.stored_len as usize),
                        ChunkPayload::Cold => cold_doomed.push(*key),
                    }
                    false
                } else {
                    true
                }
            });
        }
        if let Some(cold) = &self.tier.cold {
            for key in cold_doomed {
                cold.discard(key);
            }
        }
        report
    }

    /// Demote least-recently-referenced chunks to the cold tier until the hot set is
    /// at most `hot_target_bytes`, or until every chunk is cold. A no-op (beyond
    /// reporting current occupancy) when no cold tier is attached or the hot set is
    /// already within target. Demotion is transparent to readers: a cold chunk is
    /// fetched, CRC-revalidated and promoted on the next
    /// [`read`](CheckpointStorage::read) that needs it.
    pub fn spill_over(&self, hot_target_bytes: usize) -> SpillReport {
        let mut report = SpillReport {
            hot_bytes: self.hot_bytes(),
            ..SpillReport::default()
        };
        let Some(cold) = self.tier.cold.as_ref() else {
            return report;
        };
        if report.hot_bytes <= hot_target_bytes {
            return report;
        }

        // Rank hot chunks oldest-touch first. The snapshot is advisory: each
        // candidate is re-checked under its shard lock before demotion.
        let mut candidates: Vec<(u64, (u64, u32))> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for (key, entry) in shard.chunks.iter() {
                if matches!(entry.payload, ChunkPayload::Hot(_)) {
                    candidates.push((entry.touch, *key));
                }
            }
        }
        candidates.sort_unstable();

        for (_, key) in candidates {
            if self.hot_bytes() <= hot_target_bytes {
                break;
            }
            // Copy the payload out under the lock, write the spill file unlocked
            // (file IO must not block the shard), then flip the entry to cold only
            // if it is still hot — a concurrent prune or spill may have beaten us.
            let stored = {
                let shard = self.shard(key.0).lock();
                match shard.chunks.get(&key).map(|entry| &entry.payload) {
                    Some(ChunkPayload::Hot(bytes)) => bytes.clone(),
                    _ => continue,
                }
            };
            if cold.spill(key, &stored).is_err() {
                // Disk trouble: stop demoting, keep serving from memory.
                break;
            }
            let mut shard = self.shard(key.0).lock();
            match shard.chunks.get_mut(&key) {
                Some(entry) if matches!(entry.payload, ChunkPayload::Hot(_)) => {
                    entry.payload = ChunkPayload::Cold;
                    self.sub_hot(stored.len());
                    report.spilled_chunks += 1;
                    report.spilled_bytes += stored.len();
                }
                Some(_) => {}
                // Pruned while we spilled: the file is unreachable garbage, drop it.
                None => cold.discard(key),
            }
        }
        self.tier
            .spilled_chunks
            .fetch_add(report.spilled_chunks as u64, Ordering::Relaxed);
        self.tier
            .spilled_bytes
            .fetch_add(report.spilled_bytes as u64, Ordering::Relaxed);
        report.hot_bytes = self.hot_bytes();
        report
    }

    /// Aggregate occupancy, including per-shard breakdowns and cold-tier counters.
    ///
    /// On a tenant view the chunk/shard numbers describe the **shared** chunk space
    /// (they are the same from every view), while the manifest numbers describe
    /// this view's own catalog namespace.
    pub fn stats(&self) -> StorageStats {
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let shard = shard.lock();
            let mut occupancy = ShardStats {
                chunk_count: shard.chunks.len(),
                ..ShardStats::default()
            };
            for entry in shard.chunks.values() {
                occupancy.stored_bytes += entry.stored_len as usize;
                occupancy.refcount_total += entry.refs;
                match entry.payload {
                    ChunkPayload::Hot(_) => occupancy.hot_bytes += entry.stored_len as usize,
                    ChunkPayload::Cold => occupancy.cold_chunks += 1,
                }
            }
            shards.push(occupancy);
        }
        let mut stats = StorageStats {
            chunk_count: shards.iter().map(|s| s.chunk_count).sum(),
            chunk_bytes: shards.iter().map(|s| s.stored_bytes).sum(),
            hot_bytes: shards.iter().map(|s| s.hot_bytes).sum(),
            cold_chunk_count: shards.iter().map(|s| s.cold_chunks).sum(),
            cold_bytes: shards.iter().map(|s| s.stored_bytes - s.hot_bytes).sum(),
            refcount_total: shards.iter().map(|s| s.refcount_total).sum(),
            cold_hits: self.tier.cold_hits.load(Ordering::Relaxed),
            chunk_reads: self.tier.chunk_reads.load(Ordering::Relaxed),
            spilled_chunks: self.tier.spilled_chunks.load(Ordering::Relaxed),
            spilled_bytes: self.tier.spilled_bytes.load(Ordering::Relaxed),
            shards,
            manifest_count: 0,
            manifest_bytes: 0,
        };
        let catalog = self.view.catalog.lock();
        stats.manifest_count = catalog.slots.len();
        stats.manifest_bytes = catalog.slots.values().map(|slot| slot.manifest.len()).sum();
        stats
    }

    // ------------------------------------------------------------------
    // Fault injection (integrity testing)
    // ------------------------------------------------------------------

    /// Flip one byte of a stored chunk that is referenced by `(generation, rank)` and
    /// by **no other generation** — corrupting exactly one generation's data, the way
    /// a torn write during that checkpoint would. Returns an error if the generation
    /// has no such private chunk.
    pub fn corrupt_fresh_chunk(&self, generation: u64, rank: Rank) -> MpiResult<()> {
        let (target_bytes, other_bytes) = {
            let catalog = self.view.catalog.lock();
            let target = catalog
                .slots
                .get(&(generation, rank))
                .map(|slot| slot.manifest.clone())
                .ok_or_else(|| {
                    MpiError::Checkpoint(format!(
                        "no checkpoint for generation {generation}, rank {rank}"
                    ))
                })?;
            let others: Vec<Vec<u8>> = catalog
                .slots
                .iter()
                .filter(|(key, _)| **key != (generation, rank))
                .map(|(_, slot)| slot.manifest.clone())
                .collect();
            (target, others)
        };
        let target = Manifest::decode(&target_bytes)?;
        let shared: BTreeSet<(u64, u32)> = other_bytes
            .iter()
            .filter_map(|bytes| Manifest::decode(bytes).ok())
            .flat_map(|manifest| manifest.chunk_refs().map(|c| c.key()).collect::<Vec<_>>())
            .collect();
        let private = target
            .chunk_refs()
            .map(|c| c.key())
            .find(|key| !shared.contains(key))
            .ok_or_else(|| {
                MpiError::Checkpoint(format!(
                    "generation {generation}, rank {rank} shares every chunk with other \
                     generations; nothing private to corrupt"
                ))
            })?;
        let mut shard = self.shard(private.0).lock();
        let entry = shard
            .chunks
            .get_mut(&private)
            .ok_or_else(|| MpiError::Checkpoint("private chunk vanished".into()))?;
        match &mut entry.payload {
            ChunkPayload::Hot(stored) => {
                // The stored buffer is immutable (readers may hold refcounts on it,
                // and a window's region is the live upper half's); corruption
                // rebuilds the entry around a flipped copy, exactly like a torn write
                // replacing the on-disk bytes.
                let mut flipped = stored[..].to_vec();
                let position = flipped.len() / 2;
                flipped[position] ^= 0x01;
                *stored = Body::Owned(flipped.into());
                Ok(())
            }
            // The private chunk was demoted: corrupt its spill file instead, which
            // exercises the CRC re-validation on promote.
            ChunkPayload::Cold => self
                .tier
                .cold
                .as_ref()
                .ok_or_else(|| MpiError::Checkpoint("cold chunk without a cold tier".into()))?
                .corrupt_spilled(private),
        }
    }

    /// Flip one byte of the stored manifest for `(generation, rank)`.
    pub fn corrupt_manifest(&self, generation: u64, rank: Rank) -> MpiResult<()> {
        let mut catalog = self.view.catalog.lock();
        let bytes = &mut catalog
            .slots
            .get_mut(&(generation, rank))
            .ok_or_else(|| {
                MpiError::Checkpoint(format!(
                    "no checkpoint for generation {generation}, rank {rank}"
                ))
            })?
            .manifest;
        let position = bytes.len() / 2;
        bytes[position] ^= 0x01;
        Ok(())
    }
}
