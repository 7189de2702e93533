//! The multi-tenant checkpoint service: one shared chunk space, many jobs.
//!
//! A [`CkptService`] owns a single sharded [`CheckpointStorage`] chunk space, a
//! shared [`FlusherPool`], and (optionally) a cold tier. Jobs register as tenants
//! and receive a [`ServiceHandle`]; each tenant writes generations into its own
//! catalog namespace (a [`CheckpointStorage::tenant_view`]) while identical chunks
//! written by different tenants are stored once. The service meters every landed
//! write per tenant, enforces quotas by reclaiming each tenant's oldest committed
//! generations, applies admission control to async submissions, and demotes the
//! least-recently-referenced chunks to the cold tier when the hot set outgrows its
//! target.
//! Every job is a tenant: a job without a shared service is the
//! [sole tenant](CkptService::sole_tenant) of a private one from construction. A
//! shared service starts its pool when a tenant registers; a private one only when
//! its job flushes asynchronously, so a synchronous job runs no flusher thread.
//! The handles own the pool, and no flush callback does, so dropping the last
//! handle drains the pool on the dropping thread.

use crate::gc::{reclaim_cutoff, TenantQuota};
use ckpt_store::{
    CheckpointStorage, ColdTier, FlushHandle, FlusherPool, StoragePolicy, StorageStats, StoreReport,
};
use mpi_model::error::MpiResult;
use mpi_model::types::Rank;
use parking_lot::{Condvar, Mutex};
use split_proc::image::CheckpointImage;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifies one tenant of a [`CkptService`].
pub type TenantId = u64;

/// Configuration of a [`CkptService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the shared flusher pool (0 = one per core, capped at 4).
    pub flusher_workers: usize,
    /// Total async submissions admitted in flight across all tenants; beyond it the
    /// pool counts as saturated and submissions are rejected with
    /// [`AdmissionError::PoolSaturated`].
    pub max_in_flight_total: usize,
    /// Quota applied to tenants registered without an explicit one.
    pub default_quota: TenantQuota,
    /// When set, attach a tempdir-rooted cold tier and demote least-recently-
    /// referenced chunks whenever the in-memory hot set exceeds this many bytes.
    pub hot_bytes_target: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            flusher_workers: 0,
            max_in_flight_total: 64,
            default_quota: TenantQuota::default(),
            hot_bytes_target: None,
        }
    }
}

/// Why an async submission was turned away. Both variants are retryable: the job
/// may resubmit later — or, as `JobRuntime` does, fall back to a synchronous write
/// so the checkpoint is never skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The shared flusher pool already carries the configured total in-flight load.
    PoolSaturated {
        /// Submissions in flight at rejection time.
        in_flight: usize,
        /// The configured total in-flight admission limit.
        limit: usize,
    },
    /// The submitting tenant has exhausted its own in-flight budget.
    TenantBudgetExhausted {
        /// The tenant that was turned away.
        tenant: TenantId,
        /// The tenant's submissions in flight at rejection time.
        in_flight: usize,
        /// The tenant's configured in-flight budget.
        budget: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::PoolSaturated { in_flight, limit } => write!(
                f,
                "shared flusher pool saturated ({in_flight} in flight, limit {limit}); retry \
                 or write synchronously"
            ),
            AdmissionError::TenantBudgetExhausted {
                tenant,
                in_flight,
                budget,
            } => write!(
                f,
                "tenant {tenant} exhausted its in-flight budget ({in_flight} of {budget}); \
                 retry or write synchronously"
            ),
        }
    }
}

/// A rejected async submission. The frozen image is handed back untouched so the
/// caller can retry or write it synchronously — admission control must never cost a
/// checkpoint, only defer *where* it is written.
pub struct RejectedSubmission {
    /// Why the submission was turned away.
    pub error: AdmissionError,
    /// The image the caller submitted, returned for the retry/fallback write.
    /// Boxed so the rejection path stays cheap relative to the success path.
    pub image: Box<CheckpointImage>,
}

impl std::fmt::Debug for RejectedSubmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RejectedSubmission")
            .field("error", &self.error)
            .field("generation", &self.image.metadata.generation)
            .field("rank", &self.image.metadata.rank)
            .finish()
    }
}

/// Per-tenant accounting, as reported by [`ServiceHandle::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant's id.
    pub tenant: TenantId,
    /// The tenant's registration name.
    pub name: String,
    /// Logical (uncompressed upper-half) bytes across all landed writes.
    pub logical_bytes_written: u64,
    /// Bytes that physically reached storage for this tenant's writes: new chunk
    /// payloads plus manifests. Chunks deduplicated against content already in the
    /// shared space — whoever wrote it first — cost this tenant nothing here.
    pub physical_bytes_written: u64,
    /// Chunks this tenant's writes newly stored.
    pub chunks_new: u64,
    /// Chunks this tenant's writes re-referenced from the shared space.
    pub chunks_reused: u64,
    /// Committed generations currently live in the tenant's namespace.
    pub committed_generations: usize,
    /// Logical bytes across the live committed generations (the quota axis).
    pub live_logical_bytes: u64,
    /// Generations reclaimed by quota GC over the tenant's lifetime.
    pub reclaimed_generations: u64,
    /// Physical bytes freed by quota GC (chunks whose refcount reached zero).
    pub reclaimed_physical_bytes: u64,
    /// Logical bytes released by quota GC.
    pub reclaimed_logical_bytes: u64,
    /// Async submissions rejected by admission control.
    pub rejected_submissions: u64,
    /// Rejected submissions that were written synchronously instead (the fallback
    /// path — every one of these is a checkpoint that was *not* skipped).
    pub sync_fallbacks: u64,
    /// Async submissions currently in flight.
    pub in_flight: usize,
}

impl TenantStats {
    /// `logical / physical` across this tenant's landed writes: how many times
    /// smaller its storage traffic was than its checkpoints' logical size, thanks
    /// to dedup (cross- and intra-tenant) and compression.
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes_written == 0 {
            f64::INFINITY
        } else {
            self.logical_bytes_written as f64 / self.physical_bytes_written as f64
        }
    }
}

/// Service-wide accounting, as reported by [`CkptService::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Per-tenant accounting, in registration order.
    pub tenants: Vec<TenantStats>,
    /// Logical bytes across every tenant's landed writes.
    pub(crate) total_logical_bytes: u64,
    /// Physical bytes across every tenant's landed writes.
    pub(crate) total_physical_bytes: u64,
    /// Async submissions currently in flight across all tenants.
    pub in_flight: usize,
    /// Occupancy of the shared chunk space (per-shard breakdown included).
    pub storage: StorageStats,
}

impl ServiceStats {
    /// `logical / physical` across all tenants — with identical-app tenants this
    /// exceeds what any tenant achieves alone, which is the cross-job dedup the
    /// service exists for.
    pub fn dedup_ratio(&self) -> f64 {
        if self.total_physical_bytes == 0 {
            f64::INFINITY
        } else {
            self.total_logical_bytes as f64 / self.total_physical_bytes as f64
        }
    }
}

/// Mutable per-tenant accounting, behind the tenant's own lock so one tenant's
/// quota enforcement never blocks another tenant's submissions.
#[derive(Default)]
struct TenantState {
    quota: TenantQuota,
    in_flight: usize,
    /// Logical bytes per (generation, rank) landed so far. Keyed per rank so a
    /// restarted job rewriting a generation replaces — not double-counts — it.
    /// Each quota check drops the generations that left the view.
    gen_logical: BTreeMap<u64, BTreeMap<Rank, u64>>,
    logical_bytes_written: u64,
    physical_bytes_written: u64,
    chunks_new: u64,
    chunks_reused: u64,
    reclaimed_generations: u64,
    reclaimed_physical_bytes: u64,
    reclaimed_logical_bytes: u64,
    rejected_submissions: u64,
    sync_fallbacks: u64,
}

impl TenantState {
    fn account(&mut self, report: &StoreReport) {
        self.logical_bytes_written += report.logical_bytes as u64;
        self.physical_bytes_written += report.written_bytes as u64;
        self.chunks_new += report.chunks_new as u64;
        self.chunks_reused += report.chunks_reused as u64;
        self.gen_logical
            .entry(report.generation)
            .or_default()
            .insert(report.rank, report.logical_bytes as u64);
    }
}

/// One registered tenant: its storage view plus its own lock and idle condvar.
struct TenantEntry {
    id: TenantId,
    name: String,
    view: CheckpointStorage,
    state: Mutex<TenantState>,
    /// Signalled whenever the tenant's in-flight count drops; `wait_idle` waits here.
    idle_cv: Condvar,
}

/// The service's accounting: what a flush callback holds. It does not own the
/// flusher pool, so a callback that drops the last reference to it never joins
/// the worker it runs on.
struct ServiceInner {
    base: CheckpointStorage,
    config: ServiceConfig,
    tenants: Mutex<BTreeMap<TenantId, Arc<TenantEntry>>>,
    next_tenant: AtomicU64,
    in_flight_total: AtomicUsize,
    /// At most one spill pass runs at a time; concurrent triggers are dropped (the
    /// running pass already drives the hot set to target).
    spilling: AtomicBool,
}

impl ServiceInner {
    /// Account one landed write — `sync_fallback` when it is a rejected
    /// submission written synchronously — then enforce the quota and the hot-set
    /// target.
    fn note_landed(&self, entry: &TenantEntry, report: &StoreReport, sync_fallback: bool) {
        {
            let mut state = entry.state.lock();
            state.account(report);
            if sync_fallback {
                state.sync_fallbacks += 1;
            }
        }
        self.enforce_quota(entry);
        self.maybe_spill();
    }

    /// Reclaim one tenant's oldest generations down to its quota. Only this
    /// tenant's generations are candidates; the chunk sweep frees only chunks no
    /// tenant references any more (reference counts are shared across the whole
    /// chunk space).
    fn enforce_quota(&self, entry: &TenantEntry) {
        let committed = entry.view.generations();
        let pending = entry.view.pending_generations();
        let cutoff = {
            let mut state = entry.state.lock();
            // A generation below the oldest committed one that is not pending is
            // gone from the view, whoever pruned it: its accounting goes too.
            if let Some(&oldest) = committed.first() {
                state
                    .gen_logical
                    .retain(|generation, _| *generation >= oldest || pending.contains(generation));
            }
            let generations: Vec<(u64, u64)> = committed
                .iter()
                .map(|g| {
                    let bytes = state
                        .gen_logical
                        .get(g)
                        .map(|ranks| ranks.values().sum())
                        .unwrap_or(0);
                    (*g, bytes)
                })
                .collect();
            reclaim_cutoff(&state.quota, &generations)
        };
        let Some(cutoff) = cutoff else { return };
        let report = entry.view.prune_before(cutoff);
        let mut state = entry.state.lock();
        for generation in &report.pruned {
            state.gen_logical.remove(generation);
        }
        state.reclaimed_generations += report.pruned.len() as u64;
        state.reclaimed_physical_bytes += report.freed_bytes as u64;
        state.reclaimed_logical_bytes += report.logical_freed_bytes as u64;
    }

    /// Demote cold chunks if the hot set outgrew its target (single-flight).
    fn maybe_spill(&self) {
        let Some(target) = self.config.hot_bytes_target else {
            return;
        };
        if self.base.hot_bytes() <= target {
            return;
        }
        if self
            .spilling
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.base.spill_over(target);
        self.spilling.store(false, Ordering::Release);
    }

    fn tenant_stats(&self, entry: &TenantEntry) -> TenantStats {
        let committed = entry.view.generations();
        let state = entry.state.lock();
        let live_logical_bytes = committed
            .iter()
            .filter_map(|g| state.gen_logical.get(g))
            .map(|ranks| ranks.values().sum::<u64>())
            .sum();
        TenantStats {
            tenant: entry.id,
            name: entry.name.clone(),
            logical_bytes_written: state.logical_bytes_written,
            physical_bytes_written: state.physical_bytes_written,
            chunks_new: state.chunks_new,
            chunks_reused: state.chunks_reused,
            committed_generations: committed.len(),
            live_logical_bytes,
            reclaimed_generations: state.reclaimed_generations,
            reclaimed_physical_bytes: state.reclaimed_physical_bytes,
            reclaimed_logical_bytes: state.reclaimed_logical_bytes,
            rejected_submissions: state.rejected_submissions,
            sync_fallbacks: state.sync_fallbacks,
            in_flight: state.in_flight,
        }
    }
}

/// The shared checkpoint service. Cheap to clone (all clones are the same service);
/// jobs register as tenants via [`CkptService::register_tenant`] and interact
/// through the returned [`ServiceHandle`].
#[derive(Clone)]
pub struct CkptService {
    inner: Arc<ServiceInner>,
    flusher: Arc<FlusherPool>,
}

impl std::fmt::Debug for CkptService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptService")
            .field("tenants", &self.inner.tenants.lock().len())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl CkptService {
    /// A service over a fresh chunk space. When `config.hot_bytes_target` is set,
    /// a tempdir-rooted cold tier is attached.
    pub fn new(config: ServiceConfig) -> MpiResult<Self> {
        let mut storage = CheckpointStorage::unmetered();
        if config.hot_bytes_target.is_some() {
            storage = storage.with_cold_tier(ColdTier::in_temp()?);
        }
        Ok(CkptService::with_storage(config, storage))
    }

    /// A service over a caller-built chunk space (cold tier, shard count and chunk
    /// size included). The storage must not be shared elsewhere: tenants are views
    /// of it.
    pub fn with_storage(config: ServiceConfig, storage: CheckpointStorage) -> Self {
        let workers = match config.flusher_workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            workers => workers,
        };
        CkptService {
            flusher: Arc::new(FlusherPool::new(workers)),
            inner: Arc::new(ServiceInner {
                base: storage,
                config,
                tenants: Mutex::new(BTreeMap::new()),
                next_tenant: AtomicU64::new(0),
                in_flight_total: AtomicUsize::new(0),
                spilling: AtomicBool::new(false),
            }),
        }
    }

    /// Register a tenant under the service's default quota.
    pub fn register_tenant(&self, name: &str) -> ServiceHandle {
        self.register_tenant_with(name, self.inner.config.default_quota)
    }

    /// Register a tenant with an explicit quota. The shared flusher pool starts
    /// here, on the registering thread, if it has not yet: the first submission
    /// comes from a rank thread, whose core binding the workers would inherit.
    pub fn register_tenant_with(&self, name: &str, quota: TenantQuota) -> ServiceHandle {
        self.flusher.start();
        self.register(name, quota, self.inner.base.tenant_view())
    }

    /// A private service whose one tenant writes `storage`'s own catalog rather
    /// than a view of it: how a job without a shared service checkpoints. The
    /// tenant has no quota and no in-flight budget of its own, so only the
    /// service-wide cap of [`ServiceConfig::default`] admits its submissions. The
    /// service is never started: it spawns no flusher thread until the tenant's
    /// first asynchronous submission.
    pub fn sole_tenant(storage: CheckpointStorage) -> ServiceHandle {
        let service = CkptService::with_storage(ServiceConfig::default(), storage.clone());
        service.register(
            "job",
            TenantQuota::default().with_max_in_flight(usize::MAX),
            storage,
        )
    }

    fn register(&self, name: &str, quota: TenantQuota, view: CheckpointStorage) -> ServiceHandle {
        let id = self.inner.next_tenant.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(TenantEntry {
            id,
            name: name.to_string(),
            view,
            state: Mutex::new(TenantState {
                quota,
                ..TenantState::default()
            }),
            idle_cv: Condvar::new(),
        });
        self.inner.tenants.lock().insert(id, Arc::clone(&entry));
        ServiceHandle {
            inner: Arc::clone(&self.inner),
            flusher: Arc::clone(&self.flusher),
            entry,
        }
    }

    /// The shared chunk space (useful for occupancy inspection and explicit
    /// [`spill_over`](CheckpointStorage::spill_over) in tests and benches).
    pub fn storage(&self) -> &CheckpointStorage {
        &self.inner.base
    }

    /// Async submissions currently in flight across all tenants.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight_total.load(Ordering::Relaxed)
    }

    /// Service-wide accounting: per-tenant stats plus shared-space occupancy.
    pub fn stats(&self) -> ServiceStats {
        let entries: Vec<Arc<TenantEntry>> = self.inner.tenants.lock().values().cloned().collect();
        let tenants: Vec<TenantStats> = entries
            .iter()
            .map(|entry| self.inner.tenant_stats(entry))
            .collect();
        ServiceStats {
            total_logical_bytes: tenants.iter().map(|t| t.logical_bytes_written).sum(),
            total_physical_bytes: tenants.iter().map(|t| t.physical_bytes_written).sum(),
            in_flight: self.in_flight(),
            storage: self.inner.base.stats(),
            tenants,
        }
    }
}

/// One tenant's handle on the shared service: submit checkpoints (with admission
/// control), fall back synchronously, wait for the tenant's own flushes, and read
/// the tenant's accounting. Cloning shares the registration.
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
    flusher: Arc<FlusherPool>,
    entry: Arc<TenantEntry>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("tenant", &self.entry.id)
            .field("name", &self.entry.name)
            .finish()
    }
}

impl ServiceHandle {
    /// This tenant's storage view: its own generations/manifests namespace over the
    /// shared chunk space. `JobRuntime` jobs attached to the service checkpoint into
    /// (and restart from) exactly this view.
    pub fn storage(&self) -> &CheckpointStorage {
        &self.entry.view
    }

    /// Start the shared flusher pool on the calling thread, if it has not started
    /// yet (see [`FlusherPool::start`]): what a job that is about to flush does
    /// before its rank threads submit.
    pub fn start_pool(&self) {
        self.flusher.start();
    }

    /// This tenant's quota.
    pub fn quota(&self) -> TenantQuota {
        self.entry.state.lock().quota
    }

    /// Submit one rank's frozen image for background writing through the shared
    /// pool, with a completion callback (runs on the worker thread after the write
    /// lands and is accounted, and before the tenant's in-flight slot is released).
    /// The callback must not hold a handle on this service: it is dropped on the
    /// worker thread, and dropping the last handle joins the workers.
    ///
    /// Admission control applies: when the shared pool is saturated or this tenant
    /// is out of in-flight budget, the submission is rejected with a typed,
    /// retryable error and the image is handed back — the caller decides whether to
    /// retry or write synchronously (see
    /// [`write_sync_fallback`](ServiceHandle::write_sync_fallback)); the checkpoint
    /// itself must never be skipped.
    pub fn submit_with(
        &self,
        policy: StoragePolicy,
        image: CheckpointImage,
        on_flushed: impl FnOnce(&StoreReport) + Send + 'static,
    ) -> Result<FlushHandle, RejectedSubmission> {
        let limit = self.inner.config.max_in_flight_total;
        {
            let mut state = self.entry.state.lock();
            let total = self.inner.in_flight_total.load(Ordering::Relaxed);
            if total >= limit {
                state.rejected_submissions += 1;
                return Err(RejectedSubmission {
                    error: AdmissionError::PoolSaturated {
                        in_flight: total,
                        limit,
                    },
                    image: Box::new(image),
                });
            }
            if state.in_flight >= state.quota.max_in_flight {
                state.rejected_submissions += 1;
                return Err(RejectedSubmission {
                    error: AdmissionError::TenantBudgetExhausted {
                        tenant: self.entry.id,
                        in_flight: state.in_flight,
                        budget: state.quota.max_in_flight,
                    },
                    image: Box::new(image),
                });
            }
            state.in_flight += 1;
            self.inner.in_flight_total.fetch_add(1, Ordering::Relaxed);
        }
        let admitted = Admitted {
            inner: Arc::clone(&self.inner),
            entry: Arc::clone(&self.entry),
        };
        Ok(self
            .flusher
            .submit_to(&self.entry.view, policy, image, move |report| {
                admitted.inner.note_landed(&admitted.entry, report, false);
                on_flushed(report);
            }))
    }

    /// [`submit_with`](ServiceHandle::submit_with) without a callback.
    pub fn submit(
        &self,
        policy: StoragePolicy,
        image: CheckpointImage,
    ) -> Result<FlushHandle, RejectedSubmission> {
        self.submit_with(policy, image, |_| {})
    }

    /// Write a rejected submission's image synchronously into the tenant's view —
    /// the admission-control fallback. Counted in
    /// [`TenantStats::sync_fallbacks`]; quota enforcement and spill checks run
    /// exactly as for a landed async write. The caller still owns the
    /// pending-generation accounting (`note_rank_flushed`), as the flusher worker
    /// would have.
    pub fn write_sync_fallback(
        &self,
        policy: StoragePolicy,
        image: &CheckpointImage,
    ) -> StoreReport {
        let report = self.entry.view.write_image(policy, image);
        self.inner.note_landed(&self.entry, &report, true);
        report
    }

    /// Account a write the job performed directly against
    /// [`storage`](ServiceHandle::storage) (the synchronous orchestrator path
    /// writes into the view itself and reports here afterwards). Quota enforcement
    /// and spill checks run on the spot.
    pub fn note_external_write(&self, report: &StoreReport) {
        self.inner.note_landed(&self.entry, report, false);
    }

    /// Block until **this tenant's** in-flight submissions have landed and their
    /// callbacks have run. Unlike draining the shared pool, this cannot be starved
    /// by other tenants' traffic — which is what a restarting job needs before
    /// aborting its pending generations.
    pub fn wait_idle(&self) {
        let mut state = self.entry.state.lock();
        while state.in_flight > 0 {
            self.entry.idle_cv.wait(&mut state);
        }
    }

    /// Run quota enforcement now (it also runs after every landed write).
    pub fn enforce_quota(&self) {
        self.inner.enforce_quota(&self.entry);
    }

    /// This tenant's accounting.
    pub fn stats(&self) -> TenantStats {
        self.inner.tenant_stats(&self.entry)
    }
}

/// One admitted submission's in-flight slot, carried by its flush callback and
/// released when that is dropped: after the submitter's callback has run, or while
/// unwinding from a write or callback that panicked.
struct Admitted {
    inner: Arc<ServiceInner>,
    entry: Arc<TenantEntry>,
}

impl Drop for Admitted {
    fn drop(&mut self) {
        let mut state = self.entry.state.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        self.inner.in_flight_total.fetch_sub(1, Ordering::Relaxed);
        self.entry.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use split_proc::address_space::UpperHalfSpace;
    use split_proc::image::ImageMetadata;

    /// A tenant without a quota whose generations are pruned through its own view
    /// keeps accounting for the live generations only, not one entry per
    /// generation it ever wrote.
    #[test]
    fn accounting_forgets_generations_pruned_through_the_view() {
        let service = CkptService::new(ServiceConfig::default()).unwrap();
        let tenant = service.register_tenant("pruned-by-hand");
        for generation in 0..8 {
            let mut upper = UpperHalfSpace::new();
            upper.map_region("app.state", vec![generation as u8; 4096]);
            let metadata = ImageMetadata {
                rank: 0,
                world_size: 1,
                generation,
                implementation: "mpich".into(),
            };
            let image = CheckpointImage::new(metadata, upper);
            let report = tenant
                .storage()
                .write_image(StoragePolicy::Incremental, &image);
            tenant.note_external_write(&report);
            tenant.storage().prune_before(generation);
        }
        tenant.enforce_quota();
        assert_eq!(tenant.storage().generations(), vec![7]);
        assert_eq!(tenant.entry.state.lock().gen_logical.len(), 1);
        assert_eq!(tenant.stats().live_logical_bytes, 4096);
    }
}
