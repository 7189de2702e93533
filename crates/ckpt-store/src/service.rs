//! Tenancy: every [`CheckpointStorage`] view is a tenant of its chunk space.
//!
//! A view's catalog carries its [`Tenant`], and every write meters itself into it
//! where it lands ([`CheckpointStorage::write_image`]), then runs the tenant's quota
//! GC and the space's spill check, whatever route wrote it. What every view of one
//! chunk space shares beside its tier state is the [`Space`]: the flusher pool, the
//! admission cap, the hot-set target and the service's tenant registry. The space
//! owns the pool and a queued flush holds a clone of its view, so the last handle on
//! a space can be dropped on a flusher worker, which the pool's drop then detaches
//! instead of joining. [`CkptService`] and [`ServiceHandle`] are one-field shells over a
//! view, kept for the repo benchmark and the tests.

use crate::gc::{reclaim_cutoff, TenantQuota};
use crate::store::View;
use crate::{
    CheckpointStorage, ColdTier, FlushHandle, FlusherPool, StoragePolicy, StorageStats, StoreReport,
};
use mpi_model::error::MpiResult;
use parking_lot::{Condvar, Mutex};
use split_proc::image::CheckpointImage;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifies one tenant of a chunk space.
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
    /// When set, attach a tempdir-rooted cold tier and demote least-recently-
    /// referenced chunks whenever the in-memory hot set exceeds this many bytes.
    pub hot_bytes_target: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            flusher_workers: 0,
            max_in_flight_total: 64,
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

/// Per-tenant accounting, as reported by [`CheckpointStorage::tenant_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Per-tenant accounting of the tenants registered through
    /// [`CkptService::register_tenant_with`], in registration order. The space's
    /// first view (the service's own [`storage`](CkptService::storage), tenant 0)
    /// and plain [`tenant_view`](CheckpointStorage::tenant_view)s are left out, and
    /// so are their writes from [`ServiceStats::dedup_ratio`].
    pub tenants: Vec<TenantStats>,
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
        let total = |bytes: fn(&TenantStats) -> u64| self.tenants.iter().map(bytes).sum::<u64>();
        match total(|t| t.physical_bytes_written) {
            0 => f64::INFINITY,
            physical => total(|t| t.logical_bytes_written) as f64 / physical as f64,
        }
    }
}

/// The tenant a view's catalog carries: who writes the view, under which quota,
/// and what its writes and submissions have cost so far.
pub(crate) struct Tenant {
    quota: TenantQuota,
    /// The tenant's accounting, behind its own lock so one tenant's quota
    /// enforcement never blocks another tenant's submissions. Its two live-set
    /// fields stay 0 here: the view's catalog records each slot's logical bytes.
    state: Mutex<TenantStats>,
    /// Signalled whenever the tenant's in-flight count drops; `wait_idle` waits here.
    idle: Condvar,
}

impl Tenant {
    pub(crate) fn new(tenant: TenantId, name: &str, quota: TenantQuota) -> Tenant {
        let name = name.to_string();
        Tenant {
            quota,
            state: Mutex::new(TenantStats {
                tenant,
                name,
                ..TenantStats::default()
            }),
            idle: Condvar::new(),
        }
    }

    /// The tenant's accounting, given its view's committed generations and their
    /// logical sizes.
    pub(crate) fn stats(&self, committed: &[(u64, u64)]) -> TenantStats {
        TenantStats {
            committed_generations: committed.len(),
            live_logical_bytes: committed.iter().map(|(_, bytes)| bytes).sum(),
            ..self.state.lock().clone()
        }
    }
}

/// What every view of one chunk space shares beside its tier state: the flusher
/// pool, admission's space-wide cap, the hot-set target and the service's tenant
/// registry.
pub(crate) struct Space {
    pool: FlusherPool,
    max_in_flight_total: usize,
    in_flight_total: AtomicUsize,
    hot_bytes_target: Option<usize>,
    /// At most one spill pass runs at a time; concurrent triggers are dropped (the
    /// running pass already drives the hot set to target).
    spilling: AtomicBool,
    /// The last tenant id handed out: the space's first view is tenant 0.
    last_id: AtomicU64,
    /// The views [`CkptService::register_tenant_with`] added, in order: what
    /// [`CkptService::stats`] reports. A plain tenant view is not entered, so it is
    /// freed with its last handle.
    registry: Mutex<Vec<Arc<View>>>,
}

impl Space {
    pub(crate) fn new(config: &ServiceConfig) -> Space {
        let workers = match config.flusher_workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            workers => workers,
        };
        Space {
            pool: FlusherPool::new(workers),
            max_in_flight_total: config.max_in_flight_total,
            in_flight_total: AtomicUsize::new(0),
            hot_bytes_target: config.hot_bytes_target,
            spilling: AtomicBool::new(false),
            last_id: AtomicU64::new(0),
            registry: Mutex::default(),
        }
    }

    /// A view carrying a new tenant of this space. Ids count from 1: the space's
    /// first tenant is 0.
    pub(crate) fn new_tenant(&self, name: &str, quota: TenantQuota) -> Arc<View> {
        let id = self.last_id.fetch_add(1, Ordering::Relaxed) + 1;
        Arc::new(View::new(Tenant::new(id, name, quota)))
    }
}

/// The tenancy of a view: admission, metering and the tenant's accounting.
impl CheckpointStorage {
    /// Start the space's flusher pool on the calling thread, if it has not started
    /// yet (see [`FlusherPool::start`]): what a job that is about to flush does
    /// before its rank threads submit.
    pub fn start_pool(&self) {
        self.space.pool.start();
    }

    /// Submit one rank's frozen image for background writing into this view through
    /// the space's pool, with a completion callback (runs on the worker thread after
    /// the write lands and is metered, and before the tenant's in-flight slot is
    /// released).
    ///
    /// Admission control applies: when the space's pool carries its in-flight cap or
    /// this tenant is out of in-flight budget, the submission is rejected with a
    /// typed, retryable error and the image is handed back — the caller decides
    /// whether to retry or write synchronously (see
    /// [`write_sync_fallback`](CheckpointStorage::write_sync_fallback)); the
    /// checkpoint itself must never be skipped.
    pub fn submit_with(
        &self,
        policy: StoragePolicy,
        image: CheckpointImage,
        on_flushed: impl FnOnce(&StoreReport) + Send + 'static,
    ) -> Result<FlushHandle, RejectedSubmission> {
        let tenant = &self.view.tenant;
        let mut state = tenant.state.lock();
        let in_flight = self.space.in_flight_total.load(Ordering::Relaxed);
        let (limit, budget) = (self.space.max_in_flight_total, tenant.quota.max_in_flight);
        let error = if in_flight >= limit {
            AdmissionError::PoolSaturated { in_flight, limit }
        } else if state.in_flight >= budget {
            AdmissionError::TenantBudgetExhausted {
                tenant: state.tenant,
                in_flight: state.in_flight,
                budget,
            }
        } else {
            state.in_flight += 1;
            self.space.in_flight_total.fetch_add(1, Ordering::Relaxed);
            drop(state);
            let slot = Some(Admitted(self.clone()));
            return Ok(self
                .space
                .pool
                .enqueue(self, policy, image, Box::new(on_flushed), slot));
        };
        state.rejected_submissions += 1;
        let image = Box::new(image);
        Err(RejectedSubmission { error, image })
    }

    /// [`submit_with`](CheckpointStorage::submit_with) without a callback.
    pub fn submit(
        &self,
        policy: StoragePolicy,
        image: CheckpointImage,
    ) -> Result<FlushHandle, RejectedSubmission> {
        self.submit_with(policy, image, |_| {})
    }

    /// Write a rejected submission's image synchronously into this view — the
    /// admission-control fallback. Metered like any write, and counted in
    /// [`TenantStats::sync_fallbacks`]; the write lands in the pending generation as
    /// the flusher worker's would have.
    pub fn write_sync_fallback(
        &self,
        policy: StoragePolicy,
        image: &CheckpointImage,
    ) -> StoreReport {
        let report = self.write_image(policy, image);
        self.view.tenant.state.lock().sync_fallbacks += 1;
        report
    }

    /// Block until **this tenant's** in-flight submissions have landed and their
    /// callbacks have run. Unlike draining the shared pool, this cannot be starved
    /// by other tenants' traffic — which is what a restarting job needs before
    /// aborting its pending generations.
    pub fn wait_idle(&self) {
        let tenant = &self.view.tenant;
        let mut state = tenant.state.lock();
        while state.in_flight > 0 {
            tenant.idle.wait(&mut state);
        }
    }

    /// Reclaim this tenant's oldest generations down to its quota now (it also runs
    /// after every landed write). Only this tenant's generations are candidates; the
    /// chunk sweep frees only chunks no tenant references any more (reference counts
    /// are shared across the whole chunk space).
    pub fn enforce_quota(&self) {
        let tenant = &self.view.tenant;
        // An unbounded quota has nothing to reclaim: skip the catalog scan.
        if tenant.quota.max_logical_bytes.is_none() && tenant.quota.max_generations.is_none() {
            return;
        }
        let Some(cutoff) = reclaim_cutoff(&tenant.quota, &self.view.committed_sizes()) else {
            return;
        };
        let report = self.prune_before(cutoff);
        let mut state = tenant.state.lock();
        state.reclaimed_generations += report.pruned.len() as u64;
        state.reclaimed_physical_bytes += report.freed_bytes as u64;
        state.reclaimed_logical_bytes += report.logical_freed_bytes as u64;
    }

    /// This tenant's accounting.
    pub fn tenant_stats(&self) -> TenantStats {
        self.view.tenant.stats(&self.view.committed_sizes())
    }

    /// Meter one landed write into this view's tenant, then enforce its quota and
    /// the space's hot-set target. Runs inside every
    /// [`write_image`](CheckpointStorage::write_image).
    pub(crate) fn meter(&self, report: &StoreReport) {
        {
            let mut state = self.view.tenant.state.lock();
            state.logical_bytes_written += report.logical_bytes as u64;
            state.physical_bytes_written += report.written_bytes as u64;
            state.chunks_new += report.chunks_new as u64;
            state.chunks_reused += report.chunks_reused as u64;
        }
        self.enforce_quota();
        self.maybe_spill();
    }

    /// Demote cold chunks if the hot set outgrew the space's target (single-flight).
    fn maybe_spill(&self) {
        let Some(target) = self.space.hot_bytes_target else {
            return;
        };
        if self.hot_bytes() <= target {
            return;
        }
        if self
            .space
            .spilling
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.spill_over(target);
        self.space.spilling.store(false, Ordering::Release);
    }

    /// Space-wide accounting: the registered tenants' stats plus shared-space
    /// occupancy.
    pub(crate) fn space_stats(&self) -> ServiceStats {
        let views: Vec<Arc<View>> = self.space.registry.lock().clone();
        let tenants: Vec<TenantStats> = views
            .iter()
            .map(|view| view.tenant.stats(&view.committed_sizes()))
            .collect();
        ServiceStats {
            in_flight: self.space.in_flight_total.load(Ordering::Relaxed),
            storage: self.stats(),
            tenants,
        }
    }
}

/// One admitted submission's in-flight slot, carried by its flush job and released
/// after the submitter's callback has run (or the write or callback panicked).
pub(crate) struct Admitted(CheckpointStorage);

impl Admitted {
    /// Release the slot in one critical section with `complete`, which completes
    /// the submission's handle: a tenant found idle has every handle complete, and
    /// a completed handle's tenant has its slot back.
    pub(crate) fn release(self, complete: impl FnOnce()) {
        let tenant = &self.0.view.tenant;
        let mut state = tenant.state.lock();
        complete();
        state.in_flight = state.in_flight.saturating_sub(1);
        self.0.space.in_flight_total.fetch_sub(1, Ordering::Relaxed);
        tenant.idle.notify_all();
    }
}

/// A checkpoint service: a chunk space built from a [`ServiceConfig`], whose jobs
/// register as tenants. A shell over the space's first view, kept for the repo
/// benchmark and the tests; cloning shares the space.
#[derive(Clone, Debug)]
pub struct CkptService {
    storage: CheckpointStorage,
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
    /// size included), whose space it rebuilds under `config` before it is shared.
    pub fn with_storage(config: ServiceConfig, storage: CheckpointStorage) -> Self {
        CkptService {
            storage: storage.with_space(&config),
        }
    }

    /// Register a tenant under the default quota.
    pub fn register_tenant(&self, name: &str) -> ServiceHandle {
        self.register_tenant_with(name, TenantQuota::default())
    }

    /// Register a tenant with an explicit quota. The space's flusher pool starts
    /// here, on the registering thread, if it has not yet: the first submission
    /// comes from a rank thread, whose core binding the workers would inherit.
    pub fn register_tenant_with(&self, name: &str, quota: TenantQuota) -> ServiceHandle {
        self.storage.start_pool();
        let storage = self.storage.add_tenant(name, quota);
        let registry = &self.storage.space.registry;
        registry.lock().push(Arc::clone(&storage.view));
        ServiceHandle { storage }
    }

    /// The shared chunk space (useful for occupancy inspection and explicit
    /// [`spill_over`](CheckpointStorage::spill_over) in tests and benches).
    pub fn storage(&self) -> &CheckpointStorage {
        &self.storage
    }

    /// Service-wide accounting: per-tenant stats plus shared-space occupancy.
    pub fn stats(&self) -> ServiceStats {
        self.storage.space_stats()
    }
}

/// One tenant's view, as [`CkptService::register_tenant`] returns it. A shell kept
/// for the repo benchmark and the tests; cloning shares the view.
#[derive(Clone, Debug)]
pub struct ServiceHandle {
    storage: CheckpointStorage,
}

impl ServiceHandle {
    /// This tenant's view: its own generations/manifests namespace over the shared
    /// chunk space, and the tenant itself.
    pub fn storage(&self) -> &CheckpointStorage {
        &self.storage
    }

    /// See [`CheckpointStorage::submit_with`].
    pub fn submit_with(
        &self,
        policy: StoragePolicy,
        image: CheckpointImage,
        on_flushed: impl FnOnce(&StoreReport) + Send + 'static,
    ) -> Result<FlushHandle, RejectedSubmission> {
        self.storage.submit_with(policy, image, on_flushed)
    }

    /// See [`CheckpointStorage::write_sync_fallback`].
    pub fn write_sync_fallback(
        &self,
        policy: StoragePolicy,
        image: &CheckpointImage,
    ) -> StoreReport {
        self.storage.write_sync_fallback(policy, image)
    }

    /// See [`CheckpointStorage::tenant_stats`].
    pub fn stats(&self) -> TenantStats {
        self.storage.tenant_stats()
    }
}
