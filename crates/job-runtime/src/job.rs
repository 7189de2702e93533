//! The job runtime: launch a MANA-wrapped world, drive it through steps, coordinate
//! checkpoints, inject preemptions, and restart from storage — one API for every
//! scenario the examples and tests used to hand-roll with `thread::spawn` loops.

use crate::coordinator::Coordinator;
use crate::recovery::{HeartbeatMonitor, RecoveryEventKind, RecoveryLog};
use crate::round::{checkpoint_round, MidStepIntercept, Sink};
use ckpt_service::{CkptService, ServiceHandle};
use ckpt_store::{CheckpointStorage, FlushHandle, StoreReport};
use elastic::{restart_job_from_storage, RemapPolicy, Repartition};
use mana::{CheckpointIntercept, IntentOutcome, ManaConfig, ManaRank, Session, StoragePolicy};
use mpi_engine::Backend;
use mpi_model::api::MpiApi;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use net_sim::clock;
use net_sim::{ChaosPlan, Fabric};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on automatic recoveries before
/// [`JobRuntime::run_steps_self_healing`] gives up and surfaces the last failure.
/// Guards against a fault the fallback cannot outrun (e.g. storage with no
/// committed generation and a deterministic crash at step 0). A completed run
/// reports its actual recovery count in the [`RecoveryLog`]'s `JobCompleted` event.
const MAX_RECOVERIES: u32 = 8;

/// Run one closure per worker, each on its own thread, and collect the results in
/// launch order. A panic in a worker is surfaced as an [`MpiError::Internal`] naming
/// the rank that panicked (and the panic message, when it carries one).
///
/// **Every** worker thread is joined before anything is returned; on failure the
/// lowest-ranked error is propagated. A failing rank therefore never leaves its
/// peers' threads running detached behind the error return — the self-healing
/// recovery loop depends on this: the dead incarnation must be fully unwound
/// (every rank woken by the fabric abort and joined) before a fresh world is
/// launched over the same storage.
///
/// This is the one thread-spawn scaffold in the workspace: `JobRuntime` builds on it
/// for MANA worlds, and lower layers (the engine tests) reuse it for raw
/// `MpiApi` worlds.
pub fn run_world<W, T, F>(workers: Vec<W>, body: F) -> MpiResult<Vec<T>>
where
    W: Send + 'static,
    T: Send + 'static,
    F: Fn(usize, W) -> MpiResult<T> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(rank, worker)| {
            let body = Arc::clone(&body);
            (rank, std::thread::spawn(move || body(rank, worker)))
        })
        .collect();
    let mut results = Vec::with_capacity(handles.len());
    let mut first_error: Option<MpiError> = None;
    for (rank, handle) in handles {
        let joined = handle.join().map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            MpiError::Internal(format!("rank {rank} thread panicked: {message}"))
        });
        match joined {
            Ok(Ok(value)) => results.push(value),
            Ok(Err(error)) | Err(error) => {
                if first_error.is_none() {
                    first_error = Some(error);
                }
            }
        }
    }
    match first_error {
        Some(error) => Err(error),
        None => Ok(results),
    }
}

/// Elastic-restart policy for a job: how checkpointed ranks are remapped onto a
/// world of a different size, and how the application's domain state follows them
/// (see [`elastic::restart_job`]).
#[derive(Clone)]
pub struct ElasticConfig {
    /// How old ranks are assigned to new ranks.
    pub policy: RemapPolicy,
    /// The application's state-redistribution hook.
    pub repartition: Arc<dyn Repartition>,
}

impl std::fmt::Debug for ElasticConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticConfig")
            .field("policy", &self.policy)
            .field(
                "consumes_derived_comms",
                &self.repartition.consumes_derived_comms(),
            )
            .finish()
    }
}

/// Everything the orchestrator needs to know about a job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Ranks in the world.
    pub world_size: usize,
    /// Which simulated MPI implementation hosts the lower halves.
    pub backend: Backend,
    /// Per-rank MANA configuration (virtual-id design, storage policy).
    pub mana: ManaConfig,
    /// See [`JobConfig::with_checkpoint_every`]; `None` by default.
    pub(crate) checkpoint_every: Option<u64>,
    /// See [`JobConfig::with_kill_at_step`]; `None` by default.
    pub(crate) kill_at_step: Option<u64>,
    /// See [`JobConfig::with_checkpoint_mid_step`]; off by default.
    pub(crate) checkpoint_mid_step: bool,
    /// See [`JobConfig::with_mid_step_checkpoint_at`]; `None` by default.
    pub(crate) mid_step_checkpoint_at: Option<u64>,
    /// See [`JobConfig::with_preempt_mid_step_at`]; `None` by default.
    pub(crate) preempt_mid_step_at: Option<u64>,
    /// Asynchronous checkpoint flush: at a step-boundary checkpoint, ranks freeze
    /// their upper half (a copy-on-write clone, no bytes copied) and return to
    /// computation immediately while a background flusher pool chunks, compresses
    /// and stores the images. The generation is published only once every rank's
    /// flush lands — no rank ever blocks on the commit.
    ///
    /// **Precedence:** mid-step mode ([`JobConfig::with_checkpoint_mid_step`])
    /// wins. In mid-step mode *every* checkpoint — boundary checkpoints included —
    /// is serviced synchronously through the mid-step hook, because
    /// intent-servicing ranks and boundary-checkpointing ranks must fold into one
    /// commit round (and a preempting intent needs its generation durable before
    /// the rank vacates), so this flag has no effect while mid-step mode is on.
    pub async_checkpoint: bool,
    /// See [`JobConfig::with_heartbeat_deadline`]; 250 ms by default.
    pub(crate) heartbeat_deadline: Duration,
    /// Seeded fault schedule installed on each incarnation's fabric (see
    /// [`net_sim::ChaosPlan`]). Faults that already fired are *not* re-armed on a
    /// relaunched incarnation, so one scheduled crash kills the job once, not on
    /// every recovery.
    ///
    /// Default: `None` (no fault injection). Masked faults (delay, loss, reorder,
    /// healing partitions) are absorbed by the transport and never surface;
    /// lethal faults require [`JobRuntime::run_steps_self_healing`] to complete
    /// the job, and fail a plain run with the underlying fabric error.
    pub chaos: Option<ChaosPlan>,
    /// Elastic restart policy. When set, [`JobRuntime::restart_resized`] becomes
    /// available, and the self-healing loop resumes a job whose nodes were declared
    /// dead by **shrinking the world onto the survivors** instead of relaunching at
    /// full size — logging [`RecoveryEventKind::WorldResized`].
    ///
    /// Default: `None` — restarts require the checkpointed world size.
    pub elastic: Option<ElasticConfig>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            world_size: 4,
            backend: Backend::Mpich,
            mana: ManaConfig::new_design().with_storage(StoragePolicy::Incremental),
            checkpoint_every: None,
            kill_at_step: None,
            checkpoint_mid_step: false,
            mid_step_checkpoint_at: None,
            preempt_mid_step_at: None,
            async_checkpoint: false,
            heartbeat_deadline: Duration::from_millis(250),
            chaos: None,
            elastic: None,
        }
    }
}

impl JobConfig {
    /// A job of `world_size` ranks on `backend` with the defaults above.
    pub fn new(world_size: usize, backend: Backend) -> Self {
        JobConfig {
            world_size,
            backend,
            ..JobConfig::default()
        }
    }

    /// Set the MANA configuration.
    pub fn with_mana(mut self, mana: ManaConfig) -> Self {
        self.mana = mana;
        self
    }

    /// Take a coordinated checkpoint every `steps` completed steps.
    ///
    /// Without it, only explicitly requested checkpoints are taken. A job without
    /// committed generations has no fallback: a failure or preemption before the
    /// first commit restarts from step 0 (self-healing runs log
    /// `FallbackRestored { generation: None }`).
    pub fn with_checkpoint_every(mut self, steps: u64) -> Self {
        self.checkpoint_every = Some(steps);
        self
    }

    /// Inject a preemption: the job vacates after completing `steps` steps (after
    /// any checkpoint due at that boundary). Consumed by the first run it fires in.
    pub fn with_kill_at_step(mut self, steps: u64) -> Self {
        self.kill_at_step = Some(steps);
        self
    }

    /// Mid-step checkpoint mode: install a checkpoint hook on every rank so a
    /// broadcast checkpoint intent (`Coordinator::request_checkpoint_now`) is
    /// delivered *inside* a step, at the two-phase collective safe points, instead of
    /// waiting for the next step boundary.
    pub fn with_checkpoint_mid_step(mut self) -> Self {
        self.checkpoint_mid_step = true;
        self
    }

    /// Inject a checkpoint intent inside step `step` (so it lands while ranks
    /// straddle whatever collective the step runs): rank 0 broadcasts the intent
    /// after a short stagger that lets its peers enter their registration phase
    /// first. The job continues afterwards. Implies
    /// [`JobConfig::with_checkpoint_mid_step`]. Consumed by the first run it fires
    /// in.
    pub fn with_mid_step_checkpoint_at(mut self, step: u64) -> Self {
        self.checkpoint_mid_step = true;
        self.mid_step_checkpoint_at = Some(step);
        self
    }

    /// Like [`JobConfig::with_mid_step_checkpoint_at`], but the intent is
    /// *preempting*: once the mid-step generation commits, every rank vacates, and
    /// the step the intent interrupted is repeated after a resume. Consumed by the
    /// first run it fires in.
    pub fn with_preempt_mid_step_at(mut self, step: u64) -> Self {
        self.checkpoint_mid_step = true;
        self.preempt_mid_step_at = Some(step);
        self
    }

    /// Flush step-boundary checkpoints asynchronously (see
    /// [`JobConfig::async_checkpoint`]).
    pub fn with_async_checkpoint(mut self) -> Self {
        self.async_checkpoint = true;
        self
    }

    /// Install a seeded fault schedule (see [`JobConfig::chaos`]).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Failure-detector deadline for the self-healing loop: a rank whose fabric
    /// heartbeat is silent for longer than `deadline` is declared dead, the world
    /// is aborted, and the job falls back to its newest committed generation.
    ///
    /// Default: 250 ms. Tune it above the job's longest natural heartbeat gap
    /// (synchronous checkpoint writes and commit-barrier waits do not beat) and
    /// above any transient outage that should stay *masked* — a partition that
    /// heals inside the deadline is invisible, one that outlives it is a failure.
    /// Only consulted by [`JobRuntime::run_steps_self_healing`]; plain runs spawn
    /// no detector.
    pub fn with_heartbeat_deadline(mut self, deadline: Duration) -> Self {
        self.heartbeat_deadline = deadline;
        self
    }

    /// Enable elastic restart (see [`JobConfig::elastic`]).
    pub fn with_elastic(mut self, policy: RemapPolicy, repartition: Arc<dyn Repartition>) -> Self {
        self.elastic = Some(ElasticConfig {
            policy,
            repartition,
        });
        self
    }
}

/// Per-rank handle into the coordinator, passed to [`JobRuntime::run`] bodies so
/// arbitrary workloads can take coordinated checkpoints at their own logical points.
#[derive(Clone)]
pub struct JobCtx {
    coordinator: Arc<Coordinator>,
    /// The owning [`JobRuntime`]'s tenancy (see its field of the same name).
    pub(crate) tenancy: ServiceHandle,
}

impl JobCtx {
    /// Take a full coordinated checkpoint of the job (collective: every rank's body
    /// must call this at the same logical point). The image is written in place and
    /// the generation commits in storage at the commit barrier, before any rank
    /// returns. A free-form checkpoint records no resume step, so a step-driven
    /// start cannot resume from it.
    pub fn checkpoint(&self, session: &mut Session) -> MpiResult<StoreReport> {
        Ok(self.round(session, Sink::InPlace)?.wait())
    }

    /// Take a coordinated checkpoint with an asynchronous flush: the rank returns as
    /// soon as its snapshot is frozen, holding a [`FlushHandle`] for the background
    /// write. Collective, like [`JobCtx::checkpoint`]. The generation publishes only
    /// when every rank's flush lands.
    ///
    /// The submission goes through the job's tenancy's admission control; a
    /// rejection falls back to a synchronous write on this thread (the checkpoint
    /// is never skipped) and the returned handle is already complete.
    pub fn checkpoint_async(&self, session: &mut Session) -> MpiResult<FlushHandle> {
        self.round(session, Sink::Pool)
    }

    fn round(&self, session: &mut Session, sink: Sink) -> MpiResult<FlushHandle> {
        session.reap();
        let (handle, _) = checkpoint_round(session.rank_mut(), self, sink, None, None)?;
        Ok(handle)
    }

    /// The storage engine checkpoints go into: the tenancy's view.
    pub fn storage(&self) -> &CheckpointStorage {
        self.tenancy.storage()
    }

    /// The coordinator driving this world.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }
}

/// How a step-driven run ended.
#[derive(Debug)]
pub enum JobRun<T> {
    /// Every rank completed all requested steps.
    Completed {
        /// Per-rank value of the final executed step, in rank order.
        results: Vec<T>,
        /// Newest published checkpoint generation, if any.
        generation: Option<u64>,
    },
    /// The injected preemption fired: the job vacated its world.
    Preempted {
        /// Steps every rank had completed when the job vacated.
        at_step: u64,
        /// Newest published checkpoint generation, if any.
        generation: Option<u64>,
    },
}

impl<T> JobRun<T> {
    /// Whether the run ended in the injected preemption.
    pub fn was_preempted(&self) -> bool {
        matches!(self, JobRun::Preempted { .. })
    }

    /// Newest published generation when the run ended.
    pub fn generation(&self) -> Option<u64> {
        match self {
            JobRun::Completed { generation, .. } | JobRun::Preempted { generation, .. } => {
                *generation
            }
        }
    }

    /// The per-rank results of a completed run; an error if the job was preempted.
    pub fn results(self) -> MpiResult<Vec<T>> {
        match self {
            JobRun::Completed { results, .. } => Ok(results),
            JobRun::Preempted { at_step, .. } => Err(MpiError::Checkpoint(format!(
                "job was preempted after {at_step} steps; resume it before collecting results"
            ))),
        }
    }
}

/// Where a step-driven incarnation starts (see `JobRuntime::start`).
struct Start {
    ranks: Vec<ManaRank>,
    /// The generation restored; `None` for a fresh launch.
    generation: Option<u64>,
    /// The step the incarnation resumes at.
    step: u64,
    /// The pending generations a dead incarnation left behind, aborted first.
    aborted: Vec<u64>,
}

enum RankOutcome<T> {
    Completed(T),
    Preempted,
}

/// The coordinated job orchestrator.
///
/// One `JobRuntime` owns a job across its whole life: the initial launch, every
/// coordinated checkpoint (through one checkpoint-service tenancy), an injected
/// preemption, and the restart onto a fresh world — possibly on a different
/// [`Backend`]. All scenarios the examples cover (quickstart, cross-implementation
/// restart, preemptible job, implementation shootout) are method calls on this type.
pub struct JobRuntime {
    config: JobConfig,
    /// The world size of the *current* incarnation. Starts at
    /// [`JobConfig::world_size`] and changes only through
    /// [`JobRuntime::restart_resized`] (directly or via the self-healing loop's
    /// elastic shrink).
    world_size: AtomicUsize,
    /// The service tenancy every checkpoint goes through, shared across runs and
    /// restarts: a shared service's ([`JobRuntime::with_service`]), or that of a
    /// private service whose sole tenant writes the job's own store. Its storage
    /// is where every generation lands and every restart reads.
    tenancy: ServiceHandle,
    registry: Arc<RwLock<UserFunctionRegistry>>,
    session: AtomicU64,
    kill_armed: AtomicBool,
    mid_ckpt_armed: AtomicBool,
    mid_kill_armed: AtomicBool,
    /// The current incarnation's fabric, captured out of the backend factory at
    /// launch/restart time (the factory API stays network-agnostic; the capture
    /// hook is a thread-local side channel). `None` until the first launch.
    fabric: Mutex<Option<Fabric>>,
    /// The not-yet-fired remainder of [`JobConfig::chaos`], with each surviving
    /// fault's id in the *original* plan — what gets installed on the next
    /// incarnation's fabric, so a fault that already fired never fires twice.
    chaos: Mutex<Option<ChaosArm>>,
}

struct ChaosArm {
    /// The full plan as configured (categories looked up by original id).
    original: ChaosPlan,
    /// Faults not yet fired, in original order.
    remaining: ChaosPlan,
    /// `remaining[i]`'s id in `original`.
    ids: Vec<usize>,
}

impl JobRuntime {
    /// A runtime writing checkpoints into an unmetered sharded store.
    pub fn new(config: JobConfig) -> Self {
        JobRuntime::with_storage(config, CheckpointStorage::unmetered())
    }

    /// A runtime writing checkpoints into the given store (metered models, custom
    /// shard counts, or a store shared with an inspector). The job is the sole
    /// tenant of a private [`CkptService`] over this very store, so every
    /// generation lands in its catalog; the service's flusher pool spawns no thread
    /// until the job first flushes asynchronously.
    pub fn with_storage(config: JobConfig, storage: CheckpointStorage) -> Self {
        JobRuntime::with_service(config, CkptService::sole_tenant(storage))
    }

    /// A runtime attached to a multi-tenant [`CkptService`] tenancy: every
    /// checkpoint lands in the tenant's namespaced view of the service's shared,
    /// deduplicated chunk space, asynchronous flushes ride the service's shared pool
    /// under its admission control (a rejected submission falls back to a
    /// synchronous write — a checkpoint is never skipped), and every landed write is
    /// metered against the tenant's quota.
    pub fn with_service(config: JobConfig, tenancy: ServiceHandle) -> Self {
        let chaos = config.chaos.clone().map(|plan| ChaosArm {
            ids: (0..plan.faults.len()).collect(),
            remaining: plan.clone(),
            original: plan,
        });
        JobRuntime {
            kill_armed: AtomicBool::new(config.kill_at_step.is_some()),
            mid_ckpt_armed: AtomicBool::new(config.mid_step_checkpoint_at.is_some()),
            mid_kill_armed: AtomicBool::new(config.preempt_mid_step_at.is_some()),
            world_size: AtomicUsize::new(config.world_size),
            config,
            tenancy,
            registry: Arc::new(RwLock::new(UserFunctionRegistry::new())),
            session: AtomicU64::new(1),
            fabric: Mutex::new(None),
            chaos: Mutex::new(chaos),
        }
    }

    /// The job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// The checkpoint store every generation of this job lands in.
    pub fn storage(&self) -> &CheckpointStorage {
        self.tenancy.storage()
    }

    /// The shared user-function registry (survives restarts, as user-defined
    /// reduction functions must).
    pub fn registry(&self) -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::clone(&self.registry)
    }

    /// The world size of the current incarnation: [`JobConfig::world_size`] until an
    /// elastic restart ([`JobRuntime::restart_resized`]) changes it.
    pub fn current_world_size(&self) -> usize {
        self.world_size.load(Ordering::SeqCst)
    }

    /// The newest committed checkpoint generation in the job's store.
    pub fn published_generation(&self) -> Option<u64> {
        self.storage().newest_committed()
    }

    /// Launch a fresh world of MANA-wrapped ranks on the configured backend. Its
    /// first checkpoint is numbered past every generation the job's store holds,
    /// committed or pending, so it never rewrites an earlier run's generation.
    pub fn launch(&self) -> MpiResult<Vec<ManaRank>> {
        let first = self.storage().next_generation();
        self.relaunch(self.config.backend, self.current_world_size(), true)?
            .into_iter()
            .map(|lower| {
                let mut rank = ManaRank::new(lower, self.config.mana, self.registry())?;
                rank.set_generation(first);
                Ok(rank)
            })
            .collect()
    }

    /// Launch `world` lower halves on `backend` under a fresh session, and adopt the
    /// new incarnation's fabric (see `adopt_fabric` for `arm_chaos`).
    fn relaunch(
        &self,
        backend: Backend,
        world: usize,
        arm_chaos: bool,
    ) -> MpiResult<Vec<Box<dyn MpiApi>>> {
        let session = self.session.fetch_add(1, Ordering::SeqCst);
        let (lowers, fabric) = backend.launch(world, self.registry(), session)?;
        self.adopt_fabric(fabric, arm_chaos);
        Ok(lowers)
    }

    /// The current incarnation's fabric (handed back by the backend at
    /// launch/restart), for fault injection and inspection. `None` before the
    /// first launch.
    pub fn fabric(&self) -> Option<Fabric> {
        self.fabric.lock().clone()
    }

    /// Track a freshly launched fabric; with `arm_chaos`, install the not-yet-fired
    /// chaos remainder on it. Restart leaves the fabric unarmed so a leftover fault
    /// cannot fire while ranks are still being *restored* — the self-healing loop
    /// re-arms the remainder once the restore has succeeded.
    fn adopt_fabric(&self, fabric: Fabric, arm_chaos: bool) {
        if arm_chaos {
            self.arm_remaining_chaos(&fabric);
        }
        *self.fabric.lock() = Some(fabric);
    }

    /// Install the not-yet-fired chaos remainder on `fabric` (no-op when the
    /// remainder is empty).
    fn arm_remaining_chaos(&self, fabric: &Fabric) {
        if let Some(arm) = self.chaos.lock().as_ref() {
            if !arm.remaining.is_empty() {
                fabric.install_chaos(arm.remaining.clone());
            }
        }
    }

    /// Fold the faults that fired on `fabric` into the recovery log (with their
    /// original plan ids) and strip them from the remainder armed on the next
    /// incarnation.
    fn retire_fired_faults(&self, fabric: &Fabric, log: &RecoveryLog, incarnation: u32) {
        let fired = fabric.fired_fault_ids();
        if fired.is_empty() {
            return;
        }
        let mut guard = self.chaos.lock();
        if let Some(arm) = guard.as_mut() {
            for &index in &fired {
                if let Some(&original_id) = arm.ids.get(index) {
                    log.record(
                        incarnation,
                        RecoveryEventKind::FaultInjected {
                            fault_id: original_id,
                            category: arm.original.faults[original_id].category().to_string(),
                        },
                    );
                }
            }
            let (remaining, kept) = arm.remaining.without_fired(&fired);
            arm.ids = kept.into_iter().map(|position| arm.ids[position]).collect();
            arm.remaining = remaining;
        }
    }

    fn coordinator(&self) -> Arc<Coordinator> {
        Arc::new(
            Coordinator::new(
                self.current_world_size(),
                self.config.checkpoint_every,
                self.storage().clone(),
            )
            .on_fabric(self.fabric()),
        )
    }

    // ------------------------------------------------------------------
    // Free-form bodies
    // ------------------------------------------------------------------

    /// Launch a fresh world and run one closure per rank, each on its own thread,
    /// against the typed [`Session`] API. The [`JobCtx`] lets the body take
    /// coordinated checkpoints at its own logical points. Results come back in rank
    /// order.
    pub fn run<T, F>(&self, body: F) -> MpiResult<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(Session, JobCtx) -> MpiResult<T> + Send + Sync + 'static,
    {
        let ranks = self.launch()?;
        self.run_ranks(ranks, body)
    }

    /// Relaunch the current world on `backend` and restore every rank from the
    /// newest generation that validates end to end for the whole job — on a
    /// *different* MPI implementation, too: the paper's §9 cross-implementation
    /// restart as a one-argument switch. A generation checkpointed at another world
    /// size is remapped through [`JobConfig::elastic`]; without one the restart fails
    /// with [`MpiError::WorldSizeMismatch`]. Returns the restored ranks and the
    /// generation restored from; drive them with [`JobRuntime::run_restored`]. (A
    /// step-driven job needs no explicit restart: [`JobRuntime::run_steps`] resumes
    /// from the store itself.)
    pub fn restart(&self, backend: Backend) -> MpiResult<(Vec<ManaRank>, u64)> {
        self.restore(backend, self.current_world_size())
    }

    /// Relaunch **`new_world` ranks** — a different count than the checkpoint was
    /// taken with — and restore the newest fully-valid generation onto them, using
    /// the rank-map policy and [`Repartition`] hook from [`JobConfig::elastic`].
    ///
    /// Fails with [`MpiError::ElasticResize`] when the job has no elastic
    /// configuration, when the checkpoint cannot survive a resize (a straddled
    /// collective, in-flight messages), or when live derived communicators exist and
    /// the repartition hook does not consume them; a launch or stored generation
    /// that does not form a whole world fails with [`MpiError::Checkpoint`], as
    /// [`JobRuntime::restart`] does. On success the runtime's world size *becomes*
    /// `new_world`: subsequent launches, restarts and coordinators all use it.
    pub fn restart_resized(&self, new_world: usize) -> MpiResult<(Vec<ManaRank>, u64)> {
        if self.config.elastic.is_none() {
            return Err(MpiError::ElasticResize(
                "this job has no elastic configuration; set JobConfig::elastic \
                 (with_elastic) to allow restarts onto a different world size"
                    .into(),
            ));
        }
        if new_world == 0 {
            return Err(MpiError::ElasticResize(
                "cannot resize a job onto an empty world".into(),
            ));
        }
        self.restore(self.config.backend, new_world)
    }

    /// The one restore behind [`JobRuntime::restart`],
    /// [`JobRuntime::restart_resized`] and every step-driven resume: let the dead
    /// incarnation's flushes land, relaunch `world` lower halves on `backend`, and
    /// restore through the restart engine ([`elastic::restart_job_from_storage`]),
    /// which aborts pending generations, drops committed ones newer than the one it
    /// restores, and remaps a generation of another size with the job's elastic
    /// configuration.
    fn restore(&self, backend: Backend, world: usize) -> MpiResult<(Vec<ManaRank>, u64)> {
        // The flusher pool outlives a vacated world (the simulated node-local flush
        // daemon), so let every flush of this job still in flight land *before* the
        // engine aborts pending generations: a straggler landing after the
        // abort-and-forget could otherwise be counted toward the new incarnation's
        // round for the same generation number. The wait is tenant-scoped, never on
        // the service's whole pool, which other tenants' traffic could starve.
        self.tenancy.wait_idle();
        let lowers = self.relaunch(backend, world, false)?;
        let remap = self
            .config
            .elastic
            .as_ref()
            .map(|elastic| (elastic.policy, elastic.repartition.as_ref()));
        let (ranks, generation) = restart_job_from_storage(
            lowers,
            self.storage(),
            remap,
            self.config.mana,
            self.registry(),
        )?;
        self.world_size.store(world, Ordering::SeqCst);
        Ok((ranks, generation))
    }

    /// Run one closure per rank of a restored world — what [`JobRuntime::restart`]
    /// or [`JobRuntime::restart_resized`] returned — each on its own thread, against
    /// the typed [`Session`] API. Returns the results in rank order and the
    /// generation restored from.
    pub fn run_restored<T, F>(
        &self,
        (ranks, generation): (Vec<ManaRank>, u64),
        body: F,
    ) -> MpiResult<(Vec<T>, u64)>
    where
        T: Send + 'static,
        F: Fn(Session, JobCtx) -> MpiResult<T> + Send + Sync + 'static,
    {
        Ok((self.run_ranks(ranks, body)?, generation))
    }

    fn run_ranks<T, F>(&self, ranks: Vec<ManaRank>, body: F) -> MpiResult<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(Session, JobCtx) -> MpiResult<T> + Send + Sync + 'static,
    {
        let ctx = self.ctx(self.coordinator());
        run_world(ranks, move |_, rank| body(Session::new(rank), ctx.clone()))
    }

    fn ctx(&self, coordinator: Arc<Coordinator>) -> JobCtx {
        JobCtx {
            coordinator,
            tenancy: self.tenancy.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Step-driven runs
    // ------------------------------------------------------------------

    /// Drive every rank through steps up to `total_steps`, taking a coordinated
    /// checkpoint at every interval boundary and honouring an injected preemption.
    /// `step_fn(session, step)` executes one step on one rank through the typed
    /// [`Session`] API.
    ///
    /// The run starts from the job's store alone: it restores the store's newest
    /// committed generation onto this runtime's backend and world size (remapped
    /// through [`JobConfig::elastic`] when the sizes differ) and resumes at the step
    /// that generation records, repeating the work since the last commit exactly as
    /// a real preempted job repeats it; with nothing committed, it launches fresh at
    /// step 0. So a second call after a preemption resumes the job, and so does a
    /// runtime built later over the same store — for another MPI or another world
    /// size, build it with that backend or size. Fails with
    /// [`MpiError::Checkpoint`] naming the generation when the newest committed one
    /// records no step (a checkpoint from a free-form [`JobRuntime::run`] body).
    pub fn run_steps<T, F>(&self, total_steps: u64, step_fn: F) -> MpiResult<JobRun<T>>
    where
        T: Send + 'static,
        F: Fn(&mut Session, u64) -> MpiResult<T> + Send + Sync + 'static,
    {
        let start = self.start(self.current_world_size())?;
        self.drive(
            self.coordinator(),
            start.ranks,
            start.step,
            total_steps,
            Arc::new(step_fn),
        )
    }

    /// The one start of every step-driven run, at `world` ranks: restore the newest
    /// committed generation and its resume step, or launch fresh at step 0 when
    /// nothing has committed. The restore runs with chaos unarmed and the remainder
    /// is armed once it has succeeded, so a leftover fault targets the resumed run,
    /// not the restore.
    fn start(&self, world: usize) -> MpiResult<Start> {
        // Let a dead incarnation's straggler flushes land *before* deciding what the
        // newest committed generation is: a flush that commits a moment from now
        // counts as committed, not as "nothing to resume from".
        self.tenancy.wait_idle();
        // Its pending rounds are torn by definition: abort them whichever way the
        // job starts, or a fresh launch would join a dead round of the same number.
        // Every flush has landed, so the tombstones have nothing left to catch.
        let aborted = self.storage().abort_pending();
        if self.published_generation().is_none() {
            return Ok(Start {
                ranks: self.launch()?,
                generation: None,
                step: 0,
                aborted,
            });
        }
        let (ranks, generation) = self.restore(self.config.backend, world)?;
        if let Some(fabric) = self.fabric() {
            self.arm_remaining_chaos(&fabric);
        }
        let step = self.storage().resume_step(generation).ok_or_else(|| {
            MpiError::Checkpoint(format!(
                "generation {generation} records no resume step (it was written outside a \
                 step-driven run), so a step-driven start cannot resume from it"
            ))
        })?;
        Ok(Start {
            ranks,
            generation: Some(generation),
            step,
            aborted,
        })
    }

    /// Run to completion through preemptions and **failures**: the self-healing
    /// loop of the chaos fabric work. Every incarnation starts like
    /// [`JobRuntime::run_steps`] — from the store's newest committed generation, or
    /// fresh when nothing has committed — with the not-yet-fired remainder of
    /// [`JobConfig::chaos`] armed on the fabric, spawns a [`HeartbeatMonitor`] with
    /// the [heartbeat deadline](JobConfig::with_heartbeat_deadline), and drives
    /// steps. An injected preemption resumes without counting as a recovery. When a
    /// rank dies (or falls silent past the deadline) the monitor aborts the world,
    /// the dead incarnation's pending generations are aborted, and a fresh world
    /// resumes from the newest committed generation. Every event lands in the
    /// returned [`RecoveryLog`].
    ///
    /// Fails with the underlying error when a failure is *not* recoverable (a
    /// genuine bug rather than a detected fault), or with
    /// [`MpiError::Internal`] after `MAX_RECOVERIES` (8) recoveries.
    pub fn run_steps_self_healing<T, F>(
        &self,
        total_steps: u64,
        step_fn: F,
    ) -> MpiResult<(JobRun<T>, RecoveryLog)>
    where
        T: Send + 'static,
        F: Fn(&mut Session, u64) -> MpiResult<T> + Send + Sync + 'static,
    {
        let step_fn = Arc::new(step_fn);
        let log = RecoveryLog::new();
        let mut recoveries: u32 = 0;
        let mut incarnation: u32 = 1;
        if let Some(arm) = self.chaos.lock().as_ref() {
            log.record(
                incarnation,
                RecoveryEventKind::ChaosInstalled {
                    seed: arm.original.seed,
                    faults: arm.remaining.faults.len(),
                    lethal: arm.remaining.lethal_count(),
                },
            );
        }
        let mut start = self.start(self.current_world_size())?;
        if !start.aborted.is_empty() {
            log.record(
                incarnation,
                RecoveryEventKind::PendingAborted {
                    generations: std::mem::take(&mut start.aborted),
                },
            );
        }
        loop {
            let fabric = self.fabric();
            let coordinator = self.coordinator();
            let monitor = fabric.clone().map(|fabric| {
                HeartbeatMonitor::spawn(
                    fabric,
                    Arc::clone(&coordinator),
                    log.clone(),
                    self.config.heartbeat_deadline,
                    incarnation,
                )
            });
            let outcome = self.drive(
                Arc::clone(&coordinator),
                start.ranks,
                start.step,
                total_steps,
                Arc::clone(&step_fn),
            );
            let report = monitor.map(HeartbeatMonitor::stop).unwrap_or_default();
            if let Some(fabric) = &fabric {
                self.retire_fired_faults(fabric, &log, incarnation);
            }
            match outcome {
                Ok(run) if !run.was_preempted() => {
                    log.record(
                        incarnation,
                        RecoveryEventKind::JobCompleted {
                            incarnations: incarnation,
                            recoveries,
                        },
                    );
                    return Ok((run, log));
                }
                // An operator-driven preemption (kill-at-step) is not a failure:
                // resume without charging a recovery.
                Ok(_preempted) => {}
                Err(error) => {
                    let aborted = fabric.as_ref().is_some_and(|fabric| fabric.aborted());
                    let recoverable = error.is_recoverable_failure()
                        || aborted
                        || !report.declared_dead.is_empty();
                    if !recoverable {
                        return Err(error);
                    }
                    recoveries += 1;
                    if recoveries > MAX_RECOVERIES {
                        return Err(MpiError::Internal(format!(
                            "job still failing after {MAX_RECOVERIES} automatic recoveries \
                             (last failure: {error:?})"
                        )));
                    }
                }
            }
            // Blackout clock: from the detector's first declaration (or now, for
            // failures that surfaced without one) to the resumed world stepping.
            let blackout_start = report.first_detection.unwrap_or_else(clock::now);
            // With an elastic policy and ranks declared dead (an unhealed node
            // loss), the job does not relaunch at full size and wait for
            // replacement nodes: it shrinks the world onto the survivors.
            let previous_world = self.current_world_size();
            let shrink_to = match (&self.config.elastic, report.declared_dead.len()) {
                (Some(_), dead) if dead > 0 => {
                    let survivors = previous_world.saturating_sub(dead).max(1);
                    (survivors < previous_world).then_some(survivors)
                }
                _ => None,
            };
            start = self.start(shrink_to.unwrap_or(previous_world))?;
            let resized_to = self.current_world_size();
            if resized_to != previous_world {
                log.record(
                    incarnation,
                    RecoveryEventKind::WorldResized {
                        from: previous_world,
                        to: resized_to,
                    },
                );
            }
            if !start.aborted.is_empty() {
                log.record(
                    incarnation,
                    RecoveryEventKind::PendingAborted {
                        generations: std::mem::take(&mut start.aborted),
                    },
                );
            }
            incarnation += 1;
            for event in [
                RecoveryEventKind::FallbackRestored {
                    generation: start.generation,
                    start_step: start.step,
                },
                RecoveryEventKind::WorldRelaunched { incarnation },
                RecoveryEventKind::Resumed {
                    blackout_ms: blackout_start.elapsed().as_millis() as u64,
                },
            ] {
                log.record(incarnation, event);
            }
        }
    }

    fn drive<T, F>(
        &self,
        coordinator: Arc<Coordinator>,
        ranks: Vec<ManaRank>,
        start_step: u64,
        total_steps: u64,
        step_fn: Arc<F>,
    ) -> MpiResult<JobRun<T>>
    where
        T: Send + 'static,
        F: Fn(&mut Session, u64) -> MpiResult<T> + Send + Sync + 'static,
    {
        if start_step >= total_steps {
            return Err(MpiError::Checkpoint(format!(
                "nothing to run: starting at step {start_step} of {total_steps}"
            )));
        }
        // Mid-step mode takes precedence (see `JobConfig::async_checkpoint`): all
        // its checkpoints are synchronous, so the flag is only effective without it.
        let sink = if self.config.async_checkpoint && !self.config.checkpoint_mid_step {
            // Here, not on the first submitting rank thread, whose core binding
            // the workers would inherit.
            self.tenancy.start_pool();
            Sink::Pool
        } else {
            Sink::InPlace
        };
        let ctx = self.ctx(coordinator);
        // An injected event fires only while still armed.
        let armed = |flag: &AtomicBool, at: Option<u64>| at.filter(|_| flag.load(Ordering::SeqCst));
        let kill_at = armed(&self.kill_armed, self.config.kill_at_step);
        let mid_step = self.config.checkpoint_mid_step;
        let mid_ckpt_at = armed(&self.mid_ckpt_armed, self.config.mid_step_checkpoint_at);
        let mid_kill_at = armed(&self.mid_kill_armed, self.config.preempt_mid_step_at);
        let outcomes = run_world(ranks, move |_, rank| {
            let coordinator = &ctx.coordinator;
            let mut session = Session::new(rank);
            let intercept = mid_step.then(|| {
                let hook = Arc::new(MidStepIntercept::new(ctx.clone()));
                session
                    .rank_mut()
                    .set_intercept(Arc::clone(&hook) as Arc<dyn CheckpointIntercept>);
                hook
            });
            // This rank's in-flight flush — at most one, by the backpressure below
            // (a synchronous round's is already complete). Waited before the rank
            // thread returns (on completion *and* on preemption — the simulated
            // flusher outlives a vacated allocation, like a node-local burst-buffer
            // daemon), so `drive`'s caller observes a settled ledger.
            let mut in_flight: Option<FlushHandle> = None;
            let outcome = (|session: &mut Session, in_flight: &mut Option<FlushHandle>| {
                let mut last = None;
                for step in start_step..total_steps {
                    if let Some(hook) = &intercept {
                        hook.enter_step(step);
                    }
                    let vacate_here = mid_kill_at == Some(step);
                    if (vacate_here || mid_ckpt_at == Some(step)) && session.world_rank() == 0 {
                        // Rank 0 broadcasts the injected intent after a short stagger, so
                        // its peers are already parked in this step's collective
                        // registration phase when the intent lands — the "some ranks
                        // registered, others not yet entered" straddle.
                        clock::sleep(Duration::from_millis(10));
                        if vacate_here {
                            coordinator.request_preempting_checkpoint();
                        } else {
                            coordinator.request_checkpoint_now();
                        }
                    }
                    match step_fn(session, step) {
                        Ok(value) => last = Some(value),
                        // The rank serviced a preempting intent inside the step and
                        // vacated from within a wrapper.
                        Err(MpiError::Preempted) => return Ok(RankOutcome::Preempted),
                        Err(error) => return Err(error),
                    }
                    let boundary = step + 1;
                    // Descriptors of requests the step body dropped without completing
                    // must be removed *before* any checkpoint at this boundary — a
                    // leaked descriptor serialized into the image would survive restart
                    // with no reaper entry left to collect it.
                    session.reap();
                    if let Some(hook) = &intercept {
                        // Boundary safe point: an intent no collective happened to catch
                        // (a step without collectives) is serviced here — and a periodic
                        // checkpoint due at this boundary goes through the same hook, so
                        // an intent raised concurrently with a due boundary cannot split
                        // the world into an intent round and a boundary round: every
                        // rank folds into one commit round and adopts its one decision.
                        hook.enter_step(boundary);
                        if hook.intent_pending() || coordinator.checkpoint_due(boundary) {
                            match hook.service(session.rank_mut()) {
                                Ok(IntentOutcome::Continue) => {}
                                Ok(IntentOutcome::Vacate) => return Ok(RankOutcome::Preempted),
                                Err(error) => return Err(error),
                            }
                        }
                    } else if coordinator.checkpoint_due(boundary) {
                        // Backpressure: at most one flush in flight per rank. If the
                        // previous generation's flush is still running when the next
                        // boundary arrives, the rank absorbs the remaining flush time
                        // here — otherwise every boundary would queue another full
                        // upper-half copy and a slow store could grow the queue
                        // without bound.
                        if let Some(previous) = in_flight.take() {
                            previous.wait();
                        }
                        let (handle, _) =
                            checkpoint_round(session.rank_mut(), &ctx, sink, Some(boundary), None)?;
                        *in_flight = Some(handle);
                    }
                    if kill_at == Some(boundary) && boundary < total_steps {
                        // The allocation is revoked: the rank vacates without any
                        // further checkpoint. Work since the last commit is lost.
                        return Ok(RankOutcome::Preempted);
                    }
                }
                Ok(RankOutcome::Completed(last.ok_or_else(|| {
                    MpiError::Internal("run finished without executing any step".into())
                })?))
            })(&mut session, &mut in_flight);
            if let Some(handle) = in_flight {
                handle.wait();
            }
            outcome
        })?;

        let preempted = outcomes
            .iter()
            .filter(|o| matches!(o, RankOutcome::Preempted))
            .count();
        if preempted == outcomes.len() {
            self.kill_armed.store(false, Ordering::SeqCst);
            self.mid_kill_armed.store(false, Ordering::SeqCst);
            let at_step = kill_at.or(mid_kill_at).ok_or_else(|| {
                MpiError::Internal(
                    "every rank reported preemption but no kill step was armed".into(),
                )
            })?;
            // An injected (non-preempting) mid-step intent is consumed by the first
            // run it fires in — which includes a run that was later preempted, as
            // long as the run reached the intent's step before vacating.
            if mid_ckpt_at.is_some_and(|step| step < at_step) {
                self.mid_ckpt_armed.store(false, Ordering::SeqCst);
            }
            return Ok(JobRun::Preempted {
                at_step,
                generation: self.published_generation(),
            });
        }
        if preempted > 0 {
            return Err(MpiError::Internal(
                "some ranks vacated while others completed — the preemption was not \
                 coordinated"
                    .into(),
            ));
        }
        if mid_ckpt_at.is_some() {
            // The injected mid-step intent fired during this run; don't re-inject on
            // a later resume.
            self.mid_ckpt_armed.store(false, Ordering::SeqCst);
        }
        // No rank was preempted (established above), so every outcome is a result.
        let results = outcomes
            .into_iter()
            .filter_map(|o| match o {
                RankOutcome::Completed(value) => Some(value),
                RankOutcome::Preempted => None,
            })
            .collect();
        Ok(JobRun::Completed {
            results,
            generation: self.published_generation(),
        })
    }
}
