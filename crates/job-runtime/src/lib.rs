//! # job-runtime
//!
//! The coordinated job orchestrator for the MANA reproduction: one API that launches
//! a world of [`mana::ManaRank`]s on worker threads over one simulated fabric, drives
//! the paper's **two-phase checkpoint protocol** from a central [`Coordinator`], and
//! handles the whole preemption/restart lifecycle.
//!
//! The protocol, per coordinated checkpoint:
//!
//! 1. **Intent broadcast** — every rank observes the checkpoint decision at the same
//!    step boundary (periodic interval or explicit request).
//! 2. **Quiesce + drain** — the MPI-level barrier/alltoall phases of
//!    [`mana::ManaRank::begin_checkpoint`], then a drain to quiescence observed
//!    *job-wide*: a rank only declares a stall when no rank anywhere is making
//!    progress, replacing the old per-rank idle-round counter.
//! 3. **Parallel writes** — every rank writes its image concurrently; the sharded
//!    [`ckpt_store::CheckpointStorage`] admits them in parallel.
//! 4. **Commit barrier** — once every rank's write is durable, the generation is
//!    atomically published. A generation is never visible half-written.
//!
//! Every checkpoint — synchronous or asynchronous, at a step boundary or inside a
//! step — runs the same round: quiesce → drain → freeze → sink, into the job's one
//! checkpoint-service tenancy. Every job is a tenant from construction: of a shared
//! service, or else the sole tenant of a private service that writes the job's own
//! store. Only the route differs: the tenancy's storage written in place and
//! metered afterwards (steps 3-4 above), or the frozen image submitted through the
//! tenancy's admission control, which publishes the generation when the last
//! rank's background flush lands instead of at a barrier. A job without a shared
//! service that never checkpoints asynchronously runs no flusher thread: its
//! private pool spawns its workers only when the job first flushes.
//!
//! The [`JobRuntime`] on top adds periodic checkpoint intervals, injected preemption
//! (kill-at-step), restart from the newest fully-valid generation (optionally on a
//! *different* MPI implementation), and a [`Backend`] selector over the four simulated
//! implementations of [`mpi_engine::personality`]. A step-driven job resumes from its
//! store alone: each round records in the store the step its generation resumes
//! from, [`CommitLedger`] is a view of the store, and [`JobRuntime::run_steps`]
//! starts from the newest committed generation — so a runtime built for a new
//! allocation over the same store finishes a preempted job.
//!
//! A job can also run as one **tenant of a shared multi-tenant checkpoint service**
//! ([`JobRuntime::with_service`]): checkpoints land in the tenant's namespaced view
//! of a [`ckpt_service::CkptService`]'s deduplicated chunk space, asynchronous
//! flushes ride the service's shared pool under admission control (with a
//! synchronous fallback on rejection, so a checkpoint is never skipped), and every
//! landed write is metered against the tenant's quota.
//!
//! With [`JobConfig::with_checkpoint_mid_step`], intent broadcast is no longer confined to
//! step boundaries: every rank carries a mid-step checkpoint hook, and an intent raised
//! at any moment (`Coordinator::request_checkpoint_now`) is serviced at the safe
//! points of MANA's two-phase collective protocol — ranks caught in a collective's
//! registration phase withdraw, checkpoint, and re-register, so the checkpoint lands
//! with every rank provably outside any collective's critical phase.
//!
//! ## Chaos and self-healing
//!
//! The runtime is built to be *broken on purpose*. A seeded fault schedule
//! ([`ChaosPlan`], rolled from a [`ChaosMenu`] — deterministic per seed) installs
//! into the job's fabric via [`JobConfig::with_chaos`]: message delays, losses and
//! reorders are masked by the transport; rank crashes, node failures and unhealed
//! partitions are **lethal** and surface as missed heartbeats.
//! [`JobRuntime::run_steps_self_healing`] is the one-call driver that survives
//! them: a [`HeartbeatMonitor`] watches the fabric's heartbeat board and declares
//! ranks dead past [`JobConfig::with_heartbeat_deadline`], the world is aborted (every
//! blocked rank wakes with a failure), straggler asynchronous flushes are allowed
//! to land, pending generations of the dead incarnation are aborted, and the job
//! falls back to its newest *committed* generation (or relaunches from scratch if
//! nothing committed yet) and resumes — up to eight times (`MAX_RECOVERIES`, a
//! constant, not a knob).
//! Every incident is narrated as a structured [`RecoveryLog`] event stream
//! (detection latency, recovery blackout, fallback generation), which is also the
//! CI soak's `RECOVERY_log.json` artifact format. `docs/RUNBOOK.md` at the repo
//! root is the operator-facing guide (deadline tuning, log forensics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod job;
mod recovery;
mod round;

pub use coordinator::{CommitLedger, Coordinator};
pub use elastic::{RankMap, RemapPolicy, Repartition};
pub use job::{run_world, ElasticConfig, JobConfig, JobCtx, JobRun, JobRuntime};
pub use mpi_engine::Backend;
pub use recovery::{
    HeartbeatMonitor, MonitorReport, RecoveryEvent, RecoveryEventKind, RecoveryLog,
};

// Re-exported so chaos-soak tests, benches and examples can build fault schedules
// without depending on `net-sim` directly.
pub use net_sim::{ChaosMenu, ChaosPlan, FaultKind};
