//! One coordinated checkpoint round, whatever it lands in: quiesce → drain → freeze
//! → sink.
//!
//! Every checkpoint the runtime takes — [`JobCtx::checkpoint`],
//! [`JobCtx::checkpoint_async`], a step-boundary checkpoint of the drive loop, and
//! a mid-step intent serviced inside a collective wrapper — is one call to
//! [`checkpoint_round`]. The MPI-level phases are the same for all of them, and so
//! is where the image goes: the job's one checkpoint-service tenancy. Only how it
//! gets there differs, and that is the [`Sink`], chosen once per run.
//!
//! The round announces the generation *pending* on the tenancy's storage, so a
//! half-written generation is never visible to readers nor mistaken for the newest
//! committed one by a concurrent `prune_before`, and hands the store the step the
//! generation resumes from; a round that fails after the announcement aborts the
//! generation, releasing whatever its ranks wrote. All three happen here and
//! nowhere else.
//!
//! [`JobCtx::checkpoint`]: crate::JobCtx::checkpoint
//! [`JobCtx::checkpoint_async`]: crate::JobCtx::checkpoint_async

use crate::coordinator::IntentSnapshot;
use crate::JobCtx;
use ckpt_store::FlushHandle;
use mana::{CheckpointIntercept, IntentOutcome, ManaRank};
use mpi_model::error::MpiResult;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a round's image reaches the job's tenancy.
#[derive(Clone, Copy)]
pub(crate) enum Sink {
    /// Write the live upper half in place into the tenancy's storage on the rank
    /// thread (no freeze copy), then arrive at the commit barrier. The last arriver
    /// commits the generation in storage once the barrier has seen every rank's
    /// write, and the write is metered against the tenancy afterwards.
    InPlace,
    /// Freeze the image and submit it through the tenancy's admission control. The
    /// rank returns at once; the worker that lands the last rank's image commits
    /// the generation, and nobody blocks on a barrier. A rejected submission is
    /// written synchronously on the rank thread — a checkpoint is never skipped —
    /// with the same barrier-free accounting: its peers may have been admitted and
    /// returned to computation already, so a rank waiting at a barrier for them
    /// would deadlock against flushes that only land later.
    Pool,
}

/// Run one rank through a coordinated checkpoint into `sink`. Collective: every
/// rank of the world calls it at the same logical point.
///
/// `steps` is the number of completed steps the checkpoint corresponds to (noted on
/// the generation's resume record, so a restart resumes the step counter from the
/// store alone). A rank servicing a
/// mid-step intent passes its pre-checkpoint `intent` snapshot; the commit barrier
/// folds those across the round and the round's decision comes back. Every route
/// returns a [`FlushHandle`]; a synchronous one is already complete.
pub(crate) fn checkpoint_round(
    rank: &mut ManaRank,
    ctx: &JobCtx,
    sink: Sink,
    steps: Option<u64>,
    intent: Option<IntentSnapshot>,
) -> MpiResult<(FlushHandle, Option<IntentSnapshot>)> {
    let coordinator = ctx.coordinator();
    let plan = rank.begin_checkpoint()?;
    rank.drain_quiescent(&plan, coordinator.as_ref())?;
    rank.complete_drain()?;
    let generation = rank.generation();
    let storage = ctx.storage();
    storage.begin_generation(generation, coordinator.world_size());
    if let Some(steps) = steps {
        storage.note_resume_step(generation, steps);
    }
    let delivered = deliver(rank, ctx, sink, intent);
    if delivered.is_err() {
        // A no-op if the generation already committed in storage.
        storage.abort_generation(generation);
    }
    delivered
}

fn deliver(
    rank: &mut ManaRank,
    ctx: &JobCtx,
    sink: Sink,
    intent: Option<IntentSnapshot>,
) -> MpiResult<(FlushHandle, Option<IntentSnapshot>)> {
    let service = &ctx.tenancy;
    let world_rank = rank.world_rank();
    match sink {
        Sink::InPlace => {
            let report = rank.write_checkpoint_into(service.storage())?;
            let decided = ctx
                .coordinator()
                .commit_inner(world_rank, report.generation, intent)?;
            service.note_external_write(&report);
            Ok((FlushHandle::ready(report), decided))
        }
        Sink::Pool => {
            let policy = rank.config().storage;
            let handle = match service.submit(policy, rank.snapshot_checkpoint()?) {
                Ok(handle) => handle,
                Err(rejected) => {
                    // The caller owns the accounting the flusher worker would have
                    // performed.
                    let report = service.write_sync_fallback(policy, &rejected.image);
                    service
                        .storage()
                        .note_rank_flushed(report.generation, world_rank);
                    FlushHandle::ready(report)
                }
            };
            Ok((handle, None))
        }
    }
}

/// One rank's mid-step checkpoint hook, installed when
/// [`JobConfig::checkpoint_mid_step`](crate::JobConfig::checkpoint_mid_step) is on.
///
/// The hook compares the coordinator's broadcast intent epoch against the epoch this
/// rank last serviced; when behind, the rank's collective wrappers service the intent
/// at their next safe point by running a [`Sink::InPlace`] round (recording
/// the step currently *in progress*, which a resume therefore re-runs) and, for a
/// preempting intent, unwinding with [`mpi_model::error::MpiError::Preempted`].
pub(crate) struct MidStepIntercept {
    ctx: JobCtx,
    /// The step this rank is currently executing (maintained by the drive loop).
    current_step: AtomicU64,
    /// The intent epoch this rank has serviced up to.
    serviced: AtomicU64,
}

impl MidStepIntercept {
    pub(crate) fn new(ctx: JobCtx) -> Self {
        MidStepIntercept {
            ctx,
            current_step: AtomicU64::new(0),
            serviced: AtomicU64::new(0),
        }
    }

    /// Record the step the owning rank is about to execute.
    pub(crate) fn enter_step(&self, step: u64) {
        self.current_step.store(step, Ordering::SeqCst);
    }
}

impl CheckpointIntercept for MidStepIntercept {
    fn intent_pending(&self) -> bool {
        self.ctx.coordinator().intent_epoch() > self.serviced.load(Ordering::SeqCst)
    }

    fn service(&self, rank: &mut ManaRank) -> MpiResult<IntentOutcome> {
        // One consistent snapshot of (epoch, vacates); the commit barrier then folds
        // every arriver's snapshot into a single round-wide decision, so ranks whose
        // snapshot raced a fresh broadcast still agree on what they serviced. This
        // checkpoint also stands in for any periodic boundary checkpoint due at the
        // same moment: the drive loop routes both through here in mid-step mode, so
        // intent-servicing ranks and boundary-checkpointing ranks always fold into
        // the same round instead of splitting the world across two.
        let already = self.serviced.load(Ordering::SeqCst);
        let snapshot = self.ctx.coordinator().intent_snapshot();
        // The checkpoint lands *inside* the current step (or exactly at a boundary,
        // where `current_step` equals the boundary): record the steps a resume may
        // safely assume completed.
        let steps = self.current_step.load(Ordering::SeqCst);
        let (_, decided) =
            checkpoint_round(rank, &self.ctx, Sink::InPlace, Some(steps), Some(snapshot))?;
        let decided = decided.unwrap_or(snapshot);
        self.serviced
            .store(decided.epoch.max(already), Ordering::SeqCst);
        // Vacate only on a *newly serviced* preempting intent — a stale vacate flag
        // from an intent this rank already acted on must not fire again when this
        // hook runs a plain periodic checkpoint.
        if decided.vacates && decided.epoch > already {
            Ok(IntentOutcome::Vacate)
        } else {
            Ok(IntentOutcome::Continue)
        }
    }
}
