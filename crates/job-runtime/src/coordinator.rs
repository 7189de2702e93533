//! The checkpoint coordinator: the job-level half of the paper's two-phase protocol.
//!
//! A [`Coordinator`] is shared by every rank thread of one launched world. It
//!
//! 1. **broadcasts checkpoint intent** — rank threads ask
//!    [`Coordinator::checkpoint_due`] at each step boundary, so a periodic interval or
//!    an injected request reaches all ranks at the same logical point;
//! 2. **observes the drain globally** — it implements [`mana::DrainObserver`], so a
//!    rank stays patient while *any* rank in the job is still draining, and the stall
//!    diagnostic fires only on true job-wide quiescence failure;
//! 3. **runs the commit barrier** — after the parallel per-rank writes, every rank
//!    arrives with the generation it wrote and waits until all have arrived (and
//!    agree). The store committed the generation inside the write that landed its
//!    last image, so it is never visible half-written (a restart falls back to the
//!    newest fully-valid one).

use ckpt_store::CheckpointStorage;
use mana::DrainObserver;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::Rank;
use net_sim::clock;
use net_sim::Fabric;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the drain may observe zero job-wide progress before declaring a stall.
/// On expiry the drain errors with a diagnostic naming every peer still owing
/// messages (and by how many) rather than hanging. The error itself is not
/// recoverable; under the self-healing loop a stall whose cause was a rank death is
/// recovered anyway, because the heartbeat monitor's declaration (not the stall)
/// marks the run recoverable.
const STALL_BUDGET: Duration = Duration::from_secs(5);

/// How long a rank parks at the commit barrier between looks at its fabric's
/// failure lane — the fabric's own wait slice.
const BARRIER_SLICE: Duration = Duration::from_millis(2);

/// The job's checkpoint ledger, read from its store: the newest committed generation
/// and the step each step-driven generation resumes from. It keeps nothing of its
/// own, so a runtime built later over the same store reads the same ledger.
#[derive(Debug)]
pub struct CommitLedger {
    storage: CheckpointStorage,
}

impl CommitLedger {
    /// The newest committed generation in the store, if any. A generation commits
    /// when the last rank's image lands, on any route.
    pub fn published_generation(&self) -> Option<u64> {
        self.storage.newest_committed()
    }

    /// The step committed `generation` resumes from (`None` when the checkpoint was
    /// taken outside a step-driven run, or the generation is not committed).
    pub fn steps_at(&self, generation: u64) -> Option<u64> {
        self.storage.resume_step(generation)
    }
}

struct BarrierState {
    round: u64,
    arrived: usize,
    generation: Option<u64>,
    /// Fold of the intent snapshots the arrivers of this round are servicing (the
    /// newest epoch wins). Published as `decided_intent` when the round completes,
    /// so every rank of the round acts on one agreed `(epoch, vacates)` decision —
    /// ranks whose own pre-checkpoint snapshot raced a fresh broadcast adopt the
    /// round's decision instead of their stale read.
    intent: Option<IntentSnapshot>,
    /// The intent decision of the most recently completed round (valid until every
    /// waiter of that round has left the barrier, which happens before any rank can
    /// re-arrive).
    decided_intent: Option<IntentSnapshot>,
    poisoned: Option<String>,
}

/// One atomically-read view of the broadcast checkpoint-intent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IntentSnapshot {
    /// Number of intents broadcast up to this snapshot.
    pub epoch: u64,
    /// Whether the newest broadcast intent asks ranks to vacate after committing.
    pub vacates: bool,
}

impl IntentSnapshot {
    fn decode(encoded: u64) -> Self {
        IntentSnapshot {
            epoch: encoded >> 1,
            vacates: encoded & 1 == 1,
        }
    }
}

/// Drives one launched world through coordinated checkpoints. Create one per world
/// (the barrier is sized to the world), share it via `Arc` with every rank thread.
pub struct Coordinator {
    world_size: usize,
    /// Total messages drained job-wide, ever — the global progress stamp.
    drained_total: AtomicU64,
    /// Periodic checkpoint interval in steps (0 = never).
    checkpoint_every: u64,
    /// The mid-step checkpoint-intent state, encoded as `(epoch << 1) | vacates` so
    /// a single atomic load yields a consistent [`IntentSnapshot`] — the epoch and
    /// its vacate flag can never be read torn. Ranks (through their mid-step
    /// checkpoint hook) compare the epoch against the one they last serviced.
    intent: AtomicU64,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// How long a rank waits at the commit barrier before declaring the job wedged
    /// (a peer died mid-checkpoint).
    barrier_timeout: Duration,
    /// The world's fabric, if it has one to show: a rank parked at the commit
    /// barrier keeps beating on it and watches it for its own death or an abort.
    fabric: Option<Fabric>,
    /// Ranks the failure detector has declared dead this incarnation. Feeds
    /// [`DrainObserver::dead_peers`], so a drain waiting on a dead peer fails fast
    /// ("peer dead: heartbeat expired") instead of burning the stall budget.
    dead: Mutex<BTreeSet<Rank>>,
    ledger: Arc<CommitLedger>,
}

impl Coordinator {
    /// A coordinator for a world of `world_size` ranks, committing into `storage`.
    pub fn new(
        world_size: usize,
        checkpoint_every: Option<u64>,
        storage: CheckpointStorage,
    ) -> Self {
        Coordinator {
            world_size,
            drained_total: AtomicU64::new(0),
            checkpoint_every: checkpoint_every.unwrap_or(0),
            intent: AtomicU64::new(0),
            barrier: Mutex::new(BarrierState {
                round: 0,
                arrived: 0,
                generation: None,
                intent: None,
                decided_intent: None,
                poisoned: None,
            }),
            barrier_cv: Condvar::new(),
            barrier_timeout: Duration::from_secs(30),
            fabric: None,
            dead: Mutex::new(BTreeSet::new()),
            ledger: Arc::new(CommitLedger { storage }),
        }
    }

    /// The fabric the world's ranks talk over. A rank parked at the commit barrier
    /// makes no fabric call, so without this it is as silent as a dead one — and a
    /// survivor waiting there for a killed peer is declared dead along with it.
    pub(crate) fn on_fabric(mut self, fabric: Option<Fabric>) -> Self {
        self.fabric = fabric;
        self
    }

    /// What every slice of a fabric wait does for a blocked rank, for one blocked
    /// here instead: beat, and fail if the rank was killed or the job aborted.
    fn tick_liveness(&self, rank: Rank) -> MpiResult<()> {
        let Some(fabric) = &self.fabric else {
            return Ok(());
        };
        fabric.beat(rank);
        if fabric.is_dead(rank) {
            return Err(MpiError::RankKilled { rank });
        }
        match fabric.abort_reason() {
            Some(reason) => Err(MpiError::JobAborted(reason)),
            None => Ok(()),
        }
    }

    /// Ranks in the world this coordinator drives.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// The ledger over the job's store.
    pub fn ledger(&self) -> &Arc<CommitLedger> {
        &self.ledger
    }

    // ------------------------------------------------------------------
    // Failure lane: detector declarations and the job-level abort
    // ------------------------------------------------------------------

    /// Record that the failure detector declared these ranks dead. From now on any
    /// drain whose shortfall involves one of them fails fast with a "peer dead"
    /// diagnostic instead of waiting out the stall budget.
    pub(crate) fn note_dead_ranks(&self, ranks: &[Rank]) {
        self.dead.lock().extend(ranks.iter().copied());
    }

    /// Ranks declared dead this incarnation, in rank order.
    pub fn dead_ranks(&self) -> Vec<Rank> {
        self.dead.lock().iter().copied().collect()
    }

    /// Abort the coordinated-checkpoint machinery: the commit barrier is poisoned
    /// with `reason`, failing every rank parked in a round that has not completed
    /// and every later arrival. Called by the failure detector the moment it declares ranks dead —
    /// a commit round can never complete once a member of the world is gone, and
    /// without the poison its survivors would sit out the full barrier timeout.
    /// Idempotent; an earlier poison reason wins.
    pub fn abort(&self, reason: &str) {
        let mut state = self.barrier.lock();
        self.poison(&mut state, format!("job aborted: {reason}"));
    }

    /// Poison the commit barrier (an earlier reason wins) and wake every waiter.
    fn poison(&self, state: &mut BarrierState, reason: String) {
        state.poisoned.get_or_insert(reason);
        self.barrier_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Phase 1: periodic checkpoint boundaries
    // ------------------------------------------------------------------

    /// Whether the job checkpoints at this step boundary (`boundary` = number of
    /// completed steps): the periodic interval divides it.
    pub fn checkpoint_due(&self, boundary: u64) -> bool {
        self.checkpoint_every > 0 && boundary > 0 && boundary.is_multiple_of(self.checkpoint_every)
    }

    // ------------------------------------------------------------------
    // Phase 1b: mid-step intent broadcast
    // ------------------------------------------------------------------

    /// Broadcast a checkpoint intent *now*, without waiting for a step boundary.
    /// Ranks running in mid-step mode ([`crate::JobConfig::checkpoint_mid_step`])
    /// service it at their next safe point — typically inside the registration phase
    /// of whatever collective they are approaching or parked in.
    pub(crate) fn request_checkpoint_now(&self) {
        self.raise_intent(false);
    }

    /// Broadcast a *preempting* checkpoint intent: once the resulting generation
    /// commits, every rank vacates its allocation (the injected "preemption notice
    /// lands mid-collective" scenario).
    pub(crate) fn request_preempting_checkpoint(&self) {
        self.raise_intent(true);
    }

    fn raise_intent(&self, vacates: bool) {
        // One atomic update advances the epoch and sets its vacate flag together,
        // so no reader can pair a new epoch with an old flag (or vice versa).
        let _ = self
            .intent
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |encoded| {
                Some((((encoded >> 1) + 1) << 1) | u64::from(vacates))
            });
    }

    /// The current intent epoch (number of mid-step intents broadcast so far).
    pub(crate) fn intent_epoch(&self) -> u64 {
        self.intent.load(Ordering::SeqCst) >> 1
    }

    /// A consistent snapshot of the intent state (one atomic load).
    pub(crate) fn intent_snapshot(&self) -> IntentSnapshot {
        IntentSnapshot::decode(self.intent.load(Ordering::SeqCst))
    }

    // ------------------------------------------------------------------
    // Phase 2b: commit barrier
    // ------------------------------------------------------------------

    /// Arrive at the commit barrier having durably written `generation` for this
    /// rank, and block until every rank of the world has arrived. Every rank wrote
    /// before it arrived, so the store has committed the generation by the time the
    /// barrier releases.
    ///
    /// `steps` must be `None`: the write that lands last commits the generation with
    /// its resume record, so steps are noted before the write
    /// ([`CheckpointStorage::note_resume_step`]). `Some` poisons the barrier.
    ///
    /// Ranks arriving with *different* generations poison the barrier for everyone —
    /// interleaved generations would mean the two-phase protocol was violated.
    pub fn commit(&self, rank: Rank, generation: u64, steps: Option<u64>) -> MpiResult<()> {
        if let Some(steps) = steps {
            let reason = format!(
                "rank {rank} brought {steps} completed steps to the commit barrier of \
                 generation {generation}; steps are noted before the write"
            );
            self.poison(&mut self.barrier.lock(), reason.clone());
            return Err(MpiError::Checkpoint(reason));
        }
        self.commit_inner(rank, generation, None).map(drop)
    }

    /// [`Coordinator::commit`] that also folds the arrivers' mid-step intent
    /// snapshots (newest epoch wins) and returns the *round's* decision to every
    /// rank that brought one — so ranks whose own snapshot raced a fresh broadcast
    /// still agree, unanimously, on which intent they serviced and whether it
    /// vacates.
    pub(crate) fn commit_inner(
        &self,
        rank: Rank,
        generation: u64,
        intent: Option<IntentSnapshot>,
    ) -> MpiResult<Option<IntentSnapshot>> {
        let mut state = self.barrier.lock();
        Self::open(&state, rank)?;
        match state.generation {
            None => state.generation = Some(generation),
            Some(expected) if expected != generation => {
                let reason = format!(
                    "rank {rank} committed generation {generation} while the round \
                     was committing generation {expected} — generations interleaved"
                );
                self.poison(&mut state, reason.clone());
                return Err(MpiError::Checkpoint(reason));
            }
            Some(_) => {}
        }
        // Fold the intent snapshots: the newest broadcast observed by any arriver is
        // the round's decision.
        state.intent = match (state.intent, intent) {
            (Some(a), Some(b)) => Some(if b.epoch > a.epoch { b } else { a }),
            (a, b) => a.or(b),
        };
        state.arrived += 1;
        if state.arrived == self.world_size {
            return Ok(self.release_round(&mut state));
        }
        let round = state.round;
        let deadline = clock::now() + self.barrier_timeout;
        while state.round == round && state.poisoned.is_none() {
            self.barrier_cv.wait_for(&mut state, BARRIER_SLICE);
            // Between slices, with the barrier unlocked, the rank shows it is alive
            // and looks for a reason to stop waiting.
            drop(state);
            let alive = self.tick_liveness(rank);
            state = self.barrier.lock();
            if state.round != round || state.poisoned.is_some() {
                break;
            }
            let failure = match alive {
                Err(error) => Some(error),
                Ok(()) if clock::now() >= deadline => Some(MpiError::Checkpoint(format!(
                    "commit barrier timed out after {:?} with {}/{} ranks arrived \
                     (a peer likely died mid-checkpoint)",
                    self.barrier_timeout, state.arrived, self.world_size
                ))),
                Ok(()) => None,
            };
            if let Some(error) = failure {
                // This rank arrived and will not be back: the round cannot complete.
                self.poison(&mut state, format!("rank {rank} left the barrier: {error}"));
                return Err(error);
            }
        }
        if state.round != round {
            // The round completed and its generation is published; a poison that
            // landed since belongs to later rounds. No later round can complete
            // before every waiter of this one has left, so the decision still stands.
            return Ok(state.decided_intent);
        }
        let reason = state.poisoned.as_deref().unwrap_or_default();
        Err(MpiError::Checkpoint(format!(
            "commit barrier poisoned while rank {rank} waited: {reason}"
        )))
    }

    /// Fail unless the commit barrier is open: a poisoned barrier fails every later
    /// arrival, so `rank` need not start a round that could only fail at it.
    pub(crate) fn ensure_open(&self, rank: Rank) -> MpiResult<()> {
        Self::open(&self.barrier.lock(), rank)
    }

    fn open(state: &BarrierState, rank: Rank) -> MpiResult<()> {
        match &state.poisoned {
            Some(reason) => Err(MpiError::Checkpoint(format!(
                "commit barrier poisoned before rank {rank} arrived: {reason}"
            ))),
            None => Ok(()),
        }
    }

    /// The last arriver's half of a round: every rank of the world has written the
    /// generation, so the store has committed it. Release every waiter with the
    /// round's intent decision.
    fn release_round(&self, state: &mut BarrierState) -> Option<IntentSnapshot> {
        let decided = state.intent.take();
        state.decided_intent = decided;
        state.arrived = 0;
        state.generation = None;
        state.round += 1;
        self.barrier_cv.notify_all();
        decided
    }

    // ------------------------------------------------------------------
    // Phase 2c: asynchronous flush commit (no barrier, nobody blocks)
    // ------------------------------------------------------------------

    /// Account one rank's landed background flush of `generation`, for a caller that
    /// drives the round's stages itself. `steps` is ignored: the store committed the
    /// generation with its resume record when its last image landed, so steps are
    /// noted before the write. Returns whether the store's newest committed
    /// generation has reached `generation`.
    pub fn note_flush_landed(&self, generation: u64, _steps: Option<u64>) -> bool {
        self.ledger
            .published_generation()
            .is_some_and(|newest| newest >= generation)
    }
}

impl DrainObserver for Coordinator {
    fn record_progress(&self, _rank: Rank, messages: u64) {
        self.drained_total.fetch_add(messages, Ordering::Relaxed);
    }

    fn progress_stamp(&self) -> u64 {
        self.drained_total.load(Ordering::Relaxed)
    }

    fn stall_budget(&self) -> Duration {
        STALL_BUDGET
    }

    fn dead_peers(&self) -> Vec<Rank> {
        self.dead_ranks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_store::StoragePolicy;
    use split_proc::address_space::UpperHalfSpace;
    use split_proc::image::{CheckpointImage, ImageMetadata};

    /// Announce `generation` pending for a `world`-rank job and note each of `steps`
    /// on its resume record, as a round does before its ranks write.
    fn announce(storage: &CheckpointStorage, generation: u64, world: usize, steps: &[u64]) {
        storage.begin_generation(generation, world);
        for &step in steps {
            storage.note_resume_step(generation, step);
        }
    }

    /// Land `rank`'s (empty) image of `generation` in a `world`-rank job.
    fn write(storage: &CheckpointStorage, generation: u64, world: usize, rank: Rank) {
        let metadata = ImageMetadata {
            rank,
            world_size: world,
            generation,
            implementation: "mpich".into(),
        };
        let image = CheckpointImage::new(metadata, UpperHalfSpace::new());
        storage.write_image(StoragePolicy::Incremental, &image);
    }

    /// A round every rank of which has written: the last write committed it.
    fn written(storage: &CheckpointStorage, generation: u64, world: usize, steps: &[u64]) {
        announce(storage, generation, world, steps);
        for rank in 0..world as Rank {
            write(storage, generation, world, rank);
        }
    }

    #[test]
    fn commit_barrier_publishes_once_per_complete_round() {
        let storage = CheckpointStorage::unmetered();
        let coordinator = Arc::new(Coordinator::new(2, Some(1), storage.clone()));
        let ledger = Arc::clone(coordinator.ledger());
        announce(&storage, 7, 2, &[3, 4]);
        write(&storage, 7, 2, 0);
        assert!(ledger.published_generation().is_none(), "one of two landed");
        // The write that lands last commits, before any rank reaches the barrier.
        write(&storage, 7, 2, 1);
        assert_eq!(ledger.published_generation(), Some(7));
        assert_eq!(ledger.steps_at(7), Some(3), "minimum step fold wins");
        let peer = Arc::clone(&coordinator);
        let handle = std::thread::spawn(move || peer.commit(1, 7, None));
        coordinator.commit(0, 7, None).unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(ledger.published_generation(), Some(7));
        // The barrier released its round: the next one starts from zero arrivals.
        assert_eq!(coordinator.barrier.lock().arrived, 0);
    }

    #[test]
    fn mismatched_generations_poison_the_commit_barrier() {
        let storage = CheckpointStorage::unmetered();
        let coordinator = Arc::new(Coordinator::new(2, None, storage.clone()));
        announce(&storage, 4, 2, &[]);
        write(&storage, 4, 2, 0);
        let peer = Arc::clone(&coordinator);
        let handle = std::thread::spawn(move || {
            // Let the main thread arrive first with generation 4.
            while peer.barrier.lock().arrived == 0 {
                std::thread::yield_now();
            }
            peer.commit(1, 5, None)
        });
        let mine = coordinator.commit(0, 4, None);
        let theirs = handle.join().unwrap();
        assert!(
            mine.is_err() && theirs.is_err(),
            "an interleaved generation must fail both ranks"
        );
        assert!(coordinator.ledger().published_generation().is_none());
    }

    #[test]
    fn abort_poisons_the_commit_barrier_and_wakes_waiters() {
        let storage = CheckpointStorage::unmetered();
        let coordinator = Arc::new(Coordinator::new(2, None, storage.clone()));
        // Rank 0 wrote; rank 1 died before it could.
        announce(&storage, 3, 2, &[]);
        write(&storage, 3, 2, 0);
        let peer = Arc::clone(&coordinator);
        let handle = std::thread::spawn(move || peer.commit(0, 3, None));
        // Let rank 0 park in the barrier, then the detector declares rank 1 dead.
        while coordinator.barrier.lock().arrived == 0 {
            std::thread::yield_now();
        }
        coordinator.note_dead_ranks(&[1]);
        coordinator.abort("rank 1 missed its heartbeat deadline");
        let waiter = handle.join().unwrap();
        let message = format!("{:?}", waiter.unwrap_err());
        assert!(
            message.contains("job aborted"),
            "poison reason lost: {message}"
        );
        // Later arrivals fail too, a round fails before it starts, and nothing was
        // ever published.
        assert!(coordinator.commit(1, 3, None).is_err());
        assert!(coordinator.ensure_open(1).is_err());
        assert!(coordinator.ledger().published_generation().is_none());
        assert_eq!(coordinator.dead_ranks(), vec![1]);
    }

    #[test]
    fn an_abort_after_the_round_completed_does_not_fail_its_waiters() {
        let storage = CheckpointStorage::unmetered();
        let coordinator = Arc::new(Coordinator::new(2, None, storage.clone()));
        written(&storage, 3, 2, &[5]);
        let peer = Arc::clone(&coordinator);
        let handle = std::thread::spawn(move || peer.commit(0, 3, None));
        while coordinator.barrier.lock().arrived == 0 {
            std::thread::yield_now();
        }
        {
            // One hold of the lock, so rank 0 cannot wake in between: rank 1's arrival
            // completes the round, then the detector's abort poisons the barrier.
            let mut state = coordinator.barrier.lock();
            coordinator.release_round(&mut state);
            coordinator.poison(&mut state, "job aborted".into());
        }
        // Failing rank 0 would have it abort a generation the store has committed.
        assert!(handle.join().unwrap().is_ok());
        let ledger = coordinator.ledger();
        assert_eq!(ledger.published_generation(), Some(3));
        assert_eq!(ledger.steps_at(3), Some(5));
        assert!(
            coordinator.commit(1, 4, None).is_err(),
            "later rounds are poisoned"
        );
    }

    /// Every rank's image landed, so the round committed; a barrier poisoned before
    /// the round released fails its ranks, and their abort leaves the commit alone.
    #[test]
    fn a_round_whose_images_all_landed_stays_committed_when_its_barrier_fails() {
        let storage = CheckpointStorage::unmetered();
        let coordinator = Arc::new(Coordinator::new(2, None, storage.clone()));
        written(&storage, 6, 2, &[9, 8]);
        let peer = Arc::clone(&coordinator);
        let handle = std::thread::spawn(move || peer.commit(0, 6, None));
        while coordinator.barrier.lock().arrived == 0 {
            std::thread::yield_now();
        }
        coordinator.abort("rank 1 missed its heartbeat deadline");
        assert!(handle.join().unwrap().is_err(), "the barrier failed");
        assert!(coordinator.commit(1, 6, None).is_err());
        // What a failed round does next: abort its generation. It is no longer
        // pending, so the abort releases nothing.
        let before = storage.stats();
        assert_eq!(storage.abort_generation(6), 0);
        assert_eq!(storage.stats(), before);
        let ledger = coordinator.ledger();
        assert_eq!(ledger.published_generation(), Some(6));
        assert_eq!(ledger.steps_at(6), Some(8));
        assert_eq!(storage.ranks_in_generation(6), vec![0, 1]);
        assert!(storage.pending_generations().is_empty());
    }

    /// A step brought to the barrier could miss the fold of a round its last write
    /// already committed, so it fails the round instead.
    #[test]
    fn a_step_brought_to_the_commit_barrier_fails_the_round() {
        let storage = CheckpointStorage::unmetered();
        let coordinator = Coordinator::new(2, None, storage.clone());
        written(&storage, 2, 2, &[6]);
        let message = format!("{:?}", coordinator.commit(1, 2, Some(4)).unwrap_err());
        assert!(message.contains("noted before the write"), "{message}");
        assert!(
            coordinator.commit(0, 2, None).is_err(),
            "its peers fail too"
        );
        assert_eq!(coordinator.ledger().steps_at(2), Some(6));
    }

    #[test]
    fn checkpoint_due_covers_interval_and_requests() {
        let coordinator = Coordinator::new(1, Some(3), CheckpointStorage::unmetered());
        assert!(!coordinator.checkpoint_due(0));
        assert!(!coordinator.checkpoint_due(2));
        assert!(coordinator.checkpoint_due(3));
        assert!(coordinator.checkpoint_due(6));
        assert!(!coordinator.checkpoint_due(5));
    }
}
