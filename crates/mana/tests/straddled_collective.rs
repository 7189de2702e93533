//! Regression: a checkpoint intent serviced while a rank is parked in the
//! registration phase of a step's *second* collective. The serialized collective
//! ledger then carries a pending record for that second collective — and the restart
//! re-runs the interrupted step from its beginning, re-issuing the *first* collective
//! first. The pending record must therefore be cleared at restart (the re-issued
//! collectives receive their sequence numbers afresh); matching the first re-issued
//! call against the pending second-collective record would wrongly reject the replay
//! as divergent.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::CheckpointStorage;
use elastic::restart_job_from_storage;
use job_runtime::{run_world, Backend};
use mana::{
    CheckpointIntercept, CollectiveKind, IntentOutcome, LocalDrainObserver, ManaConfig, ManaRank,
    Op, Session,
};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use net_sim::Fabric;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WORLD: usize = 2;

/// The test intercept: `intent_pending` reads a flag the workload flips between its
/// two collectives (until this rank has serviced it), and `service` runs a full
/// standalone checkpoint, records what the rank's collective ledger held pending at
/// that moment, and continues or vacates as the test asks.
struct StraddleIntercept {
    intent: Arc<AtomicBool>,
    serviced: AtomicBool,
    outcome: IntentOutcome,
    storage: CheckpointStorage,
    pending_at_service: Arc<Mutex<Vec<Option<CollectiveKind>>>>,
}

impl CheckpointIntercept for StraddleIntercept {
    fn intent_pending(&self) -> bool {
        self.intent.load(Ordering::SeqCst) && !self.serviced.load(Ordering::SeqCst)
    }

    fn service(&self, rank: &mut ManaRank) -> MpiResult<IntentOutcome> {
        self.serviced.store(true, Ordering::SeqCst);
        self.pending_at_service
            .lock()
            .push(rank.collective_log().pending().map(|p| p.kind));
        let plan = rank.begin_checkpoint()?;
        rank.drain_quiescent(&plan, &LocalDrainObserver::default())?;
        rank.complete_drain()?;
        rank.write_checkpoint_into(&self.storage)?;
        Ok(self.outcome)
    }
}

/// The interrupted "step": an `allreduce` followed by an `allgather`, state mutation
/// only after both; `between` runs between the two. Returns the two collective results.
fn two_collective_step(session: &mut Session, between: impl FnOnce()) -> MpiResult<(u64, u64)> {
    let me = session.world_rank() as u64;
    let world = session.world()?;
    let local = me * 7 + 3;
    let total = session.allreduce(&[local], Op::sum(), world)?[0];
    between();
    let digest = session
        .allgather(&[local], world)?
        .iter()
        .fold(0u64, |acc, &x| acc.rotate_left(5) ^ x);
    Ok((total, digest))
}

fn launch(nonce: u64) -> (Vec<ManaRank>, Fabric) {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let (lowers, fabric) = Backend::Mpich
        .launch(WORLD, Arc::clone(&registry), nonce)
        .unwrap();
    let ranks = lowers
        .into_iter()
        .map(|lower| ManaRank::new(lower, ManaConfig::new_design(), Arc::clone(&registry)).unwrap())
        .collect();
    (ranks, fabric)
}

/// Run the step with a checkpoint intent landing while rank 1 is parked in the
/// allgather's registration phase, answered with `outcome`; then restart from the
/// generation that intent committed and re-run the whole step. Returns what the
/// interrupted ranks got out of the step (`None`: preempted).
fn straddle_the_second_collective(outcome: IntentOutcome) -> Vec<Option<(u64, u64)>> {
    let storage = CheckpointStorage::unmetered();
    let intent = Arc::new(AtomicBool::new(false));
    let pending_at_service = Arc::new(Mutex::new(Vec::new()));

    // Uninterrupted reference in its own world.
    let reference = run_world(launch(9).0, |_, rank| {
        two_collective_step(&mut Session::new(rank), || ())
    })
    .unwrap();

    // Interrupted run: once through its allreduce, rank 0 holds back until the
    // fabric reports a rank parking. The allreduce is complete by then, so every
    // park on its registration round or its exchange is already counted, and the one
    // rank 0 sees next is rank 1 inside the allgather's registration — it waits
    // there in intent-patience slices, parking afresh each time, so rank 0 sees a
    // park however far ahead rank 1 ran — and that is when the intent lands.
    // Pending record at rank 1: the *second* collective of the step.
    let (ranks, fabric) = launch(1);
    let interrupted = {
        let storage = storage.clone();
        let pending_at_service = Arc::clone(&pending_at_service);
        run_world(ranks, move |index, rank| {
            let mut session = Session::new(rank);
            session
                .rank_mut()
                .set_intercept(Arc::new(StraddleIntercept {
                    intent: Arc::clone(&intent),
                    serviced: AtomicBool::new(false),
                    outcome,
                    storage: storage.clone(),
                    pending_at_service: Arc::clone(&pending_at_service),
                }));
            let step = two_collective_step(&mut session, || {
                if index == 0 {
                    let parks = || fabric.stats().parks;
                    let before = parks();
                    while parks() == before {
                        std::thread::yield_now();
                    }
                    intent.store(true, Ordering::SeqCst);
                }
            });
            match step {
                Ok(results) => Ok(Some(results)),
                Err(MpiError::Preempted) => Ok(None),
                Err(error) => Err(error),
            }
        })
        .unwrap()
    };
    // Rank 0 services at the allgather's entry (nothing pending yet); rank 1 was
    // caught inside the second collective's registration phase.
    let pendings = pending_at_service.lock().clone();
    assert_eq!(pendings.len(), WORLD, "each rank services the intent once");
    assert!(
        pendings.contains(&None) && pendings.contains(&Some(CollectiveKind::Allgather)),
        "{pendings:?}"
    );

    // Restart from the straddled-collective generation — the one generation both
    // ranks committed — and re-run the whole step: the allreduce is re-issued
    // *first*, which must not trip over the restored pending allgather record.
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let (lowers, _) = Backend::Mpich
        .launch(WORLD, Arc::clone(&registry), 2)
        .unwrap();
    let (restored, generation) =
        restart_job_from_storage(lowers, &storage, None, ManaConfig::new_design(), registry)
            .unwrap();
    assert_eq!(generation, 0);
    assert_eq!(storage.generations(), vec![0]);
    for rank in &restored {
        assert!(
            rank.collective_log().pending().is_none(),
            "restart must clear the straddled pending record"
        );
    }
    let results = run_world(restored, |_, rank| {
        two_collective_step(&mut Session::new(rank), || ())
    })
    .unwrap();
    assert_eq!(
        results, reference,
        "the re-executed step must reproduce the uninterrupted run"
    );
    interrupted
        .into_iter()
        .zip(reference)
        .map(|(got, want)| got.inspect(|got| assert_eq!(*got, want)))
        .collect()
}

#[test]
fn straddling_the_second_collective_of_a_step_restarts_cleanly() {
    let outcomes = straddle_the_second_collective(IntentOutcome::Vacate);
    assert_eq!(outcomes, vec![None; WORLD], "both ranks vacate");
}

/// Checkpoint-and-continue through the same window: the parked rank withdraws,
/// services, re-registers, and the step finishes with the uninterrupted results.
#[test]
fn an_intent_landing_on_a_parked_registrant_is_serviced_and_the_step_resumes() {
    let outcomes = straddle_the_second_collective(IntentOutcome::Continue);
    assert!(outcomes.iter().all(Option::is_some), "{outcomes:?}");
}
