//! Targeted self-healing scenarios, each pinning one leg of the
//! detect → abort-pending → fallback → relaunch → resume pipeline:
//!
//! - an **unhealed partition** injected mid-run is detected by the heartbeat
//!   monitor and recovered without operator involvement;
//! - a partition that **heals inside the deadline** is fully masked — zero
//!   recoveries, bit-identical results;
//! - a partition landing **during the commit round** strands survivors in the
//!   checkpoint's collectives; the abort discards the round and wakes them long
//!   before any barrier timeout;
//! - a **rank crash under the shared checkpoint service** aborts only the dead
//!   tenant's pending generations — a neighbor tenant's history is untouched.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use net_sim::clock;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ckpt_service::{CkptService, ServiceConfig};
use job_runtime::{
    Backend, ChaosPlan, FaultKind, HeartbeatMonitor, JobConfig, JobRuntime, RecoveryEventKind,
    RecoveryLog,
};
use mana::{Op, Session};
use mpi_model::error::MpiResult;
use net_sim::Fabric;

const WORLD: usize = 4;
const STEPS: u64 = 8;
const STATE: &str = "app.heal-state";

/// The same stateful fold as the chaos soak: any divergence — a stale restore, a
/// double-applied step, a lost message — avalanches into every rank's final value.
/// The short sleep stretches the run so a fault injected from the test thread
/// reliably lands mid-flight.
fn folding_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let n = session.world_size() as i32;
    let world = session.world()?;

    let mut state: u64 = if step == 0 {
        0xACC0_0000 + me as u64
    } else {
        session.upper().load_json(STATE)?
    };

    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    session.send(&[(state >> 16) as i32 ^ me], next, 13, world)?;
    let (payload, _) = session.recv::<i32>(4, prev, 13, world)?;
    let total = session.allreduce(&[(state >> 8) as i64], Op::sum(), world)?[0];

    state = state
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(total as u64)
        .wrapping_add(payload[0] as u64)
        .wrapping_add(step * 7 + me as u64);
    session.upper_mut().store_json(STATE, &state)?;
    clock::sleep(Duration::from_millis(3));
    Ok(state)
}

fn baseline() -> Vec<u64> {
    JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2))
        .run_steps(STEPS, folding_step)
        .unwrap()
        .results()
        .unwrap()
}

/// Run the self-healing driver on a worker thread and hand the adopted fabric to
/// `with_fabric` on the test thread as soon as the world is up.
fn run_with_live_fabric(
    runtime: Arc<JobRuntime>,
    with_fabric: impl FnOnce(&Fabric),
) -> (Vec<u64>, RecoveryLog) {
    let driver = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || runtime.run_steps_self_healing(STEPS, folding_step))
    };
    let deadline = clock::now() + Duration::from_secs(10);
    let fabric = loop {
        if let Some(fabric) = runtime.fabric() {
            break fabric;
        }
        assert!(clock::now() < deadline, "world never came up");
        clock::sleep(Duration::from_millis(1));
    };
    with_fabric(&fabric);
    let (run, log) = driver.join().unwrap().unwrap();
    (run.results().unwrap(), log)
}

#[test]
fn unhealed_partition_is_detected_and_recovered_without_an_operator() {
    let reference = baseline();
    let runtime = Arc::new(JobRuntime::new(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(2)
            .with_heartbeat_deadline(Duration::from_millis(100)),
    ));
    let (results, log) = run_with_live_fabric(Arc::clone(&runtime), |fabric| {
        // Cut rank 2 off for good: its heartbeats stop reaching the board, so
        // only the monitor can get this job moving again.
        fabric.inject_partition(&[2], None);
    });
    assert_eq!(results, reference, "recovery diverged from the baseline");
    assert!(log.recoveries() >= 1, "the partition was never detected");
    let declared: Vec<_> = log
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            RecoveryEventKind::RanksDeclaredDead { ranks, .. } => Some(ranks.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(
        declared.contains(&2),
        "rank 2 was partitioned but never declared dead: {declared:?}"
    );
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e.kind, RecoveryEventKind::FallbackRestored { .. })));
}

#[test]
fn partition_healing_inside_the_deadline_is_fully_masked() {
    let reference = baseline();
    let runtime = Arc::new(JobRuntime::new(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(2)
            .with_heartbeat_deadline(Duration::from_millis(250)),
    ));
    let (results, log) = run_with_live_fabric(Arc::clone(&runtime), |fabric| {
        // A 30 ms cut against a 250 ms deadline: a blip, not a failure.
        fabric.inject_partition(&[2], Some(Duration::from_millis(30)));
    });
    assert_eq!(
        results, reference,
        "a masked blip perturbed the computation"
    );
    assert_eq!(
        log.recoveries(),
        0,
        "a healed partition was treated as a failure"
    );
    assert!(!log
        .events()
        .iter()
        .any(|e| matches!(e.kind, RecoveryEventKind::RanksDeclaredDead { .. })));
}

/// A partition landing during the commit round: ranks 0 and 1 are already inside
/// the checkpoint's collective phases when rank 2 is cut off. The monitor's abort
/// must discard the round and wake the survivors within the heartbeat envelope —
/// not the 30 s commit-barrier timeout — and the job must relaunch clean.
#[test]
fn partition_during_the_commit_round_discards_it_and_wakes_survivors_fast() {
    let runtime = Arc::new(JobRuntime::new(JobConfig::new(3, Backend::Mpich)));
    let fabric_cell: Arc<OnceLock<Fabric>> = Arc::new(OnceLock::new());
    let log = RecoveryLog::new();
    let monitor_slot: Arc<Mutex<Option<HeartbeatMonitor>>> = Arc::new(Mutex::new(None));

    let driver = {
        let runtime = Arc::clone(&runtime);
        let fabric_cell = Arc::clone(&fabric_cell);
        let log = log.clone();
        let monitor_slot = Arc::clone(&monitor_slot);
        std::thread::spawn(move || {
            runtime.run(move |mut session, ctx| {
                let me = session.world_rank();
                let world = session.world()?;
                session.allreduce(&[me + 1], Op::sum(), world)?;
                session.upper_mut().store_json(STATE, &me)?;
                if me == 0 {
                    // Cut rank 2 off just before the checkpoint opens, then start
                    // the watchdog that must unwedge the round.
                    let fabric = loop {
                        if let Some(fabric) = fabric_cell.get() {
                            break fabric.clone();
                        }
                        clock::sleep(Duration::from_millis(1));
                    };
                    fabric.inject_partition(&[2], None);
                    let monitor = HeartbeatMonitor::spawn(
                        fabric,
                        Arc::clone(ctx.coordinator()),
                        log.clone(),
                        Duration::from_millis(100),
                        1,
                    );
                    monitor_slot.lock().unwrap().replace(monitor);
                } else if me == 2 {
                    // Enter the round late, so the cut is already up: ranks 0 and 1
                    // are parked in the checkpoint collectives waiting for us.
                    clock::sleep(Duration::from_millis(40));
                }
                ctx.checkpoint(&mut session)?;
                Ok(())
            })
        })
    };
    let deadline = clock::now() + Duration::from_secs(10);
    loop {
        if let Some(fabric) = runtime.fabric() {
            fabric_cell.set(fabric).ok();
            break;
        }
        assert!(clock::now() < deadline, "world never came up");
        clock::sleep(Duration::from_millis(1));
    }

    let started = clock::now();
    let outcome: MpiResult<Vec<()>> = driver.join().unwrap();
    let stranded_for = started.elapsed();
    assert!(
        outcome.is_err(),
        "a partitioned commit round must not succeed"
    );
    // Survivors were woken by the abort, not a 30 s barrier timeout.
    assert!(
        stranded_for < Duration::from_secs(10),
        "survivors stayed wedged for {stranded_for:?}"
    );

    let report = monitor_slot.lock().unwrap().take().unwrap().stop();
    assert_eq!(report.declared_dead, vec![2]);
    // The round was discarded whole: nothing published, nothing half-committed.
    assert_eq!(runtime.published_generation(), None);
    assert!(runtime.storage().pending_generations().is_empty());
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e.kind, RecoveryEventKind::WorldAborted { .. })));

    // The runtime is not poisoned by the discarded round: a clean relaunch works.
    let results = runtime
        .run(|mut session, _| {
            let world = session.world()?;
            Ok(session.allreduce(&[1], Op::<i32>::sum(), world)?[0])
        })
        .unwrap();
    assert_eq!(results, vec![3, 3, 3]);
}

/// A crash under the shared checkpoint service: the recovery aborts the dead
/// tenant's torn, half-flushed round — and *only* that tenant's. The neighbor's
/// committed history and restartability are untouched.
#[test]
fn crash_under_service_aborts_only_the_dead_tenants_pending_generations() {
    let reference = {
        JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2))
            .run_steps(STEPS, folding_step)
            .unwrap()
            .results()
            .unwrap()
    };

    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let chaotic = service.register_tenant("chaotic");
    let neighbor = service.register_tenant("neighbor");

    // The neighbor tenant commits a healthy history first.
    JobRuntime::with_service(
        JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2),
        neighbor.clone(),
    )
    .run_steps(6, folding_step)
    .unwrap();
    let neighbor_generations = neighbor.storage().generations();
    assert!(!neighbor_generations.is_empty());

    let runtime = JobRuntime::with_service(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(2)
            .with_async_checkpoint()
            .with_heartbeat_deadline(Duration::from_millis(120))
            .with_chaos(ChaosPlan::from_faults(vec![FaultKind::CrashRank {
                rank: 1,
                at_rank_op: 12,
            }])),
        chaotic.clone(),
    );
    // The torn round the kill leaves behind: a flush that began and will never
    // finish. (The simulated flusher daemons outlive a fabric-level kill, so the
    // mid-flush tear is staged explicitly on the dead tenant's view.)
    chaotic.storage().begin_generation(99, WORLD);
    chaotic.storage().note_rank_flushed(99, 0);
    assert_eq!(chaotic.storage().pending_generations(), vec![99]);

    let (run, log) = runtime.run_steps_self_healing(STEPS, folding_step).unwrap();
    assert_eq!(
        run.results().unwrap(),
        reference,
        "recovery under the service diverged from the baseline"
    );
    assert!(log.recoveries() >= 1, "the crash was never detected");

    // The dead tenant's torn round was aborted during fallback...
    assert!(chaotic.storage().pending_generations().is_empty());
    let aborted: Vec<u64> = log
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            RecoveryEventKind::PendingAborted { generations } => Some(generations.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(
        aborted.contains(&99),
        "the torn generation was not aborted: {aborted:?}"
    );
    // ...the job still finished with a committed history of its own...
    assert!(runtime.published_generation().is_some());

    // ...and the neighbor tenant was untouched: same generations, still
    // restartable end to end.
    assert_eq!(neighbor.storage().generations(), neighbor_generations);
    assert!(neighbor.storage().pending_generations().is_empty());
    let (_, images) = neighbor.storage().latest_valid_images(WORLD).unwrap();
    assert_eq!(images.len(), WORLD);
}
