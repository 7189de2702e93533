//! Concurrent-checkpoint stress: 8 ranks checkpoint simultaneously through the
//! sharded store, repeatedly, with live point-to-point traffic — asserting that
//! generations never interleave and that restart lands on the newest fully-valid
//! generation — plus the two-phase collective stress: checkpoint intents and
//! preemptions landing *mid-step*, while ranks straddle an `allreduce` (some already
//! registered, others not yet entered).

use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::MpiResult;

const WORLD: usize = 8;
const STEPS: u64 = 4;

/// One step of the stress workload: a ring exchange, a reduction, and a
/// step-unique dirty region so every generation stores fresh private chunks.
fn stress_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let n = session.world_size() as i32;
    let world = session.world()?;

    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    session.send(&[me * 100 + step as i32], next, 7, world)?;
    let (payload, status) = session.recv::<i32>(16, prev, 7, world)?;
    assert_eq!(status.source, prev);
    assert_eq!(payload[0], prev * 100 + step as i32);

    let total = session.allreduce(&[1], Op::sum(), world)?[0];
    assert_eq!(total, n);

    // Aperiodic, rank- and step-dependent content: chunks are private to this
    // (rank, generation), so corruption injection always finds a fresh chunk.
    let scratch: Vec<u8> = (0..96 * 1024)
        .map(|i| {
            ((i as u64)
                .wrapping_add(me as u64 * 10_000_019)
                .wrapping_add(step * 97_001)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 24) as u8
        })
        .collect();
    session.upper_mut().map_region("app.scratch", scratch);
    Ok(step)
}

#[test]
fn eight_ranks_checkpoint_concurrently_without_interleaving() {
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(1));
    let run = runtime.run_steps(STEPS, stress_step).unwrap();
    assert!(!run.was_preempted());

    let storage = runtime.storage();
    // Every interval boundary committed one complete generation — no gaps, no
    // extras, no interleaving.
    assert_eq!(storage.generations(), (0..STEPS).collect::<Vec<_>>());
    for generation in 0..STEPS {
        assert_eq!(
            storage.ranks_in_generation(generation),
            (0..WORLD as i32).collect::<Vec<_>>(),
            "generation {generation} must hold all {WORLD} ranks"
        );
        for rank in 0..WORLD as i32 {
            storage
                .read(generation, rank)
                .unwrap_or_else(|e| panic!("generation {generation} rank {rank}: {e:?}"));
        }
    }
    // The published generation is the newest one, and only fully-committed
    // generations were ever published.
    assert_eq!(runtime.published_generation(), Some(STEPS - 1));
    // Every committed generation records the boundary it resumes from.
    for generation in 0..STEPS {
        assert_eq!(storage.resume_step(generation), Some(generation + 1));
    }

    // Tear the newest generation: restart must fall back to the newest generation
    // that validates end to end for the whole job.
    storage.corrupt_fresh_chunk(STEPS - 1, 3).unwrap();
    assert!(storage.read(STEPS - 1, 3).is_err());
    let (ranks, generation) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(generation, STEPS - 2, "torn newest generation skipped");
    assert_eq!(ranks.len(), WORLD);
    for rank in &ranks {
        assert_eq!(rank.generation(), STEPS - 1);
    }
}

/// The same stress shape resumed by a second `run_steps`: after the torn-generation
/// fallback, the job repeats the lost interval and still finishes with a complete
/// ledger.
#[test]
fn restart_after_torn_generation_completes_the_job() {
    let runtime = JobRuntime::new(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(1)
            .with_kill_at_step(3),
    );
    let run = runtime.run_steps(STEPS, stress_step).unwrap();
    assert!(run.was_preempted());
    assert_eq!(run.generation(), Some(2));

    // The vacated nodes tore the newest generation on the way down.
    runtime.storage().corrupt_fresh_chunk(2, 5).unwrap();

    let resumed = runtime.run_steps(STEPS, stress_step).unwrap();
    let results = resumed.results().unwrap();
    assert_eq!(results, vec![STEPS - 1; WORLD]);
    // Resumed from generation 1 (steps_at = 2), repeated steps 2..4, committing
    // generations 2 and 3 anew.
    assert_eq!(runtime.published_generation(), Some(3));
    for generation in 0..STEPS {
        assert_eq!(
            runtime.storage().ranks_in_generation(generation).len(),
            WORLD
        );
    }
}

/// A collective-only solver step (the shape of CG/allreduce-dominated proxies): the
/// per-rank state lives in the upper half, every step reads it, runs an `allreduce`
/// and an `allgather`, and only *after* the collectives mutates the state. The
/// pre-collective prefix is pure compute, so a mid-step checkpoint — which re-runs
/// the interrupted step from its beginning after a restart — reproduces the identical
/// execution.
fn collective_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank() as u64;
    let world = session.world()?;

    if step == 0 {
        session
            .upper_mut()
            .store_json("app.solver_state", &(me + 1))?;
    }
    let state: u64 = session.upper().load_json("app.solver_state")?;
    let local = state.wrapping_mul(step + 3) ^ me;

    let total = session.allreduce(&[local], Op::sum(), world)?[0];
    let digest = session
        .allgather(&[local], world)?
        .iter()
        .fold(0u64, |acc, &x| acc.rotate_left(7) ^ x);

    let next = state
        .wrapping_mul(31)
        .wrapping_add(total)
        .wrapping_add(digest);
    session.upper_mut().store_json("app.solver_state", &next)?;
    Ok(next)
}

/// Satellite regression: a (non-preempting) checkpoint intent arriving while ranks
/// straddle an `allreduce` neither deadlocks the drain nor interleaves generations —
/// even with periodic boundary checkpoints committing around it.
#[test]
fn mid_step_intent_straddling_an_allreduce_commits_cleanly() {
    let runtime = JobRuntime::new(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(1)
            .with_mid_step_checkpoint_at(2),
    );
    let run = runtime.run_steps(STEPS, stress_step).unwrap();
    assert!(!run.was_preempted());
    assert_eq!(run.results().unwrap(), vec![STEPS - 1; WORLD]);

    // Four boundary generations plus the mid-step one: five complete generations,
    // no gaps, no interleaving, every rank in every one.
    let storage = runtime.storage();
    assert_eq!(storage.generations(), (0..STEPS + 1).collect::<Vec<_>>());
    for generation in 0..STEPS + 1 {
        assert_eq!(
            storage.ranks_in_generation(generation),
            (0..WORLD as i32).collect::<Vec<_>>(),
            "generation {generation} must hold all {WORLD} ranks"
        );
    }
    assert_eq!(runtime.published_generation(), Some(STEPS));
    for generation in 0..STEPS + 1 {
        assert!(
            storage.resume_step(generation).is_some(),
            "generation {generation} records its resume step"
        );
    }
}

/// Acceptance criterion: an injected preemption landing mid-`allreduce` — rank 0 not
/// yet entered, its peers already registered — produces a restartable checkpoint.
/// The job resumes from the newest valid generation, re-executes the straddled
/// collective (the interrupted step is repeated from its beginning), and completes
/// with results identical to an uninterrupted run.
#[test]
fn preemption_mid_allreduce_resumes_with_identical_results() {
    const PREEMPT_STEP: u64 = 2;

    // Reference: the same workload, uninterrupted, in its own world and store.
    let reference = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich))
        .run_steps(STEPS, collective_step)
        .unwrap()
        .results()
        .unwrap();

    let runtime = JobRuntime::new(
        JobConfig::new(WORLD, Backend::Mpich).with_preempt_mid_step_at(PREEMPT_STEP),
    );
    let run = runtime.run_steps(STEPS, collective_step).unwrap();
    assert!(run.was_preempted(), "the mid-collective preemption fires");
    assert_eq!(
        run.generation(),
        Some(0),
        "the mid-step checkpoint is the only committed generation"
    );
    assert_eq!(
        runtime.storage().ranks_in_generation(0),
        (0..WORLD as i32).collect::<Vec<_>>(),
        "the straddled-collective generation must be complete for every rank"
    );

    let resumed = runtime.run_steps(STEPS, collective_step).unwrap();
    assert!(!resumed.was_preempted());
    let results = resumed.results().unwrap();
    assert_eq!(
        results, reference,
        "resuming through the straddled allreduce must reproduce the uninterrupted run"
    );
}
