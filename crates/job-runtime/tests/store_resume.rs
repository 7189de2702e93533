//! A job resumes from its store alone: a runtime built for a new allocation over a
//! preempted job's store — through `with_storage` or as the same service tenant —
//! finishes it through `run_steps` with the results of the run that was never
//! interrupted, on every backend and through either sink. Also: a fallback restart
//! leaves its restored generation as the store's restart point, and a step-driven
//! start refuses a generation that records no resume step.

use ckpt_store::{CheckpointStorage, CkptService, ServiceConfig};
use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::{MpiError, MpiResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORLD: usize = 3;
const STEPS: u64 = 8;
const ACC: &str = "app.acc";

/// One step that carries state across steps in the upper half, so a resume that
/// restored the wrong generation, or resumed at the wrong step, shows in the result.
fn accumulate(session: &mut Session, step: u64) -> MpiResult<i64> {
    let me = session.world_rank() as i64;
    let world = session.world()?;
    let acc: i64 = if session.upper().contains(ACC) {
        session.upper().load_json(ACC)?
    } else {
        0
    };
    let total = session.allreduce(&[me * 10 + step as i64], Op::sum(), world)?[0];
    let acc = acc.wrapping_mul(31).wrapping_add(total);
    session.upper_mut().store_json(ACC, &acc)?;
    Ok(acc)
}

/// `accumulate`, recording the lowest step this run executed into `first`.
fn tracked(first: &Arc<AtomicU64>) -> impl Fn(&mut Session, u64) -> MpiResult<i64> + Send + Sync {
    first.store(u64::MAX, Ordering::Relaxed);
    let first = Arc::clone(first);
    move |session, step| {
        first.fetch_min(step, Ordering::Relaxed);
        accumulate(session, step)
    }
}

#[test]
fn a_second_runtime_over_a_preempted_jobs_store_finishes_it() {
    let first_step = Arc::new(AtomicU64::new(u64::MAX));
    for backend in Backend::DISTINCT {
        let reference = JobRuntime::new(JobConfig::new(WORLD, backend))
            .run_steps(STEPS, accumulate)
            .unwrap()
            .results()
            .unwrap();
        for async_flush in [false, true] {
            let config = || {
                let config = JobConfig::new(WORLD, backend).with_checkpoint_every(2);
                if async_flush {
                    config.with_async_checkpoint()
                } else {
                    config
                }
            };
            let storage = CheckpointStorage::unmetered();
            let tenant = CkptService::new(ServiceConfig::default())
                .unwrap()
                .register_tenant("job");
            for construction in ["with_storage", "with_service"] {
                let build = |config| match construction {
                    "with_storage" => JobRuntime::with_storage(config, storage.clone()),
                    _ => JobRuntime::with_service(config, tenant.clone()),
                };
                let at = format!("{}, async {async_flush}, {construction}", backend.name());
                let preempted = build(config().with_kill_at_step(5));
                let run = preempted.run_steps(STEPS, accumulate).unwrap();
                assert!(run.was_preempted(), "{at}");
                assert_eq!(run.generation(), Some(1), "{at}: boundaries 2 and 4");
                drop(preempted);

                // The new allocation knows nothing but the store.
                let resumed = build(config());
                let results = resumed
                    .run_steps(STEPS, tracked(&first_step))
                    .unwrap()
                    .results()
                    .unwrap();
                assert_eq!(results, reference, "{at}");
                assert_eq!(
                    first_step.load(Ordering::Relaxed),
                    4,
                    "{at}: resumed at generation 1's boundary"
                );
                assert_eq!(resumed.published_generation(), Some(3), "{at}");
            }
        }
    }
}

/// A fallback restart leaves its restored generation as the store's restart point:
/// it drops the torn newer generation it skipped, so a prune up to the torn one
/// protects the restored generation (it is the newest committed one), and the next
/// restart still finds it.
#[test]
fn a_fallback_restart_keeps_its_restored_generation_restartable() {
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(1));
    let step_fn = |session: &mut Session, step: u64| -> MpiResult<u64> {
        // Step-unique content, so every generation holds chunks of its own.
        let me = session.world_rank() as u64;
        let private: Vec<u8> = (0..32 * 1024u64)
            .map(|i| {
                ((i + me * 1_000_003 + step * 7_919).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
                    as u8
            })
            .collect();
        session.upper_mut().map_region("app.private", private);
        Ok(step)
    };
    runtime.run_steps(3, step_fn).unwrap();
    let storage = runtime.storage();
    assert_eq!(storage.generations(), vec![0, 1, 2]);

    storage.corrupt_fresh_chunk(2, 1).unwrap();
    let (_, restored) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(restored, 1);
    assert_eq!(
        storage.generations(),
        vec![0, 1],
        "the torn generation is dropped"
    );
    assert_eq!(runtime.published_generation(), Some(1));

    let report = storage.prune_before(2);
    assert_eq!(report.pruned, vec![0]);
    assert_eq!(report.retained, vec![1]);
    let (_, again) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(again, 1);
}

/// A free-form body's checkpoint records no resume step, so a step-driven start —
/// plain or self-healing — fails with a typed error naming the generation instead
/// of pairing its restored state with step 0.
#[test]
fn a_step_driven_start_refuses_a_generation_without_a_resume_step() {
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2));
    runtime
        .run(|mut session, ctx| {
            accumulate(&mut session, 0)?;
            ctx.checkpoint(&mut session)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(runtime.published_generation(), Some(0));

    let plain = runtime.run_steps(STEPS, accumulate).unwrap_err();
    let Err(healing) = runtime.run_steps_self_healing(STEPS, accumulate) else {
        panic!("a self-healing start resumed from a generation without a resume step");
    };
    for error in [plain, healing] {
        match error {
            MpiError::Checkpoint(message) => assert!(
                message.contains("generation 0") && message.contains("no resume step"),
                "{message}"
            ),
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
    }
}

/// A free-form body run over a store that already holds committed generations
/// numbers its checkpoint past them: it neither rewrites generation 0 nor leaves an
/// older generation as the restart point, so a restart brings back the body's state.
#[test]
fn a_free_form_run_over_a_used_store_checkpoints_past_its_generations() {
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(1));
    runtime.run_steps(3, accumulate).unwrap();
    assert_eq!(runtime.storage().generations(), vec![0, 1, 2]);

    const MARK: i64 = 0x5EED;
    let generations = runtime
        .run(|mut session, ctx| {
            let me = session.world_rank() as i64;
            session.upper_mut().store_json(ACC, &(MARK + me))?;
            Ok(ctx.checkpoint(&mut session)?.generation)
        })
        .unwrap();
    assert_eq!(
        generations,
        vec![3; WORLD],
        "numbered past the stored generations"
    );
    assert_eq!(runtime.published_generation(), Some(3));
    assert_eq!(runtime.storage().generations(), vec![0, 1, 2, 3]);
    assert_eq!(
        runtime.storage().resume_step(0),
        Some(1),
        "generation 0 keeps its resume record"
    );

    let (ranks, restored) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(restored, 3);
    for rank in &ranks {
        let acc: i64 = rank.upper().load_json(ACC).unwrap();
        assert_eq!(
            acc,
            MARK + rank.world_rank() as i64,
            "the body's state is back"
        );
    }
}
