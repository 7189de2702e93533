//! End-to-end scenarios for the coordinated job orchestrator: the quickstart,
//! cross-implementation-restart and preemptible-job stories, each expressed through
//! the single `JobRuntime` API — now handing every body a typed `Session` — and
//! exercised across the simulated MPI backends.

use ckpt_store::{CkptService, ServiceConfig, TenantQuota};
use job_runtime::{Backend, JobConfig, JobRuntime, RecoveryEventKind};
use mana::{Comm, Datatype, ManaConfig, Op, Session, StoragePolicy};
use mpi_model::error::MpiResult;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const STATE: &str = "app.state";

/// The quickstart story on every distinct backend: compute, take a coordinated
/// checkpoint, vacate, resume on a fresh session, and keep computing with the same
/// typed handles.
#[test]
fn quickstart_scenario_runs_on_all_backends() {
    for backend in Backend::DISTINCT {
        let runtime = JobRuntime::new(JobConfig::new(4, backend));
        runtime
            .run(|mut session, ctx| {
                let me = session.world_rank();
                let world = session.world()?;
                let int = session.datatype::<i32>()?;
                let total = session.allreduce(&[me + 1], Op::sum(), world)?[0];
                session
                    .upper_mut()
                    .store_json(STATE, &(me, total, world, int, Op::<i32>::sum()))?;
                let report = ctx.checkpoint(&mut session)?;
                assert!(report.written_bytes > 0);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{} phase 1: {e:?}", backend.name()));

        assert_eq!(runtime.published_generation(), Some(0));

        let restored = runtime.restart(backend).unwrap();
        let (results, generation) = runtime
            .run_restored(restored, |mut session, _ctx| {
                let me = session.world_rank();
                let (saved_me, saved_sum, world, _int, sum): (
                    i32,
                    i32,
                    Comm,
                    Datatype<i32>,
                    Op<i32>,
                ) = session.upper().load_json(STATE)?;
                assert_eq!(saved_me, me);
                // The saved typed handles still work on the brand-new lower half.
                Ok(session.allreduce(&[saved_sum], sum, world)?[0])
            })
            .unwrap_or_else(|e| panic!("{} phase 2: {e:?}", backend.name()));
        assert_eq!(generation, 0);
        let expected: i32 = (1..=4).sum::<i32>() * 4;
        assert!(results.iter().all(|&total| total == expected));
    }
}

/// Checkpoint under MPICH, resume the same job under Open MPI (and back) — the §9
/// cross-implementation restart as a one-argument switch on the orchestrator.
#[test]
fn cross_implementation_restart_onto_another_backend() {
    for (first, second) in [
        (Backend::Mpich, Backend::OpenMpi),
        (Backend::OpenMpi, Backend::Mpich),
    ] {
        let runtime = JobRuntime::new(JobConfig::new(3, first));
        runtime
            .run(|mut session, ctx| {
                let me = session.world_rank();
                let world = session.world()?;
                session.upper_mut().store_json(STATE, &(me, world))?;
                ctx.checkpoint(&mut session)?;
                Ok(session.implementation_name())
            })
            .unwrap();

        let restored = runtime.restart(second).unwrap();
        let (names, _generation) = runtime
            .run_restored(restored, |mut session, _ctx| {
                let (me, world): (i32, Comm) = session.upper().load_json(STATE)?;
                assert_eq!(me, session.world_rank());
                session.barrier(world)?;
                Ok(session.implementation_name())
            })
            .unwrap();
        assert!(names.iter().all(|&n| n == second.name()));
    }
}

/// The drain phase under the coordinator: traffic deliberately left in flight at the
/// checkpoint is buffered, survives the restart, and is delivered afterwards.
#[test]
fn inflight_messages_survive_a_coordinated_checkpoint() {
    let runtime = JobRuntime::new(JobConfig::new(2, Backend::Mpich));
    runtime
        .run(|mut session, ctx| {
            let me = session.world_rank();
            let world = session.world()?;
            session.upper_mut().store_json(STATE, &world)?;
            if me == 0 {
                for i in 0..10u8 {
                    session.send(&[i], 1, 5, world)?;
                }
            }
            ctx.checkpoint(&mut session)?;
            Ok(session.buffered_messages())
        })
        .unwrap();

    let restored = runtime.restart(Backend::Mpich).unwrap();
    let (buffered, _) = runtime
        .run_restored(restored, |mut session, _ctx| {
            let me = session.world_rank();
            let buffered = session.buffered_messages();
            let world: Comm = session.upper().load_json(STATE)?;
            if me == 1 {
                for i in 0..10u8 {
                    let (payload, status) = session.recv::<u8>(16, 0, 5, world)?;
                    assert_eq!(payload, vec![i]);
                    assert_eq!(status.source, 0);
                }
            }
            Ok(buffered)
        })
        .unwrap();
    assert_eq!(buffered, vec![0, 10]);
}

/// The preemptible-job story on every distinct backend: periodic coordinated
/// checkpoints, an injected preemption, and a resume that repeats only the steps
/// since the last committed generation.
#[test]
fn preemptible_job_scenario_runs_on_all_backends() {
    for backend in Backend::DISTINCT {
        let runtime = JobRuntime::new(
            JobConfig::new(3, backend)
                .with_checkpoint_every(2)
                .with_kill_at_step(5),
        );
        let step_fn = |session: &mut Session, step: u64| -> MpiResult<u64> {
            let world = session.world()?;
            let total = session.allreduce(&[1], Op::sum(), world)?[0];
            assert_eq!(total, 3);
            Ok(step)
        };

        let run = runtime.run_steps(8, step_fn).unwrap();
        assert!(run.was_preempted(), "{}: kill at step 5", backend.name());
        // Checkpoints committed after steps 2 and 4; step 5's work is lost.
        assert_eq!(run.generation(), Some(1));

        // A second run resumes from the store's newest committed generation.
        let resumed = runtime.run_steps(8, step_fn).unwrap();
        let results = resumed.results().unwrap();
        // Every rank ran its final step (step index 7).
        assert_eq!(results, vec![7, 7, 7]);
        // The resume re-ran steps 4..8 and committed the boundary-6 and -8 intervals.
        assert_eq!(runtime.published_generation(), Some(3));
    }
}

/// `run_steps_self_healing` drives through the preemption without caller
/// involvement, and without counting it as a recovery.
#[test]
fn self_healing_resumes_through_preemption() {
    let runtime = JobRuntime::new(
        JobConfig::new(2, Backend::Mpich)
            .with_checkpoint_every(3)
            .with_kill_at_step(4),
    );
    let (run, log) = runtime
        .run_steps_self_healing(9, |session, step| {
            let world = session.world()?;
            session.barrier(world)?;
            Ok(step)
        })
        .unwrap();
    assert!(!run.was_preempted());
    assert_eq!(run.results().unwrap(), vec![8, 8]);
    assert!(
        log.events().iter().any(|event| matches!(
            event.kind,
            RecoveryEventKind::JobCompleted {
                incarnations: 2,
                recoveries: 0
            }
        )),
        "one resume, no recovery charged"
    );
    // Boundary 3 committed generation 0 before the kill at 4; the resume repeated
    // step 3 from it and committed boundaries 6 and 9 as generations 1 and 2.
    assert_eq!(runtime.storage().generations(), vec![0, 1, 2]);
    assert_eq!(runtime.published_generation(), Some(2));
}

/// The storage policy flows from `ManaConfig` through the orchestrator: a job under
/// `IncrementalCompressed` writes less than its logical image from generation 1 on.
#[test]
fn incremental_policy_applies_through_the_orchestrator() {
    let runtime = JobRuntime::new(
        JobConfig::new(2, Backend::Mpich)
            .with_mana(ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed))
            .with_checkpoint_every(1),
    );
    let run = runtime
        .run_steps(3, |session, step| {
            if step == 0 {
                // A large region that stays clean after step 0.
                let bulk: Vec<u8> = (0..256 * 1024)
                    .map(|i| {
                        ((i as u64 + session.world_rank() as u64 * 7919)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            >> 24) as u8
                    })
                    .collect();
                session.upper_mut().map_region("app.bulk", bulk);
            }
            let world = session.world()?;
            session.barrier(world)?;
            Ok(())
        })
        .unwrap();
    assert!(!run.was_preempted());
    let stats = runtime.storage().stats();
    assert!(stats.manifest_count == 6, "3 generations x 2 ranks");
    // Generation 1 and 2 reuse the bulk chunks: the store holds far less than
    // 3 generations x 256 KiB per rank.
    assert!(stats.total_bytes() < 2 * 2 * 256 * 1024);
}

/// Every route a boundary checkpoint can take through the step driver — the
/// synchronous store, the same store flushed asynchronously through its own pool, a
/// service tenant whose submissions are admitted, a service tenant whose every
/// submission takes the synchronous fallback, and mid-step mode's boundary hook —
/// publishes every boundary generation, leaves nothing pending, stores the same
/// bytes, and computes the same results.
#[test]
fn async_checkpoint_publishes_every_boundary_generation() {
    const WORLD: usize = 4;
    let step_fn = |session: &mut Session, step: u64| -> MpiResult<i64> {
        if step == 0 {
            let bulk: Vec<u8> = (0..128 * 1024)
                .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as u8)
                .collect();
            session.upper_mut().map_region("app.bulk", bulk);
        }
        let me = session.world_rank() as i64;
        let world = session.world()?;
        Ok(session.allreduce(&[me + step as i64], Op::sum(), world)?[0])
    };
    let config = || JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2);
    let tenant = |max_in_flight_total: usize| {
        let service = CkptService::new(ServiceConfig {
            max_in_flight_total,
            ..ServiceConfig::default()
        })
        .unwrap();
        service.register_tenant_with("job", TenantQuota::default().with_max_in_flight(WORLD))
    };
    let routes = [
        ("sync store", JobRuntime::new(config())),
        (
            "own store, async",
            JobRuntime::new(config().with_async_checkpoint()),
        ),
        (
            "tenant, admitted",
            JobRuntime::with_service(config().with_async_checkpoint(), tenant(64)),
        ),
        (
            "tenant, sync fallback",
            JobRuntime::with_service(config().with_async_checkpoint(), tenant(0)),
        ),
        (
            "mid-step boundary hook",
            JobRuntime::new(config().with_checkpoint_mid_step()),
        ),
    ];

    let mut reference = None;
    for (route, runtime) in routes {
        let run = runtime.run_steps(6, step_fn).unwrap();
        assert!(!run.was_preempted(), "{route}");
        assert_eq!(run.generation(), Some(2), "{route}: boundaries 2/4/6");
        let storage = runtime.storage();
        assert!(
            storage.pending_generations().is_empty(),
            "{route}: every write landed and committed before the run returned"
        );
        let generations = storage.generations();
        assert_eq!(generations, vec![0, 1, 2], "{route}");
        // The ledger reads the job's store, from whichever world the runtime launches.
        let ledger = runtime
            .run(|_session, ctx| Ok(Arc::clone(ctx.coordinator().ledger())))
            .unwrap()
            .remove(0);
        let steps: Vec<_> = generations.iter().map(|&g| ledger.steps_at(g)).collect();
        assert_eq!(steps, vec![Some(2), Some(4), Some(6)], "{route}");
        let mut logical_bytes = 0;
        for &generation in &generations {
            let images = storage.read_job(generation, WORLD).unwrap();
            assert_eq!(images.len(), WORLD, "{route}: generation {generation}");
            logical_bytes += images
                .iter()
                .map(|image| image.upper_half.total_bytes())
                .sum::<usize>();
        }
        let stats = storage.stats();
        let observed = (
            run.results().unwrap(),
            steps,
            stats.manifest_count,
            logical_bytes,
            stats.total_bytes(),
        );
        match &reference {
            None => reference = Some(observed),
            Some(expected) => assert_eq!(&observed, expected, "{route} vs sync store"),
        }
    }
}

/// `len` bytes of xorshift noise from `seed`, which LZ cannot shrink.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed << 1 | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// The freeze shares the live regions and the store keeps raw chunks as windows of
/// them (copy-on-write), so a step that overwrites every region in place while the
/// previous boundary's flush is still in flight must not reach that flush. Every
/// committed generation must read back exactly as the application wrote its state at
/// that boundary — raw (windowed) and LZ chunks, through the job's private tenant and
/// through a shared service's tenant whose every submission takes the synchronous
/// fallback.
#[test]
fn overwrites_after_a_boundary_never_reach_its_generation() {
    const WORLD: usize = 2;
    const STEPS: u64 = 5;
    const BYTES: usize = 128 * 1024;
    fn seed(rank: i32, step: u64) -> u64 {
        ((rank as u64 + 1) << 32) | step
    }
    for rank in 0..WORLD as i32 {
        let streams: BTreeSet<Vec<u8>> = (0..STEPS)
            .map(|step| noise(seed(rank, step), BYTES))
            .collect();
        assert_eq!(
            streams.len(),
            STEPS as usize,
            "rank {rank}: every step must write its own app.noise, or a leak between \
             two generations could not show there"
        );
    }
    let step_fn = |session: &mut Session, step: u64| -> MpiResult<()> {
        let me = session.world_rank();
        let upper = session.upper_mut();
        if step == 0 {
            upper.map_region("app.noise", vec![0; BYTES]);
            upper.map_region("app.runs", vec![0; BYTES]);
        }
        upper
            .region_mut("app.noise")?
            .copy_from_slice(&noise(seed(me, step), BYTES));
        upper.region_mut("app.runs")?.fill(seed(me, step) as u8);
        Ok(())
    };
    let tenant_with_no_slots = || {
        let service = CkptService::new(ServiceConfig {
            max_in_flight_total: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        service.register_tenant_with("job", TenantQuota::default().with_max_in_flight(WORLD))
    };
    for policy in [
        StoragePolicy::Incremental,
        StoragePolicy::IncrementalCompressed,
    ] {
        let config = || {
            JobConfig::new(WORLD, Backend::Mpich)
                .with_mana(ManaConfig::new_design().with_storage(policy))
                .with_checkpoint_every(1)
                .with_async_checkpoint()
        };
        let routes = [
            ("private tenant", JobRuntime::new(config())),
            (
                "tenant, sync fallback",
                JobRuntime::with_service(config(), tenant_with_no_slots()),
            ),
        ];
        for (route, runtime) in routes {
            assert!(!runtime.run_steps(STEPS, step_fn).unwrap().was_preempted());
            let ledger = runtime
                .run(|_session, ctx| Ok(Arc::clone(ctx.coordinator().ledger())))
                .unwrap()
                .remove(0);
            let storage = runtime.storage();
            assert_eq!(
                storage.generations().len(),
                STEPS as usize,
                "{route}, {policy:?}"
            );
            for generation in storage.generations() {
                let steps = ledger.steps_at(generation).unwrap();
                let last = steps - 1;
                for image in storage.read_job(generation, WORLD).unwrap() {
                    let rank = image.metadata.rank;
                    let at = format!("{route}, {policy:?}: generation {generation}, rank {rank}");
                    let upper = &image.upper_half;
                    assert_eq!(
                        upper.region("app.noise").unwrap(),
                        noise(seed(rank, last), BYTES),
                        "{at}"
                    );
                    assert!(
                        upper
                            .region("app.runs")
                            .unwrap()
                            .iter()
                            .all(|&b| b == seed(rank, last) as u8),
                        "{at}"
                    );
                }
            }
        }
    }
}

/// A restart adopts the store's buffers: each restored region whose raw chunks tile
/// one stored buffer *is* that buffer. The restarted job overwrites every region in
/// place and checkpoints again; the restored generation, read from storage once more,
/// must still be exactly what the restart handed out.
#[test]
fn a_restarted_job_writing_in_place_leaves_its_restored_generation() {
    const WORLD: usize = 2;
    const BYTES: usize = 256 * 1024;
    for policy in [
        StoragePolicy::Incremental,
        StoragePolicy::IncrementalCompressed,
    ] {
        let runtime = JobRuntime::new(
            JobConfig::new(WORLD, Backend::Mpich)
                .with_mana(ManaConfig::new_design().with_storage(policy)),
        );
        runtime
            .run(|mut session, ctx| {
                let me = session.world_rank() as u64;
                let upper = session.upper_mut();
                upper.map_region("app.noise", noise(me + 1, BYTES));
                upper.map_region("app.runs", vec![me as u8 + 1; BYTES]);
                ctx.checkpoint(&mut session)?;
                Ok(())
            })
            .unwrap();

        let (ranks, generation) = runtime.restart(Backend::Mpich).unwrap();
        let restored: Vec<Vec<(String, Vec<u8>)>> = ranks
            .iter()
            .map(|rank| {
                let (_, noise) = rank
                    .upper()
                    .iter_shared()
                    .find(|(name, _)| *name == "app.noise")
                    .unwrap();
                assert!(
                    Arc::strong_count(noise) > 1,
                    "{policy:?}: the restored noise is the store's buffer"
                );
                rank.upper()
                    .iter()
                    .map(|(name, data)| (name.to_string(), data.to_vec()))
                    .collect()
            })
            .collect();
        assert!(restored.iter().all(|regions| regions.len() == 2));

        runtime
            .run_restored((ranks, generation), |mut session, ctx| {
                let upper = session.upper_mut();
                for name in ["app.noise", "app.runs"] {
                    upper.region_mut(name)?.fill(0xEE);
                }
                ctx.checkpoint(&mut session)?;
                Ok(())
            })
            .unwrap();

        let storage = runtime.storage();
        assert!(
            storage.generations().contains(&(generation + 1)),
            "{policy:?}"
        );
        let reread = storage.read_job(generation, WORLD).unwrap();
        for (image, regions) in reread.iter().zip(&restored) {
            for (name, bytes) in regions {
                assert_eq!(
                    image.upper_half.region(name).unwrap(),
                    &bytes[..],
                    "{policy:?}: rank {}, {name}",
                    image.metadata.rank
                );
            }
        }
        for image in storage.read_job(generation + 1, WORLD).unwrap() {
            for name in ["app.noise", "app.runs"] {
                let region = image.upper_half.region(name).unwrap();
                assert!(region.iter().all(|&b| b == 0xEE), "{policy:?}: {name}");
            }
        }
    }
}

/// A synchronous round whose commit barrier is poisoned fails on every rank and
/// leaves nothing behind: no pending entry, no manifest, nothing published. Rank 0
/// aborts before it enters the round, and rank 1 cannot pass the drain until rank 0
/// has entered, so both ranks find the barrier poisoned before they announce or
/// write.
#[test]
fn a_failed_synchronous_round_leaves_nothing_behind() {
    let runtime = JobRuntime::new(
        JobConfig::new(2, Backend::Mpich)
            .with_mana(ManaConfig::new_design().with_storage(StoragePolicy::Incremental)),
    );
    let failures = runtime
        .run(|mut session, ctx| {
            if session.world_rank() == 0 {
                ctx.coordinator().abort("injected before the round");
            }
            Ok(ctx
                .checkpoint(&mut session)
                .map(|_| ())
                .map_err(|error| error.to_string()))
        })
        .unwrap();
    for (rank, failure) in failures.iter().enumerate() {
        let message = failure.as_ref().unwrap_err();
        assert!(message.contains("job aborted"), "rank {rank}: {message}");
    }
    let storage = runtime.storage();
    assert!(storage.pending_generations().is_empty());
    assert_eq!(storage.stats().manifest_count, 0);
    assert_eq!(runtime.published_generation(), None);
}

/// Preemption with async flush: the job vacates at the kill boundary, the in-flight
/// flushes settle, and the resume restarts from the newest *committed* generation
/// — its first executed step is the boundary that generation records — with
/// bit-identical results.
#[test]
fn async_checkpoint_preemption_resumes_from_committed_generation() {
    let first_step = Arc::new(AtomicU64::new(u64::MAX));
    let seen = Arc::clone(&first_step);
    let step_fn = move |session: &mut Session, step: u64| -> MpiResult<i64> {
        seen.fetch_min(step, Ordering::Relaxed);
        let me = session.world_rank() as i64;
        let world = session.world()?;
        Ok(session.allreduce(&[me * 10 + step as i64], Op::sum(), world)?[0])
    };

    let runtime = JobRuntime::new(
        JobConfig::new(3, Backend::Mpich)
            .with_checkpoint_every(2)
            .with_kill_at_step(5)
            .with_async_checkpoint(),
    );
    let run = runtime.run_steps(8, step_fn.clone()).unwrap();
    assert!(run.was_preempted());
    // Boundaries 2 and 4 checkpointed before the kill at 5.
    assert_eq!(run.generation(), Some(1));
    assert!(runtime.storage().pending_generations().is_empty());

    first_step.store(u64::MAX, Ordering::Relaxed);
    let resumed = runtime.run_steps(8, step_fn.clone()).unwrap();
    assert!(!resumed.was_preempted());
    assert_eq!(
        first_step.load(Ordering::Relaxed),
        4,
        "the resume re-runs from generation 1's boundary, not from step 0"
    );
    assert_eq!(runtime.storage().generations(), vec![0, 1, 2, 3]);
    // A straight-through reference run must agree exactly.
    let reference = JobRuntime::new(JobConfig::new(3, Backend::Mpich))
        .run_steps(8, step_fn)
        .unwrap();
    assert_eq!(resumed.results().unwrap(), reference.results().unwrap());
}

/// A job without a service flushes through its own storage's pool. Dropping the
/// runtime while a free-form body's un-waited asynchronous checkpoint may still be in
/// flight loses nothing: the drop waits for the job's flushes, so once it returns the
/// generation has committed in the job's own storage and no flush is poisoned.
#[test]
fn dropping_the_runtime_lands_an_unwaited_async_checkpoint() {
    const WORLD: usize = 2;
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich));
    let storage = runtime.storage().clone();
    let handles = runtime
        .run(|mut session, ctx| {
            let fill = session.world_rank() as u8;
            session
                .upper_mut()
                .map_region("app.bulk", vec![fill; 1024 * 1024]);
            ctx.checkpoint_async(&mut session)
        })
        .unwrap();
    drop(runtime);
    assert_eq!(storage.generations(), vec![0]);
    assert!(storage.pending_generations().is_empty());
    assert_eq!(storage.read_job(0, WORLD).unwrap().len(), WORLD);
    for handle in handles {
        assert!(handle.is_flushed(), "rank {}", handle.rank());
        assert_eq!(handle.wait().generation, 0);
    }
}

/// Free-form bodies can take async checkpoints through `JobCtx::checkpoint_async`:
/// the handle reports the background write, and a resume restores the generation.
#[test]
fn jobctx_async_checkpoint_round_trips() {
    let runtime = JobRuntime::new(JobConfig::new(2, Backend::OpenMpi));
    runtime
        .run(|mut session, ctx| {
            let me = session.world_rank();
            let world = session.world()?;
            let total = session.allreduce(&[me + 1], Op::sum(), world)?[0];
            session.upper_mut().store_json(STATE, &(me, total, world))?;
            let handle = ctx.checkpoint_async(&mut session)?;
            assert_eq!(handle.generation(), 0);
            // The rank is free to compute here while the flush runs; the handle can
            // be awaited for the physical write report.
            let report = handle.wait();
            assert!(report.written_bytes > 0);
            Ok(())
        })
        .unwrap();
    assert_eq!(runtime.published_generation(), Some(0));

    let restored = runtime.restart(Backend::OpenMpi).unwrap();
    let (results, generation) = runtime
        .run_restored(restored, |mut session, _ctx| {
            let (me, total, world): (i32, i32, Comm) = session.upper().load_json(STATE)?;
            assert_eq!(me, session.world_rank());
            Ok(session.allreduce(&[total], Op::<i32>::sum(), world)?[0])
        })
        .unwrap();
    assert_eq!(generation, 0);
    assert_eq!(results, vec![6, 6], "(1+2)*2 on both ranks");
}

/// A job on MANA's default storage policy (`FullImage`) that rewrites 2 of its 16 regions between
/// checkpoints: the second checkpoint hashes exactly the rewritten regions, plus
/// each MANA region whose bytes the two ranks share once, and reads back as written.
#[test]
fn a_full_image_checkpoint_hashes_only_the_regions_written_since_the_last() {
    const WORLD: usize = 2;
    const REGIONS: u64 = 16;
    const BYTES: usize = 64 * 1024;
    const REWRITTEN: [u64; 2] = [4, 9];
    fn name(region: u64) -> String {
        format!("app.region{region:02}")
    }
    fn content(rank: i32, region: u64, round: u64) -> Vec<u8> {
        let round = if REWRITTEN.contains(&region) {
            round
        } else {
            0
        };
        noise((rank as u64 + 1) << 32 | region << 8 | round, BYTES)
    }
    let runtime =
        JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_mana(ManaConfig::default()));
    assert_eq!(runtime.config().mana.storage, StoragePolicy::FullImage);
    let reports = runtime
        .run(|mut session, ctx| {
            let me = session.world_rank();
            for region in 0..REGIONS {
                session
                    .upper_mut()
                    .map_region(name(region), content(me, region, 0));
            }
            let first = ctx.checkpoint(&mut session)?;
            for region in REWRITTEN {
                session
                    .upper_mut()
                    .region_mut(&name(region))?
                    .copy_from_slice(&content(me, region, 1));
            }
            Ok((first, ctx.checkpoint(&mut session)?))
        })
        .unwrap();
    // Nothing changes MANA's own state between the two checkpoints, so the second
    // maps the very buffers the first encoded, and the store proves them unchanged
    // as it does the untouched application regions. The exception is a MANA region
    // whose bytes both ranks share: the store holds its chunk as a window of one
    // rank's buffer, so the other rank, whichever lost that race, hashes it again.
    let seconds: Vec<_> = (0..WORLD)
        .map(|rank| {
            let generation = reports[rank].1.generation;
            runtime.storage().read(generation, rank as i32).unwrap()
        })
        .collect();
    let mana_region = |rank: usize, name: &str| seconds[rank].upper_half.region(name).unwrap();
    let shared_mana_bytes: usize = mana::ckpt::regions::ALL
        .into_iter()
        .filter(|name| mana_region(0, name) == mana_region(1, name))
        .map(|name| mana_region(0, name).len())
        .sum();
    let mana_hashed: usize = reports
        .iter()
        .map(|(_, second)| second.digested_bytes - REWRITTEN.len() * BYTES)
        .sum();
    assert_eq!(mana_hashed, shared_mana_bytes);
    for (rank, (first, second)) in reports.into_iter().enumerate() {
        assert_eq!(first.digested_bytes, first.logical_bytes, "rank {rank}");
        for (generation, round) in [(first.generation, 0), (second.generation, 1)] {
            let image = runtime.storage().read(generation, rank as i32).unwrap();
            for region in 0..REGIONS {
                assert_eq!(
                    image.upper_half.region(&name(region)).unwrap(),
                    content(rank as i32, region, round),
                    "rank {rank}, generation {generation}, region {region}"
                );
            }
        }
    }
}
