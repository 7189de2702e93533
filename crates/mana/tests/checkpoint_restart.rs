//! End-to-end transparent checkpoint-restart tests for the MANA layer, written
//! against the typed session API.
//!
//! These are the behavioural claims of the paper, exercised across all three simulated
//! MPI implementations:
//!
//! * typed handles (wrapping virtual ids) held in application memory stay valid across
//!   a restart even though every physical handle and constant address in the new lower
//!   half is different;
//! * point-to-point messages that were in flight at checkpoint time are delivered
//!   after restart;
//! * communicators/datatypes/ops created before the checkpoint work after it;
//! * a checkpoint taken under one implementation can be restarted under another
//!   (the §9 "future work" scenario, possible here because nothing lower-half-specific
//!   is stored in the image).
//!
//! The standalone checkpoints here write full images (`StoragePolicy::FullImage`, the
//! paper's baseline: no dirty flag trusted, no clean-region reuse) into the
//! `ckpt-store` engine.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::CheckpointStorage;
use elastic::{restart_job, restart_job_from_storage, NoRepartition, RankMap};
use job_runtime::{run_world, Backend, JobConfig, JobRuntime};
use mana::ckpt::regions;
use mana::record::{CreationRecipe, ReplayEvent, ReplayLog};
use mana::{Comm, Datatype, ManaConfig, Op, Session, StoragePolicy, VirtualId};
use mpi_model::error::MpiError;
use mpi_model::types::{HandleKind, PhysHandle, ANY_SOURCE};
use serde::{Deserialize, Serialize};

/// Application state the "app" stores in its upper half: the typed handles it holds
/// and a little progress marker. Surviving serialization of *handles* is the point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AppState {
    world: Comm,
    row_comm: Comm,
    double_type: Datatype<f64>,
    sum_op: Op<i32>,
    iteration: u64,
}

const STATE_REGION: &str = "app.state";
const TAG_INFLIGHT: i32 = 99;
const TAG_NORMAL: i32 = 7;

/// Phase 1 of the scenario: build objects, do some traffic, leave one message in
/// flight, then checkpoint.
fn phase_before(mut session: Session, storage: &CheckpointStorage) -> (u64, usize) {
    let me = session.world_rank();
    let n = session.world_size() as i32;

    let world = session.world().unwrap();
    let double_type = session.datatype::<f64>().unwrap();
    let sum_op = Op::<i32>::sum();

    // Split the world into two "rows".
    let color = me % 2;
    let row_comm = session.comm_split(world, Some(color), me).unwrap();
    assert!(!row_comm.is_null());

    // Some completed traffic: an allreduce over the row communicator.
    let total = session.allreduce(&[me + 1], sum_op, row_comm).unwrap()[0];
    assert!(total > 0);

    // A normal send/recv ring on the world communicator.
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    session.send(&[me as f64], next, TAG_NORMAL, world).unwrap();
    let (data, status) = session.recv::<f64>(8, prev, TAG_NORMAL, world).unwrap();
    assert_eq!(status.source, prev);
    assert_eq!(data[0] as i32, prev);

    // Leave one message *in flight*: rank 0 sends to rank 1, but rank 1 will only
    // receive it after the restart. The checkpoint drain must preserve it.
    if me == 0 {
        session
            .send(&[1234.5, 678.9], 1, TAG_INFLIGHT, world)
            .unwrap();
    }

    // Stash the typed handles and progress in the upper half: this is the application
    // state the checkpoint must preserve.
    let state = AppState {
        world,
        row_comm,
        double_type,
        sum_op,
        iteration: 41 + me as u64,
    };
    session
        .upper_mut()
        .store_json(STATE_REGION, &state)
        .unwrap();

    let report = session.checkpoint_into(storage).unwrap();
    assert!(report.written_bytes > 0);
    (session.crossings(), session.buffered_messages())
}

/// Phase 2: after restart, recover the state, receive the in-flight message, and keep
/// computing with the pre-checkpoint typed handles.
fn phase_after(mut session: Session) {
    let me = session.world_rank();
    let state: AppState = session.upper().load_json(STATE_REGION).unwrap();
    assert_eq!(state.iteration, 41 + me as u64);

    // The saved typed handles still work, even though the lower half is brand new.
    assert_eq!(
        session.comm_size(state.world).unwrap(),
        session.world_size()
    );
    assert_eq!(session.comm_rank(state.world).unwrap(), me);
    let row_size = session.comm_size(state.row_comm).unwrap();
    let n = session.world_size();
    let expected_row = if me % 2 == 0 { n.div_ceil(2) } else { n / 2 };
    assert_eq!(row_size, expected_row);
    assert_eq!(session.type_size(state.double_type).unwrap(), 8);

    // The in-flight message arrives after restart.
    if me == 1 {
        let (payload, status) = session
            .recv::<f64>(8, ANY_SOURCE, TAG_INFLIGHT, state.world)
            .unwrap();
        assert_eq!(status.tag, TAG_INFLIGHT);
        assert_eq!(payload, vec![1234.5, 678.9]);
    }

    // Collectives over both surviving communicators still work.
    let total = session.allreduce(&[1], state.sum_op, state.world).unwrap()[0];
    assert_eq!(total as usize, session.world_size());
    let row_total = session
        .allreduce(&[1], state.sum_op, state.row_comm)
        .unwrap()[0];
    assert_eq!(row_total as usize, row_size);

    session.barrier(state.world).unwrap();
}

/// A runtime whose ranks write full images.
fn full_image_runtime(world_size: usize, backend: Backend, config: ManaConfig) -> JobRuntime {
    JobRuntime::new(
        JobConfig::new(world_size, backend)
            .with_mana(config.with_storage(StoragePolicy::FullImage)),
    )
}

fn run_scenario(first: Backend, second: Backend, config: ManaConfig, world_size: usize) {
    let runtime = full_image_runtime(world_size, first, config);
    let storage = CheckpointStorage::unmetered();

    // --- Run until the checkpoint under the first implementation. ---
    let storage_for_ranks = storage.clone();
    let results = runtime
        .run(move |session, _ctx| Ok(phase_before(session, &storage_for_ranks)))
        .unwrap();
    for (crossings, _buffered) in results {
        assert!(
            crossings > 0,
            "wrapped calls must cross into the lower half"
        );
    }

    // --- Restart under the second implementation (a brand-new session). ---
    assert!((0..world_size)
        .all(|r| storage.read(0, r as i32).unwrap().metadata.implementation == first.name()));
    let (new_lowers, _) = second.launch(world_size, runtime.registry(), 2).unwrap();
    let second_name = second.name();
    let (restarted, _) =
        restart_job_from_storage(new_lowers, &storage, None, config, runtime.registry()).unwrap();
    run_world(restarted, move |_, rank| {
        assert_eq!(rank.implementation_name(), second_name);
        phase_after(Session::new(rank));
        Ok(())
    })
    .unwrap();
}

#[test]
fn checkpoint_restart_on_mpich_new_virtid() {
    run_scenario(Backend::Mpich, Backend::Mpich, ManaConfig::new_design(), 4);
}

#[test]
fn checkpoint_restart_on_mpich_legacy_design() {
    run_scenario(
        Backend::Mpich,
        Backend::Mpich,
        ManaConfig::legacy_design(),
        4,
    );
}

#[test]
fn checkpoint_restart_on_openmpi() {
    run_scenario(
        Backend::OpenMpi,
        Backend::OpenMpi,
        ManaConfig::new_design(),
        4,
    );
}

#[test]
fn checkpoint_restart_on_craympi() {
    run_scenario(
        Backend::CrayMpi,
        Backend::CrayMpi,
        ManaConfig::new_design(),
        3,
    );
}

#[test]
fn cross_implementation_restart_mpich_to_openmpi() {
    // Checkpoint under MPICH, restart under Open MPI: nothing implementation-specific
    // survives in the image, so this works for applications inside the common subset.
    run_scenario(
        Backend::Mpich,
        Backend::OpenMpi,
        ManaConfig::new_design(),
        4,
    );
}

#[test]
fn cross_implementation_restart_openmpi_to_mpich() {
    run_scenario(
        Backend::OpenMpi,
        Backend::Mpich,
        ManaConfig::new_design(),
        2,
    );
}

#[test]
fn exampi_checkpoint_restart_within_subset() {
    // ExaMPI does not provide comm_dup/comm_create or user ops, but comm_split,
    // reductions and point-to-point are enough for the CoMD/LULESH-style workload this
    // scenario models.
    run_scenario(
        Backend::ExaMpi,
        Backend::ExaMpi,
        ManaConfig::new_design(),
        4,
    );
}

#[test]
fn multiple_checkpoint_generations() {
    let runtime = full_image_runtime(2, Backend::Mpich, ManaConfig::new_design());
    let storage = CheckpointStorage::unmetered();
    let storage_for_ranks = storage.clone();
    runtime
        .run(move |mut session, _ctx| {
            let world = session.world()?;
            for generation in 0..3u64 {
                let total = session.allreduce(&[1], Op::sum(), world)?[0];
                assert_eq!(total, 2);
                let report = session.checkpoint_into(&storage_for_ranks)?;
                assert!(report.written_bytes > 0);
                assert_eq!(session.generation(), generation + 1);
            }
            Ok(session.world_rank())
        })
        .unwrap();
    // Three generations of two ranks each.
    assert_eq!(storage.stats().manifest_count, 6);
    // The restart path works from the latest generation.
    let (new_lowers, _) = Backend::Mpich.launch(2, runtime.registry(), 9).unwrap();
    let (restarted, generation) = restart_job_from_storage(
        new_lowers,
        &storage,
        None,
        ManaConfig::new_design(),
        runtime.registry(),
    )
    .unwrap();
    assert_eq!(generation, 2);
    assert_eq!(restarted.len(), 2);
    assert_eq!(restarted[0].generation(), 3);
}

/// `restart_job` assembles the last rank on the calling thread and the others on
/// threads of their own: the ranks still come back in rank order, and when several
/// ranks fail the lowest rank's error is the one returned.
#[test]
fn restart_job_keeps_rank_order_and_reports_the_lowest_failing_rank() {
    let world_size = 3;
    let runtime = full_image_runtime(world_size, Backend::Mpich, ManaConfig::new_design());
    let storage = CheckpointStorage::unmetered();
    let storage_for_ranks = storage.clone();
    // No derived communicators: the creation replay makes no collective call, so a
    // rank whose peers fail early still finishes on its own.
    runtime
        .run(move |mut session, _ctx| session.checkpoint_into(&storage_for_ranks).map(|_| ()))
        .unwrap();
    // Rank r's replay fails on a dup of a communicator that was never created,
    // whose handle names r.
    let missing_parent = |rank: i32| VirtualId::new(HandleKind::Comm, false, 900 + rank as u32);
    let images = |broken: &[i32]| -> Vec<_> {
        (0..world_size as i32)
            .map(|r| {
                let mut image = storage.read(0, r).unwrap();
                if broken.contains(&r) {
                    let mut log: ReplayLog =
                        image.upper_half.load_json(regions::REPLAY_LOG).unwrap();
                    log.push(ReplayEvent {
                        recipe: CreationRecipe::CommDup {
                            parent: missing_parent(r),
                        },
                        vid: None,
                        freed: false,
                    });
                    image
                        .upper_half
                        .store_json(regions::REPLAY_LOG, &log)
                        .unwrap();
                }
                image
            })
            .collect()
    };
    let restart = |images, nonce| {
        let (lowers, _) = Backend::Mpich
            .launch(world_size, runtime.registry(), nonce)
            .unwrap();
        restart_job(
            lowers,
            images,
            &RankMap::identity(world_size).unwrap(),
            &NoRepartition,
            ManaConfig::new_design(),
            runtime.registry(),
        )
    };
    let failing_rank = |error: MpiError| match error {
        MpiError::InvalidHandle { handle, .. } => (0..world_size as i32)
            .find(|&r| handle == PhysHandle(missing_parent(r).bits() as u64))
            .unwrap_or_else(|| panic!("unexpected handle {handle:?}")),
        other => panic!("expected InvalidHandle, got {other:?}"),
    };

    // Images in any order come back as ranks in rank order.
    let mut shuffled = images(&[]);
    shuffled.reverse();
    let restarted = restart(shuffled, 2).unwrap();
    let order: Vec<i32> = restarted.iter().map(|rank| rank.world_rank()).collect();
    assert_eq!(order, vec![0, 1, 2]);

    // Ranks 0 and 1 fail on their own threads, rank 2 (inline) restarts fine, and
    // the error is rank 0's.
    assert_eq!(failing_rank(restart(images(&[1, 0]), 3).unwrap_err()), 0);
    // The inline rank's own failure is reported when it is the only one.
    assert_eq!(failing_rank(restart(images(&[2]), 4).unwrap_err()), 2);
    // A spawned rank's failure beats the inline rank's.
    assert_eq!(failing_rank(restart(images(&[1, 2]), 5).unwrap_err()), 1);
}

#[test]
fn drain_buffers_many_inflight_messages() {
    let runtime = JobRuntime::new(JobConfig::new(2, Backend::Mpich));
    // The coordinated checkpoint goes through the runtime's sharded engine store; the
    // drain behaviour under test is identical either way.
    runtime
        .run(move |mut session, ctx| {
            let me = session.world_rank();
            let world = session.world()?;
            // Rank 0 fires 20 messages that rank 1 never receives before the
            // checkpoint; the drain must buffer all of them, in order.
            if me == 0 {
                for i in 0..20u8 {
                    session.send(&[i], 1, 5, world)?;
                }
            }
            ctx.checkpoint(&mut session)?;
            if me == 1 {
                assert_eq!(session.buffered_messages(), 20);
                // And they are delivered, in FIFO order, by ordinary receives.
                for i in 0..20u8 {
                    let (payload, status) = session.recv::<u8>(16, 0, 5, world)?;
                    assert_eq!(payload, vec![i]);
                    assert_eq!(status.source, 0);
                }
                assert_eq!(session.buffered_messages(), 0);
            } else {
                assert_eq!(session.buffered_messages(), 0);
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn nonblocking_requests_survive_checkpoint() {
    let runtime = JobRuntime::new(JobConfig::new(2, Backend::OpenMpi));
    runtime
        .run(move |mut session, ctx| {
            let me = session.world_rank();
            let world = session.world()?;
            if me == 0 {
                let req = session.isend(&[42u8, 43], 1, 11, world)?;
                ctx.checkpoint(&mut session)?;
                let (payload, status) = req.wait(&mut session)?;
                assert!(payload.is_empty());
                assert_eq!(status.tag, 11);
            } else {
                // Post the irecv *before* the checkpoint; satisfy it afterwards.
                let req = session.irecv::<u8>(16, 0, 11, world)?;
                ctx.checkpoint(&mut session)?;
                let (payload, status) = req.wait(&mut session)?;
                assert_eq!(status.count_bytes, 2);
                assert_eq!(payload, vec![42, 43]);
            }
            Ok(())
        })
        .unwrap();
}
