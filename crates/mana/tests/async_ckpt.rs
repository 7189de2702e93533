//! The asynchronous checkpoint split at the MANA layer: snapshot fast, flush in the
//! background — plus the acceptance scenario for torn async flushes (a job killed
//! mid-flush must restart from the newest *committed* generation) and the drain-loop
//! stall-clock regression tests.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::{CheckpointStorage, FlushHandle, FlusherPool};
use elastic::restart_job_from_storage;
use mana::ckpt::LocalDrainObserver;
use mana::{DrainObserver, DrainPlan, ManaConfig, ManaRank, Op, Session, StoragePolicy};
use mpi_engine::Backend;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use mpi_model::types::Rank;
use net_sim::clock;
use parking_lot::RwLock;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::CheckpointImage;
use std::sync::Arc;
use std::time::Duration;

fn launch_ranks(
    world: usize,
    session_id: u64,
    config: ManaConfig,
    registry: &Arc<RwLock<UserFunctionRegistry>>,
) -> Vec<ManaRank> {
    Backend::Mpich
        .launch(world, Arc::clone(registry), session_id)
        .expect("launch")
        .0
        .into_iter()
        .map(|lower| ManaRank::new(lower, config, Arc::clone(registry)).expect("wrap"))
        .collect()
}

const STATE: &str = "app.state";

fn incremental() -> ManaConfig {
    ManaConfig::new_design().with_storage(StoragePolicy::Incremental)
}

/// Quiesce and drain (collective), then freeze this rank's image.
fn freeze(rank: &mut ManaRank) -> MpiResult<CheckpointImage> {
    let plan = rank.begin_checkpoint()?;
    rank.drain_quiescent(&plan, &LocalDrainObserver::default())?;
    rank.complete_drain()?;
    rank.snapshot_checkpoint()
}

/// A standalone asynchronous checkpoint: freeze, announce the generation pending in
/// `storage`, and flush it there in the background.
fn checkpoint_async(
    rank: &mut ManaRank,
    pool: &FlusherPool,
    storage: &CheckpointStorage,
) -> MpiResult<FlushHandle> {
    let image = freeze(rank)?;
    storage.begin_generation(image.metadata.generation, rank.world_size());
    Ok(pool.submit_to(storage, rank.config().storage, image, |_| {}))
}

/// The standalone (coordinator-less) async path: freeze, then flush. The
/// generation commits through the store's own flush accounting once both ranks'
/// flushes land, the restarted job sees exactly the snapshotted state, and writes
/// made *after* the snapshot (while the flush was still in flight) never leak into
/// the frozen image.
#[test]
fn async_checkpoint_round_trips_through_restart() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let storage = CheckpointStorage::unmetered();
    let pool = Arc::new(FlusherPool::new(2));

    let ranks = launch_ranks(2, 1, incremental(), &registry);
    let pool_in_body = Arc::clone(&pool);
    let storage_in_body = storage.clone();
    job_runtime::run_world(ranks, move |_, rank| {
        let mut session = Session::new(rank);
        let me = session.world_rank();
        let world = session.world()?;
        let total = session.allreduce(&[me + 1], Op::sum(), world)?[0];
        session.upper_mut().store_json(STATE, &(me, total))?;
        let handle = checkpoint_async(session.rank_mut(), &pool_in_body, &storage_in_body)?;
        assert_eq!(handle.generation(), 0);
        // The rank is already back to computation; this write lands after the
        // freeze and must NOT appear in the checkpoint.
        session.upper_mut().store_json(STATE, &(me, total + 999))?;
        let report = handle.wait();
        assert!(report.written_bytes > 0);
        Ok(())
    })
    .unwrap();

    // Dropping the pool drains it.
    drop(pool);
    assert!(storage.pending_generations().is_empty());
    assert_eq!(storage.generations(), vec![0]);

    let lowers = Backend::Mpich
        .launch(2, Arc::clone(&registry), 2)
        .unwrap()
        .0;
    let (restored, generation) =
        restart_job_from_storage(lowers, &storage, None, incremental(), Arc::clone(&registry))
            .unwrap();
    assert_eq!(generation, 0);
    job_runtime::run_world(restored, |_, rank| {
        let session = Session::new(rank);
        let (me, total): (i32, i32) = session.upper().load_json(STATE)?;
        assert_eq!(me, session.world_rank());
        assert_eq!(total, 3, "the frozen snapshot, not the post-snapshot write");
        Ok(())
    })
    .unwrap();
}

/// A deep copy of a frozen upper half: its own buffers, none shared.
fn deep_copy(upper: &UpperHalfSpace) -> UpperHalfSpace {
    let mut copy = UpperHalfSpace::new();
    for (name, data) in upper.iter() {
        copy.map_region(name, data.to_vec());
    }
    copy.set_epoch(upper.epoch());
    copy
}

/// The freeze shares the live regions (copy-on-write) and the store keeps raw chunks
/// as windows of them, so an application write after the freeze must copy rather
/// than reach a queued flush. Generation 1 is frozen while the only flusher is held
/// inside generation 0's completion callback, then every live region is overwritten
/// before the flusher is released: both generations must read back bit-identical to
/// their frozen state, raw (windowed) and LZ chunks alike, under both policies.
#[test]
fn overwriting_every_region_before_the_flush_leaves_the_frozen_state() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    for policy in [
        StoragePolicy::Incremental,
        StoragePolicy::IncrementalCompressed,
    ] {
        let storage = CheckpointStorage::unmetered();
        let pool = FlusherPool::new(1);
        let config = ManaConfig::new_design().with_storage(policy);
        let mut rank = launch_ranks(1, 1, config, &registry)
            .pop()
            .expect("one rank");
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let noise: Vec<u8> = (0..256 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        rank.upper_mut().map_region("app.noise", noise);
        rank.upper_mut().map_region("app.runs", vec![7; 256 * 1024]);
        let overwrite = |rank: &mut ManaRank, fill: u8| {
            let names: Vec<String> = rank
                .upper()
                .region_names()
                .into_iter()
                .map(String::from)
                .collect();
            for name in names {
                rank.upper_mut()
                    .region_mut(&name)
                    .expect("mapped")
                    .fill(fill);
            }
        };

        let (release, held) = std::sync::mpsc::channel::<()>();
        let mut expected = Vec::new();
        let mut frozen = |rank: &mut ManaRank| {
            let image = freeze(rank).expect("freeze");
            storage.begin_generation(image.metadata.generation, 1);
            expected.push(deep_copy(&image.upper_half));
            image
        };
        let first = pool.submit_to(&storage, policy, frozen(&mut rank), move |_| {
            let _ = held.recv();
        });
        overwrite(&mut rank, 0x11);
        let second = pool.submit_to(&storage, policy, frozen(&mut rank), |_| {});
        overwrite(&mut rank, 0x22);
        release.send(()).expect("the flusher is held");
        first.wait();
        second.wait();
        assert_eq!(storage.generations(), vec![0, 1], "{policy:?}");
        for (generation, at_freeze) in expected.iter().enumerate() {
            let back = storage.read(generation as u64, 0).expect("committed");
            assert_eq!(
                &back.upper_half, at_freeze,
                "{policy:?}: generation {generation}"
            );
        }
        assert!(
            rank.upper()
                .iter()
                .all(|(_, data)| data.iter().all(|&b| b == 0x22)),
            "{policy:?}: the live state is the last overwrite"
        );
    }
}

/// **Acceptance scenario**: a job killed mid-flush. Generation 0 committed; the job
/// snapshots generation 1 but only rank 0's flush reaches storage before the "kill"
/// (rank 1's image never gets submitted). The half-flushed generation stays pending
/// — invisible and unreadable — and the restart selects the newest *committed*
/// generation, never the torn pending one.
#[test]
fn killed_mid_flush_restarts_from_newest_committed_generation() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let storage = CheckpointStorage::unmetered();
    let pool = FlusherPool::new(2);

    // Phase 1: a fully committed async generation 0, then freeze generation 1 on
    // both ranks and hand the frozen images back.
    let ranks = launch_ranks(2, 1, incremental(), &registry);
    let storage_in_body = storage.clone();
    let pool_world = Arc::new(pool);
    let pool_in_body = Arc::clone(&pool_world);
    let images: Vec<CheckpointImage> = job_runtime::run_world(ranks, move |_, rank| {
        let mut session = Session::new(rank);
        let me = session.world_rank();
        session.upper_mut().store_json(STATE, &(me, "gen0"))?;
        checkpoint_async(session.rank_mut(), &pool_in_body, &storage_in_body)?.wait();

        // The state the torn generation 1 would carry.
        session.upper_mut().store_json(STATE, &(me, "gen1"))?;
        let image = freeze(session.rank_mut())?;
        storage_in_body.begin_generation(image.metadata.generation, 2);
        Ok(image)
    })
    .unwrap();

    // Phase 2: the kill lands mid-flush — only rank 0's image reaches the flusher.
    assert_eq!(images[0].metadata.generation, 1);
    pool_world
        .submit_to(
            &storage,
            StoragePolicy::Incremental,
            images.into_iter().next().unwrap(),
            |_| {},
        )
        .wait();

    assert!(storage.is_pending(1), "generation 1 never commits");
    assert_eq!(storage.generations(), vec![0]);
    assert!(
        storage.read(1, 0).is_err(),
        "the half-flushed generation must not be readable, even piecewise"
    );
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 0);

    // Phase 3: restart — the job comes back on generation 0's state. The torn
    // pending round is aborted and forgotten (no dead-incarnation flush can still
    // be in flight: the one flush above was waited for).
    let lowers = Backend::Mpich
        .launch(2, Arc::clone(&registry), 2)
        .unwrap()
        .0;
    let (restored, generation) =
        restart_job_from_storage(lowers, &storage, None, incremental(), Arc::clone(&registry))
            .unwrap();
    assert_eq!(
        generation, 0,
        "newest committed generation, not the torn one"
    );
    assert!(
        storage.pending_generations().is_empty(),
        "restart clears the dead round's pending bookkeeping"
    );
    let storage_after = storage.clone();
    job_runtime::run_world(restored, move |_, rank| {
        let mut session = Session::new(rank);
        let (me, tag): (i32, String) = session.upper().load_json(STATE)?;
        assert_eq!(me, session.world_rank());
        assert_eq!(tag, "gen0");
        // The restored job reuses generation number 1 through the *synchronous*
        // path (which never announces a pending round): the stale abort
        // bookkeeping must not hide this legitimate checkpoint.
        session.upper_mut().store_json(STATE, &(me, "gen1-retry"))?;
        let report = session.rank_mut().checkpoint_into(&storage_after)?;
        assert_eq!(report.generation, 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(
        storage.latest_valid_generation(2).unwrap(),
        1,
        "the retried generation 1 is visible and restartable"
    );
}

/// An observer whose stamp never moves and whose stall budget is tiny: the drain
/// must declare the stall essentially *at* the budget (the final backoff sleep is
/// clamped to the remaining budget) and report the real elapsed wait, not a
/// rounded-down understatement.
struct FrozenObserver {
    budget: Duration,
}

impl DrainObserver for FrozenObserver {
    fn record_progress(&self, _rank: Rank, _messages: u64) {}

    fn progress_stamp(&self) -> u64 {
        0
    }

    fn stall_budget(&self) -> Duration {
        self.budget
    }
}

/// An observer whose failure detector has declared rank 0 dead: the drain must fail
/// fast — well inside the stall budget — and label the shortfall "peer dead", not
/// "peer slow".
struct DeadPeerObserver;

impl DrainObserver for DeadPeerObserver {
    fn record_progress(&self, _rank: Rank, _messages: u64) {}

    fn progress_stamp(&self) -> u64 {
        0
    }

    fn stall_budget(&self) -> Duration {
        Duration::from_secs(30)
    }

    fn dead_peers(&self) -> Vec<Rank> {
        vec![0]
    }
}

#[test]
fn drain_fails_fast_when_a_shortfall_peer_is_dead() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let mut ranks = launch_ranks(1, 1, incremental(), &registry);
    let mut rank = ranks.pop().unwrap();

    // Expect 2 messages from rank 0, which the detector says is dead.
    let plan = DrainPlan::synthetic(vec![2]);
    let start = clock::now();
    let err = rank.drain_quiescent(&plan, &DeadPeerObserver).unwrap_err();
    let elapsed = start.elapsed();

    assert!(
        elapsed < Duration::from_secs(5),
        "dead-peer drain must fail fast, not wait out the 30s stall budget \
         (took {elapsed:?})"
    );
    let message = format!("{err:?}");
    assert!(
        message.contains("peer dead: heartbeat expired"),
        "diagnostic must say the peer is dead, not slow: {message}"
    );
    assert!(!message.contains("peer slow"), "no slow label: {message}");
}

#[test]
fn drain_stall_fires_on_budget_and_reports_the_real_wait() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let mut ranks = launch_ranks(1, 1, incremental(), &registry);
    let mut rank = ranks.pop().unwrap();

    let budget = Duration::from_millis(100);
    // Expect 3 messages from rank 0 that were never sent: the drain can only stall.
    let plan = DrainPlan::synthetic(vec![3]);
    let start = clock::now();
    let err = rank
        .drain_quiescent(&plan, &FrozenObserver { budget })
        .unwrap_err();
    let elapsed = start.elapsed();

    assert!(
        elapsed >= budget,
        "stall declared before the budget elapsed"
    );
    assert!(
        elapsed < budget + Duration::from_millis(500),
        "stall declared far past the budget ({elapsed:?}); the final backoff sleep \
         must be clamped to the remaining budget"
    );

    let message = format!("{err:?}");
    assert!(message.contains("rank 0 is short 3 (expected 3, received 0; peer slow)"));
    assert!(
        message.contains("stall budget 0.100s"),
        "diagnostic must name the budget: {message}"
    );
    // The "after N.NNNs" figure is the *real* frozen wait, which can only be at or
    // past the budget — never the pre-fix understatement.
    let reported: f64 = message
        .split("after ")
        .nth(1)
        .and_then(|rest| rest.split("s without").next())
        .and_then(|seconds| seconds.parse().ok())
        .unwrap_or_else(|| panic!("no elapsed figure in {message}"));
    assert!(
        reported >= budget.as_secs_f64(),
        "reported wait {reported}s understates the budget"
    );
    assert!(
        reported <= elapsed.as_secs_f64() + 1e-3,
        "reported wait {reported}s exceeds the measured wall time"
    );
}
