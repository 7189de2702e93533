//! Acceptance tests for elastic restart at the application layer: a job
//! checkpointed at `N` ranks restarts onto `M` ranks (shrunk and grown) and runs
//! to completion with results identical to the uninterrupted `N`-rank run.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::CheckpointStorage;
use elastic::{restart_job_from_storage, RemapPolicy, Repartition};
use mana::{ManaConfig, ManaRank, Session};
use mana_apps::{
    job_checksum, run_app_elastic, AppId, ElasticReport, RunConfig, SkeletonRepartition,
};
use mpi_engine::Backend;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use std::sync::Arc;

type Registry = Arc<RwLock<UserFunctionRegistry>>;

const ITERATIONS: u64 = 6;
const CKPT_AT: u64 = 3;

fn config(iterations: u64, checkpoint: Option<(u64, CheckpointStorage)>) -> RunConfig {
    RunConfig {
        iterations,
        state_scale: 1e-9,
        checkpoint,
    }
}

/// Launch a fresh `world`-rank job and run `app` elastically on every rank.
fn run_fresh(
    app: AppId,
    world: usize,
    registry: &Registry,
    session_id: u64,
    config: RunConfig,
) -> Vec<ElasticReport> {
    let lowers = Backend::Mpich
        .launch(world, registry.clone(), session_id)
        .unwrap()
        .0;
    let handles: Vec<_> = lowers
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let rank = ManaRank::new(lower, ManaConfig::new_design(), registry).unwrap();
                let mut session = Session::new(rank);
                run_app_elastic(app, &mut session, &config).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Resize the latest checkpoint in `storage` onto `new_world` ranks and run the
/// job to completion there.
fn run_resized(
    app: AppId,
    new_world: usize,
    registry: &Registry,
    session_id: u64,
    storage: &CheckpointStorage,
    repartition: &dyn Repartition,
    config: RunConfig,
) -> Vec<ElasticReport> {
    let lowers = Backend::Mpich
        .launch(new_world, registry.clone(), session_id)
        .unwrap()
        .0;
    let (ranks, _) = restart_job_from_storage(
        lowers,
        storage,
        Some((RemapPolicy::Block, repartition)),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|rank| {
            let config = config.clone();
            std::thread::spawn(move || {
                let mut session = Session::new(rank);
                run_app_elastic(app, &mut session, &config).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Checkpoint `app` at `CKPT_AT` on `n` ranks, resize onto `m` ranks, finish the
/// run there, and require the job checksum to be *exactly* the uninterrupted
/// `n`-rank answer.
fn assert_resized_matches_uninterrupted(app: AppId, n: usize, m: usize) {
    let registry: Registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let baseline = run_fresh(app, n, &registry, 1, config(ITERATIONS, None));
    let expected = job_checksum(&baseline);

    let storage = CheckpointStorage::unmetered();
    run_fresh(
        app,
        n,
        &registry,
        2,
        config(CKPT_AT, Some((CKPT_AT, storage.clone()))),
    );

    let finished = run_resized(
        app,
        m,
        &registry,
        3,
        &storage,
        &SkeletonRepartition::default(),
        config(ITERATIONS, None),
    );
    assert_eq!(finished.len(), m);
    assert_eq!(
        finished.iter().map(|r| r.iterations_completed).max(),
        Some(ITERATIONS)
    );
    let shard_total: usize = finished.iter().map(|r| r.shard_checksums.len()).sum();
    assert_eq!(shard_total, n, "every logical shard survives the resize");
    assert_eq!(
        job_checksum(&finished),
        expected,
        "{app:?} resized {n}->{m} diverged from the uninterrupted {n}-rank run"
    );
}

#[test]
fn comd_shrinks_from_8_to_6_with_identical_results() {
    assert_resized_matches_uninterrupted(AppId::CoMd, 8, 6);
}

#[test]
fn comd_grows_from_8_to_12_with_identical_results() {
    assert_resized_matches_uninterrupted(AppId::CoMd, 8, 12);
}

#[test]
fn hpcg_shrinks_from_8_to_6_with_identical_results() {
    assert_resized_matches_uninterrupted(AppId::Hpcg, 8, 6);
}

#[test]
fn hpcg_grows_from_8_to_12_with_identical_results() {
    assert_resized_matches_uninterrupted(AppId::Hpcg, 8, 12);
}

#[test]
fn comd_collapses_onto_a_single_rank() {
    assert_resized_matches_uninterrupted(AppId::CoMd, 4, 1);
}

#[test]
fn growth_without_rebalance_leaves_fresh_ranks_idle() {
    let registry: Registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let baseline = run_fresh(AppId::CoMd, 2, &registry, 1, config(ITERATIONS, None));
    let expected = job_checksum(&baseline);

    let storage = CheckpointStorage::unmetered();
    run_fresh(
        AppId::CoMd,
        2,
        &registry,
        2,
        config(CKPT_AT, Some((CKPT_AT, storage.clone()))),
    );

    let finished = run_resized(
        AppId::CoMd,
        4,
        &registry,
        3,
        &storage,
        &SkeletonRepartition { rebalance: false },
        config(ITERATIONS, None),
    );
    // Shards strictly follow the block rank map (old 0 -> new 0, old 1 -> new 2):
    // the two adopting ranks keep their shards, the two fresh ranks host nothing
    // until a rebalancing resize.
    for report in &finished {
        if report.rank == 0 || report.rank == 2 {
            assert_eq!(report.shard_checksums.len(), 1);
        } else {
            assert!(
                report.shard_checksums.is_empty(),
                "fresh rank {} unexpectedly hosts shards",
                report.rank
            );
        }
    }
    assert_eq!(job_checksum(&finished), expected);
}
