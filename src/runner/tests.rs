//! Scaled-down runs of the proxy applications through the whole stack: the
//! measured call mix, and a checkpoint/restart round trip through the storage
//! engine that must reproduce the uninterrupted run's checksums.

use crate::launch_mana_job_with_registry;
use ckpt_store::CheckpointStorage;
use elastic::restart_job_from_storage;
use job_runtime::Backend;
use mana::{ManaConfig, Session, StoragePolicy};
use mana_apps::{run_app, AppId, AppReport, RunConfig};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use std::sync::Arc;

const RANKS: usize = 2;
const ITERATIONS: u64 = 6;

fn run_config(iterations: u64, storage: Option<CheckpointStorage>) -> RunConfig {
    RunConfig {
        iterations,
        state_scale: 1e-4,
        checkpoint: storage.map(|storage| (iterations, storage)),
    }
}

fn run_job(
    factory: &dyn MpiImplementationFactory,
    ranks: usize,
    mana: ManaConfig,
    app: AppId,
    run_config: RunConfig,
    session: u64,
    registry: &Arc<RwLock<UserFunctionRegistry>>,
) -> MpiResult<Vec<AppReport>> {
    let ranks = launch_mana_job_with_registry(factory, ranks, mana, session, Arc::clone(registry))?;
    job_runtime::run_world(ranks, move |_, rank| {
        run_app(app, &mut Session::new(rank), &run_config)
    })
}

/// What a checkpoint/restart round trip wrote and whether it was transparent.
struct RoundTrip {
    /// Checkpoint bytes physically written per rank.
    ckpt_bytes_per_rank: u64,
    /// Logical (flat-image-equivalent) checkpoint payload per rank.
    ckpt_logical_bytes_per_rank: u64,
    /// Whether the restarted run finished with the uninterrupted run's checksums.
    restart_equivalent: bool,
}

/// Run `app` uninterrupted, then again with a checkpoint halfway through the
/// storage engine, a restart on a fresh lower half, and the rest of the run.
fn round_trip(
    app: AppId,
    factory: &dyn MpiImplementationFactory,
    mana: ManaConfig,
) -> MpiResult<RoundTrip> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let run = |iterations, storage, session| {
        run_job(
            factory,
            RANKS,
            mana,
            app,
            run_config(iterations, storage),
            session,
            &registry,
        )
    };
    let reference = run(ITERATIONS, None, 11)?;
    let storage = CheckpointStorage::unmetered();
    let first_half = run(ITERATIONS / 2, Some(storage.clone()), 12)?;
    let ckpt_bytes_per_rank = first_half
        .iter()
        .filter_map(|r| r.incremental.as_ref().map(|c| c.written_bytes as u64))
        .max()
        .unwrap_or(0);
    let ckpt_logical_bytes_per_rank = first_half
        .iter()
        .filter_map(|r| r.incremental.as_ref().map(|c| c.logical_bytes as u64))
        .max()
        .unwrap_or(ckpt_bytes_per_rank);

    let lowers = factory.launch(RANKS, Arc::clone(&registry), 13)?;
    let (restarted, _generation) =
        restart_job_from_storage(lowers, &storage, None, mana, Arc::clone(&registry))?;
    let finish = run_config(ITERATIONS, None);
    let resumed = job_runtime::run_world(restarted, move |_, rank| {
        run_app(app, &mut Session::new(rank), &finish)
    })?;
    let restart_equivalent = reference
        .iter()
        .zip(&resumed)
        .all(|(a, b)| a.checksum == b.checksum && b.iterations_completed == ITERATIONS);
    Ok(RoundTrip {
        ckpt_bytes_per_rank,
        ckpt_logical_bytes_per_rank,
        restart_equivalent,
    })
}

#[test]
fn small_scale_run_measures_crossings() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let iterations = 4;
    let reports = run_job(
        &Backend::Mpich,
        3,
        ManaConfig::new_design(),
        AppId::CoMd,
        run_config(iterations, None),
        21,
        &registry,
    )
    .unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|r| r.incremental.is_none()));
    let crossings_per_rank =
        reports.iter().map(|r| r.crossings as f64).sum::<f64>() / reports.len() as f64;
    assert!(crossings_per_rank / iterations as f64 > 5.0);
}

#[test]
fn checkpoint_restart_round_trip_is_equivalent() {
    let result = round_trip(AppId::Lammps, &Backend::OpenMpi, ManaConfig::new_design()).unwrap();
    assert!(
        result.restart_equivalent,
        "restart must not change the results"
    );
    assert!(result.ckpt_bytes_per_rank > 0);
}

#[test]
fn incremental_policy_round_trip_is_equivalent() {
    let result = round_trip(
        AppId::CoMd,
        &Backend::Mpich,
        ManaConfig::new_design().with_storage(StoragePolicy::Incremental),
    )
    .unwrap();
    assert!(
        result.restart_equivalent,
        "incremental restart must be transparent"
    );
    assert!(result.ckpt_bytes_per_rank > 0);
    assert!(result.ckpt_logical_bytes_per_rank >= result.ckpt_bytes_per_rank / 2);
}
