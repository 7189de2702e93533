//! Workspace-level integration tests: the whole stack (proxy application → MANA
//! wrappers → simulated MPI implementation → simulated fabric → checkpoint store) run
//! end to end, across implementations and virtual-id designs.

use elastic::restart_job_from_storage;
use mana_repro::ckpt_store::CheckpointStorage;
use mana_repro::job_runtime::Backend;
use mana_repro::mana::{ManaConfig, Session, StoragePolicy};
use mana_repro::mana_apps::{run_app, AppId, AppReport, RunConfig};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use std::sync::Arc;

const RANKS: usize = 4;
const ITERATIONS: u64 = 6;

/// What one scaled-down run measured.
struct SmallScaleResult {
    /// Mean upper↔lower crossings per rank per timestep (the measured call mix).
    crossings_per_rank_per_iteration: f64,
    /// Checkpoint bytes physically written per rank (0 if no checkpoint was taken).
    ckpt_bytes_per_rank: u64,
    /// Logical (flat-image-equivalent) checkpoint payload per rank.
    ckpt_logical_bytes_per_rank: u64,
    /// Whether the restarted run finished with the uninterrupted run's checksums.
    restart_equivalent: bool,
}

fn run_config(iterations: u64, storage: Option<CheckpointStorage>) -> RunConfig {
    RunConfig {
        iterations,
        state_scale: 1e-4,
        checkpoint: storage.map(|storage| (iterations, storage)),
    }
}

/// Launch a fresh `RANKS`-rank job and run `app` on it under `run_config`.
fn run_job(
    factory: &dyn MpiImplementationFactory,
    mana: ManaConfig,
    app: AppId,
    run_config: RunConfig,
    session: u64,
    registry: &Arc<RwLock<UserFunctionRegistry>>,
) -> MpiResult<Vec<AppReport>> {
    let ranks = mana_repro::launch_mana_job_with_registry(
        factory,
        RANKS,
        mana,
        session,
        Arc::clone(registry),
    )?;
    job_runtime::run_world(ranks, move |_, rank| {
        run_app(app, &mut Session::new(rank), &run_config)
    })
}

/// Run `app` end to end. With `checkpoint_and_restart`, also run it again
/// interrupted: checkpoint halfway through the storage engine, restart on a fresh
/// lower half, finish, and compare against the uninterrupted run.
fn run_small_scale(
    app: AppId,
    factory: &dyn MpiImplementationFactory,
    mana: ManaConfig,
    checkpoint_and_restart: bool,
) -> MpiResult<SmallScaleResult> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let reference = run_job(
        factory,
        mana,
        app,
        run_config(ITERATIONS, None),
        11,
        &registry,
    )?;
    let crossings_per_rank =
        reference.iter().map(|r| r.crossings as f64).sum::<f64>() / reference.len() as f64;
    let mut result = SmallScaleResult {
        crossings_per_rank_per_iteration: crossings_per_rank / ITERATIONS as f64,
        ckpt_bytes_per_rank: 0,
        ckpt_logical_bytes_per_rank: 0,
        restart_equivalent: true,
    };
    if !checkpoint_and_restart {
        return Ok(result);
    }

    let storage = CheckpointStorage::unmetered();
    let halfway = ITERATIONS / 2;
    let first_half = run_job(
        factory,
        mana,
        app,
        run_config(halfway, Some(storage.clone())),
        12,
        &registry,
    )?;
    result.ckpt_bytes_per_rank = first_half
        .iter()
        .filter_map(|r| r.incremental.as_ref().map(|c| c.written_bytes as u64))
        .max()
        .unwrap_or(0);
    result.ckpt_logical_bytes_per_rank = first_half
        .iter()
        .filter_map(|r| r.incremental.as_ref().map(|c| c.logical_bytes as u64))
        .max()
        .unwrap_or(result.ckpt_bytes_per_rank);

    let new_lowers = factory.launch(RANKS, Arc::clone(&registry), 13)?;
    let (restarted, _generation) =
        restart_job_from_storage(new_lowers, &storage, None, mana, Arc::clone(&registry))?;
    let finish = run_config(ITERATIONS, None);
    let resumed = job_runtime::run_world(restarted, move |_, rank| {
        run_app(app, &mut Session::new(rank), &finish)
    })?;
    result.restart_equivalent = reference
        .iter()
        .zip(&resumed)
        .all(|(a, b)| a.checksum == b.checksum && b.iterations_completed == ITERATIONS);
    Ok(result)
}

#[test]
fn every_app_restarts_equivalently_on_mpich() {
    for mana in [
        ManaConfig::new_design(),
        ManaConfig::new_design().with_storage(StoragePolicy::Incremental),
    ] {
        for app in AppId::ALL {
            let result = run_small_scale(app, &Backend::Mpich, mana, true).unwrap();
            assert!(
                result.restart_equivalent,
                "{} must produce identical results across a checkpoint/restart under {:?}",
                app.name(),
                mana.storage
            );
            assert!(result.ckpt_bytes_per_rank > 0);
            assert!(result.ckpt_logical_bytes_per_rank >= result.ckpt_bytes_per_rank / 2);
            assert!(result.crossings_per_rank_per_iteration > 1.0);
        }
    }
}

#[test]
fn every_app_restarts_equivalently_on_openmpi() {
    for app in AppId::ALL {
        let result =
            run_small_scale(app, &Backend::OpenMpi, ManaConfig::new_design(), true).unwrap();
        assert!(
            result.restart_equivalent,
            "{} failed on Open MPI",
            app.name()
        );
    }
}

#[test]
fn exampi_runs_the_compatible_apps() {
    for app in [AppId::CoMd, AppId::Lulesh] {
        let result =
            run_small_scale(app, &Backend::ExaMpi, ManaConfig::new_design(), true).unwrap();
        assert!(result.restart_equivalent, "{} failed on ExaMPI", app.name());
    }
}

#[test]
fn legacy_virtid_design_still_works_on_the_mpich_family() {
    let result = run_small_scale(
        AppId::Lammps,
        &Backend::CrayMpi,
        ManaConfig::legacy_design(),
        true,
    )
    .unwrap();
    assert!(result.restart_equivalent);
}

#[test]
fn call_mix_ordering_matches_section_6_3() {
    // Per-iteration wrapped-call counts should order the applications the same way the
    // paper's context-switch rates do (LAMMPS most chatty, LULESH least).
    let mut per_iter = std::collections::HashMap::new();
    for app in AppId::ALL {
        let result =
            run_small_scale(app, &Backend::Mpich, ManaConfig::new_design(), false).unwrap();
        per_iter.insert(app, result.crossings_per_rank_per_iteration);
    }
    assert!(per_iter[&AppId::Lammps] > per_iter[&AppId::Lulesh]);
    assert!(per_iter[&AppId::Lammps] > per_iter[&AppId::CoMd]);
    assert!(per_iter[&AppId::Sw4] > per_iter[&AppId::Lulesh]);
    assert!(per_iter[&AppId::CoMd] > 5.0);
}

#[test]
fn subset_audit_matches_the_paper() {
    // All three implementations satisfy §5's required subset; only ExaMPI drops
    // optional features.
    for (factory, full_featured) in [
        (&Backend::Mpich as &dyn MpiImplementationFactory, true),
        (&Backend::OpenMpi, true),
        (&Backend::ExaMpi, false),
    ] {
        let ranks = mana_repro::launch_mana_job(factory, 1, ManaConfig::new_design(), 5).unwrap();
        let audit = ranks[0].audit_lower_half();
        assert!(audit.compatible(), "{} must host MANA", factory.name());
        let has_comm_dup = audit
            .optional_features
            .contains(&mpi_model::subset::SubsetFeature::CommDup);
        assert_eq!(has_comm_dup, full_featured, "{}", factory.name());
    }
}
