//! Integration tests for the implementation-oblivious property itself: the same
//! application-visible typed handles, the same MANA code paths, over handle regimes
//! as different as 32-bit table indices, 64-bit struct pointers, and
//! lazily-materialized shared pointers.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use mana_repro::job_runtime::Backend;
use mana_repro::mana::{ManaConfig, Op, Session};
use mana_repro::mpi_model::constants::{ConstantResolution, PredefinedObject};
use mana_repro::{launch_mana_job, run_ranks};
use mpi_model::api::MpiImplementationFactory;

/// The application-side logic is identical for every implementation; only the factory
/// changes. Returns (implementation name, world handle bits, sum result).
fn same_app_everywhere(factory: &dyn MpiImplementationFactory) -> Vec<(String, u64, i32)> {
    let ranks = launch_mana_job(factory, 3, ManaConfig::new_design(), 3).unwrap();
    run_ranks(ranks, |rank| {
        let mut session = Session::new(rank);
        let name = session.implementation_name().to_string();
        let world = session.world()?;
        let int = session.datatype::<i32>()?;
        let sub = session.comm_split(world, Some(session.world_rank() % 2), 0)?;
        let vec_type = session.rank_mut().type_vector(4, 2, 3, int.handle())?;
        session.rank_mut().type_commit(vec_type)?;
        assert_eq!(session.rank_mut().type_size(vec_type)?, 32);
        let total = session.allreduce(&[2], Op::sum(), sub)?[0];
        session.rank_mut().type_free(vec_type)?;
        Ok((name, world.handle().0, total))
    })
    .unwrap()
}

#[test]
fn identical_application_code_runs_on_all_three_implementations() {
    let mpich = same_app_everywhere(&Backend::Mpich);
    let openmpi = same_app_everywhere(&Backend::OpenMpi);
    let exampi = same_app_everywhere(&Backend::ExaMpi);
    for results in [&mpich, &openmpi, &exampi] {
        // 3 ranks: even row has 2 members (sum 4), odd row has 1 (sum 2).
        assert_eq!(results[0].2, 4);
        assert_eq!(results[1].2, 2);
        assert_eq!(results[2].2, 4);
    }
    assert_eq!(mpich[0].0, "mpich");
    assert_eq!(openmpi[0].0, "openmpi");
    assert_eq!(exampi[0].0, "exampi");
    // The *virtual* world handle the application sees is identical across
    // implementations — that is the oblivious property: the wildly different physical
    // handle regimes below never leak upward.
    assert_eq!(mpich[0].1, openmpi[0].1);
    assert_eq!(mpich[0].1, exampi[0].1);
}

#[test]
fn physical_constant_regimes_really_do_differ_underneath() {
    // Sanity check that the obliviousness above is not vacuous: the lower halves do
    // disagree about what MPI_COMM_WORLD is.
    let probe = |factory: &dyn MpiImplementationFactory, session| {
        let mut lowers = factory
            .launch(
                1,
                std::sync::Arc::new(parking_lot::RwLock::new(
                    mpi_model::op::UserFunctionRegistry::new(),
                )),
                session,
            )
            .unwrap();
        (
            lowers[0].constant_resolution(),
            lowers[0]
                .resolve_constant(PredefinedObject::CommWorld)
                .unwrap(),
        )
    };
    let (mpich_res, mpich_world) = probe(&Backend::Mpich, 1);
    let (ompi_res, ompi_world_a) = probe(&Backend::OpenMpi, 1);
    let (_, ompi_world_b) = probe(&Backend::OpenMpi, 2);
    let (exampi_res, _) = probe(&Backend::ExaMpi, 1);

    assert_eq!(mpich_res, ConstantResolution::CompileTimeInteger);
    assert_eq!(ompi_res, ConstantResolution::StartupResolvedPointer);
    assert_eq!(exampi_res, ConstantResolution::LazySharedPointer);
    assert!(mpich_world.bits() <= u32::MAX as u64);
    assert!(ompi_world_a.bits() > u32::MAX as u64);
    assert_ne!(
        ompi_world_a, ompi_world_b,
        "Open MPI constants move between sessions"
    );
}
