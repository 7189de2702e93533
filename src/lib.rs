//! # mana-repro
//!
//! Workspace root for the Rust reproduction of *"Implementation-Oblivious Transparent
//! Checkpoint-Restart for MPI"* (SC 2023). This crate re-exports the workspace's
//! public surface and provides the small amount of glue the examples and integration
//! tests share: launching a MANA-wrapped job of rank threads on any of the simulated
//! MPI implementations.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `benchmark/README.md` for what is measured and how.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ckpt_service;
pub use ckpt_store;
pub use job_runtime;
pub use mana;
pub use mana_apps;
pub use mpi_engine;
pub use mpi_model;
pub use net_sim;
pub use split_proc;

/// The Rust snippets of the repository's documents, compiled and run as doctests so
/// that none of them can name an API that no longer exists.
#[cfg(doctest)]
mod doc_snippets {
    #[doc = include_str!("../README.md")]
    struct Readme;

    #[doc = include_str!("../DESIGN.md")]
    struct Design;

    #[doc = include_str!("../docs/RUNBOOK.md")]
    struct Runbook;
}

use mana::{ManaConfig, ManaRank};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use std::sync::Arc;

/// Launch a fresh MANA-wrapped job: one [`ManaRank`] per rank, all sharing a fabric of
/// the chosen MPI implementation.
///
/// The returned ranks are intended to be moved onto one thread each (MPI ranks are
/// processes; here they are threads), exactly as the examples do.
pub fn launch_mana_job(
    factory: &dyn MpiImplementationFactory,
    world_size: usize,
    config: ManaConfig,
    session: u64,
) -> MpiResult<Vec<ManaRank>> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    launch_mana_job_with_registry(factory, world_size, config, session, registry)
}

/// Like [`launch_mana_job`], but sharing an existing user-function registry (needed
/// when the application registers user-defined reduction operations that must survive
/// a restart).
pub fn launch_mana_job_with_registry(
    factory: &dyn MpiImplementationFactory,
    world_size: usize,
    config: ManaConfig,
    session: u64,
    registry: Arc<RwLock<UserFunctionRegistry>>,
) -> MpiResult<Vec<ManaRank>> {
    let lowers = factory.launch(world_size, Arc::clone(&registry), session)?;
    lowers
        .into_iter()
        .map(|lower| ManaRank::new(lower, config, Arc::clone(&registry)))
        .collect()
}

/// Run one closure per rank, each on its own thread, and collect the results in rank
/// order. A panic in a rank is surfaced as an [`mpi_model::error::MpiError::Internal`]
/// naming the world rank that panicked (and the panic message, when it carries one).
///
/// This is a thin compatibility wrapper over [`job_runtime::run_world`]; new code
/// should reach for [`job_runtime::JobRuntime`], which also coordinates checkpoints,
/// preemption and restart.
pub fn run_ranks<T, F>(ranks: Vec<ManaRank>, body: F) -> MpiResult<Vec<T>>
where
    T: Send + 'static,
    F: Fn(ManaRank) -> MpiResult<T> + Send + Sync + 'static,
{
    job_runtime::run_world(ranks, move |_, rank| body(rank))
}

// Whole-stack checks that span several workspace crates at once, one module per
// subsystem: each module is only its `tests.rs`.
#[cfg(test)]
mod async_ckpt {
    mod tests;
}
#[cfg(test)]
mod chaos {
    mod tests;
}
#[cfg(test)]
mod ckpt {
    mod tests;
}
#[cfg(test)]
mod collectives {
    mod tests;
}
#[cfg(test)]
mod compression {
    mod tests;
}
#[cfg(test)]
mod elastic {
    mod tests;
}
#[cfg(test)]
mod fabric {
    mod tests;
}
#[cfg(test)]
mod runner {
    mod tests;
}
#[cfg(test)]
mod service {
    mod tests;
}

#[cfg(test)]
mod tests {
    use super::*;
    use job_runtime::Backend;
    use mpi_model::constants::PredefinedObject;

    #[test]
    fn launch_and_run_ranks() {
        let ranks = launch_mana_job(&Backend::Mpich, 3, ManaConfig::new_design(), 1).unwrap();
        assert_eq!(ranks.len(), 3);
        let results = run_ranks(ranks, |mut rank| {
            let world = rank.constant(PredefinedObject::CommWorld)?;
            rank.barrier(world)?;
            Ok(rank.world_rank())
        })
        .unwrap();
        assert_eq!(results, vec![0, 1, 2]);
    }

    #[test]
    fn run_ranks_reports_which_rank_panicked() {
        let ranks = launch_mana_job(&Backend::Mpich, 3, ManaConfig::new_design(), 2).unwrap();
        let err = run_ranks(ranks, |rank| {
            if rank.world_rank() == 1 {
                panic!("deliberate test panic");
            }
            Ok(rank.world_rank())
        })
        .unwrap_err();
        let message = format!("{err:?}");
        assert!(
            message.contains("rank 1"),
            "panicking rank not named: {message}"
        );
        assert!(
            message.contains("deliberate test panic"),
            "panic payload not surfaced: {message}"
        );
    }
}
