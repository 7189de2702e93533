//! # mana-apps
//!
//! Proxy versions of the five real-world applications the paper evaluates (CoMD, HPCG,
//! LAMMPS, LULESH-2.0 and SW4), plus a VASP-style plane-wave-DFT proxy for the
//! transpose-dominated workload shape, written against MANA's typed session API
//! ([`mana::Session`]) so they are oblivious to which simulated MPI implementation is
//! loaded in the lower half — and contain no hand-rolled byte marshalling.
//!
//! Each proxy reproduces the *communication skeleton* of its namesake — who talks to
//! whom, which collectives close each timestep, how often MPI is called relative to
//! the local work — rather than its physics. That is what the paper's evaluation
//! actually exercises: runtime overhead is a function of MPI-call frequency (§6.3),
//! and checkpoint cost is a function of per-rank state size (Table 3). The per-rank
//! state each proxy allocates is therefore calibrated (scaled down by a configurable
//! factor) to the paper's measured checkpoint sizes, and the per-iteration MPI call
//! mix is calibrated to the paper's measured context-switch rates.
//!
//! All six proxies support *transparent* checkpoint-restart: their entire state lives
//! in the rank's upper-half address space, they can be told to checkpoint at a given
//! iteration, and when started on a restored rank they resume from the recorded
//! iteration without any application-specific recovery code — the property that makes
//! MANA relevant to codes like VASP that have no application-level checkpointing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comd;
pub mod elastic;
pub(crate) mod hpcg;
pub(crate) mod lammps;
pub(crate) mod lulesh;
pub mod skeleton;
pub(crate) mod sw4;
pub mod vasp;
pub mod workloads;

pub use elastic::{
    job_checksum, run_elastic, ElasticReport, ElasticShard, ElasticWorldState, SkeletonRepartition,
    STATE_REGION,
};
pub use skeleton::{AppId, AppProfile, AppReport, RunConfig};
pub use workloads::{perlmutter_workloads, single_node_workloads, WorkloadSpec};

/// Run the named proxy application *elastically* (logical-shard overdecomposition)
/// on one rank's typed session; see [`elastic::run_elastic`].
pub fn run_app_elastic(
    app: AppId,
    session: &mut mana::Session,
    config: &RunConfig,
) -> mpi_model::error::MpiResult<ElasticReport> {
    elastic::run_elastic(&profile_of(app), session, config)
}

/// The communication/memory profile of the named proxy application.
pub(crate) fn profile_of(app: AppId) -> AppProfile {
    match app {
        AppId::CoMd => comd::profile(),
        AppId::Hpcg => hpcg::profile(),
        AppId::Lammps => lammps::profile(),
        AppId::Lulesh => lulesh::profile(),
        AppId::Sw4 => sw4::profile(),
        AppId::Vasp => vasp::profile(),
    }
}

/// Run the named proxy application on one (already initialized or restored) rank's
/// typed session.
///
/// This is the single entry point the harness, the examples and the integration tests
/// use; it dispatches to the per-app profile and the shared skeleton runner.
pub fn run_app(
    app: AppId,
    session: &mut mana::Session,
    config: &RunConfig,
) -> mpi_model::error::MpiResult<AppReport> {
    skeleton::run(&profile_of(app), session, config)
}
