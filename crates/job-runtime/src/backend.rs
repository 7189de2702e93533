//! The backend selector: which simulated MPI implementation a job runs on.

use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use net_sim::Fabric;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A simulated MPI implementation a [`crate::JobRuntime`] can launch its lower halves
/// on. The whole point of the implementation-oblivious design is that the same job —
/// and the same checkpoint images — run on any of these; the orchestrator makes the
/// choice a one-field configuration switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Plain MPICH (`mpich-sim`): stable compile-time integer constants.
    Mpich,
    /// HPE Cray MPI (`mpich-sim`, Cray variant): MPICH behaviour, Perlmutter name.
    CrayMpi,
    /// Open MPI (`openmpi-sim`): pointer handles, unstable constant addresses.
    OpenMpi,
    /// ExaMPI (`exampi-sim`): lazily resolved constants, reduced feature subset.
    ExaMpi,
}

impl Backend {
    /// Every backend, in the order the paper's figures introduce them.
    pub const ALL: [Backend; 4] = [
        Backend::Mpich,
        Backend::CrayMpi,
        Backend::OpenMpi,
        Backend::ExaMpi,
    ];

    /// The three distinct simulated implementations (Cray MPI shares `mpich-sim`),
    /// i.e. one backend per `*-sim` crate — what "runs on all three backends" means.
    pub const DISTINCT: [Backend; 3] = [Backend::Mpich, Backend::OpenMpi, Backend::ExaMpi];

    /// A fresh factory for this backend.
    pub fn factory(self) -> Box<dyn MpiImplementationFactory> {
        match self {
            Backend::Mpich => Box::new(mpich_sim::MpichFactory::mpich()),
            Backend::CrayMpi => Box::new(mpich_sim::MpichFactory::cray()),
            Backend::OpenMpi => Box::new(openmpi_sim::OpenMpiFactory::new()),
            Backend::ExaMpi => Box::new(exampi_sim::ExaMpiFactory::new()),
        }
    }

    /// Launch `world` lower halves on this backend under session `session`, together
    /// with the fabric they are connected to.
    pub fn launch(
        self,
        world: usize,
        registry: Arc<RwLock<UserFunctionRegistry>>,
        session: u64,
    ) -> MpiResult<(Vec<Box<dyn MpiApi>>, Fabric)> {
        match self {
            Backend::Mpich => {
                mpich_sim::MpichFactory::mpich().launch_with_fabric(world, registry, session)
            }
            Backend::CrayMpi => {
                mpich_sim::MpichFactory::cray().launch_with_fabric(world, registry, session)
            }
            Backend::OpenMpi => {
                openmpi_sim::OpenMpiFactory::new().launch_with_fabric(world, registry, session)
            }
            Backend::ExaMpi => {
                exampi_sim::ExaMpiFactory::new().launch_with_fabric(world, registry, session)
            }
        }
    }

    /// The implementation name the backend's lower halves report.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Mpich => "mpich",
            Backend::CrayMpi => "craympi",
            Backend::OpenMpi => "openmpi",
            Backend::ExaMpi => "exampi",
        }
    }

    /// Parse an implementation name (as printed by [`Backend::name`]).
    pub fn from_name(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_factories_report_them() {
        for backend in Backend::ALL {
            assert_eq!(Backend::from_name(backend.name()), Some(backend));
            assert_eq!(backend.factory().name(), backend.name());
            let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
            let (lowers, fabric) = backend.launch(3, registry, 1).unwrap();
            assert_eq!(lowers.len(), 3);
            assert_eq!(fabric.world_size(), 3);
            assert!(lowers
                .iter()
                .all(|l| l.implementation_name() == backend.name()));
        }
        assert_eq!(Backend::from_name("lam/mpi"), None);
    }
}
