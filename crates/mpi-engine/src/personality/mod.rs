//! The four simulated MPI implementations, as data over the one [`Engine`].
//!
//! Seen through `mpi.h`, implementations differ in three ways (paper §3): how handles
//! are represented, how global constants resolve, and which features they provide.
//! Each [`Backend`] is one row of those three, and [`Backend::config`] is the table.
//! Handle representation is the only row that needs code, one [`HandleCodec`] each:
//!
//! * **MPICH family** (MPICH, MVAPICH, Intel MPI, HPE Cray MPI; `mpich.rs`). Handles
//!   are **32-bit integers** encoding a two-level table lookup: a few bits say
//!   whether the handle names a communicator, group, request, op or datatype (plus a
//!   "predefined" bit), and the rest split into a first-level index into a directory
//!   and a second-level index into the block that entry points to — the shape of a
//!   two-level page table. **Global constants are compile-time integers**:
//!   `MPI_COMM_WORLD` has the same bit pattern in the upper and lower halves and in
//!   every session. (This apparent convenience is what let the original MANA
//!   prototype hard-wire Cray MPI assumptions; the virtual-id layer must not rely on
//!   it.) The paper's evaluation treats MPICH as the local stand-in for HPE Cray MPI
//!   on Perlmutter (§6, "HPE Cray MPI and MPICH share much of their code"), so
//!   [`Backend::Mpich`] and [`Backend::CrayMpi`] differ only in name.
//! * **Open MPI** (`openmpi.rs`). Handles are **64-bit pointers** to internal structs.
//!   There is no index arithmetic an outsider could rely on: the value is an address,
//!   different for every object, between the upper and lower halves, and between
//!   sessions. This is what broke MANA's original `int`-typed virtual ids — an `int`
//!   cannot even hold an Open MPI `MPI_Comm`. **Global constants are macros that
//!   expand to functions** returning such pointers, resolved when the library starts
//!   up, so `MPI_COMM_WORLD` before a checkpoint and after a restart are different
//!   bit patterns (§4.3).
//! * **ExaMPI** (`exampi.rs`), the experimental C++ implementation the paper uses to
//!   show that the virtual-id design copes with implementations that cover only a
//!   subset of MPI and make unusual representation choices. **Primitive datatypes
//!   are enum-class discriminants**, and some primitives *alias* each other (the
//!   paper's example: `MPI_INT8_T` and `MPI_CHAR` share a pointer); every other
//!   handle is pointer-like. **Global constants are lazily materialized** ("smart,
//!   shared pointers with reinterpret casts"): a constant's physical value is not
//!   known until first use, so MANA cannot capture constants at init time and must
//!   translate them lazily. **Only a subset of MPI is provided** (`EXAMPI`): the
//!   MANA-required subset of §5 plus what the compatible applications (the CoMD and
//!   LULESH proxies) need. Everything else reports `MPI_ERR_UNSUPPORTED_OPERATION`,
//!   which is how the tests verify that MANA itself stays within that subset.
//!
//! The MPICH family and Open MPI are feature-complete (`FULL`) for the subset of
//! MPI-3 modelled in this workspace.

mod exampi;
mod mpich;
mod openmpi;

use crate::codec::HandleCodec;
use crate::engine::{Engine, EngineConfig};
use exampi::ExaMpiCodec;
use mpi_model::api::MpiApi;
use mpi_model::constants::ConstantResolution;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use mpi_model::subset::SubsetFeature;
use mpich::MpichCodec;
use net_sim::{Fabric, FabricConfig};
use openmpi::OpenMpiCodec;
use parking_lot::RwLock;
use std::sync::Arc;

/// The feature set of the MPICH family and Open MPI, in reporting order.
pub(crate) const FULL: &[SubsetFeature] = &[
    SubsetFeature::Send,
    SubsetFeature::Recv,
    SubsetFeature::Iprobe,
    SubsetFeature::Test,
    SubsetFeature::CommGroup,
    SubsetFeature::GroupTranslateRanks,
    SubsetFeature::TypeGetEnvelope,
    SubsetFeature::TypeGetContents,
    SubsetFeature::Alltoall,
    SubsetFeature::NonBlockingPointToPoint,
    SubsetFeature::Barrier,
    SubsetFeature::Bcast,
    SubsetFeature::Reduce,
    SubsetFeature::Gather,
    SubsetFeature::CommDup,
    SubsetFeature::CommSplit,
    SubsetFeature::CommCreate,
    SubsetFeature::DerivedDatatypes,
    SubsetFeature::UserOps,
    SubsetFeature::CollectiveRegistration,
];

/// ExaMPI's deliberately partial feature set: `FULL` without `MPI_Comm_dup`,
/// `MPI_Comm_create` and user-defined reduction operations.
pub(crate) const EXAMPI: &[SubsetFeature] = &[
    SubsetFeature::Send,
    SubsetFeature::Recv,
    SubsetFeature::Iprobe,
    SubsetFeature::Test,
    SubsetFeature::CommGroup,
    SubsetFeature::GroupTranslateRanks,
    SubsetFeature::TypeGetEnvelope,
    SubsetFeature::TypeGetContents,
    SubsetFeature::Alltoall,
    SubsetFeature::NonBlockingPointToPoint,
    SubsetFeature::Barrier,
    SubsetFeature::Bcast,
    SubsetFeature::Reduce,
    SubsetFeature::Gather,
    SubsetFeature::CommSplit,
    SubsetFeature::DerivedDatatypes,
    SubsetFeature::CollectiveRegistration,
];

/// A simulated MPI implementation a job can launch its lower halves on. The whole
/// point of the implementation-oblivious design is that the same job — and the same
/// checkpoint images — run on any of these; choosing one is a one-field switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Plain MPICH: two-level-table handles, stable compile-time integer constants.
    Mpich,
    /// HPE Cray MPI: MPICH behaviour under the Perlmutter name.
    CrayMpi,
    /// Open MPI: pointer handles, constant addresses that change per session.
    OpenMpi,
    /// ExaMPI: lazily resolved constants, reduced feature subset.
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

    /// The three distinct handle codecs (Cray MPI shares MPICH's) — what "runs on
    /// all three backends" means.
    pub const DISTINCT: [Backend; 3] = [Backend::Mpich, Backend::OpenMpi, Backend::ExaMpi];

    /// This backend's row: name, constant policy and feature set.
    pub const fn config(self) -> EngineConfig {
        use ConstantResolution::*;
        let (name, resolution, features) = match self {
            Backend::Mpich => ("mpich", CompileTimeInteger, FULL),
            Backend::CrayMpi => ("craympi", CompileTimeInteger, FULL),
            Backend::OpenMpi => ("openmpi", StartupResolvedPointer, FULL),
            Backend::ExaMpi => ("exampi", LazySharedPointer, EXAMPI),
        };
        EngineConfig {
            name,
            resolution,
            features,
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
        let fabric = Fabric::new(FabricConfig::new(world, session));
        let config = self.config();
        let ranks = match self {
            Backend::Mpich | Backend::CrayMpi => {
                launch_with::<MpichCodec>(config, &fabric, &registry, session)
            }
            Backend::OpenMpi => launch_with::<OpenMpiCodec>(config, &fabric, &registry, session),
            Backend::ExaMpi => launch_with::<ExaMpiCodec>(config, &fabric, &registry, session),
        }?;
        Ok((ranks, fabric))
    }

    /// The implementation name the backend's lower halves report.
    pub fn name(self) -> &'static str {
        self.config().name
    }

    /// Parse an implementation name (as printed by [`Backend::name`]).
    pub fn from_name(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// One engine per rank of `fabric`, each with a fresh codec `C`.
fn launch_with<C: HandleCodec + Default>(
    config: EngineConfig,
    fabric: &Fabric,
    registry: &Arc<RwLock<UserFunctionRegistry>>,
    session: u64,
) -> MpiResult<Vec<Box<dyn MpiApi>>> {
    (0..fabric.world_size())
        .map(|rank| {
            let endpoint = fabric.endpoint(rank as i32)?;
            let engine = Engine::new(
                config,
                C::default(),
                endpoint,
                Arc::clone(registry),
                session,
            );
            Ok(Box::new(engine) as Box<dyn MpiApi>)
        })
        .collect()
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
