//! Job launcher for the simulated Open MPI implementation.

use crate::codec::OpenMpiCodec;
use mpi_engine::{Engine, EngineConfig};
use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::constants::ConstantResolution;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use mpi_model::subset::SubsetFeature;
use net_sim::{Fabric, FabricConfig};
use parking_lot::RwLock;
use std::sync::Arc;

/// Factory launching simulated Open MPI jobs.
#[derive(Debug, Clone, Default)]
pub struct OpenMpiFactory;

impl OpenMpiFactory {
    /// Create the factory.
    pub fn new() -> Self {
        OpenMpiFactory
    }

    /// The full feature set of the simulated Open MPI.
    pub fn features() -> Vec<SubsetFeature> {
        vec![
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
        ]
    }

    /// Launch a `world_size`-rank job, like [`MpiImplementationFactory::launch`], and
    /// also hand back the fabric its lower halves are connected to, for fault
    /// injection and inspection.
    pub fn launch_with_fabric(
        &self,
        world_size: usize,
        registry: Arc<RwLock<UserFunctionRegistry>>,
        session: u64,
    ) -> MpiResult<(Vec<Box<dyn MpiApi>>, Fabric)> {
        let fabric = Fabric::new(FabricConfig::new(
            world_size,
            session.wrapping_mul(0x51_7cc1_b727),
        ));
        let mut ranks: Vec<Box<dyn MpiApi>> = Vec::with_capacity(world_size);
        for rank in 0..world_size {
            let engine = Engine::new(
                EngineConfig {
                    name: "openmpi",
                    resolution: ConstantResolution::StartupResolvedPointer,
                    features: Self::features(),
                    lazy_constants: false,
                },
                OpenMpiCodec::new(),
                fabric.endpoint(rank as i32)?,
                Arc::clone(&registry),
                session,
            );
            ranks.push(Box::new(engine));
        }
        Ok((ranks, fabric))
    }
}

impl MpiImplementationFactory for OpenMpiFactory {
    fn name(&self) -> &'static str {
        "openmpi"
    }

    fn launch(
        &self,
        world_size: usize,
        registry: Arc<RwLock<UserFunctionRegistry>>,
        session: u64,
    ) -> MpiResult<Vec<Box<dyn MpiApi>>> {
        self.launch_with_fabric(world_size, registry, session)
            .map(|(ranks, _)| ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_model::constants::PredefinedObject;
    use mpi_model::datatype::PrimitiveType;
    use mpi_model::op::PredefinedOp;
    use mpi_model::subset::ComplianceReport;

    fn registry() -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::new(RwLock::new(UserFunctionRegistry::new()))
    }

    #[test]
    fn satisfies_mana_required_subset() {
        let factory = OpenMpiFactory::new();
        let ranks = factory.launch(1, registry(), 1).unwrap();
        let report = ComplianceReport::audit("openmpi", &ranks[0].provided_features());
        assert!(report.mana_compatible());
        assert_eq!(
            ranks[0].constant_resolution(),
            ConstantResolution::StartupResolvedPointer
        );
    }

    #[test]
    fn constants_differ_across_sessions() {
        let factory = OpenMpiFactory::new();
        let mut a = factory.launch(1, registry(), 1).unwrap();
        let mut b = factory.launch(1, registry(), 2).unwrap();
        let wa = a[0].resolve_constant(PredefinedObject::CommWorld).unwrap();
        let wb = b[0].resolve_constant(PredefinedObject::CommWorld).unwrap();
        assert_ne!(
            wa, wb,
            "MPI_COMM_WORLD is a startup-resolved pointer: it changes between sessions"
        );
        assert!(wa.bits() > u32::MAX as u64);
    }

    #[test]
    fn allreduce_across_ranks() {
        let factory = OpenMpiFactory::new();
        let ranks = factory.launch(3, registry(), 5).unwrap();
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, mut api)| {
                std::thread::spawn(move || {
                    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
                    let int = api
                        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int))
                        .unwrap();
                    let sum = api
                        .resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))
                        .unwrap();
                    let out = api
                        .allreduce(&(rank as i32 + 1).to_le_bytes(), int, sum, world)
                        .unwrap();
                    i32::from_le_bytes(out[..4].try_into().unwrap())
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 6);
        }
    }

    #[test]
    fn factory_name() {
        assert_eq!(OpenMpiFactory::new().name(), "openmpi");
    }
}
