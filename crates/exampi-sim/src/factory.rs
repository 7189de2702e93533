//! Job launcher for the simulated ExaMPI implementation.

use crate::codec::ExaMpiCodec;
use mpi_engine::{Engine, EngineConfig};
use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::constants::ConstantResolution;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use mpi_model::subset::SubsetFeature;
use net_sim::{Fabric, FabricConfig};
use parking_lot::RwLock;
use std::sync::Arc;

/// Factory launching simulated ExaMPI jobs.
#[derive(Debug, Clone, Default)]
pub struct ExaMpiFactory;

impl ExaMpiFactory {
    /// Create the factory.
    pub fn new() -> Self {
        ExaMpiFactory
    }

    /// The (deliberately partial) feature set of the simulated ExaMPI: the MANA
    /// required subset (§5) plus what the ExaMPI-compatible applications (the CoMD and
    /// LULESH proxies) need. `MPI_Comm_dup`, `MPI_Comm_create` and user-defined
    /// reduction operations are *not* provided.
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
            SubsetFeature::CommSplit,
            SubsetFeature::DerivedDatatypes,
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
            session.wrapping_mul(0xd6e8_feb8_6659_fd93),
        ));
        let mut ranks: Vec<Box<dyn MpiApi>> = Vec::with_capacity(world_size);
        for rank in 0..world_size {
            let engine = Engine::new(
                EngineConfig {
                    name: "exampi",
                    resolution: ConstantResolution::LazySharedPointer,
                    features: Self::features(),
                    lazy_constants: true,
                },
                ExaMpiCodec::new(),
                fabric.endpoint(rank as i32)?,
                Arc::clone(&registry),
                session,
            );
            ranks.push(Box::new(engine));
        }
        Ok((ranks, fabric))
    }
}

impl MpiImplementationFactory for ExaMpiFactory {
    fn name(&self) -> &'static str {
        "exampi"
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
    use mpi_model::error::MpiError;
    use mpi_model::op::PredefinedOp;
    use mpi_model::subset::ComplianceReport;

    fn registry() -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::new(RwLock::new(UserFunctionRegistry::new()))
    }

    #[test]
    fn satisfies_required_subset_but_not_full_mpi() {
        let factory = ExaMpiFactory::new();
        let ranks = factory.launch(1, registry(), 1).unwrap();
        let features = ranks[0].provided_features();
        let report = ComplianceReport::audit("exampi", &features);
        assert!(report.mana_compatible(), "ExaMPI provides the MANA subset");
        assert!(!features.contains(&SubsetFeature::CommDup));
        assert!(!features.contains(&SubsetFeature::UserOps));
    }

    #[test]
    fn unsupported_operations_error_cleanly() {
        let factory = ExaMpiFactory::new();
        let mut ranks = factory.launch(1, registry(), 1).unwrap();
        let api = &mut ranks[0];
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        assert!(matches!(
            api.comm_dup(world),
            Err(MpiError::Unsupported { .. })
        ));
        assert!(matches!(
            api.op_create(1, true),
            Err(MpiError::Unsupported { .. })
        ));
    }

    #[test]
    fn constants_are_lazy_and_session_dependent() {
        let factory = ExaMpiFactory::new();
        let mut a = factory.launch(1, registry(), 1).unwrap();
        let mut b = factory.launch(1, registry(), 2).unwrap();
        assert_eq!(
            a[0].constant_resolution(),
            ConstantResolution::LazySharedPointer
        );
        let wa = a[0].resolve_constant(PredefinedObject::CommWorld).unwrap();
        let wb = b[0].resolve_constant(PredefinedObject::CommWorld).unwrap();
        assert_ne!(wa, wb, "lazy shared-pointer constants differ per session");
    }

    #[test]
    fn char_and_int8_share_a_handle() {
        let factory = ExaMpiFactory::new();
        let mut ranks = factory.launch(1, registry(), 1).unwrap();
        let api = &mut ranks[0];
        let c = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Char))
            .unwrap();
        let i8_h = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int8))
            .unwrap();
        assert_eq!(c, i8_h);
        assert_eq!(api.type_size(c).unwrap(), 1);
    }

    #[test]
    fn allreduce_works_with_lazy_constants() {
        let factory = ExaMpiFactory::new();
        let ranks = factory.launch(2, registry(), 4).unwrap();
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, mut api)| {
                std::thread::spawn(move || {
                    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
                    let dbl = api
                        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))
                        .unwrap();
                    let sum = api
                        .resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))
                        .unwrap();
                    let mine = (rank as f64 + 1.0).to_le_bytes();
                    let out = api.allreduce(&mine, dbl, sum, world).unwrap();
                    f64::from_le_bytes(out[..8].try_into().unwrap())
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3.0);
        }
    }
}
