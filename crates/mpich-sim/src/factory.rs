//! Job launcher for the MPICH-family simulated implementation.

use crate::codec::MpichCodec;
use mpi_engine::{Engine, EngineConfig};
use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::constants::ConstantResolution;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use mpi_model::subset::SubsetFeature;
use net_sim::{Fabric, FabricConfig};
use parking_lot::RwLock;
use std::sync::Arc;

/// Which member of the MPICH family to impersonate. The behaviours are identical (they
/// share their handle encoding and constant policy); the name matters to the benchmark
/// harness, which reports "Cray MPI" rows for Perlmutter experiments (Figure 4) and
/// "MPICH" rows for the local-cluster experiments (Figures 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpichVariant {
    /// Plain MPICH (the paper's local "standard of comparison").
    Mpich,
    /// HPE Cray MPI (the production implementation on Perlmutter).
    CrayMpi,
}

impl MpichVariant {
    /// The implementation name reported through `MpiApi::implementation_name`.
    pub fn name(self) -> &'static str {
        match self {
            MpichVariant::Mpich => "mpich",
            MpichVariant::CrayMpi => "craympi",
        }
    }
}

/// Factory launching MPICH-family jobs.
#[derive(Debug, Clone)]
pub struct MpichFactory {
    variant: MpichVariant,
}

impl MpichFactory {
    /// A plain-MPICH factory.
    pub fn mpich() -> Self {
        MpichFactory {
            variant: MpichVariant::Mpich,
        }
    }

    /// An HPE Cray MPI factory (identical behaviour, different name).
    pub fn cray() -> Self {
        MpichFactory {
            variant: MpichVariant::CrayMpi,
        }
    }

    /// The full feature set of the MPICH family as modelled here.
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
            session.wrapping_mul(0x9e37_79b9),
        ));
        let mut ranks: Vec<Box<dyn MpiApi>> = Vec::with_capacity(world_size);
        for rank in 0..world_size {
            let engine = Engine::new(
                EngineConfig {
                    name: self.variant.name(),
                    resolution: ConstantResolution::CompileTimeInteger,
                    features: Self::features(),
                    lazy_constants: false,
                },
                MpichCodec::new(),
                fabric.endpoint(rank as i32)?,
                Arc::clone(&registry),
                session,
            );
            ranks.push(Box::new(engine));
        }
        Ok((ranks, fabric))
    }
}

impl MpiImplementationFactory for MpichFactory {
    fn name(&self) -> &'static str {
        self.variant.name()
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
    use mpi_model::subset::ComplianceReport;

    fn registry() -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::new(RwLock::new(UserFunctionRegistry::new()))
    }

    #[test]
    fn launch_produces_one_api_per_rank() {
        let factory = MpichFactory::mpich();
        let ranks = factory.launch(4, registry(), 1).unwrap();
        assert_eq!(ranks.len(), 4);
        for (i, api) in ranks.iter().enumerate() {
            assert_eq!(api.world_rank() as usize, i);
            assert_eq!(api.world_size(), 4);
            assert_eq!(api.implementation_name(), "mpich");
            assert_eq!(
                api.constant_resolution(),
                ConstantResolution::CompileTimeInteger
            );
        }
    }

    #[test]
    fn satisfies_mana_required_subset() {
        let factory = MpichFactory::cray();
        let ranks = factory.launch(1, registry(), 1).unwrap();
        let report = ComplianceReport::audit("craympi", &ranks[0].provided_features());
        assert!(report.mana_compatible());
    }

    #[test]
    fn constants_are_stable_across_sessions() {
        let factory = MpichFactory::mpich();
        let mut a = factory.launch(1, registry(), 1).unwrap();
        let mut b = factory.launch(1, registry(), 2).unwrap();
        let wa = a[0].resolve_constant(PredefinedObject::CommWorld).unwrap();
        let wb = b[0].resolve_constant(PredefinedObject::CommWorld).unwrap();
        assert_eq!(
            wa, wb,
            "MPICH-family constants are compile-time integers, identical across sessions"
        );
        assert!(wa.bits() <= u32::MAX as u64, "handles fit in an int");
    }

    #[test]
    fn cray_variant_reports_its_name() {
        let factory = MpichFactory::cray();
        let ranks = factory.launch(1, registry(), 1).unwrap();
        assert_eq!(ranks[0].implementation_name(), "craympi");
        assert_eq!(factory.name(), "craympi");
    }

    #[test]
    fn basic_traffic_flows() {
        let factory = MpichFactory::mpich();
        let ranks = factory.launch(2, registry(), 3).unwrap();
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, mut api)| {
                std::thread::spawn(move || {
                    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
                    let byte = api
                        .resolve_constant(PredefinedObject::Datatype(
                            mpi_model::datatype::PrimitiveType::Byte,
                        ))
                        .unwrap();
                    if rank == 0 {
                        api.send(&[5, 6], byte, 1, 0, world).unwrap();
                        mpi_model::payload::PayloadBuf::new()
                    } else {
                        let (data, _) = api.recv(byte, 16, 0, 0, world).unwrap();
                        data
                    }
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[1], vec![5, 6]);
    }
}
