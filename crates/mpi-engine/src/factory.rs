//! [`Backend`] as an [`MpiImplementationFactory`]: the interface through which a job
//! launches its lower halves without naming the implementation behind them.

use crate::personality::Backend;
use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use std::sync::Arc;

impl Backend {
    /// A fresh factory for this backend.
    pub fn factory(self) -> Box<dyn MpiImplementationFactory> {
        Box::new(self)
    }
}

impl MpiImplementationFactory for Backend {
    fn name(&self) -> &'static str {
        Backend::name(*self)
    }

    fn launch(
        &self,
        world_size: usize,
        registry: Arc<RwLock<UserFunctionRegistry>>,
        session: u64,
    ) -> MpiResult<Vec<Box<dyn MpiApi>>> {
        Backend::launch(*self, world_size, registry, session).map(|(ranks, _)| ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_model::constants::{ConstantResolution, PredefinedObject};
    use mpi_model::datatype::PrimitiveType;
    use mpi_model::error::MpiError;
    use mpi_model::op::PredefinedOp;
    use mpi_model::payload::PayloadBuf;
    use mpi_model::subset::{ComplianceReport, SubsetFeature};

    fn registry() -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::new(RwLock::new(UserFunctionRegistry::new()))
    }

    /// Launch `world` ranks of `backend` through its factory.
    fn launch(backend: Backend, world: usize, session: u64) -> Vec<Box<dyn MpiApi>> {
        backend
            .factory()
            .launch(world, registry(), session)
            .unwrap()
    }

    /// Run `body` on every rank of `ranks`, one thread each, and collect the results
    /// in rank order.
    fn run_ranks<T: Send + 'static>(
        ranks: Vec<Box<dyn MpiApi>>,
        body: fn(usize, &mut dyn MpiApi) -> T,
    ) -> Vec<T> {
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, mut api)| std::thread::spawn(move || body(rank, api.as_mut())))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn launch_produces_one_api_per_rank() {
        let ranks = launch(Backend::Mpich, 4, 1);
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
        let cray = launch(Backend::CrayMpi, 1, 1);
        let report = ComplianceReport::audit("craympi", &cray[0].provided_features());
        assert!(report.mana_compatible());

        let openmpi = launch(Backend::OpenMpi, 1, 1);
        let report = ComplianceReport::audit("openmpi", &openmpi[0].provided_features());
        assert!(report.mana_compatible());
        assert_eq!(
            openmpi[0].constant_resolution(),
            ConstantResolution::StartupResolvedPointer
        );
    }

    #[test]
    fn constants_are_stable_across_sessions() {
        let mut a = launch(Backend::Mpich, 1, 1);
        let mut b = launch(Backend::Mpich, 1, 2);
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
        let ranks = launch(Backend::CrayMpi, 1, 1);
        assert_eq!(ranks[0].implementation_name(), "craympi");
        assert_eq!(Backend::CrayMpi.factory().name(), "craympi");
    }

    #[test]
    fn basic_traffic_flows() {
        let results = run_ranks(launch(Backend::Mpich, 2, 3), |rank, api| {
            let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
            let byte = api
                .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Byte))
                .unwrap();
            if rank == 0 {
                api.send(&[5, 6], byte, 1, 0, world).unwrap();
                PayloadBuf::new()
            } else {
                let (data, _) = api.recv(byte, 16, 0, 0, world).unwrap();
                data
            }
        });
        assert_eq!(results[1], vec![5, 6]);
    }

    #[test]
    fn constants_differ_across_sessions() {
        let mut a = launch(Backend::OpenMpi, 1, 1);
        let mut b = launch(Backend::OpenMpi, 1, 2);
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
        let sums = run_ranks(launch(Backend::OpenMpi, 3, 5), |rank, api| {
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
        });
        assert_eq!(sums, vec![6; 3]);
    }

    #[test]
    fn factory_name() {
        assert_eq!(Backend::OpenMpi.factory().name(), "openmpi");
    }

    #[test]
    fn satisfies_required_subset_but_not_full_mpi() {
        let ranks = launch(Backend::ExaMpi, 1, 1);
        let features = ranks[0].provided_features();
        let report = ComplianceReport::audit("exampi", &features);
        assert!(report.mana_compatible(), "ExaMPI provides the MANA subset");
        assert!(!features.contains(&SubsetFeature::CommDup));
        assert!(!features.contains(&SubsetFeature::UserOps));
    }

    #[test]
    fn unsupported_operations_error_cleanly() {
        let mut ranks = launch(Backend::ExaMpi, 1, 1);
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
        let mut a = launch(Backend::ExaMpi, 1, 1);
        let mut b = launch(Backend::ExaMpi, 1, 2);
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
        let mut ranks = launch(Backend::ExaMpi, 1, 1);
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
        let sums = run_ranks(launch(Backend::ExaMpi, 2, 4), |rank, api| {
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
        });
        assert_eq!(sums, vec![3.0; 2]);
    }
}
