//! The four backend personalities as one table: for every `Backend`, the exact
//! handle bits it mints, its constant policy, its feature list and what MANA's
//! compliance audit makes of it. Each row pins the §3 taxonomy of one simulated
//! implementation, so a refactor that silently changes an encoding, a feature or a
//! name fails here.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use job_runtime::Backend;
use mpi_model::constants::{ConstantResolution, PredefinedObject};
use mpi_model::datatype::PrimitiveType;
use mpi_model::error::MpiError;
use mpi_model::op::{PredefinedOp, UserFunctionRegistry};
use mpi_model::subset::{ComplianceReport, SubsetFeature};
use parking_lot::RwLock;
use std::sync::Arc;

use SubsetFeature::*;

/// The feature list of the MPICH family and Open MPI, in reporting order.
const FULL: &[SubsetFeature] = &[
    Send,
    Recv,
    Iprobe,
    Test,
    CommGroup,
    GroupTranslateRanks,
    TypeGetEnvelope,
    TypeGetContents,
    Alltoall,
    NonBlockingPointToPoint,
    Barrier,
    Bcast,
    Reduce,
    Gather,
    CommDup,
    CommSplit,
    CommCreate,
    DerivedDatatypes,
    UserOps,
    CollectiveRegistration,
];

/// ExaMPI's deliberately partial list: no `comm_dup`, `comm_create` or user ops.
const EXAMPI: &[SubsetFeature] = &[
    Send,
    Recv,
    Iprobe,
    Test,
    CommGroup,
    GroupTranslateRanks,
    TypeGetEnvelope,
    TypeGetContents,
    Alltoall,
    NonBlockingPointToPoint,
    Barrier,
    Bcast,
    Reduce,
    Gather,
    CommSplit,
    DerivedDatatypes,
    CollectiveRegistration,
];

/// One backend's pinned personality.
struct Row {
    backend: Backend,
    name: &'static str,
    resolution: ConstantResolution,
    features: &'static [SubsetFeature],
    mana_compatible: bool,
    world_equal_across_sessions: bool,
    /// Per session (1, 2): `CommWorld`, `Datatype(Char)`, `Datatype(Int8)`, a
    /// `comm_split` communicator of the world and that communicator's group.
    handles: [[u64; 5]; 2],
}

/// The MPICH family's handles: 32-bit two-level-table words, the same in every
/// session.
const MPICH_HANDLES: [u64; 5] = [
    0x4800_0001,
    0x4c00_0001,
    0x4c00_0002,
    0x4000_0003,
    0x4100_0002,
];

const TABLE: [Row; 4] = [
    Row {
        backend: Backend::Mpich,
        name: "mpich",
        resolution: ConstantResolution::CompileTimeInteger,
        features: FULL,
        mana_compatible: true,
        world_equal_across_sessions: true,
        handles: [MPICH_HANDLES, MPICH_HANDLES],
    },
    Row {
        backend: Backend::CrayMpi,
        name: "craympi",
        resolution: ConstantResolution::CompileTimeInteger,
        features: FULL,
        mana_compatible: true,
        world_equal_across_sessions: true,
        handles: [MPICH_HANDLES, MPICH_HANDLES],
    },
    Row {
        backend: Backend::OpenMpi,
        name: "openmpi",
        resolution: ConstantResolution::StartupResolvedPointer,
        features: FULL,
        mana_compatible: true,
        world_equal_across_sessions: false,
        handles: [
            [
                0x7f31_f010_0350,
                0x7f31_f050_0200,
                0x7f31_f050_0400,
                0x7f31_f010_09f0,
                0x7f31_f020_0240,
            ],
            [
                0x7f33_e010_0350,
                0x7f33_e050_0200,
                0x7f33_e050_0400,
                0x7f33_e010_09f0,
                0x7f33_e020_0240,
            ],
        ],
    },
    Row {
        backend: Backend::ExaMpi,
        name: "exampi",
        resolution: ConstantResolution::LazySharedPointer,
        features: EXAMPI,
        mana_compatible: true,
        world_equal_across_sessions: false,
        handles: [
            [
                0x6191_1000_0010,
                0xea00_0000_0000_0001,
                0xea00_0000_0000_0001,
                0x6191_1000_0020,
                0x6191_2000_0010,
            ],
            [
                0x6122_1000_0010,
                0xea00_0000_0000_0001,
                0xea00_0000_0000_0001,
                0x6122_1000_0020,
                0x6122_2000_0010,
            ],
        ],
    },
];

fn registry() -> Arc<RwLock<UserFunctionRegistry>> {
    Arc::new(RwLock::new(UserFunctionRegistry::new()))
}

/// The handles a one-rank job of `backend` mints in session `session`, in the
/// order of [`Row::handles`].
fn minted(backend: Backend, session: u64) -> [u64; 5] {
    let mut ranks = backend.factory().launch(1, registry(), session).unwrap();
    let api = &mut ranks[0];
    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
    let char_ty = api
        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Char))
        .unwrap();
    let int8_ty = api
        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int8))
        .unwrap();
    let split = api.comm_split(world, Some(0), 0).unwrap();
    let group = api.comm_group(split).unwrap();
    [world, char_ty, int8_ty, split, group].map(|h| h.bits())
}

#[test]
fn every_backend_matches_its_row() {
    assert_eq!(TABLE.map(|row| row.backend), Backend::ALL);
    for row in &TABLE {
        let backend = row.backend;
        assert_eq!(backend.name(), row.name);
        assert_eq!(Backend::from_name(row.name), Some(backend));
        assert_eq!(backend.factory().name(), row.name);

        let mut ranks = backend.factory().launch(4, registry(), 1).unwrap();
        assert_eq!(ranks.len(), 4);
        for (i, api) in ranks.iter().enumerate() {
            assert_eq!(api.world_rank() as usize, i, "{}", row.name);
            assert_eq!(api.world_size(), 4);
            assert_eq!(api.implementation_name(), row.name);
            assert_eq!(api.constant_resolution(), row.resolution, "{}", row.name);
            assert_eq!(api.provided_features(), row.features, "{}", row.name);
        }
        let report = ComplianceReport::audit(row.name, &ranks[0].provided_features());
        assert_eq!(
            report.mana_compatible(),
            row.mana_compatible,
            "{}",
            row.name
        );

        // What the feature list leaves out fails cleanly rather than misbehaving.
        let api = &mut ranks[0];
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let char_ty = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Char))
            .unwrap();
        assert_eq!(api.type_size(char_ty).unwrap(), 1);
        if !row.features.contains(&CommDup) {
            assert!(matches!(
                api.comm_dup(world),
                Err(MpiError::Unsupported { .. })
            ));
        }
        if !row.features.contains(&UserOps) {
            assert!(matches!(
                api.op_create(1, true),
                Err(MpiError::Unsupported { .. })
            ));
        }
    }
}

#[test]
fn every_backend_mints_its_pinned_handles() {
    for row in &TABLE {
        let sessions = [minted(row.backend, 1), minted(row.backend, 2)];
        assert_eq!(sessions, row.handles, "{}", row.name);
        assert_eq!(
            sessions[0][0] == sessions[1][0],
            row.world_equal_across_sessions,
            "{}: CommWorld across sessions",
            row.name
        );
    }
}

#[test]
fn every_backend_carries_traffic() {
    for backend in Backend::ALL {
        let ranks = backend.factory().launch(3, registry(), 5).unwrap();
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, mut api)| {
                std::thread::spawn(move || {
                    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
                    let byte = api
                        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Byte))
                        .unwrap();
                    let int = api
                        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int))
                        .unwrap();
                    let dbl = api
                        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))
                        .unwrap();
                    let sum = api
                        .resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))
                        .unwrap();
                    let received = match rank {
                        0 => {
                            api.send(&[5, 6], byte, 1, 0, world).unwrap();
                            Vec::new()
                        }
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the row compares the received bytes as an owned vector"
                        )]
                        1 => api.recv(byte, 16, 0, 0, world).unwrap().0.to_vec(),
                        _ => Vec::new(),
                    };
                    let ints = api
                        .allreduce(&(rank as i32 + 1).to_le_bytes(), int, sum, world)
                        .unwrap();
                    let dbls = api
                        .allreduce(&(rank as f64 + 1.0).to_le_bytes(), dbl, sum, world)
                        .unwrap();
                    (
                        received,
                        i32::from_le_bytes(ints[..4].try_into().unwrap()),
                        f64::from_le_bytes(dbls[..8].try_into().unwrap()),
                    )
                })
            })
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            let (received, ints, dbls) = handle.join().unwrap();
            if rank == 1 {
                assert_eq!(received, vec![5, 6], "{}", backend.name());
            }
            assert_eq!((ints, dbls), (6, 6.0), "{}", backend.name());
        }
    }
}
