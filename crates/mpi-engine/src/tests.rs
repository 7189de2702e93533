//! Multi-rank behavioural tests for the generic engine, using the plain test codec.

use crate::codec::test_support::PlainCodec;
use crate::engine::{Engine, EngineConfig};
use crate::personality::FULL;
use mpi_model::api::MpiApi;
use mpi_model::buffer::{bytes_to_f64, bytes_to_i32, f64_to_bytes, i32_to_bytes};
use mpi_model::constants::{ConstantResolution, PredefinedObject};
use mpi_model::datatype::{PrimitiveType, TypeCombiner};
use mpi_model::error::MpiError;
use mpi_model::op::{PredefinedOp, UserFunctionRegistry};
use mpi_model::types::{ANY_SOURCE, ANY_TAG};
use net_sim::{Fabric, FabricConfig};
use parking_lot::RwLock;
use std::sync::Arc;

fn launch_test_engines(world_size: usize) -> Vec<Engine<PlainCodec>> {
    let fabric = Fabric::new(FabricConfig::new(world_size, 7));
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    (0..world_size)
        .map(|rank| {
            Engine::new(
                EngineConfig {
                    name: "test-engine",
                    resolution: ConstantResolution::CompileTimeInteger,
                    features: FULL,
                },
                PlainCodec,
                fabric.endpoint(rank as i32).unwrap(),
                Arc::clone(&registry),
                1,
            )
        })
        .collect()
}

/// Run `body` on every rank in its own thread and return the per-rank results.
/// The threading scaffold is the orchestrator's [`job_runtime::run_world`].
fn run_ranks<T, F>(world_size: usize, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize, &mut Engine<PlainCodec>) -> T + Send + Sync + 'static,
{
    let engines = launch_test_engines(world_size);
    job_runtime::run_world(engines, move |rank, mut engine| Ok(body(rank, &mut engine)))
        .expect("engine world runs")
}

#[test]
fn world_size_and_rank() {
    let results = run_ranks(3, |_rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        (
            api.comm_rank(world).unwrap(),
            api.comm_size(world).unwrap(),
            api.world_rank(),
        )
    });
    for (rank, (comm_rank, size, world_rank)) in results.into_iter().enumerate() {
        assert_eq!(comm_rank as usize, rank);
        assert_eq!(size, 3);
        assert_eq!(world_rank as usize, rank);
    }
}

#[test]
fn blocking_send_recv_ring() {
    let n = 4;
    let results = run_ranks(n, move |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let double = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))
            .unwrap();
        let next = ((rank + 1) % n) as i32;
        let prev = ((rank + n - 1) % n) as i32;
        let payload = f64_to_bytes(&[rank as f64]);
        api.send(&payload, double, next, 42, world).unwrap();
        let (data, status) = api.recv(double, 1024, prev, 42, world).unwrap();
        assert_eq!(status.source, prev);
        assert_eq!(status.tag, 42);
        bytes_to_f64(&data)[0]
    });
    for (rank, value) in results.into_iter().enumerate() {
        assert_eq!(value as usize, (rank + 4 - 1) % 4);
    }
}

#[test]
fn allreduce_sum_and_max() {
    let n = 5;
    let results = run_ranks(n, move |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let int = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int))
            .unwrap();
        let sum_op = api
            .resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))
            .unwrap();
        let max_op = api
            .resolve_constant(PredefinedObject::Op(PredefinedOp::Max))
            .unwrap();
        let contribution = i32_to_bytes(&[rank as i32, 1]);
        let sum = api.allreduce(&contribution, int, sum_op, world).unwrap();
        let max = api.allreduce(&contribution, int, max_op, world).unwrap();
        (bytes_to_i32(&sum), bytes_to_i32(&max))
    });
    let expected_sum: i32 = (0..5).sum();
    for (sum, max) in results {
        assert_eq!(sum, vec![expected_sum, 5]);
        assert_eq!(max, vec![4, 1]);
    }
}

#[test]
fn reduce_only_root_gets_result() {
    let results = run_ranks(3, |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let int = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int))
            .unwrap();
        let sum = api
            .resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))
            .unwrap();
        api.reduce(&i32_to_bytes(&[rank as i32 + 1]), int, sum, 1, world)
            .unwrap()
    });
    assert!(results[0].is_none());
    assert_eq!(bytes_to_i32(results[1].as_ref().unwrap()), vec![6]);
    assert!(results[2].is_none());
}

#[test]
fn comm_split_even_odd() {
    let n = 6;
    let results = run_ranks(n, move |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let color = (rank % 2) as i32;
        let sub = api.comm_split(world, Some(color), rank as i32).unwrap();
        let sub_rank = api.comm_rank(sub).unwrap();
        let sub_size = api.comm_size(sub).unwrap();
        // Sub-communicator traffic must not leak into the world communicator.
        let int = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int))
            .unwrap();
        let sum = api
            .resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))
            .unwrap();
        let total = api
            .allreduce(&i32_to_bytes(&[rank as i32]), int, sum, sub)
            .unwrap();
        (sub_rank, sub_size, bytes_to_i32(&total)[0])
    });
    // Even ranks 0,2,4 sum to 6; odd ranks 1,3,5 sum to 9.
    for (rank, (sub_rank, sub_size, total)) in results.into_iter().enumerate() {
        assert_eq!(sub_size, 3);
        assert_eq!(sub_rank as usize, rank / 2);
        if rank % 2 == 0 {
            assert_eq!(total, 6);
        } else {
            assert_eq!(total, 9);
        }
    }
}

#[test]
fn comm_split_undefined_color_gets_null() {
    let results = run_ranks(2, |rank, api| {
        let _ = rank;
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let color = if rank == 0 { Some(0) } else { None };
        let sub = api.comm_split(world, color, 0).unwrap();
        let null = api.resolve_constant(PredefinedObject::CommNull).unwrap();
        (sub, null)
    });
    assert_ne!(results[0].0, results[0].1);
    assert_eq!(
        results[1].0, results[1].1,
        "undefined colour yields MPI_COMM_NULL"
    );
}

#[test]
fn comm_dup_and_create() {
    let results = run_ranks(4, |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let dup = api.comm_dup(world).unwrap();
        assert_eq!(api.comm_size(dup).unwrap(), 4);
        assert_eq!(api.comm_rank(dup).unwrap() as usize, rank);

        // Create a communicator holding only ranks 0 and 2.
        let world_group = api.comm_group(world).unwrap();
        let subgroup = api.group_incl(world_group, &[0, 2]).unwrap();
        let sub = api.comm_create(world, subgroup).unwrap();
        let null = api.resolve_constant(PredefinedObject::CommNull).unwrap();
        if rank == 0 || rank == 2 {
            assert_ne!(sub, null);
            (api.comm_size(sub).unwrap(), api.comm_rank(sub).unwrap())
        } else {
            assert_eq!(sub, null);
            (0, -1)
        }
    });
    assert_eq!(results[0], (2, 0));
    assert_eq!(results[2], (2, 1));
    assert_eq!(results[1], (0, -1));
}

#[test]
fn group_operations() {
    let results = run_ranks(4, |_rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let group = api.comm_group(world).unwrap();
        assert_eq!(api.group_size(group).unwrap(), 4);
        let sub = api.group_incl(group, &[3, 1]).unwrap();
        assert_eq!(api.group_members(sub).unwrap(), vec![3, 1]);
        let translated = api.group_translate_ranks(sub, &[0, 1], group).unwrap();
        api.group_free(sub).unwrap();
        translated
    });
    for t in results {
        assert_eq!(t, vec![3, 1]);
    }
}

#[test]
fn derived_datatype_envelope_and_contents() {
    let results = run_ranks(1, |_rank, api| {
        let double = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))
            .unwrap();
        let vec_ty = api.type_vector(4, 2, 3, double).unwrap();
        api.type_commit(vec_ty).unwrap();
        assert_eq!(api.type_size(vec_ty).unwrap(), 4 * 2 * 8);
        let env = api.type_get_envelope(vec_ty).unwrap();
        assert_eq!(env.combiner, TypeCombiner::Vector);
        let (ints, addrs, children) = api.type_get_contents(vec_ty).unwrap();
        assert_eq!(ints, vec![4, 2, 3]);
        assert!(addrs.is_empty());
        assert_eq!(children, vec![double]);

        // Nested: contiguous of the vector type.
        let nested = api.type_contiguous(2, vec_ty).unwrap();
        api.type_commit(nested).unwrap();
        assert_eq!(api.type_size(nested).unwrap(), 2 * 64);
        let (_, _, children) = api.type_get_contents(nested).unwrap();
        assert_eq!(children, vec![vec_ty]);

        // A named type has a Named envelope and no contents.
        let env = api.type_get_envelope(double).unwrap();
        assert_eq!(env.combiner, TypeCombiner::Named);
        assert!(api.type_get_contents(double).is_err());

        // Using an uncommitted type in communication is an error.
        let uncommitted = api.type_contiguous(3, double).unwrap();
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let err = api.send(&[0u8; 24], uncommitted, 0, 0, world).unwrap_err();
        assert!(matches!(err, MpiError::TypeNotCommitted(_)));
        true
    });
    assert!(results[0]);
}

#[test]
fn nonblocking_and_iprobe() {
    let results = run_ranks(2, |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let byte = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Byte))
            .unwrap();
        if rank == 0 {
            let req = api.isend(&[1, 2, 3], byte, 1, 5, world).unwrap();
            let (status, payload) = api.wait(req).unwrap();
            assert!(payload.is_none());
            assert_eq!(status.tag, 5);
            0
        } else {
            // Wait for the message to arrive, observing it with iprobe first.
            loop {
                if let Some(status) = api.iprobe(ANY_SOURCE, ANY_TAG, world).unwrap() {
                    assert_eq!(status.source, 0);
                    assert_eq!(status.count_bytes, 3);
                    break;
                }
                std::thread::yield_now();
            }
            let req = api.irecv(byte, 64, 0, 5, world).unwrap();
            let (status, payload) = api.wait(req).unwrap();
            assert_eq!(status.count_bytes, 3);
            assert_eq!(payload.unwrap(), vec![1, 2, 3]);
            1
        }
    });
    assert_eq!(results, vec![0, 1]);
}

#[test]
fn test_polls_until_complete() {
    let results = run_ranks(2, |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let byte = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Byte))
            .unwrap();
        if rank == 0 {
            // Hold the message back until rank 1 says it has posted the irecv and
            // polled it once.
            api.recv(byte, 16, 1, 2, world).unwrap();
            api.send(&[9], byte, 1, 1, world).unwrap();
            0usize
        } else {
            let req = api.irecv(byte, 16, 0, 1, world).unwrap();
            assert!(api.test(req).unwrap().is_none(), "nothing was sent yet");
            api.send(&[], byte, 0, 2, world).unwrap();
            let mut polls = 1usize;
            loop {
                match api.test(req).unwrap() {
                    Some((status, payload)) => {
                        assert_eq!(status.count_bytes, 1);
                        assert_eq!(payload.unwrap(), vec![9]);
                        break;
                    }
                    None => {
                        polls += 1;
                        std::thread::yield_now();
                    }
                }
            }
            polls
        }
    });
    assert!(results[1] >= 1, "rank 1 should have polled at least once");
}

#[test]
fn alltoall_gather_scatter_bcast_barrier() {
    let n = 3;
    let results = run_ranks(n, move |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        api.barrier(world).unwrap();

        // Alltoall: rank r sends byte value (10*r + dest) to each dest.
        let send: Vec<u8> = (0..n).map(|d| (10 * rank + d) as u8).collect();
        let recv = api.alltoall(&send, 1, world).unwrap();
        let expected: Vec<u8> = (0..n).map(|s| (10 * s + rank) as u8).collect();
        assert_eq!(recv, expected);

        // Gather at root 2.
        let gathered = api.gather(&[rank as u8], 2, world).unwrap();
        if rank == 2 {
            assert_eq!(gathered.unwrap(), vec![0, 1, 2]);
        } else {
            assert!(gathered.is_none());
        }

        // Allgather.
        let all = api.allgather(&[rank as u8 + 100], world).unwrap();
        assert_eq!(all, vec![100, 101, 102]);

        // Scatter from root 0.
        let scattered = if rank == 0 {
            api.scatter(Some(&[7, 8, 9]), 1, 0, world).unwrap()
        } else {
            api.scatter(None, 1, 0, world).unwrap()
        };
        assert_eq!(scattered, vec![7 + rank as u8]);

        // Bcast from root 1.
        let mut buf = if rank == 1 { vec![42, 43] } else { vec![] };
        api.bcast(&mut buf, 1, world).unwrap();
        buf
    });
    for buf in results {
        assert_eq!(buf, vec![42, 43]);
    }
}

#[test]
fn block_sizes_that_cannot_match_are_errors_not_panics() {
    let results = run_ranks(2, move |rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        // `block_bytes * size` overflows: rejected before the collective is entered.
        let overflow = api.alltoall(&[1, 2], usize::MAX, world);
        assert!(matches!(overflow, Err(MpiError::InvalidCount(2))));
        let overflow = api.scatter(Some(&[1, 2]), usize::MAX, rank as i32, world);
        assert!(matches!(overflow, Err(MpiError::InvalidCount(2))));
        // Rank 1 asks for a bigger block than the root scattered.
        if rank == 0 {
            api.scatter(Some(&[7, 8]), 1, 0, world)
        } else {
            api.scatter(None, usize::MAX, 0, world)
        }
    });
    assert_eq!(results[0], Ok(vec![7]));
    assert!(matches!(results[1], Err(MpiError::CollectiveMismatch(_))));
}

#[test]
fn user_defined_op() {
    let fabric = Fabric::new(FabricConfig::new(2, 7));
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    // Register a "take the larger absolute value" reduction as user function 7.
    registry.write().register(
        7,
        true,
        Arc::new(|inout, incoming, _ty| {
            for (d, s) in inout.chunks_exact_mut(4).zip(incoming.chunks_exact(4)) {
                let a = i32::from_le_bytes(d.try_into().unwrap());
                let b = i32::from_le_bytes(s.try_into().unwrap());
                if b.abs() > a.abs() {
                    d.copy_from_slice(&b.to_le_bytes());
                }
            }
        }),
    );
    let engines: Vec<_> = (0..2)
        .map(|rank| {
            Engine::new(
                EngineConfig {
                    name: "test-engine",
                    resolution: ConstantResolution::CompileTimeInteger,
                    features: FULL,
                },
                PlainCodec,
                fabric.endpoint(rank).unwrap(),
                Arc::clone(&registry),
                1,
            )
        })
        .collect();
    let results = job_runtime::run_world(engines, |rank, mut api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let int = api
            .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Int))
            .unwrap();
        let op = api.op_create(7, true).unwrap();
        let mine = if rank == 0 { -50 } else { 3 };
        let out = api
            .allreduce(&i32_to_bytes(&[mine]), int, op, world)
            .unwrap();
        api.op_free(op).unwrap();
        Ok(bytes_to_i32(&out)[0])
    })
    .unwrap();
    for value in results {
        assert_eq!(value, -50);
    }
}

#[test]
fn unsupported_feature_is_reported() {
    let fabric = Fabric::new(FabricConfig::new(1, 7));
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let mut api = Engine::new(
        EngineConfig {
            name: "tiny",
            resolution: ConstantResolution::LazySharedPointer,
            // Only the strictly required MANA subset: no comm_dup, no derived types.
            features: &mpi_model::subset::REQUIRED_SUBSET,
        },
        PlainCodec,
        fabric.endpoint(0).unwrap(),
        registry,
        1,
    );
    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
    assert!(matches!(
        api.comm_dup(world),
        Err(MpiError::Unsupported { .. })
    ));
    let double = api
        .resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))
        .unwrap();
    assert!(matches!(
        api.type_contiguous(4, double),
        Err(MpiError::Unsupported { .. })
    ));
}

#[test]
fn lazily_resolved_constants_materialize_on_demand() {
    let fabric = Fabric::new(FabricConfig::new(1, 7));
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let mut api = Engine::new(
        EngineConfig {
            name: "lazy",
            resolution: ConstantResolution::LazySharedPointer,
            features: FULL,
        },
        PlainCodec,
        fabric.endpoint(0).unwrap(),
        registry,
        1,
    );
    let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
    let again = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
    assert_eq!(world, again, "resolution is cached within a session");
    assert_eq!(api.comm_size(world).unwrap(), 1);
}

#[test]
fn finalize_blocks_further_calls() {
    let results = run_ranks(1, |_rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        api.finalize().unwrap();
        let err = api.barrier(world).unwrap_err();
        matches!(err, MpiError::NotInitialized)
    });
    assert!(results[0]);
}

#[test]
fn wrong_kind_handles_are_rejected() {
    let results = run_ranks(1, |_rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        let group = api.comm_group(world).unwrap();
        // Passing a group where a communicator is expected must fail with WrongKind.
        matches!(
            api.comm_size(group).unwrap_err(),
            MpiError::WrongKind { .. }
        )
    });
    assert!(results[0]);
}

#[test]
fn comm_free_rejects_predefined() {
    let results = run_ranks(1, |_rank, api| {
        let world = api.resolve_constant(PredefinedObject::CommWorld).unwrap();
        api.comm_free(world).is_err()
    });
    assert!(results[0]);
}
