//! Satellite regressions for the byte-level wrapper layer's argument validation:
//!
//! * every argument position rejects a handle of the wrong kind with
//!   [`MpiError::WrongKind`] naming the expected vs. actual descriptor kind — never
//!   with a generic lookup/metadata error (the pre-fix behaviour of the datatype
//!   constructors and `irecv`);
//! * `comm_free`/`group_free`/`type_free`/`op_free` on predefined objects
//!   (world/self communicators, named datatypes, built-in ops) fail cleanly with
//!   [`MpiError::FreePredefined`] and leave the descriptor intact.

#![expect(
    clippy::panic,
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use mana::runtime::AppHandle;
use mana::{ManaConfig, ManaRank};
use mpi_engine::Backend;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::PrimitiveType;
use mpi_model::error::MpiError;
use mpi_model::op::{PredefinedOp, UserFunctionRegistry};
use mpi_model::types::HandleKind;
use parking_lot::RwLock;
use std::sync::Arc;

/// A single-rank world plus one live handle of every kind.
struct Fixture {
    rank: ManaRank,
    comm: AppHandle,
    group: AppHandle,
    datatype: AppHandle,
    op: AppHandle,
}

fn fixture() -> Fixture {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let mut lowers = Backend::Mpich
        .launch(1, Arc::clone(&registry), 1)
        .unwrap()
        .0;
    let mut rank = ManaRank::new(lowers.remove(0), ManaConfig::new_design(), registry).unwrap();
    let comm = rank.world().unwrap();
    let group = rank.comm_group(comm).unwrap();
    let datatype = rank
        .constant(PredefinedObject::Datatype(PrimitiveType::Double))
        .unwrap();
    let op = rank
        .constant(PredefinedObject::Op(PredefinedOp::Sum))
        .unwrap();
    Fixture {
        rank,
        comm,
        group,
        datatype,
        op,
    }
}

fn assert_wrong_kind(result: MpiError, expected: HandleKind, found: HandleKind, position: &str) {
    match result {
        MpiError::WrongKind {
            expected: e,
            found: f,
        } => {
            assert_eq!(e, expected, "{position}: expected kind");
            assert_eq!(f, found, "{position}: found kind");
        }
        other => panic!("{position}: wanted WrongKind, got {other:?}"),
    }
}

#[test]
fn comm_argument_positions_reject_non_comms() {
    let Fixture {
        mut rank,
        group,
        datatype,
        op,
        ..
    } = fixture();
    use HandleKind::{Comm, Datatype, Group, Op};

    assert_wrong_kind(
        rank.comm_rank(datatype).unwrap_err(),
        Comm,
        Datatype,
        "comm_rank(comm)",
    );
    assert_wrong_kind(
        rank.comm_size(group).unwrap_err(),
        Comm,
        Group,
        "comm_size(comm)",
    );
    assert_wrong_kind(rank.comm_dup(op).unwrap_err(), Comm, Op, "comm_dup(comm)");
    assert_wrong_kind(
        rank.comm_split(datatype, Some(0), 0).unwrap_err(),
        Comm,
        Datatype,
        "comm_split(comm)",
    );
    assert_wrong_kind(
        rank.comm_create(group, group).unwrap_err(),
        Comm,
        Group,
        "comm_create(comm)",
    );
    assert_wrong_kind(
        rank.comm_group(op).unwrap_err(),
        Comm,
        Op,
        "comm_group(comm)",
    );
    assert_wrong_kind(
        rank.comm_free(datatype).unwrap_err(),
        Comm,
        Datatype,
        "comm_free(comm)",
    );
    assert_wrong_kind(
        rank.send(&[0u8; 8], datatype, 0, 0, datatype).unwrap_err(),
        Comm,
        Datatype,
        "send(comm)",
    );
    assert_wrong_kind(
        rank.recv(datatype, 8, 0, 0, group).unwrap_err(),
        Comm,
        Group,
        "recv(comm)",
    );
    assert_wrong_kind(
        rank.iprobe(0, 0, datatype).unwrap_err(),
        Comm,
        Datatype,
        "iprobe(comm)",
    );
    assert_wrong_kind(rank.barrier(op).unwrap_err(), Comm, Op, "barrier(comm)");
    assert_wrong_kind(
        rank.allgather(&[0u8; 8], group).unwrap_err(),
        Comm,
        Group,
        "allgather(comm)",
    );
    assert_wrong_kind(
        rank.alltoall(&[0u8; 8], 8, datatype).unwrap_err(),
        Comm,
        Datatype,
        "alltoall(comm)",
    );
}

#[test]
fn datatype_argument_positions_reject_non_datatypes() {
    let Fixture {
        mut rank,
        comm,
        group,
        op,
        ..
    } = fixture();
    use HandleKind::{Comm, Datatype, Group, Op};

    assert_wrong_kind(
        rank.send(&[0u8; 8], comm, 0, 0, comm).unwrap_err(),
        Datatype,
        Comm,
        "send(datatype)",
    );
    assert_wrong_kind(
        rank.recv(group, 8, 0, 0, comm).unwrap_err(),
        Datatype,
        Group,
        "recv(datatype)",
    );
    assert_wrong_kind(
        rank.isend(&[0u8; 8], op, 0, 0, comm).unwrap_err(),
        Datatype,
        Op,
        "isend(datatype)",
    );
    assert_wrong_kind(
        rank.irecv(comm, 8, 0, 0, comm).unwrap_err(),
        Datatype,
        Comm,
        "irecv(datatype)",
    );
    assert_wrong_kind(
        rank.reduce(&[0u8; 8], comm, op, 0, comm).unwrap_err(),
        Datatype,
        Comm,
        "reduce(datatype)",
    );
    assert_wrong_kind(
        rank.allreduce(&[0u8; 8], group, op, comm).unwrap_err(),
        Datatype,
        Group,
        "allreduce(datatype)",
    );
    // The datatype constructors used to reach the descriptor-metadata fetch first
    // and fail with a generic `Internal` error; the kind check now fires first.
    assert_wrong_kind(
        rank.type_contiguous(4, comm).unwrap_err(),
        Datatype,
        Comm,
        "type_contiguous(inner)",
    );
    assert_wrong_kind(
        rank.type_vector(4, 2, 3, group).unwrap_err(),
        Datatype,
        Group,
        "type_vector(inner)",
    );
    assert_wrong_kind(
        rank.type_indexed(&[1], &[0], op).unwrap_err(),
        Datatype,
        Op,
        "type_indexed(inner)",
    );
    assert_wrong_kind(
        rank.type_create_struct(&[1], &[0], &[comm]).unwrap_err(),
        Datatype,
        Comm,
        "type_create_struct(members)",
    );
    assert_wrong_kind(
        rank.type_dup(group).unwrap_err(),
        Datatype,
        Group,
        "type_dup(inner)",
    );
    assert_wrong_kind(
        rank.type_commit(comm).unwrap_err(),
        Datatype,
        Comm,
        "type_commit(datatype)",
    );
    assert_wrong_kind(
        rank.type_size(op).unwrap_err(),
        Datatype,
        Op,
        "type_size(datatype)",
    );
    assert_wrong_kind(
        rank.type_free(comm).unwrap_err(),
        Datatype,
        Comm,
        "type_free(datatype)",
    );
}

#[test]
fn op_and_group_argument_positions_reject_wrong_kinds() {
    let Fixture {
        mut rank,
        comm,
        group,
        datatype,
        op,
    } = fixture();
    use HandleKind::{Comm, Datatype, Group, Op};

    assert_wrong_kind(
        rank.reduce(&[0u8; 8], datatype, comm, 0, comm).unwrap_err(),
        Op,
        Comm,
        "reduce(op)",
    );
    assert_wrong_kind(
        rank.allreduce(&[0u8; 8], datatype, datatype, comm)
            .unwrap_err(),
        Op,
        Datatype,
        "allreduce(op)",
    );
    assert_wrong_kind(rank.op_free(group).unwrap_err(), Op, Group, "op_free(op)");

    assert_wrong_kind(
        rank.group_size(comm).unwrap_err(),
        Group,
        Comm,
        "group_size(group)",
    );
    assert_wrong_kind(
        rank.group_incl(op, &[0]).unwrap_err(),
        Group,
        Op,
        "group_incl(group)",
    );
    assert_wrong_kind(
        rank.group_translate_ranks(group, &[0], datatype)
            .unwrap_err(),
        Group,
        Datatype,
        "group_translate_ranks(other)",
    );
    assert_wrong_kind(
        rank.group_translate_ranks(comm, &[0], group).unwrap_err(),
        Group,
        Comm,
        "group_translate_ranks(group)",
    );
    assert_wrong_kind(
        rank.group_free(datatype).unwrap_err(),
        Group,
        Datatype,
        "group_free(group)",
    );
    assert_wrong_kind(
        rank.comm_create(comm, datatype).unwrap_err(),
        Group,
        Datatype,
        "comm_create(group)",
    );
}

#[test]
fn freeing_predefined_objects_fails_cleanly() {
    let Fixture {
        mut rank,
        comm,
        datatype,
        op,
        ..
    } = fixture();
    let before = rank.descriptor_count();

    // World communicator.
    match rank.comm_free(comm).unwrap_err() {
        MpiError::FreePredefined(object) => assert_eq!(object, PredefinedObject::CommWorld),
        other => panic!("comm_free(world): {other:?}"),
    }
    // Named datatype.
    match rank.type_free(datatype).unwrap_err() {
        MpiError::FreePredefined(object) => {
            assert_eq!(object, PredefinedObject::Datatype(PrimitiveType::Double));
        }
        other => panic!("type_free(MPI_DOUBLE): {other:?}"),
    }
    // Built-in op.
    match rank.op_free(op).unwrap_err() {
        MpiError::FreePredefined(object) => {
            assert_eq!(object, PredefinedObject::Op(PredefinedOp::Sum));
        }
        other => panic!("op_free(MPI_SUM): {other:?}"),
    }
    // Predefined group (MPI_GROUP_EMPTY).
    let empty = rank.constant(PredefinedObject::GroupEmpty).unwrap();
    match rank.group_free(empty).unwrap_err() {
        MpiError::FreePredefined(object) => assert_eq!(object, PredefinedObject::GroupEmpty),
        other => panic!("group_free(MPI_GROUP_EMPTY): {other:?}"),
    }

    // The failed frees left every descriptor intact and usable (plus the one the
    // GroupEmpty resolution added).
    assert_eq!(rank.descriptor_count(), before + 1);
    assert_eq!(rank.comm_size(comm).unwrap(), 1);
    assert_eq!(rank.type_size(datatype).unwrap(), 8);
    let total = rank
        .allreduce(&5.0f64.to_le_bytes(), datatype, op, comm)
        .unwrap();
    assert_eq!(total.len(), 8);

    // The error maps to the right classic MPI error class per object kind.
    assert_eq!(
        MpiError::FreePredefined(PredefinedObject::CommWorld).error_class(),
        "MPI_ERR_COMM"
    );
    assert_eq!(
        MpiError::FreePredefined(PredefinedObject::Datatype(PrimitiveType::Int)).error_class(),
        "MPI_ERR_TYPE"
    );
    assert_eq!(
        MpiError::FreePredefined(PredefinedObject::Op(PredefinedOp::Max)).error_class(),
        "MPI_ERR_OP"
    );
}

#[test]
fn non_predefined_frees_still_work() {
    let Fixture {
        mut rank,
        comm,
        datatype,
        ..
    } = fixture();
    let baseline = rank.descriptor_count();

    let derived = rank.type_contiguous(4, datatype).unwrap();
    rank.type_commit(derived).unwrap();
    rank.type_free(derived).unwrap();

    let dup = rank.comm_dup(comm).unwrap();
    rank.comm_free(dup).unwrap();

    let group = rank.comm_group(comm).unwrap();
    rank.group_free(group).unwrap();

    let user_op = rank.op_create(77, true).unwrap();
    rank.op_free(user_op).unwrap();

    assert_eq!(rank.descriptor_count(), baseline, "no descriptor leaked");
}
