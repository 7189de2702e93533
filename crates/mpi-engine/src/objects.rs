//! The engine's internal object records — what lives behind a physical handle.

use mpi_model::comm::CommDescriptor;
use mpi_model::datatype::TypeDescriptor;
use mpi_model::group::GroupDescriptor;
use mpi_model::op::OpDescriptor;
use mpi_model::payload::PayloadBuf;
use mpi_model::request::RequestRecord;
use mpi_model::types::PhysHandle;
use net_sim::message::MatchSpec;

/// A communicator object inside the lower half.
#[derive(Debug, Clone)]
pub(crate) struct CommObject {
    /// Membership and context.
    pub descriptor: CommDescriptor,
    /// Per-communicator collective sequence number. All members call collectives on a
    /// communicator in the same order, so advancing this locally keeps ranks in step.
    pub(crate) collective_seq: u64,
    /// Whether this is a predefined communicator (world/self), which `MPI_Comm_free`
    /// must refuse to free.
    pub predefined: bool,
}

impl CommObject {
    /// Create a communicator object.
    pub fn new(descriptor: CommDescriptor, predefined: bool) -> Self {
        CommObject {
            descriptor,
            collective_seq: 0,
            predefined,
        }
    }

    /// Advance and return the previous collective sequence number.
    pub(crate) fn next_collective(&mut self) -> u64 {
        let seq = self.collective_seq;
        self.collective_seq += 1;
        seq
    }
}

/// A group object inside the lower half.
#[derive(Debug, Clone)]
pub(crate) struct GroupObject {
    /// Membership, ordered by group rank.
    pub descriptor: GroupDescriptor,
    /// Whether this is a predefined group (`MPI_GROUP_EMPTY`).
    pub predefined: bool,
}

/// A datatype object inside the lower half.
#[derive(Debug, Clone)]
pub(crate) struct TypeObject {
    /// Structural description of the type.
    pub descriptor: TypeDescriptor,
    /// Physical handles of the inner types this type was constructed from, in
    /// constructor order. `MPI_Type_get_contents` reports these, matching real MPI,
    /// which returns handles (not structural copies) for the inner types.
    pub children: Vec<PhysHandle>,
    /// Whether `MPI_Type_commit` has been called.
    pub committed: bool,
    /// Whether this is a predefined type (always committed, never freeable).
    pub predefined: bool,
}

/// A reduction-op object inside the lower half.
#[derive(Debug, Clone)]
pub(crate) struct OpObject {
    /// Predefined op or user registration.
    pub descriptor: OpDescriptor,
    /// Whether this is a predefined op.
    pub predefined: bool,
}

/// A request object inside the lower half.
#[derive(Debug, Clone)]
pub(crate) struct RequestObject {
    /// The implementation-independent record (kind, peer, tag, state).
    pub record: RequestRecord,
    /// For receive requests: the matching spec to use when progressing the request.
    pub(crate) match_spec: Option<MatchSpec>,
    /// For receive requests: the receive-buffer capacity in bytes.
    pub max_bytes: usize,
    /// For completed receive requests: the received payload, held until the
    /// application collects it with `MPI_Test`/`MPI_Wait`. Holding a
    /// [`PayloadBuf`] keeps this a refcount on the sender's allocation rather
    /// than a copy parked in the request table.
    pub payload: Option<PayloadBuf>,
}
