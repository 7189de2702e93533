//! Predefined MPI objects ("global constants") and the resolution policies that
//! different MPI implementation families use for them.
//!
//! Paper §4.3 is entirely about this problem: in the MPICH family `MPI_COMM_WORLD`
//! expands to a compile-time integer that is identical in the upper and lower halves
//! and identical before checkpoint and after restart; in Open MPI it expands to a
//! function call returning a pointer whose value differs between halves and between
//! sessions; in ExaMPI constants are lazily-initialized shared pointers whose addresses
//! are only known late at runtime. MANA therefore cannot bake any constant's physical
//! value into checkpointed state — it maps each predefined object onto a reserved
//! virtual id and re-resolves the physical value from the (new) lower half at restart.

use crate::datatype::PrimitiveType;
use crate::op::PredefinedOp;
use crate::types::HandleKind;
use serde::{Deserialize, Serialize};

/// Every predefined MPI object that applications may name without creating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PredefinedObject {
    /// `MPI_COMM_WORLD`
    CommWorld,
    /// `MPI_COMM_SELF`
    CommSelf,
    /// `MPI_COMM_NULL`
    CommNull,
    /// `MPI_GROUP_EMPTY`
    GroupEmpty,
    /// `MPI_GROUP_NULL`
    GroupNull,
    /// `MPI_REQUEST_NULL`
    RequestNull,
    /// `MPI_OP_NULL`
    OpNull,
    /// `MPI_DATATYPE_NULL`
    DatatypeNull,
    /// A predefined datatype (`MPI_INT`, `MPI_DOUBLE`, ...).
    Datatype(PrimitiveType),
    /// A predefined reduction op (`MPI_SUM`, ...).
    Op(PredefinedOp),
}

impl PredefinedObject {
    /// The object kind this constant belongs to.
    pub fn kind(self) -> HandleKind {
        match self {
            PredefinedObject::CommWorld
            | PredefinedObject::CommSelf
            | PredefinedObject::CommNull => HandleKind::Comm,
            PredefinedObject::GroupEmpty | PredefinedObject::GroupNull => HandleKind::Group,
            PredefinedObject::RequestNull => HandleKind::Request,
            PredefinedObject::OpNull | PredefinedObject::Op(_) => HandleKind::Op,
            PredefinedObject::DatatypeNull | PredefinedObject::Datatype(_) => HandleKind::Datatype,
        }
    }

    /// Enumerate every predefined object, in a stable order. The position in this list
    /// is the object's "constant slot", used both by the simulated implementations'
    /// constant tables and by MANA's reserved virtual ids.
    pub fn all() -> Vec<PredefinedObject> {
        let mut v = vec![
            PredefinedObject::CommWorld,
            PredefinedObject::CommSelf,
            PredefinedObject::CommNull,
            PredefinedObject::GroupEmpty,
            PredefinedObject::GroupNull,
            PredefinedObject::RequestNull,
            PredefinedObject::OpNull,
            PredefinedObject::DatatypeNull,
        ];
        v.extend(
            PrimitiveType::ALL
                .iter()
                .map(|&p| PredefinedObject::Datatype(p)),
        );
        v.extend(PredefinedOp::ALL.iter().map(|&o| PredefinedObject::Op(o)));
        v
    }

    /// The stable slot of this constant in [`PredefinedObject::all`].
    #[expect(
        clippy::expect_used,
        reason = "provable invariant — the table enumerates every variant; the unit test below locks the bijection"
    )]
    pub fn slot(self) -> usize {
        PredefinedObject::all()
            .iter()
            .position(|&o| o == self)
            .expect("every predefined object appears in all()")
    }

    /// Whether this constant denotes a "null" handle.
    pub fn is_null(self) -> bool {
        matches!(
            self,
            PredefinedObject::CommNull
                | PredefinedObject::GroupNull
                | PredefinedObject::RequestNull
                | PredefinedObject::OpNull
                | PredefinedObject::DatatypeNull
        )
    }

    /// The MPI constant name (`MPI_COMM_WORLD`, `MPI_INT`, ...).
    pub(crate) fn mpi_name(self) -> String {
        match self {
            PredefinedObject::CommWorld => "MPI_COMM_WORLD".to_string(),
            PredefinedObject::CommSelf => "MPI_COMM_SELF".to_string(),
            PredefinedObject::CommNull => "MPI_COMM_NULL".to_string(),
            PredefinedObject::GroupEmpty => "MPI_GROUP_EMPTY".to_string(),
            PredefinedObject::GroupNull => "MPI_GROUP_NULL".to_string(),
            PredefinedObject::RequestNull => "MPI_REQUEST_NULL".to_string(),
            PredefinedObject::OpNull => "MPI_OP_NULL".to_string(),
            PredefinedObject::DatatypeNull => "MPI_DATATYPE_NULL".to_string(),
            PredefinedObject::Datatype(p) => p.mpi_name().to_string(),
            PredefinedObject::Op(o) => o.mpi_name().to_string(),
        }
    }
}

/// How an implementation family resolves its predefined constants to physical handles.
///
/// This is reported by each [`crate::api::MpiApi`] implementation so that MANA (and the
/// tests) can verify that the virtual-id layer genuinely insulates the application from
/// the differences. It mirrors the three concrete designs discussed in paper §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstantResolution {
    /// MPICH family: constants are fixed integers baked into `mpi.h`; identical in both
    /// halves and across sessions.
    CompileTimeInteger,
    /// Open MPI: constants are addresses of internal structs, resolved when the library
    /// is initialized; they differ between the upper and lower halves and between the
    /// pre-checkpoint and post-restart sessions.
    StartupResolvedPointer,
    /// ExaMPI: constants are lazily-initialized shared pointers (`MPI_INT8_T` and
    /// `MPI_CHAR` may alias); the physical value is not known until first use.
    LazySharedPointer,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_a_bijection() {
        let all = PredefinedObject::all();
        for (i, obj) in all.iter().enumerate() {
            assert_eq!(obj.slot(), i);
        }
        // 8 special handles + primitives + ops
        assert_eq!(
            all.len(),
            8 + PrimitiveType::ALL.len() + PredefinedOp::ALL.len()
        );
    }

    #[test]
    fn kinds() {
        assert_eq!(PredefinedObject::CommWorld.kind(), HandleKind::Comm);
        assert_eq!(PredefinedObject::GroupEmpty.kind(), HandleKind::Group);
        assert_eq!(
            PredefinedObject::Datatype(PrimitiveType::Int).kind(),
            HandleKind::Datatype
        );
        assert_eq!(
            PredefinedObject::Op(PredefinedOp::Sum).kind(),
            HandleKind::Op
        );
    }

    #[test]
    fn null_detection() {
        assert!(PredefinedObject::CommNull.is_null());
        assert!(!PredefinedObject::CommWorld.is_null());
    }

    #[test]
    fn names() {
        assert_eq!(PredefinedObject::CommWorld.mpi_name(), "MPI_COMM_WORLD");
        assert_eq!(
            PredefinedObject::Datatype(PrimitiveType::Double).mpi_name(),
            "MPI_DOUBLE"
        );
        assert_eq!(
            PredefinedObject::Op(PredefinedOp::Sum).mpi_name(),
            "MPI_SUM"
        );
    }
}
