//! Fundamental scalar types shared across the MPI model: ranks, tags, physical handles,
//! and the classification of MPI object kinds that MANA virtualizes.

use serde::{Deserialize, Serialize};

/// A process rank within some communicator (or within a group).
///
/// MPI ranks are non-negative `int`s; we keep them as `i32` so that the wildcard
/// [`ANY_SOURCE`] (negative, as in every real implementation) fits in the same type.
pub type Rank = i32;

/// A message tag. Like ranks, tags are non-negative except for the [`ANY_TAG`] wildcard.
pub type Tag = i32;

/// Wildcard source rank for receive/probe operations (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Rank = -1;

/// Wildcard tag for receive/probe operations (`MPI_ANY_TAG`).
pub const ANY_TAG: Tag = -2;

/// The five kinds of MPI objects whose ids MANA virtualizes (paper §1.2, point 3),
/// plus `File`/`Win` style kinds are deliberately absent because MANA (and the paper)
/// exclude one-sided communication and MPI-IO state from transparent checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HandleKind {
    /// An `MPI_Comm`.
    Comm,
    /// An `MPI_Group`.
    Group,
    /// An `MPI_Request`.
    Request,
    /// An `MPI_Op`.
    Op,
    /// An `MPI_Datatype`.
    Datatype,
}

impl HandleKind {
    /// All kinds, in a stable order (used for iteration and for encoding kind tags).
    pub const ALL: [HandleKind; 5] = [
        HandleKind::Comm,
        HandleKind::Group,
        HandleKind::Request,
        HandleKind::Op,
        HandleKind::Datatype,
    ];

    /// A stable small integer tag for this kind, used by implementations that encode
    /// the kind into handle bits (the MPICH two-level table) and by MANA's virtual ids.
    pub fn tag(self) -> u32 {
        match self {
            HandleKind::Comm => 0,
            HandleKind::Group => 1,
            HandleKind::Request => 2,
            HandleKind::Op => 3,
            HandleKind::Datatype => 4,
        }
    }

    /// Inverse of [`HandleKind::tag`]. Returns `None` for tags outside `0..=4`.
    pub fn from_tag(tag: u32) -> Option<Self> {
        Some(match tag {
            0 => HandleKind::Comm,
            1 => HandleKind::Group,
            2 => HandleKind::Request,
            3 => HandleKind::Op,
            4 => HandleKind::Datatype,
            _ => return None,
        })
    }

    /// Human-readable name matching the MPI type name (`MPI_Comm`, ...).
    pub fn mpi_type_name(self) -> &'static str {
        match self {
            HandleKind::Comm => "MPI_Comm",
            HandleKind::Group => "MPI_Group",
            HandleKind::Request => "MPI_Request",
            HandleKind::Op => "MPI_Op",
            HandleKind::Datatype => "MPI_Datatype",
        }
    }
}

/// A *physical* MPI object handle as produced by a particular MPI implementation's
/// lower half.
///
/// The paper's §3 observes that implementations disagree about what a handle is:
///
/// * the MPICH family uses 32-bit integers that encode a two-level table lookup,
/// * Open MPI uses 64-bit pointers to internal structs,
/// * ExaMPI uses enum discriminants for primitive datatypes and (lazily materialized)
///   shared pointers for everything else.
///
/// All of those fit in 64 bits, so the model carries physical handles as an opaque
/// `u64` newtype. Only the implementation that minted a handle may interpret its bits;
/// MANA stores them verbatim inside its virtual-id descriptors and hands them back on
/// the next call into the lower half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhysHandle(pub u64);

impl PhysHandle {
    /// The "null" physical handle (`MPI_COMM_NULL` etc. are modelled as all-zero).
    pub const NULL: PhysHandle = PhysHandle(0);

    /// Construct a handle from raw bits.
    pub fn from_bits(bits: u64) -> Self {
        PhysHandle(bits)
    }

    /// Raw bits of the handle.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Whether this is the null handle.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for PhysHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "phys:{:#x}", self.0)
    }
}

/// Identifies a communication *context*: messages sent on one communicator can never be
/// matched by receives on another, even if ranks and tags coincide. Each communicator
/// creation allocates a fresh context id; this is also the seed of MANA's "ggid".
pub type ContextId = u64;

/// A rank's place in one registration round of the two-phase collective protocol, as
/// handed out by `MpiApi::collective_register`: everything the lower half needs to
/// find the round again, resolved once when the rank registers. Opaque to callers,
/// who only pass it back to `collective_ready` / `collective_withdraw`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrationTicket {
    /// The communicator's context.
    pub context: ContextId,
    /// The sequence number of the collective the round guards.
    pub seq: u64,
    /// This rank's index within the communicator.
    pub index: usize,
    /// The communicator's size.
    pub size: usize,
}

/// A monotonically increasing sequence number used by the fabric to preserve the
/// per-(sender, receiver, context) FIFO ordering MPI guarantees.
pub type SeqNo = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tag_roundtrip() {
        for kind in HandleKind::ALL {
            assert_eq!(HandleKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(HandleKind::from_tag(5), None);
        assert_eq!(HandleKind::from_tag(u32::MAX), None);
    }

    #[test]
    fn kind_tags_are_distinct() {
        let mut tags: Vec<u32> = HandleKind::ALL.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), HandleKind::ALL.len());
    }

    #[test]
    fn phys_handle_null() {
        assert!(PhysHandle::NULL.is_null());
        assert!(!PhysHandle::from_bits(1).is_null());
        assert_eq!(PhysHandle::from_bits(42).bits(), 42);
    }

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "the test pins the signs of the wildcard constants"
    )]
    fn wildcards_are_negative() {
        assert!(ANY_SOURCE < 0);
        assert!(ANY_TAG < 0);
    }

    #[test]
    fn mpi_type_names() {
        assert_eq!(HandleKind::Comm.mpi_type_name(), "MPI_Comm");
        assert_eq!(HandleKind::Datatype.mpi_type_name(), "MPI_Datatype");
    }

    #[test]
    fn phys_handle_display() {
        assert_eq!(PhysHandle(0x10).to_string(), "phys:0x10");
    }
}
