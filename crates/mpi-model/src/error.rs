//! Error model for the simulated MPI implementations and the MANA layer.
//!
//! Real MPI reports errors through integer error classes (`MPI_ERR_COMM`,
//! `MPI_ERR_TYPE`, ...). The simulated implementations use a structured enum instead,
//! but keep a mapping back to the classic error classes so that wrappers can surface
//! the same information an `MPI_Error_class` call would.

use crate::constants::PredefinedObject;
use crate::types::{HandleKind, PhysHandle, Rank, Tag};

/// Result alias used throughout the workspace.
pub type MpiResult<T> = Result<T, MpiError>;

/// Errors raised by the simulated MPI implementations, the fabric, or MANA itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A handle was passed to an operation but does not name a live object.
    InvalidHandle {
        /// The object kind the operation expected.
        kind: HandleKind,
        /// The offending handle value.
        handle: PhysHandle,
    },
    /// A handle named an object of the wrong kind (e.g. a group where a communicator
    /// was expected).
    WrongKind {
        /// Kind the operation expected.
        expected: HandleKind,
        /// Kind actually found.
        found: HandleKind,
    },
    /// A rank argument was outside the communicator/group it was used with.
    InvalidRank {
        /// The offending rank.
        rank: Rank,
        /// The size of the communicator or group.
        size: usize,
    },
    /// A tag argument was negative (and not a recognized wildcard).
    InvalidTag(
        /// The offending tag.
        Tag,
    ),
    /// A count or block length was negative.
    InvalidCount(
        /// The offending count.
        i64,
    ),
    /// The receive buffer (or declared receive type signature) was too small for the
    /// matched message: MPI's `MPI_ERR_TRUNCATE`.
    Truncate {
        /// Bytes available in the matched message.
        message_bytes: usize,
        /// Bytes the receiver allowed.
        buffer_bytes: usize,
    },
    /// The destination rank of a point-to-point operation is no longer reachable
    /// (its endpoint was shut down).
    PeerUnreachable(
        /// World rank of the unreachable peer.
        Rank,
    ),
    /// An operation was attempted on an implementation that does not provide it
    /// (ExaMPI-style subset implementations; see paper §5).
    Unsupported {
        /// Name of the MPI function or feature.
        feature: &'static str,
    },
    /// An MPI call was made after `MPI_Finalize` (or before `MPI_Init`).
    NotInitialized,
    /// The datatype was used before `MPI_Type_commit`.
    TypeNotCommitted(
        /// The offending datatype handle.
        PhysHandle,
    ),
    /// A free operation (`MPI_Comm_free`, `MPI_Group_free`, `MPI_Type_free`,
    /// `MPI_Op_free`) was applied to a predefined object, which the standard forbids
    /// (freeing `MPI_COMM_WORLD` or `MPI_DOUBLE` is erroneous). The descriptor is left
    /// untouched.
    FreePredefined(
        /// The predefined object the application tried to free.
        PredefinedObject,
    ),
    /// The collective was invoked with mismatched parameters across ranks
    /// (detected by the simulated fabric, which can see all sides).
    CollectiveMismatch(
        /// Explanation of the mismatch.
        String,
    ),
    /// A user-defined reduction op referenced a function id that was never registered.
    UnknownUserFunction(
        /// The unregistered user-function id.
        u64,
    ),
    /// Internal invariant violation inside a simulated component. Carries a message;
    /// tests treat this as a hard failure.
    Internal(
        /// Explanation of the violated invariant.
        String,
    ),
    /// The checkpoint/restart layer failed (image I/O, descriptor table corruption...).
    Checkpoint(
        /// Explanation of the checkpoint/restart failure.
        String,
    ),
    /// The rank vacated its allocation after servicing a preempting checkpoint intent
    /// delivered mid-step. Not a failure of the MPI program: orchestrators catch this
    /// marker, treat the run as preempted, and later resume it from the committed
    /// generation.
    Preempted,
    /// This rank was killed by fault injection (chaos crash or node failure): every
    /// subsequent fabric operation from the rank fails with this error. Uncoordinated —
    /// no intent broadcast, no drain — so peers only learn of it through missed
    /// heartbeats. Orchestrators treat it as recoverable: fall back to the newest
    /// committed generation and relaunch.
    RankKilled {
        /// World rank that was killed.
        rank: Rank,
    },
    /// The job was aborted fabric-wide (by the failure detector after declaring a peer
    /// dead, or by an operator). Surviving ranks blocked in receives or collectives are
    /// woken with this error so the world can be torn down and relaunched from the
    /// newest committed generation. Carries the abort reason.
    JobAborted(
        /// Human-readable reason the job was aborted.
        String,
    ),
    /// The newest valid checkpoint generation was taken at a different world size than
    /// the world offered to restore it, and the restart was given no remap policy.
    /// Same-size restart is the identity rank map; restoring onto a resized world
    /// needs an elastic configuration (`JobConfig::with_elastic`, or a remap passed to
    /// `elastic::restart_job_from_storage`), whose rank map rewrites the virtual-id
    /// tables and drain counters instead of assuming identity.
    WorldSizeMismatch {
        /// Ranks in the world when the checkpoint was taken.
        checkpointed: usize,
        /// Ranks in the world the images were offered to.
        offered: usize,
        /// The checkpoint generation that was offered.
        generation: u64,
    },
    /// An elastic (resized) restart could not map the checkpointed world onto the new
    /// one: a straddled collective, undrained buffered messages, or a derived
    /// communicator whose membership does not survive the rank map. Carries the
    /// specific obstruction.
    ElasticResize(
        /// Explanation of why the generation cannot be restored onto the new world.
        String,
    ),
}

impl MpiError {
    /// Classic MPI error-class name for this error, as `MPI_Error_class` would report.
    pub fn error_class(&self) -> &'static str {
        match self {
            MpiError::InvalidHandle { kind, .. } | MpiError::WrongKind { expected: kind, .. } => {
                match kind {
                    HandleKind::Comm => "MPI_ERR_COMM",
                    HandleKind::Group => "MPI_ERR_GROUP",
                    HandleKind::Request => "MPI_ERR_REQUEST",
                    HandleKind::Op => "MPI_ERR_OP",
                    HandleKind::Datatype => "MPI_ERR_TYPE",
                }
            }
            MpiError::InvalidRank { .. } => "MPI_ERR_RANK",
            MpiError::InvalidTag(_) => "MPI_ERR_TAG",
            MpiError::InvalidCount(_) => "MPI_ERR_COUNT",
            MpiError::Truncate { .. } => "MPI_ERR_TRUNCATE",
            MpiError::PeerUnreachable(_) => "MPI_ERR_PORT",
            MpiError::Unsupported { .. } => "MPI_ERR_UNSUPPORTED_OPERATION",
            MpiError::NotInitialized => "MPI_ERR_OTHER",
            MpiError::TypeNotCommitted(_) => "MPI_ERR_TYPE",
            MpiError::FreePredefined(object) => match object.kind() {
                HandleKind::Comm => "MPI_ERR_COMM",
                HandleKind::Group => "MPI_ERR_GROUP",
                HandleKind::Request => "MPI_ERR_REQUEST",
                HandleKind::Op => "MPI_ERR_OP",
                HandleKind::Datatype => "MPI_ERR_TYPE",
            },
            MpiError::CollectiveMismatch(_) => "MPI_ERR_ARG",
            MpiError::UnknownUserFunction(_) => "MPI_ERR_OP",
            MpiError::Internal(_) => "MPI_ERR_INTERN",
            MpiError::Checkpoint(_) => "MPI_ERR_OTHER",
            MpiError::Preempted => "MPI_ERR_OTHER",
            MpiError::RankKilled { .. } => "MPI_ERR_PROC_FAILED",
            MpiError::JobAborted(_) => "MPI_ERR_REVOKED",
            MpiError::WorldSizeMismatch { .. } => "MPI_ERR_OTHER",
            MpiError::ElasticResize(_) => "MPI_ERR_OTHER",
        }
    }

    /// Whether a self-healing orchestrator should treat this error as a *survivable
    /// infrastructure failure* (fall back to the newest committed generation and
    /// relaunch) rather than a program bug to surface. Only the two uncoordinated
    /// failure markers qualify; everything else — truncation, collective mismatch,
    /// internal invariant violations — indicates a logic error that a restart would
    /// simply replay.
    pub fn is_recoverable_failure(&self) -> bool {
        matches!(self, MpiError::RankKilled { .. } | MpiError::JobAborted(_))
    }
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::InvalidHandle { kind, handle } => {
                write!(f, "invalid {} handle {}", kind.mpi_type_name(), handle)
            }
            MpiError::WrongKind { expected, found } => write!(
                f,
                "handle kind mismatch: expected {}, found {}",
                expected.mpi_type_name(),
                found.mpi_type_name()
            ),
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::InvalidTag(tag) => write!(f, "invalid tag {tag}"),
            MpiError::InvalidCount(count) => write!(f, "invalid count {count}"),
            MpiError::Truncate {
                message_bytes,
                buffer_bytes,
            } => write!(
                f,
                "message truncated: {message_bytes} bytes arriving into {buffer_bytes}-byte buffer"
            ),
            MpiError::PeerUnreachable(rank) => write!(f, "peer rank {rank} unreachable"),
            MpiError::Unsupported { feature } => {
                write!(
                    f,
                    "operation not supported by this MPI implementation: {feature}"
                )
            }
            MpiError::NotInitialized => write!(f, "MPI not initialized (or already finalized)"),
            MpiError::TypeNotCommitted(h) => write!(f, "datatype {h} used before MPI_Type_commit"),
            MpiError::FreePredefined(object) => {
                write!(f, "cannot free predefined object {}", object.mpi_name())
            }
            MpiError::CollectiveMismatch(msg) => write!(f, "collective mismatch: {msg}"),
            MpiError::UnknownUserFunction(id) => write!(f, "unknown user reduction function {id}"),
            MpiError::Internal(msg) => write!(f, "internal error: {msg}"),
            MpiError::Checkpoint(msg) => write!(f, "checkpoint/restart error: {msg}"),
            MpiError::Preempted => {
                write!(f, "rank vacated after a preempting checkpoint intent")
            }
            MpiError::RankKilled { rank } => {
                write!(f, "rank {rank} killed by fault injection (uncoordinated)")
            }
            MpiError::JobAborted(reason) => write!(f, "job aborted: {reason}"),
            MpiError::WorldSizeMismatch {
                checkpointed,
                offered,
                generation,
            } => write!(
                f,
                "generation {generation} was checkpointed with {checkpointed} ranks but \
                 offered to a world of {offered}, and no remap policy was given; give the \
                 job an elastic configuration (JobConfig::with_elastic) to remap \
                 {checkpointed} ranks onto {offered}"
            ),
            MpiError::ElasticResize(reason) => {
                write!(f, "elastic restart cannot resize this generation: {reason}")
            }
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_classes_match_kind() {
        let e = MpiError::InvalidHandle {
            kind: HandleKind::Comm,
            handle: PhysHandle(7),
        };
        assert_eq!(e.error_class(), "MPI_ERR_COMM");
        let e = MpiError::InvalidHandle {
            kind: HandleKind::Datatype,
            handle: PhysHandle(7),
        };
        assert_eq!(e.error_class(), "MPI_ERR_TYPE");
        assert_eq!(
            MpiError::Truncate {
                message_bytes: 8,
                buffer_bytes: 4
            }
            .error_class(),
            "MPI_ERR_TRUNCATE"
        );
    }

    #[test]
    fn display_is_informative() {
        let e = MpiError::InvalidRank { rank: 9, size: 4 };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));
        let e = MpiError::Unsupported {
            feature: "MPI_Comm_spawn",
        };
        assert!(e.to_string().contains("MPI_Comm_spawn"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MpiError::NotInitialized);
    }
}
