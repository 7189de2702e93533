//! Wire-level message representation and matching rules.

use crate::bytes::PayloadBuf;
use mpi_model::types::{ContextId, Rank, SeqNo, Tag, ANY_SOURCE, ANY_TAG};

/// A message travelling through the fabric.
///
/// Source and destination are *world* ranks — by the time a message reaches the fabric,
/// the MPI implementation has already translated communicator-relative ranks. The
/// communicator is represented by its context id, which is what isolates traffic on
/// different communicators from one another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// World rank of the sender.
    pub source_world: Rank,
    /// Rank of the sender within the communicator the message was sent on
    /// (what the receiver's `MPI_Status.MPI_SOURCE` must report).
    pub source_comm_rank: Rank,
    /// World rank of the destination.
    pub dest_world: Rank,
    /// Communication context (one per communicator).
    pub context: ContextId,
    /// Message tag.
    pub tag: Tag,
    /// Injection sequence number, used to keep per-(source, context) FIFO ordering.
    pub seq: SeqNo,
    /// Consecutive per-(source, destination) delivery sequence number, assigned at
    /// injection time *before* the chaos layer gets a chance to delay, drop or
    /// reorder the message. The destination mailbox uses it to re-sequence
    /// deliveries: an envelope arriving ahead of a gap is parked until the missing
    /// envelopes arrive, which is what masks chaos-injected delay, loss (with
    /// retransmission) and reordering from the MPI layer above.
    pub(crate) pair_seq: SeqNo,
    /// Payload bytes. A refcounted buffer: cloning the envelope (mailbox deposit,
    /// chaos retransmit, collective fan-out) shares the allocation instead of
    /// copying it.
    pub payload: PayloadBuf,
}

impl Envelope {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Receive/probe matching specification: context is always exact, source and tag may be
/// wildcards (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSpec {
    /// Context id of the communicator the receive is posted on.
    pub context: ContextId,
    /// Sender rank *within the communicator*, or `None` for `MPI_ANY_SOURCE`.
    pub source_comm_rank: Option<Rank>,
    /// Tag, or `None` for `MPI_ANY_TAG`.
    pub tag: Option<Tag>,
}

impl MatchSpec {
    /// Build a spec from the raw MPI arguments, interpreting the wildcard constants.
    pub fn from_mpi_args(context: ContextId, source: Rank, tag: Tag) -> Self {
        MatchSpec {
            context,
            source_comm_rank: if source == ANY_SOURCE {
                None
            } else {
                Some(source)
            },
            tag: if tag == ANY_TAG { None } else { Some(tag) },
        }
    }

    /// Whether `envelope` satisfies this spec.
    pub fn matches(&self, envelope: &Envelope) -> bool {
        if envelope.context != self.context {
            return false;
        }
        if let Some(src) = self.source_comm_rank {
            if envelope.source_comm_rank != src {
                return false;
            }
        }
        if let Some(tag) = self.tag {
            if envelope.tag != tag {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(source_comm_rank: Rank, context: ContextId, tag: Tag) -> Envelope {
        Envelope {
            source_world: source_comm_rank,
            source_comm_rank,
            dest_world: 0,
            context,
            tag,
            seq: 0,
            pair_seq: 0,
            payload: PayloadBuf::from_vec(vec![1, 2, 3]),
        }
    }

    #[test]
    fn exact_match() {
        let spec = MatchSpec::from_mpi_args(5, 2, 9);
        assert!(spec.matches(&env(2, 5, 9)));
        assert!(!spec.matches(&env(3, 5, 9)));
        assert!(!spec.matches(&env(2, 6, 9)));
        assert!(!spec.matches(&env(2, 5, 8)));
    }

    #[test]
    fn wildcards() {
        let spec = MatchSpec::from_mpi_args(5, ANY_SOURCE, ANY_TAG);
        assert!(spec.matches(&env(0, 5, 0)));
        assert!(spec.matches(&env(7, 5, 123)));
        assert!(
            !spec.matches(&env(7, 4, 123)),
            "context is never a wildcard"
        );
        let spec = MatchSpec::from_mpi_args(5, ANY_SOURCE, 7);
        assert!(spec.matches(&env(1, 5, 7)));
        assert!(!spec.matches(&env(1, 5, 8)));
    }

    #[test]
    fn envelope_len() {
        assert_eq!(env(0, 0, 0).len(), 3);
        assert!(!env(0, 0, 0).is_empty());
    }
}
