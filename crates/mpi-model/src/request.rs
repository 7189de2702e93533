//! Non-blocking request lifecycle model.
//!
//! Requests are the most checkpoint-sensitive of the five virtualized object kinds:
//! MANA guarantees that *no request is in flight inside the lower half at checkpoint
//! time* by draining pending point-to-point traffic (paper §5, category 1). The state
//! machine here is what both the simulated implementations and MANA's drain logic
//! reason about.

use crate::status::Status;
use crate::types::{PhysHandle, Rank, Tag};
use serde::{Deserialize, Serialize};

/// What kind of operation a request tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// An `MPI_Isend`.
    Send,
    /// An `MPI_Irecv`.
    Recv,
}

/// Progress state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// The operation has been posted but not yet completed.
    Pending,
    /// The operation completed; the status is available.
    Complete(Status),
    /// The request handle was already waited on / freed.
    Inactive,
}

/// Implementation-independent record of a posted non-blocking operation.
///
/// MANA keeps one of these in the virtual-id descriptor of every live `MPI_Request` so
/// that, at checkpoint time, it knows which receives still need to be re-posted after
/// restart and which sends still need their payload delivered during the drain phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Send or receive.
    pub kind: RequestKind,
    /// Peer rank in the communicator the operation was posted on.
    pub peer: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Physical communicator handle the operation was posted on (meaningful only to
    /// the lower half that minted it; replaced on restart).
    pub comm: PhysHandle,
    /// Payload length in bytes (for sends: exact; for receives: the posted buffer cap).
    pub bytes: usize,
    /// Current progress state.
    pub state: RequestState,
}

impl RequestRecord {
    /// Create a pending request record.
    pub fn pending(
        kind: RequestKind,
        peer: Rank,
        tag: Tag,
        comm: PhysHandle,
        bytes: usize,
    ) -> Self {
        RequestRecord {
            kind,
            peer,
            tag,
            comm,
            bytes,
            state: RequestState::Pending,
        }
    }

    /// Mark the request complete with the given status.
    pub fn complete(&mut self, status: Status) {
        self.state = RequestState::Complete(status);
    }

    /// Whether this request still requires progress before a checkpoint can be taken.
    ///
    /// Pending *sends* must have their payload flushed out of the network; pending
    /// *receives* are safe to leave posted (MANA re-posts them after restart), but the
    /// drain algorithm completes them too when the matching message has already been
    /// injected, so both count as "in flight" here.
    pub fn in_flight(&self) -> bool {
        matches!(self.state, RequestState::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut r = RequestRecord::pending(RequestKind::Send, 2, 9, PhysHandle(0x44), 128);
        assert!(r.in_flight());
        assert!(!matches!(r.state, RequestState::Complete(_)));
        r.complete(Status::new(2, 9, 128));
        assert!(!r.in_flight());
        assert!(matches!(r.state, RequestState::Complete(_)));
        match r.state {
            RequestState::Complete(s) => assert_eq!(s.count_bytes, 128),
            _ => panic!("expected complete"),
        }
    }

    #[test]
    fn inactive_is_not_in_flight() {
        let mut r = RequestRecord::pending(RequestKind::Recv, 0, 1, PhysHandle(1), 16);
        r.state = RequestState::Inactive;
        assert!(!r.in_flight());
    }
}
