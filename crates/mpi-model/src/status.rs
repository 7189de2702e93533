//! Message status objects (`MPI_Status`).

use crate::types::{Rank, Tag};
use serde::{Deserialize, Serialize};

/// The information MPI returns about a received (or probed) message.
///
/// `MPI_Get_count` is folded in as [`Status::count_bytes`], since the simulated fabric
/// always knows the exact byte length of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Status {
    /// Rank of the sender, in the communicator the receive/probe was posted on.
    pub source: Rank,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub count_bytes: usize,
    /// Whether the operation was cancelled (always `false` in this model; MANA never
    /// cancels requests, it drains them).
    pub cancelled: bool,
}

impl Status {
    /// Construct a status for a matched message.
    pub fn new(source: Rank, tag: Tag, count_bytes: usize) -> Self {
        Status {
            source,
            tag,
            count_bytes,
            cancelled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_count() {
        let s = Status::new(3, 7, 32);
        assert_eq!(s.source, 3);
        assert_eq!(s.tag, 7);
        assert!(!s.cancelled);
    }
}
