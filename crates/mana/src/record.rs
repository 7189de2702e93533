//! Creation recipes and the per-rank replay log.
//!
//! MANA reconstructs MPI objects at restart by *record-replay*: during normal execution
//! every object-creating wrapper appends a [`ReplayEvent`] describing how the object
//! was created (its [`CreationRecipe`]); at restart the log is replayed, in order,
//! against the fresh lower half. Collectively-created objects (communicators) need
//! every original participant to replay the call — including ranks whose result was
//! `MPI_COMM_NULL` — which is why events record participation even when no virtual id
//! was produced.
//!
//! This is the "record-replay of MPI objects during restart" strategy the paper lists
//! among the options its descriptor design keeps open (§1.2, point 4); the descriptor's
//! cached metadata (datatype contents, communicator membership) would equally support
//! the alternative "serialize a representation of the MPI object" strategy.

use crate::virtid::VirtualId;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::TypeDescriptor;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::Rank;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How an MPI object was created, in enough detail to create a semantically equivalent
/// object in a fresh lower half.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CreationRecipe {
    /// A predefined object (world/self communicators, named datatypes, built-in ops);
    /// re-resolved from the lower half's constants rather than re-created.
    Predefined(PredefinedObject),
    /// `MPI_Comm_dup(parent)`.
    CommDup {
        /// Virtual id of the parent communicator.
        parent: VirtualId,
    },
    /// `MPI_Comm_split(parent, color, key)`; `color == None` is `MPI_UNDEFINED`.
    CommSplit {
        /// Virtual id of the parent communicator.
        parent: VirtualId,
        /// Split colour (`None` = `MPI_UNDEFINED`).
        color: Option<i32>,
        /// Ordering key.
        key: i32,
    },
    /// `MPI_Comm_create(parent, group)`, with the group's membership captured as world
    /// ranks so the group object itself need not survive.
    CommCreate {
        /// Virtual id of the parent communicator.
        parent: VirtualId,
        /// World ranks of the new communicator's members, in group order.
        members_world: Vec<Rank>,
    },
    /// `MPI_Comm_group(comm)`.
    GroupFromComm {
        /// Virtual id of the communicator whose group was taken.
        comm: VirtualId,
    },
    /// `MPI_Group_incl(parent_group, ranks)`.
    GroupIncl {
        /// Virtual id of the parent group.
        parent: VirtualId,
        /// Group ranks selected from the parent.
        ranks: Vec<Rank>,
    },
    /// Any derived-datatype constructor, captured structurally. The structural
    /// description is exactly what `MPI_Type_get_envelope`/`MPI_Type_get_contents`
    /// decode to (paper §5, category 2).
    DerivedDatatype {
        /// Structural description of the datatype.
        descriptor: TypeDescriptor,
        /// Whether `MPI_Type_commit` had been called by checkpoint time.
        committed: bool,
    },
    /// `MPI_Op_create(func_id, commutative)`.
    UserOp {
        /// Upper-half function id.
        func_id: u64,
        /// Commutativity flag.
        commutative: bool,
    },
}

impl CreationRecipe {
    /// Whether replaying this recipe requires a collective call (and therefore the
    /// participation of other ranks).
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            CreationRecipe::CommDup { .. }
                | CreationRecipe::CommSplit { .. }
                | CreationRecipe::CommCreate { .. }
        )
    }
}

/// One entry in the per-rank replay log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayEvent {
    /// The recipe to replay.
    pub recipe: CreationRecipe,
    /// The virtual id the original call produced on this rank, or `None` if the call
    /// returned a null handle here (e.g. `MPI_Comm_split` with `MPI_UNDEFINED`).
    pub vid: Option<VirtualId>,
    /// Whether the object has since been freed. Freed objects are still *replayed*
    /// (collective creation must stay aligned across ranks) and then immediately freed
    /// again in the fresh lower half.
    pub freed: bool,
}

impl ReplayEvent {
    /// A new, live event.
    pub fn new(recipe: CreationRecipe, vid: Option<VirtualId>) -> Self {
        ReplayEvent {
            recipe,
            vid,
            freed: false,
        }
    }
}

/// The ordered log of object-creating calls made by one rank.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayLog {
    events: Vec<ReplayEvent>,
}

impl ReplayLog {
    /// An empty log.
    pub fn new() -> Self {
        ReplayLog::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: ReplayEvent) {
        self.events.push(event);
    }

    /// Mark the event that produced `vid` as freed.
    pub(crate) fn mark_freed(&mut self, vid: VirtualId) {
        if let Some(event) = self
            .events
            .iter_mut()
            .rev()
            .find(|e| e.vid == Some(vid) && !e.freed)
        {
            event.freed = true;
        }
    }

    /// The events in creation order.
    pub fn events(&self) -> &[ReplayEvent] {
        &self.events
    }

    /// Mutable access to one event by position (used to record late facts such as
    /// `MPI_Type_commit` having been called on an already-recorded datatype).
    pub(crate) fn event_mut(&mut self, index: usize) -> &mut ReplayEvent {
        &mut self.events[index]
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

// ----------------------------------------------------------------------
// Collective record-keeping (two-phase collective protocol)
// ----------------------------------------------------------------------

/// Which collective operation a [`CollectiveRecord`] describes. Arguments are not
/// recorded: a straddled collective is re-executed by re-running the application code
/// that issued it, so only the *identity* of the call matters — it names, in the
/// serialized ledger, which collective the checkpoint interrupted (diagnosis and
/// tests), and it is what a sanity check against a pending record compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Reduce`.
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Gather`.
    Gather,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Scatter`.
    Scatter,
}

/// The collective this rank has *registered for but not completed*: the record a
/// checkpoint serializes when the intent lands while ranks straddle a collective.
/// Restart clears it ([`CollectiveLog::clear_pending`]) — the interrupted step
/// re-runs from its beginning, so the straddled collective is re-executed as a fresh
/// issue whose sequence number ([`CollectiveLog::begin`] hands out the completed
/// count) necessarily equals the one the pending registration held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveRecord {
    /// Virtual id of the communicator the collective runs on.
    pub comm: VirtualId,
    /// Upper-half collective sequence number on that communicator (0-based).
    pub seq: u64,
    /// Which collective operation was issued.
    pub kind: CollectiveKind,
}

/// The upper-half ledger of collective progress, serialized into every checkpoint
/// image: per-communicator completed-collective counts (the published collective
/// sequence numbers of the two-phase protocol) plus the at-most-one pending
/// registration. Because a rank is single-threaded, at most one collective can be
/// between its registration and its completion at any instant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveLog {
    completed: BTreeMap<VirtualId, u64>,
    pending: Option<CollectiveRecord>,
    total_completed: u64,
}

impl CollectiveLog {
    /// An empty log.
    pub fn new() -> Self {
        CollectiveLog::default()
    }

    /// Enter the registration phase of a collective on `comm`: assign (and publish
    /// into the upper half) its sequence number. A rank is single-threaded, so a
    /// leftover pending record here means a previous collective was neither
    /// completed nor aborted — an internal protocol violation.
    pub fn begin(&mut self, comm: VirtualId, kind: CollectiveKind) -> MpiResult<u64> {
        if let Some(pending) = self.pending {
            return Err(MpiError::Internal(format!(
                "collective {kind:?} on {comm} begun while {:?} seq {} on {} is \
                 still pending",
                pending.kind, pending.seq, pending.comm
            )));
        }
        let seq = self.completed.get(&comm).copied().unwrap_or(0);
        self.pending = Some(CollectiveRecord { comm, seq, kind });
        Ok(seq)
    }

    /// Record that the collective `(comm, seq)` completed its critical phase.
    pub fn complete(&mut self, comm: VirtualId, seq: u64) -> MpiResult<()> {
        match self.pending {
            Some(pending) if pending.comm == comm && pending.seq == seq => {
                self.pending = None;
                self.completed.insert(comm, seq + 1);
                self.total_completed += 1;
                Ok(())
            }
            other => Err(MpiError::Internal(format!(
                "collective completion for {comm} seq {seq} does not match the \
                 pending registration {other:?}"
            ))),
        }
    }

    /// Drop the pending registration for `(comm, seq)` without completing it: the
    /// collective errored before (or inside) its critical phase, so the sequence
    /// number is not consumed and a later retry re-issues it afresh.
    pub fn abort(&mut self, comm: VirtualId, seq: u64) {
        if matches!(self.pending, Some(p) if p.comm == comm && p.seq == seq) {
            self.pending = None;
        }
    }

    /// Forget any pending registration (restart path): the restored application
    /// re-runs the interrupted step from its beginning, re-issuing every collective
    /// of the step — including the straddled one, which [`CollectiveLog::begin`]
    /// then hands the same sequence number the cleared registration held.
    pub fn clear_pending(&mut self) {
        self.pending = None;
    }

    /// The collective this rank has registered for but not completed, if any.
    pub fn pending(&self) -> Option<CollectiveRecord> {
        self.pending
    }

    /// Collectives completed on one communicator (its published sequence number).
    pub fn completed_on(&self, comm: VirtualId) -> u64 {
        self.completed.get(&comm).copied().unwrap_or(0)
    }

    /// Drop the record of a freed communicator (its sequence numbers die with it).
    pub fn forget_comm(&mut self, comm: VirtualId) {
        self.completed.remove(&comm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_model::types::HandleKind;

    fn vid(i: u32) -> VirtualId {
        VirtualId::new(HandleKind::Comm, false, i)
    }

    #[test]
    fn push_and_mark_freed() {
        let mut log = ReplayLog::new();
        log.push(ReplayEvent::new(
            CreationRecipe::CommDup { parent: vid(1) },
            Some(vid(2)),
        ));
        log.push(ReplayEvent::new(
            CreationRecipe::CommSplit {
                parent: vid(1),
                color: None,
                key: 0,
            },
            None,
        ));
        assert_eq!(log.len(), 2);
        log.mark_freed(vid(2));
        assert!(log.events()[0].freed);
        assert!(!log.events()[1].freed);
        // Marking an unknown vid is a no-op.
        log.mark_freed(vid(99));
    }

    #[test]
    fn collectives_are_identified() {
        assert!(CreationRecipe::CommSplit {
            parent: vid(1),
            color: Some(0),
            key: 0
        }
        .is_collective());
        assert!(!CreationRecipe::UserOp {
            func_id: 1,
            commutative: true
        }
        .is_collective());
        assert!(!CreationRecipe::GroupFromComm { comm: vid(1) }.is_collective());
    }

    #[test]
    fn collective_log_tracks_pending_and_completed() {
        let mut log = CollectiveLog::new();
        let world = vid(1);
        let seq = log.begin(world, CollectiveKind::Allreduce).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(
            log.pending(),
            Some(CollectiveRecord {
                comm: world,
                seq: 0,
                kind: CollectiveKind::Allreduce
            })
        );
        // A second begin while one is pending is an internal protocol violation.
        assert!(log.begin(world, CollectiveKind::Barrier).is_err());
        // An aborted collective does not consume its sequence number: clearing the
        // pending record (restart path) behaves identically.
        log.abort(world, 0);
        assert!(log.pending().is_none());
        assert_eq!(log.begin(world, CollectiveKind::Allreduce).unwrap(), 0);
        log.clear_pending();
        assert_eq!(log.begin(world, CollectiveKind::Allreduce).unwrap(), 0);
        log.complete(world, 0).unwrap();
        assert!(log.pending().is_none());
        assert_eq!(log.completed_on(world), 1);
        assert_eq!(log.begin(world, CollectiveKind::Barrier).unwrap(), 1);
        log.complete(world, 1).unwrap();
        // Completing without a matching registration is an internal error.
        assert!(log.complete(world, 5).is_err());
        log.forget_comm(world);
        assert_eq!(log.completed_on(world), 0);
    }
}
