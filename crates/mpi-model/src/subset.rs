//! The MPI subset MANA requires from an implementation (paper §5).
//!
//! MANA cannot use lower-level network libraries (it is network-agnostic), so every
//! internal operation — draining in-flight messages before a checkpoint, decoding MPI
//! objects for reconstruction, and syncing runtime status among ranks — must be
//! expressed in terms of MPI calls that the hosting implementation provides. The paper
//! groups the required functions into three categories; this module encodes them as an
//! auditable feature list so a candidate implementation (like the deliberately-minimal
//! ExaMPI personality) can be checked for MANA compatibility before it is used.

/// Functional features an MPI implementation may provide, at the granularity MANA and
/// the proxy applications care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubsetFeature {
    // -- Category 1 (paper §5): send, detect and receive messages in the network --
    /// Blocking `MPI_Send`.
    Send,
    /// Blocking `MPI_Recv`.
    Recv,
    /// `MPI_Iprobe`: detect pending messages without receiving them.
    Iprobe,
    /// `MPI_Test`: complete pending point-to-point communications.
    Test,

    // -- Category 2 (paper §5): decode MPI objects for restart-time reconstruction --
    /// `MPI_Comm_group`.
    CommGroup,
    /// `MPI_Group_translate_ranks`.
    GroupTranslateRanks,
    /// `MPI_Type_get_envelope`.
    TypeGetEnvelope,
    /// `MPI_Type_get_contents`.
    TypeGetContents,

    // -- Category 3 (paper §5): MANA-internal communication among ranks --
    /// `MPI_Alltoall` (used to publish per-peer pending-send counts before draining).
    Alltoall,

    // -- Features beyond the required subset, used by applications but not by MANA --
    /// Non-blocking point-to-point (`MPI_Isend`/`MPI_Irecv`/`MPI_Wait`).
    NonBlockingPointToPoint,
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Reduce` / `MPI_Allreduce`.
    Reduce,
    /// `MPI_Gather` / `MPI_Allgather`.
    Gather,
    /// `MPI_Comm_dup`.
    CommDup,
    /// `MPI_Comm_split`.
    CommSplit,
    /// `MPI_Comm_create` from a group.
    CommCreate,
    /// Derived datatype constructors (`MPI_Type_contiguous`, `MPI_Type_vector`, ...).
    DerivedDatatypes,
    /// `MPI_Op_create` (user-defined reductions).
    UserOps,
    /// One-sided communication (`MPI_Put`/`MPI_Get`/`MPI_Win_*`). MANA does not support
    /// checkpointing this (paper §1.3), and none of the simulated implementations
    /// provide it; it exists so the compliance report can show it as out of scope.
    OneSided,
    /// Collective registration (the "trivial barrier" half of MANA's two-phase
    /// collective protocol): announce intent to enter a collective, wait for the
    /// round to commit, and atomically withdraw while it has not. Implementations
    /// without it still run collectives, but MANA then cannot deliver checkpoint
    /// intents while ranks straddle one — checkpoints stay confined to points with
    /// no collective in flight.
    CollectiveRegistration,
}

/// The exact subset the paper's §5 lists as required for MANA support.
pub const REQUIRED_SUBSET: [SubsetFeature; 9] = [
    SubsetFeature::Send,
    SubsetFeature::Recv,
    SubsetFeature::Iprobe,
    SubsetFeature::Test,
    SubsetFeature::CommGroup,
    SubsetFeature::GroupTranslateRanks,
    SubsetFeature::TypeGetEnvelope,
    SubsetFeature::TypeGetContents,
    SubsetFeature::Alltoall,
];

/// Which of the paper's three categories a required feature belongs to, or `None` for
/// features outside the required subset.
pub fn required_category(feature: SubsetFeature) -> Option<u8> {
    match feature {
        SubsetFeature::Send | SubsetFeature::Recv | SubsetFeature::Iprobe | SubsetFeature::Test => {
            Some(1)
        }
        SubsetFeature::CommGroup
        | SubsetFeature::GroupTranslateRanks
        | SubsetFeature::TypeGetEnvelope
        | SubsetFeature::TypeGetContents => Some(2),
        SubsetFeature::Alltoall => Some(3),
        _ => None,
    }
}

/// A report of which features an implementation claims, and whether that satisfies the
/// required MANA subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplianceReport {
    /// Name of the implementation audited.
    pub implementation: String,
    /// Features the implementation claims to provide.
    pub provided: Vec<SubsetFeature>,
    /// Required features that are missing.
    pub missing_required: Vec<SubsetFeature>,
}

impl ComplianceReport {
    /// Audit a claimed feature set against [`REQUIRED_SUBSET`].
    pub fn audit(implementation: &str, provided: &[SubsetFeature]) -> ComplianceReport {
        let missing_required = REQUIRED_SUBSET
            .iter()
            .copied()
            .filter(|f| !provided.contains(f))
            .collect();
        ComplianceReport {
            implementation: implementation.to_string(),
            provided: provided.to_vec(),
            missing_required,
        }
    }

    /// Whether the implementation can host MANA.
    pub fn mana_compatible(&self) -> bool {
        self.missing_required.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_subset_has_three_categories() {
        let mut cats: Vec<u8> = REQUIRED_SUBSET
            .iter()
            .map(|&f| required_category(f).expect("required features have a category"))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        assert_eq!(cats, vec![1, 2, 3]);
    }

    #[test]
    fn optional_features_have_no_category() {
        assert_eq!(required_category(SubsetFeature::Bcast), None);
        assert_eq!(required_category(SubsetFeature::OneSided), None);
    }

    #[test]
    fn audit_flags_missing_features() {
        let provided = vec![
            SubsetFeature::Send,
            SubsetFeature::Recv,
            SubsetFeature::Iprobe,
            SubsetFeature::Test,
            SubsetFeature::CommGroup,
            SubsetFeature::GroupTranslateRanks,
            SubsetFeature::TypeGetEnvelope,
            SubsetFeature::TypeGetContents,
        ];
        let report = ComplianceReport::audit("incomplete-mpi", &provided);
        assert!(!report.mana_compatible());
        assert_eq!(report.missing_required, vec![SubsetFeature::Alltoall]);

        let full: Vec<_> = REQUIRED_SUBSET.to_vec();
        let report = ComplianceReport::audit("minimal-mpi", &full);
        assert!(report.mana_compatible());
        assert!(report.missing_required.is_empty());
    }
}
