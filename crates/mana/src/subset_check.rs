//! MPI-subset compliance auditing (paper §5).
//!
//! Before MANA agrees to run on top of an MPI implementation, it can audit whether the
//! implementation provides the three categories of functions MANA itself needs:
//! message drain (Iprobe/Recv/Test), object decoding (Comm_group,
//! Group_translate_ranks, Type_get_envelope/contents) and internal communication
//! (Send/Recv/Alltoall). The audit also reports which *optional* application-facing
//! features are present, which is how the harness knows the CoMD/LULESH proxies can run
//! on ExaMPI while the communicator-heavy proxies cannot.

use mpi_model::api::MpiApi;
use mpi_model::subset::{required_category, ComplianceReport, SubsetFeature, REQUIRED_SUBSET};

/// The result of auditing one lower half for MANA support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManaCompatibility {
    /// The raw compliance report (provided vs required features).
    pub report: ComplianceReport,
    /// Required features missing, grouped by the paper's three categories.
    pub(crate) missing_by_category: Vec<(u8, Vec<SubsetFeature>)>,
    /// Optional features the implementation additionally provides.
    pub optional_features: Vec<SubsetFeature>,
}

impl ManaCompatibility {
    /// Whether MANA can host applications on this implementation.
    pub fn compatible(&self) -> bool {
        self.report.mana_compatible()
    }
}

/// Audit a lower half via its self-reported feature list.
pub(crate) fn audit_api(api: &dyn MpiApi) -> ManaCompatibility {
    audit_features(api.implementation_name(), &api.provided_features())
}

/// Audit an explicit feature list.
pub(crate) fn audit_features(name: &str, provided: &[SubsetFeature]) -> ManaCompatibility {
    let report = ComplianceReport::audit(name, provided);
    let mut missing_by_category: Vec<(u8, Vec<SubsetFeature>)> = vec![];
    for &feature in &report.missing_required {
        // A required feature without a category is a table bug; sort it last and
        // keep it visible in the report rather than panicking the audit.
        let category = required_category(feature).unwrap_or(u8::MAX);
        match missing_by_category.iter_mut().find(|(c, _)| *c == category) {
            Some((_, list)) => list.push(feature),
            None => missing_by_category.push((category, vec![feature])),
        }
    }
    missing_by_category.sort_by_key(|(c, _)| *c);
    let optional_features = provided
        .iter()
        .copied()
        .filter(|f| !REQUIRED_SUBSET.contains(f))
        .collect();
    ManaCompatibility {
        report,
        missing_by_category,
        optional_features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_implementation_is_compatible() {
        let mut provided = REQUIRED_SUBSET.to_vec();
        provided.push(SubsetFeature::Bcast);
        let audit = audit_features("full", &provided);
        assert!(audit.compatible());
        assert!(audit.missing_by_category.is_empty());
        assert_eq!(audit.optional_features, vec![SubsetFeature::Bcast]);
    }

    #[test]
    fn missing_features_are_grouped_by_category() {
        let provided = vec![
            SubsetFeature::Send,
            SubsetFeature::Recv,
            // Iprobe and Test missing (category 1)
            SubsetFeature::CommGroup,
            SubsetFeature::GroupTranslateRanks,
            SubsetFeature::TypeGetEnvelope,
            // TypeGetContents missing (category 2)
            // Alltoall missing (category 3)
        ];
        let audit = audit_features("partial", &provided);
        assert!(!audit.compatible());
        let categories: Vec<u8> = audit.missing_by_category.iter().map(|(c, _)| *c).collect();
        assert_eq!(categories, vec![1, 2, 3]);
        let cat1 = &audit.missing_by_category[0].1;
        assert!(cat1.contains(&SubsetFeature::Iprobe) && cat1.contains(&SubsetFeature::Test));
    }
}
