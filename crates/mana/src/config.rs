//! MANA configuration: which virtual-id design to use and how checkpoint images reach
//! storage.

pub use ckpt_store::StoragePolicy;

/// Which virtual-id data structure the wrapper layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtIdMode {
    /// The pre-paper production design (paper §4.1): one string-keyed associative map
    /// per MPI object type, `int`-sized virtual ids, and separate side tables for any
    /// metadata. Only sound when the lower half's constants are stable integers, i.e.
    /// the MPICH family — attempting to use it with Open MPI or ExaMPI fails, which is
    /// exactly the limitation that motivated the new design.
    LegacyMaps,
    /// The new implementation-oblivious design (paper §4.2): one unified table of
    /// descriptor structs indexed by a 32-bit virtual id that embeds the kind tag and
    /// ggid/index, with all per-object metadata stored inline in the descriptor.
    UnifiedTable,
}

impl VirtIdMode {
    /// Short label used by the benchmark harness ("MANA" vs "MANA+virtId").
    pub fn label(self) -> &'static str {
        match self {
            VirtIdMode::LegacyMaps => "MANA",
            VirtIdMode::UnifiedTable => "MANA+virtId",
        }
    }
}

/// Per-rank MANA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManaConfig {
    /// Virtual-id data structure.
    pub virtid_mode: VirtIdMode,
    /// How [`ManaRank::checkpoint_into`] writes this rank's images to a
    /// [`ckpt_store::CheckpointStorage`]: trusting no dirty flag, every region
    /// hashed unless the store proves it unchanged (the paper's full-image baseline,
    /// the default), or only the regions dirtied since the previous generation,
    /// optionally compressed. Every policy writes a
    /// manifest over content-addressed chunks.
    ///
    /// [`ManaRank::checkpoint_into`]: crate::runtime::ManaRank::checkpoint_into
    pub storage: StoragePolicy,
}

impl Default for ManaConfig {
    fn default() -> Self {
        ManaConfig {
            virtid_mode: VirtIdMode::UnifiedTable,
            storage: StoragePolicy::FullImage,
        }
    }
}

impl ManaConfig {
    /// The new-design configuration (unified table).
    pub fn new_design() -> Self {
        Self::default()
    }

    /// The legacy-design configuration (string-keyed per-type maps).
    pub fn legacy_design() -> Self {
        ManaConfig {
            virtid_mode: VirtIdMode::LegacyMaps,
            ..Self::default()
        }
    }

    /// Same configuration but with the given checkpoint storage policy.
    pub fn with_storage(mut self, policy: StoragePolicy) -> Self {
        self.storage = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(VirtIdMode::LegacyMaps.label(), "MANA");
        assert_eq!(VirtIdMode::UnifiedTable.label(), "MANA+virtId");
    }

    #[test]
    fn builders() {
        let config = ManaConfig::legacy_design().with_storage(StoragePolicy::IncrementalCompressed);
        assert_eq!(config.virtid_mode, VirtIdMode::LegacyMaps);
        assert_eq!(config.storage, StoragePolicy::IncrementalCompressed);
        assert_eq!(ManaConfig::default().virtid_mode, VirtIdMode::UnifiedTable);
        assert_eq!(ManaConfig::default().storage, StoragePolicy::FullImage);
    }
}
