//! The explicit old-rank→new-rank assignment an elastic restart is built around.
//!
//! A [`RankMap`] says, for every rank of the checkpointed world, which rank of the
//! new world adopts it. The restart engine rewrites virtual-id memberships and drain
//! counters through the map instead of assuming identity; the application's
//! [`Repartition`](crate::Repartition) implementation re-buckets domain state through
//! the same map, so both layers agree on where every shard of the old world lands.

use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::Rank;

/// Built-in assignment policies for resizing an `N`-rank world onto `M` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapPolicy {
    /// Contiguous blocks: old rank `i` lands on new rank `i * M / N`. Keeps
    /// neighbouring old ranks co-hosted, which preserves halo locality.
    Block,
    /// Round-robin: old rank `i` lands on new rank `i % M`. Spreads old ranks evenly
    /// when load per old rank is uniform.
    RoundRobin,
}

/// An explicit assignment of every old (checkpointed) rank to a new rank.
///
/// ```text
///   old world (N=8):   0   1   2   3   4   5   6   7
///                       \ /     \ /     \ /     \ /
///   Block, M=4:          0       1       2       3
/// ```
///
/// New ranks that no old rank maps onto (possible when growing, `M > N`) start with
/// no adopted state: they hold empty shards until the application's repartition
/// hook assigns them work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMap {
    old_world: usize,
    new_world: usize,
    /// `assignment[i]` is the new rank that adopts old rank `i`.
    assignment: Vec<Rank>,
}

impl RankMap {
    /// Build a map with the given policy.
    pub(crate) fn with_policy(
        policy: RemapPolicy,
        old_world: usize,
        new_world: usize,
    ) -> MpiResult<Self> {
        match policy {
            RemapPolicy::Block => RankMap::block(old_world, new_world),
            RemapPolicy::RoundRobin => RankMap::round_robin(old_world, new_world),
        }
    }

    /// Contiguous-block assignment: old rank `i` → new rank `i * M / N`.
    pub fn block(old_world: usize, new_world: usize) -> MpiResult<Self> {
        RankMap::validate_sizes(old_world, new_world)?;
        let assignment = (0..old_world)
            .map(|i| (i * new_world / old_world) as Rank)
            .collect();
        Ok(RankMap {
            old_world,
            new_world,
            assignment,
        })
    }

    /// Round-robin assignment: old rank `i` → new rank `i % M`.
    pub(crate) fn round_robin(old_world: usize, new_world: usize) -> MpiResult<Self> {
        RankMap::validate_sizes(old_world, new_world)?;
        let assignment = (0..old_world).map(|i| (i % new_world) as Rank).collect();
        Ok(RankMap {
            old_world,
            new_world,
            assignment,
        })
    }

    /// The identity map (`M == N`, every rank adopts itself): every same-size
    /// restart, which the restart engine handles without moving any state.
    pub fn identity(world: usize) -> MpiResult<Self> {
        RankMap::validate_sizes(world, world)?;
        Ok(RankMap {
            old_world: world,
            new_world: world,
            assignment: (0..world as Rank).collect(),
        })
    }

    /// A custom assignment: `assignment[i]` is the new rank adopting old rank `i`.
    /// Every entry must name a rank of the new world.
    pub fn custom(new_world: usize, assignment: Vec<Rank>) -> MpiResult<Self> {
        RankMap::validate_sizes(assignment.len(), new_world)?;
        if let Some(&bad) = assignment
            .iter()
            .find(|&&r| r < 0 || r as usize >= new_world)
        {
            return Err(MpiError::ElasticResize(format!(
                "rank map sends an old rank to {bad}, outside the new world of {new_world}"
            )));
        }
        Ok(RankMap {
            old_world: assignment.len(),
            new_world,
            assignment,
        })
    }

    fn validate_sizes(old_world: usize, new_world: usize) -> MpiResult<()> {
        if old_world == 0 || new_world == 0 {
            return Err(MpiError::ElasticResize(format!(
                "cannot map a {old_world}-rank world onto {new_world} ranks: both \
                 worlds must be non-empty"
            )));
        }
        Ok(())
    }

    /// Ranks in the checkpointed world.
    pub(crate) fn old_world(&self) -> usize {
        self.old_world
    }

    /// Ranks in the new world.
    pub fn new_world(&self) -> usize {
        self.new_world
    }

    /// Whether this map is the identity (same sizes, every rank adopting itself).
    pub(crate) fn is_identity(&self) -> bool {
        self.old_world == self.new_world
            && self
                .assignment
                .iter()
                .enumerate()
                .all(|(i, &r)| r == i as Rank)
    }

    /// The new rank that adopts `old` rank's state.
    pub fn new_rank_of(&self, old: Rank) -> MpiResult<Rank> {
        self.assignment.get(old as usize).copied().ok_or_else(|| {
            MpiError::ElasticResize(format!(
                "old rank {old} is outside the checkpointed world of {}",
                self.old_world
            ))
        })
    }

    /// The old ranks adopted by new rank `new`, in ascending old-rank order. Empty
    /// for a fresh rank (one no old rank maps onto).
    pub(crate) fn hosted_by(&self, new: Rank) -> Vec<Rank> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &target)| target == new)
            .map(|(old, _)| old as Rank)
            .collect()
    }

    /// Whether any new rank hosts no old rank at all (possible only when growing):
    /// such *fresh* ranks synthesize their MANA state instead of adopting one.
    pub(crate) fn has_fresh_ranks(&self) -> bool {
        (0..self.new_world as Rank).any(|new| !self.assignment.contains(&new))
    }

    /// The *primary* old rank of new rank `new`: the lowest old rank it adopts. The
    /// restart engine restores the primary's MANA state (translator, replay log,
    /// collective ledger) onto the new rank; co-hosted non-primary ranks contribute
    /// their drain counters and — through the repartition hook — their domain state.
    pub(crate) fn primary_of(&self, new: Rank) -> Option<Rank> {
        self.assignment
            .iter()
            .enumerate()
            .find(|(_, &target)| target == new)
            .map(|(old, _)| old as Rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_shrink_keeps_neighbours_together() {
        let map = RankMap::block(8, 4).unwrap();
        assert_eq!(map.hosted_by(0), vec![0, 1]);
        assert_eq!(map.hosted_by(3), vec![6, 7]);
        assert_eq!(map.primary_of(3), Some(6));
        assert!(!map.is_identity());
    }

    #[test]
    fn block_grow_spreads_and_leaves_fresh_ranks() {
        let map = RankMap::block(8, 12).unwrap();
        // Every old rank lands somewhere; some new ranks host nothing.
        for old in 0..8 {
            assert!(map.new_rank_of(old).unwrap() < 12);
        }
        let fresh: Vec<Rank> = (0..12).filter(|&r| map.hosted_by(r).is_empty()).collect();
        assert!(!fresh.is_empty(), "growth must leave fresh ranks");
        for rank in fresh {
            assert_eq!(map.primary_of(rank), None);
        }
    }

    #[test]
    fn round_robin_and_total_collapse() {
        let map = RankMap::round_robin(6, 4).unwrap();
        assert_eq!(map.hosted_by(0), vec![0, 4]);
        assert_eq!(map.hosted_by(3), vec![3]);
        // M=1: everything collapses onto rank 0.
        let collapse = RankMap::block(5, 1).unwrap();
        assert_eq!(collapse.hosted_by(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn identity_is_detected() {
        assert!(RankMap::identity(4).unwrap().is_identity());
        assert!(RankMap::block(4, 4).unwrap().is_identity());
        assert!(!RankMap::custom(4, vec![0, 1, 3, 2]).unwrap().is_identity());
    }

    #[test]
    fn custom_maps_are_validated() {
        assert!(RankMap::custom(2, vec![0, 1, 2]).is_err());
        assert!(RankMap::custom(2, vec![0, -1]).is_err());
        assert!(RankMap::custom(2, vec![]).is_err());
        assert!(RankMap::block(0, 4).is_err());
        assert!(RankMap::block(4, 0).is_err());
        let map = RankMap::custom(2, vec![1, 1, 0]).unwrap();
        assert_eq!(map.hosted_by(1), vec![0, 1]);
        assert!(map.new_rank_of(9).is_err());
    }
}
