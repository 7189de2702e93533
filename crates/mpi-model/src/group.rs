//! MPI process groups.
//!
//! A group is an ordered set of world ranks. Communicators are built from groups, and
//! MANA's restart path leans on exactly two group operations that the paper lists in
//! its required subset (§5, category 2): `MPI_Comm_group` to obtain the group of a
//! communicator before checkpointing, and `MPI_Group_translate_ranks` to map the
//! membership back onto the new world at restart.

use crate::error::{MpiError, MpiResult};
use crate::types::Rank;

/// Value returned by `MPI_Group_translate_ranks` when a rank has no equivalent in the
/// target group (`MPI_UNDEFINED`).
pub(crate) const UNDEFINED_RANK: Rank = -32766;

/// An ordered set of world ranks, i.e. the payload of an `MPI_Group`.
///
/// The descriptor is implementation-independent: all three simulated MPI
/// implementations store one of these inside their group objects, and MANA records one
/// in each group/communicator virtual-id descriptor so the membership survives a
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupDescriptor {
    /// Member world ranks; position in this vector is the member's group rank.
    members: Vec<Rank>,
}

impl GroupDescriptor {
    /// The empty group (`MPI_GROUP_EMPTY`).
    pub fn empty() -> Self {
        GroupDescriptor { members: vec![] }
    }

    /// The group `0..world_size`, i.e. the group of `MPI_COMM_WORLD`.
    pub fn world(world_size: usize) -> Self {
        GroupDescriptor {
            members: (0..world_size as Rank).collect(),
        }
    }

    /// Build a group from an explicit member list. Fails if the list contains
    /// duplicates or negative ranks, which MPI forbids.
    pub fn from_members(members: Vec<Rank>) -> MpiResult<Self> {
        let mut seen = std::collections::HashSet::with_capacity(members.len());
        for &m in &members {
            if m < 0 {
                return Err(MpiError::InvalidRank {
                    rank: m,
                    size: members.len(),
                });
            }
            if !seen.insert(m) {
                return Err(MpiError::Internal(format!(
                    "duplicate world rank {m} in group construction"
                )));
            }
        }
        Ok(GroupDescriptor { members })
    }

    /// Number of members (`MPI_Group_size`).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member world ranks, ordered by group rank.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Group rank of the given world rank (`MPI_Group_rank` from the perspective of
    /// that process), or `None` if the process is not a member.
    pub fn rank_of(&self, world_rank: Rank) -> Option<Rank> {
        self.members
            .iter()
            .position(|&m| m == world_rank)
            .map(|p| p as Rank)
    }

    /// World rank of the given group rank.
    pub fn world_rank(&self, group_rank: Rank) -> MpiResult<Rank> {
        if group_rank < 0 || group_rank as usize >= self.members.len() {
            return Err(MpiError::InvalidRank {
                rank: group_rank,
                size: self.members.len(),
            });
        }
        Ok(self.members[group_rank as usize])
    }

    /// `MPI_Group_translate_ranks`: for each rank in `ranks` (interpreted in `self`),
    /// find the rank of the same process in `other`, or `MPI_UNDEFINED` (-32766) if absent.
    pub fn translate_ranks(&self, ranks: &[Rank], other: &GroupDescriptor) -> MpiResult<Vec<Rank>> {
        ranks
            .iter()
            .map(|&r| {
                let world = self.world_rank(r)?;
                Ok(other.rank_of(world).unwrap_or(UNDEFINED_RANK))
            })
            .collect()
    }

    /// `MPI_Group_incl`: the subgroup consisting of the listed group ranks, in order.
    pub fn incl(&self, ranks: &[Rank]) -> MpiResult<GroupDescriptor> {
        let members = ranks
            .iter()
            .map(|&r| self.world_rank(r))
            .collect::<MpiResult<Vec<_>>>()?;
        GroupDescriptor::from_members(members)
    }

    /// `MPI_Group_difference`: members of `self` not in `other`, in `self`'s order.
    pub fn difference(&self, other: &GroupDescriptor) -> GroupDescriptor {
        GroupDescriptor {
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| !other.members.contains(m))
                .collect(),
        }
    }

    /// `MPI_Group_compare` result: identical (same members, same order), similar
    /// (same members, different order) or unequal.
    pub fn compare(&self, other: &GroupDescriptor) -> GroupComparison {
        if self.members == other.members {
            GroupComparison::Identical
        } else {
            let mut a = self.members.clone();
            let mut b = other.members.clone();
            a.sort_unstable();
            b.sort_unstable();
            if a == b {
                GroupComparison::Similar
            } else {
                GroupComparison::Unequal
            }
        }
    }
}

/// Result of `MPI_Group_compare` / `MPI_Comm_compare` (group part).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupComparison {
    /// `MPI_IDENT`: same members in the same order.
    Identical,
    /// `MPI_SIMILAR`: same members, different order.
    Similar,
    /// `MPI_UNEQUAL`: different membership.
    Unequal,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_basics() {
        let g = GroupDescriptor::world(4);
        assert_eq!(g.size(), 4);
        assert_eq!(g.rank_of(2), Some(2));
        assert_eq!(g.world_rank(3).unwrap(), 3);
        assert!(g.world_rank(4).is_err());
        assert!(!g.is_empty());
        assert!(GroupDescriptor::empty().is_empty());
    }

    #[test]
    fn from_members_rejects_duplicates_and_negatives() {
        assert!(GroupDescriptor::from_members(vec![0, 1, 1]).is_err());
        assert!(GroupDescriptor::from_members(vec![0, -3]).is_err());
        assert!(GroupDescriptor::from_members(vec![3, 1, 0]).is_ok());
    }

    #[test]
    fn incl_excl() {
        let g = GroupDescriptor::world(6);
        let sub = g.incl(&[5, 0, 3]).unwrap();
        assert_eq!(sub.members(), &[5, 0, 3]);
        assert_eq!(sub.rank_of(0), Some(1));
        assert!(g.incl(&[7]).is_err());
    }

    #[test]
    fn translate_ranks() {
        let world = GroupDescriptor::world(8);
        let evens = world.incl(&[0, 2, 4, 6]).unwrap();
        // group rank 1 of evens is world rank 2, which is rank 2 in world
        let t = evens.translate_ranks(&[0, 1, 2, 3], &world).unwrap();
        assert_eq!(t, vec![0, 2, 4, 6]);
        // reverse direction: world ranks 1,2 -> evens has only 2
        let t = world.translate_ranks(&[1, 2], &evens).unwrap();
        assert_eq!(t, vec![UNDEFINED_RANK, 1]);
    }

    #[test]
    fn set_operations() {
        let world = GroupDescriptor::world(6);
        let a = world.incl(&[0, 1, 2, 3]).unwrap();
        let b = world.incl(&[2, 3, 4, 5]).unwrap();
        assert_eq!(a.difference(&b).members(), &[0, 1]);
    }

    #[test]
    fn compare() {
        let world = GroupDescriptor::world(4);
        let same = GroupDescriptor::world(4);
        let shuffled = GroupDescriptor::from_members(vec![3, 2, 1, 0]).unwrap();
        let other = GroupDescriptor::world(3);
        assert_eq!(world.compare(&same), GroupComparison::Identical);
        assert_eq!(world.compare(&shuffled), GroupComparison::Similar);
        assert_eq!(world.compare(&other), GroupComparison::Unequal);
    }
}
