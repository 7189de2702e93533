//! Communicator semantics shared by the simulated MPI implementations.
//!
//! A communicator is a process group plus a *communication context* that isolates its
//! traffic from every other communicator's. The context id is also the natural seed of
//! MANA's "ggid" (global group id, paper §4.2): every member of a communicator can
//! compute the same value from the membership alone, with no extra communication.

use crate::group::GroupDescriptor;
use crate::types::{ContextId, Rank};

/// Result of `MPI_Comm_compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommComparison {
    /// Same object (same context): `MPI_IDENT`.
    Identical,
    /// Different context, identical groups: `MPI_CONGRUENT`.
    Congruent,
    /// Different context, same members in a different order: `MPI_SIMILAR`.
    Similar,
    /// Different membership: `MPI_UNEQUAL`.
    Unequal,
}

/// Implementation-independent description of a communicator.
///
/// Each simulated implementation embeds one of these in its communicator objects; MANA
/// records one per communicator virtual id so the restart coordinator can re-create a
/// semantically equivalent communicator from the world communicator of the fresh lower
/// half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommDescriptor {
    /// The member group.
    pub group: GroupDescriptor,
    /// The communication context isolating this communicator's traffic.
    pub context: ContextId,
}

impl CommDescriptor {
    /// The world communicator over `world_size` ranks, with the conventional context 1.
    pub fn world(world_size: usize) -> Self {
        CommDescriptor {
            group: GroupDescriptor::world(world_size),
            context: 1,
        }
    }

    /// A self communicator for `world_rank`, with the conventional context 2.
    #[expect(
        clippy::expect_used,
        reason = "provable invariant — a one-member vec has no duplicates, the only from_members failure mode"
    )]
    pub fn self_comm(world_rank: Rank) -> Self {
        CommDescriptor {
            group: GroupDescriptor::from_members(vec![world_rank])
                .expect("single-member group is always valid"),
            context: 2,
        }
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// Rank of `world_rank` inside this communicator, if it is a member.
    pub fn rank_of(&self, world_rank: Rank) -> Option<Rank> {
        self.group.rank_of(world_rank)
    }

    /// `MPI_Comm_compare` between two descriptors.
    pub fn compare(&self, other: &CommDescriptor) -> CommComparison {
        use crate::group::GroupComparison as G;
        if self.context == other.context {
            return CommComparison::Identical;
        }
        match self.group.compare(&other.group) {
            G::Identical => CommComparison::Congruent,
            G::Similar => CommComparison::Similar,
            G::Unequal => CommComparison::Unequal,
        }
    }

    /// Deterministic "global group id" for this communicator: a hash of the ordered
    /// membership. Every member computes the same value independently, which is what
    /// lets MANA use it as a cluster-wide identifier for the communicator across a
    /// checkpoint/restart boundary (paper §4.2).
    pub fn ggid(&self) -> u32 {
        ggid_of_members(self.group.members())
    }
}

/// FNV-1a hash of the ordered member list, folded to 28 bits so it can be embedded in
/// the index field of a MANA virtual id alongside the 3 kind bits and the predefined
/// bit.
pub fn ggid_of_members(members: &[Rank]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &m in members {
        for b in m.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Fold to 28 bits, avoiding 0 which is reserved for "no ggid computed yet".
    let folded = ((hash >> 36) ^ (hash & 0x0fff_ffff)) as u32 & 0x0fff_ffff;
    if folded == 0 {
        1
    } else {
        folded
    }
}

/// One rank's contribution to an `MPI_Comm_split`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitContribution {
    /// The contributing rank, identified by its rank in the parent communicator.
    pub parent_rank: Rank,
    /// The world rank of the contributor (needed to build the child group).
    pub world_rank: Rank,
    /// The split color; `None` models `MPI_UNDEFINED` (the rank gets no communicator).
    pub color: Option<i32>,
    /// The ordering key.
    pub key: i32,
}

/// Compute the result of `MPI_Comm_split` from all ranks' contributions.
///
/// Returns, for each color, the ordered list of *world ranks* of the new communicator.
/// Ordering follows MPI: ascending key, ties broken by parent-communicator rank.
/// This pure function is shared by all three simulated implementations, which differ
/// only in how they exchange the contributions (via the fabric) and in the handles they
/// mint for the resulting communicators.
pub fn split_groups(contributions: &[SplitContribution]) -> Vec<(i32, Vec<Rank>)> {
    let mut by_color: std::collections::BTreeMap<i32, Vec<&SplitContribution>> =
        std::collections::BTreeMap::new();
    for c in contributions {
        if let Some(color) = c.color {
            by_color.entry(color).or_default().push(c);
        }
    }
    by_color
        .into_iter()
        .map(|(color, mut members)| {
            members.sort_by_key(|c| (c.key, c.parent_rank));
            (color, members.iter().map(|c| c.world_rank).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_and_self() {
        let w = CommDescriptor::world(8);
        assert_eq!(w.size(), 8);
        assert_eq!(w.rank_of(5), Some(5));
        let s = CommDescriptor::self_comm(3);
        assert_eq!(s.size(), 1);
        assert_eq!(s.rank_of(3), Some(0));
        assert_eq!(s.rank_of(2), None);
    }

    #[test]
    fn comparison() {
        let w = CommDescriptor::world(4);
        let dup = CommDescriptor {
            group: w.group.clone(),
            context: 99,
        };
        assert_eq!(w.compare(&w), CommComparison::Identical);
        assert_eq!(w.compare(&dup), CommComparison::Congruent);
        let shuffled = CommDescriptor {
            group: GroupDescriptor::from_members(vec![3, 2, 1, 0]).unwrap(),
            context: 98,
        };
        assert_eq!(w.compare(&shuffled), CommComparison::Similar);
        let other = CommDescriptor::world(3);
        assert_eq!(
            CommDescriptor {
                group: other.group.clone(),
                context: 97
            }
            .compare(&w),
            CommComparison::Unequal
        );
    }

    #[test]
    fn ggid_is_deterministic_and_membership_sensitive() {
        let a = CommDescriptor::world(16).ggid();
        let b = CommDescriptor::world(16).ggid();
        assert_eq!(a, b);
        let c = CommDescriptor::world(17).ggid();
        assert_ne!(a, c);
        // order matters: a communicator with reversed ranks is a different comm
        let rev = GroupDescriptor::from_members((0..16).rev().collect()).unwrap();
        assert_ne!(ggid_of_members(rev.members()), a);
        // 28-bit bound, nonzero
        assert!(a > 0 && a < (1 << 28));
    }

    #[test]
    fn split_orders_by_key_then_rank() {
        let contributions = vec![
            SplitContribution {
                parent_rank: 0,
                world_rank: 10,
                color: Some(0),
                key: 5,
            },
            SplitContribution {
                parent_rank: 1,
                world_rank: 11,
                color: Some(0),
                key: 1,
            },
            SplitContribution {
                parent_rank: 2,
                world_rank: 12,
                color: Some(1),
                key: 0,
            },
            SplitContribution {
                parent_rank: 3,
                world_rank: 13,
                color: Some(0),
                key: 1,
            },
            SplitContribution {
                parent_rank: 4,
                world_rank: 14,
                color: None,
                key: 0,
            },
        ];
        let groups = split_groups(&contributions);
        assert_eq!(groups.len(), 2);
        // color 0: keys (1,1,5) -> ranks 1,3 then 0 -> world 11,13,10
        assert_eq!(groups[0], (0, vec![11, 13, 10]));
        assert_eq!(groups[1], (1, vec![12]));
    }

    #[test]
    fn split_with_all_undefined_is_empty() {
        let contributions = vec![
            SplitContribution {
                parent_rank: 0,
                world_rank: 0,
                color: None,
                key: 0,
            },
            SplitContribution {
                parent_rank: 1,
                world_rank: 1,
                color: None,
                key: 0,
            },
        ];
        assert!(split_groups(&contributions).is_empty());
    }
}
