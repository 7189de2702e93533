//! Seeded fault injection for the simulated fabric.
//!
//! A [`ChaosPlan`] is a deterministic, replayable schedule of network and process
//! faults: given the same seed and the same workload, the same faults fire at the same
//! points. The plan is installed on a [`crate::Fabric`] with
//! [`crate::Fabric::install_chaos`]; the fabric then consults it on every operation.
//!
//! Faults come in two families with very different fates:
//!
//! * **Masked faults** — [`FaultKind::DelayMessage`], [`FaultKind::DropMessage`]
//!   (dropped-then-retransmitted), [`FaultKind::ReorderMessage`], and a
//!   [`FaultKind::Partition`] that heals before the heartbeat deadline. These model
//!   the misbehaviour a reliable transport absorbs. The fabric's per-(source, dest)
//!   sequencing plus the mailbox re-sequencing lane hide them completely from the MPI
//!   layer: the job neither fails nor diverges, which is what lets a chaos soak demand
//!   bit-identical results.
//! * **Detected faults** — [`FaultKind::CrashRank`], [`FaultKind::CrashInCollective`],
//!   [`FaultKind::KillNode`], and a partition that outlives the heartbeat deadline.
//!   No transport can mask a dead process. These surface as missed heartbeats; a
//!   self-healing orchestrator detects them, aborts the world, falls back to the
//!   newest committed checkpoint generation, and relaunches.
//!
//! Nothing here uses wall-clock randomness or external crates: the RNG is an in-tree
//! SplitMix64, so a failing soak seed can be replayed exactly.

use mpi_model::types::Rank;

/// Deterministic 64-bit RNG (SplitMix64). Small, fast, and good enough for fault
/// scheduling; never use wall-clock entropy here — plans must replay exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi)`; `hi` must exceed `lo`.
    pub(crate) fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// One injectable fault. `nth`/`at_op` style triggers count *fabric operations*
/// (sends, receives, probes, collective entries), which makes plans deterministic for
/// a deterministic workload regardless of thread scheduling jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Hold the `nth` injected point-to-point message for `hold_ms` before delivering
    /// it. Masked by the mailbox re-sequencing lane.
    DelayMessage {
        /// Fabric-wide injection index of the message to delay (0-based).
        nth: u64,
        /// How long to hold it, in milliseconds.
        hold_ms: u64,
    },
    /// Drop the `nth` injected message on the floor, then retransmit it `retransmit_ms`
    /// later — the reliable-transport view of packet loss. Masked.
    DropMessage {
        /// Fabric-wide injection index of the message to drop.
        nth: u64,
        /// Retransmission delay, in milliseconds.
        retransmit_ms: u64,
    },
    /// Hold the `nth` injected message until `overtaken_by` further messages have been
    /// injected fabric-wide, letting later traffic overtake it. Masked.
    ReorderMessage {
        /// Fabric-wide injection index of the message to hold back.
        nth: u64,
        /// How many later injections must pass it before it is released.
        overtaken_by: u64,
    },
    /// Split the world at global operation `at_op`: the `isolated` ranks lose
    /// connectivity to everyone else (cross-cut messages are buffered, collective
    /// entries stall, and — crucially — the isolated ranks' heartbeats stop reaching
    /// the board). Heals after `heal_ms` if given; a heal faster than the heartbeat
    /// deadline is fully masked, a slower (or absent) one is detected as a failure.
    Partition {
        /// Global fabric-operation count at which the partition starts.
        at_op: u64,
        /// Ranks on the isolated (minority) side of the cut.
        isolated: Vec<Rank>,
        /// Time until the partition heals, in milliseconds; `None` never heals.
        heal_ms: Option<u64>,
    },
    /// Kill one rank the moment it performs its `at_rank_op`-th fabric operation.
    /// Uncoordinated: no intent broadcast, no drain — exactly the failure mode the
    /// two-phase checkpoint protocol can *not* be warned about.
    CrashRank {
        /// World rank to kill.
        rank: Rank,
        /// Per-rank operation count at which the rank dies.
        at_rank_op: u64,
    },
    /// Kill one rank as it *enters* its `at_entry`-th collective — after registering
    /// intent, before contributing — leaving peers mid-collective with a permanently
    /// missing contribution.
    CrashInCollective {
        /// World rank to kill.
        rank: Rank,
        /// Per-rank collective-entry count at which the rank dies.
        at_entry: u64,
    },
    /// Kill a whole set of ranks at once at global operation `at_op` — a node (or
    /// chassis) failure taking down every rank it hosted.
    KillNode {
        /// World ranks sharing the failed node.
        ranks: Vec<Rank>,
        /// Global fabric-operation count at which the node dies.
        at_op: u64,
    },
}

impl FaultKind {
    /// Short category name, used in events, logs and bench aggregation.
    pub fn category(&self) -> &'static str {
        match self {
            FaultKind::DelayMessage { .. } => "delay",
            FaultKind::DropMessage { .. } => "loss",
            FaultKind::ReorderMessage { .. } => "reorder",
            FaultKind::Partition { .. } => "partition",
            FaultKind::CrashRank { .. } => "crash",
            FaultKind::CrashInCollective { .. } => "crash-in-collective",
            FaultKind::KillNode { .. } => "node-failure",
        }
    }

    /// Whether the fabric + mailbox layer is expected to mask this fault completely
    /// (no failure surfaces to the layers above). Partitions are masked only if they
    /// heal; the caller must compare `heal_ms` against the heartbeat deadline in use.
    pub fn lethal(&self) -> bool {
        matches!(
            self,
            FaultKind::CrashRank { .. }
                | FaultKind::CrashInCollective { .. }
                | FaultKind::KillNode { .. }
        )
    }
}

/// How many faults of each category a seeded plan should contain, and the parameter
/// envelopes used when rolling them. The defaults produce a mixed plan whose masked
/// outages stay safely below a ~250 ms heartbeat deadline.
#[derive(Debug, Clone)]
pub struct ChaosMenu {
    /// Number of [`FaultKind::DelayMessage`] faults.
    pub delays: usize,
    /// Number of [`FaultKind::DropMessage`] faults.
    pub losses: usize,
    /// Number of [`FaultKind::ReorderMessage`] faults.
    pub reorders: usize,
    /// Number of healing [`FaultKind::Partition`] faults.
    pub partitions: usize,
    /// Number of [`FaultKind::CrashRank`] faults.
    pub crashes: usize,
    /// Number of [`FaultKind::CrashInCollective`] faults.
    pub collective_crashes: usize,
    /// Number of [`FaultKind::KillNode`] faults.
    pub node_failures: usize,
    /// Upper bound (exclusive, ms) for masked outages: message holds and partition
    /// heal times. Keep below the heartbeat deadline or masked faults become
    /// detected ones.
    pub masked_outage_ms: u64,
    /// Upper bound (exclusive) for operation-count triggers. Should be comfortably
    /// inside the number of fabric operations one incarnation performs, so every
    /// fault actually gets a chance to fire.
    pub op_horizon: u64,
    /// Ranks per simulated node, used to pick [`FaultKind::KillNode`] victim sets.
    pub ranks_per_node: usize,
}

impl Default for ChaosMenu {
    fn default() -> Self {
        ChaosMenu {
            delays: 2,
            losses: 2,
            reorders: 2,
            partitions: 1,
            crashes: 1,
            collective_crashes: 1,
            node_failures: 1,
            masked_outage_ms: 40,
            op_horizon: 400,
            ranks_per_node: 2,
        }
    }
}

impl ChaosMenu {
    /// A menu containing only masked faults (no crashes, node failures, or
    /// non-healing partitions): useful for asserting that chaos alone never
    /// perturbs results.
    pub fn masked_only() -> Self {
        ChaosMenu {
            crashes: 0,
            collective_crashes: 0,
            node_failures: 0,
            ..ChaosMenu::default()
        }
    }
}

/// A deterministic, replayable schedule of faults for one job. Faults are identified
/// by their index in `faults`; the fabric reports which ids fired so an orchestrator
/// can re-install only the unfired remainder after a recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed the plan was rolled from (0 for hand-built plans); recorded so a failing
    /// soak can name the exact seed to replay.
    pub seed: u64,
    /// The scheduled faults, in id order.
    pub faults: Vec<FaultKind>,
}

impl ChaosPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// A hand-built plan from an explicit fault list.
    pub fn from_faults(faults: Vec<FaultKind>) -> Self {
        ChaosPlan { seed: 0, faults }
    }

    /// Roll a randomized plan from `seed` for a `world_size`-rank job, drawing fault
    /// counts and parameter envelopes from `menu`. Deterministic: same inputs, same
    /// plan.
    pub fn seeded(seed: u64, world_size: usize, menu: &ChaosMenu) -> Self {
        assert!(world_size > 1, "chaos needs at least two ranks");
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();
        let outage = menu.masked_outage_ms.max(2);
        for _ in 0..menu.delays {
            faults.push(FaultKind::DelayMessage {
                nth: rng.below(menu.op_horizon),
                hold_ms: rng.in_range(1, outage),
            });
        }
        for _ in 0..menu.losses {
            faults.push(FaultKind::DropMessage {
                nth: rng.below(menu.op_horizon),
                retransmit_ms: rng.in_range(1, outage),
            });
        }
        for _ in 0..menu.reorders {
            faults.push(FaultKind::ReorderMessage {
                nth: rng.below(menu.op_horizon),
                overtaken_by: rng.in_range(1, 6),
            });
        }
        for _ in 0..menu.partitions {
            // Isolate a strict minority so the majority side keeps a quorum of beats.
            let max_isolated = ((world_size - 1) / 2).max(1);
            let count = rng.in_range(1, max_isolated as u64 + 1) as usize;
            let first = rng.below(world_size as u64) as usize;
            let isolated = (0..count)
                .map(|i| ((first + i) % world_size) as Rank)
                .collect();
            faults.push(FaultKind::Partition {
                at_op: rng.below(menu.op_horizon),
                isolated,
                heal_ms: Some(rng.in_range(1, outage)),
            });
        }
        for _ in 0..menu.crashes {
            faults.push(FaultKind::CrashRank {
                rank: rng.below(world_size as u64) as Rank,
                at_rank_op: rng.in_range(1, menu.op_horizon.max(2)),
            });
        }
        for _ in 0..menu.collective_crashes {
            faults.push(FaultKind::CrashInCollective {
                rank: rng.below(world_size as u64) as Rank,
                at_entry: rng.in_range(1, 12),
            });
        }
        for _ in 0..menu.node_failures {
            let node = rng.below(world_size as u64) as usize;
            let ranks = (0..menu.ranks_per_node.max(1))
                .map(|i| ((node + i) % world_size) as Rank)
                .filter(|r| (*r as usize) < world_size)
                .collect();
            faults.push(FaultKind::KillNode {
                ranks,
                at_op: rng.below(menu.op_horizon),
            });
        }
        ChaosPlan { seed, faults }
    }

    /// The plan with the given fault ids removed: what an orchestrator re-installs on
    /// a relaunched incarnation so already-fired faults do not fire twice. Ids are
    /// positions in the *original* plan; the surviving faults keep their ids via the
    /// companion vector returned.
    pub fn without_fired(&self, fired: &[usize]) -> (ChaosPlan, Vec<usize>) {
        let mut faults = Vec::new();
        let mut ids = Vec::new();
        for (id, fault) in self.faults.iter().enumerate() {
            if !fired.contains(&id) {
                faults.push(fault.clone());
                ids.push(id);
            }
        }
        (
            ChaosPlan {
                seed: self.seed,
                faults,
            },
            ids,
        )
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of lethal (non-maskable) faults in the plan.
    pub fn lethal_count(&self) -> usize {
        self.faults.iter().filter(|f| f.lethal()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len());
        let mut c = SplitMix64::new(43);
        assert_ne!(c.next_u64(), xs[0]);
    }

    #[test]
    fn in_range_respects_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = rng.in_range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn seeded_plan_is_reproducible_and_covers_categories() {
        let menu = ChaosMenu::default();
        let a = ChaosPlan::seeded(99, 4, &menu);
        let b = ChaosPlan::seeded(99, 4, &menu);
        assert_eq!(a, b);
        let categories: std::collections::HashSet<_> =
            a.faults.iter().map(|f| f.category()).collect();
        for want in [
            "delay",
            "loss",
            "reorder",
            "partition",
            "crash",
            "crash-in-collective",
            "node-failure",
        ] {
            assert!(categories.contains(want), "missing category {want}");
        }
        assert_eq!(a.lethal_count(), 3);
        assert_ne!(ChaosPlan::seeded(100, 4, &menu), a);
    }

    #[test]
    fn masked_only_menu_has_no_lethal_faults() {
        let plan = ChaosPlan::seeded(1, 4, &ChaosMenu::masked_only());
        assert_eq!(plan.lethal_count(), 0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn partition_isolates_a_strict_minority() {
        for seed in 0..32 {
            let plan = ChaosPlan::seeded(seed, 6, &ChaosMenu::default());
            for fault in &plan.faults {
                if let FaultKind::Partition { isolated, .. } = fault {
                    assert!(!isolated.is_empty());
                    assert!(isolated.len() <= 2, "minority of 6 is at most 2");
                }
            }
        }
    }

    #[test]
    fn without_fired_keeps_original_ids() {
        let plan = ChaosPlan::seeded(5, 4, &ChaosMenu::default());
        let total = plan.faults.len();
        let (rest, ids) = plan.without_fired(&[0, 2]);
        assert_eq!(rest.faults.len(), total - 2);
        assert!(!ids.contains(&0) && !ids.contains(&2));
        assert_eq!(rest.faults[0], plan.faults[1]);
        assert_eq!(ids[0], 1);
    }
}
