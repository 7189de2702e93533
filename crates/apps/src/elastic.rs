//! Elastic (resizable) proxy applications: the skeleton workload over *logical
//! shards*.
//!
//! The fixed skeleton ([`crate::skeleton::run`]) binds one domain shard to one MPI
//! rank, so its state only makes sense at the world size it started with. The
//! elastic runner overdecomposes instead: the domain is split into `N` *logical
//! shards* — `N` fixed at job start, one per initial rank — and each physical rank
//! *hosts* some subset of them. Every step is phrased in logical-shard coordinates
//! (which shard talks to which, in what order the reduction sums its terms), so the
//! computed state is **bit-identical for any hosting of the shards** — including a
//! single rank hosting everything (`M = 1`) and a grown world where fresh ranks host
//! nothing. That partition-independence is what lets an elastic restart
//! ([`elastic::restart_job`]) move a checkpoint taken at `N` ranks onto `M` ranks and
//! still finish with the same answer as the uninterrupted run.
//!
//! The wire traffic still follows the hosting: halos between co-hosted shards are
//! delivered locally, halos between shards on different ranks travel as tagged
//! point-to-point messages, and the per-step reduction is an `MPI_Allgather` over
//! the new world followed by a deterministic (ascending-logical-rank) local sum.
//! The runner never derives sub-communicators — HPCG's parity ("row") reduction
//! groups are computed logically — so [`SkeletonRepartition`] can promise
//! [`Repartition::consumes_derived_comms`] and any leftover split communicator from
//! other code is dropped rather than blocking the resize.

use crate::skeleton::{f64_bits, AppId, AppProfile, RunConfig};
use ckpt_store::StoreReport;
use elastic::{RankMap, Repartition};
use mana::Session;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::{Rank, Tag};
use serde::{Deserialize, Serialize};
use split_proc::address_space::UpperHalfSpace;
use std::collections::HashMap;

/// The upper-half region the elastic runner keeps its whole state in. One fixed name
/// (the app id lives *inside* the state) so the repartition hook can find it without
/// knowing which application is running.
pub const STATE_REGION: &str = "app.elastic.state";

/// Tag base for the backward (tail) halo direction; forward tags start at 0.
const BWD_TAG_BASE: Tag = 1_000_000;

/// One logical shard: a fixed slice of the overdecomposed domain, identified by the
/// rank it would have owned in the original (logical) world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticShard {
    /// The shard's rank in the logical world (`0..logical_world`).
    pub logical_rank: Rank,
    /// The shard's domain state, bit-exact across checkpoint/restart.
    #[serde(with = "f64_bits")]
    pub lattice: Vec<f64>,
}

impl ElasticShard {
    /// Deterministic checksum of this shard's state (hosting-independent).
    pub fn checksum(&self) -> f64 {
        self.lattice.iter().take(512).sum::<f64>()
    }
}

/// The elastic runner's complete per-rank state: the global shard→host table plus
/// the shards this rank hosts. Serialized into [`STATE_REGION`]; every rank carries
/// the full `hosts` table so any rank's image suffices to describe the partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticWorldState {
    /// Which proxy application's profile drives the step.
    pub app: AppId,
    /// Number of logical shards (fixed at job start; never changes across resizes).
    pub logical_world: usize,
    /// Timesteps completed.
    pub iteration: u64,
    /// `hosts[l]` is the physical rank currently hosting logical shard `l`.
    pub hosts: Vec<Rank>,
    /// The shards hosted by this rank, ascending by logical rank.
    pub shards: Vec<ElasticShard>,
}

/// What one rank reports after an elastic run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// The application that ran.
    pub app: AppId,
    /// This (physical) rank.
    pub rank: Rank,
    /// Timesteps completed in total (across restarts and resizes).
    pub iterations_completed: u64,
    /// Upper↔lower crossings this rank has performed so far.
    pub crossings: u64,
    /// `(logical_rank, checksum)` for every shard this rank hosts. A fresh rank that
    /// was never assigned work reports an empty list.
    pub shard_checksums: Vec<(Rank, f64)>,
    /// The storage engine's report of the checkpoint taken during this run, if any.
    pub incremental: Option<StoreReport>,
}

/// Fold a job's per-rank reports into one partition-independent job checksum: the
/// shard checksums summed in ascending logical-rank order, plus the iteration count.
pub fn job_checksum(reports: &[ElasticReport]) -> f64 {
    let mut shards: Vec<(Rank, f64)> = reports
        .iter()
        .flat_map(|r| r.shard_checksums.iter().copied())
        .collect();
    shards.sort_by_key(|&(logical, _)| logical);
    let iterations = reports
        .iter()
        .map(|r| r.iterations_completed)
        .max()
        .unwrap_or(0);
    shards.iter().map(|&(_, c)| c).sum::<f64>() + iterations as f64
}

fn fwd_tag(n: usize, sender: Rank, logical_world: usize) -> Tag {
    (n * logical_world) as Tag + sender
}

fn bwd_tag(n: usize, sender: Rank, logical_world: usize) -> Tag {
    BWD_TAG_BASE + (n * logical_world) as Tag + sender
}

/// Initialize a fresh elastic world: one shard per rank (`logical_world ==
/// world_size`, identity hosting), lattices seeded exactly like the fixed skeleton
/// seeds rank `l`'s state.
fn init_state(
    profile: &AppProfile,
    world_size: usize,
    my_rank: Rank,
    state_scale: f64,
) -> ElasticWorldState {
    let elements = profile.state_bytes_at_scale(state_scale) / 8;
    let shards = vec![ElasticShard {
        logical_rank: my_rank,
        lattice: (0..elements)
            .map(|i| ((i as f64) * 0.5 + my_rank as f64 * 1.25).sin())
            .collect(),
    }];
    ElasticWorldState {
        app: profile.id,
        logical_world: world_size,
        iteration: 0,
        hosts: (0..world_size as Rank).collect(),
        shards,
    }
}

/// Execute (or resume) `profile` elastically on `session` according to `config`.
///
/// On a fresh world this decomposes into `world_size` logical shards (one per rank).
/// On a restored world — same size or resized through [`elastic::restart_job`] with
/// [`SkeletonRepartition`] — it picks up the shard table from [`STATE_REGION`] and
/// continues; the final shard checksums are identical either way.
pub fn run_elastic(
    profile: &AppProfile,
    session: &mut Session,
    config: &RunConfig,
) -> MpiResult<ElasticReport> {
    let me = session.world_rank();
    let world_size = session.world_size();

    let mut state: ElasticWorldState = if session.upper().contains(STATE_REGION) {
        session.upper().load_json(STATE_REGION)?
    } else {
        init_state(profile, world_size, me, config.state_scale)
    };
    if state.hosts.len() != state.logical_world {
        return Err(MpiError::Internal(format!(
            "elastic state names {} logical shards but maps {} hosts",
            state.logical_world,
            state.hosts.len()
        )));
    }
    for shard in &state.shards {
        let hosted = state.hosts.get(shard.logical_rank as usize).copied();
        if hosted != Some(me) {
            return Err(MpiError::Internal(format!(
                "rank {me} holds shard {} which the host table assigns to {hosted:?}",
                shard.logical_rank
            )));
        }
    }

    let mut incremental_report = None;
    while state.iteration < config.iterations {
        elastic_step(profile, session, &mut state)?;
        state.iteration += 1;
        if let Some(storage) = config.checkpoint_due(state.iteration) {
            session.upper_mut().store_json(STATE_REGION, &state)?;
            incremental_report = Some(session.checkpoint_into(storage)?);
        }
    }
    session.upper_mut().store_json(STATE_REGION, &state)?;

    Ok(ElasticReport {
        app: profile.id,
        rank: me,
        iterations_completed: state.iteration,
        crossings: session.crossings(),
        shard_checksums: state
            .shards
            .iter()
            .map(|s| (s.logical_rank, s.checksum()))
            .collect(),
        incremental: incremental_report,
    })
}

/// One timestep in logical-shard coordinates. Every phase is ordered by logical
/// rank and sums in logical order, so the result does not depend on the hosting.
fn elastic_step(
    profile: &AppProfile,
    session: &mut Session,
    state: &mut ElasticWorldState,
) -> MpiResult<()> {
    let me = session.world_rank();
    let world = session.world()?;
    let n_logical = state.logical_world as Rank;
    let step = state.iteration;
    let hosts = state.hosts.clone();

    // --- Halo exchange, one round per neighbour distance. Phase A posts every
    // outgoing halo (eager; co-hosted halos go through the local stash), phase B
    // receives and folds in ascending logical order — so round n+1 always sees the
    // fully folded round-n state, exactly like the lockstep fixed skeleton.
    if n_logical > 1 {
        let halo = shard_halo(profile, state);
        for n in 1..=profile.halo_neighbors {
            let mut stash: HashMap<Tag, Vec<f64>> = HashMap::new();
            for shard in &state.shards {
                let l = shard.logical_rank;
                let right = (l + n as Rank).rem_euclid(n_logical);
                let left = (l - n as Rank).rem_euclid(n_logical);
                let tail = shard.lattice.len() - halo;
                let front: Vec<f64> = shard.lattice[..halo].to_vec();
                let back: Vec<f64> = shard.lattice[tail..].to_vec();
                let right_host = host_of(&hosts, right)?;
                if right_host == me {
                    stash.insert(fwd_tag(n, l, state.logical_world), front);
                } else {
                    session.send(
                        &front,
                        right_host,
                        fwd_tag(n, l, state.logical_world),
                        world,
                    )?;
                }
                let left_host = host_of(&hosts, left)?;
                if left_host == me {
                    stash.insert(bwd_tag(n, l, state.logical_world), back);
                } else {
                    session.send(&back, left_host, bwd_tag(n, l, state.logical_world), world)?;
                }
            }
            let logical_world = state.logical_world;
            for shard in &mut state.shards {
                let l = shard.logical_rank;
                let right = (l + n as Rank).rem_euclid(n_logical);
                let left = (l - n as Rank).rem_euclid(n_logical);
                let from_left = take_halo(
                    session,
                    &mut stash,
                    host_of(&hosts, left)?,
                    me,
                    fwd_tag(n, left, logical_world),
                    halo,
                    world,
                )?;
                for (cell, ghost) in shard.lattice.iter_mut().zip(from_left.iter()) {
                    *cell = 0.75 * *cell + 0.25 * ghost;
                }
                let from_right = take_halo(
                    session,
                    &mut stash,
                    host_of(&hosts, right)?,
                    me,
                    bwd_tag(n, right, logical_world),
                    halo,
                    world,
                )?;
                let tail = shard.lattice.len() - halo;
                for (cell, ghost) in shard.lattice[tail..].iter_mut().zip(from_right.iter()) {
                    *cell = 0.75 * *cell + 0.25 * ghost;
                }
            }
        }
    }

    // --- Local compute: the skeleton's bounded relaxation window, per shard.
    for shard in &mut state.shards {
        let window = shard.lattice.len().min(4096);
        for i in 1..window {
            shard.lattice[i] = 0.5 * (shard.lattice[i] + shard.lattice[i - 1]);
        }
    }

    // --- Reductions. Instead of an allreduce on a (hosting-dependent) derived
    // communicator, every rank publishes each hosted shard's local term through one
    // world allgather, and each shard sums its group's terms in ascending logical
    // order — HPCG-style parity groups when the profile splits, everyone otherwise.
    for r in 0..profile.allreduces_per_iter {
        let mut contribution: Vec<u64> = vec![0; state.logical_world];
        for shard in &state.shards {
            let window = shard.lattice.len().min(4096);
            let local = shard.lattice[(r * 7) % window.max(1)] + step as f64 * 1e-6;
            contribution[shard.logical_rank as usize] = local.to_bits();
        }
        let gathered = session.allgather(&contribution, world)?;
        let logical_world = state.logical_world;
        for shard in &mut state.shards {
            let mut reduced = 0.0;
            for g in 0..logical_world {
                if profile.uses_split_comm
                    && n_logical > 1
                    && (g as Rank % 2) != (shard.logical_rank % 2)
                {
                    continue;
                }
                let host = host_of(&hosts, g as Rank)?;
                let slot = host as usize * logical_world + g;
                let bits = gathered.get(slot).copied().ok_or_else(|| {
                    MpiError::Internal("allgather returned too few reduction terms".into())
                })?;
                reduced += f64::from_bits(bits);
            }
            shard.lattice[0] += reduced * 1e-9;
        }
    }

    // --- Periodic neighbour-list rebuild. The state update is a function of the
    // *logical* world (hosting-independent); the physical alltoall still runs so the
    // wire pattern matches the profile.
    let logical_world = state.logical_world;
    if profile.alltoall_every > 0 && (step + 1).is_multiple_of(profile.alltoall_every) {
        if session.world_size() > 1 {
            let block: Vec<u64> = (0..session.world_size() as Rank)
                .map(|peer| (me * 1000 + peer) as u64)
                .collect();
            let _ = session.alltoall(&block, 1, world)?;
        }
        for shard in &mut state.shards {
            shard.lattice[0] += logical_world as f64 * 8.0 * 1e-12;
        }
    }
    Ok(())
}

/// The halo length every shard of this state uses (all shards are the same size).
fn shard_halo(profile: &AppProfile, state: &ElasticWorldState) -> usize {
    let len = state
        .shards
        .first()
        .map(|s| s.lattice.len())
        .unwrap_or(profile.halo_elements);
    profile.halo_elements.min(len.max(1))
}

fn host_of(hosts: &[Rank], logical: Rank) -> MpiResult<Rank> {
    hosts
        .get(logical as usize)
        .copied()
        .ok_or_else(|| MpiError::Internal(format!("no host recorded for logical shard {logical}")))
}

/// Receive one halo: from the local stash when the sending shard is co-hosted, from
/// the wire otherwise.
fn take_halo(
    session: &mut Session,
    stash: &mut HashMap<Tag, Vec<f64>>,
    sender_host: Rank,
    me: Rank,
    tag: Tag,
    halo: usize,
    world: mana::Comm,
) -> MpiResult<Vec<f64>> {
    if sender_host == me {
        stash.remove(&tag).ok_or_else(|| {
            MpiError::Internal(format!(
                "co-hosted halo (tag {tag}) missing from local stash"
            ))
        })
    } else {
        let (incoming, _) = session.recv::<f64>(halo, sender_host, tag, world)?;
        Ok(incoming)
    }
}

/// The proxy applications' [`Repartition`]: re-buckets the logical shards of every
/// old rank's [`STATE_REGION`] onto the new world.
///
/// With `rebalance` set (the default), shards are spread in contiguous blocks over
/// *all* `M` new ranks, so a grown world puts its fresh ranks to work. Without it,
/// shards strictly follow the rank map — each new rank hosts exactly its adopted old
/// ranks' shards, and fresh ranks keep empty shard lists.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonRepartition {
    /// Spread shards over the whole new world instead of following the map.
    pub rebalance: bool,
}

impl Default for SkeletonRepartition {
    fn default() -> Self {
        SkeletonRepartition { rebalance: true }
    }
}

impl Repartition for SkeletonRepartition {
    fn repartition(
        &self,
        old: &[UpperHalfSpace],
        map: &RankMap,
        new_rank: Rank,
        upper: &mut UpperHalfSpace,
    ) -> MpiResult<()> {
        // Any old rank's state describes the whole partition; collect every shard.
        let template: ElasticWorldState = old
            .iter()
            .find(|u| u.contains(STATE_REGION))
            .ok_or_else(|| {
                MpiError::ElasticResize(
                    "no elastic application state found in the checkpointed world; only \
                     apps run through run_elastic can be repartitioned"
                        .into(),
                )
            })?
            .load_json(STATE_REGION)?;
        let logical_world = template.logical_world;

        let mut new_hosts: Vec<Rank> = Vec::with_capacity(logical_world);
        for (l, &old_host) in template.hosts.iter().enumerate() {
            let host = if self.rebalance {
                (l * map.new_world() / logical_world) as Rank
            } else {
                map.new_rank_of(old_host)?
            };
            new_hosts.push(host);
        }

        let mut shards: Vec<ElasticShard> = Vec::new();
        for space in old {
            if !space.contains(STATE_REGION) {
                continue;
            }
            let old_state: ElasticWorldState = space.load_json(STATE_REGION)?;
            for shard in old_state.shards {
                if new_hosts.get(shard.logical_rank as usize).copied() == Some(new_rank) {
                    shards.push(shard);
                }
            }
        }
        shards.sort_by_key(|s| s.logical_rank);
        shards.dedup_by_key(|s| s.logical_rank);

        let state = ElasticWorldState {
            app: template.app,
            logical_world,
            iteration: template.iteration,
            hosts: new_hosts,
            shards,
        };
        upper.store_json(STATE_REGION, &state)
    }

    /// The elastic runner derives no communicators (parity groups are computed
    /// logically), so any derived communicator left over in the image is
    /// per-partition state: drop it and let the new world rebuild what it needs.
    fn consumes_derived_comms(&self) -> bool {
        true
    }
}
