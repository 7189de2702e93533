//! The restart engine: restore an `N`-rank checkpoint generation onto `M` fresh
//! lower halves. Every restart — same size or resized, same MPI implementation or
//! another — runs through [`restart_job`].
//!
//! The engine dismantles every image of a generation ([`mana::dismantle_image`]),
//! maps the recovered state onto the new world through a [`RankMap`], and hands each
//! new rank's state to [`mana::assemble_rank`], whose record-replay rebuilds every
//! surviving MPI object in the fresh lower halves.
//!
//! When the sizes match the map is the identity, and an identity map moves no
//! state: the engine performs no surgery, takes no snapshot of the old world and
//! never calls the [`Repartition`] hook. A real resize (`M != N`) performs *surgery*
//! on the recovered state — rewriting communicator memberships, drain counters and
//! object-creation replay logs into the new world's coordinates — before assembly.
//!
//! What survives a real resize:
//!
//! * **The world communicator** and every *world-equivalent* derived object (a
//!   `dup` of world, a `comm_create` over the full membership, the world's group):
//!   their membership is rewritten to `0..M` and their creation replayed in the new
//!   world.
//! * **Datatypes and user ops**: rank-count independent, replayed unchanged.
//! * **Proper-subset communicators and groups** (splits, partial `comm_create`s)
//!   cannot be remapped mechanically — whether the old partition even makes sense at
//!   the new size is an application question. If the application's
//!   [`Repartition::consumes_derived_comms`] says it rebuilds its own
//!   sub-communicators, they are *dropped on every rank* (keeping collective replay
//!   aligned); otherwise the resize fails with a typed
//!   [`MpiError::ElasticResize`] error.
//!
//! A resize also refuses checkpoints that straddle a collective, carry drained
//! in-flight messages, or hold live request objects: those images encode cross-rank
//! state in old-world coordinates that no rank map can translate. Checkpoints taken
//! at step boundaries (as the proxy apps and the job runtime do) are always eligible.
//! A same-size restart accepts all three.

use crate::rankmap::{RankMap, RemapPolicy};
use crate::repartition::{NoRepartition, Repartition};
use mana::config::ManaConfig;
use mana::record::{CollectiveKind, CollectiveLog, CreationRecipe, ReplayEvent, ReplayLog};
use mana::restart::{assemble_rank, dismantle_image, RestoredUpper};
use mana::runtime::{DrainCounters, ManaRank, Translator};
use mana::virtid::{blank_descriptor, VirtualId};
use mpi_model::api::MpiApi;
use mpi_model::constants::PredefinedObject;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpi_model::types::{HandleKind, PhysHandle, Rank};
use parking_lot::RwLock;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::CheckpointImage;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Restore the checkpoint images of an `N`-rank generation onto `M` fresh lower
/// halves, following `map`.
///
/// `lowers` must come from a single fresh launch of the new `M`-rank world; `images`
/// are the per-rank images of one complete generation of the old `N`-rank world, in
/// any order (they are ordered by their recorded rank). Unless `map` is the identity,
/// the application's `repartition` hook is invoked once per new rank — after MANA's
/// state has been adopted or synthesized, before replay — so domain state follows the
/// map.
///
/// Collective across the job: the creation replay makes collective calls, so every
/// new rank but the last is assembled on a thread of its own, and the last on the
/// calling thread, which would otherwise only sit in `join`. Returns the rebuilt
/// ranks in rank order; when several ranks fail, the lowest rank's error is returned.
///
/// Lower halves that do not form the map's new world, or images that do not form one
/// complete generation of its old world, fail with [`MpiError::Checkpoint`] at any
/// size; a checkpoint a real resize cannot translate fails with
/// [`MpiError::ElasticResize`].
pub fn restart_job(
    lowers: Vec<Box<dyn MpiApi>>,
    images: Vec<CheckpointImage>,
    map: &RankMap,
    repartition: &dyn Repartition,
    config: ManaConfig,
    registry: Arc<RwLock<UserFunctionRegistry>>,
) -> MpiResult<Vec<ManaRank>> {
    let lowers = validate_lowers(lowers, map.new_world())?;
    let (generation, mut states) = dismantle_generation(images, map.old_world())?;
    if map.is_identity() {
        // The restored application re-runs the interrupted step from its beginning,
        // re-issuing every collective of the step in order: a straddled collective
        // is re-executed as a fresh issue that receives the same sequence number
        // (begin hands out the completed count, which the pending registration never
        // advanced), so its pending record is cleared.
        for state in &mut states {
            state.collectives.clear_pending();
        }
    } else {
        states = remap_generation(states, map, repartition, config)?;
    }
    assemble_job(lowers, states, config, registry, generation + 1)
}

/// Restart a whole job out of a [`ckpt_store::CheckpointStorage`] onto `lowers`,
/// from the newest generation that validates end to end for **every** rank, at
/// whatever world size it was checkpointed with.
///
/// Each candidate generation's manifests and chunks are verified
/// before any rank is rebuilt; a generation with a corrupt or truncated piece — the
/// torn-write case a preempted job can leave behind — is skipped for the job as a
/// whole, so all ranks restart from the same older generation rather than a torn
/// mix.
///
/// When the generation's size matches `lowers.len()` the map is the identity. When
/// it differs, the generation is remapped with `remap`'s policy and repartition
/// hook; without `remap` the restart fails with a typed
/// [`MpiError::WorldSizeMismatch`] naming both sizes.
///
/// Generations still *pending* (an asynchronous flush the dead incarnation never
/// committed) are aborted and forgotten first. A caller with asynchronous flushes
/// must let them land before restarting from the same storage (a service tenant's
/// `wait_idle`), so no dead-incarnation flush is still in flight when the restarted
/// job reuses a generation number. Once the ranks are rebuilt, the committed
/// generations newer than the one restored — those that failed validation — are
/// dropped, so the restored generation is the store's newest committed one again:
/// the restart point `prune_before` protects, and the one a later restart or resume
/// reads. Returns the rebuilt ranks in rank order plus the generation restored from.
pub fn restart_job_from_storage(
    lowers: Vec<Box<dyn MpiApi>>,
    storage: &ckpt_store::CheckpointStorage,
    remap: Option<(RemapPolicy, &dyn Repartition)>,
    config: ManaConfig,
    registry: Arc<RwLock<UserFunctionRegistry>>,
) -> MpiResult<(Vec<ManaRank>, u64)> {
    storage.abort_pending();
    let (generation, images) = storage.latest_valid_images_any_size()?;
    let (checkpointed, offered) = (images.len(), lowers.len());
    let map = match remap {
        _ if checkpointed == offered => RankMap::identity(offered)?,
        Some((policy, _)) => RankMap::with_policy(policy, checkpointed, offered)?,
        None => {
            return Err(MpiError::WorldSizeMismatch {
                checkpointed,
                offered,
                generation,
            })
        }
    };
    let repartition = remap.map_or(&NoRepartition as &dyn Repartition, |(_, hook)| hook);
    let ranks = restart_job(lowers, images, &map, repartition, config, registry)?;
    storage.drop_generations_after(generation);
    Ok((ranks, generation))
}

/// Order the new world's lower halves by rank and check they really form a
/// contiguous `M`-rank world.
fn validate_lowers(
    mut lowers: Vec<Box<dyn MpiApi>>,
    new_world: usize,
) -> MpiResult<Vec<Box<dyn MpiApi>>> {
    if lowers.len() != new_world {
        return Err(MpiError::Checkpoint(format!(
            "rank map targets a {new_world}-rank world but {} lower halves were offered",
            lowers.len()
        )));
    }
    lowers.sort_by_key(|l| l.world_rank());
    for (i, lower) in lowers.iter().enumerate() {
        if lower.world_rank() != i as Rank || lower.world_size() != new_world {
            return Err(MpiError::Checkpoint(format!(
                "offered lower halves do not form a contiguous {new_world}-rank world \
                 (slot {i} holds rank {} of {})",
                lower.world_rank(),
                lower.world_size()
            )));
        }
    }
    Ok(lowers)
}

/// Dismantle one complete generation: check the images cover ranks `0..N` of a single
/// generation checkpointed at world size `N`, and take each apart.
fn dismantle_generation(
    mut images: Vec<CheckpointImage>,
    old_world: usize,
) -> MpiResult<(u64, Vec<RestoredUpper>)> {
    if images.len() != old_world {
        return Err(MpiError::Checkpoint(format!(
            "rank map describes a {old_world}-rank checkpointed world but {} images \
             were offered",
            images.len()
        )));
    }
    images.sort_by_key(|image| image.metadata.rank);
    let generation = images
        .first()
        .map(|image| image.metadata.generation)
        .ok_or_else(|| MpiError::Checkpoint("cannot restart an empty generation".into()))?;
    let mut states = Vec::with_capacity(images.len());
    for (i, image) in images.into_iter().enumerate() {
        if image.metadata.rank != i as Rank
            || image.metadata.world_size != old_world
            || image.metadata.generation != generation
        {
            return Err(MpiError::Checkpoint(format!(
                "images do not form one complete generation: slot {i} holds rank {} \
                 of a {}-rank world, generation {} (expected generation {generation})",
                image.metadata.rank, image.metadata.world_size, image.metadata.generation
            )));
        }
        states.push(dismantle_image(image)?);
    }
    Ok((generation, states))
}

/// Bind every new rank's state to its lower half: every rank but the last on a
/// thread of its own, the last on the calling thread, which would otherwise only sit
/// in `join`. Every thread is joined. `lowers` and `states` are both in new-rank
/// order, so the ranks come back in rank order; the lowest failing rank's error wins.
fn assemble_job(
    lowers: Vec<Box<dyn MpiApi>>,
    states: Vec<RestoredUpper>,
    config: ManaConfig,
    registry: Arc<RwLock<UserFunctionRegistry>>,
    next_generation: u64,
) -> MpiResult<Vec<ManaRank>> {
    let mut work = lowers.into_iter().zip(states);
    let inline = work.next_back();
    let assemble = |(lower, state)| {
        assemble_rank(lower, state, config, Arc::clone(&registry), next_generation)
    };
    let results: Vec<MpiResult<ManaRank>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = work
            .map(|rank| scope.spawn(move || assemble(rank)))
            .collect();
        let inline = inline.map(assemble);
        spawned
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| {
                    Err(MpiError::Checkpoint(
                        "a rank panicked during restart".into(),
                    ))
                })
            })
            .chain(inline)
            .collect()
    });
    results.into_iter().collect()
}

/// Map a dismantled `N`-rank generation onto the `M` ranks of a non-identity `map`:
/// rewrite every old rank's state into new-world coordinates, hand each adopted
/// state to its new rank (merging the drain counters of every old rank it hosts),
/// synthesize state for fresh ranks, and let the application's `repartition` hook
/// move its domain state. Returns the new ranks' states in new-rank order.
fn remap_generation(
    states: Vec<RestoredUpper>,
    map: &RankMap,
    repartition: &dyn Repartition,
    config: ManaConfig,
) -> MpiResult<Vec<RestoredUpper>> {
    let new_world = map.new_world();
    let states = rewrite_generation(states, map, repartition.consumes_derived_comms())?;

    // Snapshot what the per-new-rank assembly needs from the *whole* old world
    // before the old states are moved: every old upper half (for the repartition
    // hook) and every old counter vector (for the merge).
    let old_uppers: Vec<UpperHalfSpace> = states.iter().map(|s| s.upper.clone()).collect();
    let old_counters: Vec<DrainCounters> = states.iter().map(|s| s.counters.clone()).collect();
    let plan = match states.first() {
        Some(template) if map.has_fresh_ranks() => Some(fresh_plan(template)?),
        _ => None,
    };

    let mut slots: Vec<Option<RestoredUpper>> = states.into_iter().map(Some).collect();
    let mut new_states: Vec<RestoredUpper> = Vec::with_capacity(new_world);
    for j in 0..new_world {
        let new_rank = j as Rank;
        let mut state = match map.primary_of(new_rank) {
            Some(primary) => {
                let mut state = slots
                    .get_mut(primary as usize)
                    .and_then(Option::take)
                    .ok_or_else(|| {
                        MpiError::Internal(format!(
                            "rank map assigned old rank {primary} as primary twice"
                        ))
                    })?;
                fix_self_comm(&mut state, new_rank)?;
                state.counters = merged_counters(&old_counters, map, new_rank)?;
                state
            }
            None => {
                let plan = plan.as_ref().ok_or_else(|| {
                    MpiError::Internal("fresh rank encountered without a synthesis plan".into())
                })?;
                synthesize_fresh(plan, new_world, config)?
            }
        };
        repartition.repartition(&old_uppers, map, new_rank, &mut state.upper)?;
        new_states.push(state);
    }
    Ok(new_states)
}

/// Validate and rewrite every old rank's state into new-world coordinates.
/// `consume` is the application's [`Repartition::consumes_derived_comms`] answer.
fn rewrite_generation(
    mut states: Vec<RestoredUpper>,
    map: &RankMap,
    consume: bool,
) -> MpiResult<Vec<RestoredUpper>> {
    for (rank, state) in states.iter_mut().enumerate() {
        let rank = rank as Rank;
        if let Some(pending) = state.collectives.pending() {
            return Err(MpiError::ElasticResize(format!(
                "rank {rank} was checkpointed inside a straddled {:?} collective \
                 (seq {} on {}); a resize needs a checkpoint taken between collectives \
                 — restart at the original size, checkpoint at a step boundary, then \
                 resize",
                pending.kind, pending.seq, pending.comm
            )));
        }
        if !state.buffered.is_empty() {
            return Err(MpiError::ElasticResize(format!(
                "rank {rank} carries {} drained in-flight messages addressed in \
                 old-world ranks; a resize needs a checkpoint taken with point-to-point \
                 traffic quiesced (a step boundary)",
                state.buffered.len()
            )));
        }
        if let Some(request) = state
            .translator
            .iter_in_creation_order()
            .iter()
            .find(|d| d.kind == HandleKind::Request)
        {
            return Err(MpiError::ElasticResize(format!(
                "rank {rank} holds a live request object {}; a resize needs all \
                 nonblocking operations completed before the checkpoint",
                request.vid
            )));
        }
        rewrite_rank(state, rank, map, consume)?;
    }
    Ok(states)
}

/// Rewrite one old rank's translator, replay log and collective ledger into
/// new-world coordinates.
fn rewrite_rank(
    state: &mut RestoredUpper,
    old_rank: Rank,
    map: &RankMap,
    consume: bool,
) -> MpiResult<()> {
    let full_old: Vec<Rank> = (0..map.old_world() as Rank).collect();
    let full_new: Vec<Rank> = (0..map.new_world() as Rank).collect();

    // World-equivalent lineage: the world communicator itself plus everything
    // derived from it without narrowing the membership. Seeded from the predefined
    // world descriptor, grown by walking the replay log in creation order (which
    // also covers parents freed before the checkpoint — their events remain).
    let mut world_like: HashSet<VirtualId> = HashSet::new();
    if let Some(world) = state
        .translator
        .find_predefined(PredefinedObject::CommWorld)
    {
        world_like.insert(world);
    }
    let mut consumed: HashSet<VirtualId> = HashSet::new();
    let mut rewritten = ReplayLog::new();
    for event in state.replay_log.events().to_vec() {
        // `Some(recipe)` keeps the event (possibly rewritten); the bool marks the
        // product itself world-equivalent. `None` means the recipe narrows the
        // membership and cannot be replayed in the new world.
        let disposition: Option<(CreationRecipe, bool)> = match &event.recipe {
            CreationRecipe::Predefined(object) => {
                Some((event.recipe.clone(), *object == PredefinedObject::CommWorld))
            }
            CreationRecipe::CommDup { parent } => world_like
                .contains(parent)
                .then(|| (event.recipe.clone(), true)),
            CreationRecipe::CommSplit { .. } => None,
            CreationRecipe::CommCreate {
                parent,
                members_world,
            } => (world_like.contains(parent) && members_world == &full_old).then(|| {
                (
                    CreationRecipe::CommCreate {
                        parent: *parent,
                        members_world: full_new.clone(),
                    },
                    true,
                )
            }),
            CreationRecipe::GroupFromComm { comm } => world_like
                .contains(comm)
                .then(|| (event.recipe.clone(), true)),
            CreationRecipe::GroupIncl { parent, ranks } => {
                (world_like.contains(parent) && ranks == &full_old).then(|| {
                    (
                        CreationRecipe::GroupIncl {
                            parent: *parent,
                            ranks: full_new.clone(),
                        },
                        true,
                    )
                })
            }
            CreationRecipe::DerivedDatatype { .. } | CreationRecipe::UserOp { .. } => {
                Some((event.recipe.clone(), false))
            }
        };
        match disposition {
            Some((recipe, world_equivalent)) => {
                if world_equivalent {
                    if let Some(vid) = event.vid {
                        world_like.insert(vid);
                    }
                }
                rewritten.push(ReplayEvent {
                    recipe,
                    vid: event.vid,
                    freed: event.freed,
                });
            }
            None => {
                // Already-freed objects (and `MPI_UNDEFINED` split arms, which made
                // no object) exist only so collective replay stays aligned; every
                // rank drops them at the same log position, so alignment holds and
                // they vanish silently. A *live* narrowed object is consumed only if
                // the application promised to rebuild its own sub-communicators.
                if let Some(vid) = event.vid {
                    if !event.freed && !consume {
                        return Err(MpiError::ElasticResize(format!(
                            "rank {old_rank} holds live derived object {vid}, created \
                             by {:?}, whose membership is a proper subset of the old \
                             world and cannot be remapped onto {} ranks; implement \
                             Repartition::consumes_derived_comms to drop and rebuild \
                             such communicators, or restart at the original size",
                            event.recipe,
                            map.new_world()
                        )));
                    }
                    consumed.insert(vid);
                }
            }
        }
    }
    state.replay_log = rewritten;

    // Descriptor surgery: world-equivalent memberships become the full new world;
    // consumed objects disappear (their collective sequence numbers with them).
    let descriptors: Vec<(VirtualId, HandleKind, Option<PredefinedObject>)> = state
        .translator
        .iter_in_creation_order()
        .iter()
        .map(|d| (d.vid, d.kind, d.predefined))
        .collect();
    for (vid, kind, predefined) in descriptors {
        match predefined {
            Some(PredefinedObject::CommWorld) => {
                set_members(state, vid, full_new.clone())?;
            }
            // `MPI_COMM_SELF` membership is the *new* rank's identity, patched in
            // once the state is assigned to a new rank (`fix_self_comm`).
            Some(_) => {}
            None => {
                if !matches!(kind, HandleKind::Comm | HandleKind::Group) {
                    continue;
                }
                if world_like.contains(&vid) {
                    set_members(state, vid, full_new.clone())?;
                } else if consumed.contains(&vid) {
                    let _ = state.translator.remove(vid);
                    state.collectives.forget_comm(vid);
                } else {
                    return Err(MpiError::Internal(format!(
                        "descriptor {vid} on rank {old_rank} has no surviving or \
                         consumed creation event"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Point a surviving communicator/group descriptor at its new-world membership,
/// recomputing the ggid if one had been published.
fn set_members(state: &mut RestoredUpper, vid: VirtualId, members: Vec<Rank>) -> MpiResult<()> {
    let descriptor = state.translator.get_mut(vid)?;
    let had_ggid = descriptor.ggid.is_some();
    descriptor.members_world = Some(members);
    descriptor.ggid = None;
    if had_ggid {
        descriptor.ggid_or_compute();
    }
    Ok(())
}

/// Patch the adopted `MPI_COMM_SELF` descriptor to the new rank's identity.
fn fix_self_comm(state: &mut RestoredUpper, new_rank: Rank) -> MpiResult<()> {
    if let Some(vid) = state.translator.find_predefined(PredefinedObject::CommSelf) {
        set_members(state, vid, vec![new_rank])?;
    }
    Ok(())
}

/// Fold the hosted old ranks' drain counters through the map: the new rank has sent
/// to (received from) new rank `q` everything its old ranks sent to (received from)
/// any old rank now hosted by `q`.
fn merged_counters(
    old: &[DrainCounters],
    map: &RankMap,
    new_rank: Rank,
) -> MpiResult<DrainCounters> {
    let mut out = DrainCounters::new(map.new_world());
    for host in map.hosted_by(new_rank) {
        let counters = old.get(host as usize).ok_or_else(|| {
            MpiError::Internal(format!("no counters recorded for old rank {host}"))
        })?;
        for (dest, &count) in counters.sent_to.iter().enumerate() {
            let q = map.new_rank_of(dest as Rank)? as usize;
            if let Some(slot) = out.sent_to.get_mut(q) {
                *slot += count;
            }
        }
        for (source, &count) in counters.received_from.iter().enumerate() {
            let q = map.new_rank_of(source as Rank)? as usize;
            if let Some(slot) = out.received_from.get_mut(q) {
                *slot += count;
            }
        }
    }
    Ok(out)
}

/// The parent of a synthesized collective creation on a fresh rank.
enum FreshParent {
    /// The world communicator.
    World,
    /// The product of an earlier synthesized event (index into the plan).
    Product(usize),
}

/// One collective creation a fresh rank must participate in.
struct FreshEvent {
    parent: FreshParent,
    /// `Some(members)` replays `MPI_Comm_create`; `None` replays `MPI_Comm_dup`.
    create_members: Option<Vec<Rank>>,
    freed: bool,
    /// Collective sequence number published on the product by the old world.
    epoch: u64,
}

/// What a fresh rank (one no old rank maps onto) must synthesize so it stays aligned
/// with the adopting ranks: the surviving collective creations in order, plus the
/// world communicator's collective epoch.
struct FreshPlan {
    world_epoch: u64,
    events: Vec<FreshEvent>,
}

/// Extract the synthesis plan from one already-rewritten old rank's state. Every
/// surviving collective recipe is world-equivalent, so its membership (and epoch)
/// is identical on all ranks — any template rank yields the same plan.
fn fresh_plan(template: &RestoredUpper) -> MpiResult<FreshPlan> {
    let world_vid = template
        .translator
        .find_predefined(PredefinedObject::CommWorld);
    let world_epoch = world_vid
        .map(|vid| template.collectives.completed_on(vid))
        .unwrap_or(0);
    let mut index_of: HashMap<VirtualId, usize> = HashMap::new();
    let mut events = Vec::new();
    for event in template.replay_log.events() {
        if !event.recipe.is_collective() {
            continue;
        }
        let (parent_vid, create_members) = match &event.recipe {
            CreationRecipe::CommDup { parent } => (*parent, None),
            CreationRecipe::CommCreate {
                parent,
                members_world,
            } => (*parent, Some(members_world.clone())),
            // Splits never survive a resize; the rewrite already dropped them.
            _ => continue,
        };
        let parent = if Some(parent_vid) == world_vid {
            FreshParent::World
        } else if let Some(&index) = index_of.get(&parent_vid) {
            FreshParent::Product(index)
        } else {
            return Err(MpiError::Internal(format!(
                "surviving collective recipe has unresolvable parent {parent_vid}"
            )));
        };
        let epoch = match event.vid {
            Some(vid) if !event.freed => template.collectives.completed_on(vid),
            _ => 0,
        };
        if let Some(vid) = event.vid {
            index_of.insert(vid, events.len());
        }
        events.push(FreshEvent {
            parent,
            create_members,
            freed: event.freed,
            epoch,
        });
    }
    Ok(FreshPlan {
        world_epoch,
        events,
    })
}

/// Build a fresh rank's state from scratch: a translator holding the new world
/// communicator, a replay log of the surviving collective creations (so the fresh
/// rank participates in the adopting ranks' replay), and a collective ledger
/// replaying the old world's published sequence numbers — without which the next
/// checkpoint's epoch-agreement check would reject the resized world.
fn synthesize_fresh(
    plan: &FreshPlan,
    new_world: usize,
    config: ManaConfig,
) -> MpiResult<RestoredUpper> {
    let full_new: Vec<Rank> = (0..new_world as Rank).collect();
    let mut translator = Translator::new(config.virtid_mode);
    let world_vid = translator.insert_with(
        HandleKind::Comm,
        Some(PredefinedObject::CommWorld),
        |vid, seq| {
            let mut descriptor = blank_descriptor(HandleKind::Comm, PhysHandle::NULL);
            descriptor.vid = vid;
            descriptor.creation_seq = seq;
            descriptor.predefined = Some(PredefinedObject::CommWorld);
            descriptor.members_world = Some(full_new.clone());
            descriptor
        },
    );
    let mut collectives = CollectiveLog::new();
    replay_epoch(&mut collectives, world_vid, plan.world_epoch)?;
    let mut replay_log = ReplayLog::new();
    let mut products: Vec<VirtualId> = Vec::new();
    for event in &plan.events {
        let parent = match event.parent {
            FreshParent::World => world_vid,
            FreshParent::Product(index) => products.get(index).copied().ok_or_else(|| {
                MpiError::Internal("fresh-rank synthesis plan references a later product".into())
            })?,
        };
        let vid = translator.insert_with(HandleKind::Comm, None, |vid, seq| {
            let mut descriptor = blank_descriptor(HandleKind::Comm, PhysHandle::NULL);
            descriptor.vid = vid;
            descriptor.creation_seq = seq;
            descriptor.members_world = Some(full_new.clone());
            descriptor
        });
        products.push(vid);
        if event.freed {
            // The event must still be replayed (collective alignment) under a vid no
            // live descriptor answers to; table indexes are never reused, so
            // insert-then-remove mints exactly that.
            let _ = translator.remove(vid);
        } else {
            replay_epoch(&mut collectives, vid, event.epoch)?;
        }
        let recipe = match &event.create_members {
            Some(members) => CreationRecipe::CommCreate {
                parent,
                members_world: members.clone(),
            },
            None => CreationRecipe::CommDup { parent },
        };
        replay_log.push(ReplayEvent {
            recipe,
            vid: Some(vid),
            freed: event.freed,
        });
    }
    Ok(RestoredUpper {
        translator,
        replay_log,
        collectives,
        buffered: Vec::new(),
        counters: DrainCounters::new(new_world),
        upper: UpperHalfSpace::new(),
    })
}

/// Replay `epoch` completed collectives on `comm` into a fresh ledger, so its
/// published sequence number matches the adopting ranks'.
fn replay_epoch(log: &mut CollectiveLog, comm: VirtualId, epoch: u64) -> MpiResult<()> {
    for _ in 0..epoch {
        let seq = log.begin(comm, CollectiveKind::Barrier)?;
        log.complete(comm, seq)?;
    }
    Ok(())
}
