//! Restart: rebuild a rank from its checkpoint image on top of a *fresh* lower half.
//!
//! The fresh lower half may be a new session of the same MPI implementation or — since
//! nothing below the wrapper layer is recorded in the image — a different
//! implementation altogether (the cross-implementation restart the paper's §9 sets as
//! future work; this reproduction supports it for applications that stay within the
//! shared feature subset). Either way, all physical handles and constant addresses in
//! the new lower half differ from the ones in force when the checkpoint was taken, and
//! the job of this module is to make that invisible to the application:
//!
//! 1. Deserialize MANA's state (descriptor table, replay log, drained-message buffer,
//!    drain counters) out of the image's upper half.
//! 2. Re-resolve every predefined object against the new lower half and rebind its
//!    descriptor (paper §4.3 — constants are functions, not stable values).
//! 3. Replay the object-creation log in order, making collective calls where the
//!    original creation was collective, and rebind each surviving descriptor to the
//!    newly created physical handle (paper §4.2).
//! 4. Hand back a [`ManaRank`] whose virtual ids — including any the application has
//!    stored inside its own (restored) data structures — are valid again.
//!
//! This module is the per-rank seam: [`dismantle_image`] performs step 1 and
//! [`assemble_rank`] steps 2–4. The job-level restart — choosing the generation,
//! mapping the checkpointed ranks onto the new world, running every rank's assembly
//! — is the restart engine in `crates/elastic`, which every restart goes through.
//! All ranks of the job must be assembled concurrently (each with its own lower half
//! from the same freshly launched job), because step 3 replays collective
//! communicator-creation calls.

use crate::ckpt::{regions, EncodedRegions};
use crate::config::ManaConfig;
use crate::record::{CollectiveLog, CreationRecipe, ReplayLog};
use crate::runtime::{BufferedMessage, DrainCounters, ManaRank, Translator};
use crate::virtid::VirtualId;
use mpi_model::api::MpiApi;
use mpi_model::constants::{ConstantResolution, PredefinedObject};
use mpi_model::datatype::TypeDescriptor;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpi_model::types::{PhysHandle, Rank};
use parking_lot::RwLock;
use split_proc::address_space::UpperHalfSpace;
use split_proc::crossing::CrossingCounter;
use split_proc::image::CheckpointImage;
use std::collections::HashMap;
use std::sync::Arc;

/// One rank's MANA state as recovered from a checkpoint image, before it is bound to
/// any lower half: the deserialized descriptor table, replay log, drained-message
/// buffer, drain counters and collective ledger, plus the application's upper half
/// with the MANA-internal regions already unmapped.
///
/// This is the seam the restart engine edits through: `crates/elastic` dismantles
/// every image of a generation, rewrites memberships, counters and replay logs
/// through its rank map when the world is resized, and hands the state back to
/// [`assemble_rank`]. Under the identity map it passes straight through.
#[derive(Debug, Clone)]
pub struct RestoredUpper {
    /// The virtual-id translator (physical bindings already cleared).
    pub translator: Translator,
    /// The object-creation replay log.
    pub replay_log: ReplayLog,
    /// The collective-progress ledger, pending record included: the caller decides
    /// whether to clear it (same-size restart) or reject it (resize).
    pub collectives: CollectiveLog,
    /// Messages drained from the network at checkpoint time.
    pub buffered: Vec<BufferedMessage>,
    /// Per-peer send/receive counters.
    pub counters: DrainCounters,
    /// The application's upper half (MANA regions unmapped).
    pub upper: UpperHalfSpace,
}

/// Take a checkpoint image apart into the MANA state it carries.
///
/// Physical bindings recorded before the checkpoint are cleared (they have no meaning
/// in any new session); the pending collective record, if any, is **kept** — a
/// same-size restart clears it, a resize rejects it.
pub fn dismantle_image(image: CheckpointImage) -> MpiResult<RestoredUpper> {
    let mut upper = image.upper_half;
    let mut translator: Translator = upper.load_json(regions::TRANSLATOR)?;
    let replay_log: ReplayLog = upper.load_json(regions::REPLAY_LOG)?;
    let buffered: Vec<BufferedMessage> = upper.load_json(regions::BUFFERED)?;
    let counters: DrainCounters = upper.load_json(regions::COUNTERS)?;
    let collectives: CollectiveLog = upper.load_json(regions::COLLECTIVES)?;
    for region in regions::ALL {
        let _ = upper.unmap_region(region);
    }
    // No physical handle recorded before the checkpoint has any meaning now.
    translator.clear_physical_bindings();
    Ok(RestoredUpper {
        translator,
        replay_log,
        collectives,
        buffered,
        counters,
        upper,
    })
}

/// Bind recovered (and possibly remapped) MANA state to a fresh lower half: rebind
/// every predefined object, replay the creation log — making collective calls where
/// the original creation was collective.
///
/// Collective across the job: every rank of the new world must call this concurrently
/// with lower halves from a single `launch`. `generation` is the generation the
/// rebuilt rank will checkpoint *next* (the restored generation plus one).
pub fn assemble_rank(
    lower: Box<dyn MpiApi>,
    restored: RestoredUpper,
    config: ManaConfig,
    registry: Arc<RwLock<UserFunctionRegistry>>,
    generation: u64,
) -> MpiResult<ManaRank> {
    if config.virtid_mode == crate::config::VirtIdMode::LegacyMaps
        && lower.constant_resolution() != ConstantResolution::CompileTimeInteger
    {
        return Err(MpiError::Unsupported {
            feature: "legacy integer virtual ids on a non-MPICH-family MPI implementation",
        });
    }
    let RestoredUpper {
        translator,
        replay_log,
        collectives,
        buffered,
        counters,
        mut upper,
    } = restored;
    // The restored upper half *is* the checkpoint: mark it clean and advance its
    // epoch past the image's, so the next incremental checkpoint diffs against the
    // generation we are restoring from.
    upper.mark_clean();
    upper.advance_epoch();

    let world_rank = lower.world_rank();
    let world_size = lower.world_size();
    let registration_supported = lower
        .provided_features()
        .contains(&mpi_model::subset::SubsetFeature::CollectiveRegistration);
    let mut rank = ManaRank {
        lower,
        config,
        translator,
        replay_log,
        collectives,
        buffered,
        counters,
        crossings: CrossingCounter::new(),
        upper,
        encoded: EncodedRegions::default(),
        registry,
        world_rank,
        world_size,
        generation,
        registration_supported,
        intercept: None,
    };

    rebind_predefined(&mut rank)?;
    replay_creations(&mut rank)?;
    Ok(rank)
}

/// Step 2: re-resolve every predefined object and rebind its descriptor.
fn rebind_predefined(rank: &mut ManaRank) -> MpiResult<()> {
    let predefined: Vec<(VirtualId, PredefinedObject)> = rank
        .translator
        .iter_in_creation_order()
        .iter()
        .filter_map(|d| d.predefined.map(|p| (d.vid, p)))
        .collect();
    for (vid, object) in predefined {
        rank.cross();
        let phys = rank.lower.resolve_constant(object)?;
        rank.translator.rebind(vid, phys)?;
    }
    Ok(())
}

/// Step 3: replay the creation log against the fresh lower half.
fn replay_creations(rank: &mut ManaRank) -> MpiResult<()> {
    // Physical handles of everything replayed so far (including objects that were
    // freed before the checkpoint: they are still re-created to keep collective calls
    // aligned across ranks, they are simply never rebound to a live descriptor).
    let mut scratch: HashMap<VirtualId, PhysHandle> = HashMap::new();
    let events: Vec<_> = rank.replay_log.events().to_vec();
    for event in events {
        let phys = match &event.recipe {
            CreationRecipe::Predefined(object) => {
                rank.cross();
                Some(rank.lower.resolve_constant(*object)?)
            }
            CreationRecipe::CommDup { parent } => {
                let parent_phys = resolve(rank, &scratch, *parent)?;
                rank.cross();
                Some(rank.lower.comm_dup(parent_phys)?)
            }
            CreationRecipe::CommSplit { parent, color, key } => {
                let parent_phys = resolve(rank, &scratch, *parent)?;
                rank.cross();
                let result = rank.lower.comm_split(parent_phys, *color, *key)?;
                if color.is_some() {
                    Some(result)
                } else {
                    None
                }
            }
            CreationRecipe::CommCreate {
                parent,
                members_world,
            } => {
                let parent_phys = resolve(rank, &scratch, *parent)?;
                // Rebuild the member group in terms of the parent communicator's group.
                let parent_members = rank
                    .translator
                    .get(*parent)
                    .ok()
                    .and_then(|d| d.members_world.clone())
                    .unwrap_or_else(|| (0..rank.world_size as Rank).collect());
                let group_ranks: Vec<Rank> = members_world
                    .iter()
                    .map(|world| {
                        parent_members
                            .iter()
                            .position(|m| m == world)
                            .map(|p| p as Rank)
                            .ok_or_else(|| {
                                MpiError::Checkpoint(
                                    "comm_create member not found in parent communicator".into(),
                                )
                            })
                    })
                    .collect::<MpiResult<_>>()?;
                rank.cross();
                let parent_group = rank.lower.comm_group(parent_phys)?;
                rank.cross();
                let subgroup = rank.lower.group_incl(parent_group, &group_ranks)?;
                rank.cross();
                let new_comm = rank.lower.comm_create(parent_phys, subgroup)?;
                rank.cross();
                rank.lower.group_free(subgroup)?;
                rank.cross();
                rank.lower.group_free(parent_group)?;
                if members_world.contains(&rank.world_rank) {
                    Some(new_comm)
                } else {
                    None
                }
            }
            CreationRecipe::GroupFromComm { comm } => {
                let comm_phys = resolve(rank, &scratch, *comm)?;
                rank.cross();
                Some(rank.lower.comm_group(comm_phys)?)
            }
            CreationRecipe::GroupIncl { parent, ranks } => {
                let parent_phys = resolve(rank, &scratch, *parent)?;
                rank.cross();
                Some(rank.lower.group_incl(parent_phys, ranks)?)
            }
            CreationRecipe::DerivedDatatype {
                descriptor,
                committed,
            } => {
                let phys = build_datatype(rank, descriptor)?;
                if *committed {
                    rank.cross();
                    rank.lower.type_commit(phys)?;
                }
                Some(phys)
            }
            CreationRecipe::UserOp {
                func_id,
                commutative,
            } => {
                rank.cross();
                Some(rank.lower.op_create(*func_id, *commutative)?)
            }
        };
        if let (Some(vid), Some(phys)) = (event.vid, phys) {
            scratch.insert(vid, phys);
            if !event.freed && rank.translator.get(vid).is_ok() {
                rank.translator.rebind(vid, phys)?;
            }
        }
    }
    Ok(())
}

/// Resolve the physical handle for a virtual id during replay: prefer objects replayed
/// earlier in this pass, then predefined/live descriptors already rebound.
fn resolve(
    rank: &ManaRank,
    scratch: &HashMap<VirtualId, PhysHandle>,
    vid: VirtualId,
) -> MpiResult<PhysHandle> {
    if let Some(&phys) = scratch.get(&vid) {
        return Ok(phys);
    }
    let phys = rank.translator.virtual_to_physical(vid)?;
    if phys.is_null() {
        return Err(MpiError::Checkpoint(format!(
            "replay referenced {vid} before it was re-created"
        )));
    }
    Ok(phys)
}

/// Rebuild a derived datatype in the lower half from its structural description
/// (the information `MPI_Type_get_envelope` / `MPI_Type_get_contents` decode to).
fn build_datatype(rank: &mut ManaRank, descriptor: &TypeDescriptor) -> MpiResult<PhysHandle> {
    match descriptor {
        TypeDescriptor::Primitive(p) => {
            rank.cross();
            rank.lower.resolve_constant(PredefinedObject::Datatype(*p))
        }
        TypeDescriptor::Dup(inner) => {
            let inner_phys = build_datatype(rank, inner)?;
            rank.cross();
            rank.lower.type_dup(inner_phys)
        }
        TypeDescriptor::Contiguous { count, inner } => {
            let inner_phys = build_datatype(rank, inner)?;
            rank.cross();
            rank.lower.type_contiguous(*count, inner_phys)
        }
        TypeDescriptor::Vector {
            count,
            block_length,
            stride,
            inner,
        } => {
            let inner_phys = build_datatype(rank, inner)?;
            rank.cross();
            rank.lower
                .type_vector(*count, *block_length, *stride, inner_phys)
        }
        TypeDescriptor::Indexed {
            block_lengths,
            displacements,
            inner,
        } => {
            let inner_phys = build_datatype(rank, inner)?;
            rank.cross();
            rank.lower
                .type_indexed(block_lengths, displacements, inner_phys)
        }
        TypeDescriptor::Struct {
            block_lengths,
            byte_displacements,
            types,
        } => {
            let mut member_handles = Vec::with_capacity(types.len());
            for member in types {
                member_handles.push(build_datatype(rank, member)?);
            }
            rank.cross();
            rank.lower
                .type_create_struct(block_lengths, byte_displacements, &member_handles)
        }
    }
}
