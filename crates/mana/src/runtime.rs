//! The per-rank MANA runtime: the object an application links against in place of the
//! MPI library.
//!
//! A [`ManaRank`] owns one rank's *lower half* (a `Box<dyn MpiApi>` — any simulated MPI
//! implementation), its virtual-id state (unified table or legacy maps, per
//! configuration), the replay log, the upper-half address space the application's state
//! lives in, and the drain bookkeeping needed at checkpoint time. The application calls
//! the wrapper methods defined in [`crate::wrappers`]; every wrapped call translates
//! virtual ids to physical handles, crosses into the lower half exactly once (counted),
//! and translates any returned handles back. The one exception is a collective on a
//! rank with a mid-step intercept, which crosses once more for its registration round
//! (and again for each look at the intercept while it waits).

use crate::ckpt::{CheckpointIntercept, EncodedRegions};
use crate::config::{ManaConfig, VirtIdMode};
use crate::legacy::LegacyTables;
use crate::record::{CollectiveLog, ReplayLog};
use crate::virtid::{Descriptor, VirtualId, VirtualIdTable};
use mpi_model::api::MpiApi;
use mpi_model::constants::{ConstantResolution, PredefinedObject};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpi_model::payload::PayloadBuf;
use mpi_model::subset::SubsetFeature;
use mpi_model::types::{HandleKind, PhysHandle, Rank, Tag};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use split_proc::address_space::UpperHalfSpace;
use split_proc::crossing::CrossingCounter;
use std::sync::Arc;

/// Magic pattern stored in the upper 32 bits of an [`AppHandle`], standing in for the
/// remaining bytes of whatever handle type the MPI implementation's `mpi.h` declares.
pub(crate) const APP_HANDLE_MAGIC: u64 = 0x4D41_4E41_0000_0000; // "MANA" << 32

/// The handle type the *application* sees.
///
/// Paper §4.2: "MANA embeds its virtual id (the 32-bit integer) into the first 4 bytes
/// of the MPI object type declared by the MPI include file." Whether that type is a
/// 32-bit `int` (MPICH family) or a 64-bit pointer (Open MPI, ExaMPI), the first 32
/// bits carry the virtual id; here the remaining 32 bits hold a fixed magic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AppHandle(pub u64);

impl AppHandle {
    /// Wrap a virtual id into an application-visible handle.
    pub(crate) fn from_virtual(vid: VirtualId) -> Self {
        AppHandle(APP_HANDLE_MAGIC | vid.bits() as u64)
    }

    /// Recover the embedded virtual id.
    pub(crate) fn virtual_id(self) -> MpiResult<VirtualId> {
        VirtualId::from_bits(self.0 as u32).ok_or_else(|| {
            MpiError::Internal(format!(
                "application handle {:#x} does not carry a MANA virtual id",
                self.0
            ))
        })
    }

    /// The null application handle (no object).
    pub const NULL: AppHandle = AppHandle(0);

    /// Whether this is the null handle.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// A point-to-point message drained out of the network at checkpoint time and buffered
/// in the upper half until the application asks for it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferedMessage {
    /// Virtual id of the communicator the message was sent on.
    pub comm: VirtualId,
    /// Sender's rank within that communicator.
    pub source: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload bytes. A refcounted [`PayloadBuf`]: buffering a drained message
    /// keeps sharing the allocation the sender injected, and it serializes into
    /// the checkpoint image exactly like the `Vec<u8>` it replaced.
    pub payload: PayloadBuf,
}

/// Either virtual-id data structure, behind one dispatching facade so the wrapper layer
/// is identical in both modes (only the translation cost differs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Translator {
    /// The new unified descriptor table (paper §4.2).
    Unified(VirtualIdTable),
    /// The legacy per-type string-keyed maps (paper §4.1).
    Legacy(LegacyTables),
}

impl Translator {
    /// Create an empty translator of the configured kind.
    pub fn new(mode: VirtIdMode) -> Self {
        match mode {
            VirtIdMode::UnifiedTable => Translator::Unified(VirtualIdTable::new()),
            VirtIdMode::LegacyMaps => Translator::Legacy(LegacyTables::new()),
        }
    }

    /// Insert a descriptor, assigning a fresh virtual id.
    pub fn insert_with(
        &mut self,
        kind: HandleKind,
        predefined: Option<PredefinedObject>,
        build: impl FnMut(VirtualId, u64) -> Descriptor,
    ) -> VirtualId {
        match self {
            Translator::Unified(t) => t.insert_with(kind, predefined, build),
            Translator::Legacy(t) => t.insert_with(kind, predefined, build),
        }
    }

    /// Borrow a descriptor.
    pub fn get(&self, vid: VirtualId) -> MpiResult<&Descriptor> {
        match self {
            Translator::Unified(t) => t.get(vid),
            Translator::Legacy(t) => t.get(vid),
        }
    }

    /// Mutably borrow a descriptor.
    pub fn get_mut(&mut self, vid: VirtualId) -> MpiResult<&mut Descriptor> {
        match self {
            Translator::Unified(t) => t.get_mut(vid),
            Translator::Legacy(t) => t.get_mut(vid),
        }
    }

    /// Remove a descriptor.
    pub fn remove(&mut self, vid: VirtualId) -> MpiResult<Descriptor> {
        match self {
            Translator::Unified(t) => t.remove(vid),
            Translator::Legacy(t) => t.remove(vid),
        }
    }

    /// Hot-path virtual→physical translation.
    pub fn virtual_to_physical(&self, vid: VirtualId) -> MpiResult<PhysHandle> {
        match self {
            Translator::Unified(t) => t.virtual_to_physical(vid),
            Translator::Legacy(t) => t.virtual_to_physical(vid),
        }
    }

    /// Rebind a virtual id to a new physical handle.
    pub(crate) fn rebind(&mut self, vid: VirtualId, phys: PhysHandle) -> MpiResult<()> {
        match self {
            Translator::Unified(t) => t.rebind(vid, phys),
            Translator::Legacy(t) => t.rebind(vid, phys),
        }
    }

    /// Drop all physical bindings.
    pub(crate) fn clear_physical_bindings(&mut self) {
        match self {
            Translator::Unified(t) => t.clear_physical_bindings(),
            Translator::Legacy(t) => t.clear_physical_bindings(),
        }
    }

    /// Live descriptors in creation order.
    pub fn iter_in_creation_order(&self) -> Vec<&Descriptor> {
        match self {
            Translator::Unified(t) => t.iter_in_creation_order(),
            Translator::Legacy(t) => t.iter_in_creation_order(),
        }
    }

    /// Virtual id registered for a predefined object, if any.
    pub fn find_predefined(&self, object: PredefinedObject) -> Option<VirtualId> {
        match self {
            Translator::Unified(t) => t.find_predefined(object),
            Translator::Legacy(t) => t.find_predefined(object),
        }
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        match self {
            Translator::Unified(t) => t.len(),
            Translator::Legacy(t) => t.len(),
        }
    }

    /// Whether the translator holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// MANA's per-rank drain bookkeeping, serialized into the checkpoint image so the
/// counters stay consistent if a job checkpoints more than once.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainCounters {
    /// Point-to-point messages sent to each world rank since job start.
    pub sent_to: Vec<u64>,
    /// Point-to-point messages received from each world rank since job start.
    pub received_from: Vec<u64>,
}

impl DrainCounters {
    /// Zeroed counters for a world of `world_size` ranks.
    pub fn new(world_size: usize) -> Self {
        DrainCounters {
            sent_to: vec![0; world_size],
            received_from: vec![0; world_size],
        }
    }
}

/// The per-rank MANA runtime.
pub struct ManaRank {
    pub(crate) lower: Box<dyn MpiApi>,
    pub(crate) config: ManaConfig,
    pub(crate) translator: Translator,
    pub(crate) replay_log: ReplayLog,
    pub(crate) collectives: CollectiveLog,
    pub(crate) buffered: Vec<BufferedMessage>,
    pub(crate) counters: DrainCounters,
    pub(crate) crossings: CrossingCounter,
    pub(crate) upper: UpperHalfSpace,
    /// The last encoding of each MANA region, reused by a freeze that finds its
    /// state unchanged.
    pub(crate) encoded: EncodedRegions,
    pub(crate) registry: Arc<RwLock<UserFunctionRegistry>>,
    pub(crate) world_rank: Rank,
    pub(crate) world_size: usize,
    pub(crate) generation: u64,
    /// Whether the lower half supports the registration phase of the two-phase
    /// collective protocol (cached from its feature list at construction).
    pub(crate) registration_supported: bool,
    /// The mid-step checkpoint hook, if an orchestrator installed one: collective
    /// wrappers consult it at their registration-phase safe points (before
    /// registering and while waiting for the round — never inside the critical
    /// phase).
    pub(crate) intercept: Option<Arc<dyn CheckpointIntercept>>,
}

impl std::fmt::Debug for ManaRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManaRank")
            .field("implementation", &self.lower.implementation_name())
            .field("world_rank", &self.world_rank)
            .field("world_size", &self.world_size)
            .field("virtid_mode", &self.config.virtid_mode)
            .field("descriptors", &self.translator.len())
            .field("generation", &self.generation)
            .finish()
    }
}

impl ManaRank {
    /// Wrap a lower half in the MANA runtime.
    ///
    /// Fails if the configuration asks for the legacy integer virtual ids while the
    /// lower half is an implementation whose constants are not stable compile-time
    /// integers — exactly the combination the paper shows the legacy design cannot
    /// support (Open MPI's pointer handles, ExaMPI's lazy constants).
    pub fn new(
        lower: Box<dyn MpiApi>,
        config: ManaConfig,
        registry: Arc<RwLock<UserFunctionRegistry>>,
    ) -> MpiResult<Self> {
        if config.virtid_mode == VirtIdMode::LegacyMaps
            && lower.constant_resolution() != ConstantResolution::CompileTimeInteger
        {
            return Err(MpiError::Unsupported {
                feature: "legacy integer virtual ids on a non-MPICH-family MPI implementation",
            });
        }
        let world_rank = lower.world_rank();
        let world_size = lower.world_size();
        let registration_supported = lower
            .provided_features()
            .contains(&SubsetFeature::CollectiveRegistration);
        Ok(ManaRank {
            lower,
            config,
            translator: Translator::new(config.virtid_mode),
            replay_log: ReplayLog::new(),
            collectives: CollectiveLog::new(),
            buffered: Vec::new(),
            counters: DrainCounters::new(world_size),
            crossings: CrossingCounter::new(),
            upper: UpperHalfSpace::new(),
            encoded: EncodedRegions::default(),
            registry,
            world_rank,
            world_size,
            generation: 0,
            registration_supported,
            intercept: None,
        })
    }

    /// World rank of this process.
    pub fn world_rank(&self) -> Rank {
        self.world_rank
    }

    /// Number of ranks in the job.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Name of the MPI implementation currently loaded in the lower half.
    pub fn implementation_name(&self) -> &'static str {
        self.lower.implementation_name()
    }

    /// The MANA configuration in force.
    pub fn config(&self) -> ManaConfig {
        self.config
    }

    /// Number of upper↔lower crossings (wrapped MPI calls forwarded to the lower half)
    /// performed so far — the quantity §6.3 of the paper measures per application.
    pub fn crossings(&self) -> u64 {
        self.crossings.total()
    }

    /// Number of live virtual-id descriptors.
    pub fn descriptor_count(&self) -> usize {
        self.translator.len()
    }

    /// Number of drained messages currently buffered in the upper half.
    pub fn buffered_messages(&self) -> usize {
        self.buffered.len()
    }

    /// The checkpoint generation this rank is on (number of checkpoints taken).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number this rank's next checkpoint `generation`. A fresh rank starts at 0; one
    /// launched over a store that already holds generations starts past them.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Shared registry of user reduction functions.
    pub fn registry(&self) -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::clone(&self.registry)
    }

    /// The upper-half ledger of collective progress (published sequence numbers and
    /// the at-most-one pending registration).
    pub fn collective_log(&self) -> &CollectiveLog {
        &self.collectives
    }

    /// Install a mid-step checkpoint hook: collective wrappers will consult it at
    /// their safe points and service pending checkpoint intents through it.
    ///
    /// The hook also switches this rank's collectives onto the registration round of
    /// the two-phase protocol (without one, a collective is a single crossing), so
    /// install one on every rank of the world before the world's first collective.
    /// In a world whose ranks disagree, the ranks with a hook wait for a
    /// registration that the ranks without one never make: no round ever commits,
    /// and the collective fails with the lower half's blocking-timeout error.
    pub fn set_intercept(&mut self, intercept: Arc<dyn CheckpointIntercept>) {
        self.intercept = Some(intercept);
    }

    /// Whether this rank's collectives run the registration round of the two-phase
    /// protocol: only where the lower half offers it *and* an intercept is
    /// installed. The round exists so that a checkpoint intent can be serviced
    /// inside a collective wrapper, and only an intercept services one there; a rank
    /// without one is checkpointed at step boundaries, outside every collective, so
    /// the round would buy nothing for its extra crossing, board lock and
    /// rendezvous.
    pub(crate) fn runs_registration_round(&self) -> bool {
        self.registration_supported && self.intercept.is_some()
    }

    /// Read-only view of the application's upper-half address space.
    pub fn upper(&self) -> &UpperHalfSpace {
        &self.upper
    }

    /// Mutable view of the application's upper-half address space. Application state
    /// stored here (and only here) survives checkpoints.
    pub fn upper_mut(&mut self) -> &mut UpperHalfSpace {
        &mut self.upper
    }

    /// Audit the currently loaded lower half for the required MANA subset.
    pub fn audit_lower_half(&self) -> crate::subset_check::ManaCompatibility {
        crate::subset_check::audit_api(self.lower.as_ref())
    }

    // ------------------------------------------------------------------
    // Internal helpers shared by the wrapper/checkpoint/restart modules
    // ------------------------------------------------------------------

    /// Record one crossing into the lower half.
    pub(crate) fn cross(&self) {
        self.crossings.record();
    }

    /// Translate an application handle to the descriptor's current physical handle.
    pub(crate) fn phys(&self, handle: AppHandle, expected: HandleKind) -> MpiResult<PhysHandle> {
        let vid = handle.virtual_id()?;
        if vid.kind() != expected {
            return Err(MpiError::WrongKind {
                expected,
                found: vid.kind(),
            });
        }
        self.translator.virtual_to_physical(vid)
    }

    /// Resolve (or lazily enter) the virtual id for a predefined object and return the
    /// application handle for it.
    pub fn constant(&mut self, object: PredefinedObject) -> MpiResult<AppHandle> {
        if let Some(vid) = self.translator.find_predefined(object) {
            return Ok(AppHandle::from_virtual(vid));
        }
        self.cross();
        let phys = self.lower.resolve_constant(object)?;
        let members = match object {
            PredefinedObject::CommWorld => Some((0..self.world_size as Rank).collect::<Vec<_>>()),
            PredefinedObject::CommSelf => Some(vec![self.world_rank]),
            PredefinedObject::GroupEmpty => Some(vec![]),
            _ => None,
        };
        let datatype = match object {
            PredefinedObject::Datatype(p) => {
                Some(mpi_model::datatype::TypeDescriptor::Primitive(p))
            }
            _ => None,
        };
        let op = match object {
            PredefinedObject::Op(o) => Some(mpi_model::op::OpDescriptor::Predefined(o)),
            _ => None,
        };
        let kind = object.kind();
        let vid = self.translator.insert_with(kind, Some(object), |vid, seq| {
            let mut d = crate::virtid::blank_descriptor(kind, phys);
            d.vid = vid;
            d.creation_seq = seq;
            d.predefined = Some(object);
            d.members_world = members.clone();
            d.datatype = datatype.clone();
            d.op = op;
            d
        });
        Ok(AppHandle::from_virtual(vid))
    }

    /// Convenience: the application handle for `MPI_COMM_WORLD`.
    pub fn world(&mut self) -> MpiResult<AppHandle> {
        self.constant(PredefinedObject::CommWorld)
    }

    /// The world rank of `peer` (a rank within the communicator `comm`).
    pub(crate) fn peer_world_rank(&self, comm: VirtualId, peer: Rank) -> MpiResult<Rank> {
        let descriptor = self.translator.get(comm)?;
        let members = descriptor
            .members_world
            .as_ref()
            .ok_or_else(|| MpiError::Internal("communicator descriptor without members".into()))?;
        members
            .get(peer.max(0) as usize)
            .copied()
            .ok_or(MpiError::InvalidRank {
                rank: peer,
                size: members.len(),
            })
    }

    /// Position of the earliest buffered (drained) message matching the receive
    /// arguments, without consuming it.
    pub(crate) fn buffered_position(
        &self,
        comm: VirtualId,
        source: Rank,
        tag: Tag,
    ) -> Option<usize> {
        use mpi_model::types::{ANY_SOURCE, ANY_TAG};
        self.buffered.iter().position(|m| {
            m.comm == comm
                && (source == ANY_SOURCE || m.source == source)
                && (tag == ANY_TAG || m.tag == tag)
        })
    }

    /// Take the earliest buffered (drained) message matching the receive arguments,
    /// refusing — with the message left buffered, so a larger retry still receives
    /// it — when it does not fit in `max_bytes`. `Ok(None)` means nothing matches.
    pub(crate) fn take_buffered_checked(
        &mut self,
        comm: VirtualId,
        source: Rank,
        tag: Tag,
        max_bytes: usize,
    ) -> MpiResult<Option<(mpi_model::status::Status, PayloadBuf)>> {
        let Some(position) = self.buffered_position(comm, source, tag) else {
            return Ok(None);
        };
        let message_bytes = self.buffered[position].payload.len();
        if message_bytes > max_bytes {
            return Err(MpiError::Truncate {
                message_bytes,
                buffer_bytes: max_bytes,
            });
        }
        let message = self.buffered.remove(position);
        let status = mpi_model::status::Status::new(message.source, message.tag, message_bytes);
        Ok(Some((status, message.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_engine::Backend;

    fn registry() -> Arc<RwLock<UserFunctionRegistry>> {
        Arc::new(RwLock::new(UserFunctionRegistry::new()))
    }

    #[test]
    fn app_handle_embeds_virtual_id() {
        let vid = VirtualId::new(HandleKind::Comm, true, 7);
        let handle = AppHandle::from_virtual(vid);
        assert_eq!(handle.virtual_id().unwrap(), vid);
        assert_eq!(handle.0 >> 32, APP_HANDLE_MAGIC >> 32);
        assert!(AppHandle::NULL.is_null());
        assert!(!handle.is_null());
    }

    #[test]
    fn legacy_mode_rejected_on_openmpi_but_accepted_on_mpich() {
        let reg = registry();
        let mut openmpi = Backend::OpenMpi.launch(1, reg.clone(), 1).unwrap().0;
        let err = ManaRank::new(openmpi.remove(0), ManaConfig::legacy_design(), reg.clone())
            .expect_err("legacy ids cannot serve Open MPI");
        assert!(matches!(err, MpiError::Unsupported { .. }));

        let mut mpich = Backend::Mpich.launch(1, reg.clone(), 1).unwrap().0;
        assert!(ManaRank::new(mpich.remove(0), ManaConfig::legacy_design(), reg).is_ok());
    }

    #[test]
    fn constants_are_cached_and_kinds_checked() {
        let reg = registry();
        let mut ranks = Backend::Mpich.launch(1, reg.clone(), 1).unwrap().0;
        let mut mana = ManaRank::new(ranks.remove(0), ManaConfig::new_design(), reg).unwrap();
        let a = mana.world().unwrap();
        let b = mana.world().unwrap();
        assert_eq!(
            a, b,
            "constant resolution is cached in the descriptor table"
        );
        assert_eq!(mana.descriptor_count(), 1);
        // Passing a communicator where a datatype is expected fails with WrongKind.
        let err = mana.phys(a, HandleKind::Datatype).unwrap_err();
        assert!(matches!(err, MpiError::WrongKind { .. }));
        assert!(mana.audit_lower_half().compatible());
    }
}
