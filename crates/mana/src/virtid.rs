//! The new virtual-id subsystem (paper §4.2).
//!
//! A [`VirtualId`] is a 32-bit integer that MANA hands to the application in place of
//! the implementation's physical handle. Its bit layout encodes the object kind (3
//! bits), a predefined-object flag (1 bit), and a 28-bit index into a single unified
//! table of [`Descriptor`] structs. The descriptor stores the current physical handle
//! (whatever width the lower half uses — the 64-bit [`PhysHandle`] covers `int`
//! handles, struct pointers and enum discriminants alike) together with the
//! MANA-internal metadata needed at checkpoint and restart time: the ggid and
//! membership of communicators and groups, the structural description of datatypes,
//! the registration parameters of user ops, and the progress record of requests.
//!
//! Compared with the legacy design (one string-keyed map per object type, see
//! [`crate::legacy`]), the unified table gives:
//!
//! * a single integer-indexed lookup on the virtual→physical path (no string
//!   comparisons, no per-type map dispatch),
//! * all metadata co-located with the translation entry, so one lookup serves a whole
//!   wrapper call.

use mpi_model::comm::ggid_of_members;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::TypeDescriptor;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::OpDescriptor;
use mpi_model::request::RequestRecord;
use mpi_model::types::{HandleKind, PhysHandle, Rank};
use serde::{Deserialize, Serialize};

/// Number of bits reserved for the table index / ggid portion of a virtual id.
pub(crate) const INDEX_BITS: u32 = 28;
/// Mask selecting the index bits.
pub(crate) const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
/// Bit position of the predefined flag.
const PREDEF_SHIFT: u32 = INDEX_BITS; // 28
/// Bit position of the 3-bit kind field.
const KIND_SHIFT: u32 = INDEX_BITS + 1; // 29

/// A 32-bit MANA virtual id.
///
/// This is the value MANA embeds "into the first 4 bytes of the MPI object type
/// declared by the MPI include file" (paper §4.2); see [`crate::runtime::AppHandle`]
/// for the embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VirtualId(u32);

impl VirtualId {
    /// Build a virtual id from its fields.
    pub fn new(kind: HandleKind, predefined: bool, index: u32) -> Self {
        debug_assert!(index <= INDEX_MASK, "virtual-id index overflow");
        VirtualId(
            (kind.tag() << KIND_SHIFT)
                | (u32::from(predefined) << PREDEF_SHIFT)
                | (index & INDEX_MASK),
        )
    }

    /// The raw 32-bit value.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw 32-bit value, validating the kind bits.
    pub fn from_bits(bits: u32) -> Option<Self> {
        HandleKind::from_tag(bits >> KIND_SHIFT)?;
        Some(VirtualId(bits))
    }

    /// The object kind encoded in the id.
    #[expect(
        clippy::expect_used,
        reason = "provable invariant — every constructor (new/from_bits) validates the kind tag, and the field is private"
    )]
    pub fn kind(self) -> HandleKind {
        HandleKind::from_tag(self.0 >> KIND_SHIFT).expect("kind bits validated at construction")
    }

    /// Whether the id names a predefined object.
    pub(crate) fn is_predefined(self) -> bool {
        (self.0 >> PREDEF_SHIFT) & 1 == 1
    }

    /// The 28-bit table index (or ggid-derived index).
    pub fn index(self) -> u32 {
        self.0 & INDEX_MASK
    }
}

/// Virtual ids key the per-communicator maps of the collective ledger
/// ([`crate::record::CollectiveLog`]), which is serialized into every checkpoint
/// image — so they must round-trip as JSON object keys.
impl serde::MapKey for VirtualId {
    fn to_key(&self) -> String {
        self.bits().to_string()
    }

    fn from_key(key: &str) -> Result<Self, serde::Error> {
        let bits: u32 = key
            .parse()
            .map_err(|_| serde::Error::custom(format!("invalid virtual-id map key {key:?}")))?;
        VirtualId::from_bits(bits)
            .ok_or_else(|| serde::Error::custom(format!("map key {key:?} is not a virtual id")))
    }
}

impl std::fmt::Display for VirtualId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "virt:{}:{}{}",
            self.kind().mpi_type_name(),
            self.index(),
            if self.is_predefined() { ":predef" } else { "" }
        )
    }
}

/// The MANA-internal structure behind one virtual id (paper §4.2: "Each virtual id in
/// the new design is represented by a structure ... containing additional MANA-specific
/// information associated with that MPI object").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Descriptor {
    /// The virtual id this descriptor belongs to.
    pub vid: VirtualId,
    /// Object kind (duplicated from the vid for convenience).
    pub kind: HandleKind,
    /// The *current* physical handle in the lower half. Refreshed at restart; never
    /// meaningful across sessions.
    pub phys: PhysHandle,
    /// If this descriptor stands for a predefined object, which one.
    pub predefined: Option<PredefinedObject>,
    /// Global group id for communicators and groups (paper §4.2). Computed when the
    /// descriptor is inserted with its members.
    pub ggid: Option<u32>,
    /// For communicators and groups: the member world ranks in rank order.
    pub members_world: Option<Vec<Rank>>,
    /// For datatypes: the structural description (also the restart recipe).
    pub datatype: Option<TypeDescriptor>,
    /// For ops: the reduction description.
    pub op: Option<OpDescriptor>,
    /// For requests: the progress record.
    pub request: Option<RequestRecord>,
    /// Creation order, used to replay object creation in a consistent order.
    pub creation_seq: u64,
}

impl Descriptor {
    /// Compute (or return the cached) ggid for a communicator/group descriptor.
    pub fn ggid_or_compute(&mut self) -> Option<u32> {
        if self.ggid.is_none() {
            if let Some(members) = &self.members_world {
                self.ggid = Some(ggid_of_members(members));
            }
        }
        self.ggid
    }
}

/// The unified descriptor table: the new virtual-id data structure.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VirtualIdTable {
    /// Slot `i` holds the descriptor whose vid index is `i`.
    slots: Vec<Option<Descriptor>>,
    /// Monotone creation counter. Indices are never reused, so a stale virtual id can
    /// never silently alias a newer object.
    next_index: u32,
    creation_counter: u64,
}

impl VirtualIdTable {
    /// An empty table.
    pub fn new() -> Self {
        VirtualIdTable::default()
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the table has no live descriptors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a new descriptor, assigning it a fresh virtual id.
    ///
    /// The caller provides everything except `vid` and `creation_seq`, via the
    /// `build` closure which receives the assigned vid.
    pub fn insert_with(
        &mut self,
        kind: HandleKind,
        predefined: Option<PredefinedObject>,
        mut build: impl FnMut(VirtualId, u64) -> Descriptor,
    ) -> VirtualId {
        let index = self.next_index;
        self.next_index += 1;
        let vid = VirtualId::new(kind, predefined.is_some(), index);
        let seq = self.creation_counter;
        self.creation_counter += 1;
        let mut descriptor = build(vid, seq);
        descriptor.vid = vid;
        descriptor.creation_seq = seq;
        descriptor.ggid_or_compute();
        if self.slots.len() <= index as usize {
            self.slots.resize(index as usize + 1, None);
        }
        self.slots[index as usize] = Some(descriptor);
        vid
    }

    /// Borrow the descriptor for `vid`.
    pub fn get(&self, vid: VirtualId) -> MpiResult<&Descriptor> {
        self.slots
            .get(vid.index() as usize)
            .and_then(|s| s.as_ref())
            .filter(|d| d.vid == vid)
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })
    }

    /// Mutably borrow the descriptor for `vid`.
    pub fn get_mut(&mut self, vid: VirtualId) -> MpiResult<&mut Descriptor> {
        self.slots
            .get_mut(vid.index() as usize)
            .and_then(|s| s.as_mut())
            .filter(|d| d.vid == vid)
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })
    }

    /// Remove the descriptor for `vid`.
    pub fn remove(&mut self, vid: VirtualId) -> MpiResult<Descriptor> {
        let slot = self
            .slots
            .get_mut(vid.index() as usize)
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })?;
        match slot.take() {
            Some(descriptor) if descriptor.vid == vid => Ok(descriptor),
            other => {
                *slot = other;
                Err(MpiError::InvalidHandle {
                    kind: vid.kind(),
                    handle: PhysHandle(vid.bits() as u64),
                })
            }
        }
    }

    /// Translate a virtual id to its current physical handle (the hot path of every
    /// wrapper function).
    pub fn virtual_to_physical(&self, vid: VirtualId) -> MpiResult<PhysHandle> {
        Ok(self.get(vid)?.phys)
    }

    /// Rebind a descriptor to a new physical handle (restart path).
    pub(crate) fn rebind(&mut self, vid: VirtualId, new_phys: PhysHandle) -> MpiResult<()> {
        self.get_mut(vid)?.phys = new_phys;
        Ok(())
    }

    /// Clear every physical binding (called when the lower half is discarded at
    /// checkpoint/restart, so no stale physical handle can leak across sessions).
    pub(crate) fn clear_physical_bindings(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.phys = PhysHandle::NULL;
        }
    }

    /// Iterate over live descriptors in creation order.
    pub fn iter_in_creation_order(&self) -> Vec<&Descriptor> {
        let mut live: Vec<&Descriptor> = self.slots.iter().flatten().collect();
        live.sort_by_key(|d| d.creation_seq);
        live
    }

    /// Find the virtual id of the predefined object `object`, if it has been entered.
    pub fn find_predefined(&self, object: PredefinedObject) -> Option<VirtualId> {
        self.slots
            .iter()
            .flatten()
            .find(|d| d.predefined == Some(object))
            .map(|d| d.vid)
    }
}

/// A descriptor skeleton with every optional field empty; the wrappers fill in the
/// fields relevant to the object kind.
pub fn blank_descriptor(kind: HandleKind, phys: PhysHandle) -> Descriptor {
    Descriptor {
        vid: VirtualId::new(kind, false, 0),
        kind,
        phys,
        predefined: None,
        ggid: None,
        members_world: None,
        datatype: None,
        op: None,
        request: None,
        creation_seq: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_id_bit_layout() {
        let vid = VirtualId::new(HandleKind::Datatype, true, 12345);
        assert_eq!(vid.kind(), HandleKind::Datatype);
        assert!(vid.is_predefined());
        assert_eq!(vid.index(), 12345);
        assert_eq!(VirtualId::from_bits(vid.bits()), Some(vid));
        // The id genuinely fits in 32 bits (it *is* 32 bits).
        assert_eq!(std::mem::size_of::<VirtualId>(), 4);
    }

    #[test]
    fn from_bits_rejects_bad_kind() {
        // kind tag 7 (0b111) is invalid
        assert_eq!(VirtualId::from_bits(0b111 << 29), None);
    }

    #[test]
    fn insert_get_translate_remove() {
        let mut table = VirtualIdTable::new();
        let vid = table.insert_with(HandleKind::Comm, None, |vid, seq| {
            Descriptor {
                members_world: Some(vec![0, 1, 2]),
                phys: PhysHandle(0xabc),
                ..blank_descriptor(HandleKind::Comm, PhysHandle(0xabc))
            }
            .with_vid_seq(vid, seq)
        });
        assert_eq!(table.len(), 1);
        assert_eq!(table.virtual_to_physical(vid).unwrap(), PhysHandle(0xabc));
        assert!(
            table.get(vid).unwrap().ggid.is_some(),
            "insertion computes the ggid"
        );
        table.remove(vid).unwrap();
        assert!(table.get(vid).is_err());
    }

    #[test]
    fn rebind_and_clear() {
        let mut table = VirtualIdTable::new();
        let vid = table.insert_with(HandleKind::Datatype, None, |vid, seq| {
            blank_descriptor(HandleKind::Datatype, PhysHandle(5)).with_vid_seq(vid, seq)
        });
        table.rebind(vid, PhysHandle(77)).unwrap();
        assert_eq!(table.virtual_to_physical(vid).unwrap(), PhysHandle(77));
        table.clear_physical_bindings();
        assert!(table.virtual_to_physical(vid).unwrap().is_null());
    }

    #[test]
    fn indices_are_not_reused() {
        let mut table = VirtualIdTable::new();
        let a = table.insert_with(HandleKind::Group, None, |vid, seq| {
            blank_descriptor(HandleKind::Group, PhysHandle(1)).with_vid_seq(vid, seq)
        });
        table.remove(a).unwrap();
        let b = table.insert_with(HandleKind::Group, None, |vid, seq| {
            blank_descriptor(HandleKind::Group, PhysHandle(2)).with_vid_seq(vid, seq)
        });
        assert_ne!(a.index(), b.index(), "stale vids never alias new objects");
        assert!(table.get(a).is_err());
    }

    #[test]
    fn creation_order_iteration_and_predefined_lookup() {
        let mut table = VirtualIdTable::new();
        let world = table.insert_with(
            HandleKind::Comm,
            Some(PredefinedObject::CommWorld),
            |vid, seq| {
                Descriptor {
                    predefined: Some(PredefinedObject::CommWorld),
                    members_world: Some(vec![0, 1]),
                    ..blank_descriptor(HandleKind::Comm, PhysHandle(1))
                }
                .with_vid_seq(vid, seq)
            },
        );
        let dt = table.insert_with(HandleKind::Datatype, None, |vid, seq| {
            blank_descriptor(HandleKind::Datatype, PhysHandle(2)).with_vid_seq(vid, seq)
        });
        let order: Vec<VirtualId> = table
            .iter_in_creation_order()
            .iter()
            .map(|d| d.vid)
            .collect();
        assert_eq!(order, vec![world, dt]);
        assert_eq!(
            table.find_predefined(PredefinedObject::CommWorld),
            Some(world)
        );
        assert_eq!(table.find_predefined(PredefinedObject::CommSelf), None);
        assert!(world.is_predefined());
        assert!(!dt.is_predefined());
    }

    #[test]
    fn serde_roundtrip_preserves_descriptors_but_not_reverse_index() {
        let mut table = VirtualIdTable::new();
        let vid = table.insert_with(HandleKind::Comm, None, |vid, seq| {
            Descriptor {
                members_world: Some(vec![0, 1, 2, 3]),
                ..blank_descriptor(HandleKind::Comm, PhysHandle(0x1234))
            }
            .with_vid_seq(vid, seq)
        });
        let json = serde_json::to_string(&table).unwrap();
        let restored: VirtualIdTable = serde_json::from_str(&json).unwrap();
        assert_eq!(
            restored.get(vid).unwrap().members_world,
            Some(vec![0, 1, 2, 3])
        );
    }

    impl Descriptor {
        fn with_vid_seq(mut self, vid: VirtualId, seq: u64) -> Self {
            self.vid = vid;
            self.creation_seq = seq;
            self
        }
    }

    /// Deterministic walk over the index space: edge values plus a pseudo-random
    /// sample (xorshift), standing in for the original proptest strategies now that
    /// the build environment cannot fetch proptest.
    fn sampled_indices() -> Vec<u32> {
        let mut indices = vec![0, 1, 2, INDEX_MASK - 1, INDEX_MASK];
        let mut state = 0x9E37_79B9u32;
        for _ in 0..256 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            indices.push(state & INDEX_MASK);
        }
        indices
    }

    #[test]
    fn prop_virtual_id_roundtrip() {
        for kind_tag in 0u32..5 {
            let kind = HandleKind::from_tag(kind_tag).unwrap();
            for predefined in [false, true] {
                for &index in &sampled_indices() {
                    let vid = VirtualId::new(kind, predefined, index);
                    assert_eq!(vid.kind(), kind);
                    assert_eq!(vid.is_predefined(), predefined);
                    assert_eq!(vid.index(), index);
                    assert_eq!(VirtualId::from_bits(vid.bits()), Some(vid));
                }
            }
        }
    }

    #[test]
    fn prop_distinct_fields_give_distinct_ids() {
        let indices = sampled_indices();
        for &a in &indices {
            for &b in &indices {
                if a == b {
                    continue;
                }
                let x = VirtualId::new(HandleKind::Comm, false, a);
                let y = VirtualId::new(HandleKind::Comm, false, b);
                assert_ne!(x.bits(), y.bits());
            }
        }
    }
}
