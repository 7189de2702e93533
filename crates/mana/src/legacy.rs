//! The legacy virtual-id design (paper §4.1): the baseline the new unified table is
//! measured against.
//!
//! The pre-paper production MANA kept **one associative map per MPI object type**,
//! keyed by strings assembled from the type name, with plain `int` virtual ids and any
//! additional per-object data held in *separate* side maps. The paper lists the
//! consequences: repeated string comparisons on every translation, multiple lookups per
//! wrapper call when metadata is needed, an O(n) real→virtual path, and — fatally for
//! implementation-obliviousness — an `int`-sized id that cannot impersonate Open MPI's
//! 64-bit pointer handles or ExaMPI's lazily-resolved constants.
//!
//! This module reproduces that design faithfully enough for the performance comparison
//! (string-keyed `BTreeMap`s, separate metadata maps, linear reverse lookup) while
//! exposing the same storage API as [`crate::virtid::VirtualIdTable`], so the wrapper
//! layer can run in either mode and the Figure 2/3 "MANA" vs "MANA+virtId" bars can be
//! generated from the same code path.

use crate::virtid::{Descriptor, VirtualId};
use mpi_model::constants::PredefinedObject;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::{HandleKind, PhysHandle, Rank};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

fn map_key(kind: HandleKind, index: u32) -> String {
    // The legacy design selected the per-type map via macro-encoded string comparison;
    // building and comparing these keys on every call is the overhead being modelled.
    format!("{}:{}", kind.mpi_type_name(), index)
}

/// The legacy per-type, string-keyed tables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LegacyTables {
    /// virtual→physical translation, one string-keyed entry per object.
    translation: BTreeMap<String, PhysHandle>,
    /// Everything the new design stores inline lives in side maps here.
    descriptors: BTreeMap<String, Descriptor>,
    /// Separate metadata map for communicator/group membership (a second lookup per
    /// call that needs it, as in the legacy design).
    members: BTreeMap<String, Vec<Rank>>,
    next_index: u32,
    creation_counter: u64,
}

impl LegacyTables {
    /// An empty set of legacy tables.
    pub fn new() -> Self {
        LegacyTables::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Insert a descriptor, assigning a fresh `int`-style virtual id.
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
        let key = map_key(kind, index);
        self.translation.insert(key.clone(), descriptor.phys);
        if let Some(members) = descriptor.members_world.clone() {
            self.members.insert(key.clone(), members);
        }
        self.descriptors.insert(key, descriptor);
        vid
    }

    /// Borrow the descriptor for `vid` (legacy path: string key construction + map
    /// lookup).
    pub fn get(&self, vid: VirtualId) -> MpiResult<&Descriptor> {
        self.descriptors
            .get(&map_key(vid.kind(), vid.index()))
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })
    }

    /// Mutably borrow the descriptor for `vid`.
    pub fn get_mut(&mut self, vid: VirtualId) -> MpiResult<&mut Descriptor> {
        self.descriptors
            .get_mut(&map_key(vid.kind(), vid.index()))
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })
    }

    /// Remove the descriptor for `vid`.
    pub fn remove(&mut self, vid: VirtualId) -> MpiResult<Descriptor> {
        let key = map_key(vid.kind(), vid.index());
        self.translation.remove(&key);
        self.members.remove(&key);
        self.descriptors
            .remove(&key)
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })
    }

    /// virtual→physical translation: string key construction, then a map lookup in the
    /// translation table (separate from the descriptor map, as in the legacy design).
    pub fn virtual_to_physical(&self, vid: VirtualId) -> MpiResult<PhysHandle> {
        self.translation
            .get(&map_key(vid.kind(), vid.index()))
            .copied()
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })
    }

    /// Rebind a descriptor to a new physical handle (restart path).
    pub(crate) fn rebind(&mut self, vid: VirtualId, new_phys: PhysHandle) -> MpiResult<()> {
        let key = map_key(vid.kind(), vid.index());
        let descriptor = self
            .descriptors
            .get_mut(&key)
            .ok_or(MpiError::InvalidHandle {
                kind: vid.kind(),
                handle: PhysHandle(vid.bits() as u64),
            })?;
        descriptor.phys = new_phys;
        self.translation.insert(key, new_phys);
        Ok(())
    }

    /// Drop all physical bindings (lower half discarded).
    pub(crate) fn clear_physical_bindings(&mut self) {
        for descriptor in self.descriptors.values_mut() {
            descriptor.phys = PhysHandle::NULL;
        }
        for phys in self.translation.values_mut() {
            *phys = PhysHandle::NULL;
        }
    }

    /// Live descriptors in creation order.
    pub fn iter_in_creation_order(&self) -> Vec<&Descriptor> {
        let mut live: Vec<&Descriptor> = self.descriptors.values().collect();
        live.sort_by_key(|d| d.creation_seq);
        live
    }

    /// The virtual id registered for a predefined object, if any.
    pub fn find_predefined(&self, object: PredefinedObject) -> Option<VirtualId> {
        self.descriptors
            .values()
            .find(|d| d.predefined == Some(object))
            .map(|d| d.vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtid::blank_descriptor;

    fn insert_comm(tables: &mut LegacyTables, phys: u64, members: Vec<Rank>) -> VirtualId {
        tables.insert_with(HandleKind::Comm, None, |_vid, _seq| Descriptor {
            members_world: Some(members.clone()),
            ..blank_descriptor(HandleKind::Comm, PhysHandle(phys))
        })
    }

    #[test]
    fn translation_and_metadata_are_separate_lookups() {
        let mut tables = LegacyTables::new();
        let vid = insert_comm(&mut tables, 0x10, vec![0, 1, 2]);
        assert_eq!(tables.virtual_to_physical(vid).unwrap(), PhysHandle(0x10));
        assert_eq!(tables.len(), 1);
        assert!(tables.get(vid).unwrap().ggid.is_some());
    }

    #[test]
    fn remove_and_rebind() {
        let mut tables = LegacyTables::new();
        let vid = insert_comm(&mut tables, 0x10, vec![0]);
        tables.rebind(vid, PhysHandle(0x99)).unwrap();
        assert_eq!(tables.virtual_to_physical(vid).unwrap(), PhysHandle(0x99));
        tables.clear_physical_bindings();
        assert!(tables.virtual_to_physical(vid).unwrap().is_null());
        tables.remove(vid).unwrap();
        assert!(tables.get(vid).is_err());
        assert!(tables.is_empty());
    }

    #[test]
    fn creation_order_and_predefined() {
        let mut tables = LegacyTables::new();
        let world = tables.insert_with(
            HandleKind::Comm,
            Some(PredefinedObject::CommWorld),
            |_vid, _seq| Descriptor {
                predefined: Some(PredefinedObject::CommWorld),
                members_world: Some(vec![0, 1]),
                ..blank_descriptor(HandleKind::Comm, PhysHandle(1))
            },
        );
        let other = insert_comm(&mut tables, 2, vec![0]);
        let order: Vec<VirtualId> = tables
            .iter_in_creation_order()
            .iter()
            .map(|d| d.vid)
            .collect();
        assert_eq!(order, vec![world, other]);
        assert_eq!(
            tables.find_predefined(PredefinedObject::CommWorld),
            Some(world)
        );
    }
}
