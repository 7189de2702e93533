//! Slab-style object stores used by the engine for each MPI object kind.
//!
//! Indices start at 1 (index 0 is never used, so a zeroed handle can never
//! accidentally decode to a live object) and are reused after release, mimicking the
//! id-recycling behaviour of real implementations that the paper's §9 "eager vs lazy
//! ggid" discussion worries about.

use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::{HandleKind, PhysHandle};

/// A slab of objects of one kind, addressed by `u32` index.
#[derive(Debug)]
pub(crate) struct ObjectStore<T> {
    kind: HandleKind,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> ObjectStore<T> {
    /// Create an empty store for objects of `kind`.
    pub fn new(kind: HandleKind) -> Self {
        ObjectStore {
            kind,
            // Slot 0 is permanently unoccupied.
            slots: vec![None],
            free: Vec::new(),
        }
    }

    /// Insert an object, returning its index.
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(index) = self.free.pop() {
            self.slots[index as usize] = Some(value);
            index
        } else {
            self.slots.push(Some(value));
            (self.slots.len() - 1) as u32
        }
    }

    /// Borrow the object at `index`.
    pub fn get(&self, index: u32) -> MpiResult<&T> {
        self.slots
            .get(index as usize)
            .and_then(|s| s.as_ref())
            .ok_or(MpiError::InvalidHandle {
                kind: self.kind,
                handle: PhysHandle(index as u64),
            })
    }

    /// Mutably borrow the object at `index`.
    pub fn get_mut(&mut self, index: u32) -> MpiResult<&mut T> {
        let kind = self.kind;
        self.slots
            .get_mut(index as usize)
            .and_then(|s| s.as_mut())
            .ok_or(MpiError::InvalidHandle {
                kind,
                handle: PhysHandle(index as u64),
            })
    }

    /// Remove and return the object at `index`, making the slot reusable.
    pub fn remove(&mut self, index: u32) -> MpiResult<T> {
        let kind = self.kind;
        let slot = self
            .slots
            .get_mut(index as usize)
            .ok_or(MpiError::InvalidHandle {
                kind,
                handle: PhysHandle(index as u64),
            })?;
        let value = slot.take().ok_or(MpiError::InvalidHandle {
            kind,
            handle: PhysHandle(index as u64),
        })?;
        self.free.push(index);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut store: ObjectStore<String> = ObjectStore::new(HandleKind::Comm);
        let a = store.insert("a".to_string());
        let b = store.insert("b".to_string());
        assert_ne!(a, 0, "index 0 is reserved");
        assert_ne!(a, b);
        assert_eq!(store.get(a).unwrap(), "a");
        assert_eq!(store.remove(a).unwrap(), "a");
        assert!(store.get(a).is_err());
    }

    #[test]
    fn indices_are_recycled() {
        let mut store: ObjectStore<u32> = ObjectStore::new(HandleKind::Datatype);
        let a = store.insert(1);
        store.remove(a).unwrap();
        let b = store.insert(2);
        assert_eq!(a, b, "freed index is reused");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut store: ObjectStore<Vec<u8>> = ObjectStore::new(HandleKind::Request);
        let idx = store.insert(vec![1]);
        store.get_mut(idx).unwrap().push(2);
        assert_eq!(store.get(idx).unwrap(), &vec![1, 2]);
    }

    #[test]
    fn errors_carry_the_kind() {
        let store: ObjectStore<u8> = ObjectStore::new(HandleKind::Group);
        match store.get(3) {
            Err(MpiError::InvalidHandle { kind, .. }) => assert_eq!(kind, HandleKind::Group),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
