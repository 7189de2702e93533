//! The simulated upper-half address space: named, byte-addressed memory regions.
//!
//! Real MANA saves the upper half by walking `/proc/self/maps` and writing out every
//! writable region that belongs to the application. Here the application's state lives
//! in explicitly named regions ("heap", "app.lattice", "mana.descriptors", ...), which
//! gives the same property the paper relies on: the checkpoint contains *all* of the
//! application's and MANA's memory — including any MPI virtual ids the application has
//! stashed in its own data structures — and *none* of the lower half's.

use mpi_model::error::{MpiError, MpiResult};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The upper half of one rank's split process: everything that will be saved at
/// checkpoint time and restored at restart time.
///
/// Besides the regions themselves, the space tracks **dirty regions** — the set of
/// region names touched (mapped, mutably borrowed, or unmapped) since the last
/// checkpoint epoch. The `ckpt-store` engine uses this to encode only the regions that
/// changed since the previous generation; tracking is conservative (a mutable borrow
/// marks a region dirty even if nothing was written), so reuse of a clean region is
/// always sound. The **epoch** counter ties dirty information to a specific previous
/// checkpoint: it is advanced once per successful checkpoint, and an incremental store
/// only trusts the clean set when the epochs line up.
///
/// Regions are **copy-on-write**: each is an `Arc<Vec<u8>>` under an `Arc<str>` name,
/// so cloning a space (the asynchronous checkpoint's freeze) copies neither bytes nor
/// names. It allocates only the nodes of the region map and of the dirty set, and
/// bumps one refcount per region and one per name in each. A store may keep windows
/// of a region it was handed ([`iter_shared`](UpperHalfSpace::iter_shared)). The copy
/// is paid by the next [`region_mut`](UpperHalfSpace::region_mut) of a region that is
/// still shared, and only for that region.
///
/// **Invariant: a shared region is never handed out mutably.** `region_mut` is the
/// only mutable access to a region's bytes, and it copies a region any other holder
/// still shares before handing it out. So while a frozen image or a store holds a
/// region's buffer, that buffer's bytes cannot change, and the store relies on it:
/// a `FullImage` write skips hashing a region whose every chunk the store still
/// holds as a window of the very buffer being written.
#[derive(Debug, Clone, Default)]
pub struct UpperHalfSpace {
    regions: BTreeMap<Arc<str>, Arc<Vec<u8>>>,
    /// Regions touched since the last [`mark_clean`](UpperHalfSpace::mark_clean). Not
    /// written to an image: a decoded image starts clean relative to its own checkpoint.
    /// It shares each name with the region map.
    dirty: BTreeSet<Arc<str>>,
    /// Checkpoint epoch (number of completed checkpoint cycles this address space has
    /// been through). Written to the image so dirty tracking stays coherent across restarts.
    epoch: u64,
}

/// Equality ignores the dirty set (a decoded image compares equal to the space it was
/// encoded from even though the decode is clean).
impl PartialEq for UpperHalfSpace {
    fn eq(&self, other: &Self) -> bool {
        self.regions == other.regions && self.epoch == other.epoch
    }
}

impl Eq for UpperHalfSpace {}

impl UpperHalfSpace {
    /// An empty upper half.
    pub fn new() -> Self {
        UpperHalfSpace::default()
    }

    /// Create or overwrite a region. A `Vec` becomes the region; an `Arc` (a store
    /// read handing back a buffer it still shares) is taken as it is, and the space
    /// copies it on its first [`region_mut`](UpperHalfSpace::region_mut).
    pub fn map_region(&mut self, name: impl Into<String>, data: impl Into<Arc<Vec<u8>>>) {
        let name: Arc<str> = name.into().into();
        self.dirty.insert(Arc::clone(&name));
        self.regions.insert(name, data.into());
    }

    /// Remove a region (e.g. when the application frees a large buffer) and hand
    /// back its buffer, which a frozen image or a store may still share: nothing is
    /// copied.
    pub fn unmap_region(&mut self, name: &str) -> MpiResult<Arc<Vec<u8>>> {
        self.dirty.remove(name);
        self.regions
            .remove(name)
            .ok_or_else(|| MpiError::Checkpoint(format!("no region named {name:?} to unmap")))
    }

    /// Read-only view of a region.
    pub fn region(&self, name: &str) -> MpiResult<&[u8]> {
        self.regions
            .get(name)
            .map(|d| d.as_slice())
            .ok_or_else(|| MpiError::Checkpoint(format!("no region named {name:?}")))
    }

    /// Mutable view of a region. Conservatively marks the region dirty. A region
    /// still shared with a frozen image or a store is copied first (that sharer keeps
    /// the old bytes); an unshared one is handed out in place. Nothing is allocated
    /// for a region that is already dirty and unshared.
    pub fn region_mut(&mut self, name: &str) -> MpiResult<&mut Vec<u8>> {
        let missing = || MpiError::Checkpoint(format!("no region named {name:?}"));
        if !self.dirty.contains(name) {
            let (key, _) = self.regions.get_key_value(name).ok_or_else(missing)?;
            self.dirty.insert(Arc::clone(key));
        }
        self.regions
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(missing)
    }

    /// Whether a region exists.
    pub fn contains(&self, name: &str) -> bool {
        self.regions.contains_key(name)
    }

    /// Names of all regions, sorted.
    pub fn region_names(&self) -> Vec<&str> {
        self.regions.keys().map(|s| &**s).collect()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total bytes across all regions — the upper-half footprint that a checkpoint of
    /// this rank will have to write.
    pub fn total_bytes(&self) -> usize {
        self.regions.values().map(|d| d.len()).sum()
    }

    /// Iterate over `(name, data)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.regions.iter().map(|(k, v)| (&**k, v.as_slice()))
    }

    /// Iterate over `(name, region)` pairs in name order, handing out the shared
    /// buffers themselves: a store that keeps a clone of one holds the bytes without
    /// copying them, and the space copies the region on its next `region_mut`.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&str, &Arc<Vec<u8>>)> {
        self.regions.iter().map(|(k, v)| (&**k, v))
    }

    // ------------------------------------------------------------------
    // Dirty-region tracking (consumed by the ckpt-store engine)
    // ------------------------------------------------------------------

    /// Whether `name` has been touched since the last [`mark_clean`].
    ///
    /// [`mark_clean`]: UpperHalfSpace::mark_clean
    pub fn is_dirty(&self, name: &str) -> bool {
        self.dirty.contains(name)
    }

    /// Names of the regions touched since the last clean point, sorted.
    pub fn dirty_regions(&self) -> Vec<&str> {
        self.dirty.iter().map(|s| &**s).collect()
    }

    /// Number of dirty regions.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Bytes held by dirty regions (an upper bound on what an incremental checkpoint
    /// has to re-examine).
    pub fn dirty_bytes(&self) -> usize {
        self.dirty
            .iter()
            .filter_map(|name| self.regions.get(&**name))
            .map(|data| data.len())
            .sum()
    }

    /// Forget all dirty marks (called after a checkpoint has captured the space, or
    /// after a restore re-created it from a checkpoint).
    pub fn mark_clean(&mut self) {
        self.dirty.clear();
    }

    /// Mark every region dirty (forces the next incremental checkpoint to re-encode
    /// everything; chunk-level dedup still applies).
    pub fn mark_all_dirty(&mut self) {
        self.dirty = self.regions.keys().cloned().collect();
    }

    /// The checkpoint epoch this space is in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the epoch by one: the caller has just completed a checkpoint of this
    /// space (or restored it from one).
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Restore a recorded epoch (image decode / storage-engine read path).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Store a serde-serializable value into a region as JSON bytes. Convenience used
    /// by the proxy applications for their structured state.
    pub fn store_json<T: Serialize>(
        &mut self,
        name: impl Into<String>,
        value: &T,
    ) -> MpiResult<()> {
        let bytes = serde_json::to_vec(value)
            .map_err(|e| MpiError::Checkpoint(format!("serializing region: {e}")))?;
        self.map_region(name, bytes);
        Ok(())
    }

    /// Load a serde-deserializable value previously stored with [`store_json`].
    ///
    /// [`store_json`]: UpperHalfSpace::store_json
    pub fn load_json<T: for<'de> Deserialize<'de>>(&self, name: &str) -> MpiResult<T> {
        let bytes = self.region(name)?;
        serde_json::from_slice(bytes)
            .map_err(|e| MpiError::Checkpoint(format!("deserializing region {name:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_unmap() {
        let mut space = UpperHalfSpace::new();
        space.map_region("heap", vec![1, 2, 3]);
        assert!(space.contains("heap"));
        assert_eq!(space.region("heap").unwrap(), &[1, 2, 3]);
        space.region_mut("heap").unwrap().push(4);
        assert_eq!(space.total_bytes(), 4);
        assert_eq!(*space.unmap_region("heap").unwrap(), vec![1, 2, 3, 4]);
        assert!(space.region("heap").is_err());
        assert!(space.unmap_region("heap").is_err());
    }

    #[test]
    fn region_names_sorted() {
        let mut space = UpperHalfSpace::new();
        space.map_region("b", vec![]);
        space.map_region("a", vec![0]);
        assert_eq!(space.region_names(), vec!["a", "b"]);
        assert_eq!(space.region_count(), 2);
        assert_eq!(space.total_bytes(), 1);
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct AppState {
            iteration: u64,
            values: Vec<f64>,
        }
        let mut space = UpperHalfSpace::new();
        let state = AppState {
            iteration: 17,
            values: vec![1.5, 2.5],
        };
        space.store_json("app.state", &state).unwrap();
        let loaded: AppState = space.load_json("app.state").unwrap();
        assert_eq!(loaded, state);
        assert!(space.load_json::<AppState>("missing").is_err());
    }

    #[test]
    fn dirty_tracking_follows_mutation() {
        let mut space = UpperHalfSpace::new();
        space.map_region("a", vec![1]);
        space.map_region("b", vec![2]);
        assert!(space.is_dirty("a") && space.is_dirty("b"));
        assert_eq!(space.dirty_count(), 2);
        assert_eq!(space.dirty_bytes(), 2);

        space.mark_clean();
        assert_eq!(space.dirty_count(), 0);

        // Read-only access stays clean; mutable access marks dirty.
        let _ = space.region("a").unwrap();
        assert!(!space.is_dirty("a"));
        space.region_mut("b").unwrap().push(9);
        assert!(space.is_dirty("b"));
        assert_eq!(space.dirty_regions(), vec!["b"]);

        // Unmapping drops the region from the dirty set too.
        space.unmap_region("b").unwrap();
        assert_eq!(space.dirty_count(), 0);

        space.mark_all_dirty();
        assert!(space.is_dirty("a"));
    }

    #[test]
    fn epoch_advances_and_roundtrips() {
        let mut space = UpperHalfSpace::new();
        assert_eq!(space.epoch(), 0);
        space.advance_epoch();
        space.advance_epoch();
        assert_eq!(space.epoch(), 2);
        space.set_epoch(7);
        assert_eq!(space.epoch(), 7);
    }

    #[test]
    fn equality_ignores_dirty_marks() {
        let mut a = UpperHalfSpace::new();
        a.map_region("x", vec![1, 2]);
        let mut b = a.clone();
        b.mark_clean();
        assert_eq!(a, b, "dirty marks must not affect equality");
        b.advance_epoch();
        assert_ne!(a, b, "epoch participates in equality");
    }

    #[test]
    fn a_clone_shares_region_names() {
        let mut live = UpperHalfSpace::new();
        live.map_region("a", vec![1]);
        live.map_region("b", vec![2]);
        live.region_mut("a").unwrap()[0] = 3;
        let frozen = live.clone();
        let names = |space: &UpperHalfSpace| {
            let mapped = space.region_names().into_iter();
            mapped
                .chain(space.dirty_regions())
                .map(str::as_ptr)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&live), names(&frozen), "a clone copies no name");
        assert_eq!(
            names(&live)[..2],
            names(&live)[2..],
            "the dirty set shares the region map's names"
        );
    }

    #[test]
    fn a_clone_shares_regions_until_one_is_mutated() {
        let mut live = UpperHalfSpace::new();
        live.map_region("a", vec![1, 2, 3]);
        live.map_region("b", vec![4, 5]);
        let frozen = live.clone();
        for ((_, mine), (_, theirs)) in live.iter_shared().zip(frozen.iter_shared()) {
            assert!(Arc::ptr_eq(mine, theirs), "a clone copies no region");
        }

        live.region_mut("a").unwrap()[0] = 9;
        let shares = |name: &str| {
            let mine = live.iter_shared().find(|(n, _)| *n == name).unwrap().1;
            let theirs = frozen.iter_shared().find(|(n, _)| *n == name).unwrap().1;
            Arc::ptr_eq(mine, theirs)
        };
        assert!(!shares("a"), "the mutated region was copied");
        assert!(shares("b"), "an untouched region stays shared");
        assert_eq!(live.region("a").unwrap(), &[9, 2, 3]);
        assert_eq!(
            frozen.region("a").unwrap(),
            &[1, 2, 3],
            "the clone keeps its bytes"
        );

        // The copy is now the live space's own: a second mutation is in place.
        let before = live.region("a").unwrap().as_ptr();
        live.region_mut("a").unwrap()[1] = 8;
        assert_eq!(live.region("a").unwrap().as_ptr(), before);
        let unmapped = live.unmap_region("b").unwrap();
        assert!(
            Arc::ptr_eq(
                &unmapped,
                frozen.iter_shared().find(|(n, _)| *n == "b").unwrap().1
            ),
            "unmapping a shared region copies nothing"
        );
        assert_eq!(frozen.region("b").unwrap(), &[4, 5]);
    }
}
