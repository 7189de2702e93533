//! The MPICH-family handle encoding: 32-bit integers with a two-level table layout.

use crate::codec::HandleCodec;
use mpi_model::constants::PredefinedObject;
use mpi_model::types::{HandleKind, PhysHandle};

/// Number of second-level index bits (entries per second-level block).
const L2_BITS: u32 = 9;
/// Mask for the second-level index.
const L2_MASK: u32 = (1 << L2_BITS) - 1;
/// Number of first-level (directory) index bits.
const L1_BITS: u32 = 15;
/// Mask for the first-level index.
const L1_MASK: u32 = (1 << L1_BITS) - 1;
/// Bit position of the 3-bit kind field.
const KIND_SHIFT: u32 = L1_BITS + L2_BITS; // 24
/// Bit position of the "predefined / built-in object" flag.
const BUILTIN_SHIFT: u32 = KIND_SHIFT + 3; // 27
/// Marker in the top nibble indicating "this is a valid MPICH handle".
const VALID_SHIFT: u32 = 28;
const VALID_TAG: u32 = 0x4;

/// 32-bit, two-level-table handle codec (MPICH / MVAPICH / Intel MPI / Cray MPI style).
///
/// Layout of the 32-bit handle (high to low):
///
/// ```text
/// [31:28] validity tag (0x4)      — real MPICH uses reserved patterns similarly
/// [27]    predefined/built-in bit
/// [26:24] object kind (comm/group/request/op/datatype)
/// [23:9]  first-level (directory) index
/// [8:0]   second-level (block) index
/// ```
///
/// The engine's slab index is split across the two table levels exactly as a two-level
/// page-table walk would: `index = l1 * 512 + l2`. Handles are **not** salted with the
/// session number: an MPICH handle for the "same" object looks identical before a
/// checkpoint and after a restart, which is precisely the property that made MANA's
/// original integer virtual ids appear to work while actually being Cray-MPI-specific.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MpichCodec;

impl MpichCodec {
    /// Split a slab index into (first-level, second-level) table indices.
    pub(crate) fn split_index(index: u32) -> (u32, u32) {
        (index >> L2_BITS, index & L2_MASK)
    }
}

impl HandleCodec for MpichCodec {
    fn encode(
        &mut self,
        kind: HandleKind,
        index: u32,
        _session: u64,
        predefined: Option<PredefinedObject>,
    ) -> PhysHandle {
        let (l1, l2) = Self::split_index(index);
        debug_assert!(
            l1 <= L1_MASK,
            "object index exceeds two-level table capacity"
        );
        let builtin = u32::from(predefined.is_some());
        let word = (VALID_TAG << VALID_SHIFT)
            | (builtin << BUILTIN_SHIFT)
            | (kind.tag() << KIND_SHIFT)
            | ((l1 & L1_MASK) << L2_BITS)
            | (l2 & L2_MASK);
        PhysHandle(word as u64)
    }

    fn decode(&self, handle: PhysHandle) -> Option<(HandleKind, u32)> {
        if handle.is_null() {
            return None;
        }
        // A genuine MPICH handle fits in 32 bits and carries the validity tag.
        if handle.0 > u32::MAX as u64 {
            return None;
        }
        let word = handle.0 as u32;
        if word >> VALID_SHIFT != VALID_TAG {
            return None;
        }
        let kind = HandleKind::from_tag((word >> KIND_SHIFT) & 0x7)?;
        let l1 = (word >> L2_BITS) & L1_MASK;
        let l2 = word & L2_MASK;
        Some((kind, (l1 << L2_BITS) | l2))
    }

    fn null(&self, kind: HandleKind) -> PhysHandle {
        // MPICH null handles are small distinct integers without the validity tag
        // (e.g. MPI_COMM_NULL == 0x04000000 in real MPICH; here a compact analogue).
        PhysHandle(0x0C00_0000u64 | kind.tag() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let mut codec = MpichCodec;
        for kind in HandleKind::ALL {
            for &index in &[1u32, 2, 511, 512, 513, 100_000] {
                let handle = codec.encode(kind, index, 0, None);
                assert!(handle.bits() <= u32::MAX as u64, "MPICH handles are 32-bit");
                assert_eq!(codec.decode(handle), Some((kind, index)));
            }
        }
    }

    #[test]
    fn predefined_bit_does_not_change_index() {
        let mut codec = MpichCodec;
        let plain = codec.encode(HandleKind::Comm, 1, 0, None);
        let builtin = codec.encode(HandleKind::Comm, 1, 0, Some(PredefinedObject::CommWorld));
        assert_ne!(plain, builtin, "builtin bit is visible in the handle");
        assert_eq!(codec.decode(plain), codec.decode(builtin));
    }

    #[test]
    fn handles_are_session_stable() {
        let mut codec = MpichCodec;
        let a = codec.encode(HandleKind::Datatype, 7, 1, None);
        let b = codec.encode(HandleKind::Datatype, 7, 99, None);
        assert_eq!(a, b, "MPICH-style handles ignore the session");
    }

    #[test]
    fn null_handles_are_distinct_and_undecodable() {
        let codec = MpichCodec;
        let mut nulls: Vec<u64> = HandleKind::ALL
            .iter()
            .map(|&k| codec.null(k).bits())
            .collect();
        nulls.sort_unstable();
        nulls.dedup();
        assert_eq!(nulls.len(), HandleKind::ALL.len());
        for &kind in &HandleKind::ALL {
            assert_eq!(codec.decode(codec.null(kind)), None);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        let codec = MpichCodec;
        assert_eq!(codec.decode(PhysHandle(0)), None);
        assert_eq!(codec.decode(PhysHandle(u64::MAX)), None);
        assert_eq!(
            codec.decode(PhysHandle(0x1234)),
            None,
            "missing validity tag"
        );
    }

    #[test]
    fn two_level_split() {
        assert_eq!(MpichCodec::split_index(0), (0, 0));
        assert_eq!(MpichCodec::split_index(511), (0, 511));
        assert_eq!(MpichCodec::split_index(512), (1, 0));
        assert_eq!(MpichCodec::split_index(1025), (2, 1));
    }
}
