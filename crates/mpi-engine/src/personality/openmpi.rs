//! The Open MPI handle encoding: 64-bit pointer-like values into per-kind "object
//! arenas", salted with the library session so no two sessions produce the same
//! addresses.

use crate::codec::HandleCodec;
use mpi_model::constants::PredefinedObject;
use mpi_model::types::{HandleKind, PhysHandle};
use std::collections::HashMap;

/// Simulated size of one internal object struct, per kind (bytes). Pointer handles are
/// `arena_base + index * struct_size`, which is how consecutive `ompi_communicator_t`
/// allocations would look in a real address space.
fn struct_size(kind: HandleKind) -> u64 {
    match kind {
        HandleKind::Comm => 0x350,
        HandleKind::Group => 0x120,
        HandleKind::Request => 0xe0,
        HandleKind::Op => 0x90,
        HandleKind::Datatype => 0x200,
    }
}

/// 64-bit pointer-style handle codec (Open MPI style).
///
/// Every `(kind, index)` pair maps to a distinct simulated heap address inside a
/// per-kind arena whose base depends on the session number — a fresh lower half lays
/// its objects out at different addresses, exactly like a re-`dlopen`ed library heap.
/// Decoding is a reverse lookup of addresses this codec itself minted; foreign values
/// (including addresses from a previous session) do not decode.
#[derive(Debug, Default)]
pub(crate) struct OpenMpiCodec {
    reverse: HashMap<u64, (HandleKind, u32)>,
}

impl OpenMpiCodec {
    /// The simulated arena base address for a kind within a session.
    pub(crate) fn arena_base(kind: HandleKind, session: u64) -> u64 {
        // A plausible-looking user-space heap address, spread per session and per kind.
        0x7f30_0000_0000
            | (session.wrapping_mul(0x1_f351_7d1d) & 0x0000_00ff_f000_0000)
            | ((kind.tag() as u64 + 1) << 20)
    }
}

impl HandleCodec for OpenMpiCodec {
    fn encode(
        &mut self,
        kind: HandleKind,
        index: u32,
        session: u64,
        _predefined: Option<PredefinedObject>,
    ) -> PhysHandle {
        let address = Self::arena_base(kind, session) + index as u64 * struct_size(kind);
        self.reverse.insert(address, (kind, index));
        PhysHandle(address)
    }

    fn decode(&self, handle: PhysHandle) -> Option<(HandleKind, u32)> {
        if handle.is_null() {
            return None;
        }
        self.reverse.get(&handle.0).copied()
    }

    fn null(&self, kind: HandleKind) -> PhysHandle {
        // Open MPI's null handles are addresses of dedicated static objects; model them
        // as fixed addresses in a "data segment" well away from the arenas.
        PhysHandle(0x5555_5555_0000 | ((kind.tag() as u64) * 0x40))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut codec = OpenMpiCodec::default();
        for kind in HandleKind::ALL {
            for index in [1u32, 2, 3, 1000] {
                let h = codec.encode(kind, index, 42, None);
                assert_eq!(codec.decode(h), Some((kind, index)));
            }
        }
    }

    #[test]
    fn handles_do_not_fit_in_32_bits() {
        let mut codec = OpenMpiCodec::default();
        let h = codec.encode(HandleKind::Comm, 1, 1, None);
        assert!(
            h.bits() > u32::MAX as u64,
            "Open MPI handles are pointers; truncating them to int loses information"
        );
    }

    #[test]
    fn sessions_produce_different_addresses() {
        let mut a = OpenMpiCodec::default();
        let mut b = OpenMpiCodec::default();
        let ha = a.encode(HandleKind::Comm, 1, 1, Some(PredefinedObject::CommWorld));
        let hb = b.encode(HandleKind::Comm, 1, 2, Some(PredefinedObject::CommWorld));
        assert_ne!(
            ha, hb,
            "the same logical object has different addresses in different sessions"
        );
        // And a codec from session 2 cannot decode session 1's address.
        assert_eq!(b.decode(ha), None);
    }

    #[test]
    fn distinct_objects_have_distinct_addresses() {
        let mut codec = OpenMpiCodec::default();
        let mut seen = std::collections::HashSet::new();
        for kind in HandleKind::ALL {
            for index in 1..50u32 {
                assert!(seen.insert(codec.encode(kind, index, 7, None).bits()));
            }
        }
    }

    #[test]
    fn null_handles_do_not_decode() {
        let codec = OpenMpiCodec::default();
        for kind in HandleKind::ALL {
            assert_eq!(codec.decode(codec.null(kind)), None);
        }
        assert_eq!(codec.decode(PhysHandle(0)), None);
    }
}
