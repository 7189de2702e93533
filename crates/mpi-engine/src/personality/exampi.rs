//! The ExaMPI handle encoding: enum discriminants for primitive datatypes (with
//! aliasing), lazily-salted shared-pointer values for everything else.

use crate::codec::HandleCodec;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::PrimitiveType;
use mpi_model::types::{HandleKind, PhysHandle};
use std::collections::HashMap;

/// Marker in the top byte identifying an ExaMPI datatype-enum handle.
const ENUM_TAG: u64 = 0xEA00_0000_0000_0000;

/// ExaMPI-style handle codec.
///
/// * Predefined datatypes encode as `ENUM_TAG | discriminant`, where aliased primitives
///   (`MPI_CHAR` / `MPI_INT8_T`) share one discriminant — so two distinct
///   [`PredefinedObject`]s may legitimately resolve to the *same* physical handle, and
///   any layer above (MANA's descriptors) must tolerate that.
/// * All other objects get shared-pointer-like addresses salted with the session, known
///   only after they are first created (ExaMPI's lazy constants).
#[derive(Debug, Default)]
pub(crate) struct ExaMpiCodec {
    reverse: HashMap<u64, (HandleKind, u32)>,
}

impl ExaMpiCodec {
    /// The enum discriminant ExaMPI assigns to a primitive datatype. Aliased types
    /// share a discriminant (the paper's `MPI_INT8_T` / `MPI_CHAR` example).
    pub(crate) fn primitive_discriminant(p: PrimitiveType) -> u64 {
        match p {
            // Char and Int8 share a representation.
            PrimitiveType::Char | PrimitiveType::Int8 => 1,
            PrimitiveType::Byte => 2,
            PrimitiveType::Int => 3,
            PrimitiveType::Unsigned => 4,
            PrimitiveType::Long => 5,
            PrimitiveType::UnsignedLong => 6,
            PrimitiveType::Float => 7,
            PrimitiveType::Double => 8,
            PrimitiveType::Bool => 9,
            PrimitiveType::DoubleInt => 10,
        }
    }

    fn shared_pointer(kind: HandleKind, index: u32, session: u64) -> u64 {
        0x6100_0000_0000
            | (session.wrapping_mul(0x2545_f491_4f6c_dd1d) & 0x00ff_0000_0000)
            | ((kind.tag() as u64 + 1) << 28)
            | ((index as u64) << 4)
    }
}

impl HandleCodec for ExaMpiCodec {
    fn encode(
        &mut self,
        kind: HandleKind,
        index: u32,
        session: u64,
        predefined: Option<PredefinedObject>,
    ) -> PhysHandle {
        let bits = match predefined {
            Some(PredefinedObject::Datatype(p)) if kind == HandleKind::Datatype => {
                let discriminant = ENUM_TAG | Self::primitive_discriminant(p);
                // Aliased primitives: keep the first index the discriminant was bound
                // to, so both MPI_CHAR and MPI_INT8_T resolve to one underlying object.
                if self.reverse.contains_key(&discriminant) {
                    return PhysHandle(discriminant);
                }
                discriminant
            }
            _ => Self::shared_pointer(kind, index, session),
        };
        self.reverse.insert(bits, (kind, index));
        PhysHandle(bits)
    }

    fn decode(&self, handle: PhysHandle) -> Option<(HandleKind, u32)> {
        if handle.is_null() {
            return None;
        }
        self.reverse.get(&handle.0).copied()
    }

    fn null(&self, kind: HandleKind) -> PhysHandle {
        PhysHandle(0xEAEA_0000_0000_0000 | kind.tag() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_and_int8_alias() {
        let mut codec = ExaMpiCodec::default();
        let char_h = codec.encode(
            HandleKind::Datatype,
            1,
            9,
            Some(PredefinedObject::Datatype(PrimitiveType::Char)),
        );
        let int8_h = codec.encode(
            HandleKind::Datatype,
            2,
            9,
            Some(PredefinedObject::Datatype(PrimitiveType::Int8)),
        );
        assert_eq!(char_h, int8_h, "MPI_CHAR and MPI_INT8_T share a pointer");
        // Both decode to the first-bound object.
        assert_eq!(codec.decode(char_h), Some((HandleKind::Datatype, 1)));
    }

    #[test]
    fn non_aliased_primitives_are_distinct() {
        let mut codec = ExaMpiCodec::default();
        let int_h = codec.encode(
            HandleKind::Datatype,
            3,
            9,
            Some(PredefinedObject::Datatype(PrimitiveType::Int)),
        );
        let dbl_h = codec.encode(
            HandleKind::Datatype,
            4,
            9,
            Some(PredefinedObject::Datatype(PrimitiveType::Double)),
        );
        assert_ne!(int_h, dbl_h);
        assert_eq!(codec.decode(dbl_h), Some((HandleKind::Datatype, 4)));
    }

    #[test]
    fn derived_and_non_datatype_objects_are_session_salted() {
        let mut a = ExaMpiCodec::default();
        let mut b = ExaMpiCodec::default();
        let ha = a.encode(HandleKind::Comm, 1, 1, Some(PredefinedObject::CommWorld));
        let hb = b.encode(HandleKind::Comm, 1, 2, Some(PredefinedObject::CommWorld));
        assert_ne!(
            ha, hb,
            "non-datatype constants are lazily materialized pointers"
        );
        // Derived datatypes (no predefined marker) are pointers too.
        let d1 = a.encode(HandleKind::Datatype, 20, 1, None);
        assert!(d1.bits() & ENUM_TAG != ENUM_TAG);
        assert_eq!(a.decode(d1), Some((HandleKind::Datatype, 20)));
    }

    #[test]
    fn roundtrip_all_kinds() {
        let mut codec = ExaMpiCodec::default();
        for kind in HandleKind::ALL {
            for index in [1u32, 7, 300] {
                let h = codec.encode(kind, index, 3, None);
                assert_eq!(codec.decode(h), Some((kind, index)));
            }
        }
    }

    #[test]
    fn nulls_and_garbage() {
        let codec = ExaMpiCodec::default();
        for kind in HandleKind::ALL {
            assert_eq!(codec.decode(codec.null(kind)), None);
        }
        assert_eq!(codec.decode(PhysHandle(0)), None);
        assert_eq!(codec.decode(PhysHandle(0x1234_5678)), None);
    }
}
