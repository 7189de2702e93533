//! The handle codec: the part of an MPI implementation's "personality" that decides
//! what the bits of an `MPI_Comm`/`MPI_Group`/... handle look like.
//!
//! MANA never interprets these bits — that is the whole point of the virtual-id
//! design — but the *applications and tests* in this workspace do rely on the codecs
//! faithfully reproducing the paper's §3 taxonomy, because that is what broke the
//! original int-based virtual ids: an `int` virtual id cannot impersonate a 64-bit
//! Open MPI pointer handle.

use mpi_model::constants::PredefinedObject;
use mpi_model::types::{HandleKind, PhysHandle};

/// Strategy for encoding (kind, store index) pairs into physical handle bits and back.
///
/// `session` is the lower-half session number: implementations whose handles are
/// addresses (Open MPI, ExaMPI) salt their encodings with it, so the "same" object gets
/// a different physical handle after a restart — the hazard MANA's virtual ids exist to
/// absorb. Implementations with table-index handles (MPICH) ignore it, reproducing the
/// fact that MPICH handles *look* stable across restarts (and that relying on that
/// stability is exactly how the original MANA became Cray-MPI-specific).
pub trait HandleCodec: Send + 'static {
    /// Mint the physical handle for the object of `kind` stored at `index`.
    ///
    /// `predefined` is `Some` when the object being encoded is a predefined constant
    /// (e.g. `MPI_COMM_WORLD`, `MPI_INT`); codecs that give predefined objects special
    /// bit patterns (MPICH's reserved ids, ExaMPI's datatype enum) use it.
    fn encode(
        &mut self,
        kind: HandleKind,
        index: u32,
        session: u64,
        predefined: Option<PredefinedObject>,
    ) -> PhysHandle;

    /// Recover `(kind, index)` from a handle previously produced by [`encode`].
    ///
    /// Returns `None` for the null handle, for handles minted by a different session
    /// when the encoding is session-salted, or for garbage.
    ///
    /// [`encode`]: HandleCodec::encode
    fn decode(&self, handle: PhysHandle) -> Option<(HandleKind, u32)>;

    /// The null handle for `kind` (`MPI_COMM_NULL`, `MPI_REQUEST_NULL`, ...).
    fn null(&self, kind: HandleKind) -> PhysHandle;
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A trivial codec used by the engine's own unit tests: kind tag in the top byte,
    //! index below. Not used by any shipped implementation.
    use super::*;

    /// Minimal codec for engine unit tests.
    #[derive(Debug, Default)]
    pub struct PlainCodec;

    impl HandleCodec for PlainCodec {
        fn encode(
            &mut self,
            kind: HandleKind,
            index: u32,
            _session: u64,
            _predefined: Option<PredefinedObject>,
        ) -> PhysHandle {
            PhysHandle(((kind.tag() as u64 + 1) << 32) | index as u64)
        }

        fn decode(&self, handle: PhysHandle) -> Option<(HandleKind, u32)> {
            if handle.is_null() {
                return None;
            }
            let kind = HandleKind::from_tag(((handle.0 >> 32) as u32).checked_sub(1)?)?;
            Some((kind, handle.0 as u32))
        }

        fn null(&self, kind: HandleKind) -> PhysHandle {
            // Distinct null per kind, all with index bits zero and a marker nibble.
            PhysHandle(0xF000_0000_0000_0000 | kind.tag() as u64)
        }
    }
}
