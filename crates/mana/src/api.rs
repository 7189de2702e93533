//! The typed session layer: a misuse-resistant API *above* the byte-faithful
//! wrappers.
//!
//! The wrapper layer ([`crate::wrappers`]) deliberately mirrors the paper's contract:
//! one [`AppHandle`] space for communicators, groups, datatypes, ops and requests;
//! `MPI_BYTE`-level buffers; per-call resolution of predefined constants (§4.3). That
//! substrate stays untouched — it is what the checkpoint protocol is specified
//! against. This module adds the layer applications actually program to:
//!
//! * **Distinct newtype handles** — [`Comm`], [`Group`], [`Datatype<T>`], [`Op<T>`]
//!   and [`Request<T>`] — so passing a datatype where a communicator belongs is a
//!   compile error, not a runtime `WrongKind`.
//! * **Typed buffers** — every point-to-point and collective call is generic over
//!   [`MpiData`], which carries the element type's datatype descriptor/envelope and
//!   its encode/decode; no application ever hand-rolls `to_le_bytes` marshalling.
//! * **A per-rank [`Session`]** — resolves each predefined constant exactly once and
//!   caches the handle (the wrapper layer re-finds it per call), caches committed
//!   derived datatypes per element type, and reaps request descriptors abandoned by a
//!   dropped [`Request<T>`], so forgotten requests no longer leak virtual ids.
//!
//! Typed handles are plain `Copy` values wrapping the same 64-bit [`AppHandle`]s the
//! byte layer uses, and they serialize identically — an application can store a
//! [`Comm`] or [`Datatype<f64>`] in its upper-half state and find it valid after a
//! checkpoint/restart, exactly like a raw handle. `Session::rank_mut` is the escape
//! hatch down to the byte layer; the two layers interoperate freely.

use crate::runtime::{AppHandle, ManaRank};
use crate::virtid::VirtualId;
use ckpt_store::{CheckpointStorage, StoreReport};
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::{PrimitiveType, TypeDescriptor};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::PredefinedOp;
use mpi_model::status::Status;
use mpi_model::typed::MpiData;
use mpi_model::types::{HandleKind, Rank, Tag};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use split_proc::address_space::UpperHalfSpace;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed communicator handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Comm(AppHandle);

/// A typed group handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Group(AppHandle);

impl Comm {
    /// The null communicator (e.g. the result of an `MPI_UNDEFINED` split colour).
    pub const NULL: Comm = Comm(AppHandle::NULL);

    /// Whether this is the null communicator.
    pub fn is_null(self) -> bool {
        self.0.is_null()
    }

    /// The underlying byte-layer handle (escape hatch; see module docs).
    pub fn handle(self) -> AppHandle {
        self.0
    }
}

impl Group {
    /// The underlying byte-layer handle.
    pub fn handle(self) -> AppHandle {
        self.0
    }
}

/// A typed datatype handle: the element type is part of the handle's type, so a
/// `Datatype<f64>` cannot be used to describe an `i32` buffer.
pub struct Datatype<T: MpiData> {
    handle: AppHandle,
    _elem: PhantomData<fn() -> T>,
}

impl<T: MpiData> Datatype<T> {
    /// The underlying byte-layer handle.
    pub fn handle(self) -> AppHandle {
        self.handle
    }

    /// Wrap a byte-layer datatype handle, asserting it describes elements of `T`.
    pub(crate) fn from_handle(handle: AppHandle) -> Datatype<T> {
        Datatype {
            handle,
            _elem: PhantomData,
        }
    }
}

impl<T: MpiData> Clone for Datatype<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: MpiData> Copy for Datatype<T> {}
impl<T: MpiData> std::fmt::Debug for Datatype<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Datatype({:#x})", self.handle.0)
    }
}
impl<T: MpiData> PartialEq for Datatype<T> {
    fn eq(&self, other: &Self) -> bool {
        self.handle == other.handle
    }
}
impl<T: MpiData> Eq for Datatype<T> {}

/// How a typed reduction op names its reduction. Predefined ops are pure values —
/// they carry no per-rank handle and are resolved (once, cached) by the session at
/// call time; user ops carry the handle `op_create` registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum OpKind {
    Predefined(PredefinedOp),
    User(AppHandle),
}

/// A typed reduction operation over elements of `T`.
///
/// `Op::<f64>::sum()` (usually just `Op::sum()` with the element type inferred from
/// the reduced buffer) is a plain value: predefined ops need no session to construct,
/// and the type parameter ties the op to the element type of the buffers it may
/// reduce — `allreduce(&[f64], Op<i32>, ..)` does not compile.
pub struct Op<T: MpiData> {
    kind: OpKind,
    _elem: PhantomData<fn() -> T>,
}

impl<T: MpiData> Clone for Op<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: MpiData> Copy for Op<T> {}
impl<T: MpiData> std::fmt::Debug for Op<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Op({:?})", self.kind)
    }
}
impl<T: MpiData> PartialEq for Op<T> {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}
impl<T: MpiData> Eq for Op<T> {}

// The constructors are written out (no macro) so the API-surface snapshot test,
// which extracts `pub fn` declarations from this source, pins every one of them.
impl<T: MpiData> Op<T> {
    /// A typed view of any predefined reduction.
    pub fn predefined(op: PredefinedOp) -> Op<T> {
        Op {
            kind: OpKind::Predefined(op),
            _elem: PhantomData,
        }
    }

    /// `MPI_SUM`.
    pub fn sum() -> Op<T> {
        Op::predefined(PredefinedOp::Sum)
    }

    /// `MPI_MAX`.
    pub fn max() -> Op<T> {
        Op::predefined(PredefinedOp::Max)
    }

    /// `MPI_MIN`.
    pub fn min() -> Op<T> {
        Op::predefined(PredefinedOp::Min)
    }

    /// `MPI_MAXLOC` (meaningful on [`mpi_model::typed::DoubleInt`] pairs).
    pub fn maxloc() -> Op<T> {
        Op::predefined(PredefinedOp::MaxLoc)
    }
}

// Typed handles serialize as their underlying byte-layer handle, so application
// state stored in the upper half looks identical whether it holds `Comm` or raw
// `AppHandle` values — and survives checkpoint/restart the same way. (The in-tree
// serde derive does not cover generic types, hence the manual impls.)
macro_rules! serialize_as_handle {
    ($ty:ident) => {
        impl Serialize for $ty {
            fn to_value(&self) -> serde::Value {
                self.0.to_value()
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
                AppHandle::from_value(value).map($ty)
            }
        }
    };
}
serialize_as_handle!(Comm);
serialize_as_handle!(Group);

impl<T: MpiData> Serialize for Datatype<T> {
    fn to_value(&self) -> serde::Value {
        self.handle.to_value()
    }
}
impl<'de, T: MpiData> Deserialize<'de> for Datatype<T> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        AppHandle::from_value(value).map(Datatype::from_handle)
    }
}

impl<T: MpiData> Serialize for Op<T> {
    fn to_value(&self) -> serde::Value {
        self.kind.to_value()
    }
}
impl<'de, T: MpiData> Deserialize<'de> for Op<T> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Op {
            kind: OpKind::from_value(value)?,
            _elem: PhantomData,
        })
    }
}

/// Shared drop-box for request descriptors whose typed [`Request`] was dropped
/// without `wait`/`test`: the session removes them at its next call. The `pending`
/// flag keeps the per-call check a single relaxed atomic load — the mutex is only
/// touched when a request was actually abandoned.
#[derive(Default)]
struct ReaperState {
    pending: std::sync::atomic::AtomicBool,
    vids: Mutex<Vec<VirtualId>>,
}

impl ReaperState {
    fn push(&self, vid: VirtualId) {
        self.vids.lock().push(vid);
        self.pending
            .store(true, std::sync::atomic::Ordering::Release);
    }
}

type Reaper = Arc<ReaperState>;

/// A typed non-blocking request for elements of `T`.
///
/// `wait` consumes the request and returns the received elements (empty for send
/// requests); `test` polls without blocking. Dropping a request without completing it
/// does **not** leak its descriptor: the drop enqueues the virtual id with the
/// session that minted it, and the session removes the descriptor on its next call —
/// the byte layer, by contrast, leaks the vid of every abandoned request.
#[must_use = "an unawaited request is cancelled when dropped"]
pub struct Request<T: MpiData> {
    handle: AppHandle,
    reaper: Reaper,
    consumed: bool,
    _elem: PhantomData<fn() -> T>,
}

impl<T: MpiData> std::fmt::Debug for Request<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Request({:#x})", self.handle.0)
    }
}

impl<T: MpiData> Request<T> {
    /// Block until the request completes. Returns the received elements (empty for a
    /// send request) and the completion status. The request descriptor is removed on
    /// success and failure alike.
    pub fn wait(mut self, session: &mut Session) -> MpiResult<(Vec<T>, Status)> {
        self.consumed = true;
        let (status, payload) = session.rank.wait(self.handle)?;
        let values = match payload {
            Some(bytes) => T::decode(&bytes)?,
            None => Vec::new(),
        };
        Ok((values, status))
    }

    /// Non-blocking completion check: `Ok(None)` means still pending (the request
    /// stays live and retryable). On completion — or on a failed completion attempt —
    /// the request is consumed.
    pub fn test(&mut self, session: &mut Session) -> MpiResult<Option<(Vec<T>, Status)>> {
        match session.rank.test(self.handle) {
            Ok(None) => Ok(None),
            Ok(Some((status, payload))) => {
                self.consumed = true;
                let values = match payload {
                    Some(bytes) => T::decode(&bytes)?,
                    None => Vec::new(),
                };
                Ok(Some((values, status)))
            }
            Err(error) => {
                // The byte layer removed the descriptor on its error path.
                self.consumed = true;
                Err(error)
            }
        }
    }
}

impl<T: MpiData> Drop for Request<T> {
    fn drop(&mut self) {
        if !self.consumed {
            if let Ok(vid) = self.handle.virtual_id() {
                self.reaper.push(vid);
            }
        }
    }
}

/// The byte limit of a receive of up to `max_count` elements of `T`. A limit, not a
/// size: a count whose bytes do not fit a `usize` admits every message there can be.
fn recv_limit<T: MpiData>(max_count: usize) -> usize {
    max_count.saturating_mul(T::elem_size())
}

/// The byte size of a send-side block of `count` elements of `T`, which must exist.
fn block_bytes<T: MpiData>(count: usize) -> MpiResult<usize> {
    count
        .checked_mul(T::elem_size())
        .ok_or(MpiError::InvalidCount(
            i64::try_from(count).unwrap_or(i64::MAX),
        ))
}

const PRIMITIVES: usize = PrimitiveType::ALL.len();
const OPS: usize = PredefinedOp::ALL.len();

/// The session's constant cache: each predefined object is resolved against the
/// lower half at most once per session (the wrapper layer re-finds the descriptor on
/// every call). Index-addressed, so the hot path is an array load.
#[derive(Default)]
struct ConstCache {
    comm_world: Option<AppHandle>,
    datatypes: [Option<AppHandle>; PRIMITIVES],
    ops: [Option<AppHandle>; OPS],
}

/// The per-rank typed session: owns the rank's [`ManaRank`] runtime and provides the
/// typed, misuse-resistant API every application, example, test and benchmark in this
/// workspace programs against.
///
/// Construction is cheap (no MPI calls); constants are resolved lazily, once. The
/// byte-faithful wrapper layer remains reachable through [`Session::rank_mut`] for
/// code that genuinely needs `MPI_BYTE`-level control.
pub struct Session {
    rank: ManaRank,
    consts: ConstCache,
    /// Committed derived datatypes already materialized in this session, keyed by
    /// their structural description.
    derived: HashMap<TypeDescriptor, AppHandle>,
    reaper: Reaper,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("rank", &self.rank).finish()
    }
}

impl Session {
    /// Wrap a MANA rank in a typed session.
    pub fn new(rank: ManaRank) -> Session {
        Session {
            rank,
            consts: ConstCache::default(),
            derived: HashMap::new(),
            reaper: Arc::new(ReaperState::default()),
        }
    }

    /// The underlying byte-layer runtime (read-only).
    pub fn rank(&self) -> &ManaRank {
        &self.rank
    }

    /// The underlying byte-layer runtime (escape hatch to the wrapper layer).
    pub fn rank_mut(&mut self) -> &mut ManaRank {
        &mut self.rank
    }

    /// Remove the descriptors of requests dropped without `wait`/`test` since the
    /// last call. Invoked from every communication entry point; callable directly
    /// when a long compute phase wants the vids back sooner. Costs one relaxed
    /// atomic load when nothing was dropped (the overwhelmingly common case).
    pub fn reap(&mut self) {
        use std::sync::atomic::Ordering;
        if !self.reaper.pending.load(Ordering::Acquire) {
            return;
        }
        self.reaper.pending.store(false, Ordering::Release);
        let vids: Vec<VirtualId> = std::mem::take(&mut *self.reaper.vids.lock());
        for vid in vids {
            // Already-consumed (raced) requests are fine to skip.
            let _ = self.rank.translator.remove(vid);
        }
    }

    // ------------------------------------------------------------------
    // Constant resolution (cached once per session)
    // ------------------------------------------------------------------

    fn primitive_handle(&mut self, primitive: PrimitiveType) -> MpiResult<AppHandle> {
        let slot = &mut self.consts.datatypes[primitive.index()];
        if let Some(handle) = *slot {
            return Ok(handle);
        }
        let handle = self.rank.constant(PredefinedObject::Datatype(primitive))?;
        *slot = Some(handle);
        Ok(handle)
    }

    fn predefined_op_handle(&mut self, op: PredefinedOp) -> MpiResult<AppHandle> {
        let slot = &mut self.consts.ops[op.index()];
        if let Some(handle) = *slot {
            return Ok(handle);
        }
        let handle = self.rank.constant(PredefinedObject::Op(op))?;
        *slot = Some(handle);
        Ok(handle)
    }

    /// `MPI_COMM_WORLD` as a typed handle (resolved once per session).
    pub fn world(&mut self) -> MpiResult<Comm> {
        if let Some(handle) = self.consts.comm_world {
            return Ok(Comm(handle));
        }
        let handle = self.rank.constant(PredefinedObject::CommWorld)?;
        self.consts.comm_world = Some(handle);
        Ok(Comm(handle))
    }

    /// The committed datatype handle for elements of `T`: a cached predefined handle
    /// for scalars, a cached (built-and-committed on first use) derived datatype for
    /// struct layouts.
    pub fn datatype<T: MpiData>(&mut self) -> MpiResult<Datatype<T>> {
        self.datatype_handle::<T>().map(Datatype::from_handle)
    }

    fn datatype_handle<T: MpiData>(&mut self) -> MpiResult<AppHandle> {
        match T::type_descriptor() {
            TypeDescriptor::Primitive(p) => self.primitive_handle(p),
            descriptor => {
                if let Some(&handle) = self.derived.get(&descriptor) {
                    return Ok(handle);
                }
                // After a restart a fresh session wraps a rank whose descriptor table
                // already holds this derived type: reuse it instead of re-creating —
                // but only a *committed* one (per the replay log). A structurally
                // identical type the application built through the byte-layer escape
                // hatch and has not committed must not be adopted: sending on it
                // would fail with `TypeNotCommitted`, and committing it behind the
                // application's back would be a surprise.
                let existing = self
                    .rank
                    .translator
                    .iter_in_creation_order()
                    .iter()
                    .find(|d| {
                        d.kind == HandleKind::Datatype
                            && d.datatype.as_ref() == Some(&descriptor)
                            && self.rank.replay_log.events().iter().any(|event| {
                                event.vid == Some(d.vid)
                                    && matches!(
                                        event.recipe,
                                        crate::record::CreationRecipe::DerivedDatatype {
                                            committed: true,
                                            ..
                                        }
                                    )
                            })
                    })
                    .map(|d| AppHandle::from_virtual(d.vid));
                let handle = match existing {
                    Some(handle) => handle,
                    None => {
                        let handle = self.build_descriptor(&descriptor)?;
                        self.rank.type_commit(handle)?;
                        handle
                    }
                };
                self.derived.insert(descriptor, handle);
                Ok(handle)
            }
        }
    }

    /// Recursively materialize a structural datatype description through the
    /// byte-layer type constructors (so it is recorded for restart replay like any
    /// application-created type).
    fn build_descriptor(&mut self, descriptor: &TypeDescriptor) -> MpiResult<AppHandle> {
        match descriptor {
            TypeDescriptor::Primitive(p) => self.primitive_handle(*p),
            TypeDescriptor::Dup(inner) => {
                let inner = self.build_descriptor(inner)?;
                self.rank.type_dup(inner)
            }
            TypeDescriptor::Contiguous { count, inner } => {
                let inner = self.build_descriptor(inner)?;
                self.rank.type_contiguous(*count, inner)
            }
            TypeDescriptor::Vector {
                count,
                block_length,
                stride,
                inner,
            } => {
                let inner = self.build_descriptor(inner)?;
                self.rank.type_vector(*count, *block_length, *stride, inner)
            }
            TypeDescriptor::Indexed {
                block_lengths,
                displacements,
                inner,
            } => {
                let inner = self.build_descriptor(inner)?;
                self.rank.type_indexed(block_lengths, displacements, inner)
            }
            TypeDescriptor::Struct {
                block_lengths,
                byte_displacements,
                types,
            } => {
                let mut members = Vec::with_capacity(types.len());
                for member in types {
                    members.push(self.build_descriptor(member)?);
                }
                self.rank
                    .type_create_struct(block_lengths, byte_displacements, &members)
            }
        }
    }

    fn op_handle<T: MpiData>(&mut self, op: Op<T>) -> MpiResult<AppHandle> {
        match op.kind {
            OpKind::Predefined(p) => self.predefined_op_handle(p),
            OpKind::User(handle) => Ok(handle),
        }
    }

    // ------------------------------------------------------------------
    // Communicator and group management
    // ------------------------------------------------------------------

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&mut self, comm: Comm) -> MpiResult<Rank> {
        self.rank.comm_rank(comm.0)
    }

    /// `MPI_Comm_size`.
    pub fn comm_size(&mut self, comm: Comm) -> MpiResult<usize> {
        self.rank.comm_size(comm.0)
    }

    /// `MPI_Comm_dup` (collective).
    pub fn comm_dup(&mut self, comm: Comm) -> MpiResult<Comm> {
        self.rank.comm_dup(comm.0).map(Comm)
    }

    /// `MPI_Comm_split` (collective); `color == None` models `MPI_UNDEFINED`.
    pub fn comm_split(&mut self, comm: Comm, color: Option<i32>, key: i32) -> MpiResult<Comm> {
        self.rank.comm_split(comm.0, color, key).map(Comm)
    }

    /// `MPI_Comm_create` (collective) from a subgroup.
    pub fn comm_create(&mut self, comm: Comm, group: Group) -> MpiResult<Comm> {
        self.rank.comm_create(comm.0, group.0).map(Comm)
    }

    /// `MPI_Comm_free` (predefined communicators are rejected).
    pub fn comm_free(&mut self, comm: Comm) -> MpiResult<()> {
        self.rank.comm_free(comm.0)
    }

    /// `MPI_Comm_group`.
    pub fn comm_group(&mut self, comm: Comm) -> MpiResult<Group> {
        self.rank.comm_group(comm.0).map(Group)
    }

    /// `MPI_Group_size`.
    pub fn group_size(&mut self, group: Group) -> MpiResult<usize> {
        self.rank.group_size(group.0)
    }

    /// `MPI_Group_incl`.
    pub fn group_incl(&mut self, group: Group, ranks: &[Rank]) -> MpiResult<Group> {
        self.rank.group_incl(group.0, ranks).map(Group)
    }

    /// `MPI_Group_translate_ranks`.
    pub fn group_translate_ranks(
        &mut self,
        group: Group,
        ranks: &[Rank],
        other: Group,
    ) -> MpiResult<Vec<Rank>> {
        self.rank.group_translate_ranks(group.0, ranks, other.0)
    }

    /// `MPI_Group_free` (predefined groups are rejected).
    pub fn group_free(&mut self, group: Group) -> MpiResult<()> {
        self.rank.group_free(group.0)
    }

    // ------------------------------------------------------------------
    // Datatype and op management
    // ------------------------------------------------------------------

    /// `MPI_Type_size` of the datatype for elements of `T`.
    pub fn type_size<T: MpiData>(&mut self, datatype: Datatype<T>) -> MpiResult<usize> {
        self.rank.type_size(datatype.handle)
    }

    /// `MPI_Type_free` a derived datatype (predefined datatypes are rejected). The
    /// session's cache entry is dropped with it.
    pub fn type_free<T: MpiData>(&mut self, datatype: Datatype<T>) -> MpiResult<()> {
        self.rank.type_free(datatype.handle)?;
        self.derived
            .retain(|_, &mut handle| handle != datatype.handle);
        Ok(())
    }

    /// `MPI_Op_create`: register a user reduction over elements of `T` under the
    /// upper-half function id `func_id`.
    pub fn op_create<T: MpiData>(&mut self, func_id: u64, commutative: bool) -> MpiResult<Op<T>> {
        let handle = self.rank.op_create(func_id, commutative)?;
        Ok(Op {
            kind: OpKind::User(handle),
            _elem: PhantomData,
        })
    }

    /// `MPI_Op_free` a user op (predefined ops are rejected — they have no handle to
    /// free in the first place).
    pub fn op_free<T: MpiData>(&mut self, op: Op<T>) -> MpiResult<()> {
        match op.kind {
            OpKind::User(handle) => self.rank.op_free(handle),
            OpKind::Predefined(p) => Err(MpiError::FreePredefined(PredefinedObject::Op(p))),
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point communication
    // ------------------------------------------------------------------

    /// `MPI_Send` of a typed buffer.
    ///
    /// The elements are encoded straight into the allocation of a refcounted
    /// [`PayloadBuf`](mpi_model::payload::PayloadBuf), which the wrapper layer, the
    /// lower half and the fabric then share: a send of scalars costs one allocation
    /// and one marshalling pass, and no byte is copied after it. (An element type
    /// without a bulk encoder — a derived struct — marshals through a `Vec<u8>`
    /// first, which costs it one more allocation and a `memcpy`.)
    pub fn send<T: MpiData>(
        &mut self,
        data: &[T],
        dest: Rank,
        tag: Tag,
        comm: Comm,
    ) -> MpiResult<()> {
        self.reap();
        let datatype = self.datatype_handle::<T>()?;
        self.rank
            .send_payload(T::encode_payload(data), datatype, dest, tag, comm.0)
    }

    /// `MPI_Recv` of up to `max_count` elements of `T`.
    ///
    /// The decode runs directly over the received
    /// [`PayloadBuf`](mpi_model::payload::PayloadBuf) view — still the sender's
    /// allocation — so the only copy on the receive side is the typed unmarshalling
    /// itself, into one exactly-sized `Vec<T>`; no intermediate `Vec<u8>` is
    /// materialized. `max_count` is a limit, not a size: any count is accepted,
    /// `usize::MAX` meaning "whatever arrives".
    pub fn recv<T: MpiData>(
        &mut self,
        max_count: usize,
        source: Rank,
        tag: Tag,
        comm: Comm,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.reap();
        let datatype = self.datatype_handle::<T>()?;
        let (bytes, status) =
            self.rank
                .recv(datatype, recv_limit::<T>(max_count), source, tag, comm.0)?;
        Ok((T::decode(&bytes)?, status))
    }

    /// `MPI_Isend` of a typed buffer.
    pub fn isend<T: MpiData>(
        &mut self,
        data: &[T],
        dest: Rank,
        tag: Tag,
        comm: Comm,
    ) -> MpiResult<Request<T>> {
        self.reap();
        let datatype = self.datatype_handle::<T>()?;
        let handle =
            self.rank
                .isend_payload(T::encode_payload(data), datatype, dest, tag, comm.0)?;
        Ok(self.request(handle))
    }

    /// `MPI_Irecv` for up to `max_count` elements of `T`.
    pub fn irecv<T: MpiData>(
        &mut self,
        max_count: usize,
        source: Rank,
        tag: Tag,
        comm: Comm,
    ) -> MpiResult<Request<T>> {
        self.reap();
        let datatype = self.datatype_handle::<T>()?;
        let handle = self
            .rank
            .irecv(datatype, recv_limit::<T>(max_count), source, tag, comm.0)?;
        Ok(self.request(handle))
    }

    fn request<T: MpiData>(&self, handle: AppHandle) -> Request<T> {
        Request {
            handle,
            reaper: Arc::clone(&self.reaper),
            consumed: false,
            _elem: PhantomData,
        }
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, source: Rank, tag: Tag, comm: Comm) -> MpiResult<Option<Status>> {
        self.rank.iprobe(source, tag, comm.0)
    }

    // ------------------------------------------------------------------
    // Collective communication
    // ------------------------------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: Comm) -> MpiResult<()> {
        self.reap();
        self.rank.barrier(comm.0)
    }

    /// `MPI_Bcast`: `data` holds the payload at the root and is replaced by the
    /// root's payload everywhere else.
    pub fn bcast<T: MpiData>(
        &mut self,
        data: &mut Vec<T>,
        root: Rank,
        comm: Comm,
    ) -> MpiResult<()> {
        self.reap();
        let mut bytes = T::encode(data);
        self.rank.bcast(&mut bytes, root, comm.0)?;
        *data = T::decode(&bytes)?;
        Ok(())
    }

    /// `MPI_Reduce`: returns `Some(result)` at the root, `None` elsewhere.
    pub fn reduce<T: MpiData>(
        &mut self,
        data: &[T],
        op: Op<T>,
        root: Rank,
        comm: Comm,
    ) -> MpiResult<Option<Vec<T>>> {
        self.reap();
        let datatype = self.datatype_handle::<T>()?;
        let op = self.op_handle(op)?;
        match self
            .rank
            .reduce(&T::encode(data), datatype, op, root, comm.0)?
        {
            Some(bytes) => Ok(Some(T::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// `MPI_Allreduce`.
    pub fn allreduce<T: MpiData>(
        &mut self,
        data: &[T],
        op: Op<T>,
        comm: Comm,
    ) -> MpiResult<Vec<T>> {
        self.reap();
        let datatype = self.datatype_handle::<T>()?;
        let op = self.op_handle(op)?;
        let bytes = self
            .rank
            .allreduce(&T::encode(data), datatype, op, comm.0)?;
        T::decode(&bytes)
    }

    /// `MPI_Alltoall` with `block_count` elements per peer: `data` must hold
    /// `comm_size * block_count` elements; every rank receives the same.
    pub fn alltoall<T: MpiData>(
        &mut self,
        data: &[T],
        block_count: usize,
        comm: Comm,
    ) -> MpiResult<Vec<T>> {
        self.reap();
        let block_bytes = block_bytes::<T>(block_count)?;
        let bytes = self.rank.alltoall(&T::encode(data), block_bytes, comm.0)?;
        T::decode(&bytes)
    }

    /// `MPI_Gather` of equal-sized contributions; the concatenation lands at the
    /// root.
    pub fn gather<T: MpiData>(
        &mut self,
        data: &[T],
        root: Rank,
        comm: Comm,
    ) -> MpiResult<Option<Vec<T>>> {
        self.reap();
        match self.rank.gather(&T::encode(data), root, comm.0)? {
            Some(bytes) => Ok(Some(T::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// `MPI_Allgather` of equal-sized contributions.
    pub fn allgather<T: MpiData>(&mut self, data: &[T], comm: Comm) -> MpiResult<Vec<T>> {
        self.reap();
        let bytes = self.rank.allgather(&T::encode(data), comm.0)?;
        T::decode(&bytes)
    }

    /// `MPI_Scatter`: the root supplies `Some(blocks)` (`comm_size * block_count`
    /// elements); every rank receives its `block_count`-element block.
    pub fn scatter<T: MpiData>(
        &mut self,
        data: Option<&[T]>,
        block_count: usize,
        root: Rank,
        comm: Comm,
    ) -> MpiResult<Vec<T>> {
        self.reap();
        let block_bytes = block_bytes::<T>(block_count)?;
        let encoded = data.map(|values| T::encode(values));
        let bytes = self
            .rank
            .scatter(encoded.as_deref(), block_bytes, root, comm.0)?;
        T::decode(&bytes)
    }

    // ------------------------------------------------------------------
    // Checkpoint / restart
    // ------------------------------------------------------------------

    /// Transparent checkpoint through the `ckpt-store` engine under the configured
    /// storage policy (collective; see [`ManaRank::checkpoint_into`]).
    pub fn checkpoint_into(&mut self, storage: &CheckpointStorage) -> MpiResult<StoreReport> {
        self.reap();
        self.rank.checkpoint_into(storage)
    }

    // ------------------------------------------------------------------
    // Introspection passthroughs
    // ------------------------------------------------------------------

    /// World rank of this process.
    pub fn world_rank(&self) -> Rank {
        self.rank.world_rank()
    }

    /// Number of ranks in the job.
    pub fn world_size(&self) -> usize {
        self.rank.world_size()
    }

    /// Name of the MPI implementation loaded in the lower half.
    pub fn implementation_name(&self) -> &'static str {
        self.rank.implementation_name()
    }

    /// Upper↔lower crossings performed so far (paper §6.3).
    pub fn crossings(&self) -> u64 {
        self.rank.crossings()
    }

    /// Live virtual-id descriptors.
    pub fn descriptor_count(&self) -> usize {
        self.rank.descriptor_count()
    }

    /// Drained messages buffered in the upper half.
    pub fn buffered_messages(&self) -> usize {
        self.rank.buffered_messages()
    }

    /// The checkpoint generation this rank is on.
    pub fn generation(&self) -> u64 {
        self.rank.generation()
    }

    /// Read-only view of the application's upper-half address space.
    pub fn upper(&self) -> &UpperHalfSpace {
        self.rank.upper()
    }

    /// Mutable view of the upper-half address space; state stored here (typed
    /// handles included) survives checkpoints.
    pub fn upper_mut(&mut self) -> &mut UpperHalfSpace {
        self.rank.upper_mut()
    }

    /// Audit the lower half for the required MANA subset.
    pub fn audit_lower_half(&self) -> crate::subset_check::ManaCompatibility {
        self.rank.audit_lower_half()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ManaConfig;
    use mpi_engine::Backend;
    use mpi_model::op::UserFunctionRegistry;
    use parking_lot::RwLock;

    fn session() -> Session {
        let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
        let mut lowers = Backend::Mpich
            .launch(1, Arc::clone(&registry), 1)
            .unwrap()
            .0;
        Session::new(ManaRank::new(lowers.remove(0), ManaConfig::new_design(), registry).unwrap())
    }

    #[test]
    fn constants_resolve_once_and_cache() {
        let mut session = session();
        let world = session.world().unwrap();
        assert_eq!(session.world().unwrap(), world);
        let dt = session.datatype::<f64>().unwrap();
        assert_eq!(session.datatype::<f64>().unwrap(), dt);
        assert_eq!(session.type_size(dt).unwrap(), 8);
        // Exactly one descriptor per distinct constant.
        let count = session.descriptor_count();
        let _ = session.datatype::<f64>().unwrap();
        let _ = session.world().unwrap();
        assert_eq!(session.descriptor_count(), count);
    }

    #[test]
    fn predefined_ops_are_plain_values() {
        let sum = Op::<f64>::sum();
        assert_eq!(sum, Op::predefined(PredefinedOp::Sum));
        assert_ne!(Op::<i32>::max(), Op::<i32>::min());
    }

    #[test]
    fn dropped_request_is_reaped_not_leaked() {
        let mut session = session();
        let world = session.world().unwrap();
        let _ = session.datatype::<u8>().unwrap();
        let before = session.descriptor_count();
        let request = session.irecv::<u8>(16, 0, 3, world).unwrap();
        assert_eq!(session.descriptor_count(), before + 1);
        drop(request);
        // The next session call reaps the abandoned descriptor.
        session.reap();
        assert_eq!(session.descriptor_count(), before);
    }

    #[test]
    fn recv_of_any_length_saturates_its_limit() {
        let mut session = session();
        let world = session.world().unwrap();
        session.send(&[1.5f64, -2.5], 0, 7, world).unwrap();
        let (values, _) = session.recv::<f64>(usize::MAX, 0, 7, world).unwrap();
        assert_eq!(values, vec![1.5, -2.5]);
    }

    #[test]
    fn irecv_of_any_length_saturates_its_limit() {
        let mut session = session();
        let world = session.world().unwrap();
        session.send(&[3i32, 4, 5], 0, 8, world).unwrap();
        // `usize::MAX / 2` elements of 4 bytes used to wrap to a 4 GiB-short limit.
        let request = session.irecv::<i32>(usize::MAX / 2, 0, 8, world).unwrap();
        let (values, status) = request.wait(&mut session).unwrap();
        assert_eq!(values, vec![3, 4, 5]);
        assert_eq!(status.count_bytes, 12);
    }

    #[test]
    fn alltoall_rejects_an_overflowing_block_size() {
        let mut session = session();
        let world = session.world().unwrap();
        assert!(matches!(
            session.alltoall(&[1.0f64], usize::MAX / 4, world),
            Err(MpiError::InvalidCount(_))
        ));
        // The call never entered the collective: the communicator still works.
        assert_eq!(session.alltoall(&[7u64], 1, world).unwrap(), vec![7]);
    }

    #[test]
    fn scatter_rejects_an_overflowing_block_size() {
        let mut session = session();
        let world = session.world().unwrap();
        assert!(matches!(
            session.scatter(Some(&[1u64][..]), usize::MAX / 4, 0, world),
            Err(MpiError::InvalidCount(_))
        ));
        assert_eq!(
            session.scatter(Some(&[9i32][..]), 1, 0, world).unwrap(),
            [9]
        );
    }

    #[test]
    fn typed_self_roundtrip() {
        let mut session = session();
        let world = session.world().unwrap();
        session.send(&[1.5f64, -2.5], 0, 7, world).unwrap();
        let (values, status) = session.recv::<f64>(8, 0, 7, world).unwrap();
        assert_eq!(values, vec![1.5, -2.5]);
        assert_eq!(status.count_bytes, 16);
    }
}
