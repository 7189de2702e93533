//! The `mpi.h` contract: the [`MpiApi`] trait implemented by every simulated MPI
//! implementation, and the [`MpiImplementationFactory`] used to launch (and, at restart
//! time, re-launch) a lower half.
//!
//! The trait is written from the point of view of *one rank*: each rank of the job owns
//! its own `Box<dyn MpiApi>` (its lower half), just as each MPI process links its own
//! copy of the MPI library. All handles crossing this interface are physical handles
//! ([`PhysHandle`]); their bit patterns are private to the implementation that minted
//! them. MANA's wrapper layer is the only caller of this trait in the upper stack, and
//! it is the only component that translates between virtual ids and these physical
//! handles.
//!
//! Blocking semantics: collective calls and blocking point-to-point calls genuinely
//! block the calling rank thread until the fabric completes the operation, so the
//! simulated implementations exhibit the same interleaving hazards (unmatched sends in
//! flight at checkpoint time, ranks stuck inside a collective) that MANA's coordination
//! protocol exists to handle.

use crate::constants::{ConstantResolution, PredefinedObject};
use crate::datatype::TypeEnvelope;
use crate::error::MpiResult;
use crate::op::UserFunctionRegistry;
use crate::payload::PayloadBuf;
use crate::status::Status;
use crate::subset::SubsetFeature;
use crate::types::{PhysHandle, Rank, RegistrationTicket, Tag};
use std::sync::Arc;
use std::time::Duration;

/// Raw contents of a derived datatype as reported by `MPI_Type_get_contents`:
/// integer arguments, address arguments, and the *physical handles* of the inner
/// datatypes. The caller (MANA) must decode inner handles recursively, comparing
/// against resolved predefined constants to identify named types — exactly the work
/// the real MANA performs when it records datatypes for restart.
pub type RawTypeContents = (Vec<i64>, Vec<i64>, Vec<PhysHandle>);

/// The per-rank MPI interface ("one rank's view of libmpi").
///
/// Object-safe so MANA can hold `Box<dyn MpiApi>` and remain oblivious to which
/// implementation is loaded in the lower half.
pub trait MpiApi: Send {
    // ------------------------------------------------------------------
    // Identity and capability discovery
    // ------------------------------------------------------------------

    /// Human-readable implementation name ("mpich", "openmpi", "exampi", ...).
    fn implementation_name(&self) -> &'static str;

    /// How this implementation resolves predefined constants (paper §4.3).
    fn constant_resolution(&self) -> ConstantResolution;

    /// The features this implementation provides, for subset auditing (paper §5).
    fn provided_features(&self) -> Vec<SubsetFeature>;

    /// This process's rank in the initial (world) communicator.
    fn world_rank(&self) -> Rank;

    /// Number of ranks in the world communicator.
    fn world_size(&self) -> usize;

    /// Resolve a predefined constant to its physical handle in *this* lower half.
    ///
    /// Takes `&mut self` because ExaMPI-style implementations materialize constants
    /// lazily on first use.
    fn resolve_constant(&mut self, object: PredefinedObject) -> MpiResult<PhysHandle>;

    /// Shut down this rank's lower half. After finalize, all other calls fail with
    /// [`crate::error::MpiError::NotInitialized`].
    fn finalize(&mut self) -> MpiResult<()>;

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_size`.
    fn comm_size(&self, comm: PhysHandle) -> MpiResult<usize>;

    /// `MPI_Comm_rank`.
    fn comm_rank(&self, comm: PhysHandle) -> MpiResult<Rank>;

    /// `MPI_Comm_group`: the group of a communicator, as a new group handle.
    fn comm_group(&mut self, comm: PhysHandle) -> MpiResult<PhysHandle>;

    /// `MPI_Comm_dup` (collective over the communicator).
    fn comm_dup(&mut self, comm: PhysHandle) -> MpiResult<PhysHandle>;

    /// `MPI_Comm_split` (collective). `color == None` models `MPI_UNDEFINED` and yields
    /// the null communicator handle for this rank.
    fn comm_split(
        &mut self,
        comm: PhysHandle,
        color: Option<i32>,
        key: i32,
    ) -> MpiResult<PhysHandle>;

    /// `MPI_Comm_create` (collective): create a communicator from a subgroup. Ranks not
    /// in the group receive the null handle.
    fn comm_create(&mut self, comm: PhysHandle, group: PhysHandle) -> MpiResult<PhysHandle>;

    /// `MPI_Comm_free`.
    fn comm_free(&mut self, comm: PhysHandle) -> MpiResult<()>;

    // ------------------------------------------------------------------
    // Group management
    // ------------------------------------------------------------------

    /// `MPI_Group_size`.
    fn group_size(&self, group: PhysHandle) -> MpiResult<usize>;

    /// `MPI_Group_rank`: this process's rank in the group, or `None` if not a member.
    fn group_rank(&self, group: PhysHandle) -> MpiResult<Option<Rank>>;

    /// `MPI_Group_translate_ranks`.
    fn group_translate_ranks(
        &self,
        group: PhysHandle,
        ranks: &[Rank],
        other: PhysHandle,
    ) -> MpiResult<Vec<Rank>>;

    /// The world ranks of the group members, in group-rank order.
    ///
    /// Not a literal MPI call, but derivable from `MPI_Group_translate_ranks` against
    /// the world group; exposed directly because every implementation stores it anyway
    /// and MANA's restart path would otherwise re-derive it one rank at a time.
    fn group_members(&self, group: PhysHandle) -> MpiResult<Vec<Rank>>;

    /// `MPI_Group_incl`.
    fn group_incl(&mut self, group: PhysHandle, ranks: &[Rank]) -> MpiResult<PhysHandle>;

    /// `MPI_Group_free`.
    fn group_free(&mut self, group: PhysHandle) -> MpiResult<()>;

    // ------------------------------------------------------------------
    // Datatype management
    // ------------------------------------------------------------------

    /// `MPI_Type_contiguous`.
    fn type_contiguous(&mut self, count: usize, inner: PhysHandle) -> MpiResult<PhysHandle>;

    /// `MPI_Type_vector`.
    fn type_vector(
        &mut self,
        count: usize,
        block_length: usize,
        stride: i64,
        inner: PhysHandle,
    ) -> MpiResult<PhysHandle>;

    /// `MPI_Type_indexed`.
    fn type_indexed(
        &mut self,
        block_lengths: &[usize],
        displacements: &[i64],
        inner: PhysHandle,
    ) -> MpiResult<PhysHandle>;

    /// `MPI_Type_create_struct`.
    fn type_create_struct(
        &mut self,
        block_lengths: &[usize],
        byte_displacements: &[i64],
        types: &[PhysHandle],
    ) -> MpiResult<PhysHandle>;

    /// `MPI_Type_dup`.
    fn type_dup(&mut self, ty: PhysHandle) -> MpiResult<PhysHandle>;

    /// `MPI_Type_commit`.
    fn type_commit(&mut self, ty: PhysHandle) -> MpiResult<()>;

    /// `MPI_Type_free`.
    fn type_free(&mut self, ty: PhysHandle) -> MpiResult<()>;

    /// `MPI_Type_size`.
    fn type_size(&self, ty: PhysHandle) -> MpiResult<usize>;

    /// `MPI_Type_get_envelope`.
    fn type_get_envelope(&self, ty: PhysHandle) -> MpiResult<TypeEnvelope>;

    /// `MPI_Type_get_contents` (raw form; see [`RawTypeContents`]).
    fn type_get_contents(&self, ty: PhysHandle) -> MpiResult<RawTypeContents>;

    // ------------------------------------------------------------------
    // Reduction operations
    // ------------------------------------------------------------------

    /// `MPI_Op_create`: register a user reduction identified by an upper-half function
    /// id. The lower half resolves the id through the registry supplied at launch.
    fn op_create(&mut self, func_id: u64, commutative: bool) -> MpiResult<PhysHandle>;

    /// `MPI_Op_free`.
    fn op_free(&mut self, op: PhysHandle) -> MpiResult<()>;

    // ------------------------------------------------------------------
    // Point-to-point communication
    // ------------------------------------------------------------------

    /// `MPI_Send` (blocking standard-mode send).
    fn send(
        &mut self,
        buf: &[u8],
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<()>;

    /// `MPI_Send` taking an owned [`PayloadBuf`]: the zero-copy fast path. A caller
    /// that already holds (or can cheaply build) a refcounted buffer hands it to the
    /// fabric without any intermediate copy. The default forwards to [`MpiApi::send`]
    /// (one copy); the simulated implementations override it with a true hand-off.
    fn send_payload(
        &mut self,
        buf: PayloadBuf,
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<()> {
        self.send(&buf, datatype, dest, tag, comm)
    }

    /// `MPI_Recv` (blocking receive). `max_bytes` is the receive-buffer capacity.
    /// The returned buffer is the sender's allocation, shared — not a copy.
    fn recv(
        &mut self,
        datatype: PhysHandle,
        max_bytes: usize,
        source: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<(PayloadBuf, Status)>;

    /// `MPI_Isend`.
    fn isend(
        &mut self,
        buf: &[u8],
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<PhysHandle>;

    /// `MPI_Isend` taking an owned [`PayloadBuf`] (zero-copy, like
    /// [`MpiApi::send_payload`]).
    fn isend_payload(
        &mut self,
        buf: PayloadBuf,
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<PhysHandle> {
        self.isend(&buf, datatype, dest, tag, comm)
    }

    /// `MPI_Irecv`.
    fn irecv(
        &mut self,
        datatype: PhysHandle,
        max_bytes: usize,
        source: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<PhysHandle>;

    /// `MPI_Test`: non-blocking completion check. On completion returns the status and,
    /// for receive requests, the received payload (shared, not copied).
    fn test(&mut self, request: PhysHandle) -> MpiResult<Option<(Status, Option<PayloadBuf>)>>;

    /// `MPI_Wait`: block until the request completes.
    fn wait(&mut self, request: PhysHandle) -> MpiResult<(Status, Option<PayloadBuf>)>;

    /// `MPI_Iprobe`: check for a matching incoming message without receiving it.
    fn iprobe(&mut self, source: Rank, tag: Tag, comm: PhysHandle) -> MpiResult<Option<Status>>;

    // ------------------------------------------------------------------
    // Collective communication
    // ------------------------------------------------------------------

    /// Registration phase of the two-phase collective protocol: announce intent to
    /// enter the *next* collective on `comm` (a cheap "trivial barrier" round that
    /// moves no application data) and, unless this registration was the round's last
    /// and committed it, wait up to `patience` for the other members — one call, so
    /// a waiting rank enters the lower half once. Returns the ticket for
    /// [`MpiApi::collective_ready`] and [`MpiApi::collective_withdraw`], and whether
    /// the round has committed. Idempotent per round. `patience` is as for
    /// [`MpiApi::collective_ready`].
    fn collective_register(
        &mut self,
        comm: PhysHandle,
        patience: Option<Duration>,
    ) -> MpiResult<(RegistrationTicket, bool)>;

    /// Block until the registration round `ticket` commits (every member of the
    /// communicator has registered), for at most `patience`; `None` waits as long as
    /// the lower half lets any blocking call wait, and fails rather than hang if some
    /// member never registers. `Ok(false)` means `patience` ran out: the rank is
    /// still registered and may call again. Once committed, every member must
    /// proceed into the real collective — withdrawals fail from that point on.
    fn collective_ready(
        &mut self,
        ticket: RegistrationTicket,
        patience: Option<Duration>,
    ) -> MpiResult<bool>;

    /// Atomically withdraw this rank's registration from round `ticket`. `Ok(true)`
    /// means the rank is provably outside the collective (safe to service a
    /// checkpoint intent); `Ok(false)` means the round committed first and the rank
    /// is obliged to enter the collective.
    fn collective_withdraw(&mut self, ticket: RegistrationTicket) -> MpiResult<bool>;

    /// `MPI_Barrier`.
    fn barrier(&mut self, comm: PhysHandle) -> MpiResult<()>;

    /// `MPI_Bcast`: `buf` holds the payload at the root and receives it elsewhere.
    fn bcast(&mut self, buf: &mut Vec<u8>, root: Rank, comm: PhysHandle) -> MpiResult<()>;

    /// `MPI_Reduce`: returns `Some(result)` at the root, `None` elsewhere.
    fn reduce(
        &mut self,
        sendbuf: &[u8],
        datatype: PhysHandle,
        op: PhysHandle,
        root: Rank,
        comm: PhysHandle,
    ) -> MpiResult<Option<Vec<u8>>>;

    /// `MPI_Allreduce`.
    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        datatype: PhysHandle,
        op: PhysHandle,
        comm: PhysHandle,
    ) -> MpiResult<Vec<u8>>;

    /// `MPI_Alltoall` with equal-sized blocks of `block_bytes` bytes per peer.
    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        block_bytes: usize,
        comm: PhysHandle,
    ) -> MpiResult<Vec<u8>>;

    /// `MPI_Gather` of equal-sized contributions; returns the concatenation at the root.
    fn gather(
        &mut self,
        sendbuf: &[u8],
        root: Rank,
        comm: PhysHandle,
    ) -> MpiResult<Option<Vec<u8>>>;

    /// `MPI_Allgather` of equal-sized contributions.
    fn allgather(&mut self, sendbuf: &[u8], comm: PhysHandle) -> MpiResult<Vec<u8>>;

    /// `MPI_Scatter`: the root supplies `Some(concatenated blocks)`, everyone receives
    /// their `block_bytes`-byte block.
    fn scatter(
        &mut self,
        sendbuf: Option<&[u8]>,
        block_bytes: usize,
        root: Rank,
        comm: PhysHandle,
    ) -> MpiResult<Vec<u8>>;
}

/// Launches a complete lower half (all ranks) of a particular MPI implementation.
///
/// MANA uses a factory twice: once at job start, and once per restart — the essence of
/// transparent checkpointing is that the second launch produces *different* physical
/// handles and constant addresses, and the virtual-id layer hides that from the
/// application. The factory is also how the "checkpoint under implementation A, restart
/// under implementation B" experiment (paper §9) is expressed.
pub trait MpiImplementationFactory: Send + Sync {
    /// Name of the implementation this factory launches.
    fn name(&self) -> &'static str;

    /// Launch a fresh job of `world_size` ranks sharing one fabric. Element `i` of the
    /// returned vector is rank `i`'s lower half.
    ///
    /// `registry` gives the lower half access to upper-half user reduction functions
    /// (the function pointers stay in the upper half; only ids cross the boundary).
    ///
    /// `session` distinguishes launches: implementations whose constants are not stable
    /// across sessions (Open MPI, ExaMPI) use it to perturb their startup-resolved
    /// addresses, so tests can verify MANA never relies on constant stability.
    fn launch(
        &self,
        world_size: usize,
        registry: Arc<parking_lot::RwLock<UserFunctionRegistry>>,
        session: u64,
    ) -> MpiResult<Vec<Box<dyn MpiApi>>>;
}
