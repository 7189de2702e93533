//! The MANA wrapper (stub) functions: the MPI-like API the application calls.
//!
//! Every method translates application-visible [`AppHandle`]s (which embed MANA virtual
//! ids) into the lower half's physical handles, forwards the call, and wraps any
//! resulting physical handles in fresh virtual ids. Object-creating wrappers also
//! append to the replay log and fill in descriptor metadata so the object can be
//! reconstructed at restart. Each forwarded call is counted as one upper↔lower
//! crossing (plus the small number of bookkeeping calls creation wrappers make), which
//! is the quantity behind the paper's §6.3 context-switch analysis.

use crate::ckpt::INTENT_PATIENCE;
use crate::record::{CollectiveKind, CreationRecipe, ReplayEvent};
use crate::runtime::{AppHandle, ManaRank};
use crate::virtid::blank_descriptor;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::OpDescriptor;
use mpi_model::payload::PayloadBuf;
use mpi_model::request::{RequestKind, RequestRecord, RequestState};
use mpi_model::status::Status;
use mpi_model::types::{HandleKind, PhysHandle, Rank, Tag};

impl ManaRank {
    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&mut self, comm: AppHandle) -> MpiResult<Rank> {
        let phys = self.phys(comm, HandleKind::Comm)?;
        self.cross();
        self.lower.comm_rank(phys)
    }

    /// `MPI_Comm_size`.
    pub fn comm_size(&mut self, comm: AppHandle) -> MpiResult<usize> {
        let phys = self.phys(comm, HandleKind::Comm)?;
        self.cross();
        self.lower.comm_size(phys)
    }

    /// Register a newly created communicator: discover its membership from the lower
    /// half, enter a descriptor, and append a replay event.
    fn register_new_comm(
        &mut self,
        phys: PhysHandle,
        recipe: CreationRecipe,
    ) -> MpiResult<AppHandle> {
        if self.lower_comm_is_null(phys) {
            // Participation with a null result (e.g. MPI_UNDEFINED colour): record the
            // event so the collective call is replayed at restart, but hand the
            // application a null handle.
            self.replay_log.push(ReplayEvent::new(recipe, None));
            return Ok(AppHandle::NULL);
        }
        self.cross();
        let group = self.lower.comm_group(phys)?;
        self.cross();
        let members = self.lower.group_members(group)?;
        self.cross();
        self.lower.group_free(group)?;
        let vid = self
            .translator
            .insert_with(HandleKind::Comm, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Comm, phys);
                d.vid = vid;
                d.creation_seq = seq;
                d.members_world = Some(members.clone());
                d
            });
        self.replay_log.push(ReplayEvent::new(recipe, Some(vid)));
        Ok(AppHandle::from_virtual(vid))
    }

    fn lower_comm_is_null(&mut self, phys: PhysHandle) -> bool {
        // A physical handle that the lower half cannot size is its null communicator.
        self.lower.comm_size(phys).is_err()
    }

    /// `MPI_Comm_dup` (collective).
    pub fn comm_dup(&mut self, comm: AppHandle) -> MpiResult<AppHandle> {
        let vid = comm.virtual_id()?;
        let phys = self.phys(comm, HandleKind::Comm)?;
        self.cross();
        let new_phys = self.lower.comm_dup(phys)?;
        self.register_new_comm(new_phys, CreationRecipe::CommDup { parent: vid })
    }

    /// `MPI_Comm_split` (collective). `color == None` models `MPI_UNDEFINED`.
    pub fn comm_split(
        &mut self,
        comm: AppHandle,
        color: Option<i32>,
        key: i32,
    ) -> MpiResult<AppHandle> {
        let vid = comm.virtual_id()?;
        let phys = self.phys(comm, HandleKind::Comm)?;
        self.cross();
        let new_phys = self.lower.comm_split(phys, color, key)?;
        self.register_new_comm(
            new_phys,
            CreationRecipe::CommSplit {
                parent: vid,
                color,
                key,
            },
        )
    }

    /// `MPI_Comm_create` (collective) from a group handle.
    pub fn comm_create(&mut self, comm: AppHandle, group: AppHandle) -> MpiResult<AppHandle> {
        let comm_vid = comm.virtual_id()?;
        let comm_phys = self.phys(comm, HandleKind::Comm)?;
        let group_phys = self.phys(group, HandleKind::Group)?;
        let members_world = self
            .translator
            .get(group.virtual_id()?)?
            .members_world
            .clone()
            .ok_or_else(|| MpiError::Internal("group descriptor without members".into()))?;
        self.cross();
        let new_phys = self.lower.comm_create(comm_phys, group_phys)?;
        self.register_new_comm(
            new_phys,
            CreationRecipe::CommCreate {
                parent: comm_vid,
                members_world,
            },
        )
    }

    /// Reject frees of predefined objects: the standard makes freeing
    /// `MPI_COMM_WORLD`, a named datatype or a built-in op erroneous, and silently
    /// removing the descriptor would additionally break every later constant lookup
    /// on this rank. The descriptor (and the lower half) are left untouched.
    fn reject_predefined_free(&self, handle: AppHandle) -> MpiResult<()> {
        let vid = handle.virtual_id()?;
        if let Some(object) = self.translator.get(vid)?.predefined {
            return Err(MpiError::FreePredefined(object));
        }
        Ok(())
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&mut self, comm: AppHandle) -> MpiResult<()> {
        let vid = comm.virtual_id()?;
        let phys = self.phys(comm, HandleKind::Comm)?;
        self.reject_predefined_free(comm)?;
        self.cross();
        self.lower.comm_free(phys)?;
        self.translator.remove(vid)?;
        self.replay_log.mark_freed(vid);
        self.collectives.forget_comm(vid);
        Ok(())
    }

    /// `MPI_Comm_group`.
    pub fn comm_group(&mut self, comm: AppHandle) -> MpiResult<AppHandle> {
        let comm_vid = comm.virtual_id()?;
        let phys = self.phys(comm, HandleKind::Comm)?;
        self.cross();
        let group_phys = self.lower.comm_group(phys)?;
        self.cross();
        let members = self.lower.group_members(group_phys)?;
        let vid = self
            .translator
            .insert_with(HandleKind::Group, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Group, group_phys);
                d.vid = vid;
                d.creation_seq = seq;
                d.members_world = Some(members.clone());
                d
            });
        self.replay_log.push(ReplayEvent::new(
            CreationRecipe::GroupFromComm { comm: comm_vid },
            Some(vid),
        ));
        Ok(AppHandle::from_virtual(vid))
    }

    // ------------------------------------------------------------------
    // Group management
    // ------------------------------------------------------------------

    /// `MPI_Group_size`.
    pub fn group_size(&mut self, group: AppHandle) -> MpiResult<usize> {
        let phys = self.phys(group, HandleKind::Group)?;
        self.cross();
        self.lower.group_size(phys)
    }

    /// `MPI_Group_incl`.
    pub fn group_incl(&mut self, group: AppHandle, ranks: &[Rank]) -> MpiResult<AppHandle> {
        let parent_vid = group.virtual_id()?;
        let phys = self.phys(group, HandleKind::Group)?;
        self.cross();
        let new_phys = self.lower.group_incl(phys, ranks)?;
        self.cross();
        let members = self.lower.group_members(new_phys)?;
        let vid = self
            .translator
            .insert_with(HandleKind::Group, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Group, new_phys);
                d.vid = vid;
                d.creation_seq = seq;
                d.members_world = Some(members.clone());
                d
            });
        self.replay_log.push(ReplayEvent::new(
            CreationRecipe::GroupIncl {
                parent: parent_vid,
                ranks: ranks.to_vec(),
            },
            Some(vid),
        ));
        Ok(AppHandle::from_virtual(vid))
    }

    /// `MPI_Group_translate_ranks`.
    pub fn group_translate_ranks(
        &mut self,
        group: AppHandle,
        ranks: &[Rank],
        other: AppHandle,
    ) -> MpiResult<Vec<Rank>> {
        let a = self.phys(group, HandleKind::Group)?;
        let b = self.phys(other, HandleKind::Group)?;
        self.cross();
        self.lower.group_translate_ranks(a, ranks, b)
    }

    /// `MPI_Group_free`.
    pub fn group_free(&mut self, group: AppHandle) -> MpiResult<()> {
        let vid = group.virtual_id()?;
        let phys = self.phys(group, HandleKind::Group)?;
        self.reject_predefined_free(group)?;
        self.cross();
        self.lower.group_free(phys)?;
        self.translator.remove(vid)?;
        self.replay_log.mark_freed(vid);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Datatype management
    // ------------------------------------------------------------------

    fn register_new_datatype(
        &mut self,
        phys: PhysHandle,
        descriptor: mpi_model::datatype::TypeDescriptor,
    ) -> AppHandle {
        let vid = self
            .translator
            .insert_with(HandleKind::Datatype, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Datatype, phys);
                d.vid = vid;
                d.creation_seq = seq;
                d.datatype = Some(descriptor.clone());
                d
            });
        self.replay_log.push(ReplayEvent::new(
            CreationRecipe::DerivedDatatype {
                descriptor,
                committed: false,
            },
            Some(vid),
        ));
        AppHandle::from_virtual(vid)
    }

    fn inner_type_descriptor(
        &self,
        inner: AppHandle,
    ) -> MpiResult<mpi_model::datatype::TypeDescriptor> {
        self.translator
            .get(inner.virtual_id()?)?
            .datatype
            .clone()
            .ok_or_else(|| MpiError::Internal("datatype descriptor missing structure".into()))
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(&mut self, count: usize, inner: AppHandle) -> MpiResult<AppHandle> {
        // Kind check first: a non-datatype handle fails with `WrongKind` naming the
        // expected vs. actual kind, never with a generic missing-metadata error.
        let inner_phys = self.phys(inner, HandleKind::Datatype)?;
        let inner_desc = self.inner_type_descriptor(inner)?;
        self.cross();
        let phys = self.lower.type_contiguous(count, inner_phys)?;
        Ok(self.register_new_datatype(
            phys,
            mpi_model::datatype::TypeDescriptor::Contiguous {
                count,
                inner: Box::new(inner_desc),
            },
        ))
    }

    /// `MPI_Type_vector`.
    pub fn type_vector(
        &mut self,
        count: usize,
        block_length: usize,
        stride: i64,
        inner: AppHandle,
    ) -> MpiResult<AppHandle> {
        let inner_phys = self.phys(inner, HandleKind::Datatype)?;
        let inner_desc = self.inner_type_descriptor(inner)?;
        self.cross();
        let phys = self
            .lower
            .type_vector(count, block_length, stride, inner_phys)?;
        Ok(self.register_new_datatype(
            phys,
            mpi_model::datatype::TypeDescriptor::Vector {
                count,
                block_length,
                stride,
                inner: Box::new(inner_desc),
            },
        ))
    }

    /// `MPI_Type_indexed`.
    pub fn type_indexed(
        &mut self,
        block_lengths: &[usize],
        displacements: &[i64],
        inner: AppHandle,
    ) -> MpiResult<AppHandle> {
        let inner_phys = self.phys(inner, HandleKind::Datatype)?;
        let inner_desc = self.inner_type_descriptor(inner)?;
        self.cross();
        let phys = self
            .lower
            .type_indexed(block_lengths, displacements, inner_phys)?;
        Ok(self.register_new_datatype(
            phys,
            mpi_model::datatype::TypeDescriptor::Indexed {
                block_lengths: block_lengths.to_vec(),
                displacements: displacements.to_vec(),
                inner: Box::new(inner_desc),
            },
        ))
    }

    /// `MPI_Type_create_struct`.
    pub fn type_create_struct(
        &mut self,
        block_lengths: &[usize],
        byte_displacements: &[i64],
        members: &[AppHandle],
    ) -> MpiResult<AppHandle> {
        let mut member_phys = Vec::with_capacity(members.len());
        let mut member_descs = Vec::with_capacity(members.len());
        for &member in members {
            member_phys.push(self.phys(member, HandleKind::Datatype)?);
            member_descs.push(self.inner_type_descriptor(member)?);
        }
        self.cross();
        let phys =
            self.lower
                .type_create_struct(block_lengths, byte_displacements, &member_phys)?;
        Ok(self.register_new_datatype(
            phys,
            mpi_model::datatype::TypeDescriptor::Struct {
                block_lengths: block_lengths.to_vec(),
                byte_displacements: byte_displacements.to_vec(),
                types: member_descs,
            },
        ))
    }

    /// `MPI_Type_dup`.
    pub fn type_dup(&mut self, inner: AppHandle) -> MpiResult<AppHandle> {
        let inner_phys = self.phys(inner, HandleKind::Datatype)?;
        let inner_desc = self.inner_type_descriptor(inner)?;
        self.cross();
        let phys = self.lower.type_dup(inner_phys)?;
        Ok(self.register_new_datatype(
            phys,
            mpi_model::datatype::TypeDescriptor::Dup(Box::new(inner_desc)),
        ))
    }

    /// `MPI_Type_commit`.
    pub fn type_commit(&mut self, datatype: AppHandle) -> MpiResult<()> {
        let vid = datatype.virtual_id()?;
        let phys = self.phys(datatype, HandleKind::Datatype)?;
        self.cross();
        self.lower.type_commit(phys)?;
        // Remember commitment in the replay log so restart re-commits.
        if let Some(event) = self
            .replay_log
            .events()
            .iter()
            .position(|e| e.vid == Some(vid))
        {
            if let CreationRecipe::DerivedDatatype { committed, .. } =
                &mut self.replay_log.event_mut(event).recipe
            {
                *committed = true;
            }
        }
        Ok(())
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, datatype: AppHandle) -> MpiResult<()> {
        let vid = datatype.virtual_id()?;
        let phys = self.phys(datatype, HandleKind::Datatype)?;
        self.reject_predefined_free(datatype)?;
        self.cross();
        self.lower.type_free(phys)?;
        self.translator.remove(vid)?;
        self.replay_log.mark_freed(vid);
        Ok(())
    }

    /// `MPI_Type_size`.
    pub fn type_size(&mut self, datatype: AppHandle) -> MpiResult<usize> {
        let phys = self.phys(datatype, HandleKind::Datatype)?;
        self.cross();
        self.lower.type_size(phys)
    }

    // ------------------------------------------------------------------
    // Reduction operations
    // ------------------------------------------------------------------

    /// `MPI_Op_create`.
    pub fn op_create(&mut self, func_id: u64, commutative: bool) -> MpiResult<AppHandle> {
        self.cross();
        let phys = self.lower.op_create(func_id, commutative)?;
        let vid = self
            .translator
            .insert_with(HandleKind::Op, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Op, phys);
                d.vid = vid;
                d.creation_seq = seq;
                d.op = Some(OpDescriptor::User {
                    func_id,
                    commutative,
                });
                d
            });
        self.replay_log.push(ReplayEvent::new(
            CreationRecipe::UserOp {
                func_id,
                commutative,
            },
            Some(vid),
        ));
        Ok(AppHandle::from_virtual(vid))
    }

    /// `MPI_Op_free`.
    pub fn op_free(&mut self, op: AppHandle) -> MpiResult<()> {
        let vid = op.virtual_id()?;
        let phys = self.phys(op, HandleKind::Op)?;
        self.reject_predefined_free(op)?;
        self.cross();
        self.lower.op_free(phys)?;
        self.translator.remove(vid)?;
        self.replay_log.mark_freed(vid);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point-to-point communication
    // ------------------------------------------------------------------

    /// `MPI_Send`.
    pub fn send(
        &mut self,
        buf: &[u8],
        datatype: AppHandle,
        dest: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<()> {
        let comm_vid = comm.virtual_id()?;
        let comm_phys = self.phys(comm, HandleKind::Comm)?;
        let type_phys = self.phys(datatype, HandleKind::Datatype)?;
        let dest_world = self.peer_world_rank(comm_vid, dest)?;
        self.cross();
        self.lower.send(buf, type_phys, dest, tag, comm_phys)?;
        self.counters.sent_to[dest_world as usize] += 1;
        Ok(())
    }

    /// `MPI_Send` of an owned buffer: the zero-copy fast path.
    ///
    /// The caller hands over a [`PayloadBuf`] (encoded in place with
    /// [`PayloadBuf::filled`], as the typed session does, or converted from a
    /// `Vec<u8>` at the price of one copy), and the buffer crosses the wrapper, the
    /// lower half and the fabric as a refcount hand-off — no byte is copied from
    /// here on.
    pub fn send_payload(
        &mut self,
        buf: PayloadBuf,
        datatype: AppHandle,
        dest: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<()> {
        let comm_vid = comm.virtual_id()?;
        let comm_phys = self.phys(comm, HandleKind::Comm)?;
        let type_phys = self.phys(datatype, HandleKind::Datatype)?;
        let dest_world = self.peer_world_rank(comm_vid, dest)?;
        self.cross();
        self.lower
            .send_payload(buf, type_phys, dest, tag, comm_phys)?;
        self.counters.sent_to[dest_world as usize] += 1;
        Ok(())
    }

    /// `MPI_Recv`.
    ///
    /// Messages drained into the upper-half buffer at a previous checkpoint are
    /// delivered first; only then does the call cross into the lower half.
    pub fn recv(
        &mut self,
        datatype: AppHandle,
        max_bytes: usize,
        source: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<(PayloadBuf, Status)> {
        let comm_vid = comm.virtual_id()?;
        // Peek before taking: a truncation error must leave the drained message
        // buffered, so a retry with a large enough buffer still receives it.
        if let Some((status, payload)) =
            self.take_buffered_checked(comm_vid, source, tag, max_bytes)?
        {
            return Ok((payload, status));
        }
        let comm_phys = self.phys(comm, HandleKind::Comm)?;
        let type_phys = self.phys(datatype, HandleKind::Datatype)?;
        self.cross();
        let (payload, status) = self
            .lower
            .recv(type_phys, max_bytes, source, tag, comm_phys)?;
        let source_world = self.peer_world_rank(comm_vid, status.source)?;
        self.counters.received_from[source_world as usize] += 1;
        Ok((payload, status))
    }

    /// `MPI_Isend`. The underlying protocol is eager, so the request completes at post
    /// time; the request object exists purely in the upper half.
    pub fn isend(
        &mut self,
        buf: &[u8],
        datatype: AppHandle,
        dest: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<AppHandle> {
        self.send(buf, datatype, dest, tag, comm)?;
        self.record_eager_send(buf.len(), dest, tag, comm)
    }

    /// `MPI_Isend` of an owned buffer: the zero-copy counterpart of
    /// [`ManaRank::send_payload`] for the non-blocking path.
    pub fn isend_payload(
        &mut self,
        buf: PayloadBuf,
        datatype: AppHandle,
        dest: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<AppHandle> {
        let len = buf.len();
        self.send_payload(buf, datatype, dest, tag, comm)?;
        self.record_eager_send(len, dest, tag, comm)
    }

    /// Enter the upper-half request descriptor for an already-completed eager send.
    fn record_eager_send(
        &mut self,
        len: usize,
        dest: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<AppHandle> {
        let comm_vid = comm.virtual_id()?;
        let mut record = RequestRecord::pending(
            RequestKind::Send,
            dest,
            tag,
            PhysHandle(comm_vid.bits() as u64),
            len,
        );
        record.complete(Status::new(dest, tag, len));
        let vid = self
            .translator
            .insert_with(HandleKind::Request, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Request, PhysHandle::NULL);
                d.vid = vid;
                d.creation_seq = seq;
                d.request = Some(record.clone());
                d
            });
        Ok(AppHandle::from_virtual(vid))
    }

    /// `MPI_Irecv`. MANA defers posting anything to the lower half: the request is
    /// recorded in the upper half and satisfied at `wait`/`test` time, first from the
    /// drained-message buffer and then from the network. This is what guarantees that
    /// no rank is ever blocked inside the lower half at checkpoint time (paper §2.1).
    pub fn irecv(
        &mut self,
        datatype: AppHandle,
        max_bytes: usize,
        source: Rank,
        tag: Tag,
        comm: AppHandle,
    ) -> MpiResult<AppHandle> {
        // The datatype is not needed until completion (the deferred receive uses
        // MPI_BYTE), but its kind is still validated at post time, like every other
        // argument position.
        let _ = self.phys(datatype, HandleKind::Datatype)?;
        let comm_vid = comm.virtual_id()?;
        let record = RequestRecord::pending(
            RequestKind::Recv,
            source,
            tag,
            PhysHandle(comm_vid.bits() as u64),
            max_bytes,
        );
        let vid = self
            .translator
            .insert_with(HandleKind::Request, None, |vid, seq| {
                let mut d = blank_descriptor(HandleKind::Request, PhysHandle::NULL);
                d.vid = vid;
                d.creation_seq = seq;
                d.request = Some(record.clone());
                d
            });
        Ok(AppHandle::from_virtual(vid))
    }

    fn request_record(&self, request: AppHandle) -> MpiResult<RequestRecord> {
        self.translator
            .get(request.virtual_id()?)?
            .request
            .clone()
            .ok_or_else(|| MpiError::Internal("request descriptor without a record".into()))
    }

    /// `MPI_Wait`. For receive requests the payload is returned alongside the status.
    ///
    /// The request is consumed whether the wait completes or fails: the descriptor is
    /// removed on the error path too, so a failing lower-half receive (or a peer
    /// translation failure) cannot leak the virtual id.
    pub fn wait(&mut self, request: AppHandle) -> MpiResult<(Status, Option<PayloadBuf>)> {
        let vid = request.virtual_id()?;
        let record = self.request_record(request)?;
        match self.wait_complete(&record) {
            Ok(result) => {
                self.translator.remove(vid)?;
                Ok(result)
            }
            Err(error) => {
                let _ = self.translator.remove(vid);
                Err(error)
            }
        }
    }

    /// The completion half of [`ManaRank::wait`], separated so the caller can remove
    /// the request descriptor on success *and* failure alike.
    fn wait_complete(&mut self, record: &RequestRecord) -> MpiResult<(Status, Option<PayloadBuf>)> {
        match record.kind {
            RequestKind::Send => match record.state {
                RequestState::Complete(status) => Ok((status, None)),
                _ => Err(MpiError::Internal("eager send request left pending".into())),
            },
            RequestKind::Recv => {
                let comm_vid = crate::virtid::VirtualId::from_bits(record.comm.bits() as u32)
                    .ok_or_else(|| MpiError::Internal("request with bad comm vid".into()))?;
                if let Some((status, payload)) =
                    self.take_buffered_checked(comm_vid, record.peer, record.tag, record.bytes)?
                {
                    Ok((status, Some(payload)))
                } else {
                    let comm_phys = self.translator.virtual_to_physical(comm_vid)?;
                    let byte_type =
                        self.constant(mpi_model::constants::PredefinedObject::Datatype(
                            mpi_model::datatype::PrimitiveType::Byte,
                        ))?;
                    let type_phys = self.phys(byte_type, HandleKind::Datatype)?;
                    self.cross();
                    let (payload, status) = self.lower.recv(
                        type_phys,
                        record.bytes,
                        record.peer,
                        record.tag,
                        comm_phys,
                    )?;
                    let source_world = self.peer_world_rank(comm_vid, status.source)?;
                    self.counters.received_from[source_world as usize] += 1;
                    Ok((status, Some(payload)))
                }
            }
        }
    }

    /// `MPI_Test`: non-blocking completion check.
    ///
    /// A request that is still pending stays live (retryable); a request that
    /// completes — or whose completion attempt *fails* — is consumed, so error paths
    /// cannot leak the descriptor.
    pub fn test(&mut self, request: AppHandle) -> MpiResult<Option<(Status, Option<PayloadBuf>)>> {
        let vid = request.virtual_id()?;
        let record = self.request_record(request)?;
        match self.test_complete(&record) {
            Ok(None) => Ok(None),
            Ok(Some(result)) => {
                self.translator.remove(vid)?;
                Ok(Some(result))
            }
            Err(error) => {
                let _ = self.translator.remove(vid);
                Err(error)
            }
        }
    }

    /// The completion half of [`ManaRank::test`]; `Ok(None)` means "not yet".
    fn test_complete(
        &mut self,
        record: &RequestRecord,
    ) -> MpiResult<Option<(Status, Option<PayloadBuf>)>> {
        match record.kind {
            RequestKind::Send => match record.state {
                RequestState::Complete(status) => Ok(Some((status, None))),
                _ => Err(MpiError::Internal("eager send request left pending".into())),
            },
            RequestKind::Recv => {
                let comm_vid = crate::virtid::VirtualId::from_bits(record.comm.bits() as u32)
                    .ok_or_else(|| MpiError::Internal("request with bad comm vid".into()))?;
                if let Some((status, payload)) =
                    self.take_buffered_checked(comm_vid, record.peer, record.tag, record.bytes)?
                {
                    return Ok(Some((status, Some(payload))));
                }
                let comm_phys = self.translator.virtual_to_physical(comm_vid)?;
                self.cross();
                match self.lower.iprobe(record.peer, record.tag, comm_phys)? {
                    None => Ok(None),
                    Some(_) => {
                        let byte_type =
                            self.constant(mpi_model::constants::PredefinedObject::Datatype(
                                mpi_model::datatype::PrimitiveType::Byte,
                            ))?;
                        let type_phys = self.phys(byte_type, HandleKind::Datatype)?;
                        self.cross();
                        let (payload, status) = self.lower.recv(
                            type_phys,
                            record.bytes,
                            record.peer,
                            record.tag,
                            comm_phys,
                        )?;
                        let source_world = self.peer_world_rank(comm_vid, status.source)?;
                        self.counters.received_from[source_world as usize] += 1;
                        Ok(Some((status, Some(payload))))
                    }
                }
            }
        }
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, source: Rank, tag: Tag, comm: AppHandle) -> MpiResult<Option<Status>> {
        let comm_vid = comm.virtual_id()?;
        // A buffered (drained) message satisfies the probe without touching the network.
        if let Some(found) = self.buffered.iter().find(|m| {
            m.comm == comm_vid
                && (source == mpi_model::types::ANY_SOURCE || m.source == source)
                && (tag == mpi_model::types::ANY_TAG || m.tag == tag)
        }) {
            return Ok(Some(Status::new(
                found.source,
                found.tag,
                found.payload.len(),
            )));
        }
        let comm_phys = self.phys(comm, HandleKind::Comm)?;
        self.cross();
        self.lower.iprobe(source, tag, comm_phys)
    }

    // ------------------------------------------------------------------
    // Collective communication (two-phase protocol)
    // ------------------------------------------------------------------

    /// Run one collective, through the two-phase protocol where a rank can take a
    /// checkpoint intent inside it (see [`ManaRank::runs_registration_round`]).
    ///
    /// Phase one — **registration** ("trivial barrier"): the wrapper publishes the
    /// collective's sequence number into the upper half ([`crate::record::CollectiveLog`])
    /// and announces itself on the lower half's registration board, then waits until
    /// every member of the communicator has registered. While waiting, the rank sits
    /// at a *safe point*: a broadcast checkpoint intent is serviced by atomically
    /// withdrawing the registration (which fails if and only if the round already
    /// committed) and running the coordinated checkpoint, after which the rank
    /// re-registers. Phase two — the **critical phase**: once the round commits,
    /// every member is obliged to run the real lower-half collective promptly and
    /// without checkpointing, so at checkpoint time every rank provably sits either
    /// before or after the collective, never inside it. With the round, a collective
    /// is two crossings: the registration and the collective itself.
    ///
    /// Intents are serviced *only* at registration-phase safe points (wrapper entry,
    /// or withdrawal from an uncommitted round) and at the orchestrator's step
    /// boundary — all points at which the upper-half state is the same deterministic
    /// step prefix on every rank. There is deliberately **no** safe point right after
    /// the critical phase: an intent landing in that window could be observed by some
    /// ranks before and others after the step's post-collective state mutation,
    /// committing a generation whose ranks disagree about how much of the step ran.
    /// An intent that arrives during the critical phase therefore waits for the next
    /// registration or boundary.
    ///
    /// Every other rank runs the collective directly, in one crossing: a rank
    /// without an intercept is checkpointed only at step boundaries, where it sits
    /// outside every collective by construction, and a lower half without
    /// [`CollectiveRegistration`] cannot host the round. Sequence numbers are
    /// published on both paths, so checkpoint-time epoch agreement and the
    /// checkpoint bytes do not depend on which one ran.
    ///
    /// [`CollectiveRegistration`]: mpi_model::subset::SubsetFeature::CollectiveRegistration
    fn two_phase_collective<R>(
        &mut self,
        comm: AppHandle,
        kind: CollectiveKind,
        body: impl FnOnce(&mut Self, PhysHandle) -> MpiResult<R>,
    ) -> MpiResult<R> {
        let comm_vid = comm.virtual_id()?;
        let phys = self.phys(comm, HandleKind::Comm)?;
        let registration = self.runs_registration_round();
        if registration {
            // Safe point: an intent that arrived since the last wrapper call is
            // serviced before this collective begins.
            self.service_pending_intent()?;
        }
        let seq = self.collectives.begin(comm_vid, kind)?;
        let result = if registration {
            self.register_and_await(phys)
                .and_then(|()| body(self, phys))
        } else {
            body(self, phys)
        };
        match result {
            Ok(value) => {
                self.collectives.complete(comm_vid, seq)?;
                Ok(value)
            }
            Err(error) => {
                // The collective never completed (a failed round, or a vacating
                // preemption unwinding out of the registration phase): release the
                // pending registration so the sequence number is not consumed and
                // later collectives on this rank are not poisoned.
                self.collectives.abort(comm_vid, seq);
                Err(error)
            }
        }
    }

    /// The registration phase of the two-phase protocol: register and wait for the
    /// round to commit, servicing checkpoint intents by withdraw-checkpoint-re-register
    /// while it has not. The wait happens in the lower half, parked until the last
    /// registrant wakes it: the registering call itself waits out the first slice (a
    /// rank whose own registration commits the round never waits at all), and the
    /// slices ([`INTENT_PATIENCE`]) are short enough to look for an intent between
    /// them. A round that never commits — a peer died before registering, or never
    /// registers because it has no intercept — fails the wait with the lower half's
    /// blocking timeout instead of hanging.
    fn register_and_await(&mut self, phys: PhysHandle) -> MpiResult<()> {
        'register: loop {
            self.cross();
            let (ticket, mut committed) = self
                .lower
                .collective_register(phys, Some(INTENT_PATIENCE))?;
            while !committed {
                if self.intent_pending() {
                    self.cross();
                    if self.lower.collective_withdraw(ticket)? {
                        // Provably outside the collective: service the checkpoint,
                        // then start the registration over.
                        self.service_pending_intent()?;
                        continue 'register;
                    }
                    // The round committed before the withdrawal: this rank is
                    // obliged to enter the collective; the intent is serviced at
                    // the next registration or step-boundary safe point.
                    return Ok(());
                }
                self.cross();
                committed = self.lower.collective_ready(ticket, Some(INTENT_PATIENCE))?;
            }
            return Ok(());
        }
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: AppHandle) -> MpiResult<()> {
        self.two_phase_collective(comm, CollectiveKind::Barrier, |rank, phys| {
            rank.cross();
            rank.lower.barrier(phys)
        })
    }

    /// `MPI_Bcast`.
    pub fn bcast(&mut self, buf: &mut Vec<u8>, root: Rank, comm: AppHandle) -> MpiResult<()> {
        self.two_phase_collective(comm, CollectiveKind::Bcast, |rank, phys| {
            rank.cross();
            rank.lower.bcast(buf, root, phys)
        })
    }

    /// `MPI_Reduce`.
    pub fn reduce(
        &mut self,
        sendbuf: &[u8],
        datatype: AppHandle,
        op: AppHandle,
        root: Rank,
        comm: AppHandle,
    ) -> MpiResult<Option<Vec<u8>>> {
        let type_phys = self.phys(datatype, HandleKind::Datatype)?;
        let op_phys = self.phys(op, HandleKind::Op)?;
        self.two_phase_collective(comm, CollectiveKind::Reduce, |rank, phys| {
            rank.cross();
            rank.lower.reduce(sendbuf, type_phys, op_phys, root, phys)
        })
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &mut self,
        sendbuf: &[u8],
        datatype: AppHandle,
        op: AppHandle,
        comm: AppHandle,
    ) -> MpiResult<Vec<u8>> {
        let type_phys = self.phys(datatype, HandleKind::Datatype)?;
        let op_phys = self.phys(op, HandleKind::Op)?;
        self.two_phase_collective(comm, CollectiveKind::Allreduce, |rank, phys| {
            rank.cross();
            rank.lower.allreduce(sendbuf, type_phys, op_phys, phys)
        })
    }

    /// `MPI_Alltoall` with equal block sizes.
    pub fn alltoall(
        &mut self,
        sendbuf: &[u8],
        block_bytes: usize,
        comm: AppHandle,
    ) -> MpiResult<Vec<u8>> {
        self.two_phase_collective(comm, CollectiveKind::Alltoall, |rank, phys| {
            rank.cross();
            rank.lower.alltoall(sendbuf, block_bytes, phys)
        })
    }

    /// `MPI_Gather` of equal-sized contributions.
    pub fn gather(
        &mut self,
        sendbuf: &[u8],
        root: Rank,
        comm: AppHandle,
    ) -> MpiResult<Option<Vec<u8>>> {
        self.two_phase_collective(comm, CollectiveKind::Gather, |rank, phys| {
            rank.cross();
            rank.lower.gather(sendbuf, root, phys)
        })
    }

    /// `MPI_Allgather` of equal-sized contributions.
    pub fn allgather(&mut self, sendbuf: &[u8], comm: AppHandle) -> MpiResult<Vec<u8>> {
        self.two_phase_collective(comm, CollectiveKind::Allgather, |rank, phys| {
            rank.cross();
            rank.lower.allgather(sendbuf, phys)
        })
    }

    /// `MPI_Scatter`.
    pub fn scatter(
        &mut self,
        sendbuf: Option<&[u8]>,
        block_bytes: usize,
        root: Rank,
        comm: AppHandle,
    ) -> MpiResult<Vec<u8>> {
        self.two_phase_collective(comm, CollectiveKind::Scatter, |rank, phys| {
            rank.cross();
            rank.lower.scatter(sendbuf, block_bytes, root, phys)
        })
    }
}
