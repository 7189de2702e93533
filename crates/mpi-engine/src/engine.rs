//! The generic MPI engine: standard MPI semantics over a [`HandleCodec`] and a
//! [`net_sim::Endpoint`].

use crate::codec::HandleCodec;
use crate::objects::{CommObject, GroupObject, OpObject, RequestObject, TypeObject};
use crate::store::ObjectStore;
use mpi_model::api::{MpiApi, RawTypeContents};
use mpi_model::buffer::{bytes_to_u64, u64_to_bytes};
use mpi_model::comm::{split_groups, CommDescriptor, SplitContribution};
use mpi_model::constants::{ConstantResolution, PredefinedObject};
use mpi_model::datatype::{PrimitiveType, TypeDescriptor, TypeEnvelope};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::group::GroupDescriptor;
use mpi_model::op::{apply_op, OpDescriptor, UserFunctionRegistry};
use mpi_model::payload::PayloadBuf;
use mpi_model::request::{RequestKind, RequestRecord, RequestState};
use mpi_model::status::Status;
use mpi_model::subset::SubsetFeature;
use mpi_model::types::{HandleKind, PhysHandle, Rank, RegistrationTicket, Tag};
use net_sim::message::MatchSpec;
use net_sim::Endpoint;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Static configuration describing one implementation's personality.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Implementation name ("mpich", "openmpi", "exampi", "craympi", ...).
    pub name: &'static str,
    /// Constant resolution policy reported by this implementation. Under
    /// [`ConstantResolution::LazySharedPointer`] predefined constants materialize on
    /// first use (ExaMPI); under every other policy, eagerly at init.
    pub resolution: ConstantResolution,
    /// Features this implementation provides; anything else returns `Unsupported`.
    pub features: &'static [SubsetFeature],
}

/// One rank's lower half: MPI semantics generic over the handle codec.
pub struct Engine<C: HandleCodec> {
    config: EngineConfig,
    codec: C,
    endpoint: Endpoint,
    registry: Arc<RwLock<UserFunctionRegistry>>,
    session: u64,
    world_rank: Rank,
    world_size: usize,
    finalized: bool,

    comms: ObjectStore<CommObject>,
    groups: ObjectStore<GroupObject>,
    types: ObjectStore<TypeObject>,
    ops: ObjectStore<OpObject>,
    requests: ObjectStore<RequestObject>,

    constants: HashMap<PredefinedObject, PhysHandle>,
}

impl<C: HandleCodec> Engine<C> {
    /// Construct one rank's engine on top of a fabric endpoint.
    pub fn new(
        config: EngineConfig,
        codec: C,
        endpoint: Endpoint,
        registry: Arc<RwLock<UserFunctionRegistry>>,
        session: u64,
    ) -> Self {
        let world_rank = endpoint.world_rank();
        let world_size = endpoint.world_size();
        let mut engine = Engine {
            config,
            codec,
            endpoint,
            registry,
            session,
            world_rank,
            world_size,
            finalized: false,
            comms: ObjectStore::new(HandleKind::Comm),
            groups: ObjectStore::new(HandleKind::Group),
            types: ObjectStore::new(HandleKind::Datatype),
            ops: ObjectStore::new(HandleKind::Op),
            requests: ObjectStore::new(HandleKind::Request),
            constants: HashMap::new(),
        };
        if engine.config.resolution != ConstantResolution::LazySharedPointer {
            for object in PredefinedObject::all() {
                #[expect(
                    clippy::expect_used,
                    reason = "infallible by construction — predefined objects materialize into freshly created empty stores, and the constructor has no Result channel"
                )]
                engine
                    .materialize_constant(object)
                    .expect("materializing predefined constants cannot fail");
            }
        }
        engine
    }

    /// The session number this lower half was launched with.
    pub fn session(&self) -> u64 {
        self.session
    }

    fn check_initialized(&self) -> MpiResult<()> {
        if self.finalized {
            Err(MpiError::NotInitialized)
        } else {
            Ok(())
        }
    }

    fn require(&self, feature: SubsetFeature, name: &'static str) -> MpiResult<()> {
        if self.config.features.contains(&feature) {
            Ok(())
        } else {
            Err(MpiError::Unsupported { feature: name })
        }
    }

    /// The gate in front of every registration-board call.
    fn require_registration(&self) -> MpiResult<()> {
        self.check_initialized()?;
        self.require(
            SubsetFeature::CollectiveRegistration,
            "collective registration",
        )
    }

    // ------------------------------------------------------------------
    // Handle decoding helpers
    // ------------------------------------------------------------------

    fn decode_kind(&self, handle: PhysHandle, kind: HandleKind) -> MpiResult<u32> {
        match self.codec.decode(handle) {
            Some((k, index)) if k == kind => Ok(index),
            Some((k, _)) => Err(MpiError::WrongKind {
                expected: kind,
                found: k,
            }),
            None => Err(MpiError::InvalidHandle { kind, handle }),
        }
    }

    fn comm_index(&self, handle: PhysHandle) -> MpiResult<u32> {
        self.decode_kind(handle, HandleKind::Comm)
    }

    fn group_index(&self, handle: PhysHandle) -> MpiResult<u32> {
        self.decode_kind(handle, HandleKind::Group)
    }

    fn type_index(&self, handle: PhysHandle) -> MpiResult<u32> {
        self.decode_kind(handle, HandleKind::Datatype)
    }

    fn op_index(&self, handle: PhysHandle) -> MpiResult<u32> {
        self.decode_kind(handle, HandleKind::Op)
    }

    fn request_index(&self, handle: PhysHandle) -> MpiResult<u32> {
        self.decode_kind(handle, HandleKind::Request)
    }

    fn encode(
        &mut self,
        kind: HandleKind,
        index: u32,
        predefined: Option<PredefinedObject>,
    ) -> PhysHandle {
        self.codec.encode(kind, index, self.session, predefined)
    }

    // ------------------------------------------------------------------
    // Constants
    // ------------------------------------------------------------------

    fn materialize_constant(&mut self, object: PredefinedObject) -> MpiResult<PhysHandle> {
        if let Some(&handle) = self.constants.get(&object) {
            return Ok(handle);
        }
        let handle = match object {
            PredefinedObject::CommWorld => {
                let idx = self.comms.insert(CommObject::new(
                    CommDescriptor::world(self.world_size),
                    true,
                ));
                self.encode(HandleKind::Comm, idx, Some(object))
            }
            PredefinedObject::CommSelf => {
                let idx = self.comms.insert(CommObject::new(
                    CommDescriptor::self_comm(self.world_rank),
                    true,
                ));
                self.encode(HandleKind::Comm, idx, Some(object))
            }
            PredefinedObject::CommNull => self.codec.null(HandleKind::Comm),
            PredefinedObject::GroupEmpty => {
                let idx = self.groups.insert(GroupObject {
                    descriptor: GroupDescriptor::empty(),
                    predefined: true,
                });
                self.encode(HandleKind::Group, idx, Some(object))
            }
            PredefinedObject::GroupNull => self.codec.null(HandleKind::Group),
            PredefinedObject::RequestNull => self.codec.null(HandleKind::Request),
            PredefinedObject::OpNull => self.codec.null(HandleKind::Op),
            PredefinedObject::DatatypeNull => self.codec.null(HandleKind::Datatype),
            PredefinedObject::Datatype(p) => {
                let idx = self.types.insert(TypeObject {
                    descriptor: TypeDescriptor::Primitive(p),
                    children: vec![],
                    committed: true,
                    predefined: true,
                });
                self.encode(HandleKind::Datatype, idx, Some(object))
            }
            PredefinedObject::Op(o) => {
                let idx = self.ops.insert(OpObject {
                    descriptor: OpDescriptor::Predefined(o),
                    predefined: true,
                });
                self.encode(HandleKind::Op, idx, Some(object))
            }
        };
        self.constants.insert(object, handle);
        Ok(handle)
    }

    // ------------------------------------------------------------------
    // Collectives plumbing
    // ------------------------------------------------------------------

    /// Run one round of the fabric's collective exchange over a communicator.
    /// Contributions and results are [`PayloadBuf`]s: the fabric shares one buffer
    /// per contributor across all readers, so an N-way fan-out moves no bytes.
    fn exchange(
        &mut self,
        comm_index: u32,
        contribution: impl Into<PayloadBuf>,
    ) -> MpiResult<Vec<PayloadBuf>> {
        let (context, seq, my_index, size) = {
            let comm = self.comms.get_mut(comm_index)?;
            let my_index =
                comm.descriptor
                    .rank_of(self.world_rank)
                    .ok_or(MpiError::InvalidRank {
                        rank: self.world_rank,
                        size: comm.descriptor.size(),
                    })? as usize;
            (
                comm.descriptor.context,
                comm.next_collective(),
                my_index,
                comm.descriptor.size(),
            )
        };
        self.endpoint
            .collective_exchange(context, seq, my_index, size, contribution)
    }

    /// Resolve the route for a collective *registration*: the communicator's context,
    /// the sequence number the next collective will use (peeked, not consumed — the
    /// real collective's `exchange` advances it), this rank's index, and the size.
    fn registration_route(&self, comm: PhysHandle) -> MpiResult<RegistrationTicket> {
        let idx = self.comm_index(comm)?;
        let c = self.comms.get(idx)?;
        let index = c
            .descriptor
            .rank_of(self.world_rank)
            .ok_or(MpiError::InvalidRank {
                rank: self.world_rank,
                size: c.descriptor.size(),
            })? as usize;
        Ok(RegistrationTicket {
            context: c.descriptor.context,
            seq: c.collective_seq,
            index,
            size: c.descriptor.size(),
        })
    }

    /// Agree on a fresh context id across all members of a communicator: the member
    /// with communicator rank 0 allocates it from the fabric and the exchange
    /// broadcasts it.
    fn agree_context(&mut self, comm_index: u32) -> MpiResult<u64> {
        let my_rank_in_comm = {
            let comm = self.comms.get(comm_index)?;
            comm.descriptor.rank_of(self.world_rank).unwrap_or(-1)
        };
        let contribution = if my_rank_in_comm == 0 {
            u64_to_bytes(&[self.endpoint.allocate_context()])
        } else {
            vec![]
        };
        let all = self.exchange(comm_index, contribution)?;
        let root = all
            .first()
            .ok_or_else(|| MpiError::Internal("empty collective result".into()))?;
        bytes_to_u64(root)
            .first()
            .copied()
            .ok_or_else(|| MpiError::Internal("context agreement payload malformed".into()))
    }

    fn register_comm(&mut self, descriptor: CommDescriptor) -> PhysHandle {
        let idx = self.comms.insert(CommObject::new(descriptor, false));
        self.encode(HandleKind::Comm, idx, None)
    }

    /// Element type of a datatype used in a reduction (only primitives reduce).
    fn reduction_element(&self, datatype: PhysHandle) -> MpiResult<PrimitiveType> {
        let idx = self.type_index(datatype)?;
        match &self.types.get(idx)?.descriptor {
            TypeDescriptor::Primitive(p) => Ok(*p),
            _ => Err(MpiError::Unsupported {
                feature: "reduction on derived datatypes",
            }),
        }
    }

    /// Resolve the send path for a point-to-point operation: destination world rank,
    /// my rank within the communicator, and the context.
    fn p2p_route(&self, comm: PhysHandle, peer: Rank) -> MpiResult<(Rank, Rank, u64, usize)> {
        let idx = self.comm_index(comm)?;
        let c = self.comms.get(idx)?;
        let size = c.descriptor.size();
        let my_rank = c
            .descriptor
            .rank_of(self.world_rank)
            .ok_or(MpiError::InvalidRank {
                rank: self.world_rank,
                size,
            })?;
        if peer < 0 || peer as usize >= size {
            return Err(MpiError::InvalidRank { rank: peer, size });
        }
        let peer_world = c.descriptor.group.world_rank(peer)?;
        Ok((peer_world, my_rank, c.descriptor.context, size))
    }

    fn validate_tag(tag: Tag) -> MpiResult<()> {
        if tag < 0 {
            Err(MpiError::InvalidTag(tag))
        } else {
            Ok(())
        }
    }

    /// Check a derived type is committed before use in communication.
    fn check_committed(&self, datatype: PhysHandle) -> MpiResult<()> {
        let idx = self.type_index(datatype)?;
        let ty = self.types.get(idx)?;
        if ty.committed {
            Ok(())
        } else {
            Err(MpiError::TypeNotCommitted(datatype))
        }
    }
}

impl<C: HandleCodec> MpiApi for Engine<C> {
    fn implementation_name(&self) -> &'static str {
        self.config.name
    }

    fn constant_resolution(&self) -> ConstantResolution {
        self.config.resolution
    }

    fn provided_features(&self) -> Vec<SubsetFeature> {
        self.config.features.to_vec()
    }

    fn world_rank(&self) -> Rank {
        self.world_rank
    }

    fn world_size(&self) -> usize {
        self.world_size
    }

    fn resolve_constant(&mut self, object: PredefinedObject) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.materialize_constant(object)
    }

    fn finalize(&mut self) -> MpiResult<()> {
        self.check_initialized()?;
        self.finalized = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Communicators
    // ------------------------------------------------------------------

    fn comm_size(&self, comm: PhysHandle) -> MpiResult<usize> {
        let idx = self.comm_index(comm)?;
        Ok(self.comms.get(idx)?.descriptor.size())
    }

    fn comm_rank(&self, comm: PhysHandle) -> MpiResult<Rank> {
        let idx = self.comm_index(comm)?;
        let c = self.comms.get(idx)?;
        c.descriptor
            .rank_of(self.world_rank)
            .ok_or(MpiError::InvalidRank {
                rank: self.world_rank,
                size: c.descriptor.size(),
            })
    }

    fn comm_group(&mut self, comm: PhysHandle) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::CommGroup, "MPI_Comm_group")?;
        let idx = self.comm_index(comm)?;
        let descriptor = self.comms.get(idx)?.descriptor.group.clone();
        let gidx = self.groups.insert(GroupObject {
            descriptor,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Group, gidx, None))
    }

    fn comm_dup(&mut self, comm: PhysHandle) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.require(SubsetFeature::CommDup, "MPI_Comm_dup")?;
        let idx = self.comm_index(comm)?;
        let group = self.comms.get(idx)?.descriptor.group.clone();
        let context = self.agree_context(idx)?;
        Ok(self.register_comm(CommDescriptor { group, context }))
    }

    fn comm_split(
        &mut self,
        comm: PhysHandle,
        color: Option<i32>,
        key: i32,
    ) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.require(SubsetFeature::CommSplit, "MPI_Comm_split")?;
        let idx = self.comm_index(comm)?;
        let my_rank_in_comm = self.comm_rank(comm)?;

        // Round 1: publish (color, key, world rank, parent rank).
        let mut contribution = Vec::with_capacity(17);
        contribution.push(u8::from(color.is_some()));
        contribution.extend(color.unwrap_or(0).to_le_bytes());
        contribution.extend(key.to_le_bytes());
        contribution.extend(self.world_rank.to_le_bytes());
        contribution.extend(my_rank_in_comm.to_le_bytes());
        let all = self.exchange(idx, contribution)?;
        let mut contributions = Vec::with_capacity(all.len());
        for (parent_rank, raw) in all.iter().enumerate() {
            if raw.len() != 17 {
                return Err(MpiError::CollectiveMismatch(
                    "malformed MPI_Comm_split contribution".into(),
                ));
            }
            let le_i32 = |range: std::ops::Range<usize>| {
                raw.get(range)
                    .and_then(|bytes| <[u8; 4]>::try_from(bytes).ok())
                    .map(i32::from_le_bytes)
                    .ok_or_else(|| {
                        MpiError::CollectiveMismatch("malformed MPI_Comm_split contribution".into())
                    })
            };
            let has_color = raw[0] != 0;
            let color = le_i32(1..5)?;
            let key = le_i32(5..9)?;
            let world = le_i32(9..13)?;
            contributions.push(SplitContribution {
                parent_rank: parent_rank as Rank,
                world_rank: world,
                color: has_color.then_some(color),
                key,
            });
        }
        let groups = split_groups(&contributions);

        // Round 2: parent rank 0 allocates one context per colour and broadcasts them.
        let contexts_contribution = if my_rank_in_comm == 0 {
            let contexts: Vec<u64> = groups
                .iter()
                .map(|_| self.endpoint.allocate_context())
                .collect();
            u64_to_bytes(&contexts)
        } else {
            vec![]
        };
        let all = self.exchange(idx, contexts_contribution)?;
        let contexts = bytes_to_u64(
            all.first()
                .ok_or_else(|| MpiError::Internal("empty split context round".into()))?,
        );
        if contexts.len() != groups.len() {
            return Err(MpiError::Internal(
                "split context count does not match colour count".into(),
            ));
        }

        // Build my communicator, if I supplied a colour.
        let Some(my_color) = color else {
            return Ok(self.codec.null(HandleKind::Comm));
        };
        let (position, members) = groups
            .iter()
            .enumerate()
            .find(|(_, (c, _))| *c == my_color)
            .map(|(i, (_, members))| (i, members.clone()))
            .ok_or_else(|| MpiError::Internal("my colour missing from split result".into()))?;
        let group = GroupDescriptor::from_members(members)?;
        Ok(self.register_comm(CommDescriptor {
            group,
            context: contexts[position],
        }))
    }

    fn comm_create(&mut self, comm: PhysHandle, group: PhysHandle) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.require(SubsetFeature::CommCreate, "MPI_Comm_create")?;
        let cidx = self.comm_index(comm)?;
        let gidx = self.group_index(group)?;
        let members = self.groups.get(gidx)?.descriptor.clone();
        let context = self.agree_context(cidx)?;
        if members.rank_of(self.world_rank).is_none() {
            return Ok(self.codec.null(HandleKind::Comm));
        }
        Ok(self.register_comm(CommDescriptor {
            group: members,
            context,
        }))
    }

    fn comm_free(&mut self, comm: PhysHandle) -> MpiResult<()> {
        let idx = self.comm_index(comm)?;
        if self.comms.get(idx)?.predefined {
            return Err(MpiError::Internal(
                "cannot free a predefined communicator".into(),
            ));
        }
        self.comms.remove(idx)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Groups
    // ------------------------------------------------------------------

    fn group_size(&self, group: PhysHandle) -> MpiResult<usize> {
        let idx = self.group_index(group)?;
        Ok(self.groups.get(idx)?.descriptor.size())
    }

    fn group_rank(&self, group: PhysHandle) -> MpiResult<Option<Rank>> {
        let idx = self.group_index(group)?;
        Ok(self.groups.get(idx)?.descriptor.rank_of(self.world_rank))
    }

    fn group_translate_ranks(
        &self,
        group: PhysHandle,
        ranks: &[Rank],
        other: PhysHandle,
    ) -> MpiResult<Vec<Rank>> {
        self.require(
            SubsetFeature::GroupTranslateRanks,
            "MPI_Group_translate_ranks",
        )?;
        let a = self
            .groups
            .get(self.group_index(group)?)?
            .descriptor
            .clone();
        let b = &self.groups.get(self.group_index(other)?)?.descriptor;
        a.translate_ranks(ranks, b)
    }

    fn group_members(&self, group: PhysHandle) -> MpiResult<Vec<Rank>> {
        let idx = self.group_index(group)?;
        Ok(self.groups.get(idx)?.descriptor.members().to_vec())
    }

    fn group_incl(&mut self, group: PhysHandle, ranks: &[Rank]) -> MpiResult<PhysHandle> {
        let idx = self.group_index(group)?;
        let descriptor = self.groups.get(idx)?.descriptor.incl(ranks)?;
        let gidx = self.groups.insert(GroupObject {
            descriptor,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Group, gidx, None))
    }

    fn group_free(&mut self, group: PhysHandle) -> MpiResult<()> {
        let idx = self.group_index(group)?;
        if self.groups.get(idx)?.predefined {
            return Err(MpiError::Internal("cannot free a predefined group".into()));
        }
        self.groups.remove(idx)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Datatypes
    // ------------------------------------------------------------------

    fn type_contiguous(&mut self, count: usize, inner: PhysHandle) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::DerivedDatatypes, "MPI_Type_contiguous")?;
        let iidx = self.type_index(inner)?;
        let inner_desc = self.types.get(iidx)?.descriptor.clone();
        let idx = self.types.insert(TypeObject {
            descriptor: TypeDescriptor::Contiguous {
                count,
                inner: Box::new(inner_desc),
            },
            children: vec![inner],
            committed: false,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Datatype, idx, None))
    }

    fn type_vector(
        &mut self,
        count: usize,
        block_length: usize,
        stride: i64,
        inner: PhysHandle,
    ) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::DerivedDatatypes, "MPI_Type_vector")?;
        let iidx = self.type_index(inner)?;
        let inner_desc = self.types.get(iidx)?.descriptor.clone();
        let idx = self.types.insert(TypeObject {
            descriptor: TypeDescriptor::Vector {
                count,
                block_length,
                stride,
                inner: Box::new(inner_desc),
            },
            children: vec![inner],
            committed: false,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Datatype, idx, None))
    }

    fn type_indexed(
        &mut self,
        block_lengths: &[usize],
        displacements: &[i64],
        inner: PhysHandle,
    ) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::DerivedDatatypes, "MPI_Type_indexed")?;
        if block_lengths.len() != displacements.len() {
            return Err(MpiError::InvalidCount(displacements.len() as i64));
        }
        let iidx = self.type_index(inner)?;
        let inner_desc = self.types.get(iidx)?.descriptor.clone();
        let idx = self.types.insert(TypeObject {
            descriptor: TypeDescriptor::Indexed {
                block_lengths: block_lengths.to_vec(),
                displacements: displacements.to_vec(),
                inner: Box::new(inner_desc),
            },
            children: vec![inner],
            committed: false,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Datatype, idx, None))
    }

    fn type_create_struct(
        &mut self,
        block_lengths: &[usize],
        byte_displacements: &[i64],
        types: &[PhysHandle],
    ) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::DerivedDatatypes, "MPI_Type_create_struct")?;
        if block_lengths.len() != byte_displacements.len() || block_lengths.len() != types.len() {
            return Err(MpiError::InvalidCount(types.len() as i64));
        }
        let mut member_descs = Vec::with_capacity(types.len());
        for &t in types {
            let idx = self.type_index(t)?;
            member_descs.push(self.types.get(idx)?.descriptor.clone());
        }
        let idx = self.types.insert(TypeObject {
            descriptor: TypeDescriptor::Struct {
                block_lengths: block_lengths.to_vec(),
                byte_displacements: byte_displacements.to_vec(),
                types: member_descs,
            },
            children: types.to_vec(),
            committed: false,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Datatype, idx, None))
    }

    fn type_dup(&mut self, ty: PhysHandle) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::DerivedDatatypes, "MPI_Type_dup")?;
        let iidx = self.type_index(ty)?;
        let inner_desc = self.types.get(iidx)?.descriptor.clone();
        let committed = self.types.get(iidx)?.committed;
        let idx = self.types.insert(TypeObject {
            descriptor: TypeDescriptor::Dup(Box::new(inner_desc)),
            children: vec![ty],
            committed,
            predefined: false,
        });
        Ok(self.encode(HandleKind::Datatype, idx, None))
    }

    fn type_commit(&mut self, ty: PhysHandle) -> MpiResult<()> {
        let idx = self.type_index(ty)?;
        self.types.get_mut(idx)?.committed = true;
        Ok(())
    }

    fn type_free(&mut self, ty: PhysHandle) -> MpiResult<()> {
        let idx = self.type_index(ty)?;
        if self.types.get(idx)?.predefined {
            return Err(MpiError::Internal(
                "cannot free a predefined datatype".into(),
            ));
        }
        self.types.remove(idx)?;
        Ok(())
    }

    fn type_size(&self, ty: PhysHandle) -> MpiResult<usize> {
        let idx = self.type_index(ty)?;
        Ok(self.types.get(idx)?.descriptor.size())
    }

    fn type_get_envelope(&self, ty: PhysHandle) -> MpiResult<TypeEnvelope> {
        self.require(SubsetFeature::TypeGetEnvelope, "MPI_Type_get_envelope")?;
        let idx = self.type_index(ty)?;
        Ok(self.types.get(idx)?.descriptor.envelope())
    }

    fn type_get_contents(&self, ty: PhysHandle) -> MpiResult<RawTypeContents> {
        self.require(SubsetFeature::TypeGetContents, "MPI_Type_get_contents")?;
        let idx = self.type_index(ty)?;
        let obj = self.types.get(idx)?;
        let contents = obj.descriptor.contents()?;
        Ok((contents.integers, contents.addresses, obj.children.clone()))
    }

    // ------------------------------------------------------------------
    // Ops
    // ------------------------------------------------------------------

    fn op_create(&mut self, func_id: u64, commutative: bool) -> MpiResult<PhysHandle> {
        self.require(SubsetFeature::UserOps, "MPI_Op_create")?;
        let idx = self.ops.insert(OpObject {
            descriptor: OpDescriptor::User {
                func_id,
                commutative,
            },
            predefined: false,
        });
        Ok(self.encode(HandleKind::Op, idx, None))
    }

    fn op_free(&mut self, op: PhysHandle) -> MpiResult<()> {
        let idx = self.op_index(op)?;
        if self.ops.get(idx)?.predefined {
            return Err(MpiError::Internal("cannot free a predefined op".into()));
        }
        self.ops.remove(idx)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    fn send(
        &mut self,
        buf: &[u8],
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<()> {
        self.check_initialized()?;
        self.require(SubsetFeature::Send, "MPI_Send")?;
        Self::validate_tag(tag)?;
        self.check_committed(datatype)?;
        let (dest_world, my_rank, context, _) = self.p2p_route(comm, dest)?;
        // The borrow forces exactly one materialization here; owned callers use
        // `send_payload` and skip even that.
        self.endpoint.send(
            dest_world,
            my_rank,
            context,
            tag,
            PayloadBuf::copy_from_slice(buf),
        )
    }

    fn send_payload(
        &mut self,
        buf: PayloadBuf,
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<()> {
        self.check_initialized()?;
        self.require(SubsetFeature::Send, "MPI_Send")?;
        Self::validate_tag(tag)?;
        self.check_committed(datatype)?;
        let (dest_world, my_rank, context, _) = self.p2p_route(comm, dest)?;
        self.endpoint.send(dest_world, my_rank, context, tag, buf)
    }

    fn recv(
        &mut self,
        datatype: PhysHandle,
        max_bytes: usize,
        source: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<(PayloadBuf, Status)> {
        self.check_initialized()?;
        self.require(SubsetFeature::Recv, "MPI_Recv")?;
        self.check_committed(datatype)?;
        let idx = self.comm_index(comm)?;
        let context = self.comms.get(idx)?.descriptor.context;
        let spec = MatchSpec::from_mpi_args(context, source, tag);
        let envelope = self.endpoint.recv_blocking(&spec)?;
        if envelope.payload.len() > max_bytes {
            return Err(MpiError::Truncate {
                message_bytes: envelope.payload.len(),
                buffer_bytes: max_bytes,
            });
        }
        let status = Status::new(
            envelope.source_comm_rank,
            envelope.tag,
            envelope.payload.len(),
        );
        Ok((envelope.payload, status))
    }

    fn isend(
        &mut self,
        buf: &[u8],
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.require(SubsetFeature::NonBlockingPointToPoint, "MPI_Isend")?;
        // Eager protocol: the payload is buffered at the destination immediately, so
        // the send request is complete as soon as it is posted.
        self.send(buf, datatype, dest, tag, comm)?;
        let mut record = RequestRecord::pending(RequestKind::Send, dest, tag, comm, buf.len());
        record.complete(Status::new(dest, tag, buf.len()));
        let idx = self.requests.insert(RequestObject {
            record,
            match_spec: None,
            max_bytes: buf.len(),
            payload: None,
        });
        Ok(self.encode(HandleKind::Request, idx, None))
    }

    fn isend_payload(
        &mut self,
        buf: PayloadBuf,
        datatype: PhysHandle,
        dest: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.require(SubsetFeature::NonBlockingPointToPoint, "MPI_Isend")?;
        let len = buf.len();
        self.send_payload(buf, datatype, dest, tag, comm)?;
        let mut record = RequestRecord::pending(RequestKind::Send, dest, tag, comm, len);
        record.complete(Status::new(dest, tag, len));
        let idx = self.requests.insert(RequestObject {
            record,
            match_spec: None,
            max_bytes: len,
            payload: None,
        });
        Ok(self.encode(HandleKind::Request, idx, None))
    }

    fn irecv(
        &mut self,
        datatype: PhysHandle,
        max_bytes: usize,
        source: Rank,
        tag: Tag,
        comm: PhysHandle,
    ) -> MpiResult<PhysHandle> {
        self.check_initialized()?;
        self.require(SubsetFeature::NonBlockingPointToPoint, "MPI_Irecv")?;
        self.check_committed(datatype)?;
        let cidx = self.comm_index(comm)?;
        let context = self.comms.get(cidx)?.descriptor.context;
        let spec = MatchSpec::from_mpi_args(context, source, tag);
        let record = RequestRecord::pending(RequestKind::Recv, source, tag, comm, max_bytes);
        let idx = self.requests.insert(RequestObject {
            record,
            match_spec: Some(spec),
            max_bytes,
            payload: None,
        });
        Ok(self.encode(HandleKind::Request, idx, None))
    }

    fn test(&mut self, request: PhysHandle) -> MpiResult<Option<(Status, Option<PayloadBuf>)>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Test, "MPI_Test")?;
        let idx = self.request_index(request)?;
        let (kind, spec, max_bytes, state) = {
            let r = self.requests.get(idx)?;
            (r.record.kind, r.match_spec, r.max_bytes, r.record.state)
        };
        match state {
            RequestState::Complete(status) => {
                let payload = self.requests.get_mut(idx)?.payload.take();
                self.requests.remove(idx)?;
                Ok(Some((status, payload)))
            }
            RequestState::Inactive => Err(MpiError::InvalidHandle {
                kind: HandleKind::Request,
                handle: request,
            }),
            RequestState::Pending => match kind {
                RequestKind::Send => {
                    // Eager sends complete at post time; a pending send request cannot
                    // exist, but handle it defensively.
                    let status = Status::new(0, 0, 0);
                    self.requests.remove(idx)?;
                    Ok(Some((status, None)))
                }
                RequestKind::Recv => {
                    let spec = spec.ok_or_else(|| {
                        MpiError::Internal("receive request without a match spec".into())
                    })?;
                    match self.endpoint.try_recv(&spec)? {
                        None => Ok(None),
                        Some(envelope) => {
                            if envelope.payload.len() > max_bytes {
                                return Err(MpiError::Truncate {
                                    message_bytes: envelope.payload.len(),
                                    buffer_bytes: max_bytes,
                                });
                            }
                            let status = Status::new(
                                envelope.source_comm_rank,
                                envelope.tag,
                                envelope.payload.len(),
                            );
                            self.requests.remove(idx)?;
                            Ok(Some((status, Some(envelope.payload))))
                        }
                    }
                }
            },
        }
    }

    fn wait(&mut self, request: PhysHandle) -> MpiResult<(Status, Option<PayloadBuf>)> {
        self.check_initialized()?;
        let idx = self.request_index(request)?;
        let (kind, spec, max_bytes, state) = {
            let r = self.requests.get(idx)?;
            (r.record.kind, r.match_spec, r.max_bytes, r.record.state)
        };
        match state {
            RequestState::Complete(status) => {
                let payload = self.requests.get_mut(idx)?.payload.take();
                self.requests.remove(idx)?;
                Ok((status, payload))
            }
            RequestState::Inactive => Err(MpiError::InvalidHandle {
                kind: HandleKind::Request,
                handle: request,
            }),
            RequestState::Pending => match kind {
                RequestKind::Send => {
                    let status = Status::new(0, 0, 0);
                    self.requests.remove(idx)?;
                    Ok((status, None))
                }
                RequestKind::Recv => {
                    let spec = spec.ok_or_else(|| {
                        MpiError::Internal("receive request without a match spec".into())
                    })?;
                    let envelope = self.endpoint.recv_blocking(&spec)?;
                    if envelope.payload.len() > max_bytes {
                        return Err(MpiError::Truncate {
                            message_bytes: envelope.payload.len(),
                            buffer_bytes: max_bytes,
                        });
                    }
                    let status = Status::new(
                        envelope.source_comm_rank,
                        envelope.tag,
                        envelope.payload.len(),
                    );
                    self.requests.remove(idx)?;
                    Ok((status, Some(envelope.payload)))
                }
            },
        }
    }

    fn iprobe(&mut self, source: Rank, tag: Tag, comm: PhysHandle) -> MpiResult<Option<Status>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Iprobe, "MPI_Iprobe")?;
        let idx = self.comm_index(comm)?;
        let context = self.comms.get(idx)?.descriptor.context;
        let spec = MatchSpec::from_mpi_args(context, source, tag);
        self.endpoint.probe(&spec)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    fn collective_register(
        &mut self,
        comm: PhysHandle,
        patience: Option<Duration>,
    ) -> MpiResult<(RegistrationTicket, bool)> {
        self.require_registration()?;
        let ticket = self.registration_route(comm)?;
        let (context, seq) = (ticket.context, ticket.seq);
        let committed =
            self.endpoint
                .collective_register(context, seq, ticket.index, ticket.size)?
                || self
                    .endpoint
                    .collective_await_commit(context, seq, patience)?;
        Ok((ticket, committed))
    }

    fn collective_ready(
        &mut self,
        ticket: RegistrationTicket,
        patience: Option<Duration>,
    ) -> MpiResult<bool> {
        self.require_registration()?;
        self.endpoint
            .collective_await_commit(ticket.context, ticket.seq, patience)
    }

    fn collective_withdraw(&mut self, ticket: RegistrationTicket) -> MpiResult<bool> {
        self.require_registration()?;
        self.endpoint
            .collective_withdraw(ticket.context, ticket.seq, ticket.index)
    }

    fn barrier(&mut self, comm: PhysHandle) -> MpiResult<()> {
        self.check_initialized()?;
        self.require(SubsetFeature::Barrier, "MPI_Barrier")?;
        let idx = self.comm_index(comm)?;
        self.exchange(idx, vec![])?;
        Ok(())
    }

    fn bcast(&mut self, buf: &mut Vec<u8>, root: Rank, comm: PhysHandle) -> MpiResult<()> {
        self.check_initialized()?;
        self.require(SubsetFeature::Bcast, "MPI_Bcast")?;
        let idx = self.comm_index(comm)?;
        let my_rank = self.comm_rank(comm)?;
        let size = self.comms.get(idx)?.descriptor.size();
        if root < 0 || root as usize >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let contribution = if my_rank == root {
            PayloadBuf::copy_from_slice(buf)
        } else {
            PayloadBuf::new()
        };
        let all = self.exchange(idx, contribution)?;
        // Non-root ranks materialize into their receive buffer; the fabric-side
        // fan-out to all N readers shared one allocation.
        #[expect(
            clippy::disallowed_methods,
            reason = "MPI_Bcast's contract is an owned receive buffer: one copy per non-root rank"
        )]
        if my_rank != root {
            *buf = all[root as usize].to_vec();
        }
        Ok(())
    }

    fn reduce(
        &mut self,
        sendbuf: &[u8],
        datatype: PhysHandle,
        op: PhysHandle,
        root: Rank,
        comm: PhysHandle,
    ) -> MpiResult<Option<Vec<u8>>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Reduce, "MPI_Reduce")?;
        let element = self.reduction_element(datatype)?;
        let oidx = self.op_index(op)?;
        let op_desc = self.ops.get(oidx)?.descriptor;
        let idx = self.comm_index(comm)?;
        let my_rank = self.comm_rank(comm)?;
        let size = self.comms.get(idx)?.descriptor.size();
        if root < 0 || root as usize >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let all = self.exchange(idx, PayloadBuf::copy_from_slice(sendbuf))?;
        if my_rank != root {
            return Ok(None);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the root reduces in place into an owned accumulator, which MPI_Reduce returns"
        )]
        let mut accumulator = all[0].to_vec();
        let registry = self.registry.read();
        for contribution in &all[1..] {
            apply_op(&op_desc, element, &mut accumulator, contribution, &registry)?;
        }
        Ok(Some(accumulator))
    }

    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        datatype: PhysHandle,
        op: PhysHandle,
        comm: PhysHandle,
    ) -> MpiResult<Vec<u8>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Reduce, "MPI_Allreduce")?;
        let element = self.reduction_element(datatype)?;
        let oidx = self.op_index(op)?;
        let op_desc = self.ops.get(oidx)?.descriptor;
        let idx = self.comm_index(comm)?;
        let all = self.exchange(idx, PayloadBuf::copy_from_slice(sendbuf))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "each rank reduces in place into an owned accumulator, which MPI_Allreduce returns"
        )]
        let mut accumulator = all[0].to_vec();
        let registry = self.registry.read();
        for contribution in &all[1..] {
            apply_op(&op_desc, element, &mut accumulator, contribution, &registry)?;
        }
        Ok(accumulator)
    }

    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        block_bytes: usize,
        comm: PhysHandle,
    ) -> MpiResult<Vec<u8>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Alltoall, "MPI_Alltoall")?;
        let idx = self.comm_index(comm)?;
        let my_rank = self.comm_rank(comm)? as usize;
        let size = self.comms.get(idx)?.descriptor.size();
        if block_bytes.checked_mul(size) != Some(sendbuf.len()) {
            return Err(MpiError::InvalidCount(sendbuf.len() as i64));
        }
        let all = self.exchange(idx, PayloadBuf::copy_from_slice(sendbuf))?;
        let mut result = Vec::with_capacity(sendbuf.len());
        for contribution in &all {
            if contribution.len() != sendbuf.len() {
                return Err(MpiError::CollectiveMismatch(
                    "MPI_Alltoall contributions have inconsistent sizes".into(),
                ));
            }
            result.extend_from_slice(
                &contribution[my_rank * block_bytes..(my_rank + 1) * block_bytes],
            );
        }
        Ok(result)
    }

    fn gather(
        &mut self,
        sendbuf: &[u8],
        root: Rank,
        comm: PhysHandle,
    ) -> MpiResult<Option<Vec<u8>>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Gather, "MPI_Gather")?;
        let idx = self.comm_index(comm)?;
        let my_rank = self.comm_rank(comm)?;
        let size = self.comms.get(idx)?.descriptor.size();
        if root < 0 || root as usize >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let all = self.exchange(idx, PayloadBuf::copy_from_slice(sendbuf))?;
        if my_rank != root {
            return Ok(None);
        }
        Ok(Some(all.concat()))
    }

    fn allgather(&mut self, sendbuf: &[u8], comm: PhysHandle) -> MpiResult<Vec<u8>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Gather, "MPI_Allgather")?;
        let idx = self.comm_index(comm)?;
        let all = self.exchange(idx, PayloadBuf::copy_from_slice(sendbuf))?;
        Ok(all.concat())
    }

    fn scatter(
        &mut self,
        sendbuf: Option<&[u8]>,
        block_bytes: usize,
        root: Rank,
        comm: PhysHandle,
    ) -> MpiResult<Vec<u8>> {
        self.check_initialized()?;
        self.require(SubsetFeature::Gather, "MPI_Scatter")?;
        let idx = self.comm_index(comm)?;
        let my_rank = self.comm_rank(comm)? as usize;
        let size = self.comms.get(idx)?.descriptor.size();
        if root < 0 || root as usize >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let contribution = if my_rank == root as usize {
            let buf = sendbuf.ok_or_else(|| {
                MpiError::Internal("MPI_Scatter root must supply a send buffer".into())
            })?;
            if block_bytes.checked_mul(size) != Some(buf.len()) {
                return Err(MpiError::InvalidCount(buf.len() as i64));
            }
            PayloadBuf::copy_from_slice(buf)
        } else {
            PayloadBuf::new()
        };
        let all = self.exchange(idx, contribution)?;
        // The root validated its own buffer against its own block size; a rank that
        // passed another one must get an error, not an out-of-range slice.
        let block = my_rank
            .checked_mul(block_bytes)
            .and_then(|start| Some(start..start.checked_add(block_bytes)?))
            .and_then(|range| all[root as usize].get(range))
            .ok_or_else(|| {
                MpiError::CollectiveMismatch(
                    "MPI_Scatter block size disagrees with the root's send buffer".into(),
                )
            })?;
        Ok(block.to_vec())
    }
}
