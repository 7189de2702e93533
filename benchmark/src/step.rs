//! The bulk-synchronous step every workload runs, written once over a small
//! communication trait so the *same* step function drives both a MANA-interposed
//! typed [`Session`] and a bare lower half ([`MpiApi`], no MANA). The arithmetic
//! mirrors `mana_apps::skeleton::run`: fold halos into the lattice, relax, close the
//! step with reductions, rebuild with an all-to-all every few steps.

use crate::trace;
use mana::{Comm, Op, Session};
use mana_apps::AppProfile;
use mpi_model::api::MpiApi;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::PrimitiveType;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::PredefinedOp;
use mpi_model::typed::MpiData;
use mpi_model::types::{PhysHandle, Rank, Tag};
use serde::{Deserialize, Serialize};
use split_proc::integrity::xxh64;
use split_proc::UpperHalfSpace;

/// `f64` elements in each rank's lattice (32 KiB): the local state halos are sliced
/// from. Fixed, so the step costs the same whatever the checkpoint state size.
pub const LATTICE_ELEMENTS: usize = 4096;

/// Upper-half region holding the lattice at checkpoint time, as `f64::encode`
/// writes it (raw little-endian bits — a restart must be bit-exact).
pub const LATTICE_REGION: &str = "bench.lattice";
/// Upper-half region holding the [`AppState`] at checkpoint time.
pub const APP_REGION: &str = "bench.app";

/// The communication shape of one step.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub halo_neighbors: usize,
    pub halo_elements: usize,
    pub allreduces_per_step: usize,
    /// All-to-all every this many steps (0 = never).
    pub alltoall_every: u64,
    /// Run the collectives on a `comm_dup`'ed communicator (a derived handle that
    /// virtid must translate and restart must replay) instead of the world.
    pub derived_comm: bool,
}

impl Shape {
    pub fn of(profile: &AppProfile, derived_comm: bool) -> Shape {
        Shape {
            halo_neighbors: profile.halo_neighbors,
            halo_elements: profile.halo_elements.min(LATTICE_ELEMENTS),
            allreduces_per_step: profile.allreduces_per_iter,
            alltoall_every: profile.alltoall_every,
            derived_comm,
        }
    }
}

/// What a step needs from whichever MPI stack it runs on.
pub trait StepComm {
    fn rank(&self) -> Rank;
    fn size(&self) -> usize;
    fn send(&mut self, data: &[f64], dest: Rank, tag: Tag) -> MpiResult<()>;
    fn recv(&mut self, count: usize, source: Rank, tag: Tag) -> MpiResult<Vec<f64>>;
    fn allreduce_sum(&mut self, value: f64) -> MpiResult<f64>;
    fn alltoall(&mut self, blocks: &[u64]) -> MpiResult<Vec<u64>>;
}

/// Execute step number `step` on `lattice`.
pub fn step<C: StepComm>(
    comm: &mut C,
    shape: &Shape,
    lattice: &mut [f64],
    step: u64,
) -> MpiResult<()> {
    let me = comm.rank();
    let size = comm.size() as Rank;
    let halo = shape.halo_elements;
    let tail = lattice.len() - halo;
    for n in 1..=shape.halo_neighbors as Rank {
        let right = (me + n).rem_euclid(size);
        let left = (me - n).rem_euclid(size);
        comm.send(&lattice[..halo], right, n)?;
        let incoming = comm.recv(halo, left, n)?;
        for (cell, ghost) in lattice.iter_mut().zip(&incoming) {
            *cell = 0.75 * *cell + 0.25 * ghost;
        }
        comm.send(&lattice[tail..], left, 1000 + n)?;
        let incoming = comm.recv(halo, right, 1000 + n)?;
        for (cell, ghost) in lattice[tail..].iter_mut().zip(&incoming) {
            *cell = 0.75 * *cell + 0.25 * ghost;
        }
    }
    for i in 1..lattice.len() {
        lattice[i] = 0.5 * (lattice[i] + lattice[i - 1]);
    }
    for r in 0..shape.allreduces_per_step {
        let local = lattice[(r * 7) % lattice.len()] + step as f64 * 1e-6;
        lattice[0] += comm.allreduce_sum(local)? * 1e-9;
    }
    if shape.alltoall_every > 0 && (step + 1).is_multiple_of(shape.alltoall_every) {
        let blocks: Vec<u64> = (0..size).map(|peer| (me * 1000 + peer) as u64).collect();
        let gathered = comm.alltoall(&blocks)?;
        lattice[0] += gathered.iter().sum::<u64>() as f64 * 1e-12;
    }
    Ok(())
}

/// The application state that must survive a checkpoint besides the lattice: the
/// step counter and the typed handles (virtual ids) the step communicates on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppState {
    pub step: u64,
    pub world: Comm,
    pub compute: Comm,
}

/// The step over MANA: every call goes through the typed [`Session`].
pub struct ManaComm<'a> {
    pub session: &'a mut Session,
    pub world: Comm,
    pub compute: Comm,
}

impl StepComm for ManaComm<'_> {
    fn rank(&self) -> Rank {
        self.session.world_rank()
    }

    fn size(&self) -> usize {
        self.session.world_size()
    }

    fn send(&mut self, data: &[f64], dest: Rank, tag: Tag) -> MpiResult<()> {
        let _span = trace::call("mana.send");
        self.session.send(data, dest, tag, self.world)
    }

    fn recv(&mut self, count: usize, source: Rank, tag: Tag) -> MpiResult<Vec<f64>> {
        let _span = trace::call("mana.recv");
        Ok(self.session.recv::<f64>(count, source, tag, self.world)?.0)
    }

    fn allreduce_sum(&mut self, value: f64) -> MpiResult<f64> {
        let _span = trace::call("mana.allreduce");
        let reduced = self.session.allreduce(&[value], Op::sum(), self.compute)?;
        first(&reduced)
    }

    fn alltoall(&mut self, blocks: &[u64]) -> MpiResult<Vec<u64>> {
        let _span = trace::call("mana.alltoall");
        self.session.alltoall(blocks, 1, self.compute)
    }
}

/// The same step on a bare lower half: `MpiApi` calls with the typed marshalling
/// done here (as the session would), no wrappers, no virtual ids, no crossings.
pub struct NativeComm {
    lower: Box<dyn MpiApi>,
    world: PhysHandle,
    compute: PhysHandle,
    double: PhysHandle,
    sum: PhysHandle,
}

impl NativeComm {
    pub fn new(mut lower: Box<dyn MpiApi>, shape: &Shape) -> MpiResult<NativeComm> {
        let world = lower.resolve_constant(PredefinedObject::CommWorld)?;
        let double = lower.resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))?;
        let sum = lower.resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))?;
        let compute = if shape.derived_comm {
            lower.comm_dup(world)?
        } else {
            world
        };
        Ok(NativeComm {
            lower,
            world,
            compute,
            double,
            sum,
        })
    }
}

impl StepComm for NativeComm {
    fn rank(&self) -> Rank {
        self.lower.world_rank()
    }

    fn size(&self) -> usize {
        self.lower.world_size()
    }

    fn send(&mut self, data: &[f64], dest: Rank, tag: Tag) -> MpiResult<()> {
        let _span = trace::call("native.send");
        self.lower
            .send_payload(f64::encode(data).into(), self.double, dest, tag, self.world)
    }

    fn recv(&mut self, count: usize, source: Rank, tag: Tag) -> MpiResult<Vec<f64>> {
        let _span = trace::call("native.recv");
        let (bytes, _) = self.lower.recv(
            self.double,
            count * f64::elem_size(),
            source,
            tag,
            self.world,
        )?;
        f64::decode(&bytes)
    }

    fn allreduce_sum(&mut self, value: f64) -> MpiResult<f64> {
        let _span = trace::call("native.allreduce");
        let bytes =
            self.lower
                .allreduce(&f64::encode(&[value]), self.double, self.sum, self.compute)?;
        first(&f64::decode(&bytes)?)
    }

    fn alltoall(&mut self, blocks: &[u64]) -> MpiResult<Vec<u64>> {
        let _span = trace::call("native.alltoall");
        let bytes = self
            .lower
            .alltoall(&u64::encode(blocks), u64::elem_size(), self.compute)?;
        u64::decode(&bytes)
    }
}

fn first(values: &[f64]) -> MpiResult<f64> {
    values
        .first()
        .copied()
        .ok_or_else(|| MpiError::Internal("allreduce returned no elements".into()))
}

/// Digest of a lattice alone (the native-vs-MANA checksum).
pub fn lattice_digest(lattice: &[f64]) -> u64 {
    xxh64(&f64::encode(lattice))
}

/// Prefix of the application's state regions (`state.000`, `state.001`, ...).
pub const STATE_PREFIX: &str = "state.";

pub fn state_region(index: usize) -> String {
    format!("{STATE_PREFIX}{index:03}")
}

/// Digest of everything a rank computed and holds: the lattice plus every state
/// region, in name order (the restarted-vs-uninterrupted tail digest).
pub fn state_digest(lattice: &[f64], upper: &UpperHalfSpace) -> u64 {
    let mut digests = lattice_digest(lattice).to_le_bytes().to_vec();
    for (name, data) in upper
        .iter()
        .filter(|(name, _)| name.starts_with(STATE_PREFIX))
    {
        digests.extend_from_slice(&xxh64(name.as_bytes()).to_le_bytes());
        digests.extend_from_slice(&xxh64(data).to_le_bytes());
    }
    xxh64(&digests)
}
