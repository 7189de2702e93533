//! The shared communication skeleton all six proxy applications run on.
//!
//! A proxy application is described by an [`AppProfile`]: how many halo neighbours it
//! exchanges with per timestep, how big the halo messages are, how many reductions
//! close each step, how often it rebuilds neighbour lists with an all-to-all, and how
//! much per-rank state it carries. The shared [`run`] function executes that profile
//! against a typed [`mana::Session`], keeping *all* application state — including the
//! typed MPI handles themselves — in the rank's upper-half address space, so a
//! checkpoint taken mid-run is transparently resumable.

use ckpt_store::{CheckpointStorage, StoreReport};
use mana::{Comm, Op, Session};
use mpi_model::error::MpiResult;
use mpi_model::types::Rank;
use serde::{Deserialize, Serialize};

/// The five applications of the paper's evaluation, plus the VASP-style proxy added
/// for the plane-wave-DFT workload shape (the paper's §1 motivating class of codes
/// with no application-level checkpointing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppId {
    /// CoMD: molecular-dynamics proxy (halo exchange + energy reduction).
    CoMd,
    /// HPCG: conjugate-gradient solver (halo exchange + two dot products per step).
    Hpcg,
    /// LAMMPS: Lennard-Jones MD (very frequent small exchanges, periodic rebuilds).
    Lammps,
    /// LULESH-2.0: shock hydrodynamics (27-point stencil, dt reduction).
    Lulesh,
    /// SW4: seismic wave propagation (large halos, frequent exchanges).
    Sw4,
    /// VASP-style plane-wave DFT proxy (all-to-all FFT transposes every step,
    /// reduction-heavy orthonormalization).
    Vasp,
}

impl AppId {
    /// All applications: the paper's five (in the order its figures list them)
    /// followed by the VASP-style proxy.
    pub const ALL: [AppId; 6] = [
        AppId::Hpcg,
        AppId::Lulesh,
        AppId::CoMd,
        AppId::Lammps,
        AppId::Sw4,
        AppId::Vasp,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppId::CoMd => "CoMD",
            AppId::Hpcg => "HPCG",
            AppId::Lammps => "LAMMPS",
            AppId::Lulesh => "LULESH",
            AppId::Sw4 => "SW4",
            AppId::Vasp => "VASP",
        }
    }
}

/// Static description of one proxy application's communication and memory behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Which application this is.
    pub id: AppId,
    /// Number of halo-exchange partners per timestep (each partner costs one send and
    /// one receive in each direction).
    pub halo_neighbors: usize,
    /// `f64` elements per halo message.
    pub halo_elements: usize,
    /// Number of global reductions per timestep (energy sums, dot products, dt).
    pub allreduces_per_iter: usize,
    /// Rebuild neighbour lists with an `MPI_Alltoall` every this many timesteps
    /// (0 = never).
    pub alltoall_every: u64,
    /// Whether the application carves a sub-communicator out of the world at startup
    /// (row/plane communicators). Requires `MPI_Comm_split` from the lower half.
    pub(crate) uses_split_comm: bool,
    /// Per-rank state in `f64` elements at scale 1.0, calibrated to the paper's
    /// Table 3 checkpoint sizes.
    pub(crate) state_elements_full_scale: usize,
}

impl AppProfile {
    /// Per-rank state size in bytes at the given scale.
    pub fn state_bytes_at_scale(&self, scale: f64) -> usize {
        ((self.state_elements_full_scale as f64 * scale).max(64.0) as usize) * 8
    }

    /// Wrapped MPI calls one rank makes per timestep (sends + receives + collectives),
    /// used by the harness to convert call rates into overhead.
    pub fn calls_per_iteration(&self) -> u64 {
        let halo = 2 * 2 * self.halo_neighbors as u64; // send+recv in both directions
        let collectives = self.allreduces_per_iter as u64;
        let rebuild = if self.alltoall_every > 0 { 1 } else { 0 };
        halo + collectives + rebuild
    }
}

/// Runtime parameters for one proxy run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of timesteps to run in total (including any completed before a restart).
    pub iterations: u64,
    /// Scale factor applied to the full-scale per-rank state (1.0 reproduces the
    /// paper's checkpoint sizes; tests use much smaller values).
    pub state_scale: f64,
    /// Take a transparent checkpoint after completing this timestep, into this
    /// `ckpt-store` storage engine, through [`Session::checkpoint_into`] under the
    /// rank's configured [`mana::StoragePolicy`] (`FullImage` is the paper's
    /// baseline write path).
    pub checkpoint: Option<(u64, CheckpointStorage)>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            iterations: 10,
            state_scale: 1e-4,
            checkpoint: None,
        }
    }
}

impl RunConfig {
    /// A small configuration suitable for tests.
    pub fn smoke(iterations: u64) -> Self {
        RunConfig {
            iterations,
            ..Default::default()
        }
    }

    /// The storage to checkpoint into after completing `iteration`, if one is due.
    pub(crate) fn checkpoint_due(&self, iteration: u64) -> Option<&CheckpointStorage> {
        let (at, storage) = self.checkpoint.as_ref()?;
        (*at == iteration).then_some(storage)
    }
}

/// What one rank reports after running (or resuming) a proxy application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// The application that ran.
    pub app: AppId,
    /// This rank.
    pub rank: Rank,
    /// Timesteps completed in total (across restarts).
    pub iterations_completed: u64,
    /// Upper↔lower crossings this rank has performed so far.
    pub crossings: u64,
    /// A deterministic checksum of the final state (identical across a
    /// checkpoint/restart boundary if the run is equivalent).
    pub checksum: f64,
    /// Per-rank state size in bytes.
    pub state_bytes: usize,
    /// The storage engine's report of the checkpoint taken during this run, if any
    /// (logical vs written bytes, chunk reuse, compression savings).
    pub incremental: Option<StoreReport>,
}

/// The application state stored in the upper half; everything needed to resume.
///
/// The MPI handles are stored *typed* (`Comm`, `Op<f64>`): they serialize as the
/// same virtual-id-bearing values as raw `AppHandle`s, so they survive a
/// checkpoint/restart identically — with the element type statically attached on
/// the way back out. (Datatypes need no handle here at all: the typed sends and
/// reductions resolve the `f64` datatype from the element type.)
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SkeletonState {
    app: AppId,
    iteration: u64,
    /// Serialized as raw IEEE-754 bits so a checkpoint/restart round trip is bit-exact
    /// (text formatting of floats must not perturb the resumed computation).
    #[serde(with = "f64_bits")]
    lattice: Vec<f64>,
    world: Comm,
    compute_comm: Comm,
    sum_op: Op<f64>,
}

/// Bit-exact (de)serialization of an `f64` vector through `u64` bit patterns.
pub(crate) mod f64_bits {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(values: &[f64], serializer: S) -> Result<S::Ok, S::Error> {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        bits.serialize(serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Vec<f64>, D::Error> {
        let bits: Vec<u64> = Vec::deserialize(deserializer)?;
        Ok(bits.into_iter().map(f64::from_bits).collect())
    }
}

fn state_region(app: AppId) -> String {
    format!("app.{}.state", app.name().to_lowercase())
}

/// Execute (or resume) `profile` on `session` according to `config`.
pub fn run(
    profile: &AppProfile,
    session: &mut Session,
    config: &RunConfig,
) -> MpiResult<AppReport> {
    let me = session.world_rank();
    let size = session.world_size() as Rank;
    let region = state_region(profile.id);

    // Resume from the upper half if state is present, otherwise initialize.
    let mut state: SkeletonState = if session.upper().contains(&region) {
        session.upper().load_json(&region)?
    } else {
        let world = session.world()?;
        let sum_op = Op::sum();
        let compute_comm = if profile.uses_split_comm && size > 1 {
            // Row communicator: ranks with the same parity compute together.
            session.comm_split(world, Some(me % 2), me)?
        } else {
            world
        };
        let elements = profile.state_bytes_at_scale(config.state_scale) / 8;
        let lattice = (0..elements)
            .map(|i| ((i as f64) * 0.5 + me as f64 * 1.25).sin())
            .collect();
        SkeletonState {
            app: profile.id,
            iteration: 0,
            lattice,
            world,
            compute_comm,
            sum_op,
        }
    };

    let halo = profile.halo_elements.min(state.lattice.len().max(1));
    let mut incremental_report = None;

    while state.iteration < config.iterations {
        let step = state.iteration;

        // Halo exchange with `halo_neighbors` partners in each direction.
        if size > 1 {
            for n in 1..=profile.halo_neighbors as Rank {
                let right = (me + n).rem_euclid(size);
                let left = (me - n).rem_euclid(size);
                session.send(&state.lattice[..halo], right, n, state.world)?;
                let (incoming, _) = session.recv::<f64>(halo, left, n, state.world)?;
                // Fold the halo into the boundary of the local state.
                for (cell, ghost) in state.lattice.iter_mut().zip(incoming.iter()) {
                    *cell = 0.75 * *cell + 0.25 * ghost;
                }
                // And the reverse direction.
                let tail = state.lattice.len() - halo;
                session.send(&state.lattice[tail..], left, 1000 + n, state.world)?;
                let (incoming, _) = session.recv::<f64>(halo, right, 1000 + n, state.world)?;
                for (cell, ghost) in state.lattice[tail..].iter_mut().zip(incoming.iter()) {
                    *cell = 0.75 * *cell + 0.25 * ghost;
                }
            }
        }

        // Local "compute": a cheap deterministic relaxation over a bounded window, so
        // test runs stay fast regardless of state size.
        let window = state.lattice.len().min(4096);
        for i in 1..window {
            state.lattice[i] = 0.5 * (state.lattice[i] + state.lattice[i - 1]);
        }

        // Global reductions closing the timestep (energy / dot products / dt).
        for r in 0..profile.allreduces_per_iter {
            let local = state.lattice[(r * 7) % window.max(1)] + step as f64 * 1e-6;
            let reduced = session.allreduce(&[local], state.sum_op, state.compute_comm)?;
            state.lattice[0] += reduced[0] * 1e-9;
        }

        // Periodic neighbour-list rebuild (the FFT transpose, for VASP).
        if profile.alltoall_every > 0
            && (step + 1).is_multiple_of(profile.alltoall_every)
            && size > 1
        {
            let block: Vec<u64> = (0..size).map(|peer| (me * 1000 + peer) as u64).collect();
            let gathered = session.alltoall(&block, 1, state.world)?;
            state.lattice[0] += gathered.len() as f64 * 8.0 * 1e-12;
        }

        state.iteration += 1;

        // Transparent checkpoint, if requested at this timestep.
        if let Some(storage) = config.checkpoint_due(state.iteration) {
            session.upper_mut().store_json(region.as_str(), &state)?;
            incremental_report = Some(session.checkpoint_into(storage)?);
        }
    }

    // Persist the final state so a later checkpoint (or inspection) sees it.
    session.upper_mut().store_json(region.as_str(), &state)?;

    let checksum = state.lattice.iter().take(512).sum::<f64>() + state.iteration as f64;
    Ok(AppReport {
        app: profile.id,
        rank: me,
        iterations_completed: state.iteration,
        crossings: session.crossings(),
        checksum,
        state_bytes: state.lattice.len() * 8,
        incremental: incremental_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana::{ManaConfig, ManaRank};
    use mpi_engine::Backend;
    use mpi_model::op::UserFunctionRegistry;
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn profile() -> AppProfile {
        AppProfile {
            id: AppId::CoMd,
            halo_neighbors: 2,
            halo_elements: 16,
            allreduces_per_iter: 1,
            alltoall_every: 3,
            uses_split_comm: true,
            state_elements_full_scale: 4_000_000,
        }
    }

    #[test]
    fn calls_per_iteration_counts_both_directions() {
        let p = profile();
        assert_eq!(p.calls_per_iteration(), 2 * 2 * 2 + 1 + 1);
        assert_eq!(p.state_bytes_at_scale(1.0), 32_000_000);
        assert!(p.state_bytes_at_scale(1e-9) >= 64 * 8);
    }

    #[test]
    fn skeleton_runs_and_is_deterministic() {
        let reg = Arc::new(RwLock::new(UserFunctionRegistry::new()));
        let run_once = || {
            let (lowers, _) = Backend::Mpich.launch(4, reg.clone(), 1).unwrap();
            let handles: Vec<_> = lowers
                .into_iter()
                .map(|lower| {
                    let reg = reg.clone();
                    std::thread::spawn(move || {
                        let rank = ManaRank::new(lower, ManaConfig::new_design(), reg).unwrap();
                        let mut session = Session::new(rank);
                        run(&profile(), &mut session, &RunConfig::smoke(6)).unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        let a = run_once();
        let b = run_once();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.iterations_completed, 6);
            assert!(x.crossings > 0);
            assert_eq!(x.checksum, y.checksum, "the skeleton is deterministic");
        }
    }
}
