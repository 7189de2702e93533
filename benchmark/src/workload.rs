//! The four job-lifecycle workloads and their fixed work counts.
//!
//! Step and round counts are constants — identical on every commit — scaled only by
//! `--seconds` relative to [`REFERENCE_SECONDS`], never by how fast the code under
//! test happens to run: `time_to_solution_s` is the time for a fixed amount of work.

use crate::gen::Texture;
use crate::step::Shape;
use ckpt_store::StoragePolicy;
use job_runtime::Backend;

/// The `--seconds` value at which the counts below apply unscaled. Each workload's
/// whole process then takes roughly 10–20 s on the 2-core reference container.
pub const REFERENCE_SECONDS: u64 = 10;

/// A run is this many epochs — complete lifecycles on fresh jobs, one after another —
/// and reports the mean of the per-epoch medians. The host's speed shifts between
/// two levels about 1.25x apart every second or so; one long lifecycle reads
/// whichever level each of its phases happened in, five short ones spaced seconds
/// apart sample the mix, and a mean moves smoothly with the mix where a median of
/// pooled samples jumps from one level to the other.
pub const EPOCHS: u64 = 5;
/// Steady-phase segments per epoch (each timed on its own).
pub const SEGMENTS: u64 = 5;
/// Native-phase segments per epoch.
pub const NATIVE_SEGMENTS: u64 = 4;
/// Staged probe rounds appended to the rounds phase of a traced run.
pub const STAGED_ROUNDS: u64 = 10;

/// Where a round's checkpoint goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Synchronous `JobCtx::checkpoint` into the job's own store; rank 0 prunes to
    /// two generations.
    Sync,
    /// `JobCtx::checkpoint_async` as a tenant of a `CkptService`; the tenant quota
    /// reclaims old generations.
    AsyncTenant,
}

/// How much work a run does. All counts are per rank and, but for `epochs`, per
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub epochs: u64,
    /// Unmeasured steps at the end of set-up (5% of the run's steady steps).
    pub warmup_steps: u64,
    /// Steps per steady segment ([`SEGMENTS`] segments).
    pub segment_steps: u64,
    /// Steps per native segment ([`NATIVE_SEGMENTS`] segments).
    pub native_segment_steps: u64,
    pub rounds: u64,
    pub steps_per_round: u64,
    pub restarts: u64,
    pub tail_steps: u64,
}

impl Counts {
    pub fn native_steps(&self) -> u64 {
        self.native_segment_steps * NATIVE_SEGMENTS
    }
}

/// One workload: a step shape, a backend, a state size, a dirty pattern, a storage
/// policy and a sink.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub backend: Backend,
    /// The backend restarts land on (differs from `backend` for the paper's §9
    /// cross-implementation restart).
    pub restart_backend: Backend,
    pub regions: usize,
    pub region_bytes: usize,
    /// Regions rewritten per round (`>= regions` rewrites everything).
    pub dirty_regions: usize,
    pub texture: Texture,
    pub policy: StoragePolicy,
    pub sink: Sink,
    /// Steady steps of a whole run (all epochs) at [`REFERENCE_SECONDS`].
    steady_steps: u64,
    /// Rounds and restarts of a whole run at [`REFERENCE_SECONDS`].
    rounds: u64,
    restarts: u64,
    steps_per_round: u64,
}

/// Round a step count down to a whole number of all-to-all periods, so every
/// segment sees the same call mix and per-step counts are exact.
fn whole_periods(steps: u64) -> u64 {
    (steps / 20).max(1) * 20
}

impl Spec {
    /// The counts for a run asked to measure for `seconds`.
    pub fn counts(&self, seconds: u64) -> Counts {
        let per_epoch = |n: u64| (n * seconds).div_ceil(REFERENCE_SECONDS * EPOCHS).max(1);
        let segment_steps = whole_periods(per_epoch(self.steady_steps) / SEGMENTS);
        Counts {
            epochs: EPOCHS,
            warmup_steps: whole_periods(segment_steps * SEGMENTS / 4),
            segment_steps,
            native_segment_steps: whole_periods(segment_steps * SEGMENTS / 2 / NATIVE_SEGMENTS),
            rounds: per_epoch(self.rounds),
            steps_per_round: self.steps_per_round,
            restarts: per_epoch(self.restarts),
            tail_steps: 100,
        }
    }

    /// Tiny counts for the smoke tests (well under two seconds per workload).
    pub fn quick_counts(&self) -> Counts {
        Counts {
            epochs: 2,
            warmup_steps: 20,
            segment_steps: 20,
            native_segment_steps: 20,
            rounds: 3,
            steps_per_round: self.steps_per_round.min(40),
            restarts: 4,
            tail_steps: 20,
        }
    }

    pub fn state_bytes(&self) -> usize {
        self.regions * self.region_bytes
    }

    /// Rank threads of the MANA world. `clamp(nproc, 2, 4)`, except that the
    /// asynchronous workload trades rank threads for flusher threads so ranks +
    /// flushers never exceed `nproc`.
    pub fn world_size(&self, nproc: usize) -> usize {
        match self.sink {
            Sink::Sync => nproc.clamp(2, 4),
            Sink::AsyncTenant => (nproc / 2).clamp(1, 4),
        }
    }
}

/// The four workloads, in reporting order.
pub fn all() -> [Spec; 4] {
    let comd = mana_apps::comd::profile();
    let vasp = mana_apps::vasp::profile();
    [
        Spec {
            name: "halo_p2p",
            why: "Small-message point-to-point does nearly all the work; the store does almost none.",
            shape: Shape::of(&comd, false),
            backend: Backend::Mpich,
            restart_backend: Backend::Mpich,
            regions: 16,
            region_bytes: 64 * 1024,
            dirty_regions: 2,
            texture: Texture::Compressible,
            policy: StoragePolicy::FullImage,
            sink: Sink::Sync,
            steady_steps: 32_000,
            rounds: 120,
            restarts: 200,
            steps_per_round: 20,
        },
        Spec {
            name: "collective_scf",
            why: "Same mana, engine and fabric layers as halo_p2p, but through collectives on a derived communicator.",
            shape: Shape::of(&vasp, true),
            backend: Backend::OpenMpi,
            restart_backend: Backend::OpenMpi,
            regions: 16,
            region_bytes: 64 * 1024,
            dirty_regions: 2,
            texture: Texture::Compressible,
            policy: StoragePolicy::Incremental,
            sink: Sink::Sync,
            steady_steps: 14_000,
            rounds: 120,
            restarts: 1_000,
            steps_per_round: 20,
        },
        Spec {
            name: "ckpt_incremental",
            why: "Checkpoint and restart do most of the work through dirty tracking, chunk reuse and LZ.",
            shape: Shape::of(&comd, false),
            backend: Backend::ExaMpi,
            restart_backend: Backend::ExaMpi,
            regions: 128,
            region_bytes: 256 * 1024,
            dirty_regions: 8,
            texture: Texture::Compressible,
            policy: StoragePolicy::IncrementalCompressed,
            sink: Sink::Sync,
            steady_steps: 16_000,
            rounds: 200,
            restarts: 60,
            steps_per_round: 20,
        },
        Spec {
            name: "ckpt_full_async",
            why: "Same job-runtime and ckpt-store layers the other way: write-heavy, asynchronous, incompressible, restart onto another MPI.",
            shape: Shape::of(&comd, false),
            backend: Backend::Mpich,
            restart_backend: Backend::OpenMpi,
            regions: 128,
            region_bytes: 256 * 1024,
            dirty_regions: 128,
            texture: Texture::HighEntropy,
            policy: StoragePolicy::Incremental,
            sink: Sink::AsyncTenant,
            steady_steps: 100_000,
            rounds: 120,
            restarts: 300,
            steps_per_round: 2_000,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts_are_the_documented_constants() {
        let counts: Vec<Counts> = all().iter().map(|s| s.counts(REFERENCE_SECONDS)).collect();
        let whole_run = |per_epoch: &dyn Fn(&Counts) -> u64| -> Vec<u64> {
            counts.iter().map(|c| per_epoch(c) * c.epochs).collect()
        };
        assert_eq!(
            whole_run(&|c| c.segment_steps * SEGMENTS),
            [32_000, 14_000, 16_000, 100_000]
        );
        assert_eq!(whole_run(&|c| c.rounds), [120, 120, 200, 120]);
        assert_eq!(whole_run(&|c| c.restarts), [200, 1_000, 60, 300]);
        for c in &counts {
            assert_eq!(c.segment_steps % 20, 0);
            assert_eq!(c.native_segment_steps % 20, 0);
        }
    }

    #[test]
    fn ranks_plus_flushers_never_exceed_nproc() {
        for nproc in 2..=16 {
            for spec in all() {
                let world = spec.world_size(nproc);
                let busy = match spec.sink {
                    Sink::Sync => world,
                    Sink::AsyncTenant => 2 * world,
                };
                assert!(busy <= nproc.max(2), "{} on {nproc} cores", spec.name);
            }
        }
    }
}
