//! Preemptible / urgent-HPC scenario (paper §1, third motivation): a long-running
//! simulation checkpoints *frequently* so it can vacate its nodes on short notice —
//! an XFEL beamline or an urgent-computing reservation needs the machine — and is
//! later resumed on a fresh allocation without losing work.
//!
//! The whole lifecycle is two orchestrator calls: `run_steps` drives the job with
//! periodic coordinated checkpoints and the injected preemption, and the eviction
//! tears the final generation mid-write. Later, a runtime built for the new
//! allocation over the same store calls `run_steps` again: it restores the newest
//! generation that validates end to end and resumes at the step that generation
//! records — repeating only the interval the torn checkpoint lost.
//!
//! ```text
//! cargo run --example preemptible_job
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops at its first failure, with the message"
)]

use mana_repro::ckpt_store::CheckpointStorage;
use mana_repro::job_runtime::{Backend, JobConfig, JobRuntime};
use mana_repro::mana::{ManaConfig, Session, StoragePolicy};
use mana_repro::mana_apps::{run_app, AppId, RunConfig};
use mana_repro::mpi_model::error::MpiResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const RANKS: usize = 4;
const TOTAL_STEPS: u64 = 12;
const CHECKPOINT_EVERY: u64 = 3;
const PREEMPTION_NOTICE_AT: u64 = 9;

/// One LULESH timestep. A read-only input mesh mapped at step 0 stays clean forever,
/// so the incremental engine never rewrites it — the common shape of real HPC state
/// (large static tables, small hot state).
fn lulesh_step(session: &mut Session, step: u64) -> MpiResult<mana_repro::mana_apps::AppReport> {
    if step == 0 {
        let me = session.world_rank() as u64;
        let mesh: Vec<u8> = (0..2 << 20)
            .map(|i| ((i as u64 + me * 7919).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as u8)
            .collect();
        session.upper_mut().map_region("app.input_mesh", mesh);
    }
    run_app(
        AppId::Lulesh,
        session,
        &RunConfig {
            iterations: step + 1,
            state_scale: 2e-4,
            checkpoint: None,
        },
    )
}

fn main() {
    let storage = CheckpointStorage::unmetered();
    let config = JobConfig::new(RANKS, Backend::CrayMpi)
        .with_mana(ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed))
        .with_checkpoint_every(CHECKPOINT_EVERY);
    let runtime = JobRuntime::with_storage(
        config.clone().with_kill_at_step(PREEMPTION_NOTICE_AT),
        storage.clone(),
    );

    println!("== job starts; coordinated checkpoint every {CHECKPOINT_EVERY} steps ==");
    let run = runtime.run_steps(TOTAL_STEPS, lulesh_step).expect("run");
    assert!(run.was_preempted(), "the notice fires at step 9");
    println!(
        "job vacated after step {PREEMPTION_NOTICE_AT}; committed generations {:?} \
         (published: {:?})",
        storage.generations(),
        runtime.published_generation()
    );

    // The eviction tears the final checkpoint of rank 2 — flip one byte of a chunk
    // only the last generation references.
    let last_generation = *storage.generations().last().expect("checkpoints exist");
    storage
        .corrupt_fresh_chunk(last_generation, 2)
        .expect("inject torn write");
    println!(
        "(nodes handed over to the urgent workload; generation {last_generation} of rank 2 \
         was torn mid-write...)\n"
    );

    println!("== later: job resumes on a new allocation, from its store alone ==");
    drop(runtime);
    let first_step = Arc::new(AtomicU64::new(u64::MAX));
    let seen = Arc::clone(&first_step);
    let resumed = JobRuntime::with_storage(config, storage.clone())
        .run_steps(TOTAL_STEPS, move |session, step| {
            seen.fetch_min(step, Ordering::Relaxed);
            lulesh_step(session, step)
        })
        .expect("resume");
    let first_step = first_step.load(Ordering::Relaxed);
    assert!(
        first_step < PREEMPTION_NOTICE_AT,
        "the torn generation {last_generation} (resume step {PREEMPTION_NOTICE_AT}) must \
         be rejected, but the job resumed at step {first_step}"
    );
    println!(
        "torn generation {last_generation} rejected, job resumed at step {first_step} and \
         repeated the lost interval; committed generations now {:?}",
        storage.generations()
    );
    for report in resumed.results().expect("completed") {
        println!(
            "rank {}: finished all {} steps (checksum {:.6})",
            report.rank, report.iterations_completed, report.checksum
        );
    }
    println!("\npreemptible job completed; the torn checkpoint cost one interval, not the run.");
}
