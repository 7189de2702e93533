//! Collective-heavy solver steps with no checkpoint, with step-boundary
//! checkpoints, and with a checkpoint intent landing mid-step while ranks
//! straddle an `allreduce`.

use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::MpiResult;

const WORLD: usize = 8;
const STEPS: u64 = 12;
const STATE_BYTES: usize = 64 * 1024;

/// Pure compute, an `allreduce`, an `allgather`, then the state update: the safe
/// shape for mid-step checkpoints.
fn collective_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank() as u64;
    let world = session.world()?;
    if step == 0 {
        let state: Vec<u8> = (0..STATE_BYTES)
            .map(|i| ((i as u64).wrapping_add(me * 7919).wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        session.upper_mut().map_region("app.solver", state);
    }
    let local = session
        .upper()
        .region("app.solver")?
        .iter()
        .fold(me + step, |acc, &b| {
            acc.wrapping_mul(31).wrapping_add(b as u64)
        });
    let total = session.allreduce(&[local], Op::sum(), world)?[0];
    let digest = session
        .allgather(&[local], world)?
        .iter()
        .fold(total, |acc, &x| acc.rotate_left(7) ^ x);
    session.upper_mut().region_mut("app.solver")?[(step as usize) % STATE_BYTES] = digest as u8;
    Ok(digest)
}

/// Run the workload under `config` and count the generations it committed.
fn generations_under(config: JobConfig) -> usize {
    let runtime = JobRuntime::new(config);
    let run = runtime.run_steps(STEPS, collective_step).unwrap();
    assert!(!run.was_preempted());
    runtime.storage().generations().len()
}

#[test]
fn all_three_modes_complete_and_render() {
    let midpoint = STEPS / 2;
    let plain = JobConfig::new(WORLD, Backend::Mpich);
    assert_eq!(
        generations_under(plain.clone()),
        0,
        "no-checkpoint run commits nothing"
    );
    // The midpoint interval fires at both boundaries it divides (6 and 12).
    assert_eq!(
        generations_under(plain.clone().with_checkpoint_every(midpoint)),
        2,
        "two boundary generations"
    );
    assert_eq!(
        generations_under(plain.with_mid_step_checkpoint_at(midpoint)),
        1,
        "one mid-step generation"
    );
}
