//! Collective-heavy solver under two-phase collective checkpointing: the
//! CG/allreduce-dominated workload shape that only became checkpointable once
//! collectives stopped being opaque to the coordinator.
//!
//! Every step of the solver is collectives end to end — an `allreduce` for the global
//! residual and an `allgather` for the search-direction digest — so there is *no*
//! step-boundary window in which an old-style checkpoint could squeeze in without
//! risking ranks straddling a collective. With the two-phase protocol each collective
//! is a registration round ("trivial barrier") followed by the real exchange, and a
//! preemption notice arriving at any moment is serviced with every rank provably
//! before or after — never inside — the collective's critical phase.
//!
//! The example runs the solver twice: once uninterrupted (the reference), and once
//! with a preemption injected *mid-allreduce* (rank 0 not yet entered, its peers
//! already registered), followed by a resume. The two runs must produce bit-identical
//! results.
//!
//! ```text
//! cargo run --example allreduce_solver
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops at its first failure, with the message"
)]

use mana_repro::job_runtime::{Backend, JobConfig, JobRuntime};
use mana_repro::mana::{Op, Session};
use mana_repro::mpi_model::error::MpiResult;

const RANKS: usize = 8;
const STEPS: u64 = 6;
const PREEMPT_MID_STEP: u64 = 3;
const STATE_REGION: &str = "app.solver_state";

/// One solver step: read the upper-half state, contribute to two collectives, and
/// only *then* update the state. The pre-collective prefix is pure compute, so the
/// step re-runs identically when a mid-step checkpoint interrupts it.
fn solver_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank() as u64;
    let world = session.world()?;

    if step == 0 {
        session
            .upper_mut()
            .store_json(STATE_REGION, &(me * 37 + 11))?;
    }
    let state: u64 = session.upper().load_json(STATE_REGION)?;

    // Local residual contribution, then the global residual (allreduce)...
    let local = state.wrapping_mul(step + 5) ^ (me << 17);
    let residual = session.allreduce(&[local], Op::sum(), world)?[0];
    // ...and the search-direction digest over everyone's contribution (allgather).
    let direction = session
        .allgather(&[local], world)?
        .iter()
        .fold(0u64, |acc, &x| acc.rotate_left(9) ^ x);

    let next = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(residual)
        .wrapping_add(direction);
    session.upper_mut().store_json(STATE_REGION, &next)?;
    Ok(next)
}

fn main() {
    println!("== reference: {RANKS} ranks, {STEPS} collective-only steps, no interruption ==");
    let reference = JobRuntime::new(JobConfig::new(RANKS, Backend::Mpich))
        .run_steps(STEPS, solver_step)
        .expect("reference run")
        .results()
        .expect("reference completes");
    println!("final states: {reference:x?}\n");

    println!(
        "== preempted: a vacate notice lands inside step {PREEMPT_MID_STEP}, \
         mid-allreduce ==",
    );
    let runtime = JobRuntime::new(
        JobConfig::new(RANKS, Backend::Mpich).with_preempt_mid_step_at(PREEMPT_MID_STEP),
    );
    let run = runtime
        .run_steps(STEPS, solver_step)
        .expect("preempted run");
    assert!(run.was_preempted(), "the injected notice fires");
    println!(
        "ranks straddled the step-{PREEMPT_MID_STEP} allreduce (some registered, rank 0 \
         not yet entered); registered ranks withdrew, the job checkpointed between \
         collectives and vacated (committed generation: {:?})",
        run.generation()
    );

    println!("\n== resume: a new allocation restarts from the mid-step generation ==");
    let resumed = JobRuntime::with_storage(
        JobConfig::new(RANKS, Backend::Mpich),
        runtime.storage().clone(),
    )
    .run_steps(STEPS, solver_step)
    .expect("resume run");
    let results = resumed.results().expect("resumed run completes");
    println!(
        "step {PREEMPT_MID_STEP} re-ran from its beginning, the straddled allreduce \
         was re-executed, steps {}..{STEPS} completed",
        PREEMPT_MID_STEP
    );
    println!("final states: {results:x?}");

    assert_eq!(
        results, reference,
        "the preempted-and-resumed run must match the uninterrupted run bit for bit"
    );
    println!("\nresults identical to the uninterrupted run — two-phase collectives held.");
}
