//! One seeded full-menu chaos plan against a stateful workload driven by the
//! self-healing runtime: the job must complete bit-identically to a chaos-free
//! run from a single call, and its recovery log must render.

use job_runtime::{Backend, ChaosMenu, ChaosPlan, JobConfig, JobRuntime, RecoveryEventKind};
use mana::{Op, Session};
use mpi_model::error::MpiResult;
use std::time::Duration;

const WORLD: usize = 4;
const STEPS: u64 = 8;
const STATE: &str = "app.chaos-bench-state";

/// A stateful fold through the upper half (a restore must reproduce it exactly),
/// a ring exchange, and a global reduction: any divergence anywhere avalanches
/// into every rank's final value.
fn soak_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let n = session.world_size() as i32;
    let world = session.world()?;
    let mut state: u64 = if step == 0 {
        0xBE4C_0000 + me as u64
    } else {
        session.upper().load_json(STATE)?
    };
    session.send(&[(state >> 16) as i32 ^ me], (me + 1) % n, 17, world)?;
    let (payload, _) = session.recv::<i32>(4, (me + n - 1) % n, 17, world)?;
    let total = session.allreduce(&[(state >> 8) as i64], Op::sum(), world)?[0];
    state = state
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(total as u64)
        .wrapping_add(payload[0] as u64)
        .wrapping_add(step * 7 + me as u64);
    session.upper_mut().store_json(STATE, &state)?;
    Ok(state)
}

#[test]
fn quick_soak_passes_and_renders() {
    let config = JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2);
    let baseline = JobRuntime::new(config.clone())
        .run_steps(STEPS, soak_step)
        .unwrap()
        .results()
        .unwrap();

    // Triggers inside the ~30 per-rank fabric operations a run performs, masked
    // outages under the heartbeat deadline.
    let menu = ChaosMenu {
        masked_outage_ms: 30,
        op_horizon: 60,
        ..ChaosMenu::default()
    };
    let runtime = JobRuntime::new(
        config
            .with_heartbeat_deadline(Duration::from_millis(120))
            .with_chaos(ChaosPlan::seeded(2, WORLD, &menu)),
    );
    // One call and no retries: every relaunch below it is automatic.
    let (run, log) = runtime.run_steps_self_healing(STEPS, soak_step).unwrap();
    assert_eq!(run.results().unwrap(), baseline, "seed 2 diverged");
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e.kind, RecoveryEventKind::JobCompleted { .. })));
    let worst_blackout_ms = log.blackouts_ms().into_iter().max().unwrap_or(0);
    assert!(
        worst_blackout_ms <= 5_000,
        "recovery blackout {worst_blackout_ms} ms"
    );
    assert!(log.to_json().contains("JobCompleted"));
}
