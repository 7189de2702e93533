//! Self-healing under seeded chaos: a job runs with a full-menu [`ChaosPlan`]
//! installed in its fabric — message delays, losses, reorders, healing
//! partitions, plus lethal rank crashes and node failures — and one call to
//! [`JobRuntime::run_steps_self_healing`] carries it to completion. The
//! heartbeat monitor detects each death, the runtime aborts the torn round,
//! falls back to the newest committed checkpoint generation, relaunches, and
//! resumes; the final results are bit-identical to a chaos-free run, and the
//! whole incident history is narrated by the returned [`RecoveryLog`], which is
//! also written to `RECOVERY_log.json` in the working directory.
//!
//! ```text
//! cargo run --release --example self_healing [seed]
//! ```

use std::time::Duration;

use job_runtime::{Backend, ChaosMenu, ChaosPlan, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::MpiResult;

const WORLD: usize = 4;
const STEPS: u64 = 8;
const STATE: &str = "app.state";

/// One step: a stateful fold (the accumulator lives in the upper half, so a
/// restore must reproduce it bit-exactly), a ring exchange, and a global
/// reduction. Any divergence anywhere avalanches into every rank's final value.
fn step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let n = session.world_size() as i32;
    let world = session.world()?;

    let mut state: u64 = if step == 0 {
        0xF1E1_0000 + me as u64
    } else {
        session.upper().load_json(STATE)?
    };

    session.send(&[(state >> 16) as i32 ^ me], (me + 1) % n, 5, world)?;
    let (payload, _) = session.recv::<i32>(4, (me + n - 1) % n, 5, world)?;
    let total = session.allreduce(&[(state >> 8) as i64], Op::sum(), world)?[0];

    state = state
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(total as u64)
        .wrapping_add(payload[0] as u64)
        .wrapping_add(step * 7 + me as u64);
    session.upper_mut().store_json(STATE, &state)?;
    Ok(state)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8u64);

    // The value the chaotic run must reproduce exactly.
    let reference = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2))
        .run_steps(STEPS, step)?
        .results()?;

    // Fault envelopes sized to this short workload: triggers land inside the
    // run, masked outages stay under the heartbeat deadline below.
    let menu = ChaosMenu {
        masked_outage_ms: 30,
        op_horizon: 60,
        ..ChaosMenu::default()
    };
    let plan = ChaosPlan::seeded(seed, WORLD, &menu);
    println!(
        "seed {seed}: {} faults scheduled ({} lethal)\n",
        plan.faults.len(),
        plan.faults.iter().filter(|f| f.lethal()).count()
    );

    let runtime = JobRuntime::new(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(2)
            .with_heartbeat_deadline(Duration::from_millis(120))
            .with_chaos(plan),
    );
    // The single operator action: detection, fallback, relaunch and resume all
    // happen inside this call.
    let (run, log) = runtime.run_steps_self_healing(STEPS, step)?;
    std::fs::write("RECOVERY_log.json", log.to_json())?;

    for event in log.events() {
        println!(
            "[{:>6} ms] incarnation {}: {:?}",
            event.at_ms, event.incarnation, event.kind
        );
    }

    assert_eq!(
        run.results()?,
        reference,
        "recovery diverged from the chaos-free baseline"
    );
    println!(
        "\n{} recoveries, detection latencies {:?} ms, blackouts {:?} ms",
        log.recoveries(),
        log.detection_latencies_ms(),
        log.blackouts_ms()
    );
    println!("results bit-identical to the chaos-free baseline ✓");
    Ok(())
}
