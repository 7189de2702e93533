//! The seeded randomized chaos soak: N jobs × M faults, bit-identical results,
//! zero operator-driven restarts.
//!
//! Two layers are exercised against the same deterministic workload:
//!
//! - **Masked chaos** (delays, losses, reorders, healing partitions) injected into a
//!   plain `run_steps` job — no monitor, no recovery machinery. The fabric's
//!   re-sequencing lane must make every fault invisible: results bit-identical to a
//!   chaos-free baseline.
//! - **Lethal chaos** (rank crashes, crash-in-collective, node failures) injected
//!   into `run_steps_self_healing` — the heartbeat monitor detects each death, the
//!   coordinator aborts the round, the job falls back to the newest committed
//!   generation and relaunches, and the final results are *still* bit-identical,
//!   with every event narrated in the `RecoveryLog`.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use std::time::Duration;

use job_runtime::{Backend, ChaosMenu, ChaosPlan, JobConfig, JobRuntime, RecoveryEventKind};
use mana::{Op, Session};
use mpi_model::error::MpiResult;

const WORLD: usize = 4;
const STEPS: u64 = 8;
const STATE: &str = "app.soak-state";

/// One soak step: a stateful fold. Each rank carries a `u64` accumulator in its
/// upper half (so restarts must restore it bit-exactly), exchanges it around a
/// ring, and folds the global `allreduce` of all accumulators back in. Any
/// divergence anywhere — a lost message, a stale restore, a double-applied step —
/// avalanches into every rank's final value.
fn soak_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let n = session.world_size() as i32;
    let world = session.world()?;

    let mut state: u64 = if step == 0 {
        0x5EED_0000 + me as u64
    } else {
        session.upper().load_json(STATE)?
    };

    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    session.send(&[(state >> 16) as i32 ^ me], next, 11, world)?;
    let (payload, status) = session.recv::<i32>(4, prev, 11, world)?;
    assert_eq!(status.source, prev);

    let total = session.allreduce(&[(state >> 8) as i64], Op::sum(), world)?[0];

    state = state
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(total as u64)
        .wrapping_add(payload[0] as u64)
        .wrapping_add(step * 7 + me as u64);
    session.upper_mut().store_json(STATE, &state)?;
    Ok(state)
}

/// Chaos-free reference run: the value every chaotic run must reproduce exactly.
fn baseline() -> Vec<u64> {
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2));
    runtime
        .run_steps(STEPS, soak_step)
        .unwrap()
        .results()
        .unwrap()
}

/// Fault-count envelopes sized for this workload: ~30 per-rank fabric operations
/// per run, so triggers drawn below 60 have a real chance to fire, and masked
/// outages stay well under the 120 ms heartbeat deadline used by the soak.
fn soak_menu(masked_only: bool) -> ChaosMenu {
    let base = if masked_only {
        ChaosMenu::masked_only()
    } else {
        ChaosMenu::default()
    };
    ChaosMenu {
        masked_outage_ms: 30,
        op_horizon: 60,
        ..base
    }
}

#[test]
fn masked_chaos_is_invisible_to_an_unmonitored_job() {
    let reference = baseline();
    let mut fired_total = 0usize;
    for seed in [3u64, 17, 29] {
        let plan = ChaosPlan::seeded(seed, WORLD, &soak_menu(true));
        let runtime = JobRuntime::new(
            JobConfig::new(WORLD, Backend::Mpich)
                .with_checkpoint_every(2)
                .with_chaos(plan),
        );
        let run = runtime.run_steps(STEPS, soak_step).unwrap();
        assert_eq!(
            run.results().unwrap(),
            reference,
            "seed {seed}: masked chaos perturbed the computation"
        );
        // All interval checkpoints still committed despite the turbulence.
        assert_eq!(runtime.published_generation(), Some(STEPS / 2 - 1));
        fired_total += runtime
            .fabric()
            .expect("fabric adopted")
            .fired_fault_ids()
            .len();
    }
    assert!(
        fired_total > 0,
        "no masked fault fired across any seed — the soak tested nothing"
    );
}

#[test]
fn lethal_chaos_soak_self_heals_bit_identically_with_zero_operator_restarts() {
    let reference = baseline();
    let mut total_recoveries = 0u32;
    let mut lethal_fired = 0usize;
    for seed in [1u64, 2, 5, 8, 13] {
        let plan = ChaosPlan::seeded(seed, WORLD, &soak_menu(false));
        let runtime = JobRuntime::new(
            JobConfig::new(WORLD, Backend::Mpich)
                .with_checkpoint_every(2)
                .with_heartbeat_deadline(Duration::from_millis(120))
                .with_chaos(plan),
        );
        // ONE operator action for the whole job lifetime: every detection,
        // fallback and relaunch below happens inside this call.
        let (run, log) = runtime.run_steps_self_healing(STEPS, soak_step).unwrap();
        assert_eq!(
            run.results().unwrap(),
            reference,
            "seed {seed}: recovery diverged from the chaos-free baseline"
        );

        let events = log.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, RecoveryEventKind::JobCompleted { .. })),
            "seed {seed}: log never recorded completion"
        );
        let resumed = events
            .iter()
            .filter(|e| matches!(e.kind, RecoveryEventKind::Resumed { .. }))
            .count() as u32;
        assert_eq!(
            log.recoveries(),
            resumed,
            "seed {seed}: recovery count disagrees with Resumed events"
        );
        for latency in log.detection_latencies_ms() {
            assert!(
                latency < 5_000,
                "seed {seed}: detection took {latency} ms — monitor asleep at the wheel"
            );
        }
        for blackout in log.blackouts_ms() {
            assert!(
                blackout < 10_000,
                "seed {seed}: recovery blackout of {blackout} ms"
            );
        }
        total_recoveries += log.recoveries();
        lethal_fired += log
            .injected_categories()
            .iter()
            .filter(|c| {
                c.as_str() == "crash"
                    || c.as_str() == "crash-in-collective"
                    || c.as_str() == "node-failure"
            })
            .count();
    }
    assert!(
        lethal_fired > 0,
        "no lethal fault fired across the seed matrix — raise op_horizon pressure"
    );
    assert!(
        total_recoveries > 0,
        "the soak never exercised a recovery — it proved nothing"
    );
}

/// The same seed must produce the same fault schedule — a failing soak names its
/// seed, and the replay must hit the identical plan.
#[test]
fn seeded_plans_replay_identically() {
    let a = ChaosPlan::seeded(42, WORLD, &soak_menu(false));
    let b = ChaosPlan::seeded(42, WORLD, &soak_menu(false));
    assert_eq!(a, b);
    let c = ChaosPlan::seeded(43, WORLD, &soak_menu(false));
    assert_ne!(a, c, "different seeds collapsed to the same plan");
}
