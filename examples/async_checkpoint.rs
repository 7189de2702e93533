//! Asynchronous checkpoint flush through the orchestrator: the same job run twice,
//! once with synchronous checkpoint writes and once with
//! [`JobConfig::async_checkpoint`] — identical results, identical committed
//! generations, but with the async flush the ranks only ever stall for the snapshot
//! (a copy-on-write clone of the upper half) while the chunk/compress/store work
//! rides the flusher pool of the job's private checkpoint service.
//!
//! ```text
//! cargo run --release --example async_checkpoint
//! ```

use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::MpiResult;
use net_sim::clock;

const STEPS: u64 = 8;
const WORLD: usize = 4;

fn step(session: &mut Session, step: u64) -> MpiResult<i64> {
    if step == 0 {
        // A few hundred KiB of per-rank state, so the checkpoints move real bytes.
        let me = session.world_rank() as u64;
        let bulk: Vec<u8> = (0..512 * 1024)
            .map(|i| ((i as u64 + me * 7919).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as u8)
            .collect();
        session.upper_mut().map_region("app.bulk", bulk);
    }
    let me = session.world_rank() as i64;
    let world = session.world()?;
    Ok(session.allreduce(&[me + step as i64], Op::sum(), world)?[0])
}

fn main() -> MpiResult<()> {
    let mut reference: Option<Vec<i64>> = None;
    for async_flush in [false, true] {
        let mut config = JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2);
        if async_flush {
            config = config.with_async_checkpoint();
        }
        let runtime = JobRuntime::new(config);
        let started = clock::now();
        let run = runtime.run_steps(STEPS, step)?;
        let wall = started.elapsed();

        let results = run.results()?;
        let label = if async_flush {
            "async flush"
        } else {
            "sync write "
        };
        println!(
            "{label}: {} checkpoints committed (newest generation {:?}), \
             {} pending, wall {wall:?}",
            runtime.storage().generations().len(),
            runtime.published_generation(),
            runtime.storage().pending_generations().len(),
        );
        assert_eq!(runtime.storage().generations().len(), (STEPS / 2) as usize);
        assert!(runtime.storage().pending_generations().is_empty());

        match &reference {
            None => reference = Some(results),
            Some(expected) => {
                assert_eq!(
                    &results, expected,
                    "the async flush must not perturb the computation"
                );
                println!("async results identical to the synchronous run ✓");
            }
        }
    }
    Ok(())
}
