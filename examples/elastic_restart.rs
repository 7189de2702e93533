//! Elastic restart: checkpoint a world at N ranks, restart it onto M.
//!
//! A job of N logical shards is preempted mid-run after committing a
//! checkpoint generation. Because the job carries an elastic policy
//! ([`JobConfig::with_elastic`]), the same generation can be restored onto a
//! *different* rank count: a runtime built for the new allocation over the same
//! store resumes it through [`JobRuntime::run_steps`], whose restore rewrites each
//! survivor's virtual-id tables, counters and ledgers onto the new world,
//! synthesizes upper halves for any fresh ranks, and lets the
//! [`SkeletonRepartition`] rebalance the logical shards over the new hosts.
//! The workload folds every phase in logical-rank order, so the final answer
//! is bit-identical no matter how many physical ranks host the shards — the
//! example asserts exactly that for a shrink (8 → 6) and a growth (8 → 12).
//!
//! ```text
//! cargo run --release --example elastic_restart
//! ```

use std::sync::Arc;

use job_runtime::{Backend, JobConfig, JobRuntime, RemapPolicy};
use mana::Session;
use mana_apps::{AppId, ElasticShard, ElasticWorldState, SkeletonRepartition, STATE_REGION};
use mpi_model::error::MpiResult;
use mpi_model::types::Rank;

const STEPS: u64 = 8;
const CKPT_EVERY: u64 = 2;
const KILL_AT: u64 = 3;

/// One step of a partition-independent fold: every rank contributes one term
/// per logical shard it hosts, the terms travel by allgather, and every fold
/// walks the logical ranks in ascending order. The returned check value has
/// the same bits on every rank for *any* hosting of the shards.
fn shard_fold_step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let world_size = session.world_size();
    let world = session.world()?;

    let mut state: ElasticWorldState = if session.upper().contains(STATE_REGION) {
        session.upper().load_json(STATE_REGION)?
    } else {
        ElasticWorldState {
            app: AppId::CoMd,
            logical_world: world_size,
            iteration: 0,
            hosts: (0..world_size as Rank).collect(),
            shards: vec![ElasticShard {
                logical_rank: me,
                lattice: vec![me as f64 + 0.5; 64],
            }],
        }
    };
    let n = state.logical_world;
    let hosts = state.hosts.clone();

    let mut terms = vec![0u64; n];
    for shard in &state.shards {
        let term = shard.lattice[0] * 0.75 + (step as f64 + 1.0) * 1e-3;
        terms[shard.logical_rank as usize] = term.to_bits();
    }
    let gathered = session.allgather(&terms, world)?;
    for shard in &mut state.shards {
        let mut acc = 0.0;
        for (l, &host) in hosts.iter().enumerate() {
            acc += f64::from_bits(gathered[host as usize * n + l]);
        }
        shard.lattice[0] = 0.5 * shard.lattice[0] + 0.25 * acc;
    }
    state.iteration = step + 1;
    session.upper_mut().store_json(STATE_REGION, &state)?;

    let mut sums = vec![0u64; n];
    for shard in &state.shards {
        sums[shard.logical_rank as usize] = shard.checksum().to_bits();
    }
    let published = session.allgather(&sums, world)?;
    let mut check = 0.0;
    for (l, &host) in hosts.iter().enumerate() {
        check += f64::from_bits(published[host as usize * n + l]);
    }
    Ok(check.to_bits())
}

/// Checkpoint at `from` ranks, preempt, resume the same generation at `to`.
fn resize_case(from: usize, to: usize) -> MpiResult<()> {
    // The answer the resized run must reproduce exactly.
    let reference =
        JobRuntime::new(JobConfig::new(from, Backend::Mpich).with_checkpoint_every(CKPT_EVERY))
            .run_steps(STEPS, shard_fold_step)?
            .results()?[0];

    let runtime = JobRuntime::new(
        JobConfig::new(from, Backend::Mpich)
            .with_checkpoint_every(CKPT_EVERY)
            .with_kill_at_step(KILL_AT)
            .with_elastic(RemapPolicy::Block, Arc::new(SkeletonRepartition::default())),
    );
    let run = runtime.run_steps(STEPS, shard_fold_step)?;
    assert!(
        run.was_preempted(),
        "the kill-at-step preemption never fired"
    );
    println!(
        "  {from}-rank job preempted at step {KILL_AT}, generation {:?} committed",
        runtime.published_generation()
    );

    // The new allocation: a `to`-rank runtime over the preempted job's store.
    let resumed = JobRuntime::with_storage(
        JobConfig::new(to, Backend::Mpich)
            .with_checkpoint_every(CKPT_EVERY)
            .with_elastic(RemapPolicy::Block, Arc::new(SkeletonRepartition::default())),
        runtime.storage().clone(),
    );
    let results = resumed.run_steps(STEPS, shard_fold_step)?.results()?;
    assert_eq!(results.len(), to, "the resized world has {to} ranks");
    assert!(
        results.iter().all(|&v| v == reference),
        "resized run diverged from the uninterrupted baseline"
    );
    println!(
        "  resumed on {to} ranks (now world size {}), all {} answers bit-identical \
         to the uninterrupted {from}-rank run ✓",
        resumed.current_world_size(),
        results.len()
    );
    Ok(())
}

fn main() -> MpiResult<()> {
    println!("shrink: 8 logical shards squeezed onto 6 survivors");
    resize_case(8, 6)?;
    println!("grow: 8 logical shards spread over 12 ranks (4 fresh)");
    resize_case(8, 12)?;
    println!("\nboth resized restarts reproduced their baselines exactly ✓");
    Ok(())
}
