//! Resizing a checkpointed world onto a different rank count: the resized run
//! must finish with the uninterrupted run's exact answer, shrinking and growing.

use job_runtime::{Backend, JobConfig, JobRuntime, RemapPolicy};
use mana::Session;
use mana_apps::{AppId, ElasticShard, ElasticWorldState, SkeletonRepartition, STATE_REGION};
use mpi_model::error::MpiResult;
use mpi_model::types::Rank;
use std::sync::Arc;

const STEPS: u64 = 6;
const CHECKPOINT_EVERY: u64 = 3;

/// One shard per initial rank, every phase ordered by logical rank, so the
/// returned check value has the same bits for any hosting of the shards.
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
    // Sum a per-logical-rank gather in logical order, wherever each shard lives.
    let fold = |gathered: &[u64]| -> f64 {
        hosts
            .iter()
            .enumerate()
            .map(|(l, &host)| f64::from_bits(gathered[host as usize * n + l]))
            .sum()
    };

    let mut terms = vec![0u64; n];
    for shard in &state.shards {
        let term = shard.lattice[0] * 0.75 + (step as f64 + 1.0) * 1e-3;
        terms[shard.logical_rank as usize] = term.to_bits();
    }
    let acc = fold(&session.allgather(&terms, world)?);
    for shard in &mut state.shards {
        shard.lattice[0] = 0.5 * shard.lattice[0] + 0.25 * acc;
    }
    state.iteration = step + 1;
    session.upper_mut().store_json(STATE_REGION, &state)?;

    let mut sums = vec![0u64; n];
    for shard in &state.shards {
        sums[shard.logical_rank as usize] = shard.checksum().to_bits();
    }
    Ok(fold(&session.allgather(&sums, world)?).to_bits())
}

/// Checkpoint a `from`-rank job, preempt it, resume it on `to` ranks, and report
/// whether every resized rank finished with the uninterrupted answer.
fn resized_run_matches(from: usize, to: usize) -> bool {
    let config = JobConfig::new(from, Backend::Mpich).with_checkpoint_every(CHECKPOINT_EVERY);
    let reference = JobRuntime::new(config.clone())
        .run_steps(STEPS, shard_fold_step)
        .unwrap()
        .results()
        .unwrap()[0];

    let elastic = |config: JobConfig| {
        config.with_elastic(RemapPolicy::Block, Arc::new(SkeletonRepartition::default()))
    };
    let runtime = JobRuntime::new(elastic(config.with_kill_at_step(CHECKPOINT_EVERY)));
    let run = runtime.run_steps(STEPS, shard_fold_step).unwrap();
    assert!(
        run.was_preempted(),
        "the kill-at-step preemption never fired"
    );
    // The `to`-rank allocation resumes from the preempted job's store.
    let resized = JobConfig::new(to, Backend::Mpich).with_checkpoint_every(CHECKPOINT_EVERY);
    let results = JobRuntime::with_storage(elastic(resized), runtime.storage().clone())
        .run_steps(STEPS, shard_fold_step)
        .unwrap()
        .results()
        .unwrap();
    results.len() == to && results.iter().all(|&v| v == reference)
}

#[test]
fn quick_elastic_bench_passes_and_renders() {
    for (from, to) in [(4, 2), (2, 4)] {
        assert!(
            resized_run_matches(from, to),
            "{from} -> {to} resize diverged from the uninterrupted run"
        );
    }
}
