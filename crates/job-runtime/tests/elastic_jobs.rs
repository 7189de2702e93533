//! Elastic restart at the job level: resized restarts driven by [`JobRuntime`],
//! chained restarts across mixed-size generations, and the self-healing loop
//! shrinking a world onto the survivors of a node failure.
//!
//! The step function folds state over *logical shards* (the same
//! overdecomposition [`mana_apps::elastic`] uses), so its global check value is
//! bit-identical no matter how many physical ranks host the shards — which is
//! what lets every resized run be compared against the uninterrupted baseline.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use std::sync::Arc;
use std::time::Duration;

use ckpt_store::{CkptService, ServiceConfig};
use job_runtime::{
    Backend, ChaosPlan, FaultKind, JobConfig, JobRuntime, RecoveryEventKind, RemapPolicy,
};
use mana::Session;
use mana_apps::{AppId, ElasticShard, ElasticWorldState, SkeletonRepartition, STATE_REGION};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::Rank;

const WORLD: usize = 4;
const STEPS: u64 = 8;

/// One partition-independent step over the logical shards this rank hosts: every
/// shard publishes a term through a world allgather, folds all terms in ascending
/// logical order, and the returned check value is the ascending-order fold of all
/// shard checksums — the same bits on every rank, for every hosting.
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

fn baseline() -> u64 {
    let results = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2))
        .run_steps(STEPS, shard_fold_step)
        .unwrap()
        .results()
        .unwrap();
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    results[0]
}

fn elastic_config() -> JobConfig {
    elastic_config_at(WORLD)
}

fn elastic_config_at(world: usize) -> JobConfig {
    JobConfig::new(world, Backend::Mpich)
        .with_checkpoint_every(2)
        .with_elastic(RemapPolicy::Block, Arc::new(SkeletonRepartition::default()))
}

/// A runtime for a new `world`-rank allocation over `previous`'s store.
fn allocation(previous: &JobRuntime, world: usize) -> JobRuntime {
    JobRuntime::with_storage(elastic_config_at(world), previous.storage().clone())
}

#[test]
fn preempted_job_resumes_on_a_smaller_world_with_identical_results() {
    let reference = baseline();
    let runtime = JobRuntime::new(elastic_config().with_kill_at_step(4));
    let run = runtime.run_steps(STEPS, shard_fold_step).unwrap();
    assert!(run.was_preempted());

    let resumed = allocation(&runtime, 2);
    let finished = resumed.run_steps(STEPS, shard_fold_step).unwrap();
    let results = finished.results().unwrap();
    assert_eq!(results.len(), 2, "the resumed world has 2 ranks");
    assert_eq!(resumed.current_world_size(), 2);
    assert!(
        results.iter().all(|&v| v == reference),
        "shrunk resume diverged from the uninterrupted {WORLD}-rank run"
    );
}

/// The same shrink for a job that is a checkpoint-service tenant: the 2-rank
/// allocation resumes as the same tenant, from the tenant's view alone.
#[test]
fn a_preempted_service_job_resumes_on_a_smaller_world_as_the_same_tenant() {
    let reference = baseline();
    let tenant = CkptService::new(ServiceConfig::default())
        .unwrap()
        .register_tenant("elastic");
    let preempted = JobRuntime::with_service(elastic_config().with_kill_at_step(4), tenant.clone());
    assert!(preempted
        .run_steps(STEPS, shard_fold_step)
        .unwrap()
        .was_preempted());
    drop(preempted);

    let results = JobRuntime::with_service(elastic_config_at(2), tenant)
        .run_steps(STEPS, shard_fold_step)
        .unwrap()
        .results()
        .unwrap();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|&v| v == reference));
}

#[test]
fn preempted_job_resumes_on_a_larger_world_with_identical_results() {
    let reference = baseline();
    let runtime = JobRuntime::new(elastic_config().with_kill_at_step(4));
    let run = runtime.run_steps(STEPS, shard_fold_step).unwrap();
    assert!(run.was_preempted());

    let finished = allocation(&runtime, 6)
        .run_steps(STEPS, shard_fold_step)
        .unwrap();
    let results = finished.results().unwrap();
    assert_eq!(results.len(), 6, "the resumed world has 6 ranks");
    assert!(results.iter().all(|&v| v == reference));
}

#[test]
fn restart_without_an_elastic_policy_is_a_typed_error() {
    let runtime = JobRuntime::new(JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2));
    runtime.run_steps(4, shard_fold_step).unwrap();
    let err = runtime.restart_resized(2).unwrap_err();
    assert!(
        matches!(err, MpiError::ElasticResize(_)),
        "expected ElasticResize, got {err:?}"
    );

    // Without an elastic policy, a generation of another size is never restored
    // onto this world: the restart names both sizes.
    let smaller =
        JobRuntime::with_storage(JobConfig::new(2, Backend::Mpich), runtime.storage().clone());
    let err = smaller.restart(Backend::Mpich).unwrap_err();
    assert!(
        matches!(
            err,
            MpiError::WorldSizeMismatch {
                checkpointed: WORLD,
                offered: 2,
                ..
            }
        ),
        "expected WorldSizeMismatch naming 4 and 2, got {err:?}"
    );
}

/// A job resized onto fewer ranks restarts at its new size before it has
/// checkpointed there: the same-size restart reads the newest generation at any
/// size and remaps the 4-rank generation onto the 2-rank world again, and so does
/// the step-driven start that resumes it.
#[test]
fn a_resized_job_restarts_at_its_new_size_before_checkpointing_there() {
    let reference = baseline();
    let runtime = JobRuntime::new(elastic_config().with_kill_at_step(4));
    let run = runtime.run_steps(STEPS, shard_fold_step).unwrap();
    assert!(run.was_preempted());

    let (ranks, resized_generation) = runtime.restart_resized(2).unwrap();
    assert_eq!(ranks.len(), 2);
    drop(ranks);

    let (ranks, generation) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(ranks.len(), 2, "the restart keeps the resized world");
    assert_eq!(generation, resized_generation);
    drop(ranks);
    let finished = runtime.run_steps(STEPS, shard_fold_step).unwrap();
    assert_eq!(runtime.current_world_size(), 2);
    let results = finished.results().unwrap();
    assert_eq!(results.len(), 2);
    assert!(
        results.iter().all(|&v| v == reference),
        "the restart after a resize diverged from the uninterrupted {WORLD}-rank run"
    );
}

#[test]
fn chained_restarts_across_mixed_size_generations() {
    let reference = baseline();
    let runtime = JobRuntime::new(elastic_config());

    // Three lives at three world sizes, all over one storage: 4 ranks to step 4,
    // 3 ranks to step 6, 2 ranks to completion. Each resize restores the newest
    // generation regardless of the world size it was written by.
    runtime.run_steps(4, shard_fold_step).unwrap();
    let three = allocation(&runtime, 3);
    three.run_steps(6, shard_fold_step).unwrap();
    assert_eq!(three.current_world_size(), 3);
    let finished = allocation(&three, 2)
        .run_steps(STEPS, shard_fold_step)
        .unwrap();

    let results = finished.results().unwrap();
    assert_eq!(results.len(), 2);
    assert!(
        results.iter().all(|&v| v == reference),
        "chained 4->3->2 restarts diverged from the uninterrupted run"
    );
}

#[test]
fn node_failure_shrinks_the_world_onto_the_survivors() {
    let reference = baseline();
    // The node hosting ranks 2 and 3 dies at a global fabric operation past the
    // first commit (generation 0 commits near operation 28 of this world, generation
    // 1 near 56): the plan is armed before the run, so the kill is tied to the job's
    // progress rather than to a wall-clock race with it.
    let runtime = JobRuntime::new(
        elastic_config()
            .with_heartbeat_deadline(Duration::from_millis(100))
            .with_chaos(ChaosPlan::from_faults(vec![FaultKind::KillNode {
                ranks: vec![2, 3],
                at_op: 40,
            }])),
    );
    let (run, log) = runtime
        .run_steps_self_healing(STEPS, shard_fold_step)
        .unwrap();
    let results = run.results().unwrap();
    assert_eq!(
        runtime.current_world_size(),
        2,
        "the job should have shrunk onto the two survivors"
    );
    assert_eq!(results.len(), 2);
    assert!(
        results.iter().all(|&v| v == reference),
        "post-shrink results diverged from the uninterrupted 4-rank run"
    );

    let resized: Vec<(usize, usize)> = log
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            RecoveryEventKind::WorldResized { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(
        resized,
        vec![(4, 2)],
        "expected exactly one 4->2 elastic shrink in the recovery log"
    );
    assert!(
        log.events().iter().any(|e| matches!(
            &e.kind,
            RecoveryEventKind::RanksDeclaredDead { ranks, .. } if !ranks.is_empty()
        )),
        "the node failure was never declared"
    );
    assert!(
        log.events().iter().any(|e| matches!(
            e.kind,
            RecoveryEventKind::FallbackRestored {
                generation: Some(_),
                ..
            }
        )),
        "the shrink must restore a committed generation, not relaunch from scratch"
    );
}
