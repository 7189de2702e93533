//! Jobs as tenants of a shared multi-tenant checkpoint service: cross-job dedup
//! through one chunk space, restart from the tenant's own namespaced view, and the
//! admission-control fallback (ISSUE 6 satellite: a rejected async submission must
//! fall back to a synchronous write — a checkpoint is never skipped).

use ckpt_service::{CkptService, ServiceConfig, TenantQuota};
use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::error::MpiResult;

const WORLD: usize = 2;
const STATE: &str = "app.state";

/// One step of a deterministic workload. The stored content depends on the rank and
/// the step only — *not* on which job runs it — so identical jobs produce identical
/// chunks and the service's cross-job dedup has something to find.
fn step(session: &mut Session, step: u64) -> MpiResult<u64> {
    let me = session.world_rank();
    let world = session.world()?;
    let total = session.allreduce(&[1i32], Op::sum(), world)?[0];
    assert_eq!(total as usize, WORLD);
    let payload: Vec<u8> = (0..64 * 1024)
        .map(|i| {
            ((i as u64)
                .wrapping_add(me as u64 * 10_007)
                .wrapping_add(step * 1_000_003)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 17) as u8
        })
        .collect();
    session.upper_mut().map_region(STATE, payload);
    Ok(step)
}

#[test]
fn identical_jobs_dedup_through_one_service_and_restart_from_their_own_views() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let tenant_a = service.register_tenant("job-a");
    let tenant_b = service.register_tenant("job-b");

    // Two identical jobs, run back to back so the accounting is deterministic:
    // everything job B writes is already in the shared chunk space.
    for tenant in [&tenant_a, &tenant_b] {
        let runtime = JobRuntime::with_service(
            JobConfig::new(WORLD, Backend::Mpich).with_checkpoint_every(2),
            tenant.clone(),
        );
        let run = runtime.run_steps(6, step).unwrap();
        assert!(!run.was_preempted());
        assert_eq!(runtime.published_generation(), Some(2));
        assert_eq!(runtime.storage().generations(), vec![0, 1, 2]);
    }

    let a = tenant_a.stats();
    let b = tenant_b.stats();
    assert!(a.chunks_new > 0, "the first job must store fresh chunks");
    assert!(
        b.chunks_reused >= a.chunks_new,
        "the second job must re-reference the first job's chunks \
         (reused {} of {} stored)",
        b.chunks_reused,
        a.chunks_new
    );
    assert!(
        b.physical_bytes_written < a.physical_bytes_written / 2,
        "dedup must make the second identical job's storage traffic cheap \
         ({} vs {})",
        b.physical_bytes_written,
        a.physical_bytes_written
    );
    // The two-identical-tenants gate the bench enforces service-wide.
    assert!(service.stats().dedup_ratio() >= 1.5);

    // Namespaces stay isolated: each tenant restarts from *its own* newest
    // generation, and the images are bit-identical across tenants only because the
    // jobs were identical.
    let (gen_a, images_a) = tenant_a.storage().latest_valid_images(WORLD).unwrap();
    let (gen_b, images_b) = tenant_b.storage().latest_valid_images(WORLD).unwrap();
    assert_eq!(gen_a, 2);
    assert_eq!(gen_b, 2);
    for (ia, ib) in images_a.iter().zip(&images_b) {
        assert_eq!(
            ia.upper_half.region(STATE).unwrap(),
            ib.upper_half.region(STATE).unwrap()
        );
    }
}

#[test]
fn a_preempted_service_job_restarts_from_its_tenant_view() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let tenant = service.register_tenant("preemptible");
    let runtime = JobRuntime::with_service(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(2)
            .with_async_checkpoint()
            .with_kill_at_step(3),
        tenant.clone(),
    );
    let run = runtime.run_steps(8, step).unwrap();
    assert!(run.was_preempted());
    assert_eq!(run.generation(), Some(0), "one generation before the kill");

    // The resume restarts from the tenant view's newest committed generation,
    // resumes the step counter from its record and re-runs the lost work.
    let resumed = runtime.run_steps(8, step).unwrap();
    assert!(!resumed.was_preempted());
    assert_eq!(runtime.published_generation(), Some(3));
    let stats = tenant.stats();
    assert_eq!(stats.in_flight, 0, "nothing left in flight after the run");
    assert!(stats.logical_bytes_written > 0);
}

/// The satellite regression: with an injected saturated pool (a zero total
/// in-flight budget), *every* async submission is rejected — and every checkpoint
/// still commits, through the synchronous fallback. No checkpoint is ever skipped.
#[test]
fn saturated_pool_falls_back_to_sync_writes_and_never_skips_a_checkpoint() {
    let service = CkptService::new(ServiceConfig {
        max_in_flight_total: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let tenant = service.register_tenant("starved");
    let runtime = JobRuntime::with_service(
        JobConfig::new(WORLD, Backend::Mpich)
            .with_checkpoint_every(1)
            .with_async_checkpoint(),
        tenant.clone(),
    );
    let run = runtime.run_steps(4, step).unwrap();
    assert!(!run.was_preempted());

    // All 4 boundary checkpoints committed despite a pool that admitted nothing.
    assert_eq!(runtime.storage().generations(), vec![0, 1, 2, 3]);
    assert_eq!(runtime.published_generation(), Some(3));
    let stats = tenant.stats();
    assert_eq!(
        stats.rejected_submissions,
        (4 * WORLD) as u64,
        "every rank's every submission must have been turned away"
    );
    assert_eq!(
        stats.sync_fallbacks, stats.rejected_submissions,
        "every rejection must have been absorbed by a synchronous fallback"
    );
    // And the result is restartable like any other checkpoint.
    let (generation, images) = tenant.storage().latest_valid_images(WORLD).unwrap();
    assert_eq!(generation, 3);
    assert_eq!(images.len(), WORLD);
}

#[test]
fn concurrent_service_jobs_with_quotas_all_complete_and_stay_restartable() {
    const JOBS: usize = 4;
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let tenants: Vec<_> = (0..JOBS)
        .map(|j| {
            service.register_tenant_with(
                &format!("job-{j}"),
                TenantQuota::default().with_max_generations(2),
            )
        })
        .collect();

    // All jobs run concurrently against the one service, flushing asynchronously
    // through the shared pool while their quotas reclaim old generations.
    let workers: Vec<_> = tenants
        .iter()
        .map(|tenant| {
            let tenant = tenant.clone();
            std::thread::spawn(move || {
                let runtime = JobRuntime::with_service(
                    JobConfig::new(WORLD, Backend::Mpich)
                        .with_checkpoint_every(1)
                        .with_async_checkpoint(),
                    tenant,
                );
                let run = runtime.run_steps(6, step).unwrap();
                assert!(!run.was_preempted());
                runtime.published_generation()
            })
        })
        .collect();
    for worker in workers {
        assert_eq!(worker.join().unwrap(), Some(5));
    }

    for (j, tenant) in tenants.iter().enumerate() {
        tenant.wait_idle();
        let stats = tenant.stats();
        assert!(
            stats.committed_generations <= 2,
            "job {j} ended over quota with {} generations",
            stats.committed_generations
        );
        assert!(
            stats.reclaimed_generations >= 4,
            "job {j}'s quota must have reclaimed its old generations"
        );
        let (generation, images) = tenant.storage().latest_valid_images(WORLD).unwrap();
        assert_eq!(generation, 5, "job {j} must keep its newest generation");
        assert_eq!(images.len(), WORLD);
    }
}
