//! The multi-tenant checkpoint service at small scale: cross-job dedup, aggregate
//! throughput of concurrent tenants, a preempt-and-restart fleet under a tight
//! quota, and a restart read served entirely from the cold tier.

use ckpt_service::{CkptService, ServiceConfig, ServiceHandle, TenantQuota};
use ckpt_store::StoragePolicy;
use job_runtime::{Backend, JobConfig, JobRuntime};
use net_sim::clock;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::{Arc, Barrier};

const FLEET_JOBS: usize = 12;
const FLEET_STATE_BYTES: usize = 8 * 1024;
const TENANTS: usize = 4;
const GENERATIONS: u64 = 3;
const STATE_BYTES: usize = 64 * 1024;

/// Deterministic, incompressible-texture state: dedup here comes from identical
/// writers, never from compression.
fn state(seed: u64, generation: u64, bytes: usize) -> Vec<u8> {
    (0..bytes as u64)
        .map(|i| {
            (i.wrapping_add(seed.wrapping_mul(10_000_019))
                .wrapping_add(generation.wrapping_mul(1_000_003))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 23) as u8
        })
        .collect()
}

/// Write `GENERATIONS` single-rank generations through a tenant handle with the
/// full pending/commit protocol, returning the logical bytes written.
fn write_generations(handle: &ServiceHandle, seed: u64) -> u64 {
    let mut logical = 0;
    for generation in 0..GENERATIONS {
        let mut upper = UpperHalfSpace::new();
        upper.map_region("app.state", state(seed, generation, STATE_BYTES));
        let image = CheckpointImage::new(
            ImageMetadata {
                rank: 0,
                world_size: 1,
                generation,
                implementation: "mpich".into(),
            },
            upper,
        );
        handle.storage().begin_generation(generation, 1);
        let report = handle
            .storage()
            .write_image(StoragePolicy::Incremental, &image);
        handle.storage().note_rank_flushed(generation, 0);
        logical += report.logical_bytes as u64;
        handle.note_external_write(&report);
    }
    logical
}

/// Aggregate MB/s of `TENANTS` concurrent tenants writing distinct content through
/// one service, over the MB/s of one tenant alone on its own service.
fn throughput_ratio() -> f64 {
    let single = CkptService::new(ServiceConfig::default()).unwrap();
    let start = clock::now();
    let logical = write_generations(&single.register_tenant("solo"), 1_000);
    let single_mb_s = logical as f64 / 1e6 / start.elapsed().as_secs_f64();

    let shared = CkptService::new(ServiceConfig::default()).unwrap();
    let handles: Vec<ServiceHandle> = (0..TENANTS)
        .map(|t| shared.register_tenant(&format!("tenant-{t}")))
        .collect();
    // The clock starts once every writer is up: thread spawns are not tenant writes.
    let ready = Arc::new(Barrier::new(TENANTS + 1));
    let writers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(t, handle)| {
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                ready.wait();
                write_generations(&handle, 2_000 + t as u64)
            })
        })
        .collect();
    ready.wait();
    let start = clock::now();
    let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    let aggregate_mb_s = total as f64 / 1e6 / start.elapsed().as_secs_f64();
    aggregate_mb_s / single_mb_s
}

/// One fleet job: a single-rank tenant checkpointing every step is preempted,
/// left with a pending generation (a flush that never landed), and must restart
/// from its newest committed generation and finish. Returns
/// `(restarted_from_newest_committed, completed)`.
fn fleet_job(handle: ServiceHandle, seed: u64) -> (bool, bool) {
    const STEPS: u64 = 4;
    const KILL_AT: u64 = 3;
    let runtime = JobRuntime::with_service(
        JobConfig::new(1, Backend::Mpich)
            .with_checkpoint_every(1)
            .with_async_checkpoint()
            .with_kill_at_step(KILL_AT),
        handle.clone(),
    );
    let step = move |session: &mut mana::Session, step: u64| {
        let bytes = state(seed, step, FLEET_STATE_BYTES);
        session.upper_mut().map_region("app.state", bytes);
        Ok(step)
    };
    if !runtime.run_steps(STEPS, step).unwrap().was_preempted() {
        return (false, false);
    }
    // Boundaries 1..=KILL_AT each committed a generation before the kill; the
    // dead incarnation then announced its next one and never flushed it.
    handle.storage().begin_generation(KILL_AT, 1);
    let restarted = handle
        .storage()
        .latest_valid_images(1)
        .is_ok_and(|(generation, _)| generation == KILL_AT - 1);
    let completed = runtime
        .run_steps(STEPS, step)
        .is_ok_and(|run| !run.was_preempted());
    (restarted, completed)
}

#[test]
fn service_bench_passes_its_gates_at_small_scale() {
    // Two tenants running the identical app: the second one's chunks are free.
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    for tenant in ["app-a", "app-b"] {
        write_generations(&service.register_tenant(tenant), 7);
    }
    let dedup = service.stats().dedup_ratio();
    assert!(dedup >= 1.5, "cross-job dedup {dedup:.2}x");

    // Each ratio divides two back-to-back wall-clock runs: a co-tenant burst landing
    // on one of them can sink a single ratio, a real contention regression sinks
    // every attempt.
    let ratio = (0..3)
        .map(|_| throughput_ratio())
        .find(|&ratio| ratio >= 0.7);
    assert!(ratio.is_some(), "concurrent tenants serialized");

    let fleet = CkptService::new(ServiceConfig {
        max_in_flight_total: FLEET_JOBS * 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let jobs: Vec<_> = (0..FLEET_JOBS)
        .map(|job| {
            let handle = fleet.register_tenant_with(
                &format!("fleet-{job}"),
                TenantQuota::default().with_max_generations(2),
            );
            std::thread::spawn(move || fleet_job(handle, (job % 4) as u64))
        })
        .collect();
    for (job, outcome) in jobs.into_iter().map(|j| j.join().unwrap()).enumerate() {
        assert_eq!(
            outcome,
            (true, true),
            "fleet job {job} (restarted, completed)"
        );
    }
    let reclaims: u64 = fleet
        .stats()
        .tenants
        .iter()
        .map(|t| t.reclaimed_generations)
        .sum();
    assert!(reclaims > 0, "the tight quota must have fired");

    // A zero hot-set target demotes every landed write, so the restart read runs
    // entirely against the cold tier.
    let cold = CkptService::new(ServiceConfig {
        hot_bytes_target: Some(0),
        ..ServiceConfig::default()
    })
    .unwrap();
    let handle = cold.register_tenant("cold");
    write_generations(&handle, 99);
    cold.storage().spill_over(0);
    let (generation, images) = handle.storage().latest_valid_images(1).unwrap();
    assert_eq!(generation, GENERATIONS - 1);
    assert_eq!(
        images[0].upper_half.region("app.state").unwrap(),
        state(99, generation, STATE_BYTES).as_slice(),
        "cold-tier restart image differs"
    );
    assert!(
        cold.storage().stats().cold_hit_rate() > 0.0,
        "reads must have hit the cold tier"
    );
}
