//! Service-level behavior: cross-tenant dedup with namespace isolation, quota GC
//! that only ever touches the over-quota tenant, typed admission control with the
//! synchronous fallback, tenant-scoped idle waits, dropping the service mid-flush,
//! and the cold tier round trip.

use ckpt_service::{AdmissionError, CkptService, ServiceConfig, TenantQuota};
use ckpt_store::{CheckpointStorage, ColdTier, StoragePolicy};
use parking_lot::Mutex;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A deterministic image: content depends on (seed, generation, rank) only, so two
/// tenants using the same seed produce bit-identical chunk streams.
fn image(
    seed: u64,
    generation: u64,
    rank: i32,
    world_size: usize,
    bytes: usize,
) -> CheckpointImage {
    let mut upper = UpperHalfSpace::new();
    let payload: Vec<u8> = (0..bytes)
        .map(|i| {
            ((i as u64)
                .wrapping_add(seed * 7919)
                .wrapping_add(generation * 104_729)
                .wrapping_add(rank as u64 * 31)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 24) as u8
        })
        .collect();
    upper.map_region("app.state", payload);
    CheckpointImage::new(
        ImageMetadata {
            rank,
            world_size,
            generation,
            implementation: "mpich".into(),
        },
        upper,
    )
}

#[test]
fn identical_tenants_dedup_across_jobs_and_stay_isolated() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let first = service.register_tenant("job-a");
    let second = service.register_tenant("job-b");

    // Both tenants run the "same app": identical content per generation.
    for generation in 0..3 {
        for handle in [&first, &second] {
            let report = handle.storage().write_image(
                StoragePolicy::Incremental,
                &image(1, generation, 0, 1, 96 * 1024),
            );
            handle.note_external_write(&report);
        }
    }

    // The second tenant's chunk traffic deduplicated entirely against the first's.
    let second_stats = second.stats();
    assert_eq!(
        second_stats.chunks_new, 0,
        "an identical-app tenant must store no new chunks"
    );
    assert!(second_stats.chunks_reused > 0);

    // Cross-job dedup shows up in the aggregate ratio: two tenants' logical bytes
    // over one tenant's worth of physical chunks.
    let stats = service.stats();
    assert!(
        stats.dedup_ratio() >= 1.5,
        "two identical-app tenants must dedup at least 1.5x, got {:.2}",
        stats.dedup_ratio()
    );

    // Namespaces are isolated: each tenant sees only its own generations, and one
    // tenant pruning everything it owns must not tear the other's checkpoints
    // (shared refcounts keep the chunks alive).
    assert_eq!(first.storage().generations(), vec![0, 1, 2]);
    assert_eq!(second.storage().generations(), vec![0, 1, 2]);
    let report = first.storage().prune_before(u64::MAX);
    assert_eq!(report.pruned, vec![0, 1], "newest committed stays");
    assert_eq!(
        report.freed_bytes, 0,
        "every pruned chunk is still referenced by the other tenant"
    );
    assert!(report.logical_freed_bytes > 0, "logical release is real");
    for generation in 0..3 {
        let restored = second.storage().read(generation, 0).unwrap();
        assert_eq!(
            restored.upper_half.region("app.state").unwrap(),
            image(1, generation, 0, 1, 96 * 1024)
                .upper_half
                .region("app.state")
                .unwrap(),
            "tenant B generation {generation} must round-trip bit-identically"
        );
    }
}

#[test]
fn quota_gc_reclaims_only_the_over_quota_tenant() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let capped =
        service.register_tenant_with("capped", TenantQuota::default().with_max_generations(2));
    let unlimited = service.register_tenant("unlimited");

    // Distinct content per tenant and generation, so reclaims free real chunks.
    for generation in 0..6 {
        for (seed, handle) in [(10, &capped), (20, &unlimited)] {
            let report = handle.storage().write_image(
                StoragePolicy::Incremental,
                &image(seed, generation, 0, 1, 32 * 1024),
            );
            handle.note_external_write(&report);
        }
    }

    // The capped tenant is held at its quota, newest generations retained.
    assert_eq!(capped.storage().generations(), vec![4, 5]);
    let capped_stats = capped.stats();
    assert_eq!(capped_stats.reclaimed_generations, 4);
    assert!(capped_stats.reclaimed_physical_bytes > 0);
    assert!(
        capped_stats.reclaimed_logical_bytes >= capped_stats.reclaimed_physical_bytes,
        "logical release covers the slots, physical only the unshared chunks"
    );

    // The unlimited tenant is untouched: all generations live and readable.
    assert_eq!(unlimited.storage().generations(), vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(unlimited.stats().reclaimed_generations, 0);
    for generation in 0..6 {
        unlimited.storage().read(generation, 0).unwrap();
    }
}

#[test]
fn logical_byte_quota_holds_the_newest_generation_sacred() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    // 16 KiB per generation, quota of 40 KiB: roughly two generations fit.
    let handle = service.register_tenant_with(
        "bytes-capped",
        TenantQuota::default().with_max_logical_bytes(40 * 1024),
    );
    for generation in 0..5 {
        let report = handle.storage().write_image(
            StoragePolicy::Incremental,
            &image(3, generation, 0, 1, 16 * 1024),
        );
        handle.note_external_write(&report);
    }
    let stats = handle.stats();
    assert!(
        stats.live_logical_bytes <= 40 * 1024,
        "live logical bytes {} exceed the quota",
        stats.live_logical_bytes
    );
    let generations = handle.storage().generations();
    assert!(
        generations.contains(&4),
        "newest committed generation survives"
    );
    handle.storage().read(4, 0).unwrap();
}

#[test]
fn saturated_pool_rejects_with_typed_error_and_returns_the_image() {
    let service = CkptService::new(ServiceConfig {
        max_in_flight_total: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let handle = service.register_tenant("starved");
    let submitted = image(9, 0, 0, 1, 4096);
    let rejected = handle
        .submit(StoragePolicy::Incremental, submitted)
        .unwrap_err();
    assert_eq!(
        rejected.error,
        AdmissionError::PoolSaturated {
            in_flight: 0,
            limit: 0
        }
    );
    // The image comes back intact for the fallback write.
    assert_eq!(rejected.image.metadata.generation, 0);
    assert_eq!(handle.stats().rejected_submissions, 1);
    assert!(rejected.error.to_string().contains("saturated"));
}

#[test]
fn tenant_in_flight_budget_rejects_while_other_tenants_proceed() {
    // One worker, blocked by a tenant whose completion callback waits on a lock the
    // test holds: deterministic in-flight state with no timing games.
    let service = CkptService::with_storage(
        ServiceConfig {
            flusher_workers: 1,
            max_in_flight_total: 64,
            ..ServiceConfig::default()
        },
        CheckpointStorage::unmetered(),
    );
    let blocker = service.register_tenant("blocker");
    let budgeted =
        service.register_tenant_with("budgeted", TenantQuota::default().with_max_in_flight(1));

    let gate = Arc::new(Mutex::new(()));
    let held = gate.lock();
    let gate_in_cb = Arc::clone(&gate);
    let blocking = blocker
        .submit_with(
            StoragePolicy::Incremental,
            image(5, 0, 0, 1, 4096),
            move |_| {
                drop(gate_in_cb.lock());
            },
        )
        .unwrap();

    // The single worker is busy; the budgeted tenant's first submission queues...
    let queued = budgeted
        .submit(StoragePolicy::Incremental, image(6, 0, 0, 1, 4096))
        .unwrap();
    // ...and its second exceeds the in-flight budget of 1.
    let rejected = budgeted
        .submit(StoragePolicy::Incremental, image(6, 1, 0, 1, 4096))
        .unwrap_err();
    assert!(matches!(
        rejected.error,
        AdmissionError::TenantBudgetExhausted {
            in_flight: 1,
            budget: 1,
            ..
        }
    ));

    drop(held);
    blocking.wait();
    queued.wait();
    budgeted.wait_idle();
    assert_eq!(budgeted.stats().in_flight, 0);
    assert_eq!(service.in_flight(), 0);
}

#[test]
fn rejected_submission_falls_back_to_synchronous_write() {
    let service = CkptService::new(ServiceConfig {
        max_in_flight_total: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let handle = service.register_tenant("fallback");

    // The async protocol: announce the generation, submit, get rejected, write
    // synchronously, and complete the flush accounting by hand — exactly what the
    // flusher worker would have done.
    handle.storage().begin_generation(0, 1);
    let rejected = handle
        .submit(StoragePolicy::Incremental, image(7, 0, 0, 1, 8192))
        .unwrap_err();
    let report = handle.write_sync_fallback(StoragePolicy::Incremental, &rejected.image);
    assert!(handle
        .storage()
        .note_rank_flushed(report.generation, report.rank));

    assert_eq!(handle.storage().generations(), vec![0]);
    handle.storage().read(0, 0).unwrap();
    let stats = handle.stats();
    assert_eq!(stats.sync_fallbacks, 1);
    assert_eq!(stats.rejected_submissions, 1);
}

#[test]
fn async_submissions_account_and_wait_idle_is_tenant_scoped() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let handle = service.register_tenant("async");
    handle.storage().begin_generation(0, 2);
    let mut flushes = Vec::new();
    for rank in 0..2 {
        flushes.push(
            handle
                .submit(StoragePolicy::Incremental, image(8, 0, rank, 2, 16 * 1024))
                .unwrap(),
        );
    }
    // Handle completion is ordered *after* the in-flight decrement (the callback
    // runs before the outcome flips), so wait on the handles for the reports and on
    // `wait_idle` for the accounting.
    for flush in &flushes {
        flush.wait();
        assert!(flush.is_flushed());
    }
    handle.wait_idle();
    assert_eq!(handle.stats().in_flight, 0);
    assert_eq!(handle.storage().generations(), vec![0]);
    assert_eq!(handle.storage().latest_valid_generation(2).unwrap(), 0);
    assert!(handle.stats().logical_bytes_written > 0);
}

/// Dropping the last handles on the service while a flush is in flight drains the
/// pool on the dropping thread: the flush lands and its handle reports it. No flush
/// callback owns the pool, so no worker is left to join itself when the callback
/// releases the last reference to the service's accounting.
#[test]
fn dropping_the_service_mid_flush_lands_the_flush() {
    let service = CkptService::with_storage(
        ServiceConfig {
            flusher_workers: 1,
            ..ServiceConfig::default()
        },
        CheckpointStorage::unmetered(),
    );
    let handle = service.register_tenant("dropped");
    let view = handle.storage().clone();
    view.begin_generation(0, 1);
    let (entered_tx, entered) = mpsc::channel();
    let (release, held) = mpsc::channel::<()>();
    let flush = handle
        .submit_with(
            StoragePolicy::Incremental,
            image(15, 0, 0, 1, 4096),
            move |_| {
                entered_tx.send(()).unwrap();
                // Held until the service has been dropped, or for a bounded while
                // when the drop waits for this very flush.
                let _ = held.recv_timeout(Duration::from_millis(200));
            },
        )
        .unwrap();
    entered.recv().unwrap();
    drop((service, handle));
    drop(release);
    let report = flush.wait();
    assert_eq!(report.generation, 0);
    assert!(flush.is_flushed());
    assert_eq!(view.generations(), vec![0]);
}

#[test]
fn cold_tier_spill_and_restart_round_trip_bit_identically() {
    let storage = CheckpointStorage::unmetered()
        .with_chunk_size(4 * 1024)
        .with_cold_tier(ColdTier::in_temp().unwrap());
    let service = CkptService::with_storage(
        ServiceConfig {
            hot_bytes_target: Some(16 * 1024),
            ..ServiceConfig::default()
        },
        storage,
    );
    let handle = service.register_tenant("cold");
    for generation in 0..3 {
        let report = handle.storage().write_image(
            StoragePolicy::Incremental,
            &image(11, generation, 0, 1, 128 * 1024),
        );
        handle.note_external_write(&report);
    }
    // The landed writes exceeded the hot target, so demotion already ran; push the
    // whole space cold to make the round trip unambiguous.
    let spilled = service.storage().spill_over(0);
    let stats_before = service.storage().stats();
    assert!(
        stats_before.cold_chunk_count > 0 && spilled.hot_bytes == 0,
        "everything must be demoted: {stats_before:?}"
    );

    // Reads promote transparently and the content is bit-identical.
    for generation in 0..3 {
        let restored = handle.storage().read(generation, 0).unwrap();
        assert_eq!(
            restored.upper_half.region("app.state").unwrap(),
            image(11, generation, 0, 1, 128 * 1024)
                .upper_half
                .region("app.state")
                .unwrap()
        );
    }
    let stats_after = service.storage().stats();
    assert!(
        stats_after.cold_hits > 0,
        "reads must have promoted from cold"
    );
    assert!(stats_after.cold_hit_rate() > 0.0);

    // `latest_valid_images` (the restart path) works against a fully cold store too.
    service.storage().spill_over(0);
    let (generation, images) = handle.storage().latest_valid_images(1).unwrap();
    assert_eq!(generation, 2);
    assert_eq!(images.len(), 1);
}

#[test]
fn corrupt_cold_chunk_fails_validation_and_restart_falls_back() {
    let storage = CheckpointStorage::unmetered()
        .with_chunk_size(4 * 1024)
        .with_cold_tier(ColdTier::in_temp().unwrap());
    let service = CkptService::with_storage(ServiceConfig::default(), storage);
    let handle = service.register_tenant("bitrot");
    for generation in 0..2 {
        let report = handle.storage().write_image(
            StoragePolicy::Incremental,
            &image(13, generation, 0, 1, 64 * 1024),
        );
        handle.note_external_write(&report);
    }
    service.storage().spill_over(0);
    // Rot a chunk private to the newest generation *in its spill file*: the CRC
    // re-validation on promote must refuse it, and restart falls back.
    handle.storage().corrupt_fresh_chunk(1, 0).unwrap();
    assert!(handle.storage().read(1, 0).is_err());
    assert_eq!(handle.storage().latest_valid_generation(1).unwrap(), 0);
}
