//! Concurrent-tenant stress (satellite of ISSUE 6): N tenants checkpoint under an
//! aggressive per-tenant GC while validators continuously assert that every tenant
//! keeps a restartable newest-committed generation at every instant, and that one
//! tenant hitting its quota never evicts (or blocks restartability of) another
//! tenant's data.

use ckpt_store::{CkptService, ServiceConfig, ServiceHandle, StoragePolicy, TenantQuota};
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const TENANTS: usize = 4;
const WORLD: usize = 2;
const GENERATIONS: u64 = 24;

fn image(seed: u64, generation: u64, rank: i32, bytes: usize) -> CheckpointImage {
    let mut upper = UpperHalfSpace::new();
    let payload: Vec<u8> = (0..bytes)
        .map(|i| {
            ((i as u64)
                .wrapping_add(seed * 6271)
                .wrapping_add(generation * 15_485_863)
                .wrapping_add(rank as u64 * 97)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 21) as u8
        })
        .collect();
    upper.map_region("app.state", payload);
    CheckpointImage::new(
        ImageMetadata {
            rank,
            world_size: WORLD,
            generation,
            implementation: "mpich".into(),
        },
        upper,
    )
}

/// Writer: checkpoints one tenant's world synchronously, generation after
/// generation, accounting every write (which triggers the tenant's quota GC).
///
/// The pending-generation protocol is load-bearing here, exactly as in the real
/// orchestrator: the generation is announced before any rank's slot is written and
/// commits only when the last rank's write lands. Without it a half-written generation
/// would momentarily count as "newest committed", stripping prune protection from
/// the tenant's actual restart point while the GC races these writes.
fn writer(handle: &ServiceHandle, seed: u64, committed_floor: &AtomicU64) {
    for generation in 0..GENERATIONS {
        handle.storage().begin_generation(generation, WORLD);
        for rank in 0..WORLD {
            handle.storage().write_image(
                StoragePolicy::Incremental,
                &image(seed, generation, rank as i32, 24 * 1024),
            );
        }
        committed_floor.store(1, Ordering::Release);
    }
}

#[test]
fn tenants_stay_restartable_under_aggressive_concurrent_gc() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    let handles: Vec<ServiceHandle> = (0..TENANTS)
        .map(|t| {
            // Aggressive quota on every tenant: at most 2 committed generations —
            // the GC runs after essentially every write.
            service.register_tenant_with(
                &format!("tenant-{t}"),
                TenantQuota::default().with_max_generations(2),
            )
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let floors: Vec<Arc<AtomicU64>> = (0..TENANTS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let probes: Vec<Arc<AtomicU64>> = (0..TENANTS).map(|_| Arc::new(AtomicU64::new(0))).collect();

    // Validators: from the moment a tenant has committed anything, its view must
    // yield a complete, end-to-end-valid newest generation at *every* probe, even
    // while the writer and the GC churn underneath.
    let validators: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(t, handle)| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let floor = Arc::clone(&floors[t]);
            let probes = Arc::clone(&probes[t]);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if floor.load(Ordering::Acquire) > 0 {
                        // `latest_valid_images` snapshots the generation list and
                        // then reads; a commit+prune landing in between can retire
                        // every generation in a stale snapshot. The restart point
                        // exists at every instant — an unsynchronized probe just
                        // needs a fresh snapshot to see it (a real restart
                        // quiesces the tenant first). A torn generation, by
                        // contrast, fails *every* retry.
                        let (generation, images) = (0..8)
                            .find_map(|_| handle.storage().latest_valid_images(WORLD).ok())
                            .unwrap_or_else(|| panic!("tenant {t} lost its restart point"));
                        assert_eq!(images.len(), WORLD);
                        assert!(generation < GENERATIONS);
                        probes.fetch_add(1, Ordering::Release);
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // Extra antagonist: hammer explicit quota enforcement on every tenant while
    // the writers run, so GC races GC as well as the writes.
    let antagonist = {
        let handles = handles.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                for handle in &handles {
                    handle.storage().enforce_quota();
                }
                std::thread::yield_now();
            }
        })
    };

    let writers: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(t, handle)| {
            let handle = handle.clone();
            let floor = Arc::clone(&floors[t]);
            std::thread::spawn(move || writer(&handle, t as u64 + 1, &floor))
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    // Optimised writers can finish before a validator is first scheduled: keep the
    // antagonist's GC churning until every validator has probed at least once.
    while probes.iter().any(|n| n.load(Ordering::Acquire) == 0) {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    for validator in validators {
        validator.join().unwrap();
    }
    antagonist.join().unwrap();

    // Quiesced: every tenant sits at its quota with its newest generation intact
    // and fully restartable.
    for (t, handle) in handles.iter().enumerate() {
        let generations = handle.storage().generations();
        assert!(
            generations.len() <= 2,
            "tenant {t} ended over quota: {generations:?}"
        );
        let newest = *generations.last().unwrap();
        assert_eq!(
            newest,
            GENERATIONS - 1,
            "tenant {t} lost its newest generation"
        );
        let images = handle.storage().read_job(newest, WORLD).unwrap();
        for (rank, restored) in images.iter().enumerate() {
            assert_eq!(
                restored.upper_half.region("app.state").unwrap(),
                image(t as u64 + 1, newest, rank as i32, 24 * 1024)
                    .upper_half
                    .region("app.state")
                    .unwrap(),
                "tenant {t} rank {rank} must restore bit-identically"
            );
        }
        assert!(handle.stats().reclaimed_generations >= GENERATIONS - 2);
    }
}

#[test]
fn a_quota_bound_tenant_never_evicts_an_unlimited_neighbors_data() {
    let service = CkptService::new(ServiceConfig::default()).unwrap();
    // Both tenants write the *same* content (maximal chunk sharing), but only one
    // has a quota. Its aggressive GC must never free chunks the unlimited tenant's
    // generations still reference.
    let capped =
        service.register_tenant_with("capped", TenantQuota::default().with_max_generations(1));
    let unlimited = service.register_tenant("unlimited");

    let capped_writer = {
        let capped = capped.clone();
        let floor = AtomicU64::new(0);
        std::thread::spawn(move || writer(&capped, 42, &floor))
    };
    let floor = AtomicU64::new(0);
    writer(&unlimited, 42, &floor);
    capped_writer.join().unwrap();

    // The capped tenant was reclaimed hard...
    assert!(capped.stats().reclaimed_generations > 0);
    // ...but every one of the unlimited tenant's generations still reads back
    // end-to-end valid: shared refcounts shielded its chunks from the GC.
    assert_eq!(
        unlimited.storage().generations().len(),
        GENERATIONS as usize
    );
    for generation in 0..GENERATIONS {
        unlimited
            .storage()
            .read_job(generation, WORLD)
            .unwrap_or_else(|e| {
                panic!(
                    "unlimited tenant's generation {generation} was torn by a neighbor's GC: {e:?}"
                )
            });
    }
}
