//! Engine-level tests for the incremental, content-addressed checkpoint store:
//! round-trips, dedup, dirty-region reuse, compression, integrity fallback, and GC.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::{CheckpointStorage, ColdTier, StoragePolicy};
use mpi_model::error::{MpiError, MpiResult};
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::Arc;

fn metadata(rank: i32, generation: u64) -> ImageMetadata {
    ImageMetadata {
        rank,
        world_size: 2,
        generation,
        implementation: "mpich".into(),
    }
}

/// An upper half of `regions` regions × `region_bytes` bytes of incompressible
/// (position-dependent) content, unique per rank.
fn synthetic_upper(rank: i32, regions: usize, region_bytes: usize) -> UpperHalfSpace {
    let mut upper = UpperHalfSpace::new();
    for r in 0..regions {
        let data: Vec<u8> = (0..region_bytes)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(r as u64 * 97)
                    .wrapping_add(rank as u64 * 131);
                (x >> 3) as u8
            })
            .collect();
        upper.map_region(format!("app.region{r:03}"), data);
    }
    upper
}

fn image_of(rank: i32, generation: u64, upper: &UpperHalfSpace) -> CheckpointImage {
    CheckpointImage::new(metadata(rank, generation), upper.clone())
}

#[test]
fn full_image_policy_roundtrips() {
    let storage = CheckpointStorage::unmetered();
    let upper = synthetic_upper(0, 4, 10_000);
    let report = storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
    assert_eq!(report.policy, StoragePolicy::FullImage);
    assert!(report.written_bytes >= report.logical_bytes);
    assert_eq!(report.regions_reused, 0);
    // Into an empty store, every chunk the write cut is new.
    assert_eq!(report.chunks_new, storage.stats().chunk_count);

    let back = storage.read(0, 0).unwrap();
    assert_eq!(back.upper_half, upper);
    assert!(storage.contains(0, 0));
    assert!(!storage.contains(1, 0));
    assert!(storage.read(0, 1).is_err());
}

#[test]
fn incremental_roundtrips_and_dedups_across_ranks() {
    let storage = CheckpointStorage::unmetered();
    // Both ranks share most content (rank folded in weakly): force identical regions.
    let upper = synthetic_upper(0, 8, 64 * 1024);
    let report0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    let report1 = storage.write_image(StoragePolicy::Incremental, &image_of(1, 0, &upper));

    assert!(report0.chunks_new > 0);
    // Rank 1's image is byte-identical: every chunk dedups against rank 0's.
    assert_eq!(report1.chunks_new, 0);
    assert_eq!(report1.chunks_reused, report0.chunks_new);
    assert!(report1.written_bytes < report0.written_bytes / 10);

    for rank in 0..2 {
        let back = storage.read(0, rank).unwrap();
        assert_eq!(back.upper_half, upper);
        assert_eq!(back.metadata.rank, rank);
    }
}

/// Acceptance criterion: an incremental checkpoint of a ≥4 MiB upper half with ≤1%
/// dirty regions encodes ≥10× fewer bytes than the full-image baseline.
#[test]
fn one_percent_dirty_writes_ten_times_fewer_bytes() {
    let storage = CheckpointStorage::unmetered();
    // 128 × 64 KiB = 8 MiB; one dirty region = 0.78% of the regions and bytes.
    let mut upper = synthetic_upper(0, 128, 64 * 1024);
    assert!(upper.total_bytes() >= 4 << 20);

    // The full-image baseline goes into a store of its own: in this one, the first
    // incremental generation would dedup every chunk against it.
    let baseline = CheckpointStorage::unmetered()
        .write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));

    let gen0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    // Touch exactly one region.
    upper.region_mut("app.region064").unwrap()[12345] ^= 0xFF;
    assert_eq!(upper.dirty_count(), 1);

    let image2 = image_of(0, 2, &upper);
    let gen1 = storage.write_image(StoragePolicy::Incremental, &image2);
    upper.mark_clean();
    upper.advance_epoch();

    assert_eq!(
        gen1.regions_reused, 127,
        "clean regions reuse their chunk lists"
    );
    assert!(
        gen1.written_bytes * 10 <= baseline.written_bytes,
        "incremental wrote {} bytes, full baseline {} — less than 10× reduction",
        gen1.written_bytes,
        baseline.written_bytes
    );
    assert!(
        gen1.written_bytes * 10 <= gen0.written_bytes,
        "second generation must also be ≥10× below the first full encode"
    );
    // The counted bytes are deterministic, so gate close to the measured ~117×.
    assert!(
        gen1.reduction_factor() >= 50.0,
        "reduction at 1% dirty fell to {:.1}×",
        gen1.reduction_factor()
    );

    // And the reassembled image is exactly what was checkpointed.
    let back = storage.read(2, 0).unwrap();
    assert_eq!(back.upper_half, image2.upper_half);
}

#[test]
fn compression_shrinks_compressible_chunks_and_roundtrips() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.zeros", vec![0u8; 1 << 20]);
    upper.map_region("app.mixed", {
        let mut data = vec![7u8; 600_000];
        for (i, byte) in data.iter_mut().enumerate().skip(300_000) {
            *byte = (i.wrapping_mul(31) % 251) as u8;
        }
        data
    });

    let compressed = storage.write_image(
        StoragePolicy::IncrementalCompressed,
        &image_of(0, 0, &upper),
    );
    // The 16 identical zero chunks dedup down to a single stored chunk, which LZ
    // then collapses; only the incompressible half of "app.mixed" is stored raw.
    assert!(compressed.compression_saved_bytes > 60_000);
    assert!(
        compressed.chunks_reused >= 15,
        "identical zero chunks must dedup"
    );
    assert!(
        compressed.written_bytes < compressed.logical_bytes / 4,
        "zero-dominated state should compress well \
         (wrote {} of {} logical bytes)",
        compressed.written_bytes,
        compressed.logical_bytes
    );
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper);

    // Compression only ever helps: the same image uncompressed writes no fewer bytes.
    let plain = CheckpointStorage::unmetered()
        .write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    assert!(compressed.written_bytes <= plain.written_bytes);
}

#[test]
fn corrupt_chunk_is_detected_and_older_generation_survives() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 16, 32 * 1024);

    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    upper.region_mut("app.region007").unwrap()[100] = 0xAB;
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));

    // Corrupt a chunk private to generation 1.
    storage.corrupt_fresh_chunk(1, 0).unwrap();

    let err = storage.read(1, 0).unwrap_err();
    assert!(
        format!("{err:?}").contains("digest"),
        "unexpected error {err:?}"
    );
    assert!(
        storage.read(0, 0).is_ok(),
        "generation 0 must still validate"
    );
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 0);
}

#[test]
fn corrupt_compressed_chunk_mid_region_fails_the_read_and_returns_no_partial_image() {
    // Regions of four LZ-compressible chunks, decoded in place onto one region
    // buffer. Generation 1 differs from generation 0 in the *third* chunk of one
    // region, so the chunk the torn write hits is reached only after two chunks of
    // that region have already landed in the buffer.
    let storage = CheckpointStorage::unmetered();
    let mut upper = UpperHalfSpace::new();
    for region in 0..3u8 {
        let data: Vec<u8> = (0..4 * 64 * 1024usize)
            .map(|i| match i % 7 {
                0 => (i.wrapping_mul(2_654_435_761) >> 5) as u8 ^ region,
                _ => region + 1,
            })
            .collect();
        upper.map_region(format!("app.region{region}"), data);
    }
    let generation0 = upper.clone();
    let report = storage.write_image(
        StoragePolicy::IncrementalCompressed,
        &image_of(0, 0, &upper),
    );
    assert!(
        report.compression_saved_bytes > 0,
        "the texture must take the LZ path"
    );
    upper.mark_clean();
    upper.advance_epoch();
    upper.region_mut("app.region1").unwrap()[2 * 64 * 1024 + 999] ^= 0x5A;
    let report = storage.write_image(
        StoragePolicy::IncrementalCompressed,
        &image_of(0, 1, &upper),
    );
    assert_eq!(report.chunks_new, 1, "exactly the third chunk is private");

    storage.corrupt_fresh_chunk(1, 0).unwrap();
    // Either the LZ framing or the digest of the decoded bytes rejects it — typed,
    // and as a whole: the caller gets no image, not one with a short region.
    match storage.read(1, 0) {
        Err(mpi_model::error::MpiError::Checkpoint(_)) => {}
        other => panic!("corrupted chunk read back as {other:?}"),
    }
    assert_eq!(storage.read(0, 0).unwrap().upper_half, generation0);
    let (generation, images) = storage.latest_valid_images(1).unwrap();
    assert_eq!(generation, 0);
    assert_eq!(images[0].upper_half, generation0);
}

#[test]
fn corrupt_manifest_is_detected_for_both_policies() {
    let storage = CheckpointStorage::unmetered();
    let upper = synthetic_upper(3, 4, 8192);
    storage.write_image(StoragePolicy::Incremental, &image_of(3, 0, &upper));
    storage.corrupt_manifest(0, 3).unwrap();
    assert!(storage.read(0, 3).is_err());

    let storage = CheckpointStorage::unmetered();
    storage.write_image(StoragePolicy::FullImage, &image_of(3, 0, &upper));
    storage.corrupt_manifest(0, 3).unwrap();
    assert!(storage.read(0, 3).is_err());
}

#[test]
fn latest_valid_generation_requires_every_rank() {
    // The tear sits at either end of the rank range; whichever reader meets it, the
    // whole job falls back as one.
    const WORLD: i32 = 4;
    for policy in POLICIES {
        for corrupt in CORRUPTIONS {
            for torn in [0, WORLD - 1] {
                let storage = two_generation_job(policy, WORLD);
                assert_eq!(
                    storage.latest_valid_generation(WORLD as usize).unwrap(),
                    1,
                    "{policy:?}"
                );
                // One rank of generation 1 corrupt → the whole job falls back to
                // generation 0.
                corrupt(&storage, 1, torn).unwrap();
                let (generation, images) = storage.latest_valid_images(WORLD as usize).unwrap();
                assert_eq!(generation, 0, "{policy:?}, rank {torn} torn");
                for (rank, image) in (0..WORLD).zip(&images) {
                    assert_eq!(image.metadata.generation, 0, "{policy:?}");
                    assert_eq!(image.upper_half, storage.read(0, rank).unwrap().upper_half);
                }
                let (generation, _) = storage.latest_valid_images_any_size().unwrap();
                assert_eq!(generation, 0, "{policy:?}, rank {torn} torn");
                // Both generations of the torn rank corrupt → no valid generation at all.
                corrupt(&storage, 0, torn).unwrap();
                assert!(
                    storage.latest_valid_generation(WORLD as usize).is_err(),
                    "{policy:?}"
                );
                assert!(
                    storage.latest_valid_images_any_size().is_err(),
                    "{policy:?}"
                );
                // A single-rank job only needs rank 0: it still has generation 1
                // unless rank 0 is the torn one.
                assert_eq!(
                    storage.latest_valid_generation(1).ok(),
                    (torn != 0).then_some(1),
                    "{policy:?}, rank {torn} torn"
                );
            }
        }
    }
}

#[test]
fn pruning_releases_unshared_chunks_only() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 8, 16 * 1024);

    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    upper.region_mut("app.region001").unwrap()[0] ^= 1;
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));

    let before = storage.stats();
    let report = storage.prune_before(1);
    let after = storage.stats();

    // Only generation 0's private chunk (the old region001 content) is freed; the
    // seven shared regions' chunks survive because generation 1 references them.
    assert_eq!(report.pruned, vec![0]);
    assert!(report.retained.is_empty());
    assert!(report.freed_bytes > 0);
    assert!(after.chunk_bytes < before.chunk_bytes);
    assert_eq!(after.manifest_count, 1);
    assert!(
        storage.read(1, 0).is_ok(),
        "surviving generation stays readable"
    );
    assert!(storage.read(0, 0).is_err());
}

#[test]
fn rewriting_a_generation_releases_the_replaced_manifests_chunks() {
    let storage = CheckpointStorage::unmetered();
    let upper_a = synthetic_upper(0, 4, 32 * 1024);
    let upper_b = synthetic_upper(7, 4, 32 * 1024); // disjoint content

    // What upper_b alone costs in chunk bytes (reference store).
    let reference = CheckpointStorage::unmetered();
    reference.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_b));
    let upper_b_chunk_bytes = reference.stats().chunk_bytes;

    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_a));
    // Rewrite the same (generation, rank) slot — the re-checkpoint-after-fallback
    // case. The replaced manifest must give its chunk references back.
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_b));
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper_b);

    // Generation 0 is the newest committed generation, so even a prune past it keeps
    // it restartable — but the *replaced* manifest's chunks (upper_a's content, now
    // unreferenced) must be reclaimed by the sweep.
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.retained, vec![0]);
    assert!(report.pruned.is_empty());
    assert!(
        report.freed_bytes > 0,
        "upper_a's orphaned chunks are freed"
    );
    let stats = storage.stats();
    assert_eq!(stats.manifest_count, 1, "the newest generation survives");
    assert_eq!(
        stats.chunk_bytes, upper_b_chunk_bytes,
        "exactly the live manifest's chunks remain — nothing leaked, nothing torn"
    );
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper_b);

    // A full-image rewrite replaces the manifest too, and releases its chunks.
    let storage = CheckpointStorage::unmetered();
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_a));
    storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper_b));
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper_b);
    let report = storage.prune_before(u64::MAX);
    assert!(
        report.freed_bytes > 0,
        "upper_a's orphaned chunks are freed"
    );
    let stats = storage.stats();
    assert_eq!(
        stats.chunk_bytes, upper_b_chunk_bytes,
        "the replaced manifest's chunks are freed"
    );
    assert_eq!(stats.manifest_count, 1, "the newest generation survives");
}

/// Dirty flags can lie: a region changed and then marked clean again looks
/// reusable. `Incremental` trusts the flag and re-references the stale chunks;
/// `FullImage` trusts no flag and hashes every region it cannot prove unchanged
/// (the changed region was copied away from the store's windows), so it stores
/// what the region holds.
#[test]
fn a_full_image_write_trusts_no_dirty_flag() {
    let mut upper = synthetic_upper(0, 4, 16 * 1024);
    let stores = [StoragePolicy::FullImage, StoragePolicy::Incremental].map(|policy| {
        let storage = CheckpointStorage::unmetered();
        storage.write_image(policy, &image_of(0, 0, &upper));
        (policy, storage)
    });
    upper.mark_clean();
    upper.advance_epoch();
    upper.region_mut("app.region002").unwrap()[77] ^= 0xFF;
    upper.mark_clean();
    assert_eq!(upper.dirty_count(), 0, "the flags now lie");

    let (policy, storage) = &stores[0];
    let report = storage.write_image(*policy, &image_of(0, 1, &upper));
    assert_eq!(report.regions_reused, 0, "{policy:?} reused a clean region");
    assert_eq!(
        report.chunks_new, 1,
        "{policy:?}: the changed chunk is stored"
    );
    assert_eq!(storage.read(1, 0).unwrap().upper_half, upper, "{policy:?}");

    let (policy, storage) = &stores[1];
    let report = storage.write_image(*policy, &image_of(0, 1, &upper));
    assert_eq!(report.regions_reused, 4, "{policy:?} trusts every flag");
    assert_eq!(
        contents(&storage.read(1, 0).unwrap().upper_half),
        contents(&storage.read(0, 0).unwrap().upper_half),
        "{policy:?} restores the stale bytes"
    );
    assert_ne!(
        contents(&storage.read(1, 0).unwrap().upper_half),
        contents(&upper),
        "{policy:?}"
    );
}

#[test]
fn epoch_mismatch_disables_region_reuse_but_not_dedup() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 8, 16 * 1024);

    let gen0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    // Simulate a checkpoint into a *different* store in between: the clean set now
    // describes changes relative to that other checkpoint, not ours.
    upper.mark_clean();
    upper.advance_epoch();

    let gen1 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    assert_eq!(
        gen1.regions_reused, 0,
        "clean-region reuse must be refused on an epoch mismatch"
    );
    // Content addressing still recognizes every chunk.
    assert_eq!(gen1.chunks_new, 0);
    assert_eq!(gen1.chunks_reused, gen0.chunks_new);
    assert!(storage.read(1, 0).is_ok());
}

/// Hammer the prune/write race the sharded engine must survive: writers keep
/// committing incremental generations with clean (reusable) regions while a pruner
/// concurrently drops old generations. Every generation a write reported success
/// for — and that the pruner has not dropped — must read back end to end; a reuse
/// that raced a prune must have fallen back to re-chunking, never committed a
/// manifest with dangling chunk references.
#[test]
fn concurrent_prune_never_strands_a_committed_generation() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let storage = CheckpointStorage::unmetered().with_chunk_size(512);
    let newest = Arc::new(AtomicU64::new(0));
    const GENERATIONS: u64 = 60;

    let writer = {
        let storage = storage.clone();
        let newest = Arc::clone(&newest);
        std::thread::spawn(move || {
            let mut upper = synthetic_upper(0, 8, 4_096);
            storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
            upper.mark_clean();
            upper.advance_epoch();
            newest.store(0, Ordering::SeqCst);
            for generation in 1..GENERATIONS {
                // Touch one region; the other seven stay clean and take the
                // re-reference path that races the pruner.
                let touched = format!("app.region{:03}", generation % 8);
                upper.region_mut(&touched).unwrap()[0] = generation as u8;
                storage.write_image(StoragePolicy::Incremental, &image_of(0, generation, &upper));
                upper.mark_clean();
                upper.advance_epoch();
                newest.store(generation, Ordering::SeqCst);
            }
        })
    };
    let pruner = {
        let storage = storage.clone();
        let newest = Arc::clone(&newest);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while newest.load(Ordering::SeqCst) < GENERATIONS - 1 {
                // Alternate a normal GC sweep with an aggressive one that drops
                // even the newest committed generation — the in-flight writer may
                // have just snapshotted that manifest for clean-region reuse, which
                // is exactly the window where its chunks vanish under the writer.
                let cut = newest.load(Ordering::SeqCst) + (round % 2);
                storage.prune_before(cut);
                round += 1;
                std::thread::yield_now();
            }
        })
    };
    writer.join().unwrap();
    pruner.join().unwrap();

    // Everything still catalogued must validate end to end.
    let survivors = storage.generations();
    assert!(survivors.contains(&(GENERATIONS - 1)));
    for generation in survivors {
        storage
            .read(generation, 0)
            .unwrap_or_else(|e| panic!("generation {generation} is torn: {e:?}"));
    }
}

#[test]
fn prune_never_drops_the_newest_committed_or_a_pending_generation() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 8, 8_192);
    for generation in 0..3u64 {
        storage.write_image(StoragePolicy::Incremental, &image_of(0, generation, &upper));
        upper.mark_clean();
        upper.advance_epoch();
        upper.region_mut("app.region000").unwrap()[0] = generation as u8;
    }

    // A cutoff past everything (e.g. computed from a generation counter that ran
    // ahead of the commits) must still leave the newest committed generation.
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.pruned, vec![0, 1]);
    assert_eq!(report.retained, vec![2]);
    assert_eq!(storage.generations(), vec![2]);
    assert!(storage.read(2, 0).is_ok(), "the restart point survives");
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 2);

    // A pending generation (flush in flight) is equally untouchable, and does not
    // lose its protection to the newest-committed rule.
    storage.begin_generation(3, 1);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 3, &upper));
    let report = storage.prune_before(u64::MAX);
    assert!(report.pruned.is_empty());
    assert_eq!(report.retained, vec![2, 3]);
    assert!(storage.read(2, 0).is_ok());

    // Once the pending generation commits, the old newest becomes prunable.
    assert!(storage.note_rank_flushed(3, 0));
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.pruned, vec![2]);
    assert_eq!(report.retained, vec![3]);
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 3);
}

#[test]
fn pending_generation_is_invisible_until_every_rank_flushes() {
    let storage = CheckpointStorage::unmetered();
    let upper = synthetic_upper(0, 4, 8_192);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 0, &upper));

    storage.begin_generation(1, 2);
    storage.begin_generation(1, 2); // idempotent
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    assert!(storage.is_pending(1));
    assert_eq!(storage.pending_generations(), vec![1]);
    assert_eq!(
        storage.generations(),
        vec![0],
        "half-flushed generation hidden"
    );
    let err = storage.read(1, 0).unwrap_err();
    assert!(
        format!("{err:?}").contains("pending"),
        "unexpected error {err:?}"
    );
    assert_eq!(
        storage.latest_valid_generation(2).unwrap(),
        0,
        "restart fallback must never select a half-flushed generation"
    );

    assert!(!storage.note_rank_flushed(1, 0));
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 1, &upper));
    assert!(storage.note_rank_flushed(1, 1), "last rank commits");
    assert!(!storage.is_pending(1));
    assert_eq!(storage.generations(), vec![0, 1]);
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 1);
    // A generation never announced as pending reports no commit transition.
    assert!(!storage.note_rank_flushed(0, 0));

    // The force-commit escape hatch: makes a pending generation visible without
    // waiting for the flush accounting — but never resurrects an aborted round.
    storage.begin_generation(2, 2);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 2, &upper));
    assert!(storage.is_pending(2));
    storage.commit_generation(2);
    assert!(!storage.is_pending(2));
    assert_eq!(storage.generations(), vec![0, 1, 2]);
    storage.begin_generation(3, 2);
    storage.abort_generation(3);
    storage.commit_generation(3);
    assert!(storage.is_pending(3), "an aborted round stays invisible");
}

#[test]
fn aborting_a_pending_generation_releases_its_slots() {
    let storage = CheckpointStorage::unmetered();
    let upper_old = synthetic_upper(0, 4, 16_384);
    let upper_new = synthetic_upper(9, 4, 16_384); // disjoint content
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_old));

    storage.begin_generation(1, 2);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper_new));
    let released = storage.abort_generation(1);
    assert_eq!(released, 1, "one rank's slot had landed");
    // The tombstone keeps the dead round invisible — it is still "pending" as far
    // as readers and the pruner are concerned, never half-visible.
    assert!(storage.is_pending(1));
    assert_eq!(storage.generations(), vec![0]);
    let report = storage.prune_before(u64::MAX);
    assert!(
        report.freed_bytes > 0,
        "the aborted flush's chunks are reclaimed"
    );
    assert!(storage.read(0, 0).is_ok());

    // A straggler flush of the aborted round — still in flight when the abort ran —
    // is released the moment it reports in, and never commits the dead round.
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 1, &upper_new));
    assert!(!storage.note_rank_flushed(1, 1));
    assert_eq!(storage.generations(), vec![0]);
    assert!(
        storage.read(1, 1).is_err(),
        "straggler slot released on arrival"
    );
    assert!(
        storage.pending_generations().is_empty(),
        "with both ranks released, the tombstone has nothing left to catch"
    );

    // A restarted incarnation reuses the generation number: `begin_generation`
    // starts a fresh round with fresh flush accounting — the dead round's released
    // ranks must not count toward the new round's commit.
    storage.begin_generation(1, 2);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper_new));
    assert!(
        !storage.note_rank_flushed(1, 0),
        "fresh round: one of two landed"
    );
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 1, &upper_new));
    assert!(
        storage.note_rank_flushed(1, 1),
        "fresh round commits on its own ranks"
    );
    assert_eq!(storage.generations(), vec![0, 1]);
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 1);
}

/// Satellite stress test: one thread pruning aggressively while two "ranks" take
/// periodic checkpoints, alternating synchronous writes and asynchronous flushes
/// through a [`ckpt_store::FlusherPool`]. A restartable generation must survive at
/// every instant, and the stats stay consistent (no torn survivor, no leak past the
/// final sweep).
#[test]
fn concurrent_prune_with_sync_and_async_checkpoints_keeps_a_restart_point() {
    use ckpt_store::FlusherPool;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    const WORLD: usize = 2;
    const GENERATIONS: u64 = 40;

    let storage = CheckpointStorage::unmetered().with_chunk_size(512);
    let pool = Arc::new(FlusherPool::new(2));
    let done = Arc::new(AtomicBool::new(false));
    let round_barrier = Arc::new(Barrier::new(WORLD));

    let writers: Vec<_> = (0..WORLD as i32)
        .map(|rank| {
            let storage = storage.clone();
            let pool = Arc::clone(&pool);
            let round_barrier = Arc::clone(&round_barrier);
            std::thread::spawn(move || {
                let mut upper = synthetic_upper(rank, 6, 2_048);
                for generation in 0..GENERATIONS {
                    upper.region_mut("app.region000").unwrap()[0] = generation as u8;
                    let image = CheckpointImage::new(
                        ImageMetadata {
                            rank,
                            world_size: WORLD,
                            generation,
                            implementation: "mpich".into(),
                        },
                        upper.clone(),
                    );
                    // Ranks agree on the mode per generation: even = sync write,
                    // odd = async flush through the pool. Both announce the
                    // generation pending first, exactly as the orchestrator's
                    // coordinated paths do — a half-written generation must never
                    // look committed to the racing pruner.
                    round_barrier.wait();
                    storage.begin_generation(generation, WORLD);
                    if generation % 2 == 0 {
                        storage.write_image(StoragePolicy::Incremental, &image);
                        storage.note_rank_flushed(generation, rank);
                    } else {
                        pool.submit_to(&storage, StoragePolicy::Incremental, image, |_| {})
                            .wait();
                    }
                    upper.mark_clean();
                    upper.advance_epoch();
                }
            })
        })
        .collect();

    let pruner = {
        let storage = storage.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut sweeps = 0u64;
            let mut committed_once = false;
            while !done.load(Ordering::SeqCst) {
                // As aggressive as it gets: prune *everything*. The guard must keep
                // the newest committed generation and anything mid-flush.
                storage.prune_before(u64::MAX);
                // The assertion latches: from the first observed commit onwards, a
                // restartable generation must exist at *every* instant, pruner
                // racing or not — an empty committed set after that point is
                // exactly the failure this test exists to catch, not a reason to
                // skip the check.
                committed_once = committed_once || !storage.generations().is_empty();
                if committed_once {
                    storage
                        .latest_valid_images(WORLD)
                        .expect("a restartable generation must always survive");
                }
                let stats = storage.stats();
                assert!(stats.total_bytes() >= stats.chunk_bytes);
                sweeps += 1;
                std::thread::yield_now();
            }
            assert!(sweeps > 0);
        })
    };

    for writer in writers {
        writer.join().unwrap();
    }
    done.store(true, Ordering::SeqCst);
    pruner.join().unwrap();

    // Quiescent wrap-up: nothing pending, the newest generation is complete for the
    // whole world, and every surviving generation validates end to end.
    assert!(storage.pending_generations().is_empty());
    let (generation, images) = storage.latest_valid_images(WORLD).unwrap();
    assert_eq!(generation, GENERATIONS - 1);
    assert_eq!(images.len(), WORLD);
    for generation in storage.generations() {
        for rank in 0..WORLD {
            storage
                .read(generation, rank as i32)
                .unwrap_or_else(|e| panic!("generation {generation} rank {rank} torn: {e:?}"));
        }
    }
    // After a final sweep only the newest committed generation (and its chunks)
    // remains: refcount accounting survived the concurrency.
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.retained, vec![GENERATIONS - 1]);
    let stats = storage.stats();
    assert_eq!(stats.manifest_count, WORLD);
    assert!(stats.chunk_count > 0);
}

#[test]
fn per_shard_occupancy_sums_to_the_aggregate() {
    let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
    let one_shard = CheckpointStorage::unmetered()
        .with_chunk_size(4096)
        .with_shards(1);
    for rank in 0..2 {
        let image = image_of(rank, 0, &synthetic_upper(rank, 3, 40_000));
        let sharded = storage.write_image(StoragePolicy::Incremental, &image);
        // Sharding places chunks; it never changes what is written.
        let single = one_shard.write_image(StoragePolicy::Incremental, &image);
        assert_eq!(sharded.written_bytes, single.written_bytes);
    }
    let stats = storage.stats();
    assert_eq!(stats.shards.len(), storage.shard_count());
    assert_eq!(
        stats.shards.iter().map(|s| s.chunk_count).sum::<usize>(),
        stats.chunk_count
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.stored_bytes).sum::<usize>(),
        stats.chunk_bytes
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.refcount_total).sum::<u64>(),
        stats.refcount_total
    );
    // No cold tier: everything is hot, and every chunk is referenced at least once.
    assert_eq!(stats.hot_bytes, stats.chunk_bytes);
    assert_eq!(stats.cold_chunk_count, 0);
    assert!(stats.refcount_total >= stats.chunk_count as u64);
    assert!(
        stats.shards.iter().filter(|s| s.chunk_count > 0).count() > 1,
        "the digest space must actually spread across shards"
    );
}

#[test]
fn prune_reports_logical_and_physical_frees_separately() {
    let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
    let upper = synthetic_upper(0, 2, 20_000);

    // Two generations with identical content: generation 0's chunks are all shared
    // with generation 1.
    let mut gen0 = upper.clone();
    gen0.mark_all_dirty();
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &gen0));
    let mut gen1 = upper.clone();
    gen1.mark_all_dirty();
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &gen1));

    let report = storage.prune_before(1);
    assert_eq!(report.pruned, vec![0]);
    assert_eq!(
        report.freed_bytes, 0,
        "fully shared chunks must free no physical bytes"
    );
    assert_eq!(
        report.logical_freed_bytes, 40_000,
        "the logical release is the pruned slots' payload size"
    );

    // Replace generation 1 with unique content, then prune it away under a newer
    // one: now the physical free is real.
    let unique = synthetic_upper(7, 2, 20_000);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 2, &unique));
    let swept = storage.prune_before(2);
    assert_eq!(swept.pruned, vec![1]);
    assert!(
        swept.freed_bytes > 0,
        "unshared chunks must free physical bytes"
    );
    assert_eq!(swept.logical_freed_bytes, 40_000);
}

#[test]
fn tenant_views_share_chunks_but_not_catalogs() {
    let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
    let first = storage.tenant_view();
    let second = storage.tenant_view();
    let upper = synthetic_upper(0, 2, 30_000);

    let a = first.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    let b = second.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    assert!(a.chunks_new > 0);
    assert_eq!(b.chunks_new, 0, "the second view dedups against the first");
    assert_eq!(b.chunks_reused, a.chunks_new + a.chunks_reused);

    // Catalogs are namespaced: each view sees only its own generation...
    assert_eq!(first.generations(), vec![0]);
    assert_eq!(second.generations(), vec![0]);
    assert!(
        storage.generations().is_empty(),
        "the base catalog stays empty"
    );
    // ...and the shared chunk space holds each chunk once.
    assert_eq!(first.stats().chunk_count, a.chunks_new);

    // One view pruning everything leaves the other's reads intact.
    first.prune_before(u64::MAX);
    let restored = second.read(0, 0).unwrap();
    assert_eq!(restored.upper_half, upper);
}

/// Every policy: each writes chunks, the unit a region pass reads — raw chunks
/// under all three, LZ chunks too under `IncrementalCompressed`.
const POLICIES: [StoragePolicy; 3] = [
    StoragePolicy::FullImage,
    StoragePolicy::Incremental,
    StoragePolicy::IncrementalCompressed,
];

/// A rank's upper half of `regions` × 64 KiB that LZ compresses (one pseudo-random
/// byte in seven), with content unique to each (rank, region).
fn compressible_upper(rank: i32, regions: u8) -> UpperHalfSpace {
    let mut upper = UpperHalfSpace::new();
    for region in 0..regions {
        let salt = region.wrapping_add(16 * rank as u8);
        let data: Vec<u8> = (0..64 * 1024usize)
            .map(|i| match i % 7 {
                0 => (i.wrapping_mul(2_654_435_761) >> 5) as u8 ^ salt,
                _ => salt,
            })
            .collect();
        upper.map_region(format!("app.region{region}"), data);
    }
    upper
}

/// A `world`-rank job checkpointed at generations 0 and 1. Generation 1 dirties one
/// region of every rank, so each of its ranks holds a chunk no other slot shares.
fn two_generation_job(policy: StoragePolicy, world: i32) -> CheckpointStorage {
    let storage = CheckpointStorage::unmetered();
    // Each image records the job's real size: the any-size lookup skips a generation
    // whose images record a world other than its rank count.
    let image = |rank, generation, upper: &UpperHalfSpace| {
        let metadata = ImageMetadata {
            world_size: world as usize,
            ..metadata(rank, generation)
        };
        CheckpointImage::new(metadata, upper.clone())
    };
    for rank in 0..world {
        let mut upper = compressible_upper(rank, 3);
        storage.write_image(policy, &image(rank, 0, &upper));
        upper.mark_clean();
        upper.advance_epoch();
        upper.region_mut("app.region1").unwrap()[1000] ^= 0xA5;
        storage.write_image(policy, &image(rank, 1, &upper));
    }
    storage
}

/// Tears one `(generation, rank)` slot of a store.
type Corruption = fn(&CheckpointStorage, u64, i32) -> MpiResult<()>;

/// The ways one slot of a generation can tear, under every policy.
const CORRUPTIONS: [Corruption; 2] = [
    CheckpointStorage::corrupt_fresh_chunk,
    CheckpointStorage::corrupt_manifest,
];

#[test]
fn a_job_wider_than_the_host_reads_back_in_rank_order() {
    // Eight ranks is more than the readers a job read runs at once on a small host,
    // so readers pull several ranks each.
    const WORLD: i32 = 8;
    for policy in POLICIES {
        let storage = two_generation_job(policy, WORLD);
        let (generation, images) = storage.latest_valid_images(WORLD as usize).unwrap();
        assert_eq!(generation, 1, "{policy:?}");
        assert_eq!(images.len(), WORLD as usize, "{policy:?}");
        for (rank, image) in (0..WORLD).zip(&images) {
            let alone = storage.read(generation, rank).unwrap();
            assert_eq!(image.metadata, alone.metadata, "{policy:?} rank {rank}");
            assert_eq!(image.metadata.rank, rank, "{policy:?}");
            assert_eq!(
                image.upper_half.iter().collect::<Vec<_>>(),
                alone.upper_half.iter().collect::<Vec<_>>(),
                "{policy:?} rank {rank}"
            );
        }
        let job = storage.read_job(generation, WORLD as usize).unwrap();
        assert!(job
            .iter()
            .zip(&images)
            .all(|(a, b)| a.upper_half == b.upper_half));
    }
}

#[test]
fn a_job_read_reports_the_lowest_failing_rank() {
    const WORLD: i32 = 4;
    for policy in POLICIES {
        for corrupt in CORRUPTIONS {
            let storage = two_generation_job(policy, WORLD);
            corrupt(&storage, 1, 3).unwrap();
            corrupt(&storage, 1, 1).unwrap();
            // Readers finish in any order; the answer must not depend on which.
            for _ in 0..20 {
                let error = format!("{:?}", storage.read_job(1, WORLD as usize).unwrap_err());
                assert!(error.contains("rank 1"), "{policy:?}: {error}");
                assert!(!error.contains("rank 3"), "{policy:?}: {error}");
            }
        }
    }
}

#[test]
fn concurrent_readers_promote_each_shared_cold_chunk_once() {
    for policy in POLICIES {
        // One rank's regions are read by concurrent readers too, so a one-rank job
        // races as well as a four-rank one.
        for world in [1, 4] {
            let storage = CheckpointStorage::unmetered()
                .with_chunk_size(4096)
                .with_cold_tier(ColdTier::in_temp().unwrap());
            // Every rank holds the same 64 chunks of shared regions, one region that
            // repeats the first of them chunk for chunk, and one region of its own, so
            // concurrent readers race to promote the same cold chunks — across ranks,
            // and across two regions of one rank.
            let mut shared = compressible_upper(0, 4);
            let twin = shared.region("app.region0").unwrap().to_vec();
            shared.map_region("app.twin", twin);
            for rank in 0..world {
                let mut upper = shared.clone();
                upper.map_region("app.own", vec![rank as u8 + 1; 8192]);
                storage.write_image(policy, &image_of(rank, 0, &upper));
            }
            storage.spill_over(0);
            assert_eq!(storage.hot_bytes(), 0, "{policy:?}");

            let (generation, images) = storage.latest_valid_images(world as usize).unwrap();
            assert_eq!(generation, 0);
            for (rank, image) in (0..world).zip(&images) {
                assert_eq!(
                    image.upper_half,
                    storage.read(0, rank).unwrap().upper_half,
                    "{policy:?} rank {rank}"
                );
                assert_eq!(
                    image.upper_half.region("app.twin").unwrap(),
                    shared.region("app.region0").unwrap()
                );
            }
            let stats = storage.stats();
            assert_eq!(stats.cold_chunk_count, 0, "{policy:?}");
            assert_eq!(
                storage.hot_bytes(),
                stats.chunk_bytes,
                "{policy:?}, world {world}: a chunk promoted by two readers was counted twice"
            );
        }
    }
}

#[test]
fn an_empty_world_has_no_checkpoint() {
    let storage = two_generation_job(StoragePolicy::Incremental, 2);
    for error in [
        storage.read_job(1, 0).unwrap_err(),
        storage.latest_valid_images(0).unwrap_err(),
        storage.latest_valid_generation(0).unwrap_err(),
    ] {
        assert!(
            matches!(&error, MpiError::Checkpoint(message) if message.contains("empty world")),
            "{error:?}"
        );
    }
}

#[test]
fn a_torn_manifest_fails_the_job_read_before_any_chunk_is_read() {
    const WORLD: i32 = 4;
    for policy in POLICIES {
        let storage = two_generation_job(policy, WORLD);
        storage.corrupt_manifest(1, WORLD - 1).unwrap();
        let reads = storage.stats().chunk_reads;
        let error = format!("{:?}", storage.read_job(1, WORLD as usize).unwrap_err());
        assert!(
            error.contains(&format!("rank {}", WORLD - 1)),
            "{policy:?}: {error}"
        );
        assert_eq!(storage.stats().chunk_reads, reads, "{policy:?}");
    }
}

#[test]
fn a_generation_missing_its_tail_ranks_is_skipped_before_any_chunk_is_read() {
    const WORLD: i32 = 4;
    for policy in POLICIES {
        let storage = two_generation_job(policy, WORLD);
        // Generation 2 holds ranks 0 and 1 only, whose images record the 4-rank world:
        // the tail ranks died before writing.
        for rank in 0..2 {
            let metadata = ImageMetadata {
                world_size: WORLD as usize,
                ..metadata(rank, 2)
            };
            let image = CheckpointImage::new(metadata, compressible_upper(rank, 3));
            storage.write_image(policy, &image);
        }
        let reads = storage.stats().chunk_reads;
        let (generation, images) = storage.latest_valid_images_any_size().unwrap();
        assert_eq!(generation, 1, "{policy:?}");
        assert_eq!(images.len(), WORLD as usize, "{policy:?}");
        let any_size_reads = storage.stats().chunk_reads - reads;
        storage.read_job(1, WORLD as usize).unwrap();
        assert_eq!(
            any_size_reads,
            storage.stats().chunk_reads - reads - any_size_reads,
            "{policy:?}: only generation 1's chunks are read"
        );
    }
}

#[test]
fn a_one_rank_image_with_edge_sized_regions_round_trips_through_a_spill() {
    const CHUNK: usize = 4096;
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered()
            .with_chunk_size(CHUNK)
            .with_cold_tier(ColdTier::in_temp().unwrap());
        let mut upper = compressible_upper(0, 4);
        upper.map_region("app.empty", Vec::new());
        upper.map_region("app.short", vec![7; CHUNK / 3]);
        upper.map_region(
            "app.ragged",
            (0..5 * CHUNK + 123).map(|i| i as u8).collect::<Vec<u8>>(),
        );
        let image = CheckpointImage::new(
            ImageMetadata {
                world_size: 1,
                ..metadata(0, 0)
            },
            upper.clone(),
        );
        storage.write_image(policy, &image);
        storage.spill_over(0);
        assert_eq!(storage.hot_bytes(), 0, "{policy:?}");

        assert_eq!(storage.read(0, 0).unwrap().upper_half, upper, "{policy:?}");
        let (generation, images) = storage.latest_valid_images_any_size().unwrap();
        assert_eq!(generation, 0, "{policy:?}");
        assert_eq!(images.len(), 1, "{policy:?}");
        assert_eq!(images[0].metadata, image.metadata, "{policy:?}");
        assert_eq!(images[0].upper_half, upper, "{policy:?}");
    }
}

#[test]
fn a_one_rank_read_reports_its_first_torn_region() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
        let mut upper = compressible_upper(0, 6);
        // Each generation dirties one region and the fresh chunk of each is torn, so
        // generation 2 holds two torn regions: app.region4, whose torn chunk it
        // inherits clean from generation 1, and its own app.region2.
        for (generation, dirty) in [
            (0, None),
            (1, Some("app.region4")),
            (2, Some("app.region2")),
        ] {
            if let Some(region) = dirty {
                upper.region_mut(region).unwrap()[4321] ^= 0x5A;
            }
            storage.write_image(policy, &image_of(0, generation, &upper));
            upper.mark_clean();
            upper.advance_epoch();
            if generation > 0 {
                storage.corrupt_fresh_chunk(generation, 0).unwrap();
            }
        }
        // Readers finish in any order; the answer must not depend on which.
        for _ in 0..20 {
            for error in [
                storage.read(2, 0).unwrap_err(),
                storage.read_job(2, 1).unwrap_err(),
            ] {
                let error = error.to_string();
                assert!(
                    error.contains("generation 2, rank 0: region \"app.region2\": "),
                    "{policy:?}: {error}"
                );
                assert!(!error.contains("app.region4"), "{policy:?}: {error}");
            }
        }
        let error = storage.read(1, 0).unwrap_err().to_string();
        assert!(
            error.contains("region \"app.region4\""),
            "{policy:?}: {error}"
        );
    }
}

// ----------------------------------------------------------------------------------
// Raw chunks are windows of the regions they were cut from
// ----------------------------------------------------------------------------------

/// How many holders share the buffer of every region of `upper`, in name order: 1
/// where the live space owns a region alone.
fn holders(upper: &UpperHalfSpace) -> Vec<usize> {
    upper
        .iter_shared()
        .map(|(_, region)| Arc::strong_count(region))
        .collect()
}

/// A deep copy of every region's bytes, in name order.
fn contents(upper: &UpperHalfSpace) -> Vec<Vec<u8>> {
    upper.iter().map(|(_, data)| data.to_vec()).collect()
}

/// Four single-chunk regions of xorshift noise, which LZ cannot shrink: every chunk
/// is stored raw, as a window, under every policy.
fn windowed_upper(rank: i32) -> UpperHalfSpace {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ rank as u64;
    let mut upper = UpperHalfSpace::new();
    for r in 0..4 {
        let noise: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        upper.map_region(format!("app.region{r:03}"), noise);
    }
    upper
}

#[test]
fn corrupting_a_window_chunk_leaves_the_live_region_untouched() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered();
        let upper = windowed_upper(0);
        let before = contents(&upper);
        storage.write_image(policy, &image_of(0, 0, &upper));
        assert_eq!(
            holders(&upper),
            vec![2; 4],
            "{policy:?}: the store shares every region"
        );

        storage.corrupt_fresh_chunk(0, 0).unwrap();
        let error = storage.read(0, 0).unwrap_err().to_string();
        assert!(error.contains("digest"), "{policy:?}: {error}");
        assert_eq!(
            contents(&upper),
            before,
            "{policy:?}: the live bytes are not the store's to flip"
        );
    }
}

#[test]
fn pruning_the_last_generation_that_holds_a_window_spares_the_live_region() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered();
        let mut upper = windowed_upper(0);
        let before = contents(&upper);
        storage.write_image(policy, &image_of(0, 0, &upper));
        // A newer generation of other content, so generation 0 — the only one that
        // holds windows of `upper` — is not the restart point and can go.
        let other = windowed_upper(1);
        storage.write_image(policy, &image_of(1, 1, &other));
        assert_eq!(holders(&upper), vec![2; 4], "{policy:?}");

        assert_eq!(storage.prune_before(1).pruned, vec![0], "{policy:?}");
        assert_eq!(
            holders(&upper),
            vec![1; 4],
            "{policy:?}: every window was freed"
        );
        assert_eq!(contents(&upper), before, "{policy:?}");
        // Unshared again, so the next mutation is in place.
        let unmoved = upper.region("app.region000").unwrap().as_ptr();
        upper.region_mut("app.region000").unwrap()[0] ^= 0x01;
        assert_eq!(
            upper.region("app.region000").unwrap().as_ptr(),
            unmoved,
            "{policy:?}"
        );
        assert_eq!(storage.read(1, 1).unwrap().upper_half, other, "{policy:?}");
    }
}

#[test]
fn a_spilled_window_chunk_round_trips_after_the_live_region_moves_on() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered().with_cold_tier(ColdTier::in_temp().unwrap());
        let mut upper = windowed_upper(0);
        storage.write_image(policy, &image_of(0, 0, &upper));
        assert_eq!(holders(&upper), vec![2; 4], "{policy:?}");

        storage.spill_over(0);
        assert_eq!(storage.hot_bytes(), 0, "{policy:?}");
        assert_eq!(
            holders(&upper),
            vec![1; 4],
            "{policy:?}: a cold chunk holds no window"
        );
        for name in [
            "app.region000",
            "app.region001",
            "app.region002",
            "app.region003",
        ] {
            upper.region_mut(name).unwrap().fill(0xEE);
        }
        // Once promoted from the spill files, then once more from the promoted copies.
        for _ in 0..2 {
            assert_eq!(
                storage.read(0, 0).unwrap().upper_half,
                windowed_upper(0),
                "{policy:?}"
            );
        }
    }
}

// ----------------------------------------------------------------------------------
// A read adopts the buffer its raw chunks tile
// ----------------------------------------------------------------------------------

/// `len` bytes of xorshift noise, which LZ cannot shrink, distinct for each `seed`.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed << 1 | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Write `upper` as generation 0 under `policy`, spill every chunk first when
/// `spill`, and read it back twice (a spilled chunk is promoted by the first read).
/// Both reads must be bit-identical to `upper`; returns, per region in name order,
/// whether the second read *is* the buffer the space handed over.
fn adopted(
    storage: &CheckpointStorage,
    policy: StoragePolicy,
    upper: &UpperHalfSpace,
    spill: bool,
) -> Vec<bool> {
    storage.write_image(policy, &image_of(0, 0, upper));
    if spill {
        storage.spill_over(0);
        assert_eq!(storage.hot_bytes(), 0, "{policy:?}");
    }
    assert_eq!(&storage.read(0, 0).unwrap().upper_half, upper, "{policy:?}");
    let restored = storage.read(0, 0).unwrap().upper_half;
    assert_eq!(&restored, upper, "{policy:?}");
    restored
        .iter_shared()
        .zip(upper.iter_shared())
        .map(|((_, mine), (_, theirs))| Arc::ptr_eq(mine, theirs))
        .collect()
}

const CHUNK: usize = ckpt_store::DEFAULT_CHUNK_SIZE;

#[test]
fn a_read_adopts_every_region_its_raw_chunks_tile() {
    for policy in POLICIES {
        let mut upper = UpperHalfSpace::new();
        // One chunk, several whole chunks, and whole chunks plus a short tail.
        for (r, len) in [CHUNK, 4 * CHUNK, 2 * CHUNK + 123].into_iter().enumerate() {
            upper.map_region(format!("app.region{r}"), noise(r as u64 + 1, len));
        }
        let storage = CheckpointStorage::unmetered();
        assert_eq!(
            adopted(&storage, policy, &upper, false),
            vec![true; 3],
            "{policy:?}: every region is the buffer that was written"
        );
    }
}

#[test]
fn a_region_mixing_lz_and_raw_chunks_is_copied() {
    let mut upper = UpperHalfSpace::new();
    let (raw, lz) = (&noise(7, CHUNK)[..], &[0u8; CHUNK][..]);
    for (name, parts) in [
        ("app.lz_first", [lz, raw, raw]),
        ("app.lz_middle", [raw, lz, raw]),
        ("app.lz_last", [raw, raw, lz]),
    ] {
        upper.map_region(name, parts.concat());
    }
    let storage = CheckpointStorage::unmetered();
    assert_eq!(
        adopted(
            &storage,
            StoragePolicy::IncrementalCompressed,
            &upper,
            false
        ),
        vec![false; 3]
    );
}

#[test]
fn a_region_holding_another_regions_chunk_is_copied() {
    let a = noise(1, 2 * CHUNK);
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.a", a.clone());
    // A window of `app.a` after a chunk of its own, and one before.
    upper.map_region("app.b", [&noise(2, CHUNK)[..], &a[CHUNK..]].concat());
    upper.map_region("app.c", [&a[..CHUNK], &noise(3, CHUNK)[..]].concat());
    // All of `app.d` is the first window of `app.a`, which is longer.
    upper.map_region("app.d", a[..CHUNK].to_vec());
    // `app.e` equals `app.a`: each of its chunks is `app.a`'s, so its raw chunks tile
    // `app.a`'s buffer, and the read hands that buffer out for both.
    upper.map_region("app.e", a.clone());
    let storage = CheckpointStorage::unmetered();
    assert_eq!(
        adopted(&storage, StoragePolicy::Incremental, &upper, false),
        vec![true, false, false, false, false]
    );
    let restored = storage.read(0, 0).unwrap().upper_half;
    let shared: Vec<_> = restored.iter_shared().map(|(_, region)| region).collect();
    assert!(Arc::ptr_eq(shared[0], shared[4]));
}

#[test]
fn a_region_behind_a_spill_is_copied() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered().with_cold_tier(ColdTier::in_temp().unwrap());
        let upper = windowed_upper(0);
        assert_eq!(
            adopted(&storage, policy, &upper, true),
            vec![false; 4],
            "{policy:?}: a promoted chunk is the store's own copy"
        );
    }
}

#[test]
fn a_store_with_a_small_chunk_size_adopts_only_a_region_that_tiles_itself() {
    const SMALL: usize = 4096;
    let block = noise(5, SMALL);
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.noise", noise(4, 5 * SMALL + 17));
    // The third chunk repeats the first, so it is stored once and read back as a
    // window of the same buffer at another offset.
    upper.map_region(
        "app.repeats",
        [&block[..], &noise(6, SMALL)[..], &block[..]].concat(),
    );
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered().with_chunk_size(SMALL);
        assert_eq!(
            adopted(&storage, policy, &upper, false),
            vec![true, false],
            "{policy:?}"
        );
    }
}

#[test]
fn writing_to_a_restored_region_leaves_its_generation_unchanged() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered();
        let upper = windowed_upper(0);
        let before = contents(&upper);
        storage.write_image(policy, &image_of(0, 0, &upper));
        drop(upper);

        let mut restored = storage.read(0, 0).unwrap().upper_half;
        assert_eq!(
            holders(&restored),
            vec![2; 4],
            "{policy:?}: the restored space shares every region with the store"
        );
        for name in [
            "app.region000",
            "app.region001",
            "app.region002",
            "app.region003",
        ] {
            restored.region_mut(name).unwrap().fill(0xEE);
        }
        assert_eq!(
            holders(&restored),
            vec![1; 4],
            "{policy:?}: each write copied"
        );
        assert_eq!(
            contents(&storage.read(0, 0).unwrap().upper_half),
            before,
            "{policy:?}"
        );
    }
}

#[test]
fn pruning_after_a_restart_leaves_the_restored_bytes() {
    for policy in POLICIES {
        let storage = CheckpointStorage::unmetered();
        let upper = windowed_upper(0);
        let before = contents(&upper);
        storage.write_image(policy, &image_of(0, 0, &upper));
        drop(upper);
        let restored = storage.read(0, 0).unwrap().upper_half;

        storage.write_image(policy, &image_of(1, 1, &windowed_upper(1)));
        assert_eq!(storage.prune_before(1).pruned, vec![0], "{policy:?}");
        assert_eq!(
            holders(&restored),
            vec![1; 4],
            "{policy:?}: the pruned generation's windows are gone"
        );
        assert_eq!(contents(&restored), before, "{policy:?}");
    }
}

// ----------------------------------------------------------------------
// The resume record: the step a committed generation resumes from
// ----------------------------------------------------------------------

/// Announce `generation` for a `world`-rank job, note each rank's `steps`, and write
/// every rank's slot — a round whose flushes have not landed yet.
fn round_in_flight(storage: &CheckpointStorage, generation: u64, world: usize, steps: &[u64]) {
    storage.begin_generation(generation, world);
    for &step in steps {
        storage.note_resume_step(generation, step);
    }
    for rank in 0..world as i32 {
        let upper = synthetic_upper(rank + generation as i32 * 16, 1, 4_096);
        storage.write_image(
            StoragePolicy::Incremental,
            &image_of(rank, generation, &upper),
        );
    }
}

/// Asynchronous flushes commit out of order (generation 5's smaller flushes land
/// before generation 4's). The store's newest committed generation is the highest
/// one committed so far, and a late lower commit never displaces it.
#[test]
fn out_of_order_commits_leave_the_highest_committed_generation_newest() {
    let storage = CheckpointStorage::unmetered();
    assert_eq!(storage.newest_committed(), None);
    round_in_flight(&storage, 4, 2, &[8, 8]);
    round_in_flight(&storage, 5, 2, &[12, 10]);
    assert_eq!(storage.newest_committed(), None, "nothing has landed yet");

    assert!(!storage.note_rank_flushed(5, 1));
    assert!(storage.note_rank_flushed(5, 0));
    assert_eq!(storage.newest_committed(), Some(5));
    assert!(!storage.note_rank_flushed(4, 0));
    assert_eq!(storage.newest_committed(), Some(5), "4 is still pending");
    assert!(storage.note_rank_flushed(4, 1));
    assert_eq!(
        storage.newest_committed(),
        Some(5),
        "a late commit never regresses"
    );
    assert_eq!(storage.generations(), vec![4, 5]);
    assert_eq!(storage.resume_step(4), Some(8));
    assert_eq!(
        storage.resume_step(5),
        Some(10),
        "the minimum over ranks wins"
    );
}

/// A step-driven generation's record is readable from the moment it commits, by
/// either commit path, and a round that noted no step leaves no record.
#[test]
fn a_committed_step_driven_generation_has_its_record() {
    let storage = CheckpointStorage::unmetered();
    round_in_flight(&storage, 0, 2, &[3, 2]);
    storage.commit_generation(0);
    assert_eq!(storage.newest_committed(), Some(0));
    assert_eq!(storage.resume_step(0), Some(2));

    round_in_flight(&storage, 1, 2, &[4]);
    assert!(!storage.note_rank_flushed(1, 0));
    assert!(storage.note_rank_flushed(1, 1));
    assert_eq!(storage.resume_step(1), Some(4));

    // A free-form round: committed, published, and without a record.
    round_in_flight(&storage, 2, 2, &[]);
    storage.commit_generation(2);
    assert_eq!(storage.newest_committed(), Some(2));
    assert_eq!(storage.resume_step(2), None);
    // A step noted after the commit is ignored: the round's record is final.
    storage.note_resume_step(2, 9);
    storage.note_resume_step(1, 0);
    assert_eq!(storage.resume_step(2), None);
    assert_eq!(storage.resume_step(1), Some(4));
}

/// A pending, aborted, pruned or dropped generation has no record.
#[test]
fn a_pending_aborted_or_pruned_generation_has_no_record() {
    let storage = CheckpointStorage::unmetered();
    for generation in 0..3 {
        round_in_flight(&storage, generation, 1, &[generation * 2 + 2]);
        storage.commit_generation(generation);
    }
    round_in_flight(&storage, 3, 2, &[8, 8]);
    assert!(storage.is_pending(3));
    assert_eq!(storage.resume_step(3), None, "pending");
    assert_eq!(storage.newest_committed(), Some(2));

    storage.abort_generation(3);
    storage.commit_generation(3);
    assert_eq!(storage.resume_step(3), None, "aborted");

    let report = storage.prune_before(2);
    assert_eq!(report.pruned, vec![0, 1]);
    assert_eq!(storage.resume_step(0), None, "pruned");
    assert_eq!(storage.resume_step(1), None, "pruned");
    assert_eq!(
        storage.resume_step(2),
        Some(6),
        "the restart point keeps its record"
    );

    round_in_flight(&storage, 4, 1, &[10]);
    storage.commit_generation(4);
    assert_eq!(storage.drop_generations_after(2), vec![4]);
    assert_eq!(storage.resume_step(4), None, "dropped");
    assert_eq!(storage.newest_committed(), Some(2));
    assert_eq!(storage.generations(), vec![2]);
}

// ----------------------------------------------------------------------
// A FullImage write hashes only what it cannot prove unchanged
// ----------------------------------------------------------------------

/// `regions` regions of `len` noise bytes each, distinct per rank and region.
fn noise_upper(rank: i32, regions: u64, len: usize) -> UpperHalfSpace {
    let mut upper = UpperHalfSpace::new();
    for r in 0..regions {
        upper.map_region(
            format!("app.region{r:03}"),
            noise((rank as u64 + 1) << 16 | r, len),
        );
    }
    upper
}

/// The same bytes in buffers no store has seen: a write of it cannot prove any
/// region unchanged, so it hashes every one.
fn freshly_mapped(upper: &UpperHalfSpace) -> UpperHalfSpace {
    let mut fresh = UpperHalfSpace::new();
    for (name, data) in upper.iter() {
        fresh.map_region(name, data.to_vec());
    }
    fresh.set_epoch(upper.epoch());
    fresh
}

/// Rewrite one byte of each region in `names`. The store still shares each one's
/// buffer, so the space copies it first.
fn rewrite(upper: &mut UpperHalfSpace, names: &[&str]) {
    for name in names {
        upper.region_mut(name).unwrap()[100] ^= 0x5A;
    }
    upper.mark_clean();
    upper.advance_epoch();
}

const REWRITTEN: [&str; 2] = ["app.region003", "app.region011"];

/// Sixteen one-chunk regions, two rewritten per generation: only those two are
/// hashed, and every manifest and count is the one a write that hashes every region
/// produces.
#[test]
fn a_full_image_write_hashes_only_the_regions_it_cannot_prove_unchanged() {
    let proven = CheckpointStorage::unmetered();
    let hashed = CheckpointStorage::unmetered();
    let mut upper = noise_upper(0, 16, CHUNK);
    for generation in 0..3 {
        let report = proven.write_image(StoragePolicy::FullImage, &image_of(0, generation, &upper));
        let baseline = hashed.write_image(
            StoragePolicy::FullImage,
            &image_of(0, generation, &freshly_mapped(&upper)),
        );
        let expected = if generation == 0 { 16 } else { 2 } * CHUNK;
        assert_eq!(report.digested_bytes, expected, "generation {generation}");
        assert_eq!(
            baseline.digested_bytes,
            16 * CHUNK,
            "generation {generation}"
        );
        assert_eq!(
            ckpt_store::StoreReport {
                digested_bytes: 0,
                ..report
            },
            ckpt_store::StoreReport {
                digested_bytes: 0,
                ..baseline
            },
            "generation {generation}: every other count is unchanged"
        );
        assert_eq!(report.regions_reused, 0, "generation {generation}");
        assert_eq!(
            proven.encoded_manifest(generation, 0).unwrap(),
            hashed.encoded_manifest(generation, 0).unwrap(),
            "generation {generation}: the manifests are byte-identical"
        );
        for storage in [&proven, &hashed] {
            assert_eq!(storage.read(generation, 0).unwrap().upper_half, upper);
        }
        rewrite(&mut upper, &REWRITTEN);
    }
    assert_eq!(proven.stats(), hashed.stats());
}

/// Once the generation holding the windows is pruned, nothing proves a region
/// unchanged any more, and every region is hashed.
#[test]
fn a_full_image_write_after_its_windows_are_pruned_hashes_every_region() {
    let storage = CheckpointStorage::unmetered();
    let upper = noise_upper(0, 4, 2 * CHUNK);
    storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
    let other = noise_upper(1, 1, CHUNK);
    storage.write_image(StoragePolicy::FullImage, &image_of(1, 1, &other));
    assert_eq!(storage.prune_before(1).pruned, vec![0]);
    assert_eq!(holders(&upper), vec![1; 4], "every window was freed");

    let report = storage.write_image(StoragePolicy::FullImage, &image_of(0, 2, &upper));
    assert_eq!(report.digested_bytes, 8 * CHUNK);
    assert_eq!(report.chunks_new, 8);
    assert_eq!(storage.read(2, 0).unwrap().upper_half, upper);
}

/// A chunk on the cold tier is no window of the live buffer: its region is hashed,
/// the other regions are not, and the image reads back bit-identical.
#[test]
fn a_full_image_write_hashes_a_region_with_a_spilled_chunk() {
    let storage = CheckpointStorage::unmetered().with_cold_tier(ColdTier::in_temp().unwrap());
    let upper = noise_upper(0, 4, 2 * CHUNK);
    storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
    // The least recently referenced chunk, the first one written, goes cold.
    let spill = storage.spill_over(storage.hot_bytes() - 1);
    assert_eq!(spill.hot_bytes, 7 * CHUNK);

    let report = storage.write_image(StoragePolicy::FullImage, &image_of(0, 1, &upper));
    assert_eq!(
        report.digested_bytes,
        2 * CHUNK,
        "only app.region000 is hashed"
    );
    assert_eq!(report.chunks_new, 0);
    assert_eq!(report.chunks_reused, 8);
    assert_eq!(storage.read(1, 0).unwrap().upper_half, upper);
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper);
}

/// A corrupted chunk is an owned copy, no window: its region is hashed, content
/// addressing re-references the corrupted chunk as it always has, and the next
/// generation fails its read exactly as a write that hashes every region does.
#[test]
fn a_full_image_write_after_a_corrupted_chunk_fails_its_read_as_hashing_does() {
    let upper = noise_upper(0, 4, 2 * CHUNK);
    let before = contents(&upper);
    let mut errors = Vec::new();
    for fresh in [false, true] {
        let storage = CheckpointStorage::unmetered();
        storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
        storage.corrupt_fresh_chunk(0, 0).unwrap();
        let image = if fresh {
            freshly_mapped(&upper)
        } else {
            upper.clone()
        };
        let report = storage.write_image(StoragePolicy::FullImage, &image_of(0, 1, &image));
        let expected = if fresh { 8 } else { 2 } * CHUNK;
        assert_eq!(report.digested_bytes, expected, "fresh buffers: {fresh}");
        assert_eq!(report.chunks_new, 0, "fresh buffers: {fresh}");
        errors.push(storage.read(1, 0).unwrap_err().to_string());
    }
    assert!(
        errors[0].contains("app.region000") && errors[0].contains("digest"),
        "{}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1]);
    assert_eq!(contents(&upper), before, "the live bytes are untouched");
}

/// A restart adopts the stored buffers, so the restored space's first FullImage
/// write proves every region unchanged and hashes nothing.
#[test]
fn a_full_image_write_after_a_restart_hashes_no_adopted_region() {
    let storage = CheckpointStorage::unmetered();
    let upper = noise_upper(0, 4, 2 * CHUNK + 123);
    storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
    drop(upper);
    let restored = storage.read(0, 0).unwrap().upper_half;

    let report = storage.write_image(StoragePolicy::FullImage, &image_of(0, 1, &restored));
    assert_eq!(report.digested_bytes, 0);
    assert_eq!(report.chunks_reused, 12);
    assert_eq!(storage.read(1, 0).unwrap().upper_half, restored);
}

/// A frozen image shares its regions with the live space, so an asynchronous
/// flush through a pool proves the untouched regions unchanged too.
#[test]
fn an_asynchronous_full_image_flush_hashes_only_the_rewritten_regions() {
    let pool = ckpt_store::FlusherPool::new(1);
    let storage = CheckpointStorage::unmetered();
    let mut upper = noise_upper(0, 16, CHUNK);
    for generation in 0..2 {
        storage.begin_generation(generation, 1);
        let frozen = image_of(0, generation, &upper);
        let report = pool
            .submit_to(&storage, StoragePolicy::FullImage, frozen, |_| {})
            .wait();
        let expected = if generation == 0 { 16 } else { 2 } * CHUNK;
        assert_eq!(report.digested_bytes, expected, "generation {generation}");
        assert_eq!(storage.newest_committed(), Some(generation));
        assert_eq!(storage.read(generation, 0).unwrap().upper_half, upper);
        rewrite(&mut upper, &REWRITTEN);
    }
}

/// Two tenants holding identical bytes in buffers of their own: content dedup
/// shares every chunk between them, but a window of one tenant's buffer proves
/// nothing about the other's, so the second tenant hashes every generation.
#[test]
fn tenant_views_never_prove_a_region_with_each_others_windows() {
    let space = CheckpointStorage::unmetered();
    let (first, second) = (space.tenant_view(), space.tenant_view());
    let mine = noise_upper(0, 4, CHUNK);
    let theirs = freshly_mapped(&mine);
    for generation in 0..2 {
        let report = first.write_image(StoragePolicy::FullImage, &image_of(0, generation, &mine));
        let expected = if generation == 0 { 4 * CHUNK } else { 0 };
        assert_eq!(report.digested_bytes, expected, "generation {generation}");

        let report =
            second.write_image(StoragePolicy::FullImage, &image_of(0, generation, &theirs));
        assert_eq!(report.digested_bytes, 4 * CHUNK, "generation {generation}");
        assert_eq!(
            report.chunks_new, 0,
            "generation {generation}: dedup still shares"
        );
        assert_eq!(report.chunks_reused, 4, "generation {generation}");
        assert_eq!(second.read(generation, 0).unwrap().upper_half, theirs);
    }
    assert_eq!(space.stats().chunk_count, 4);
}
