//! Full vs incremental vs incremental+compressed storage of a multi-MiB upper
//! half, and eight ranks writing one generation in parallel through the sharded
//! store against a serialized baseline.

use ckpt_store::{CheckpointStorage, StoragePolicy, StoreReport, DEFAULT_SHARD_COUNT};
use net_sim::clock;
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::{Arc, Mutex};

/// 100 regions of 80 KiB: a 7.8 MiB upper half.
const REGIONS: usize = 100;
const REGION_BYTES: usize = 80 * 1024;

fn image_of(
    rank: usize,
    world_size: usize,
    generation: u64,
    upper: UpperHalfSpace,
) -> CheckpointImage {
    CheckpointImage::new(
        ImageMetadata {
            rank: rank as i32,
            world_size,
            generation,
            implementation: "mpich".into(),
        },
        upper,
    )
}

/// Write generation 0 of a mildly compressible upper half, dirty one byte in
/// `dirty_fraction` of its regions, write generation 1 under `policy`, and report
/// what generation 1 cost.
fn measure(policy: StoragePolicy, dirty_fraction: f64) -> StoreReport {
    let storage = CheckpointStorage::unmetered();
    let mut upper = UpperHalfSpace::new();
    for r in 0..REGIONS {
        // Runs of a region-dependent byte broken by position noise: LZ wins some.
        let data: Vec<u8> = (0..REGION_BYTES)
            .map(|i| {
                if i % 7 == 0 {
                    (i.wrapping_mul(2654435761) >> 5) as u8
                } else {
                    (r % 251) as u8
                }
            })
            .collect();
        upper.map_region(format!("app.region{r:03}"), data);
    }
    storage.write_image(policy, &image_of(0, 1, 0, upper.clone()));
    upper.mark_clean();
    upper.advance_epoch();

    let dirty_regions = ((REGIONS as f64 * dirty_fraction).round() as usize).clamp(1, REGIONS);
    for r in 0..dirty_regions {
        upper.region_mut(&format!("app.region{r:03}")).unwrap()[r % REGION_BYTES] ^= 0xFF;
    }
    storage.write_image(policy, &image_of(0, 1, 1, upper))
}

const PARALLEL_WORLD: usize = 8;

/// How many generations each writer writes its image into. One 4 MiB write takes
/// about a millisecond, so a single generation times a window shorter than the
/// kernel's load balancing, in which all eight writers may run on one CPU.
const PARALLEL_GENERATIONS: u64 = 8;

/// The rank-private, aperiodic 4 MiB upper halves of the `PARALLEL_WORLD` writers.
fn parallel_uppers() -> Vec<UpperHalfSpace> {
    (0..PARALLEL_WORLD)
        .map(|rank| {
            let mut upper = UpperHalfSpace::new();
            for r in 0..16u64 {
                let data: Vec<u8> = (0..256 * 1024u64)
                    .map(|i| {
                        (i.wrapping_add(rank as u64 * 10_000_019)
                            .wrapping_add(r * 97_001)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            >> 24) as u8
                    })
                    .collect();
                upper.map_region(format!("app.region{r:02}"), data);
            }
            upper
        })
        .collect()
}

/// Wall time and total written bytes of one writer per rank of `uppers` writing
/// its image into `PARALLEL_GENERATIONS` generations of a fresh store,
/// concurrently. With `serialize_writes`, every write holds one global lock, as the
/// pre-shard engine did.
fn parallel_write(
    uppers: &[UpperHalfSpace],
    shards: usize,
    serialize_writes: bool,
) -> (f64, usize) {
    let storage = CheckpointStorage::unmetered().with_shards(shards);
    let whole_write_lock = Arc::new(Mutex::new(()));
    let start = clock::now();
    let writers: Vec<_> = uppers
        .iter()
        .cloned()
        .enumerate()
        .map(|(rank, upper)| {
            let storage = storage.clone();
            let lock = Arc::clone(&whole_write_lock);
            std::thread::spawn(move || {
                (0..PARALLEL_GENERATIONS)
                    .map(|generation| {
                        let image = image_of(rank, PARALLEL_WORLD, generation, upper.clone());
                        let _guard = serialize_writes.then(|| lock.lock().unwrap());
                        storage
                            .write_image(StoragePolicy::Incremental, &image)
                            .written_bytes
                    })
                    .sum::<usize>()
            })
        })
        .collect();
    let written = writers.into_iter().map(|w| w.join().unwrap()).sum();
    (start.elapsed().as_secs_f64(), written)
}

/// How many times each configuration is timed.
const PARALLEL_TRIALS: usize = 5;

/// The fastest serialized and the fastest sharded run of `PARALLEL_TRIALS` each,
/// as `(seconds, written bytes)`. The two alternate, so a burst of load from a test
/// running alongside in the same binary slows one run of each, not every run of
/// one.
fn best_parallel_writes(shards: usize) -> [(f64, usize); 2] {
    let uppers = parallel_uppers();
    let mut best = [(f64::INFINITY, 0); 2];
    for _ in 0..PARALLEL_TRIALS {
        for (slot, serialize_writes) in best.iter_mut().zip([true, false]) {
            let (seconds, written) = parallel_write(&uppers, shards, serialize_writes);
            *slot = (slot.0.min(seconds), written);
        }
    }
    best
}

#[test]
fn one_percent_dirty_beats_full_by_ten_x() {
    let incremental = measure(StoragePolicy::Incremental, 0.01);
    // A full image of the same upper half writes at least its logical bytes into a
    // store that holds nothing to dedup against (and a FullImage generation 1 would
    // dedup against its own generation 0, so it is no baseline).
    assert!(incremental.written_bytes * 10 <= incremental.logical_bytes);
}

#[test]
fn compression_only_helps() {
    let plain = measure(StoragePolicy::Incremental, 1.0);
    let compressed = measure(StoragePolicy::IncrementalCompressed, 1.0);
    assert!(compressed.written_bytes <= plain.written_bytes);
    assert!(compressed.compression_saved_bytes > 0);
}

#[test]
fn parallel_sharded_writes_beat_the_serialized_baseline() {
    let [(baseline_s, baseline_bytes), (sharded_s, sharded_bytes)] =
        best_parallel_writes(DEFAULT_SHARD_COUNT);
    assert_eq!(baseline_bytes, sharded_bytes);
    // Wall-time speedup needs real cores: on a single-CPU box the eight writer
    // threads timeshare one core and both configurations take the same serial
    // wall time, so the ordering is only asserted where parallelism exists.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores > 1 {
        assert!(
            sharded_s < baseline_s,
            "sharded parallel writes ({:.1} ms) must beat the serialized baseline \
             ({:.1} ms) on {cores} cores",
            sharded_s * 1e3,
            baseline_s * 1e3
        );
    }
}
