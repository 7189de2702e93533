//! What a rank stalls for under the synchronous checkpoint write against the
//! asynchronous snapshot + background flush, on the CoMD memory profile through
//! a real `ManaRank`: the async stall must be at most half the sync write.

use ckpt_store::{CheckpointStorage, FlusherPool};
use job_runtime::Backend;
use mana::{ManaConfig, ManaRank, StoragePolicy};
use net_sim::clock;

/// A quarter of CoMD's full-scale per-rank state (8 MB): large enough that the
/// chunk/compress work dominates timer noise.
const STATE_SCALE: f64 = 0.25;
const ROUNDS: u64 = 5;
const STATE_REGION: &str = "app.comd.state";

fn comd_rank(session: u64) -> ManaRank {
    let config = ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
    let mut rank = crate::launch_mana_job(&Backend::Mpich, 1, config, session)
        .unwrap()
        .pop()
        .unwrap();
    let bytes = mana_apps::comd::profile().state_bytes_at_scale(STATE_SCALE);
    rank.upper_mut().map_region(STATE_REGION, vec![0u8; bytes]);
    rank
}

/// Rewrite the whole state with round-dependent, mildly compressible content, so
/// every round re-chunks and re-compresses the full image.
fn dirty_state(rank: &mut ManaRank, round: u64) {
    let region = rank.upper_mut().region_mut(STATE_REGION).unwrap();
    for (i, byte) in region.iter_mut().enumerate() {
        *byte = if i % 7 == 0 {
            ((i as u64).wrapping_mul(2654435761) >> 5) as u8
        } else {
            (round % 251) as u8
        };
    }
}

#[test]
fn async_stall_is_at_most_half_the_sync_write() {
    let mut sync_rank = comd_rank(31);
    let sync_storage = CheckpointStorage::unmetered();
    let mut async_rank = comd_rank(32);
    let async_storage = CheckpointStorage::unmetered();
    let pool = FlusherPool::new(2);

    // Fastest round per path: the one least polluted by preemption and page
    // faults. Round 0 is an unmeasured warm-up.
    let (mut sync_stall, mut async_stall, mut async_flush) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for round in 0..=ROUNDS {
        dirty_state(&mut sync_rank, round);
        let start = clock::now();
        sync_rank.write_checkpoint_into(&sync_storage).unwrap();
        let sync_s = start.elapsed().as_secs_f64();

        dirty_state(&mut async_rank, round);
        let start = clock::now();
        let image = async_rank.snapshot_checkpoint().unwrap();
        let handle = pool.submit_to(
            &async_storage,
            StoragePolicy::IncrementalCompressed,
            image,
            |_| {},
        );
        let async_s = start.elapsed().as_secs_f64();
        handle.wait();
        let flush_s = start.elapsed().as_secs_f64();
        if round > 0 {
            sync_stall = sync_stall.min(sync_s);
            async_stall = async_stall.min(async_s);
            async_flush = async_flush.min(flush_s);
        }
    }
    assert!(
        async_stall <= 0.5 * sync_stall,
        "async stall {:.2} ms over half the sync write {:.2} ms",
        async_stall * 1e3,
        sync_stall * 1e3
    );
    assert!(async_flush >= async_stall);
}
