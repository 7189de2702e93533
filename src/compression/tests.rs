//! The in-tree LZ against the RLE it replaced, on every proxy application's
//! actual checkpoint images: LZ must never write more bytes than RLE.

use ckpt_store::{CheckpointStorage, StorageConfig, StoragePolicy};
use job_runtime::Backend;
use mana::{ManaConfig, Session};
use mana_apps::{run_app, AppId, RunConfig};
use split_proc::image::CheckpointImage;

const WORLD: usize = 2;

/// Checkpoint `app` mid-run on a fresh world and read its images back.
fn checkpoint_app(app: AppId, session: u64) -> Vec<CheckpointImage> {
    let storage = CheckpointStorage::unmetered();
    let mana = ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
    let ranks = crate::launch_mana_job(&Backend::Mpich, WORLD, mana, session).unwrap();
    let config = RunConfig {
        iterations: 3,
        state_scale: 2e-7,
        checkpoint: Some((2, storage.clone())),
    };
    job_runtime::run_world(ranks, move |_, rank| {
        run_app(app, &mut Session::new(rank), &config)
    })
    .unwrap();
    let generation = *storage.generations().last().expect("a checkpoint");
    (0..WORLD)
        .map(|rank| storage.read(generation, rank as i32).unwrap())
        .collect()
}

/// Bytes physically written for `images` into a fresh store under `config`.
fn written_under(config: StorageConfig, images: &[CheckpointImage]) -> usize {
    let store = CheckpointStorage::unmetered().with_config(config);
    images
        .iter()
        .map(|image| {
            store
                .write_image(StoragePolicy::IncrementalCompressed, image)
                .written_bytes
        })
        .sum()
}

#[test]
fn lz_beats_rle_corpus_wide_and_renders() {
    let mut total_lz = 0;
    for (index, app) in AppId::ALL.into_iter().enumerate() {
        let images = checkpoint_app(app, 9_000 + index as u64);
        let rle = written_under(StorageConfig::legacy(), &images);
        let lz = written_under(StorageConfig::default(), &images);
        assert!(lz <= rle, "{}: LZ wrote {lz} B, RLE {rle} B", app.name());
        total_lz += lz;
    }
    assert!(total_lz > 0);
}
