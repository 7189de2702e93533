//! The in-tree LZ against the RLE it replaced, on every proxy application's
//! actual checkpoint images: LZ must never write more bytes than RLE.

use ckpt_store::{CheckpointStorage, StoragePolicy};
use job_runtime::Backend;
use mana::{ManaConfig, Session};
use mana_apps::{run_app, AppId, RunConfig};
use split_proc::image::CheckpointImage;

const WORLD: usize = 2;

/// Bytes the run-length codec wrote for each app's images of this corpus — each
/// rank's image into a fresh store under `IncrementalCompressed`, manifests
/// included, summed over the ranks — recorded when that codec was retired.
const RLE_WRITTEN_BYTES: [(AppId, usize); 6] = [
    (AppId::Hpcg, 5538),
    (AppId::Lulesh, 4449),
    (AppId::CoMd, 4442),
    (AppId::Lammps, 5511),
    (AppId::Sw4, 5495),
    (AppId::Vasp, 5553),
];

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

/// Bytes physically written for `images`, each into a fresh store.
fn written(images: &[CheckpointImage]) -> usize {
    images
        .iter()
        .map(|image| {
            CheckpointStorage::unmetered()
                .write_image(StoragePolicy::IncrementalCompressed, image)
                .written_bytes
        })
        .sum()
}

#[test]
fn lz_beats_rle_corpus_wide_and_renders() {
    let mut total_lz = 0;
    for (index, app) in AppId::ALL.into_iter().enumerate() {
        let (recorded_app, rle) = RLE_WRITTEN_BYTES[index];
        assert_eq!(app, recorded_app);
        let lz = written(&checkpoint_app(app, 9_000 + index as u64));
        assert!(lz <= rle, "{}: LZ wrote {lz} B, RLE {rle} B", app.name());
        total_lz += lz;
    }
    assert!(total_lz > 0);
}
