//! Codec acceptance tests over the real checkpoint corpus: every proxy application's
//! checkpoint image must survive the LZ codec bit-identically, never cost more bytes
//! than the run-length codec LZ replaced, corrupted or truncated streams must never
//! decode silently into a valid image, incompressible content must fall back to
//! stored-raw framing, and a compressed store must carry an elastic resize.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::codec::{lz_compress, lz_decompress};
use ckpt_store::{CheckpointStorage, StoragePolicy};
use elastic::{restart_job_from_storage, RemapPolicy};
use mana::{ManaConfig, ManaRank, Session};
use mana_apps::{
    job_checksum, run_app, run_app_elastic, AppId, ElasticReport, RunConfig, SkeletonRepartition,
};
use mpi_engine::Backend;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use split_proc::image::CheckpointImage;
use std::sync::Arc;

type Registry = Arc<RwLock<UserFunctionRegistry>>;

const APPS: [AppId; 6] = [
    AppId::CoMd,
    AppId::Hpcg,
    AppId::Lammps,
    AppId::Lulesh,
    AppId::Sw4,
    AppId::Vasp,
];
const WORLD: usize = 2;
const ITERATIONS: u64 = 3;
const CKPT_AT: u64 = 2;
const SCALE: f64 = 2e-7;

fn registry() -> Registry {
    Arc::new(RwLock::new(UserFunctionRegistry::new()))
}

fn run_config(storage: Option<CheckpointStorage>) -> RunConfig {
    RunConfig {
        iterations: ITERATIONS,
        state_scale: SCALE,
        checkpoint: storage.map(|storage| (CKPT_AT, storage)),
    }
}

/// Run `app` on a fresh `WORLD`-rank world, checkpointing into `storage` through the
/// compressing policy, and return the checkpointed images read back from the store.
fn checkpoint_app(
    app: AppId,
    storage: &CheckpointStorage,
    session_id: u64,
) -> Vec<CheckpointImage> {
    let registry = registry();
    let lowers = Backend::Mpich
        .launch(WORLD, registry.clone(), session_id)
        .unwrap()
        .0;
    let handles: Vec<_> = lowers
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let config = run_config(Some(storage.clone()));
            std::thread::spawn(move || {
                let mana_config =
                    ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
                let rank = ManaRank::new(lower, mana_config, registry).unwrap();
                let mut session = Session::new(rank);
                run_app(app, &mut session, &config).unwrap()
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let generation = *storage
        .generations()
        .last()
        .expect("the run checkpointed at least once");
    (0..WORLD)
        .map(|rank| storage.read(generation, rank as i32).unwrap())
        .collect()
}

/// The images of every proxy app, each checkpointed into its own store. Returned
/// together with the store that holds them.
fn corpus() -> Vec<(AppId, CheckpointStorage, Vec<CheckpointImage>)> {
    APPS.iter()
        .enumerate()
        .map(|(index, &app)| {
            let storage = CheckpointStorage::unmetered();
            let images = checkpoint_app(app, &storage, index as u64 + 1);
            (app, storage, images)
        })
        .collect()
}

#[test]
fn lz_round_trips_every_proxy_app_image_bit_identically() {
    for (app, _, images) in corpus() {
        for image in &images {
            // Direct codec round-trip over the real upper-half bytes of this app.
            for (name, data) in image.upper_half.iter() {
                if let Some(stream) = lz_compress(data) {
                    assert_eq!(
                        lz_decompress(&stream, data.len()).unwrap(),
                        data,
                        "{app:?} region {name} did not round-trip"
                    );
                }
            }
            // Store-level round-trip: writing this image into a fresh store and
            // reading it back must reproduce the encoded image bit for bit.
            let echo = CheckpointStorage::unmetered();
            echo.write_image(StoragePolicy::IncrementalCompressed, image);
            let back = echo
                .read(image.metadata.generation, image.metadata.rank)
                .unwrap();
            assert_eq!(
                back.encode(),
                image.encode(),
                "{app:?} image changed through the store"
            );
        }
    }
}

/// Bytes the run-length codec LZ replaced wrote for each app's images of this
/// corpus — each rank's image into a fresh store under `IncrementalCompressed`,
/// manifests included, summed over the ranks — recorded when that codec was retired.
const RLE_WRITTEN_BYTES: [(AppId, usize); 6] = [
    (AppId::CoMd, 5132),
    (AppId::Hpcg, 5596),
    (AppId::Lammps, 5612),
    (AppId::Lulesh, 5139),
    (AppId::Sw4, 5592),
    (AppId::Vasp, 5627),
];

#[test]
fn lz_never_loses_to_rle_on_the_checkpoint_corpus() {
    for ((app, _, images), (recorded_app, rle_written)) in
        corpus().into_iter().zip(RLE_WRITTEN_BYTES)
    {
        assert_eq!(app, recorded_app);
        let lz_written: usize = images
            .iter()
            .map(|image| {
                CheckpointStorage::unmetered()
                    .write_image(StoragePolicy::IncrementalCompressed, image)
                    .written_bytes
            })
            .sum();
        assert!(
            lz_written <= rle_written,
            "{app:?}: LZ wrote {lz_written} bytes, RLE wrote {rle_written}"
        );
    }
}

#[test]
fn lz_streams_of_the_proxy_app_corpus_are_pinned() {
    // Every region of every rank's image of all six apps, compressed whole (regions
    // run past one chunk and past the 16-bit match distance), concatenated as a
    // presence byte plus the stream. The digest was recorded from the encoder as it
    // stood before its kernels went word-at-a-time: the parse is frozen, so any
    // later edit that moves it changed stored bytes and must be undone, not re-pinned.
    let mut all = Vec::new();
    for (_, _, images) in corpus() {
        for image in &images {
            for (_, data) in image.upper_half.iter() {
                let stream = lz_compress(data);
                all.push(stream.is_some() as u8);
                all.extend_from_slice(stream.as_deref().unwrap_or_default());
            }
        }
    }
    assert_eq!(
        split_proc::integrity::xxh64(&all),
        PINNED_APP_STREAMS_XXH64,
        "the LZ parse changed on the proxy-app corpus ({} stream bytes)",
        all.len()
    );
}

const PINNED_APP_STREAMS_XXH64: u64 = 0x30B2_4FBB_004B_6FC6;

#[test]
fn corrupted_or_truncated_lz_streams_never_decode_silently() {
    // One real image's most compressible region gives a stream exercising literal
    // runs, short matches, and extended-length matches.
    let storage = CheckpointStorage::unmetered();
    let images = checkpoint_app(AppId::CoMd, &storage, 77);
    let (name, data) = images[0]
        .upper_half
        .iter()
        .filter_map(|(name, data)| lz_compress(data).map(|s| (name, data, s.len())))
        .min_by_key(|(_, _, len)| *len)
        .map(|(name, data, _)| (name, data))
        .expect("at least one region compresses");
    let stream = lz_compress(data).unwrap();
    assert!(
        stream.len() < data.len(),
        "region {name} stream not smaller"
    );

    // Every truncation must be rejected outright: each op produces at least one
    // byte, so a shortened stream can never reach the recorded length.
    for cut in 0..stream.len() {
        assert!(
            lz_decompress(&stream[..cut], data.len()).is_err(),
            "truncation at {cut} decoded"
        );
    }
    // Every single-byte corruption must either be rejected by the framing or
    // produce different bytes — which the store's digest validation then catches,
    // exactly like the flat image's seal.
    for position in 0..stream.len() {
        let mut corrupted = stream.clone();
        corrupted[position] ^= 0x10;
        match lz_decompress(&corrupted, data.len()) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(
                &decoded[..],
                data,
                "flip at {position} decoded to the original bytes"
            ),
        }
    }
}

#[test]
fn incompressible_chunks_fall_back_to_stored_raw_framing() {
    // A xorshift stream has no usable matches: the codec must decline, the store
    // must frame the chunk raw, and the read must still be bit-identical.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let noise: Vec<u8> = (0..96 * 1024)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    assert!(lz_compress(&noise).is_none());

    let mut upper = split_proc::address_space::UpperHalfSpace::new();
    upper.map_region("app.noise", noise.clone());
    let image = CheckpointImage::new(
        split_proc::image::ImageMetadata {
            rank: 0,
            world_size: 1,
            generation: 0,
            implementation: "mpich".into(),
        },
        upper,
    );
    let storage = CheckpointStorage::unmetered();
    let report = storage.write_image(StoragePolicy::IncrementalCompressed, &image);
    assert_eq!(
        report.compression_saved_bytes, 0,
        "nothing should have compressed"
    );
    let back = storage.read(0, 0).unwrap();
    assert_eq!(back.upper_half.iter().next().unwrap().1, &noise[..]);
}

#[test]
fn elastic_resize_works_across_codec_generations() {
    // Checkpoint elastically at 4 ranks into a compressing store, resize onto 3
    // ranks from it, and require the finished job checksum to equal the
    // uninterrupted 4-rank run. The other resize tests run the full-image policy,
    // raw window chunks; this is the one whose generation is LZ chunks.
    let registry = registry();
    let elastic_config = |iterations, checkpoint| RunConfig {
        iterations,
        state_scale: 1e-9,
        checkpoint,
    };
    let run_elastic = |world: usize,
                       registry: &Registry,
                       session_id: u64,
                       config: RunConfig|
     -> Vec<ElasticReport> {
        let lowers = Backend::Mpich
            .launch(world, registry.clone(), session_id)
            .unwrap()
            .0;
        let handles: Vec<_> = lowers
            .into_iter()
            .map(|lower| {
                let registry = registry.clone();
                let config = config.clone();
                std::thread::spawn(move || {
                    let mana_config =
                        ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
                    let rank = ManaRank::new(lower, mana_config, registry).unwrap();
                    let mut session = Session::new(rank);
                    run_app_elastic(AppId::CoMd, &mut session, &config).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let baseline = run_elastic(4, &registry, 1, elastic_config(6, None));
    let expected = job_checksum(&baseline);

    let storage = CheckpointStorage::unmetered();
    run_elastic(
        4,
        &registry,
        2,
        elastic_config(3, Some((3, storage.clone()))),
    );

    let lowers = Backend::Mpich.launch(3, registry.clone(), 3).unwrap().0;
    let (ranks, _) = restart_job_from_storage(
        lowers,
        &storage,
        Some((RemapPolicy::Block, &SkeletonRepartition::default())),
        ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed),
        registry.clone(),
    )
    .unwrap();
    let finish_config = elastic_config(6, None);
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|rank| {
            let config = finish_config.clone();
            std::thread::spawn(move || {
                let mut session = Session::new(rank);
                run_app_elastic(AppId::CoMd, &mut session, &config).unwrap()
            })
        })
        .collect();
    let finished: Vec<ElasticReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        finished.iter().map(|r| r.iterations_completed).max(),
        Some(6)
    );
    assert_eq!(
        job_checksum(&finished),
        expected,
        "resize from a compressed store diverged from the uninterrupted run"
    );
}
