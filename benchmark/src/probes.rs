//! The traced run's probes: staged checkpoint rounds (the benchmark drives the
//! protocol stage by stage, one span per stage) and single-threaded calls into each
//! layer's narrowest public stage functions, on the workload's real images.
//!
//! Probes never touch the flat `split_proc::store::CheckpointStore` or the legacy
//! RLE/FNV encoder — both are marked for deletion in ROADMAP.

use crate::gen;
use crate::lifecycle::Job;
use crate::stats::median;
use crate::step;
use crate::trace;
use crate::workload::Spec;
use ckpt_service::ServiceHandle;
use ckpt_store::chunk::for_each_chunk;
use ckpt_store::codec::{lz_compress, lz_decompress};
use ckpt_store::{
    CheckpointStorage, ChunkRef, FlushHandle, Manifest, RegionManifest, StoredForm,
    DEFAULT_CHUNK_SIZE,
};
use elastic::repartition::NoRepartition;
use job_runtime::{JobConfig, JobCtx, JobRuntime, RemapPolicy};
use mana::runtime::Translator;
use mana::Session;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::typed::MpiData;
use net_sim::{Fabric, FabricConfig, MatchSpec};
use split_proc::integrity::{crc32, xxh64};
use split_proc::CheckpointImage;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// One coordinated checkpoint, stage by stage, each stage under its own span: what
/// `JobCtx::checkpoint` / `checkpoint_async` do in one call. Returns the flush
/// handle of an asynchronous submission.
pub fn staged_checkpoint(
    session: &mut Session,
    ctx: &JobCtx,
    tenant: Option<&ServiceHandle>,
) -> MpiResult<Option<FlushHandle>> {
    let _stall = trace::phase("staged.stall");
    session.reap();
    let coordinator = Arc::clone(ctx.coordinator());
    let rank = session.rank_mut();
    let plan = {
        let _span = trace::phase("staged.quiesce");
        rank.begin_checkpoint()?
    };
    {
        let _span = trace::phase("staged.drain");
        rank.drain_quiescent(&plan, coordinator.as_ref())?;
    }
    {
        let _span = trace::phase("staged.complete_drain");
        rank.complete_drain()?;
    }
    let (world_size, world_rank) = (rank.world_size(), rank.world_rank());
    match tenant {
        None => {
            let storage = ctx.storage();
            storage.begin_generation(rank.generation(), world_size);
            let report = {
                let _span = trace::phase("staged.write");
                rank.write_checkpoint_into(storage)?
            };
            storage.note_rank_flushed(report.generation, world_rank);
            let _span = trace::phase("staged.commit_barrier");
            coordinator.commit(world_rank, report.generation, None)?;
            Ok(None)
        }
        Some(service) => {
            let policy = rank.config().storage;
            let image = {
                let _span = trace::phase("staged.freeze");
                rank.snapshot_checkpoint()?
            };
            let generation = image.metadata.generation;
            let _span = trace::phase("staged.submit");
            service.storage().begin_generation(generation, world_size);
            let landed = {
                let coordinator = Arc::clone(&coordinator);
                move |report: &ckpt_store::StoreReport| {
                    coordinator.note_flush_landed(report.generation, None);
                }
            };
            match service.submit_with(policy, image, landed) {
                Ok(handle) => Ok(Some(handle)),
                Err(rejected) => {
                    let report = service.write_sync_fallback(policy, &rejected.image);
                    service.storage().note_rank_flushed(generation, world_rank);
                    coordinator.note_flush_landed(generation, None);
                    Ok(Some(FlushHandle::ready(report)))
                }
            }
        }
    }
}

/// Median wall time (ns) of `iterations` runs of `work`. Whatever `work` returns is
/// dropped after the clock stops: freeing a 32 MiB image is not part of building it.
fn median_ns<R>(iterations: usize, mut work: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let started = Instant::now();
            let result = black_box(work());
            let elapsed = started.elapsed();
            drop(result);
            elapsed.as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

/// Re-dirty `image` the way round `fill` of the workload dirties a live rank: the
/// seeded dirty set is rewritten, and the regions every checkpoint re-maps (the
/// application's own two and MANA's five) are touched.
fn redirty(image: &mut CheckpointImage, spec: &Spec, seed: u64, fill: u64) -> MpiResult<()> {
    let rank = image.metadata.rank as usize;
    image.metadata.generation += 1;
    let upper = &mut image.upper_half;
    upper.mark_clean();
    upper.advance_epoch();
    for region in gen::dirty_set(seed, rank, fill, spec.regions, spec.dirty_regions) {
        let data = upper.region_mut(&step::state_region(region))?;
        gen::fill_texture(spec.texture, seed, rank, region, fill + 1, data);
    }
    let remapped: Vec<String> = upper
        .region_names()
        .into_iter()
        .filter(|name| !name.starts_with(step::STATE_PREFIX))
        .map(str::to_string)
        .collect();
    for name in remapped {
        upper.region_mut(&name)?;
    }
    Ok(())
}

/// Every probe metric of one workload, by name. `images` are the newest
/// generation's images of the measured job, one per rank.
pub fn run(
    spec: &Spec,
    job: &Job,
    seed: u64,
    restart_ms_p50: f64,
) -> MpiResult<Vec<(&'static str, f64)>> {
    let _span = trace::phase("probes");
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let world_size = job.config.world_size;
    let storage = job.runtime.storage();

    // ---- job-runtime / mana: launch, store read, restore ---------------------------
    let launch_ns = median_ns(10, || JobRuntime::new(job.config.clone()).launch());
    out.push(("job-runtime.launch_ms", launch_ns / 1e6));
    let read_job_ns = median_ns(5, || storage.latest_valid_images(world_size));
    out.push((
        "mana.restore_ms",
        (restart_ms_p50 - launch_ns / 1e6 - read_job_ns / 1e6).max(0.0),
    ));
    let (generation, images) = storage.latest_valid_images(world_size)?;
    let image = images
        .first()
        .ok_or_else(|| MpiError::Internal("the newest generation holds no images".into()))?;

    // ---- mana: freeze, virtual-id lookup, the protocol's crossing minimum -----------
    let (mut restored, _) = job.runtime.restart(spec.restart_backend)?;
    if let Some(rank) = restored.first_mut() {
        let freeze_ns = median_ns(7, || rank.build_image());
        out.push(("mana.freeze_ms", freeze_ns / 1e6));
    }
    drop(restored);
    let translator: Translator = image
        .upper_half
        .load_json(mana::ckpt::regions::TRANSLATOR)?;
    let vids: Vec<_> = translator
        .iter_in_creation_order()
        .iter()
        .map(|descriptor| descriptor.vid)
        .collect();
    let lookups = 1_000_000usize;
    let lookup_ns = median_ns(5, || {
        let mut found = 0usize;
        for vid in vids.iter().cycle().take(lookups) {
            found += usize::from(translator.virtual_to_physical(black_box(*vid)).is_ok());
        }
        found
    });
    out.push(("mana.virtid_lookup_ns", lookup_ns / lookups as f64));
    out.push((
        "mana.crossings_per_step",
        single_rank_crossings_per_step(spec)?,
    ));

    // ---- mpi-model: typed marshalling of one halo payload ----------------------------
    let lattice = f64::decode(image.upper_half.region(step::LATTICE_REGION)?)?;
    let halo = &lattice[..spec.shape.halo_elements];
    let codec_ns = median_ns(2_000, || f64::decode(&f64::encode(black_box(halo))));
    out.push((
        "mpi-model.codec_ns_per_kib",
        codec_ns / (std::mem::size_of_val(halo) as f64 / 1024.0),
    ));

    // ---- net-sim: bare fabric deposit -> match of one halo payload -------------------
    let fabric = Fabric::new(FabricConfig::new(2, 1));
    let (sender, receiver) = (fabric.endpoint(0)?, fabric.endpoint(1)?);
    let context = fabric.allocate_context();
    let spec_match = MatchSpec::from_mpi_args(context, 0, 7);
    let payload = net_sim::PayloadBuf::from(f64::encode(halo));
    let deliver_ns = median_ns(20_000, || {
        sender
            .send(1, 0, context, 7, payload.clone())
            .and_then(|()| receiver.try_recv(&spec_match))
    });
    out.push(("net-sim.deliver_ns", deliver_ns));

    // ---- split-proc: flat image encode/decode and the two integrity hashes ------------
    let encoded = image.encode();
    let encode_ns = median_ns(5, || image.encode());
    let decode_ns = median_ns(5, || CheckpointImage::decode(&encoded));
    let crc_ns = median_ns(5, || crc32(&encoded));
    let xxh_ns = median_ns(5, || xxh64(&encoded));
    out.push((
        "split-proc.image_encode_mib_s",
        mib_per_s(encoded.len(), encode_ns),
    ));
    out.push((
        "split-proc.image_decode_mib_s",
        mib_per_s(encoded.len(), decode_ns),
    ));
    out.push(("split-proc.crc32_mib_s", mib_per_s(encoded.len(), crc_ns)));
    out.push(("split-proc.xxh64_mib_s", mib_per_s(encoded.len(), xxh_ns)));

    // ---- ckpt-store: codec and digest on the chunks one round dirties ------------------
    let rank0 = image.metadata.rank as usize;
    let mut dirty_chunks: Vec<Vec<u8>> = Vec::new();
    for region in gen::dirty_set(seed, rank0, generation, spec.regions, spec.dirty_regions) {
        let data = image.upper_half.region(&step::state_region(region))?;
        dirty_chunks.extend(data.chunks(DEFAULT_CHUNK_SIZE).map(<[u8]>::to_vec));
    }
    dirty_chunks.truncate(128);
    let raw_bytes: usize = dirty_chunks.iter().map(Vec::len).sum();
    let compress_ns = median_ns(3, || {
        dirty_chunks
            .iter()
            .map(|c| lz_compress(c).map_or(0, |z| z.len()))
            .sum::<usize>()
    });
    out.push((
        "ckpt-store.lz_compress_mib_s",
        mib_per_s(raw_bytes, compress_ns),
    ));
    let compressed: Vec<(Vec<u8>, usize)> = dirty_chunks
        .iter()
        .filter_map(|chunk| lz_compress(chunk).map(|z| (z, chunk.len())))
        .collect();
    let decompressed_bytes: usize = compressed.iter().map(|(_, raw)| raw).sum();
    let decompress = if compressed.is_empty() {
        0.0
    } else {
        let ns = median_ns(5, || {
            compressed
                .iter()
                .map(|(z, raw)| lz_decompress(z, *raw).map_or(0, |d| d.len()))
                .sum::<usize>()
        });
        mib_per_s(decompressed_bytes, ns)
    };
    out.push(("ckpt-store.lz_decompress_mib_s", decompress));
    // Chunks LZ cannot shrink are stored raw.
    let stored_bytes: usize =
        compressed.iter().map(|(z, _)| z.len()).sum::<usize>() + (raw_bytes - decompressed_bytes);
    out.push((
        "ckpt-store.compress_ratio",
        raw_bytes as f64 / stored_bytes.max(1) as f64,
    ));
    let digest = storage.config().digest;
    let digest_ns = median_ns(5, || {
        dirty_chunks
            .iter()
            .fold(0u64, |acc, chunk| acc ^ digest.hash(chunk))
    });
    out.push(("ckpt-store.digest_mib_s", mib_per_s(raw_bytes, digest_ns)));

    // ---- ckpt-store: manifest encode ------------------------------------------------
    let manifest = Manifest {
        metadata: image.metadata.clone(),
        upper_epoch: image.upper_half.epoch(),
        policy: spec.policy,
        digest,
        chunk_size: DEFAULT_CHUNK_SIZE as u32,
        regions: image
            .upper_half
            .iter()
            .map(|(name, data)| {
                let mut chunks = Vec::new();
                for_each_chunk(data, DEFAULT_CHUNK_SIZE, digest, |hash, piece| {
                    chunks.push(ChunkRef {
                        digest: hash,
                        raw_len: piece.len() as u32,
                        stored_len: piece.len() as u32,
                        form: StoredForm::Raw,
                    });
                });
                RegionManifest {
                    name: name.to_string(),
                    len: data.len() as u64,
                    chunks,
                    reused: false,
                }
            })
            .collect(),
    };
    let manifest_ns = median_ns(200, || manifest.encode());
    out.push(("ckpt-store.manifest_encode_us", manifest_ns / 1e3));

    // ---- ckpt-store: write (one rank alone, all ranks at once) and read -----------------
    let (write_ms, read_ms, parallel_x) = write_and_read(spec, seed, images)?;
    out.push(("ckpt-store.write_image_ms", write_ms));
    out.push(("ckpt-store.read_ms", read_ms));
    out.push(("ckpt-store.parallel_write_x", parallel_x));

    // ---- elastic: resize the newest generation onto one more rank ------------------------
    let elastic_config = job
        .config
        .clone()
        .with_elastic(RemapPolicy::Block, Arc::new(NoRepartition));
    let resize_ns = resize_ns(&elastic_config, storage, world_size + 1);
    out.push(("elastic.resize_ms", resize_ns.map_or(0.0, |ns| ns / 1e6)));
    out.push((
        "elastic.resize_x",
        resize_ns.map_or(0.0, |ns| ns / 1e6 / restart_ms_p50),
    ));
    Ok(out)
}

/// Median time of `restart_resized(new_world)` over the job's own store, or `None`
/// when this workload's checkpoint cannot survive a resize under `NoRepartition`
/// (a live derived communicator).
fn resize_ns(config: &JobConfig, storage: &CheckpointStorage, new_world: usize) -> Option<f64> {
    let mut failed = false;
    let ns = median_ns(5, || {
        let resized =
            JobRuntime::with_storage(config.clone(), storage.clone()).restart_resized(new_world);
        failed |= resized.is_err();
        resized
    });
    (!failed).then_some(ns)
}

/// The step's crossings with nobody to wait for: the same shape on a one-rank world,
/// where every registration round commits at its first poll. Exact; the measured
/// multi-rank figure exceeds it by the timing-dependent registration polls.
fn single_rank_crossings_per_step(spec: &Spec) -> MpiResult<f64> {
    let runtime = JobRuntime::new(JobConfig::new(1, spec.backend));
    let shape = spec.shape;
    let steps = 200u64;
    let crossings = runtime.run(move |mut session, _ctx| {
        let world = session.world()?;
        let compute = if shape.derived_comm {
            session.comm_dup(world)?
        } else {
            world
        };
        let mut lattice = gen::lattice(0, 0, step::LATTICE_ELEMENTS);
        let mut comm = step::ManaComm {
            session: &mut session,
            world,
            compute,
        };
        step::step(&mut comm, &shape, &mut lattice, 0)?;
        let before = comm.session.crossings();
        for index in 1..=steps {
            step::step(&mut comm, &shape, &mut lattice, index)?;
        }
        Ok(comm.session.crossings() - before)
    })?;
    Ok(crossings.first().copied().unwrap_or(0) as f64 / steps as f64)
}

/// Write rounds on a fresh store with the workload's own images and dirty pattern,
/// alternating "one rank after another" and "all ranks at once". Returns (median
/// single write ms, median read ms, serial / parallel round time).
fn write_and_read(
    spec: &Spec,
    seed: u64,
    mut images: Vec<CheckpointImage>,
) -> MpiResult<(f64, f64, f64)> {
    let storage = CheckpointStorage::unmetered();
    std::thread::scope(|scope| {
        for image in &images {
            let storage = &storage;
            scope.spawn(move || storage.write_image(spec.policy, image));
        }
    });
    let rounds = 20u64;
    let (mut single_ns, mut serial_ns, mut parallel_ns) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        for image in &mut images {
            redirty(image, spec, seed, 1_000 + round)?;
        }
        let started = Instant::now();
        if round % 2 == 0 {
            for image in &images {
                let one = Instant::now();
                black_box(storage.write_image(spec.policy, image));
                single_ns.push(one.elapsed().as_nanos() as f64);
            }
            serial_ns.push(started.elapsed().as_nanos() as f64);
        } else {
            let gate = Barrier::new(images.len() + 1);
            let elapsed = std::thread::scope(|scope| {
                for (slot, image) in images.iter().enumerate() {
                    let (storage, gate) = (&storage, &gate);
                    scope.spawn(move || {
                        // One writer per core, like the ranks they stand for.
                        crate::steady::bind_current_thread(slot);
                        gate.wait();
                        black_box(storage.write_image(spec.policy, image));
                    });
                }
                gate.wait();
                Instant::now()
            })
            .elapsed();
            parallel_ns.push(elapsed.as_nanos() as f64);
        }
        let generation = images[0].metadata.generation;
        storage.prune_before(generation.saturating_sub(1));
    }
    let generation = images[0].metadata.generation;
    let read_ns = median_ns(7, || storage.read(generation, 0));
    Ok((
        median(&single_ns) / 1e6,
        read_ns / 1e6,
        median(&serial_ns) / median(&parallel_ns),
    ))
}

/// The share of a staged stall its stage spans account for, per staged round.
pub fn stage_coverage(lanes: &[trace::Lane]) -> Vec<f64> {
    let mut shares = Vec::new();
    for lane in lanes {
        let self_ns = trace::self_times_ns(&lane.spans);
        for (span, own) in lane.spans.iter().zip(self_ns) {
            if span.name == "staged.stall" && span.duration_ns() > 0 {
                shares.push(1.0 - own as f64 / span.duration_ns() as f64);
            }
        }
    }
    shares
}

/// Per staged round: from the slowest rank's write return to the commit barrier
/// releasing (ns).
pub fn commit_barrier_ns(lanes: &[trace::Lane]) -> Vec<f64> {
    use std::collections::BTreeMap;
    let mut rounds: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for span in lanes.iter().flat_map(|lane| lane.spans.iter()) {
        let entry = rounds.entry(span.round).or_default();
        match span.name {
            "staged.write" => entry.0 = entry.0.max(span.end_ns),
            "staged.commit_barrier" => entry.1 = entry.1.max(span.end_ns),
            _ => {}
        }
    }
    rounds
        .values()
        .filter(|(write_end, commit_end)| *write_end > 0 && commit_end >= write_end)
        .map(|(write_end, commit_end)| (commit_end - write_end) as f64)
        .collect()
}
