//! Engine-level restart tests: remap edge cases and the identity map exercised
//! directly against `restart_job` / `restart_job_from_storage`, without the proxy
//! applications.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use ckpt_store::{CheckpointStorage, StoragePolicy};
use elastic::{restart_job, restart_job_from_storage, NoRepartition, RankMap, RemapPolicy};
use mana::ckpt::regions;
use mana::record::{CollectiveKind, CollectiveLog};
use mana::virtid::VirtualId;
use mana::{Comm, ManaConfig, ManaRank, Op, Session};
use mpi_engine::Backend;
use mpi_model::api::MpiApi;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpi_model::types::{HandleKind, Rank};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Registry = Arc<RwLock<UserFunctionRegistry>>;

fn registry() -> Registry {
    Arc::new(RwLock::new(UserFunctionRegistry::new()))
}

fn launch(world: usize, registry: &Registry, session: u64) -> Vec<Box<dyn MpiApi>> {
    Backend::Mpich
        .launch(world, registry.clone(), session)
        .unwrap()
        .0
}

/// Run `body` concurrently on a fresh `world`-rank job and return the per-rank
/// results in rank order.
fn run_job<R, F>(world: usize, registry: &Registry, session: u64, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&mut Session) -> MpiResult<R> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let handles: Vec<_> = launch(world, registry, session)
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let rank = ManaRank::new(lower, ManaConfig::new_design(), registry).unwrap();
                let mut session = Session::new(rank);
                body(&mut session).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Drive already-restored ranks concurrently.
fn drive_ranks<R, F>(ranks: Vec<ManaRank>, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&mut Session) -> MpiResult<R> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|rank| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut session = Session::new(rank);
                body(&mut session).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Checkpoint a 4-rank world that duplicated the world communicator, exchanged a
/// ring of point-to-point messages, and ran collectives on the dup.
fn checkpoint_with_world_dup(registry: &Registry, storage: &CheckpointStorage) {
    run_job(4, registry, 1, {
        let storage = storage.clone();
        move |session| {
            let me = session.world_rank();
            let world = session.world()?;
            let dup = session.comm_dup(world)?;
            session.upper_mut().store_json("test.dup", &dup)?;
            let total = session.allreduce(&[1u64], Op::sum(), dup)?;
            assert_eq!(total, vec![4]);
            session.send(&[me as u64], (me + 1).rem_euclid(4), 7, world)?;
            let (got, _) = session.recv::<u64>(1, (me - 1).rem_euclid(4), 7, world)?;
            assert_eq!(got, vec![(me - 1).rem_euclid(4) as u64]);
            session.checkpoint_into(&storage)?;
            Ok(())
        }
    });
}

#[test]
fn world_dup_survives_a_shrink_with_remapped_membership() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_world_dup(&registry, &storage);

    let lowers = launch(2, &registry, 2);
    let (ranks, generation) = restart_job_from_storage(
        lowers,
        &storage,
        Some((RemapPolicy::Block, &NoRepartition)),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(generation, 0);
    assert_eq!(ranks.len(), 2);

    let after = CheckpointStorage::unmetered();
    let sizes = drive_ranks(ranks, {
        let after = after.clone();
        move |session| {
            // The stored dup handle is still valid and now spans the 2-rank world.
            let dup: Comm = session.upper().load_json("test.dup")?;
            let size = session.comm_size(dup)?;
            let total = session.allreduce(&[1u64], Op::sum(), dup)?;
            assert_eq!(total, vec![2]);
            let world = session.world()?;
            let wtotal = session.allreduce(&[10u64], Op::sum(), world)?;
            assert_eq!(wtotal, vec![20]);
            // A checkpoint of the resized world must pass the collective
            // epoch-agreement check (merged ledgers) and the drain protocol
            // (merged counters).
            session.checkpoint_into(&after)?;
            Ok(size)
        }
    });
    assert_eq!(sizes, vec![2, 2]);
    let (_, images) = after.latest_valid_images_any_size().unwrap();
    assert_eq!(images.len(), 2);
}

#[test]
fn total_collapse_onto_one_rank() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_world_dup(&registry, &storage);

    let lowers = launch(1, &registry, 3);
    let (ranks, _) = restart_job_from_storage(
        lowers,
        &storage,
        Some((RemapPolicy::RoundRobin, &NoRepartition)),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(ranks.len(), 1);
    let after = CheckpointStorage::unmetered();
    drive_ranks(ranks, {
        let after = after.clone();
        move |session| {
            assert_eq!(session.world_size(), 1);
            let world = session.world()?;
            assert_eq!(session.allreduce(&[5u64], Op::sum(), world)?, vec![5]);
            let dup: Comm = session.upper().load_json("test.dup")?;
            assert_eq!(session.comm_size(dup)?, 1);
            session.checkpoint_into(&after)?;
            Ok(())
        }
    });
    let (_, images) = after.latest_valid_images_any_size().unwrap();
    assert_eq!(images.len(), 1);
}

/// A repartition that moves no state but promises to rebuild sub-communicators.
struct ConsumesComms;

impl elastic::Repartition for ConsumesComms {
    fn repartition(
        &self,
        _old: &[split_proc::address_space::UpperHalfSpace],
        _map: &RankMap,
        _new_rank: Rank,
        _upper: &mut split_proc::address_space::UpperHalfSpace,
    ) -> MpiResult<()> {
        Ok(())
    }

    fn consumes_derived_comms(&self) -> bool {
        true
    }
}

fn checkpoint_with_parity_split(registry: &Registry, storage: &CheckpointStorage) {
    run_job(4, registry, 1, {
        let storage = storage.clone();
        move |session| {
            let me = session.world_rank();
            let world = session.world()?;
            let row = session.comm_split(world, Some(me % 2), me)?;
            session.upper_mut().store_json("test.row", &row)?;
            let total = session.allreduce(&[1u64], Op::sum(), row)?;
            assert_eq!(total, vec![2]);
            session.checkpoint_into(&storage)?;
            Ok(())
        }
    });
}

#[test]
fn subset_communicator_rejects_resize_unless_consumed() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_parity_split(&registry, &storage);

    // Without the application's promise to rebuild, the live split is a clean error.
    let err = restart_job_from_storage(
        launch(2, &registry, 2),
        &storage,
        Some((RemapPolicy::Block, &NoRepartition)),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap_err();
    match err {
        MpiError::ElasticResize(reason) => {
            assert!(reason.contains("consumes_derived_comms"), "{reason}")
        }
        other => panic!("expected ElasticResize, got {other:?}"),
    }

    // With the promise, the split is dropped everywhere and the resize completes;
    // the stored handle is dead, the world is fully usable.
    let (ranks, _) = restart_job_from_storage(
        launch(2, &registry, 3),
        &storage,
        Some((RemapPolicy::Block, &ConsumesComms)),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    drive_ranks(ranks, move |session| {
        let row: Comm = session.upper().load_json("test.row")?;
        assert!(
            session.comm_size(row).is_err(),
            "consumed split must be gone"
        );
        let world = session.world()?;
        assert_eq!(session.allreduce(&[1u64], Op::sum(), world)?, vec![2]);
        Ok(())
    });
}

#[test]
fn growth_adds_fresh_ranks_that_participate_in_the_world() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    run_job(2, &registry, 1, {
        let storage = storage.clone();
        move |session| {
            let world = session.world()?;
            let dup = session.comm_dup(world)?;
            session.allreduce(&[1u64], Op::sum(), dup)?;
            session.checkpoint_into(&storage)?;
            Ok(())
        }
    });

    let (ranks, _) = restart_job_from_storage(
        launch(3, &registry, 2),
        &storage,
        Some((RemapPolicy::Block, &NoRepartition)),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(ranks.len(), 3);
    assert!(
        ranks.iter().any(|r| r.descriptor_count() > 0),
        "adopting ranks carry descriptors"
    );
    let after = CheckpointStorage::unmetered();
    drive_ranks(ranks, {
        let after = after.clone();
        move |session| {
            let world = session.world()?;
            // All three ranks — including the fresh one — close the collective.
            assert_eq!(session.allreduce(&[1u64], Op::sum(), world)?, vec![3]);
            // And the next checkpoint agrees on the collective epoch everywhere.
            session.checkpoint_into(&after)?;
            Ok(())
        }
    });
    let (_, images) = after.latest_valid_images_any_size().unwrap();
    assert_eq!(images.len(), 3);
}

/// The identity map leaves no trace of itself: a world restored at its own size
/// re-checkpoints exactly the images the uninterrupted world checkpoints next,
/// region by region.
#[test]
fn identity_restart_recheckpoints_what_the_uninterrupted_world_does() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    let uninterrupted = CheckpointStorage::unmetered();
    run_job(4, &registry, 1, {
        let (storage, uninterrupted) = (storage.clone(), uninterrupted.clone());
        move |session| {
            let world = session.world()?;
            let dup = session.comm_dup(world)?;
            session.upper_mut().store_json("test.dup", &dup)?;
            session.allreduce(&[1u64], Op::sum(), dup)?;
            session.checkpoint_into(&storage)?;
            // The uninterrupted world's next checkpoint: generation 1.
            session.checkpoint_into(&uninterrupted)?;
            Ok(())
        }
    });

    let (ranks, generation) = restart_job_from_storage(
        launch(4, &registry, 2),
        &storage,
        None,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(generation, 0);
    let restored = CheckpointStorage::unmetered();
    drive_ranks(ranks, {
        let restored = restored.clone();
        move |session| {
            session.checkpoint_into(&restored)?;
            Ok(())
        }
    });

    let (gen_a, images_a) = uninterrupted.latest_valid_images_any_size().unwrap();
    let (gen_b, images_b) = restored.latest_valid_images_any_size().unwrap();
    assert_eq!((gen_a, gen_b), (1, 1));
    assert_eq!(images_a.len(), images_b.len());
    for (a, b) in images_a.iter().zip(images_b.iter()) {
        assert_eq!(a.metadata.rank, b.metadata.rank);
        assert_eq!(a.metadata.world_size, b.metadata.world_size);
        let mut names_a = a.upper_half.region_names();
        let mut names_b = b.upper_half.region_names();
        names_a.sort_unstable();
        names_b.sort_unstable();
        assert_eq!(names_a, names_b);
        for name in names_a {
            assert_eq!(
                a.upper_half.region(name).unwrap(),
                b.upper_half.region(name).unwrap(),
                "region {name} of rank {} differs between the uninterrupted world and \
                 the identity restart",
                a.metadata.rank
            );
        }
    }
}

/// A repartition hook that counts its calls.
#[derive(Default)]
struct CountingRepartition(AtomicUsize);

impl elastic::Repartition for CountingRepartition {
    fn repartition(
        &self,
        _old: &[split_proc::address_space::UpperHalfSpace],
        _map: &RankMap,
        _new_rank: Rank,
        _upper: &mut split_proc::address_space::UpperHalfSpace,
    ) -> MpiResult<()> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// An identity map moves no state, so a same-size restart never calls the
/// application's hook (nor copies the old world's upper halves for it); a resize
/// calls it once per new rank.
#[test]
fn same_size_restart_never_calls_the_repartition_hook() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_world_dup(&registry, &storage);

    let counting = CountingRepartition::default();
    let restart = |world: usize, session: u64| {
        restart_job_from_storage(
            launch(world, &registry, session),
            &storage,
            Some((RemapPolicy::Block, &counting)),
            ManaConfig::new_design(),
            registry.clone(),
        )
        .unwrap()
    };
    let (ranks, _) = restart(4, 2);
    assert_eq!(ranks.len(), 4);
    assert_eq!(counting.0.load(Ordering::SeqCst), 0);
    drop(ranks);
    let (ranks, _) = restart(2, 3);
    assert_eq!(ranks.len(), 2);
    assert_eq!(counting.0.load(Ordering::SeqCst), 2);
}

/// A standalone checkpoint is never announced as pending, so a generation whose tail
/// ranks died before writing looks committed. Its images still record the 4-rank
/// world, so the engine skips it and restores the last whole generation.
#[test]
fn generation_missing_its_tail_ranks_falls_back_to_the_last_whole_one() {
    let registry = registry();
    let written = CheckpointStorage::unmetered();
    run_job(4, &registry, 1, {
        let written = written.clone();
        move |session| {
            session.checkpoint_into(&written)?;
            session.checkpoint_into(&written)?;
            Ok(())
        }
    });
    // Generation 0 on every rank, generation 1 on ranks 0 and 1 only.
    let storage = CheckpointStorage::unmetered();
    for (generation, ranks) in [(0, 0..4), (1, 0..2)] {
        for rank in ranks {
            let image = written.read(generation, rank).unwrap();
            storage.write_image(StoragePolicy::FullImage, &image);
        }
    }

    let (ranks, generation) = restart_job_from_storage(
        launch(4, &registry, 2),
        &storage,
        None,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(generation, 0);
    assert_eq!(ranks.len(), 4);
}

#[test]
fn straddled_collective_checkpoint_is_rejected_under_resize() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    run_job(2, &registry, 1, {
        let storage = storage.clone();
        move |session| {
            let world = session.world()?;
            session.allreduce(&[1u64], Op::sum(), world)?;
            session.checkpoint_into(&storage)?;
            Ok(())
        }
    });
    let (_, mut images) = storage.latest_valid_images_any_size().unwrap();

    // Forge a straddled checkpoint: rewrite rank 0's collective ledger so it
    // carries a registered-but-never-completed collective.
    let mut log = CollectiveLog::new();
    let vid = VirtualId::new(HandleKind::Comm, true, 0);
    log.begin(vid, CollectiveKind::Allreduce).unwrap();
    images[0]
        .upper_half
        .store_json(regions::COLLECTIVES, &log)
        .unwrap();

    let map = RankMap::block(2, 1).unwrap();
    let err = restart_job(
        launch(1, &registry, 2),
        images,
        &map,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap_err();
    match err {
        MpiError::ElasticResize(reason) => assert!(reason.contains("straddled"), "{reason}"),
        other => panic!("expected ElasticResize, got {other:?}"),
    }
}

#[test]
fn identity_restart_path_reports_a_typed_world_size_mismatch() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    run_job(2, &registry, 1, {
        let storage = storage.clone();
        move |session| {
            session.checkpoint_into(&storage)?;
            Ok(())
        }
    });
    let err = restart_job_from_storage(
        launch(4, &registry, 2),
        &storage,
        None,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap_err();
    match err {
        MpiError::WorldSizeMismatch {
            checkpointed,
            offered,
            generation,
        } => {
            assert_eq!((checkpointed, offered, generation), (2, 4, 0));
            let text = err.to_string();
            assert!(text.contains("elastic"), "{text}");
        }
        other => panic!("expected WorldSizeMismatch, got {other:?}"),
    }
}
