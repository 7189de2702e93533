//! The background flusher pool: chunk, compress, and store checkpoint images off the
//! ranks' critical path.
//!
//! The synchronous write path stalls a rank for the whole chunk/compress/store cost
//! of its image. The asynchronous split instead has the rank **snapshot** (freeze an
//! owned [`CheckpointImage`] whose regions it shares with the live upper half by
//! refcount, copying no bytes) and hand the image to a [`FlusherPool`], which
//! performs the expensive storage write on a worker thread and completes a
//! [`FlushHandle`] the submitter can wait on (or poll) later. The write keeps each
//! raw chunk as a window of its region rather than a copy, so a byte the
//! application later changes is copied once, by the application's own `region_mut`
//! of its region (copy-on-write), and a byte it never changes is never copied.
//!
//! The pool is the flusher of the checkpoint service (`ckpt-service`): the service
//! admits every submission under its in-flight caps and names the storage each job
//! writes. The pool itself owns no storage and bounds nothing. It spawns its workers
//! when its owner starts it or on its first submission, so the private service of
//! a job that only ever checkpoints synchronously runs no flusher thread.
//!
//! Generation visibility is governed by the store's pending table (see
//! [`CheckpointStorage::begin_generation`]): a generation announced as pending stays
//! invisible to `generations()`/`read`/`latest_valid_images` until every rank's flush
//! has landed, at which point the worker that completes the last flush commits it
//! atomically. A job killed mid-flush therefore leaves a *pending* — never a torn
//! visible — generation, and restart falls back to the newest committed one exactly
//! as it falls back from a torn synchronous write.

use crate::store::{CheckpointStorage, StoreReport};
use crate::StoragePolicy;
use parking_lot::{Condvar, Mutex};
use split_proc::image::CheckpointImage;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Callback a submitter attaches to a flush job; runs on the worker thread after the
/// image has reached storage (and after the store's per-rank flush accounting), but
/// before the job's [`FlushHandle`] completes — so a waiter that observes the handle
/// done also observes everything the callback published. The callback must not own
/// the pool: whatever it captures is dropped on the worker thread.
type FlushCallback = Box<dyn FnOnce(&StoreReport) + Send>;

struct FlushJob {
    policy: StoragePolicy,
    image: CheckpointImage,
    /// The storage this job writes into (a tenant's view of the service's chunk
    /// space, or a job's own store).
    storage: CheckpointStorage,
    handle: Arc<HandleState>,
    on_flushed: FlushCallback,
}

/// Where one flush job stands.
#[derive(Default, Clone, Copy)]
enum FlushOutcome {
    /// Queued or being written.
    #[default]
    InFlight,
    /// Landed in storage.
    Done(StoreReport),
    /// The worker panicked while processing this job (in the storage write or the
    /// submitter's callback). The flush did not land; waiters must not hang.
    Poisoned,
}

#[derive(Default)]
struct HandleState {
    outcome: Mutex<FlushOutcome>,
    done_cv: Condvar,
}

/// A claim ticket for one submitted flush: wait for (or poll) the background write of
/// one rank's frozen image. Dropping the handle does **not** cancel the flush.
#[derive(Clone)]
pub struct FlushHandle {
    state: Arc<HandleState>,
    generation: u64,
    rank: mpi_model::types::Rank,
}

impl FlushHandle {
    /// The generation the submitted image belongs to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The rank whose image was submitted.
    pub fn rank(&self) -> mpi_model::types::Rank {
        self.rank
    }

    /// Whether the flush has reached storage.
    pub fn is_flushed(&self) -> bool {
        matches!(*self.state.outcome.lock(), FlushOutcome::Done(_))
    }

    /// A handle that is already complete: carries `report` as if a background write
    /// had just landed. This is what the admission-control fallback path hands back
    /// after performing a rejected submission's write synchronously — the caller's
    /// wait/poll logic stays uniform whether the write rode the pool or not.
    pub fn ready(report: StoreReport) -> FlushHandle {
        let handle = FlushHandle {
            state: Arc::new(HandleState::default()),
            generation: report.generation,
            rank: report.rank,
        };
        *handle.state.outcome.lock() = FlushOutcome::Done(report);
        handle
    }

    /// Block until the background write lands and return its report.
    ///
    /// # Panics
    ///
    /// If the flusher worker panicked while processing this job — the panic is
    /// propagated to the waiter (which surfaces it through whatever harness runs
    /// the rank) instead of leaving it hanging on a flush that will never land.
    pub fn wait(&self) -> StoreReport {
        let mut outcome = self.state.outcome.lock();
        loop {
            match *outcome {
                FlushOutcome::Done(report) => return report,
                #[expect(
                    clippy::panic,
                    reason = "deliberate panic propagation — the worker already panicked; resurfacing it on the waiter is the documented contract (see doc comment)"
                )]
                FlushOutcome::Poisoned => panic!(
                    "flusher worker panicked while flushing generation {} of rank {}",
                    self.generation, self.rank
                ),
                FlushOutcome::InFlight => self.state.done_cv.wait(&mut outcome),
            }
        }
    }
}

impl std::fmt::Debug for FlushHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushHandle")
            .field("generation", &self.generation)
            .field("rank", &self.rank)
            .field("flushed", &self.is_flushed())
            .finish()
    }
}

#[derive(Default)]
struct PoolState {
    jobs: VecDeque<FlushJob>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for jobs (or shutdown).
    work_cv: Condvar,
}

/// A pool of background flusher threads; each job names the storage it writes.
///
/// Jobs are processed FIFO; jobs from different ranks run concurrently across the
/// workers (the sharded store admits them in parallel, exactly like the synchronous
/// parallel write phase). The pool bounds nothing itself: its owner, the checkpoint
/// service, admits submissions. Dropping the pool lets the workers drain the
/// remaining queue, then joins them.
pub struct FlusherPool {
    shared: Arc<PoolShared>,
    /// How many workers `start` spawns.
    worker_count: usize,
    /// Unset until the pool starts.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl FlusherPool {
    /// A pool of exactly `workers` flusher threads (min 1), spawned by
    /// [`start`](FlusherPool::start) or else by the first
    /// [`submit_to`](FlusherPool::submit_to).
    pub fn new(workers: usize) -> Self {
        FlusherPool {
            shared: Arc::new(PoolShared::default()),
            worker_count: workers.max(1),
            workers: OnceLock::new(),
        }
    }

    /// Spawn the workers on the calling thread, unless they are running already.
    /// A thread inherits its spawner's core binding, so an owner that sets the
    /// pool up on an unbound thread starts it there, rather than leaving the spawn
    /// to the first submitter: a rank thread a launcher has bound to one core
    /// would bind every worker to that core too.
    pub fn start(&self) {
        self.workers.get_or_init(|| {
            (0..self.worker_count)
                .map(|_| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect()
        });
    }

    /// Submit one rank's frozen image for background writing into `storage` under
    /// `policy`. The per-rank flush accounting (`note_rank_flushed`) runs against
    /// the same `storage`, so a pending generation commits within the namespace it
    /// was announced in; then `on_flushed` runs on the worker thread, before the
    /// returned [`FlushHandle`] completes.
    pub fn submit_to(
        &self,
        storage: &CheckpointStorage,
        policy: StoragePolicy,
        image: CheckpointImage,
        on_flushed: impl FnOnce(&StoreReport) + Send + 'static,
    ) -> FlushHandle {
        let handle = FlushHandle {
            state: Arc::new(HandleState::default()),
            generation: image.metadata.generation,
            rank: image.metadata.rank,
        };
        self.start();
        self.shared.state.lock().jobs.push_back(FlushJob {
            policy,
            image,
            storage: storage.clone(),
            handle: Arc::clone(&handle.state),
            on_flushed: Box::new(on_flushed),
        });
        self.shared.work_cv.notify_one();
        handle
    }
}

impl Drop for FlusherPool {
    fn drop(&mut self) {
        // A pool that never received a submission has no worker and no job.
        let Some(workers) = self.workers.take() else {
            return;
        };
        self.shared.state.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut state);
            }
        };
        // Panic containment: a panic in the storage write or the submitter's
        // callback must not wedge the pool — the handle completes (as poisoned)
        // either way, so `wait` reports the failure instead of hanging forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let report = job.storage.write_image(job.policy, &job.image);
            // Per-rank flush accounting: the write that completes a pending
            // generation's rank set commits the generation (making it visible)
            // right here, before any callback or waiter can observe the flush as
            // done. Runs against the job's own target storage, so tenant-routed
            // jobs commit within their tenant's namespace.
            job.storage
                .note_rank_flushed(report.generation, report.rank);
            (job.on_flushed)(&report);
            report
        }));
        *job.handle.outcome.lock() = match outcome {
            Ok(report) => FlushOutcome::Done(report),
            Err(_) => FlushOutcome::Poisoned,
        };
        job.handle.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use split_proc::address_space::UpperHalfSpace;
    use split_proc::image::ImageMetadata;

    fn image(rank: i32, world_size: usize, generation: u64, fill: u8) -> CheckpointImage {
        let mut upper = UpperHalfSpace::new();
        upper.map_region("app.state", vec![fill; 200_000]);
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

    /// Submit `image` into `storage` with no completion callback.
    fn submit(
        pool: &FlusherPool,
        storage: &CheckpointStorage,
        image: CheckpointImage,
    ) -> FlushHandle {
        pool.submit_to(storage, StoragePolicy::Incremental, image, |_| {})
    }

    #[test]
    fn flush_lands_and_handle_reports() {
        let storage = CheckpointStorage::unmetered();
        let pool = FlusherPool::new(2);
        let handle = submit(&pool, &storage, image(0, 1, 0, 0x5A));
        let report = handle.wait();
        assert_eq!(report.generation, 0);
        assert!(handle.is_flushed());
        assert_eq!(storage.read(0, 0).unwrap().metadata.rank, 0);
    }

    #[test]
    fn pending_generation_commits_only_when_every_rank_flushed() {
        let storage = CheckpointStorage::unmetered();
        let pool = FlusherPool::new(1);
        storage.begin_generation(3, 2);
        submit(&pool, &storage, image(0, 2, 3, 1)).wait();
        assert!(storage.is_pending(3));
        assert!(storage.generations().is_empty());
        submit(&pool, &storage, image(1, 2, 3, 2)).wait();
        assert!(!storage.is_pending(3));
        assert_eq!(storage.generations(), vec![3]);
        assert_eq!(storage.latest_valid_generation(2).unwrap(), 3);
    }

    #[test]
    fn callback_runs_before_the_handle_completes() {
        let storage = CheckpointStorage::unmetered();
        let pool = FlusherPool::new(1);
        let seen = Arc::new(Mutex::new(None));
        let seen_in_cb = Arc::clone(&seen);
        let image = image(0, 1, 0, 9);
        let handle = pool.submit_to(&storage, StoragePolicy::Incremental, image, move |r| {
            *seen_in_cb.lock() = Some(r.generation);
        });
        handle.wait();
        assert_eq!(*seen.lock(), Some(0));
    }

    #[test]
    fn drop_drains_the_queue() {
        let storage = CheckpointStorage::unmetered();
        let handles: Vec<FlushHandle> = {
            let pool = FlusherPool::new(1);
            (0..4)
                .map(|g| submit(&pool, &storage, image(0, 1, g, g as u8)))
                .collect()
        };
        for handle in handles {
            assert!(handle.is_flushed(), "drop must drain queued flushes");
        }
        assert_eq!(storage.generations().len(), 4);
    }

    /// The workers a pool has spawned so far.
    fn spawned(pool: &FlusherPool) -> usize {
        pool.workers.get().map_or(0, Vec::len)
    }

    #[test]
    fn workers_spawn_on_the_first_submission() {
        // A pool that never receives a submission spawns nothing and drops cleanly.
        let idle = FlusherPool::new(3);
        assert_eq!(spawned(&idle), 0);
        drop(idle);
        let started = FlusherPool::new(2);
        started.start();
        started.start();
        assert_eq!(spawned(&started), 2, "start spawns the workers once");
        drop(started);

        let storage = CheckpointStorage::unmetered();
        let handles: Vec<FlushHandle> = {
            let pool = FlusherPool::new(3);
            let mut handles = vec![submit(&pool, &storage, image(0, 1, 0, 0))];
            assert_eq!(
                spawned(&pool),
                3,
                "the first submission spawns every worker"
            );
            handles.extend((1..6).map(|g| submit(&pool, &storage, image(0, 1, g, g as u8))));
            assert_eq!(spawned(&pool), 3, "later submissions spawn no more");
            handles
        };
        // The drop landed whatever was still queued.
        for handle in handles {
            assert!(handle.is_flushed(), "drop must drain queued flushes");
        }
        assert_eq!(storage.generations().len(), 6);
    }
}
