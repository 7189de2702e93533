//! The job lifecycle every workload runs, so every end-to-end metric exists on
//! every workload:
//!
//! 1. **setup** — build the runtime, generate inputs, launch, map state regions,
//!    warm-up steps, one unmeasured checkpoint;
//! 2. **native** — the same step function on bare lower halves, no MANA;
//! 3. **steady** — MANA-interposed steps, no checkpoint in the window, in segments;
//! 4. **rounds** — `R` × [dirty regions, `k` steps, coordinated checkpoint];
//! 5. **preempt + restart** — drop the world, `JobRuntime::restart` `N` times;
//! 6. **tail** — the uninterrupted and the last restored world each run `T` steps
//!    and must end bit-identical.
//!
//! A run is [`Counts::epochs`] such lifecycles, each on a fresh job, one after
//! another; the report averages over them (see `workload::EPOCHS` for why). Within an
//! epoch the native phase comes first, so no more than `nproc` threads are ever busy.

use crate::gen;
use crate::step::{self, AppState, ManaComm, NativeComm};
use crate::trace::{self, Level};
use crate::workload::{Counts, Sink, Spec, NATIVE_SEGMENTS, SEGMENTS, STAGED_ROUNDS};
use ckpt_service::{CkptService, ServiceConfig, ServiceHandle, TenantQuota};
use ckpt_store::{FlushHandle, StoreReport};
use job_runtime::{run_world, JobConfig, JobCtx, JobRuntime};
use mana::{ManaConfig, ManaRank, Session};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpi_model::typed::MpiData;
use net_sim::stats::StatsSnapshot;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub counts: Counts,
    pub trace: bool,
    pub nproc: usize,
}

/// One timed steady or native segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub steps: u64,
    pub ns: u64,
    /// Whether call-level spans were recorded during the segment.
    pub traced: bool,
}

impl Segment {
    pub fn steps_per_s(&self) -> f64 {
        self.steps as f64 / (self.ns as f64 / 1e9)
    }
}

/// One rank's view of one checkpoint round. Times are [`trace::now_ns`] stamps, so
/// they compare across ranks.
#[derive(Debug, Clone)]
pub struct RoundSample {
    pub generation: u64,
    pub enter_ns: u64,
    /// Time the rank was blocked: waiting out the previous flush (asynchronous
    /// backpressure) plus the `JobCtx` checkpoint call itself.
    pub stall_ns: u64,
    /// The part of the stall spent in `FlushHandle::wait` on the previous round.
    pub flush_wait_ns: u64,
    /// When this rank first saw the round's generation published (checked at step
    /// boundaries), if it ever did.
    pub commit_seen_ns: Option<u64>,
    /// Dirty upper-half bytes going into the checkpoint.
    pub dirty_bytes: u64,
    pub report: Option<StoreReport>,
    /// Rank 0's prune after the round (synchronous sinks only).
    pub prune_ns: Option<u64>,
}

/// Everything one rank of the measured job hands back.
#[derive(Debug, Clone)]
pub struct RankOut {
    pub setup_end_ns: u64,
    pub segments: Vec<Segment>,
    pub rounds: Vec<RoundSample>,
    /// Lattice digest after exactly `native_steps` steps (compared with native).
    pub digest_at_native: Option<u64>,
    pub tail_digest: u64,
    pub last_generation: u64,
    pub steady_crossings: u64,
    /// Rank 0 only: fabric counters around the steady phase.
    pub steady_fabric: Option<(StatsSnapshot, StatsSnapshot)>,
    /// Digest of the inputs this rank generated during set-up.
    pub inputs_digest: u64,
    pub steps_done: u64,
}

/// The native phase's result.
#[derive(Debug, Clone)]
pub struct NativeOut {
    pub segments: Vec<Segment>,
    pub digests: Vec<u64>,
}

/// Raw samples of one lifecycle.
pub struct Epoch {
    pub native: NativeOut,
    pub setup_s: f64,
    pub ranks: Vec<RankOut>,
    pub restart_ns: Vec<u64>,
    pub restart_generations: Vec<u64>,
    pub restored_tail_digests: Vec<u64>,
    /// Phases 3-6 wall time.
    pub solution_s: f64,
}

/// Raw samples of a whole run; `report` turns them into metrics.
pub struct Outcome {
    pub world_size: usize,
    pub counts: Counts,
    pub epochs: Vec<Epoch>,
    /// The last epoch's job, kept alive for the probes of a traced run.
    pub job: Job,
}

/// A runtime plus the service it is a tenant of, if any.
pub struct Job {
    pub runtime: Arc<JobRuntime>,
    pub service: Option<(CkptService, ServiceHandle)>,
    pub config: JobConfig,
}

impl Job {
    pub fn build(spec: &Spec, world_size: usize) -> MpiResult<Job> {
        let config = JobConfig::new(world_size, spec.backend)
            .with_mana(ManaConfig::new_design().with_storage(spec.policy));
        let (runtime, service) = match spec.sink {
            Sink::Sync => (JobRuntime::new(config.clone()), None),
            Sink::AsyncTenant => {
                let service = CkptService::new(ServiceConfig {
                    flusher_workers: world_size,
                    ..ServiceConfig::default()
                })?;
                let quota = TenantQuota::default()
                    .with_max_generations(2)
                    .with_max_in_flight(world_size.max(2));
                let handle = service.register_tenant_with("benchmark", quota);
                (
                    JobRuntime::with_service(config.clone(), handle.clone()),
                    Some((service, handle)),
                )
            }
        };
        Ok(Job {
            runtime: Arc::new(runtime),
            service,
            config,
        })
    }
}

/// A process-level barrier for the rank threads of one job. Unlike an MPI barrier it
/// moves nothing through the fabric, so counter windows taken around it are exact;
/// unlike `std::sync::Barrier` it gives up (with an error) when a peer never arrives
/// because it failed, so a broken run ends instead of hanging.
struct Rendezvous {
    parties: usize,
    /// (threads waiting in the current generation, generation).
    state: Mutex<(usize, u64)>,
    released: Condvar,
}

impl Rendezvous {
    const PATIENCE: Duration = Duration::from_secs(60);

    fn new(parties: usize) -> Self {
        Rendezvous {
            parties,
            state: Mutex::new((0, 0)),
            released: Condvar::new(),
        }
    }

    fn wait(&self) -> MpiResult<()> {
        let mut state = self
            .state
            .lock()
            .expect("rendezvous state is never poisoned");
        state.0 += 1;
        if state.0 == self.parties {
            *state = (0, state.1 + 1);
            self.released.notify_all();
            return Ok(());
        }
        let generation = state.1;
        let (state, timeout) = self
            .released
            .wait_timeout_while(state, Self::PATIENCE, |s| s.1 == generation)
            .expect("rendezvous state is never poisoned");
        if timeout.timed_out() && state.1 == generation {
            return Err(MpiError::Internal(format!(
                "a rank waited {:?} at a benchmark rendezvous; a peer must have failed",
                Self::PATIENCE
            )));
        }
        Ok(())
    }
}

/// What every rank thread of a job shares.
struct Plan {
    spec: Spec,
    opts: RunOptions,
    runtime: Arc<JobRuntime>,
    handle: Option<ServiceHandle>,
    /// Process-level rendezvous (no fabric traffic), for exact counter windows.
    sync: Rendezvous,
    /// Append the staged probe rounds (the last epoch of a traced run).
    staged: bool,
}

/// One rank's application: the lattice in memory, the rest in the upper half.
struct App<'a> {
    plan: &'a Plan,
    session: Session,
    ctx: JobCtx,
    state: AppState,
    lattice: Vec<f64>,
    digest_at_native: Option<u64>,
}

impl App<'_> {
    fn steps(&mut self, count: u64) -> MpiResult<()> {
        let shape = self.plan.spec.shape;
        let native_steps = self.plan.opts.counts.native_steps();
        for _ in 0..count {
            let mut comm = ManaComm {
                session: &mut self.session,
                world: self.state.world,
                compute: self.state.compute,
            };
            step::step(&mut comm, &shape, &mut self.lattice, self.state.step)?;
            self.state.step += 1;
            if self.state.step == native_steps {
                self.digest_at_native = Some(step::lattice_digest(&self.lattice));
            }
        }
        Ok(())
    }

    /// Put the in-memory application state where a checkpoint will find it.
    fn save(&mut self) -> MpiResult<()> {
        let upper = self.session.upper_mut();
        upper.map_region(step::LATTICE_REGION, f64::encode(&self.lattice));
        upper.store_json(step::APP_REGION, &self.state)
    }

    fn dirty(&mut self, round: u64) -> MpiResult<()> {
        let _span = trace::phase("round.dirty");
        let spec = &self.plan.spec;
        let me = self.session.world_rank() as usize;
        for region in gen::dirty_set(
            self.plan.opts.seed,
            me,
            round,
            spec.regions,
            spec.dirty_regions,
        ) {
            let data = self
                .session
                .upper_mut()
                .region_mut(&step::state_region(region))?;
            gen::fill_texture(
                spec.texture,
                self.plan.opts.seed,
                me,
                region,
                round + 1,
                data,
            );
        }
        Ok(())
    }
}

/// Stamp every round at the front of `awaiting` whose generation is published by
/// now. Publication is monotone, so only the front can be next.
fn observe_commits(ctx: &JobCtx, rounds: &mut [RoundSample], awaiting: &mut VecDeque<usize>) {
    let published = ctx.coordinator().ledger().published_generation();
    while let Some(&index) = awaiting.front() {
        if published.is_none_or(|newest| newest < rounds[index].generation) {
            break;
        }
        rounds[index].commit_seen_ns = Some(trace::now_ns());
        awaiting.pop_front();
    }
}

/// Enter timed segment `index`: a traced run records call-level spans in every
/// other segment, and the untraced ones are the baseline `trace.overhead_pct`
/// compares against. Returns whether this segment is call-traced.
fn enter_segment(tracing: bool, index: u64) -> bool {
    let traced = tracing && index % 2 == 1;
    trace::set_level(match (tracing, traced) {
        (false, _) => Level::Off,
        (true, false) => Level::Phases,
        (true, true) => Level::Calls,
    });
    traced
}

/// One rank of one epoch's job.
fn rank_body(plan: &Plan, session: Session, ctx: JobCtx) -> MpiResult<RankOut> {
    let me = session.world_rank() as usize;
    crate::steady::bind_current_thread(me);
    let spec = &plan.spec;
    let counts = plan.opts.counts;
    let tracing = plan.opts.trace;
    trace::set_level(if tracing { Level::Phases } else { Level::Off });

    // ---- Phase 1: set-up -------------------------------------------------------
    let setup_span = trace::phase("setup");
    let mut session = session;
    let world = session.world()?;
    let compute = if spec.shape.derived_comm {
        session.comm_dup(world)?
    } else {
        world
    };
    let mut inputs = Vec::new();
    for region in 0..spec.regions {
        let mut data = vec![0u8; spec.region_bytes];
        gen::fill_texture(spec.texture, plan.opts.seed, me, region, 0, &mut data);
        inputs.extend_from_slice(&split_proc::integrity::xxh64(&data).to_le_bytes());
        session
            .upper_mut()
            .map_region(step::state_region(region), data);
    }
    let lattice = gen::lattice(plan.opts.seed, me, step::LATTICE_ELEMENTS);
    inputs.extend_from_slice(&step::lattice_digest(&lattice).to_le_bytes());
    let mut app = App {
        plan,
        session,
        ctx,
        state: AppState {
            step: 0,
            world,
            compute,
        },
        lattice,
        digest_at_native: None,
    };
    app.steps(counts.warmup_steps)?;
    app.save()?;
    match spec.sink {
        Sink::Sync => {
            app.ctx.checkpoint(&mut app.session)?;
        }
        Sink::AsyncTenant => {
            app.ctx.checkpoint_async(&mut app.session)?.wait();
        }
    }
    plan.sync.wait()?;
    let setup_end_ns = trace::now_ns();
    drop(setup_span);

    // ---- Phase 3: steady -------------------------------------------------------
    let steady_span = trace::phase("steady");
    let fabric_before = (me == 0).then(|| plan.runtime.fabric().map(|f| f.stats()));
    let crossings_before = app.session.crossings();
    plan.sync.wait()?;
    let mut segments = Vec::with_capacity(SEGMENTS as usize);
    for index in 0..SEGMENTS {
        let traced = enter_segment(tracing, index);
        let started = trace::now_ns();
        app.steps(counts.segment_steps)?;
        segments.push(Segment {
            steps: counts.segment_steps,
            ns: trace::now_ns() - started,
            traced,
        });
    }
    // The rounds and the tail of a traced run record every call.
    trace::set_level(if tracing { Level::Calls } else { Level::Off });
    plan.sync.wait()?;
    let steady_crossings = app.session.crossings() - crossings_before;
    let steady_fabric = match (fabric_before, plan.runtime.fabric()) {
        (Some(Some(before)), Some(fabric)) => Some((before, fabric.stats())),
        _ => None,
    };
    plan.sync.wait()?;
    drop(steady_span);

    // ---- Phase 4: rounds -------------------------------------------------------
    let rounds_span = trace::phase("rounds");
    let staged = if plan.staged { STAGED_ROUNDS } else { 0 };
    let mut rounds: Vec<RoundSample> = Vec::with_capacity(counts.rounds as usize);
    let mut in_flight: Option<FlushHandle> = None;
    // Rounds whose publication this rank has not observed yet, oldest first.
    let mut awaiting: VecDeque<usize> = VecDeque::new();
    for round in 0..counts.rounds + staged {
        trace::set_round(Some(round as u32));
        let round_span = trace::phase("round");
        app.dirty(round)?;
        {
            let _span = trace::phase("round.steps");
            for _ in 0..counts.steps_per_round {
                app.steps(1)?;
                if !awaiting.is_empty() {
                    observe_commits(&app.ctx, &mut rounds, &mut awaiting);
                }
            }
        }
        app.save()?;
        let generation = app.session.generation();
        let dirty_bytes = app.session.upper().dirty_bytes() as u64;
        let enter_ns = trace::now_ns();
        let stall_span = trace::phase("round.stall");
        let mut flush_wait_ns = 0;
        let mut report = None;
        if let Some(previous) = in_flight.take() {
            let _span = trace::phase("job-runtime.flush_wait");
            let landed = previous.wait();
            flush_wait_ns = trace::now_ns() - enter_ns;
            if let Some(sample) = rounds.last_mut() {
                sample.report = Some(landed);
            }
        }
        if round >= counts.rounds {
            // A staged probe round: the benchmark drives the protocol stage by
            // stage so each stage gets its own span. Not part of the samples.
            let handle =
                crate::probes::staged_checkpoint(&mut app.session, &app.ctx, plan.handle.as_ref())?;
            drop(stall_span);
            drop(round_span);
            if let Some(handle) = handle {
                handle.wait();
            }
            continue;
        }
        match spec.sink {
            Sink::Sync => report = Some(app.ctx.checkpoint(&mut app.session)?),
            Sink::AsyncTenant => in_flight = Some(app.ctx.checkpoint_async(&mut app.session)?),
        }
        let stall_ns = trace::now_ns() - enter_ns;
        drop(stall_span);
        awaiting.push_back(rounds.len());
        rounds.push(RoundSample {
            generation,
            enter_ns,
            stall_ns,
            flush_wait_ns,
            commit_seen_ns: None,
            dirty_bytes,
            report,
            prune_ns: None,
        });
        // A synchronous round is published by the time its call returns.
        observe_commits(&app.ctx, &mut rounds, &mut awaiting);
        if spec.sink == Sink::Sync && me == 0 {
            let _span = trace::phase("ckpt-store.prune");
            let started = trace::now_ns();
            app.ctx.storage().prune_before(generation.saturating_sub(1));
            if let Some(sample) = rounds.last_mut() {
                sample.prune_ns = Some(trace::now_ns() - started);
            }
        }
    }
    trace::set_round(None);
    // Let the last flush land before the world goes away, so the restart below has
    // the last round's generation to restore; then one final look at publication.
    if let Some(last) = in_flight.take() {
        let landed = last.wait();
        if let Some(sample) = rounds.last_mut() {
            sample.report = Some(landed);
        }
    }
    plan.sync.wait()?;
    observe_commits(&app.ctx, &mut rounds, &mut awaiting);
    drop(rounds_span);

    // ---- Phase 6a: the uninterrupted world's tail ---------------------------------
    let last_generation = app.session.generation() - 1;
    let tail_digest = {
        let _span = trace::phase("tail");
        app.steps(counts.tail_steps)?;
        step::state_digest(&app.lattice, app.session.upper())
    };
    trace::finish_thread(format!("rank {me}"));
    Ok(RankOut {
        setup_end_ns,
        segments,
        rounds,
        digest_at_native: app.digest_at_native,
        tail_digest,
        last_generation,
        steady_crossings,
        steady_fabric,
        inputs_digest: split_proc::integrity::xxh64(&inputs),
        steps_done: app.state.step,
    })
}

fn run_job(
    spec: &Spec,
    opts: &RunOptions,
    world_size: usize,
    staged: bool,
) -> MpiResult<(Job, Vec<RankOut>)> {
    let job = Job::build(spec, world_size)?;
    let plan = Arc::new(Plan {
        spec: *spec,
        opts: *opts,
        runtime: Arc::clone(&job.runtime),
        handle: job.service.as_ref().map(|(_, handle)| handle.clone()),
        sync: Rendezvous::new(world_size),
        staged,
    });
    let outs = job
        .runtime
        .run(move |session, ctx| rank_body(&plan, session, ctx))?;
    Ok((job, outs))
}

/// Phase 2: the same step function on bare lower halves.
fn run_native(spec: &Spec, opts: &RunOptions, world_size: usize) -> MpiResult<NativeOut> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let lowers = spec.backend.factory().launch(world_size, registry, 1)?;
    let (shape, seed, trace_on) = (spec.shape, opts.seed, opts.trace);
    let segment_steps = opts.counts.native_segment_steps;
    let outs = run_world(lowers, move |rank, lower| {
        crate::steady::bind_current_thread(rank);
        trace::set_level(if trace_on { Level::Phases } else { Level::Off });
        let span = trace::phase("native");
        let mut comm = NativeComm::new(lower, &shape)?;
        let mut lattice = gen::lattice(seed, rank, step::LATTICE_ELEMENTS);
        let mut segments = Vec::with_capacity(NATIVE_SEGMENTS as usize);
        let mut done = 0u64;
        for index in 0..NATIVE_SEGMENTS {
            let traced = enter_segment(trace_on, index);
            let started = trace::now_ns();
            for _ in 0..segment_steps {
                step::step(&mut comm, &shape, &mut lattice, done)?;
                done += 1;
            }
            segments.push(Segment {
                steps: segment_steps,
                ns: trace::now_ns() - started,
                traced,
            });
        }
        drop(span);
        trace::finish_thread(format!("native {rank}"));
        Ok((segments, step::lattice_digest(&lattice)))
    })?;
    let digests = outs.iter().map(|(_, digest)| *digest).collect();
    let segments = outs
        .into_iter()
        .next()
        .map(|(segments, _)| segments)
        .unwrap_or_default();
    Ok(NativeOut { segments, digests })
}

/// Phase 6b: the last restored world resumes from the upper half it was given.
fn run_restored_tail(ranks: Vec<ManaRank>, spec: &Spec, opts: &RunOptions) -> MpiResult<Vec<u64>> {
    let (shape, tail_steps, trace_on) = (spec.shape, opts.counts.tail_steps, opts.trace);
    run_world(ranks, move |rank, mana_rank| {
        crate::steady::bind_current_thread(rank);
        trace::set_level(if trace_on { Level::Calls } else { Level::Off });
        let span = trace::phase("tail.restored");
        let mut session = Session::new(mana_rank);
        let state: AppState = session.upper().load_json(step::APP_REGION)?;
        let mut lattice = f64::decode(session.upper().region(step::LATTICE_REGION)?)?;
        for offset in 0..tail_steps {
            let mut comm = ManaComm {
                session: &mut session,
                world: state.world,
                compute: state.compute,
            };
            step::step(&mut comm, &shape, &mut lattice, state.step + offset)?;
        }
        let digest = step::state_digest(&lattice, session.upper());
        drop(span);
        trace::finish_thread(format!("restored {rank}"));
        Ok(digest)
    })
}

/// One epoch: a whole lifecycle on a fresh job. `opts.seed` is the epoch's seed.
fn run_epoch(
    spec: &Spec,
    opts: &RunOptions,
    world_size: usize,
    staged: bool,
) -> MpiResult<(Epoch, Job)> {
    // Phase 2.
    let native = run_native(spec, opts, world_size)?;

    // Phases 1, 3, 4 and 6a: the job, until its world is dropped.
    let job_started = trace::now_ns();
    let (job, ranks) = run_job(spec, opts, world_size, staged)?;
    let solution_started = ranks.iter().map(|r| r.setup_end_ns).max().unwrap_or(0);
    let setup_s = (solution_started - job_started) as f64 / 1e9;

    // Phase 5: the world is gone (`run` returned); restart it N times.
    let mut restart_ns = Vec::with_capacity(opts.counts.restarts as usize);
    let mut restart_generations = Vec::with_capacity(opts.counts.restarts as usize);
    let mut restored = None;
    for _ in 0..opts.counts.restarts {
        drop(restored.take());
        let span = trace::phase("restart");
        let started = trace::now_ns();
        let (ranks, generation) = job.runtime.restart(spec.restart_backend)?;
        restart_ns.push(trace::now_ns() - started);
        drop(span);
        restart_generations.push(generation);
        restored = Some(ranks);
    }

    // Phase 6b.
    let restored_tail_digests = match restored {
        Some(ranks) => run_restored_tail(ranks, spec, opts)?,
        None => Vec::new(),
    };
    let epoch = Epoch {
        native,
        setup_s,
        ranks,
        restart_ns,
        restart_generations,
        restored_tail_digests,
        solution_s: (trace::now_ns() - solution_started) as f64 / 1e9,
    };
    Ok((epoch, job))
}

/// The seed of epoch `epoch` of a run seeded `seed` (epoch 0 runs on `seed` itself).
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed.wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run every epoch of `spec`.
pub fn run(spec: &Spec, opts: &RunOptions) -> MpiResult<Outcome> {
    let world_size = spec.world_size(opts.nproc);
    trace::set_level(if opts.trace {
        Level::Phases
    } else {
        Level::Off
    });
    let mut epochs = Vec::with_capacity(opts.counts.epochs as usize);
    let mut last_job = None;
    for index in 0..opts.counts.epochs {
        // The previous epoch's job (its store, its service threads) goes first.
        drop(last_job.take());
        let _span = trace::phase("epoch");
        let epoch_opts = RunOptions {
            seed: epoch_seed(opts.seed, index),
            ..*opts
        };
        let staged = opts.trace && index + 1 == opts.counts.epochs;
        let (epoch, job) = run_epoch(spec, &epoch_opts, world_size, staged)?;
        epochs.push(epoch);
        last_job = Some(job);
    }
    Ok(Outcome {
        world_size,
        counts: opts.counts,
        epochs,
        job: last_job.ok_or_else(|| MpiError::Internal("a run needs at least one epoch".into()))?,
    })
}
