//! Metric definitions and the reduction of a lifecycle's raw samples to them.
//!
//! The two tables below are the single source of truth for metric names, units and
//! directions; `BENCHMARK.json` and the README repeat them and a test keeps
//! `BENCHMARK.json` in step.

use crate::lifecycle::{Epoch, Outcome, RoundSample, Segment};
use crate::probes;
use crate::stats::{mean, median, percentile, percentile_supported};
use crate::trace::{self, Lane};
use crate::workload::Spec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What the metric is (end-to-end) or which end-to-end metric it is expected
    /// to move, on which workload (per-layer).
    pub note: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off. `failed_ops_share` is
/// reported through the result's `attempted`/`failed` counts instead: it is 0 at
/// every healthy commit, and a bound relative to 0 means nothing.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, "Phase 1 wall time (median of the epochs' set-ups)."),
    def("steps_per_s", "steps/s", Higher, "Per-segment rate of the steady phase (mean of the per-epoch medians, like every timing below)."),
    def("ckpt_stall_ms_p50", "ms", Lower, "Per round, the max over ranks of the time blocked in the JobCtx checkpoint call (plus asynchronous backpressure)."),
    def("ckpt_commit_ms_p50", "ms", Lower, "From the first rank entering a round until its generation is published, seen at step boundaries."),
    def("restart_ms_p50", "ms", Lower, "JobRuntime::restart wall time from the newest committed generation."),
    def("time_to_solution_s", "s", Lower, "Phases 3-6 wall time: a fixed amount of science under one preemption."),
    def("stored_bytes_per_logical_byte", "ratio", Lower, "Sum of written bytes over sum of logical bytes across the rounds."),
    def("peak_rss_mib", "MiB", Lower, "VmHWM of the workload process at exit."),
];

/// The per-layer metrics, from the traced run. The layers are the crates.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    def("native.steps_per_s", "steps/s", Higher, "steps_per_s on halo_p2p and collective_scf, by at most 1/mana.overhead_x of its size"),
    def("native.send_us", "us", Lower, "steps_per_s on halo_p2p"),
    def("native.recv_us", "us", Lower, "steps_per_s on halo_p2p"),
    def("native.allreduce_us", "us", Lower, "steps_per_s on collective_scf"),
    def("native.alltoall_us", "us", Lower, "steps_per_s on collective_scf"),
    def("net-sim.msgs_per_step", "count", Lower, "steps_per_s on halo_p2p (exact count)"),
    def("net-sim.bytes_sent_per_step", "count", Lower, "steps_per_s on halo_p2p (exact count)"),
    def("net-sim.bytes_copied_per_step", "count", Lower, "steps_per_s on halo_p2p (exact count)"),
    def("net-sim.collective_rounds_per_step", "count", Lower, "steps_per_s on collective_scf (exact count)"),
    def("net-sim.deliver_ns", "ns", Lower, "steps_per_s on halo_p2p"),
    def("mpi-model.codec_ns_per_kib", "ns/KiB", Lower, "steps_per_s on halo_p2p; none on collective_scf (8-byte payloads)"),
    def("mana.send_us", "us", Lower, "steps_per_s on halo_p2p"),
    def("mana.recv_us", "us", Lower, "steps_per_s on halo_p2p"),
    def("mana.allreduce_us", "us", Lower, "steps_per_s on collective_scf"),
    def("mana.alltoall_us", "us", Lower, "steps_per_s on collective_scf"),
    def("mana.overhead_x", "x", Lower, "diagnostic: native.steps_per_s / steps_per_s"),
    def("mana.crossings_per_step", "count", Lower, "steps_per_s (exact: the protocol minimum, from a one-rank world)"),
    def("mana.poll_crossings_per_step", "count", Lower, "steps_per_s on collective_scf (registration polls beyond the minimum; timing-dependent)"),
    def("mana.virtid_lookup_ns", "ns", Lower, "steps_per_s on both step workloads"),
    def("mana.quiesce_drain_ms", "ms", Lower, "ckpt_stall_ms_p50 on halo_p2p and collective_scf"),
    def("mana.freeze_ms", "ms", Lower, "ckpt_stall_ms_p50 on ckpt_full_async"),
    def("mana.restore_ms", "ms", Lower, "restart_ms_p50 on every workload"),
    def("split-proc.image_encode_mib_s", "MiB/s", Higher, "ckpt_stall_ms_p50 on halo_p2p"),
    def("split-proc.image_decode_mib_s", "MiB/s", Higher, "restart_ms_p50 on halo_p2p"),
    def("split-proc.crc32_mib_s", "MiB/s", Higher, "ckpt_stall_ms_p50 and restart_ms_p50 on halo_p2p"),
    def("split-proc.xxh64_mib_s", "MiB/s", Higher, "ckpt_commit_ms_p50 on ckpt_full_async"),
    def("split-proc.dirty_bytes_per_round", "count", Lower, "ckpt_stall_ms_p50 on the ckpt workloads (exact count)"),
    def("ckpt-store.write_image_ms", "ms", Lower, "ckpt_stall_ms_p50 on the synchronous workloads"),
    def("ckpt-store.read_ms", "ms", Lower, "restart_ms_p50"),
    def("ckpt-store.lz_compress_mib_s", "MiB/s", Higher, "ckpt_stall_ms_p50 on ckpt_incremental; none on ckpt_full_async"),
    def("ckpt-store.lz_decompress_mib_s", "MiB/s", Higher, "restart_ms_p50 on ckpt_incremental"),
    def("ckpt-store.digest_mib_s", "MiB/s", Higher, "ckpt_commit_ms_p50 on ckpt_full_async"),
    def("ckpt-store.compress_ratio", "x", Higher, "stored_bytes_per_logical_byte on ckpt_incremental (exact)"),
    def("ckpt-store.chunks_new_per_round", "count", Lower, "stored_bytes_per_logical_byte (exact count)"),
    def("ckpt-store.chunks_reused_per_round", "count", Higher, "stored_bytes_per_logical_byte (exact count)"),
    def("ckpt-store.regions_reused_per_round", "count", Higher, "stored_bytes_per_logical_byte (exact count)"),
    def("ckpt-store.written_bytes_per_round", "count", Lower, "stored_bytes_per_logical_byte (exact count)"),
    def("ckpt-store.manifest_bytes", "count", Lower, "stored_bytes_per_logical_byte (exact count)"),
    def("ckpt-store.manifest_encode_us", "us", Lower, "ckpt_stall_ms_p50 on ckpt_incremental"),
    def("ckpt-store.parallel_write_x", "x", Higher, "ckpt_stall_ms_p50 on ckpt_incremental"),
    def("ckpt-store.prune_ms", "ms", Lower, "time_to_solution_s and peak_rss_mib"),
    def("ckpt-service.reject_share", "share", Lower, "ckpt_stall_ms_p50 and p90 on ckpt_full_async"),
    def("ckpt-service.sync_fallback_share", "share", Lower, "ckpt_stall_ms_p50 and p90 on ckpt_full_async"),
    def("ckpt-service.dedup_x", "x", Higher, "stored_bytes_per_logical_byte on ckpt_full_async"),
    def("ckpt-service.gc_reclaimed_generations", "count", Higher, "peak_rss_mib on ckpt_full_async"),
    def("job-runtime.ckpt_stall_ms_p90", "ms", Lower, "the tail of ckpt_stall_ms_p50's samples; demoted from the end-to-end list (A/A spread up to 34%)"),
    def("job-runtime.launch_ms", "ms", Lower, "restart_ms_p50 and setup_s"),
    def("job-runtime.commit_barrier_ms", "ms", Lower, "ckpt_commit_ms_p50"),
    def("job-runtime.flush_wait_ms", "ms", Lower, "ckpt_commit_ms_p50 on ckpt_full_async"),
    def("elastic.resize_ms", "ms", Lower, "diagnostic; moves no end-to-end metric yet"),
    def("elastic.resize_x", "x", Lower, "diagnostic: resize_ms / restart_ms_p50"),
    def("trace.overhead_pct", "%", Lower, "diagnostic: steps_per_s traced versus untraced"),
    def("trace.stage_coverage_pct", "%", Higher, "diagnostic: share of a staged stall its stage spans account for"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line of standard output: the builder's contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// The machine the numbers came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

/// One metric with its provenance, in the detailed output file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedMetric {
    pub value: f64,
    pub unit: String,
    pub better: String,
    /// Samples behind the value (1 for a count or a single wall time).
    pub samples: usize,
    /// Whether a tail percentile has ten samples beyond it (always true otherwise).
    pub supported: bool,
}

/// `benchmark/out/<workload>.json` (or `<workload>.layers.json` for a traced run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detailed {
    pub schema: String,
    pub workload: String,
    pub why: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub host: Host,
    pub world_size: usize,
    pub state_bytes_per_rank: usize,
    pub inputs_digest: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failed_ops_share: f64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, DetailedMetric>,
    /// The raw samples behind the timing metrics, in measurement order.
    pub samples: BTreeMap<String, Vec<f64>>,
}

pub const SCHEMA: &str = "mana-benchmark/1";

impl Detailed {
    /// The contract's view of this result: every metric of `defs`, nothing else.
    pub fn result(&self, defs: &[MetricDef]) -> RunResult {
        RunResult {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: defs
                .iter()
                .map(|d| {
                    let value = self.metrics.get(d.name).map_or(0.0, |m| m.value);
                    (
                        d.name.to_string(),
                        Metric {
                            value,
                            unit: d.unit.to_string(),
                        },
                    )
                })
                .collect(),
        }
    }
}

pub fn host(nproc: usize) -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc,
        cpu_model,
        rustc: env!("BENCH_RUSTC_VERSION").to_string(),
        commit: env!("BENCH_COMMIT").to_string(),
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restart times (ms) past the warm-up: the first quarter of an epoch's restarts is
/// left out, because caches and the allocator are still adapting to the restart's
/// burst of region-sized allocations (the first restart of a 32 MiB job takes two
/// to four times the tenth).
fn warm_restarts_ms(restart_ns: &[u64]) -> Vec<f64> {
    restart_ns[restart_ns.len() / 4..]
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect()
}

/// `restart_ms_p50` of a run: the mean over its epochs of the median warm restart.
pub fn restart_ms_p50(outcome: &Outcome) -> f64 {
    let medians: Vec<f64> = outcome
        .epochs
        .iter()
        .map(|e| median(&warm_restarts_ms(&e.restart_ns)))
        .collect();
    mean(&medians)
}

fn rates(segments: &[Segment], traced: bool) -> Vec<f64> {
    segments
        .iter()
        .filter(|s| s.traced == traced)
        .map(Segment::steps_per_s)
        .collect()
}

/// Per round, a value folded over the ranks' samples of that round.
fn per_round<T>(
    ranks: &[&[RoundSample]],
    pick: impl Fn(&RoundSample) -> Option<T>,
    fold: impl Fn(T, T) -> T,
) -> Vec<Option<T>> {
    let rounds = ranks.iter().map(|samples| samples.len()).min().unwrap_or(0);
    (0..rounds)
        .map(|round| {
            ranks
                .iter()
                .map(|samples| pick(&samples[round]))
                .reduce(|a, b| match (a, b) {
                    (Some(a), Some(b)) => Some(fold(a, b)),
                    _ => None,
                })
                .flatten()
        })
        .collect()
}

struct Collector {
    metrics: BTreeMap<String, DetailedMetric>,
}

impl Collector {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.put_supported(name, value, samples, true);
    }

    fn put_supported(&mut self, name: &'static str, value: f64, samples: usize, supported: bool) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.metrics.insert(
            name.to_string(),
            DetailedMetric {
                value: if value.is_finite() { value } else { 0.0 },
                unit: def.unit.to_string(),
                better: def.better.label().to_string(),
                samples,
                supported,
            },
        );
    }

    fn span_median_us(&mut self, name: &'static str, lanes: &[Lane], span: &str) {
        let samples = trace::durations_ns(lanes, span);
        self.put(name, median(&samples) / 1e3, samples.len());
    }
}

/// What a traced run adds to the raw samples.
pub struct Traced {
    pub lanes: Vec<Lane>,
    pub probes: Vec<(&'static str, f64)>,
}

/// The timing samples of one epoch, reduced over its ranks.
struct EpochSamples {
    steady_rates: Vec<f64>,
    traced_rates: Vec<f64>,
    native_rates: Vec<f64>,
    stalls_ms: Vec<f64>,
    commits_ms: Vec<f64>,
    restarts_ms: Vec<f64>,
}

fn epoch_samples(index: usize, epoch: &Epoch, failures: &mut Vec<String>) -> EpochSamples {
    let rank0 = &epoch.ranks[0];
    let rounds_by_rank: Vec<&[RoundSample]> =
        epoch.ranks.iter().map(|r| r.rounds.as_slice()).collect();
    let stalls_ms = per_round(&rounds_by_rank, |s| Some(s.stall_ns), u64::max)
        .into_iter()
        .flatten()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let entered = per_round(&rounds_by_rank, |s| Some(s.enter_ns), u64::min);
    let published = per_round(&rounds_by_rank, |s| s.commit_seen_ns, u64::min);
    let mut commits_ms = Vec::with_capacity(entered.len());
    for (round, pair) in entered.iter().zip(&published).enumerate() {
        match pair {
            (Some(entered), Some(published)) => {
                commits_ms.push(published.saturating_sub(*entered) as f64 / 1e6)
            }
            _ => failures.push(format!(
                "epoch {index}: round {round} was never seen committed"
            )),
        }
    }
    EpochSamples {
        steady_rates: rates(&rank0.segments, false),
        traced_rates: rates(&rank0.segments, true),
        native_rates: rates(&epoch.native.segments, false),
        stalls_ms,
        commits_ms,
        restarts_ms: warm_restarts_ms(&epoch.restart_ns),
    }
}

/// The run's value of a timing metric: the mean over the epochs of the per-epoch
/// median (see `workload::EPOCHS`).
fn mean_of_medians(epochs: &[EpochSamples], pick: impl Fn(&EpochSamples) -> &[f64]) -> f64 {
    let medians: Vec<f64> = epochs.iter().map(|e| median(pick(e))).collect();
    mean(&medians)
}

fn pooled(epochs: &[EpochSamples], pick: impl Fn(&EpochSamples) -> &[f64]) -> Vec<f64> {
    epochs
        .iter()
        .flat_map(|e| pick(e).iter().copied())
        .collect()
}

/// The correctness checks of one epoch; returns how many were made.
fn check_epoch(index: usize, epoch: &Epoch, failures: &mut Vec<String>) -> u64 {
    let mut checks = 0;
    for (rank, native) in epoch.native.digests.iter().enumerate() {
        checks += 1;
        if epoch.ranks.get(rank).and_then(|r| r.digest_at_native) != Some(*native) {
            failures.push(format!(
                "epoch {index} rank {rank}: native and MANA checksums differ"
            ));
        }
    }
    for (rank, out) in epoch.ranks.iter().enumerate() {
        checks += 1;
        if epoch.restored_tail_digests.get(rank) != Some(&out.tail_digest) {
            failures.push(format!(
                "epoch {index} rank {rank}: restarted tail digest differs from the \
                 uninterrupted world's"
            ));
        }
    }
    let newest = epoch.ranks[0].last_generation;
    for (restart, generation) in epoch.restart_generations.iter().enumerate() {
        if *generation != newest {
            failures.push(format!(
                "epoch {index} restart {restart} restored generation {generation}, not \
                 the newest ({newest})"
            ));
        }
    }
    checks
}

/// Reduce a run's samples to the detailed result.
pub fn reduce(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    nproc: usize,
    outcome: &Outcome,
    traced: Option<&Traced>,
) -> Detailed {
    let mut c = Collector {
        metrics: BTreeMap::new(),
    };
    let mut failures: Vec<String> = Vec::new();
    let world = outcome.world_size as u64;
    let epochs: Vec<EpochSamples> = outcome
        .epochs
        .iter()
        .enumerate()
        .map(|(index, epoch)| epoch_samples(index, epoch, &mut failures))
        .collect();
    let all_rounds = || {
        outcome
            .epochs
            .iter()
            .flat_map(|e| e.ranks.iter())
            .flat_map(|r| r.rounds.iter())
    };
    let rank_rounds = all_rounds().count();

    // ---- end to end ------------------------------------------------------------------
    let setups: Vec<f64> = outcome.epochs.iter().map(|e| e.setup_s).collect();
    c.put("setup_s", median(&setups), setups.len());
    let steps_per_s = mean_of_medians(&epochs, |e| &e.steady_rates);
    let steady = pooled(&epochs, |e| &e.steady_rates);
    c.put("steps_per_s", steps_per_s, steady.len());
    let stalls = pooled(&epochs, |e| &e.stalls_ms);
    c.put(
        "ckpt_stall_ms_p50",
        mean_of_medians(&epochs, |e| &e.stalls_ms),
        stalls.len(),
    );
    let commits = pooled(&epochs, |e| &e.commits_ms);
    c.put(
        "ckpt_commit_ms_p50",
        mean_of_medians(&epochs, |e| &e.commits_ms),
        commits.len(),
    );
    let restarts = pooled(&epochs, |e| &e.restarts_ms);
    c.put("restart_ms_p50", restart_ms_p50(outcome), restarts.len());
    c.put(
        "time_to_solution_s",
        outcome.epochs.iter().map(|e| e.solution_s).sum(),
        outcome.epochs.len(),
    );

    let reports: Vec<_> = all_rounds().filter_map(|s| s.report).collect();
    if reports.len() != rank_rounds {
        failures.push(format!(
            "{} of {rank_rounds} round writes returned no store report",
            rank_rounds - reports.len()
        ));
    }
    let written: usize = reports.iter().map(|r| r.written_bytes).sum();
    let logical: usize = reports.iter().map(|r| r.logical_bytes).sum();
    c.put(
        "stored_bytes_per_logical_byte",
        written as f64 / logical.max(1) as f64,
        reports.len(),
    );
    c.put("peak_rss_mib", peak_rss_mib(), 1);

    // ---- correctness -----------------------------------------------------------------
    let mut attempted = 0u64;
    for (index, epoch) in outcome.epochs.iter().enumerate() {
        let native_steps: u64 = epoch.native.segments.iter().map(|s| s.steps).sum();
        attempted += native_steps * world
            + epoch.ranks.iter().map(|r| r.steps_done).sum::<u64>()
            + epoch.restored_tail_digests.len() as u64 * outcome.counts.tail_steps
            + epoch.ranks[0].rounds.len() as u64
            + epoch.restart_ns.len() as u64
            + check_epoch(index, epoch, &mut failures);
    }
    let failed = failures.len() as u64;

    // ---- per layer ---------------------------------------------------------------------
    if let Some(traced) = traced {
        let lanes = &traced.lanes;
        let native_rate = mean_of_medians(&epochs, |e| &e.native_rates);
        c.put(
            "native.steps_per_s",
            native_rate,
            pooled(&epochs, |e| &e.native_rates).len(),
        );
        c.put("mana.overhead_x", native_rate / steps_per_s, 1);
        for (name, span) in [
            ("native.send_us", "native.send"),
            ("native.recv_us", "native.recv"),
            ("native.allreduce_us", "native.allreduce"),
            ("native.alltoall_us", "native.alltoall"),
            ("mana.send_us", "mana.send"),
            ("mana.recv_us", "mana.recv"),
            ("mana.allreduce_us", "mana.allreduce"),
            ("mana.alltoall_us", "mana.alltoall"),
        ] {
            c.span_median_us(name, lanes, span);
        }
        // Exact counts over every epoch's steady window (rank 0 holds the fabric's).
        let rank0s = || outcome.epochs.iter().map(|e| &e.ranks[0]);
        let steady_steps: u64 = rank0s()
            .flat_map(|r| r.segments.iter())
            .map(|s| s.steps)
            .sum();
        let per_step = |total: u64| total as f64 / steady_steps.max(1) as f64;
        let fabric = |pick: fn(&net_sim::stats::StatsSnapshot) -> u64| -> u64 {
            rank0s()
                .filter_map(|r| r.steady_fabric)
                .map(|(before, after)| pick(&after) - pick(&before))
                .sum()
        };
        c.put(
            "net-sim.msgs_per_step",
            per_step(fabric(|s| s.messages_sent)),
            1,
        );
        c.put(
            "net-sim.bytes_sent_per_step",
            per_step(fabric(|s| s.bytes_sent)),
            1,
        );
        c.put(
            "net-sim.bytes_copied_per_step",
            per_step(fabric(|s| s.bytes_copied)),
            1,
        );
        c.put(
            "net-sim.collective_rounds_per_step",
            per_step(fabric(|s| s.collective_rounds)),
            1,
        );
        for (name, value) in &traced.probes {
            c.put(name, *value, 1);
        }
        // Where the staged rounds froze live images (the asynchronous sink), they are
        // the better measurement: the probe's freeze pays first-touch page faults
        // that a running job, reusing the previous round's allocation, does not.
        let live_freezes = trace::durations_ns(lanes, "staged.freeze");
        if !live_freezes.is_empty() {
            c.put(
                "mana.freeze_ms",
                median(&live_freezes) / 1e6,
                live_freezes.len(),
            );
        }
        let minimum = c
            .metrics
            .get("mana.crossings_per_step")
            .map_or(0.0, |m| m.value);
        c.put(
            "mana.poll_crossings_per_step",
            (per_step(rank0s().map(|r| r.steady_crossings).sum()) - minimum).max(0.0),
            1,
        );
        let traced_rate = mean_of_medians(&epochs, |e| &e.traced_rates);
        c.put(
            "trace.overhead_pct",
            (1.0 - traced_rate / steps_per_s) * 100.0,
            pooled(&epochs, |e| &e.traced_rates).len(),
        );
        let coverage = probes::stage_coverage(lanes);
        c.put(
            "trace.stage_coverage_pct",
            median(&coverage) * 100.0,
            coverage.len(),
        );
        let quiesce_drain: Vec<f64> = staged_sums(
            lanes,
            &["staged.quiesce", "staged.drain", "staged.complete_drain"],
        );
        c.put(
            "mana.quiesce_drain_ms",
            median(&quiesce_drain) / 1e6,
            quiesce_drain.len(),
        );
        let barrier = probes::commit_barrier_ns(lanes);
        c.put(
            "job-runtime.commit_barrier_ms",
            median(&barrier) / 1e6,
            barrier.len(),
        );
        c.put_supported(
            "job-runtime.ckpt_stall_ms_p90",
            percentile(&stalls, 90.0),
            stalls.len(),
            percentile_supported(stalls.len(), 90.0),
        );
        let flush_waits: Vec<f64> = all_rounds().map(|s| s.flush_wait_ns as f64 / 1e6).collect();
        c.put(
            "job-runtime.flush_wait_ms",
            median(&flush_waits),
            flush_waits.len(),
        );
        let prunes: Vec<f64> = all_rounds()
            .filter_map(|s| s.prune_ns)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        c.put("ckpt-store.prune_ms", median(&prunes), prunes.len());

        let per_write = |total: usize| total as f64 / reports.len().max(1) as f64;
        c.put(
            "split-proc.dirty_bytes_per_round",
            all_rounds().map(|s| s.dirty_bytes).sum::<u64>() as f64 / rank_rounds.max(1) as f64,
            rank_rounds,
        );
        c.put(
            "ckpt-store.chunks_new_per_round",
            per_write(reports.iter().map(|r| r.chunks_new).sum()),
            reports.len(),
        );
        c.put(
            "ckpt-store.chunks_reused_per_round",
            per_write(reports.iter().map(|r| r.chunks_reused).sum()),
            reports.len(),
        );
        c.put(
            "ckpt-store.regions_reused_per_round",
            per_write(reports.iter().map(|r| r.regions_reused).sum()),
            reports.len(),
        );
        c.put(
            "ckpt-store.written_bytes_per_round",
            per_write(written),
            reports.len(),
        );
        c.put(
            "ckpt-store.manifest_bytes",
            per_write(reports.iter().map(|r| r.manifest_bytes).sum()),
            reports.len(),
        );

        // The service's counters are the last epoch's: each epoch has its own service.
        if let (Some((_, handle)), Some(last)) = (&outcome.job.service, outcome.epochs.last()) {
            let stats = handle.stats();
            let submissions = last.ranks.iter().map(|r| r.rounds.len()).sum::<usize>();
            let share = |count: u64| count as f64 / submissions.max(1) as f64;
            c.put(
                "ckpt-service.reject_share",
                share(stats.rejected_submissions),
                submissions,
            );
            c.put(
                "ckpt-service.sync_fallback_share",
                share(stats.sync_fallbacks),
                submissions,
            );
            c.put("ckpt-service.dedup_x", stats.dedup_ratio(), 1);
            c.put(
                "ckpt-service.gc_reclaimed_generations",
                stats.reclaimed_generations as f64,
                1,
            );
        }
        // Metrics a workload has no source for (the service on a synchronous sink,
        // a resize a derived communicator forbids) read 0.
        for def in PER_LAYER {
            if !c.metrics.contains_key(def.name) {
                c.put(def.name, 0.0, 0);
            }
        }
    }

    Detailed {
        schema: SCHEMA.to_string(),
        workload: spec.name.to_string(),
        why: spec.why.to_string(),
        seed,
        seconds,
        trace: traced.is_some(),
        host: host(nproc),
        world_size: outcome.world_size,
        state_bytes_per_rank: spec.state_bytes(),
        inputs_digest: format!(
            "{:016x}",
            outcome
                .epochs
                .iter()
                .flat_map(|e| e.ranks.iter())
                .fold(0u64, |acc, r| acc.rotate_left(7) ^ r.inputs_digest)
        ),
        correct: failed == 0,
        attempted,
        failed,
        failed_ops_share: failed as f64 / attempted.max(1) as f64,
        failures,
        metrics: c.metrics,
        samples: BTreeMap::from([
            ("setup_s".to_string(), setups),
            ("segment_steps_per_s".to_string(), steady),
            ("ckpt_stall_ms".to_string(), stalls),
            ("ckpt_commit_ms".to_string(), commits),
            ("restart_ms".to_string(), restarts),
        ]),
    }
}

/// Per (lane, round), the summed duration of the named staged spans (ns).
fn staged_sums(lanes: &[Lane], names: &[&str]) -> Vec<f64> {
    let mut sums = Vec::new();
    for lane in lanes {
        let mut by_round: BTreeMap<u32, f64> = BTreeMap::new();
        for span in lane.spans.iter().filter(|s| names.contains(&s.name)) {
            *by_round.entry(span.round).or_default() += span.duration_ns() as f64;
        }
        sums.extend(by_round.into_values());
    }
    sums
}

/// The human-readable table printed before the result line.
pub fn render(detailed: &Detailed, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{} (seed {}, {} rank(s), {} MiB state/rank, nproc {})\n",
        detailed.workload,
        detailed.seed,
        detailed.world_size,
        detailed.state_bytes_per_rank / (1024 * 1024),
        detailed.host.nproc
    );
    for def in defs {
        if let Some(metric) = detailed.metrics.get(def.name) {
            out.push_str(&format!(
                "  {:<38} {:>16.4} {:<8} {:<6} n={}{}\n",
                def.name,
                metric.value,
                metric.unit,
                metric.better,
                metric.samples,
                if metric.supported {
                    ""
                } else {
                    " (fewer than ten samples beyond)"
                }
            ));
        }
    }
    out.push_str(&format!(
        "  {:<38} {:>16.6} share    lower  failed {} of {} attempted\n",
        "failed_ops_share", detailed.failed_ops_share, detailed.failed, detailed.attempted
    ));
    for failure in &detailed.failures {
        out.push_str(&format!("  FAILED: {failure}\n"));
    }
    out
}

/// Every metric with its unit, its direction and what it is (or is expected to move).
pub fn render_registry() -> String {
    let mut out = String::new();
    for (title, defs) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        out.push_str(&format!("{title}\n"));
        for def in defs {
            out.push_str(&format!(
                "  {:<38} {:<8} {:<6} {}\n",
                def.name,
                def.unit,
                def.better.label(),
                def.note
            ));
        }
    }
    out
}
