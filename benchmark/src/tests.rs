//! Crate-level tests: the output schema, `BENCHMARK.json` against the registry, a
//! quick smoke of every workload, and native-vs-MANA checksum equality.

use crate::lifecycle::{self, RunOptions};
use crate::report::{self, RunResult, END_TO_END, PER_LAYER};
use crate::step::{self, ManaComm, NativeComm};
use crate::{gen, probes, trace, workload};
use job_runtime::{run_world, JobConfig, JobRuntime};
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use serde::Deserialize;
use std::sync::Arc;

fn quick(spec: &workload::Spec, trace: bool) -> (lifecycle::Outcome, RunOptions) {
    let opts = RunOptions {
        seed: 7,
        counts: spec.quick_counts(),
        trace,
        nproc: 2,
    };
    let outcome = lifecycle::run(spec, &opts).expect("the lifecycle runs");
    (outcome, opts)
}

#[test]
fn quick_smoke_of_every_workload_fails_nothing() {
    for spec in workload::all() {
        let (outcome, opts) = quick(&spec, false);
        let detailed = report::reduce(&spec, opts.seed, 1, opts.nproc, &outcome, None);
        assert_eq!(detailed.failed, 0, "{}: {:?}", spec.name, detailed.failures);
        assert!(detailed.correct && detailed.failed_ops_share == 0.0);
        assert!(detailed.attempted > 0);
        for def in END_TO_END {
            let metric = &detailed.metrics[def.name];
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{}: {} = {}",
                spec.name,
                def.name,
                metric.value
            );
            assert_eq!(metric.unit, def.unit);
        }
    }
}

#[test]
fn traced_run_reports_every_layer_metric_and_a_loadable_trace() {
    let spec = workload::by_name("halo_p2p").expect("the workload exists");
    let (outcome, opts) = quick(&spec, true);
    let probes = probes::run(
        &spec,
        &outcome.job,
        opts.seed,
        report::restart_ms_p50(&outcome),
    )
    .expect("the probes run");
    trace::finish_thread("main".into());
    let lanes = trace::take_lanes();
    assert!(lanes.iter().any(|lane| lane.name == "rank 0"));
    assert!(lanes.iter().any(|lane| lane.name == "native 1"));
    let traced = report::Traced { lanes, probes };
    let detailed = report::reduce(&spec, opts.seed, 1, opts.nproc, &outcome, Some(&traced));
    assert_eq!(detailed.failed, 0, "{:?}", detailed.failures);
    let result = detailed.result(PER_LAYER);
    assert_eq!(result.metrics.len(), PER_LAYER.len());
    for name in [
        "mana.send_us",
        "native.recv_us",
        "mana.crossings_per_step",
        "ckpt-store.write_image_ms",
    ] {
        assert!(result.metrics[name].value > 0.0, "{name}");
    }
    // Fewer than 100 rounds cannot support a p90.
    assert!(!detailed.metrics["job-runtime.ckpt_stall_ms_p90"].supported);
    // Every stage of a staged round is under a span: nothing is left unattributed.
    assert!(result.metrics["trace.stage_coverage_pct"].value > 90.0);
    // 12 sends of 4 KiB per step, exactly.
    assert_eq!(result.metrics["net-sim.msgs_per_step"].value, 12.0);
    assert_eq!(
        result.metrics["net-sim.bytes_sent_per_step"].value,
        12.0 * 4096.0
    );

    let chrome = trace::chrome_trace_json(spec.name, &traced.lanes, |n| n.starts_with("mana."));
    #[derive(Deserialize)]
    struct Event {
        name: String,
        ph: String,
    }
    #[derive(Deserialize)]
    #[allow(non_snake_case)]
    struct Chrome {
        traceEvents: Vec<Event>,
    }
    let parsed: Chrome = serde_json::from_str(&chrome).expect("the trace is valid JSON");
    assert!(parsed
        .traceEvents
        .iter()
        .any(|e| e.name == "staged.write" && e.ph == "X"));
    assert!(parsed.traceEvents.iter().any(|e| e.name == "restart"));
}

#[test]
fn native_and_mana_checksums_of_a_50_step_run_are_equal() {
    for spec in workload::all() {
        let world = spec.world_size(2);
        let shape = spec.shape;
        let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
        let lowers = spec
            .backend
            .factory()
            .launch(world, registry, 1)
            .expect("the lower halves launch");
        let native = run_world(lowers, move |rank, lower| {
            let mut comm = NativeComm::new(lower, &shape)?;
            let mut lattice = gen::lattice(3, rank, step::LATTICE_ELEMENTS);
            for index in 0..50 {
                step::step(&mut comm, &shape, &mut lattice, index)?;
            }
            Ok(step::lattice_digest(&lattice))
        })
        .expect("the native world runs");
        let mana = JobRuntime::new(JobConfig::new(world, spec.backend))
            .run(move |mut session, _ctx| {
                let rank = session.world_rank() as usize;
                let world = session.world()?;
                let compute = if shape.derived_comm {
                    session.comm_dup(world)?
                } else {
                    world
                };
                let mut comm = ManaComm {
                    session: &mut session,
                    world,
                    compute,
                };
                let mut lattice = gen::lattice(3, rank, step::LATTICE_ELEMENTS);
                for index in 0..50 {
                    step::step(&mut comm, &shape, &mut lattice, index)?;
                }
                Ok(step::lattice_digest(&lattice))
            })
            .expect("the MANA world runs");
        assert_eq!(native, mana, "{}", spec.name);
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let spec = workload::by_name("collective_scf").expect("the workload exists");
    let (outcome, opts) = quick(&spec, false);
    let detailed = report::reduce(&spec, opts.seed, 1, opts.nproc, &outcome, None);
    let line = serde_json::to_string(&detailed.result(END_TO_END)).expect("it serializes");
    assert!(!line.contains('\n'));
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{",
    ] {
        assert!(line.contains(key), "{key} missing from {line}");
    }
    let parsed: RunResult = serde_json::from_str(&line).expect("it parses back");
    let names: Vec<&str> = parsed.metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    expected.sort_unstable();
    assert_eq!(names, expected);
    // The detailed file round-trips and records the host shape.
    let text = serde_json::to_string_pretty(&detailed).expect("it serializes");
    let back: report::Detailed = serde_json::from_str(&text).expect("it parses back");
    assert_eq!(back, detailed);
    assert_eq!(back.schema, report::SCHEMA);
    assert!(back.host.nproc >= 1 && back.host.rustc.starts_with("rustc"));
}

#[derive(Deserialize)]
struct JsonWorkload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct JsonMetric {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct JsonBound {
    name: String,
    bound: f64,
}

#[derive(Deserialize)]
struct JsonBounds {
    end_to_end: Vec<JsonBound>,
}

#[derive(Deserialize)]
struct BenchmarkJson {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<JsonWorkload>,
    end_to_end: Vec<JsonMetric>,
    per_layer: Vec<JsonMetric>,
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_registry_and_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
    assert!(text.len() <= 64 * 1024);
    let json: BenchmarkJson = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(json.paths, ["benchmark"]);
    assert!(json.command.len() <= 32 && json.command.iter().all(|part| part.len() <= 200));
    assert_eq!(json.run_seconds, workload::REFERENCE_SECONDS);

    let specs = workload::all();
    assert_eq!(json.workloads.len(), specs.len());
    for (listed, spec) in json.workloads.iter().zip(&specs) {
        assert_eq!(
            (listed.name.as_str(), listed.why.as_str()),
            (spec.name, spec.why)
        );
        assert!(name_ok(&listed.name) && listed.why.len() <= 200 && !listed.why.contains('\n'));
    }
    for (listed, defs) in [(&json.end_to_end, END_TO_END), (&json.per_layer, PER_LAYER)] {
        assert_eq!(listed.len(), defs.len());
        for (metric, def) in listed.iter().zip(defs) {
            assert_eq!(metric.name, def.name);
            assert_eq!(metric.unit, def.unit, "{}", def.name);
            assert_eq!(metric.better, def.better.label(), "{}", def.name);
            assert!(
                name_ok(&metric.name) && unit_ok(&metric.unit),
                "{}",
                def.name
            );
        }
    }
    assert!(json.end_to_end.len() <= 16 && json.per_layer.len() <= 128);
    let setup = json
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is listed");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));

    // Every end-to-end metric carries a bound of at most a quarter, no per-layer
    // metric carries one, and set-up time carries the largest.
    let bounds: JsonBounds =
        serde_json::from_str(&text).expect("every end-to-end metric has a bound");
    assert_eq!(text.matches("\"bound\"").count(), json.end_to_end.len());
    assert!(bounds
        .end_to_end
        .iter()
        .all(|b| b.bound > 0.0 && b.bound <= 0.25));
    let widest = bounds
        .end_to_end
        .iter()
        .map(|b| b.bound)
        .fold(0.0, f64::max);
    let setup = bounds
        .end_to_end
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s is bounded");
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}
