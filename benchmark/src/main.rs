//! The repo benchmark: four job-lifecycle workloads, nine end-to-end metrics
//! (tracing off) and the per-crate layer metrics (a separate traced run). See
//! `README.md` beside this crate and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! mana-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! mana-benchmark run --all [--seed N] [--seconds S] [--trace]              every workload, one child process each
//! mana-benchmark aa [--sets 2] [--runs 5] [--seed N] [--seconds S]          A/A calibration of the regress bounds
//! mana-benchmark selfcheck [--seconds S]                                   determinism of the exact-count metrics
//! mana-benchmark metrics                                                   every metric: unit, direction, what it moves
//! ```

mod gen;
mod lifecycle;
mod probes;
mod report;
mod stats;
mod steady;
mod step;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use report::{Detailed, MetricDef, RunResult, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Regress bounds of the end-to-end metrics, as recorded in `BENCHMARK.json` (found
/// from the current directory or, failing that, beside this crate's source).
fn bounds() -> BTreeMap<String, f64> {
    #[derive(serde::Deserialize)]
    struct Entry {
        name: String,
        bound: f64,
    }
    #[derive(serde::Deserialize)]
    struct File {
        end_to_end: Vec<Entry>,
    }
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    candidates
        .iter()
        .find_map(|path| std::fs::read_to_string(path).ok())
        .and_then(|text| serde_json::from_str::<File>(&text).ok())
        .map(|file| {
            file.end_to_end
                .into_iter()
                .map(|e| (e.name, e.bound))
                .collect()
        })
        .unwrap_or_default()
}

/// Command-line options shared by the subcommands.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    sets: usize,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        all: false,
        seed: 1,
        seconds: workload::REFERENCE_SECONDS,
        trace: false,
        quick: false,
        sets: 2,
        runs: 5,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--all" => options.all = true,
            "--seed" => options.seed = number(value("a number")?)?,
            "--seconds" => options.seconds = number(value("a number")?)?.max(1),
            "--sets" => options.sets = number(value("a number")?)?.max(2) as usize,
            "--runs" => options.runs = number(value("a number")?)?.max(2) as usize,
            "--quick" => options.quick = true,
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes `--trace 0|1`.
                let mut rest = args.clone();
                options.trace = match rest.next().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn out_dir() -> PathBuf {
    // Inside the checkout the command runs from: `benchmark/out` at the repo root,
    // `out` when run from the crate directory.
    if PathBuf::from("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_out(file: &str, contents: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload in this process and report it.
fn run_workload(options: &Options) -> Result<Detailed, String> {
    let name = options.workload.as_deref().unwrap_or_default();
    let spec = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let nproc = nproc();
    let opts = lifecycle::RunOptions {
        seed: options.seed,
        counts: if options.quick {
            spec.quick_counts()
        } else {
            spec.counts(options.seconds)
        },
        trace: options.trace,
        nproc,
    };
    let outcome = lifecycle::run(&spec, &opts).map_err(|e| format!("{name}: {e:?}"))?;
    let traced = if options.trace {
        let restart_ms_p50 = report::restart_ms_p50(&outcome);
        let probes = probes::run(&spec, &outcome.job, options.seed, restart_ms_p50)
            .map_err(|e| format!("{name} probes: {e:?}"))?;
        trace::finish_thread("main".into());
        Some(report::Traced {
            lanes: trace::take_lanes(),
            probes,
        })
    } else {
        None
    };
    let detailed = report::reduce(
        &spec,
        options.seed,
        options.seconds,
        nproc,
        &outcome,
        traced.as_ref(),
    );
    let json = serde_json::to_string_pretty(&detailed).map_err(|e| e.to_string())?;
    if let Some(traced) = &traced {
        write_out(&format!("{name}.layers.json"), &json)?;
        let chrome = trace::chrome_trace_json(name, &traced.lanes, |span| {
            span.starts_with("mana.") || span.starts_with("native.")
        });
        write_out(&format!("{name}.trace.json"), &chrome)?;
    } else {
        write_out(&format!("{name}.json"), &json)?;
    }
    Ok(detailed)
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Run one workload in a child process (so `peak_rss_mib` is per workload) and
/// parse the result line it prints last.
fn run_child(name: &str, options: &Options, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{name}: unreadable result line: {e}"))
}

fn run_all(options: &Options) -> Result<bool, String> {
    let mut correct = true;
    for spec in workload::all() {
        let result = run_child(spec.name, options, true)?;
        correct &= result.correct;
        println!();
    }
    Ok(correct)
}

/// `aa`: interleaved sets of the same build; per (metric, workload) each set's
/// median and quartiles, the spread, and whether the sets agree within the bound.
fn aa(options: &Options) -> Result<bool, String> {
    let bounds = bounds();
    let mut agreed = true;
    println!(
        "A/A: {} sets x {} runs, seeds {}.., {} s per run, nproc {}",
        options.sets,
        options.runs,
        options.seed,
        options.seconds,
        nproc()
    );
    for spec in workload::all() {
        // samples[set][metric] = values over the runs
        let mut samples: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); options.sets];
        for run in 0..options.runs {
            for set in samples.iter_mut() {
                let mut child = options.clone();
                child.seed = options.seed + run as u64;
                child.trace = false;
                let result = run_child(spec.name, &child, false)?;
                if !result.correct {
                    return Err(format!("{}: an A/A run failed its checks", spec.name));
                }
                for (name, metric) in result.metrics {
                    set.entry(name).or_default().push(metric.value);
                }
            }
        }
        println!("\n{}", spec.name);
        println!(
            "  {:<30} {:>5} {:>12} {:>12} {:>12} {:>8} {:>7} agree",
            "metric", "set", "median", "q1", "q3", "spread", "bound"
        );
        for def in END_TO_END {
            let bound = bounds.get(def.name).copied().unwrap_or(f64::NAN);
            let medians: Vec<f64> = samples
                .iter()
                .map(|set| stats::median(set.get(def.name).map_or(&[][..], Vec::as_slice)))
                .collect();
            for (index, set) in samples.iter().enumerate() {
                let values = set.get(def.name).map_or(&[][..], Vec::as_slice);
                let (q1, _, q3) =
                    stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
                let spread = stats::quartile_spread(values).unwrap_or(f64::NAN);
                // A later set may not be worse than the first by more than the bound.
                let worse = match def.better {
                    report::Better::Lower => medians[index] / medians[0] - 1.0,
                    report::Better::Higher => 1.0 - medians[index] / medians[0],
                };
                let agree = worse <= bound && (def.name == "setup_s" || spread <= bound);
                agreed &= agree;
                println!(
                    "  {:<30} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>6.1}% {}",
                    def.name,
                    index,
                    medians[index],
                    q1,
                    q3,
                    spread * 100.0,
                    bound * 100.0,
                    if agree { "yes" } else { "NO" }
                );
            }
        }
    }
    println!(
        "\nA/A sets {}",
        if agreed {
            "agree within every bound"
        } else {
            "DISAGREE"
        }
    );
    Ok(agreed)
}

/// Metrics that are exact counts for a fixed seed: two runs with one seed must give
/// bit-equal values; the per-step counts must not depend on the seed at all.
const EXACT_PER_SEED: &[&str] = &[
    "ckpt-store.chunks_new_per_round",
    "ckpt-store.chunks_reused_per_round",
    "ckpt-store.regions_reused_per_round",
    "ckpt-store.written_bytes_per_round",
    "ckpt-store.manifest_bytes",
    "split-proc.dirty_bytes_per_round",
];
const EXACT_ANY_SEED: &[&str] = &[
    "mana.crossings_per_step",
    "net-sim.msgs_per_step",
    "net-sim.bytes_sent_per_step",
    "net-sim.bytes_copied_per_step",
    "net-sim.collective_rounds_per_step",
];

fn read_detailed(file: &str) -> Result<Detailed, String> {
    let path = out_dir().join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn selfcheck(options: &Options) -> Result<bool, String> {
    let mut ok = true;
    for spec in workload::all() {
        let mut runs: Vec<(Detailed, f64)> = Vec::new();
        for seed in [options.seed, options.seed, options.seed + 1] {
            let mut child = options.clone();
            child.seed = seed;
            child.trace = true;
            run_child(spec.name, &child, false)?;
            let layers = read_detailed(&format!("{}.layers.json", spec.name))?;
            child.trace = false;
            let plain = run_child(spec.name, &child, false)?;
            let stored = plain
                .metrics
                .get("stored_bytes_per_logical_byte")
                .map_or(f64::NAN, |m| m.value);
            runs.push((layers, stored));
        }
        let value =
            |run: &Detailed, name: &str| run.metrics.get(name).map_or(f64::NAN, |m| m.value);
        let (a, b, other) = (&runs[0], &runs[1], &runs[2]);
        let mut check = |what: String, holds: bool| {
            println!("  {} {what}", if holds { "ok  " } else { "FAIL" });
            ok &= holds;
        };
        println!("{}", spec.name);
        for name in EXACT_PER_SEED.iter().chain(EXACT_ANY_SEED) {
            let (x, y) = (value(&a.0, name), value(&b.0, name));
            check(
                format!("{name}: same seed, bit-equal ({x} == {y})"),
                x.to_bits() == y.to_bits(),
            );
        }
        check(
            format!(
                "stored_bytes_per_logical_byte: same seed, bit-equal ({} == {})",
                a.1, b.1
            ),
            a.1.to_bits() == b.1.to_bits(),
        );
        check(
            format!(
                "inputs differ across seeds ({} != {})",
                a.0.inputs_digest, other.0.inputs_digest
            ),
            a.0.inputs_digest != other.0.inputs_digest && a.0.inputs_digest == b.0.inputs_digest,
        );
        for name in EXACT_ANY_SEED {
            let (x, z) = (value(&a.0, name), value(&other.0, name));
            check(
                format!("{name}: other seed, same count ({x} == {z})"),
                x.to_bits() == z.to_bits(),
            );
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let options = parse(&args[1..])?;
            if options.all {
                run_all(&options)
            } else if options.workload.is_some() {
                single(&options)
            } else {
                Err("run needs --all or --workload <name>".into())
            }
        }
        Some("aa") => aa(&parse(&args[1..])?),
        Some("metrics") => {
            print!("{}", report::render_registry());
            Ok(true)
        }
        Some("selfcheck") => {
            let mut options = parse(&args[1..])?;
            if !args.iter().any(|a| a == "--seconds") {
                options.seconds = 2;
            }
            selfcheck(&options)
        }
        Some(_) => single(&parse(&args)?),
        None => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run --all | aa | selfcheck | metrics".into()),
    }
}

/// The builder's contract: the metric table, then the result object as the last line.
fn single(options: &Options) -> Result<bool, String> {
    if options.workload.is_none() {
        return Err("--workload <name> is required".into());
    }
    let detailed = run_workload(options)?;
    let defs = defs(options.trace);
    print!("{}", report::render(&detailed, defs));
    let line = serde_json::to_string(&detailed.result(defs)).map_err(|e| e.to_string())?;
    println!("{line}");
    // A failed check is a result (correct: false), not a crash.
    Ok(true)
}

fn main() -> ExitCode {
    steady::keep_freed_memory();
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("mana-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
