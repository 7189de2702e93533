//! Pins the schema of `BENCH_history.jsonl`, the committed performance record: one
//! JSON object per line, one line per change that ran a paired benchmark batch.
//! Every line must parse, and every workload and metric it names must be one that
//! `BENCHMARK.json` declares, so the record cannot drift from the benchmark it
//! records. The numbers themselves are not checked: they are measurements.

#![expect(
    clippy::panic,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One change's record.
#[derive(Deserialize)]
struct Line {
    /// The change's number in the project's sequence.
    pr: u64,
    /// The change's commit, where known.
    commit: Option<String>,
    /// The commit the batch ran the change against.
    parent: Option<String>,
    /// Rebuilt from the change log's prose rather than written with the batch.
    backfilled: bool,
    /// The machine the batch ran on.
    host: String,
    /// Paired batches by workload.
    workloads: BTreeMap<String, Batch>,
    /// Exact counts of one traced run at seed 11, by workload and metric.
    exact_seed11: BTreeMap<String, BTreeMap<String, f64>>,
}

/// Alternating parent/change runs of one workload.
#[derive(Deserialize)]
struct Batch {
    /// First and last seed of the batch.
    seeds: [u64; 2],
    /// Parent/change pairs run.
    pairs: u64,
    metrics: BTreeMap<String, Paired>,
}

/// One metric over a batch: order statistics of each side, and the pairs the change
/// won. A statistic the record does not know is left out, never guessed.
#[derive(Deserialize)]
struct Paired {
    parent: BTreeMap<String, f64>,
    change: BTreeMap<String, f64>,
    won: Option<u64>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

/// The names `BENCHMARK.json` declares.
#[derive(Deserialize)]
struct Declared {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_history_line_parses_and_names_only_declared_workloads_and_metrics() {
    let declared: Declared =
        serde_json::from_str(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads: BTreeSet<String> = declared.workloads.into_iter().map(|w| w.name).collect();
    let metrics: BTreeSet<String> = declared
        .end_to_end
        .into_iter()
        .chain(declared.per_layer)
        .map(|m| m.name)
        .collect();
    let statistics = ["median", "q1", "q3"];

    let history = read("BENCH_history.jsonl");
    let mut prs = Vec::new();
    for (index, text) in history.lines().enumerate() {
        let at = format!("BENCH_history.jsonl line {}", index + 1);
        let line: Line =
            serde_json::from_str(text).unwrap_or_else(|e| panic!("{at} does not parse: {e}"));
        assert!(!line.host.is_empty(), "{at}: no host");
        assert!(
            line.backfilled || (line.parent.is_some() && !line.exact_seed11.is_empty()),
            "{at}: a line written with its batch names its parent and its exact counts"
        );
        for commit in line.commit.iter().chain(&line.parent) {
            assert!(
                commit.len() >= 7 && commit.chars().all(|c| c.is_ascii_hexdigit()),
                "{at}: {commit:?} is no commit"
            );
        }
        for (workload, batch) in &line.workloads {
            assert!(
                workloads.contains(workload),
                "{at}: undeclared workload {workload}"
            );
            assert!(batch.seeds[0] <= batch.seeds[1], "{at}: {workload} seeds");
            assert!(
                batch.pairs > 0 && !batch.metrics.is_empty(),
                "{at}: {workload}"
            );
            for (metric, paired) in &batch.metrics {
                assert!(metrics.contains(metric), "{at}: undeclared metric {metric}");
                assert!(
                    paired.won.is_none_or(|won| won <= batch.pairs),
                    "{at}: {metric}"
                );
                for side in [&paired.parent, &paired.change] {
                    assert!(side.contains_key("median"), "{at}: {metric} has no median");
                    assert!(
                        side.keys().all(|k| statistics.contains(&k.as_str())),
                        "{at}: {metric}: a statistic other than {statistics:?}"
                    );
                }
            }
        }
        for (workload, counts) in &line.exact_seed11 {
            assert!(
                workloads.contains(workload),
                "{at}: undeclared workload {workload}"
            );
            for metric in counts.keys() {
                assert!(metrics.contains(metric), "{at}: undeclared metric {metric}");
            }
        }
        prs.push(line.pr);
    }
    assert!(!prs.is_empty(), "the record is empty");
    assert!(
        prs.windows(2).all(|pair| pair[0] < pair[1]),
        "one line per change, in order: {prs:?}"
    );
}
