//! `analyzer` CLI: `lock-graph` merges lock-order dumps and writes
//! `LOCK_graph.json`. Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use analyzer::lockgraph::LockGraph;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: analyzer lock-graph DIR [--out FILE]

  merge the lock_order.*.json dumps from DIR and write the analyzed graph
  (default LOCK_graph.json); exit 1 on any lock-order cycle or any lock held
  across a blocking wait
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (dir, out) = match args[..] {
        ["lock-graph", dir] => (dir, "LOCK_graph.json"),
        ["lock-graph", dir, "--out", out] => (dir, out),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match lock_graph(Path::new(dir), Path::new(out)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("lock-graph: {err}");
            ExitCode::from(2)
        }
    }
}

/// Merge, analyze and write the graph; `Ok(true)` when it has no findings.
fn lock_graph(dir: &Path, out: &Path) -> Result<bool, String> {
    let mut graph = LockGraph::new();
    let loaded = graph.add_dir(dir)?;
    if loaded == 0 {
        return Err(format!(
            "no lock_order.*.json dumps in {} — was the test suite run with \
             MANA_LOCK_ORDER_DIR set?",
            dir.display()
        ));
    }
    let report = graph.report();
    let json = serde_json::to_string_pretty(&report)
        .map_err(|err| format!("serialize failed: {err:?}"))?;
    std::fs::write(out, json + "\n").map_err(|err| format!("write {}: {err}", out.display()))?;
    eprintln!(
        "lock-graph: {loaded} dump(s), {} sites, {} edges, {} self-nesting site(s), {} cycle(s), \
         {} held across a block -> {}",
        report.sites.len(),
        report.edges.len(),
        report.self_nesting.len(),
        report.cycles.len(),
        report.held_across_block.len(),
        out.display()
    );
    for cycle in &report.cycles {
        eprintln!("  CYCLE: {}", cycle.join(" -> "));
    }
    for finding in &report.held_across_block {
        eprintln!(
            "  HELD ACROSS BLOCK: lock built at {} held while blocking at {} ({}x)",
            finding.held, finding.at, finding.count
        );
    }
    Ok(report.cycles.is_empty() && report.held_across_block.is_empty())
}
