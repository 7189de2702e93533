//! Lock-order graph analysis: merge the per-process dumps emitted by the
//! `parking_lot` shim's tracing runtime (`MANA_LOCK_ORDER_DIR`), detect
//! acquisition-order cycles, and render `LOCK_graph.json`.
//!
//! A node is a lock *construction site* (`file:line:col`); an edge `A → B` means
//! some thread attempted to acquire a lock built at `B` while holding one built at
//! `A`. A cycle across **distinct** sites is a potential deadlock: two threads
//! walking the cycle in opposite phases can park forever. A self-edge `A → A`
//! (same construction site nested, e.g. striped shard locks built in one loop) is
//! ambiguous at site granularity — it may be a disciplined ordered acquisition of
//! distinct instances — so it is reported separately as `self_nesting`, not
//! counted as a cycle.
//!
//! The dumps also carry the shim's held-across-block findings (`held_across_block`):
//! a traced lock still held when its thread parked on a condvar or slept. Each one
//! is exact — it happened on a path the traced suite ran — and names the held
//! lock's construction site and the wait's call site.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// One edge as written by the shim's dump format.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DumpEdge {
    /// Site id held.
    pub from: u32,
    /// Site id acquired while `from` was held.
    pub to: u32,
    /// Times the pair was observed (first-per-thread granularity).
    pub count: u64,
}

/// A `lock_order.<pid>.json` dump from one traced process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockOrderDump {
    /// Process id that wrote the dump.
    pub pid: u64,
    /// Site names, indexed by the ids in `edges`.
    pub sites: Vec<String>,
    /// Observed (held → acquired) pairs.
    pub edges: Vec<DumpEdge>,
    /// Locks held across a blocking wait.
    pub held_across_block: Vec<HeldAcrossBlock>,
}

/// The merged, analyzed graph — also the `LOCK_graph.json` schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockGraphReport {
    /// Number of dump files merged.
    pub processes: u64,
    /// All distinct lock construction sites observed.
    pub sites: Vec<String>,
    /// Edges with resolved site names.
    pub edges: Vec<NamedEdge>,
    /// Acquisition-order cycles across distinct sites (each a closed site-name
    /// path `s0 → s1 → … → s0`, listed without the repeated tail). Empty means
    /// the suite is deadlock-free at lock-site granularity.
    pub cycles: Vec<Vec<String>>,
    /// Sites observed nested under themselves (striped/sharded locks). Reported
    /// for audit, not gated: site granularity cannot distinguish ordered striping
    /// from true self-deadlock.
    pub self_nesting: Vec<String>,
    /// Locks held while their thread blocked. Empty means no park or sleep on any
    /// traced path held a lock other than the one it parked on.
    pub held_across_block: Vec<HeldAcrossBlock>,
}

/// A lock held across a blocking wait, by site name (the same in dump and report).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeldAcrossBlock {
    /// Construction site of the lock held.
    pub held: String,
    /// Call site (`file:line:col`) of the condvar park or sleep.
    pub at: String,
    /// Times observed (summed across merged processes in the report).
    pub count: u64,
}

/// An edge in the merged graph, by site name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NamedEdge {
    /// Site held.
    pub from: String,
    /// Site acquired while `from` was held.
    pub to: String,
    /// Total observations across all merged processes.
    pub count: u64,
}

/// Accumulates dumps into one graph keyed by site name.
#[derive(Debug, Default)]
pub struct LockGraph {
    sites: Vec<String>,
    index: HashMap<String, usize>,
    edges: HashMap<(usize, usize), u64>,
    blocks: BTreeMap<(String, String), u64>,
    processes: u64,
}

impl LockGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.sites.len();
        self.sites.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Merge one process dump.
    pub fn add_dump(&mut self, dump: &LockOrderDump) -> Result<(), String> {
        self.processes += 1;
        for edge in &dump.edges {
            let from = dump.sites.get(edge.from as usize).ok_or_else(|| {
                format!("edge.from {} out of range (pid {})", edge.from, dump.pid)
            })?;
            let to = dump
                .sites
                .get(edge.to as usize)
                .ok_or_else(|| format!("edge.to {} out of range (pid {})", edge.to, dump.pid))?;
            let from = self.intern(from);
            let to = self.intern(to);
            *self.edges.entry((from, to)).or_insert(0) += edge.count;
        }
        for block in &dump.held_across_block {
            let key = (block.held.clone(), block.at.clone());
            *self.blocks.entry(key).or_insert(0) += block.count;
        }
        // Sites with no edges still matter for coverage reporting.
        for site in &dump.sites {
            self.intern(site);
        }
        Ok(())
    }

    /// Merge every `lock_order.*.json` in `dir`. Returns the number of dumps read.
    pub fn add_dir(&mut self, dir: &Path) -> Result<usize, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read dump dir {}: {e}", dir.display()))?;
        let mut loaded = 0;
        for entry in entries {
            let entry = entry.map_err(|e| format!("dir walk: {e}"))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("lock_order.") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("read {}: {e}", entry.path().display()))?;
            let dump: LockOrderDump = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e:?}", entry.path().display()))?;
            self.add_dump(&dump)?;
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Analyze: find cycles (distinct-site SCCs) and self-nesting, and render the
    /// report.
    pub fn report(&self) -> LockGraphReport {
        let n = self.sites.len();
        let mut adj = vec![Vec::new(); n];
        let mut self_nesting = Vec::new();
        for &(from, to) in self.edges.keys() {
            if from == to {
                self_nesting.push(self.sites[from].clone());
            } else {
                adj[from].push(to);
            }
        }
        for neighbors in &mut adj {
            neighbors.sort_unstable();
        }
        self_nesting.sort();
        self_nesting.dedup();

        let mut cycles = Vec::new();
        for component in strongly_connected(&adj) {
            if component.len() < 2 {
                continue;
            }
            if let Some(path) = cycle_path(&adj, &component) {
                cycles.push(path.into_iter().map(|i| self.sites[i].clone()).collect());
            }
        }
        cycles.sort();

        let mut edges: Vec<NamedEdge> = self
            .edges
            .iter()
            .map(|(&(from, to), &count)| NamedEdge {
                from: self.sites[from].clone(),
                to: self.sites[to].clone(),
                count,
            })
            .collect();
        edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        let held_across_block = self
            .blocks
            .iter()
            .map(|((held, at), &count)| HeldAcrossBlock {
                held: held.clone(),
                at: at.clone(),
                count,
            })
            .collect();
        let mut sites = self.sites.clone();
        sites.sort();

        LockGraphReport {
            processes: self.processes,
            sites,
            edges,
            cycles,
            self_nesting,
            held_across_block,
        }
    }
}

/// Tarjan's algorithm, iterative to stay stack-safe on pathological graphs.
fn strongly_connected(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS frames: (node, next-neighbor cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        #[expect(
                            clippy::expect_used,
                            reason = "Tarjan invariant — v is on the stack when its SCC root pops"
                        )]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(component);
                }
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    components
}

/// Walk a concrete cycle inside one SCC: DFS from the smallest member back to
/// itself, restricted to component members.
fn cycle_path(adj: &[Vec<usize>], component: &[usize]) -> Option<Vec<usize>> {
    let members: std::collections::HashSet<usize> = component.iter().copied().collect();
    let start = *component.iter().min()?;
    let mut path = vec![start];
    let mut visited = std::collections::HashSet::new();
    visited.insert(start);
    loop {
        let current = *path.last()?;
        let next = adj[current]
            .iter()
            .copied()
            .find(|w| members.contains(w) && (*w == start || !visited.contains(w)))?;
        if next == start {
            return Some(path);
        }
        visited.insert(next);
        path.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(sites: &[&str], edges: &[(u32, u32)]) -> LockOrderDump {
        LockOrderDump {
            pid: 1,
            sites: sites.iter().map(|s| s.to_string()).collect(),
            edges: edges
                .iter()
                .map(|&(from, to)| DumpEdge { from, to, count: 1 })
                .collect(),
            held_across_block: Vec::new(),
        }
    }

    #[test]
    fn acyclic_graph_reports_no_cycles() {
        let mut graph = LockGraph::new();
        graph
            .add_dump(&dump(&["a", "b", "c"], &[(0, 1), (1, 2), (0, 2)]))
            .unwrap();
        let report = graph.report();
        assert!(report.cycles.is_empty());
        assert_eq!(report.edges.len(), 3);
        assert_eq!(report.processes, 1);
    }

    #[test]
    fn two_site_inversion_is_a_cycle() {
        let mut graph = LockGraph::new();
        graph.add_dump(&dump(&["a", "b"], &[(0, 1)])).unwrap();
        graph.add_dump(&dump(&["b", "a"], &[(0, 1)])).unwrap();
        let report = graph.report();
        assert_eq!(report.cycles.len(), 1);
        let cycle = &report.cycles[0];
        assert!(cycle.contains(&"a".to_string()) && cycle.contains(&"b".to_string()));
    }

    #[test]
    fn self_edge_is_nesting_not_cycle() {
        let mut graph = LockGraph::new();
        graph.add_dump(&dump(&["shard"], &[(0, 0)])).unwrap();
        let report = graph.report();
        assert!(report.cycles.is_empty());
        assert_eq!(report.self_nesting, vec!["shard".to_string()]);
    }

    #[test]
    fn cross_process_merge_unifies_by_name() {
        let mut graph = LockGraph::new();
        graph.add_dump(&dump(&["x", "y"], &[(0, 1)])).unwrap();
        // Second process numbers the same sites differently.
        let mut second = dump(&["y", "x"], &[(1, 0)]);
        let block = |count| HeldAcrossBlock {
            held: "x".into(),
            at: "z.rs:3:9".into(),
            count,
        };
        second.held_across_block = vec![block(1), block(2)];
        graph.add_dump(&second).unwrap();
        let report = graph.report();
        assert_eq!(report.sites, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(report.edges.len(), 1);
        assert_eq!(report.edges[0].count, 2);
        assert_eq!(report.held_across_block.len(), 1);
        assert_eq!(report.held_across_block[0].count, 3);
    }

    #[test]
    fn three_site_rotation_detected() {
        let mut graph = LockGraph::new();
        graph
            .add_dump(&dump(&["a", "b", "c"], &[(0, 1), (1, 2), (2, 0)]))
            .unwrap();
        let report = graph.report();
        assert_eq!(report.cycles.len(), 1);
        assert_eq!(report.cycles[0].len(), 3);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut graph = LockGraph::new();
        graph.add_dump(&dump(&["a", "b"], &[(0, 1)])).unwrap();
        let report = graph.report();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: LockGraphReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.sites, report.sites);
        assert_eq!(back.edges.len(), 1);
        assert!(back.cycles.is_empty());
    }
}
