//! Optional lock-order tracing: the runtime half of the in-tree deadlock detector.
//!
//! When enabled, every [`crate::Mutex`] / [`crate::RwLock`] constructed afterwards is
//! tagged with its *construction site* (`file:line:col`, captured via
//! `#[track_caller]`), and every acquisition records "site S acquired while sites
//! H₁..Hₖ were held by this thread" edges into a process-global graph. The analyzer
//! crate (`cargo run -p analyzer -- lock-graph`) merges the per-process dumps from a
//! whole test-suite run, detects cycles, and emits `LOCK_graph.json`.
//!
//! The same held stack checks one more rule at every blocking wait: a thread that
//! parks must hold nothing but the lock it parks on, or every peer that needs the
//! held lock waits out the park with it. [`crate::Condvar::wait`] /
//! [`crate::Condvar::wait_for`] (every fabric, flusher, service and barrier wait) and
//! `net_sim::clock::sleep` call [`on_block`], which records each other traced lock
//! still held as a *held-across-block* finding, named by the lock's construction
//! site and the wait's call site. `lock-graph` reports them as `held_across_block`
//! and fails on any.
//!
//! Cost model:
//!
//! * **Off (the default):** one relaxed atomic load plus a cached-`OnceLock` read per
//!   lock construction, and a `None` check per acquire/release and condvar wait. No
//!   allocation, no global contention, no I/O.
//! * **On:** a thread-local held-stack push/pop per acquisition, and a global-table
//!   touch only the *first* time a given (held, acquired) pair is seen by a thread.
//!
//! Enabling:
//!
//! * `MANA_LOCK_ORDER=1` — trace in memory (inspect via [`snapshot`]).
//! * `MANA_LOCK_ORDER_DIR=<dir>` — additionally persist a `lock_order.<pid>.json`
//!   dump into `<dir>` whenever a tracing thread exits (and on [`persist_now`]).
//!   Threads exit continuously during a test-suite run, so the newest dump is always
//!   a complete picture of everything recorded so far; the per-pid filename keeps
//!   concurrent test processes from clobbering each other.
//! * [`force_enable`] — programmatic switch for tests (locks constructed *before*
//!   the switch are untraced: sites are assigned at construction).
//!
//! Edges record the **attempt**, not the completed acquisition: a thread that blocks
//! forever on an inverted order has already contributed the incriminating edge.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock};

static FORCED: AtomicBool = AtomicBool::new(false);

fn env_enabled() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let flag = std::env::var("MANA_LOCK_ORDER")
            .map(|v| v != "0")
            .unwrap_or(false);
        flag || dump_dir().is_some()
    })
}

fn dump_dir() -> Option<&'static PathBuf> {
    static CACHED: OnceLock<Option<PathBuf>> = OnceLock::new();
    CACHED
        .get_or_init(|| std::env::var_os("MANA_LOCK_ORDER_DIR").map(PathBuf::from))
        .as_ref()
}

/// Whether lock-order tracing is active for newly constructed locks.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || env_enabled()
}

/// Whether the environment (`MANA_LOCK_ORDER` / `MANA_LOCK_ORDER_DIR`) switched
/// tracing on. A test that plants a finding on purpose skips when it is: the
/// finding would land in the suite's dump and fail the gate on a manufactured case.
pub fn ambient() -> bool {
    env_enabled()
}

/// Turn tracing on programmatically (for tests). Locks constructed before the call
/// carry no site tag and stay untraced.
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
}

struct Registry {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

fn registry() -> &'static StdMutex<Registry> {
    static REGISTRY: OnceLock<StdMutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        StdMutex::new(Registry {
            names: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

fn edges() -> &'static StdMutex<HashMap<(u32, u32), u64>> {
    static EDGES: OnceLock<StdMutex<HashMap<(u32, u32), u64>>> = OnceLock::new();
    EDGES.get_or_init(|| StdMutex::new(HashMap::new()))
}

/// Held-across-block findings: (held site, wait call site) → times observed.
fn blocks() -> &'static StdMutex<HashMap<(u32, String), u64>> {
    static BLOCKS: OnceLock<StdMutex<HashMap<(u32, String), u64>>> = OnceLock::new();
    BLOCKS.get_or_init(|| StdMutex::new(HashMap::new()))
}

/// Registered on first use per tracing thread; its drop runs when the thread exits
/// and persists the cumulative global graph (if a dump dir is configured).
struct ThreadFlusher;

impl Drop for ThreadFlusher {
    fn drop(&mut self) {
        let _ = persist_now();
    }
}

thread_local! {
    /// Sites currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// (held, acquired) pairs this thread has already pushed to the global table.
    static SEEN: RefCell<HashSet<(u32, u32)>> = RefCell::new(HashSet::new());
    static FLUSHER: RefCell<Option<ThreadFlusher>> = const { RefCell::new(None) };
}

/// Intern a lock construction site, returning its dense id.
pub(crate) fn site_id(loc: &'static Location<'static>) -> u32 {
    let name = format!("{}:{}:{}", loc.file(), loc.line(), loc.column());
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = reg.by_name.get(&name) {
        return id;
    }
    let id = reg.names.len() as u32;
    reg.names.push(name.clone());
    reg.by_name.insert(name, id);
    id
}

/// Record that the current thread is about to acquire `site` while holding whatever
/// is on its held stack.
pub(crate) fn on_attempt(site: u32) {
    let new_pairs: Vec<(u32, u32)> = HELD.with(|held| {
        let held = held.borrow();
        if held.is_empty() {
            return Vec::new();
        }
        SEEN.with(|seen| {
            let mut seen = seen.borrow_mut();
            held.iter()
                .map(|&h| (h, site))
                .filter(|pair| seen.insert(*pair))
                .collect()
        })
    });
    if !new_pairs.is_empty() {
        let mut table = edges().lock().unwrap_or_else(|p| p.into_inner());
        for pair in new_pairs {
            *table.entry(pair).or_insert(0) += 1;
        }
    }
    // TLS destructors may run after FLUSHER is gone; ignore access errors there.
    let _ = FLUSHER.try_with(|f| {
        let mut f = f.borrow_mut();
        if f.is_none() {
            *f = Some(ThreadFlusher);
        }
    });
}

/// Record that the acquisition of `site` completed: it is now held.
pub(crate) fn on_acquired(site: u32) {
    let _ = HELD.try_with(|held| held.borrow_mut().push(site));
}

/// Record that one holding of `site` was released (guard drop, or a condvar wait
/// parking the lock).
pub(crate) fn on_release(site: u32) {
    let _ = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&s| s == site) {
            held.remove(pos);
        }
    });
}

/// The current thread is about to block at `at` (a condvar park, after its own lock
/// was released, or a sleep): every traced lock it still holds is a finding.
pub fn on_block(at: &'static Location<'static>) {
    let held = HELD
        .try_with(|held| held.borrow().clone())
        .unwrap_or_default();
    if held.is_empty() {
        return;
    }
    let at = format!("{}:{}:{}", at.file(), at.line(), at.column());
    let mut table = blocks().lock().unwrap_or_else(|p| p.into_inner());
    for site in held {
        *table.entry((site, at.clone())).or_insert(0) += 1;
    }
}

/// An in-memory copy of everything recorded so far.
#[derive(Debug, Clone)]
pub struct LockOrderSnapshot {
    /// Site names (`file:line:col`), indexed by site id.
    pub sites: Vec<String>,
    /// `(held, then_acquired, times_observed)` edges.
    pub edges: Vec<(u32, u32, u64)>,
    /// `(held lock's site name, wait call site, times_observed)`: a lock held
    /// while the thread blocked (see [`on_block`]).
    pub held_across_block: Vec<(String, String, u64)>,
}

impl LockOrderSnapshot {
    /// Render the snapshot as the dump-file JSON format.
    pub fn to_json(&self, pid: u32) -> String {
        let mut out = String::with_capacity(256 + self.sites.len() * 48);
        out.push_str(&format!("{{\n  \"pid\": {pid},\n  \"sites\": ["));
        for (i, site) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, site);
        }
        out.push_str("\n  ],\n  \"edges\": [");
        for (i, (from, to, count)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"from\": {from}, \"to\": {to}, \"count\": {count}}}"
            ));
        }
        out.push_str("\n  ],\n  \"held_across_block\": [");
        for (i, (held, at, count)) in self.held_across_block.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"held\": ");
            push_json_string(&mut out, held);
            out.push_str(", \"at\": ");
            push_json_string(&mut out, at);
            out.push_str(&format!(", \"count\": {count}}}"));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Snapshot the global site table and edge set.
pub fn snapshot() -> LockOrderSnapshot {
    let sites = {
        let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.names.clone()
    };
    let mut edge_list: Vec<(u32, u32, u64)> = {
        let table = edges().lock().unwrap_or_else(|p| p.into_inner());
        table.iter().map(|(&(a, b), &n)| (a, b, n)).collect()
    };
    edge_list.sort_unstable();
    let mut held_across_block: Vec<(String, String, u64)> = {
        let table = blocks().lock().unwrap_or_else(|p| p.into_inner());
        table
            .iter()
            .map(|((held, at), &n)| (sites[*held as usize].clone(), at.clone(), n))
            .collect()
    };
    held_across_block.sort_unstable();
    LockOrderSnapshot {
        sites,
        edges: edge_list,
        held_across_block,
    }
}

/// Write the current snapshot to `MANA_LOCK_ORDER_DIR/lock_order.<pid>.json`
/// (atomic rename), returning the path. `None` if no dump dir is configured.
pub fn persist_now() -> Option<PathBuf> {
    let dir = dump_dir()?;
    let snap = snapshot();
    if snap.sites.is_empty() {
        return None;
    }
    let pid = std::process::id();
    let path = dir.join(format!("lock_order.{pid}.json"));
    let tmp = dir.join(format!(".lock_order.{pid}.tmp"));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&tmp, snap.to_json(pid)).ok()?;
    std::fs::rename(&tmp, &path).ok()?;
    Some(path)
}
