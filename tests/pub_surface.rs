//! The public surface census: every `pub` item under `crates/*/src` must be named
//! somewhere outside its own crate's `src/` — another crate, any `tests/`, the root
//! package, `examples/` or `benchmark/`. An item nothing outside calls is narrowed to
//! `pub(crate)` (and then deleted if rustc reports it dead), or it goes on
//! [`ALLOWED`] with the reason it stays `pub`.
//!
//! The census is name-based: an item counts as called when its name appears as an
//! identifier in some file outside its crate's `src/`, comments included. It covers
//! items (`fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`,
//! `union`), the names a `pub use` re-exports, and named `pub` struct fields, which
//! it lists as `Struct::field` but looks up by the field's name alone. Code under
//! `#[cfg(test)]` is not part of the surface. The dependency shims and the analyzer
//! binary are out of scope.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// `pub` items that stay public although nothing outside their crate names them, one
/// per line: crate, item, and the reason it stays `pub`. An entry whose item is gone
/// or now has an outside caller fails the census too, so the list cannot go stale.
const ALLOWED: &str = "
# ROADMAP item 9 inputs: the paper's figures, kept for the `paper` benchmark mode.
apps         PaperRuntimes          item 9 input
apps         WorkloadSpec           item 9 input
apps         calls_per_rank_per_sec item 9 input
apps         exampi_compatible      item 9 input
apps         single_node_workloads  item 9 input
apps         PerlmutterSpec         item 9 input
apps         paper_mana_overhead    item 9 input
apps         paper_virtid_overhead  item 9 input
apps         perlmutter_workloads   item 9 input
apps         calls_per_iteration    item 9 input: the app ordering by calls per step
split-proc   CrossingMode           item 9 input: the crossing cost model
split-proc   round_trip_cost_ns     item 9 input: the crossing cost model
split-proc   CrossingProfile        item 9 input: the crossing cost model
split-proc   fsgsbase               item 9 input: a CrossingProfile constructor
split-proc   prctl                  item 9 input: a CrossingProfile constructor
split-proc   overhead_seconds       item 9 input: the crossing cost model
split-proc   relative_overhead      item 9 input: the crossing cost model
apps         PaperRuntimes::native_mpich       item 9 input
apps         PaperRuntimes::mana_mpich         item 9 input
apps         PaperRuntimes::mana_virtid_mpich  item 9 input
apps         PaperRuntimes::native_ompi        item 9 input
apps         PaperRuntimes::mana_virtid_ompi   item 9 input
apps         PaperRuntimes::native_exampi      item 9 input
apps         PaperRuntimes::mana_virtid_exampi item 9 input
apps         WorkloadSpec::cs_rate_per_sec     item 9 input
apps         WorkloadSpec::ckpt_mb_per_rank    item 9 input
apps         WorkloadSpec::ckpt_time_s         item 9 input
apps         WorkloadSpec::ckpt_mb_s_per_rank  item 9 input
apps         PerlmutterSpec::native_craympi    item 9 input
apps         PerlmutterSpec::mana_craympi      item 9 input
apps         PerlmutterSpec::mana_virtid_craympi item 9 input
# Fields a struct-update expression (`..Default::default()`) in tests or examples
# needs visible although it never names them.
net-sim      ChaosMenu::collective_crashes     set by struct-update syntax in tests/examples
net-sim      ChaosMenu::node_failures          set by struct-update syntax in tests/examples
net-sim      ChaosMenu::ranks_per_node         set by struct-update syntax in tests/examples
ckpt-service ServiceConfig::default_quota      set by struct-update syntax in tests/examples
# Types a caller reaches through a public signature without naming them.
ckpt-service TenantId               the type of the public field TenantStats::tenant
ckpt-service RejectedSubmission     in the public signature of ServiceHandle::submit_with
ckpt-service TenantStats            in the public signature of ServiceHandle::stats
ckpt-service ServiceStats           in the public signature of CkptService::stats
ckpt-store   StorageConfig          in the public signature of CheckpointStorage::config
ckpt-store   PruneReport            in the public signature of CheckpointStorage::prune_before
ckpt-store   ShardStats             the type of the public field StorageStats::shards
ckpt-store   SpillReport            in the public signature of CheckpointStorage::spill_over
job-runtime  Coordinator            in the public signature of JobCtx::coordinator
job-runtime  CommitLedger           in the public signature of Coordinator::ledger
job-runtime  ElasticConfig          the type of the public field JobConfig::elastic
job-runtime  JobRun                 in the public signature of JobRuntime::run_steps
job-runtime  RecoveryEvent          in the public signature of RecoveryLog::events
job-runtime  MonitorReport          in the public signature of HeartbeatMonitor::stop
mana         BufferedMessage        the type of the public field RestoredUpper::buffered
mana         CollectiveRecord       in the public signature of CollectiveLog::pending
mana         LegacyTables           a field of the public Translator::Legacy
mana         VirtualIdTable         a field of the public Translator::Unified
mana         VirtIdMode             the type of the public field ManaConfig::virtid_mode
mana         ManaCompatibility      in the public signature of Session::audit_lower_half
mpi-engine   EngineConfig           in the public signature of Backend::config
mpi-engine   HandleCodec            the bound of the public Engine<C>
mpi-model    GroupComparison        in the public signature of GroupDescriptor::compare
mpi-model    CommComparison         in the public signature of CommDescriptor::compare
mpi-model    TypeContents           in the public signature of TypeDescriptor::contents
net-sim      Envelope               in the public signature of Endpoint::try_recv
";

/// Crates under `crates/` the census does not cover.
const OUT_OF_SCOPE: &[&str] = &["shims", "analyzer"];

/// Item keywords that may follow `pub` (after `const`/`unsafe`/`async`/`extern "C"`).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output and hidden directories.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The crate whose `src/` holds `path`, if any (`crates/<name>/src/...`).
fn owning_crate(path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root()).ok()?;
    let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] => Some((*name).to_string()),
        _ => None,
    }
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// `text` with comments, string and character literals blanked out, so braces can
/// be counted. Keeps line structure.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
        } else if c == 'r' && (next == Some('#') || next == Some('"')) && is_raw_start(&chars, i) {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            i += 2 + hashes;
            while i < chars.len() {
                if chars[i] == '"' && chars[i + 1..].iter().take(hashes).all(|&h| h == '#') {
                    i += 1 + hashes;
                    break;
                }
                if chars[i] == '\n' {
                    out.push('\n');
                }
                i += 1;
            }
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    i += 1;
                }
                if chars.get(i) == Some(&'\n') {
                    out.push('\n');
                }
                i += 1;
            }
            i += 1;
        } else if c == '\'' && is_char_literal(&chars, i) {
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                if chars[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            i += 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Whether the `r` at `i` opens a raw string (and is not the tail of an identifier).
fn is_raw_start(chars: &[char], i: usize) -> bool {
    let preceded_by_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
    !preceded_by_ident && chars.get(i + 1 + hashes) == Some(&'"')
}

/// Whether the `'` at `i` opens a character literal rather than a lifetime.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    matches!(
        (chars.get(i + 1), chars.get(i + 2)),
        (Some('\\'), _) | (Some(_), Some('\''))
    )
}

/// The names one source file declares `pub`, outside `#[cfg(test)]` code, a field
/// as `Struct::field`. Returns the names and the sibling module files a
/// `#[cfg(test)] mod x;` keeps out.
fn pub_items(text: &str) -> (Vec<String>, Vec<String>) {
    let code = code_only(text);
    let mut names = Vec::new();
    let mut test_files = Vec::new();
    let mut depth = 0i64;
    let mut skip_until: Option<i64> = None;
    // The struct whose body the current line is in, and the depth it opened at.
    let mut in_struct: Option<(String, i64)> = None;
    let mut cfg_test = false;
    let mut pending_use = String::new();
    let mut in_attribute = false;
    for line in code.lines() {
        let trimmed = line.trim();
        if in_attribute {
            in_attribute = !trimmed.ends_with(']');
        } else if skip_until.is_none() {
            if trimmed.starts_with("#[") && !trimmed.ends_with(']') {
                in_attribute = true;
                cfg_test |= trimmed.starts_with("#[cfg(test)");
            } else if !pending_use.is_empty() || trimmed.starts_with("pub use ") {
                pending_use.push_str(trimmed);
                pending_use.push(' ');
                if trimmed.ends_with(';') {
                    names.extend(use_names(&pending_use));
                    pending_use.clear();
                }
            } else if trimmed.starts_with("#[cfg(test)]") {
                cfg_test = true;
            } else if !trimmed.starts_with("#[") && !trimmed.is_empty() {
                if cfg_test {
                    if let Some(module) = module_name(trimmed) {
                        if trimmed.ends_with(';') {
                            test_files.push(module);
                        } else {
                            skip_until = Some(depth);
                        }
                    } else if trimmed.contains('{') {
                        skip_until = Some(depth);
                    }
                } else if let Some(name) = item_name(trimmed) {
                    names.push(name);
                } else if let (Some(field), Some((owner, _))) = (field_name(trimmed), &in_struct) {
                    names.push(format!("{owner}::{field}"));
                }
                if let Some(owner) = struct_name(trimmed) {
                    in_struct = Some((owner, depth));
                }
                cfg_test = false;
            }
        }
        depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
        if skip_until.is_some_and(|d| depth <= d) && line.contains('}') {
            skip_until = None;
        }
        if in_struct.as_ref().is_some_and(|(_, d)| depth <= *d) && line.contains('}') {
            in_struct = None;
        }
    }
    (names, test_files)
}

/// `mod x` in `[pub[(..)]] mod x {` or `mod x;`.
fn module_name(line: &str) -> Option<String> {
    let rest = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    let rest = rest.strip_prefix("mod ")?;
    Some(identifiers(rest).next()?.to_string())
}

/// The item a `pub ...` line declares, if it declares one.
fn item_name(line: &str) -> Option<String> {
    let mut words = line.strip_prefix("pub ")?.split_whitespace().peekable();
    while let Some(&word) = words.peek() {
        if word == "unsafe" || word == "async" || word == "extern" || word == "\"C\"" {
            words.next();
        } else if word == "const" {
            // `const fn` or a `const NAME: T` item.
            words.next();
            match words.peek() {
                Some(&"fn") | Some(&"unsafe") | Some(&"async") => continue,
                Some(next) => return identifiers(next).next().map(String::from),
                None => return None,
            }
        } else {
            break;
        }
    }
    let keyword = words.next()?;
    if !ITEM_KEYWORDS.contains(&keyword) {
        return None;
    }
    identifiers(words.next()?).next().map(String::from)
}

/// The struct a `[pub[(crate)]] struct Name` line declares, if it declares one.
fn struct_name(line: &str) -> Option<String> {
    let rest = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    let rest = rest.strip_prefix("struct ")?;
    Some(identifiers(rest).next()?.to_string())
}

/// The field a `pub name: Type` line declares, if it declares one.
fn field_name(line: &str) -> Option<String> {
    let rest = line.strip_prefix("pub ")?;
    let name = identifiers(rest).next()?;
    let after = rest.strip_prefix(name)?.trim_start();
    (after.starts_with(':') && !after.starts_with("::")).then(|| name.to_string())
}

/// The names a `pub use path::{A, B as C};` statement exports.
fn use_names(statement: &str) -> Vec<String> {
    let body = statement
        .trim_start_matches("pub use ")
        .trim_end()
        .trim_end_matches(';');
    let list = match body.find('{') {
        Some(open) => body[open + 1..].trim_end_matches('}').to_string(),
        None => body.rsplit("::").next().unwrap_or(body).to_string(),
    };
    list.split(',')
        .filter_map(|entry| {
            let entry = entry.trim();
            let exported = entry.rsplit(" as ").next().unwrap_or(entry).trim();
            let name = exported.rsplit("::").next().unwrap_or(exported);
            (!name.is_empty() && name != "self" && name != "*").then(|| name.to_string())
        })
        .collect()
}

#[test]
fn every_pub_item_has_an_outside_caller_or_an_allow_list_entry() {
    let mut files = Vec::new();
    rust_sources(root(), &mut files);

    // Which crates' `src/` (or `None`: anywhere else) each identifier appears in.
    let mut seen: HashMap<String, BTreeSet<Option<String>>> = HashMap::new();
    let mut texts = Vec::new();
    // This file names every allow-listed item; it is no caller of any of them.
    files.retain(|path| !path.ends_with(file!()));
    for path in &files {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let region = owning_crate(path);
        for word in identifiers(&text).collect::<BTreeSet<_>>() {
            seen.entry(word.to_string())
                .or_default()
                .insert(region.clone());
        }
        texts.push((path, region, text));
    }

    let mut items = Vec::new();
    let mut test_only: BTreeSet<PathBuf> = BTreeSet::new();
    for (path, region, text) in &texts {
        let Some(krate) = region else { continue };
        if OUT_OF_SCOPE.contains(&krate.as_str()) {
            continue;
        }
        let (names, test_modules) = pub_items(text);
        let dir = path.parent().expect("a source file has a directory");
        for module in test_modules {
            test_only.insert(dir.join(format!("{module}.rs")));
            test_only.insert(dir.join(&module).join("mod.rs"));
        }
        items.extend(
            names
                .into_iter()
                .map(|name| (krate.clone(), (*path).clone(), name)),
        );
    }
    items.retain(|(_, path, _)| !test_only.contains(path));
    assert!(
        items.len() > 300,
        "suspiciously few pub items: {}",
        items.len()
    );

    let entries: Vec<(&str, &str)> = ALLOWED
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let krate = fields.next().expect("an entry names its crate");
            let item = fields.next().expect("an entry names its item");
            assert!(
                fields.next().is_some(),
                "the entry for {item} gives no reason"
            );
            (krate, item)
        })
        .collect();
    let allowed: BTreeSet<(&str, &str)> = entries.iter().copied().collect();
    assert_eq!(allowed.len(), entries.len(), "ALLOWED lists an item twice");
    let mut uncalled = BTreeSet::new();
    let mut allowed_seen = BTreeSet::new();
    for (krate, path, name) in &items {
        let lookup = name.rsplit("::").next().unwrap_or(name);
        let outside = seen
            .get(lookup)
            .is_some_and(|regions| regions.iter().any(|r| r.as_deref() != Some(krate.as_str())));
        if outside {
            continue;
        }
        if allowed.contains(&(krate.as_str(), name.as_str())) {
            allowed_seen.insert((krate.as_str(), name.as_str()));
            continue;
        }
        let rel = path.strip_prefix(root()).unwrap_or(path);
        uncalled.insert(format!("{}: {name}", rel.display()));
    }
    let stale: Vec<_> = allowed.difference(&allowed_seen).collect();

    assert!(
        uncalled.is_empty(),
        "{} of {} pub items are named nowhere outside their crate's src/; narrow them \
         to pub(crate) (and delete what rustc then reports dead), or list them in \
         ALLOWED with the reason they stay pub:\n  {}",
        uncalled.len(),
        items.len(),
        uncalled.into_iter().collect::<Vec<_>>().join("\n  ")
    );
    assert!(
        stale.is_empty(),
        "ALLOWED entries whose item is gone or now has an outside caller: {stale:?}"
    );
}
