//! Pins the repo's lint configuration. The rules themselves run under
//! `cargo clippy --workspace --all-targets -- -D warnings`, which `cargo test`
//! does not run; these plain-text checks make sure none of them can be switched
//! off quietly: a lint dropped from `[workspace.lints.clippy]`, a path dropped
//! from `clippy.toml`'s `disallowed-methods`, or a member that stops opting in.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The lines of TOML table `[name]` in `text`, up to the next table header.
fn table<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    text.lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// The member paths listed in the root manifest's `[workspace] members`.
fn members(manifest: &str) -> Vec<String> {
    let start = manifest
        .find("\nmembers = [")
        .expect("[workspace] lists its members");
    let list = &manifest[start..];
    let list = &list[..list.find(']').expect("members list closes")];
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

#[test]
fn workspace_lints_deny_every_rule() {
    let manifest = read(&root().join("Cargo.toml"));
    let lints = table(&manifest, "workspace.lints.clippy");
    for lint in [
        // no-panic: library error paths return typed errors.
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        // Every exemption is an #[expect] with a reason.
        "allow_attributes",
        "allow_attributes_without_reason",
        // The wall clock and payload byte copies, listed in clippy.toml.
        "disallowed_methods",
    ] {
        let line = format!("{lint} = \"deny\"");
        assert!(
            lints.contains(&line.as_str()),
            "[workspace.lints.clippy] must set `{line}`; it has {lints:?}"
        );
    }
}

#[test]
fn clippy_toml_bans_the_wall_clock_and_payload_copies() {
    let config = read(&root().join("clippy.toml"));
    let banned: Vec<&str> = config
        .lines()
        .map(str::trim)
        .filter_map(|line| line.strip_prefix("{ path = \""))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::sleep",
        "mpi_model::PayloadBuf::to_vec",
    ] {
        assert!(
            banned.contains(&path),
            "clippy.toml's disallowed-methods must list `{path}`; it lists {banned:?}"
        );
    }
}

#[test]
fn every_member_but_the_shims_opts_into_the_workspace_lints() {
    let manifest = read(&root().join("Cargo.toml"));
    let mut checked = vec![".".to_string()];
    checked.extend(
        members(&manifest)
            .into_iter()
            .filter(|member| !member.starts_with("crates/shims/")),
    );
    assert!(checked.len() > 5, "suspiciously few members: {checked:?}");
    for member in &checked {
        let path = root().join(member).join("Cargo.toml");
        let text = read(&path);
        let lints = table(&text, "lints");
        assert_eq!(
            lints,
            vec!["workspace = true"],
            "{} must opt into the workspace lints with `[lints] workspace = true`",
            path.display()
        );
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Clippy does not lint the expansion of a crate's own `macro_rules!`, so a
/// panicking call written in a macro body would pass `unwrap_used` and its kin.
/// Library macro bodies must hold none.
#[test]
fn no_library_macro_body_hides_a_panic() {
    let manifest = read(&root().join("Cargo.toml"));
    let mut sources = Vec::new();
    rust_sources(&root().join("src"), &mut sources);
    for member in members(&manifest) {
        if !member.starts_with("crates/shims/") {
            rust_sources(&root().join(member).join("src"), &mut sources);
        }
    }
    let mut macros = 0;
    for path in sources {
        let text = read(&path);
        for (start, _) in text.match_indices("macro_rules!") {
            let open = start + text[start..].find('{').expect("macro body opens");
            let mut depth = 0usize;
            let mut end = open;
            for (offset, c) in text[open..].char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => continue,
                }
                if depth == 0 {
                    end = open + offset;
                    break;
                }
            }
            let body = &text[open..end];
            macros += 1;
            for form in [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ] {
                assert!(
                    !body.contains(form),
                    "{}: a macro_rules! body calls `{form}`, which clippy does not see",
                    path.display()
                );
            }
        }
    }
    assert!(
        macros > 0,
        "no macro_rules! found: is the walk looking in src/?"
    );
}
