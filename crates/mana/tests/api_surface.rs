//! Public-API snapshot test for the typed session layer (`mana::api`).
//!
//! The exported surface — every `pub` item and `pub fn` signature in
//! `src/api.rs` — is extracted from the source at compile time and diffed against
//! the committed golden file `tests/api_surface.golden`. Accidental breakage of the
//! typed API (a renamed method, a changed signature, a removed handle type) fails
//! this test in CI with a readable diff.
//!
//! To accept an *intentional* surface change, regenerate the golden file:
//!
//! ```text
//! UPDATE_API_SURFACE=1 cargo test -p mana --test api_surface
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

const SOURCE: &str = include_str!("../src/api.rs");
const GOLDEN: &str = include_str!("api_surface.golden");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/api_surface.golden");

/// Extract the public surface: every `pub` declaration line (struct/enum/trait/
/// const/type/fn), with multi-line `fn` signatures joined up to their body brace and
/// whitespace normalized. Stops at the `#[cfg(test)]` module.
fn extract_surface(source: &str) -> String {
    let mut items: Vec<String> = Vec::new();
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        let is_decl = [
            "pub fn ",
            "pub struct ",
            "pub enum ",
            "pub trait ",
            "pub const ",
            "pub type ",
        ]
        .iter()
        .any(|prefix| trimmed.starts_with(prefix));
        if !is_decl {
            continue;
        }
        // Join continuation lines until the declaration closes with `{` or `;`.
        let mut declaration = trimmed.trim_end().to_string();
        while !declaration.contains('{') && !declaration.ends_with(';') {
            match lines.next() {
                Some(next) => {
                    declaration.push(' ');
                    declaration.push_str(next.trim());
                }
                None => break,
            }
        }
        // Cut the body/initializer: keep everything before `{`; for consts/types,
        // everything before `=`.
        let mut signature = declaration.split('{').next().unwrap().trim().to_string();
        if signature.starts_with("pub const ") || signature.starts_with("pub type ") {
            signature = signature.split('=').next().unwrap().trim().to_string();
        }
        signature = signature.trim_end_matches(';').trim().to_string();
        // Normalize internal whitespace — and the trailing comma rustfmt leaves on
        // the last argument of a wrapped signature — so rewraps never count as
        // changes.
        let normalized = signature
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .replace(", )", ")")
            .replace(",)", ")");
        items.push(normalized);
    }
    let mut surface = items.join("\n");
    surface.push('\n');
    surface
}

#[test]
fn typed_api_surface_matches_golden_file() {
    let surface = extract_surface(SOURCE);
    if std::env::var_os("UPDATE_API_SURFACE").is_some() {
        std::fs::write(GOLDEN_PATH, &surface).expect("write golden file");
        println!("regenerated {GOLDEN_PATH}");
        return;
    }
    if surface != GOLDEN {
        let wanted: Vec<&str> = GOLDEN.lines().collect();
        let got: Vec<&str> = surface.lines().collect();
        let mut diff = String::new();
        for line in &wanted {
            if !got.contains(line) {
                diff.push_str(&format!("- {line}\n"));
            }
        }
        for line in &got {
            if !wanted.contains(line) {
                diff.push_str(&format!("+ {line}\n"));
            }
        }
        panic!(
            "the exported mana::api surface changed:\n{diff}\n\
             If this change is intentional, regenerate the snapshot with\n\
             UPDATE_API_SURFACE=1 cargo test -p mana --test api_surface"
        );
    }
}

#[test]
fn surface_extraction_sees_the_core_items() {
    // Guard the extractor itself: if parsing silently broke, the golden comparison
    // would pass vacuously on an empty surface.
    let surface = extract_surface(SOURCE);
    for needle in [
        "pub struct Session",
        "pub struct Comm",
        "pub struct Group",
        "pub struct Datatype<T: MpiData>",
        "pub struct Op<T: MpiData>",
        "pub struct Request<T: MpiData>",
        "pub fn allreduce<T: MpiData>",
        "pub fn wait(mut self, session: &mut Session)",
    ] {
        assert!(
            surface.lines().any(|line| line.contains(needle)),
            "extractor lost {needle:?}:\n{surface}"
        );
    }
    assert!(
        surface.lines().count() > 40,
        "suspiciously small surface:\n{surface}"
    );
}
