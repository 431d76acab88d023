//! Fixture-driven rule tests plus a self-run over the live workspace.
//!
//! The files under `tests/fixtures/` are deliberately full of
//! violations; they are never compiled (Cargo only builds direct
//! children of `tests/`) and the live walk excludes them via
//! `[walk] exclude` in `audit.toml`. Each test feeds a fixture through
//! [`amalur_audit::scan_file`] under a synthetic repo-relative path
//! that puts it in scope for the rule under test, then asserts the
//! exact `(line, rule)` set.

use amalur_audit::{audit_workspace, check_unsafe_forbid, load_config, AuditConfig, Diagnostic};
use std::path::Path;

const FIXTURE_CONFIG: &str = r#"
[no_alloc]
functions = ["fit_with_workspace"]
record_fns = ["record", "inc"]
record_paths = ["crates/obs/src"]

[exempt]
paths = ["tests/", "benches/", "examples/", "src/bin/"]

[determinism]
paths = ["crates/gen/src"]

[bounded_channels]
paths = ["crates/serve/src"]
"#;

fn config() -> AuditConfig {
    AuditConfig::parse(FIXTURE_CONFIG).expect("fixture config parses")
}

/// `(line, rule-id)` pairs in diagnostic order.
fn lines_and_rules(diags: &[Diagnostic]) -> Vec<(usize, &'static str)> {
    diags.iter().map(|d| (d.line, d.rule.id())).collect()
}

#[test]
fn no_alloc_rule_flags_exact_lines() {
    let src = include_str!("fixtures/no_alloc.rs");
    let diags = amalur_audit::scan_file("crates/matrix/src/fixture.rs", src, &config());
    // Line 4 `Vec::new()` and line 5 `DenseMatrix::zeros` sit in
    // `gemm_into` (alloc-free everywhere); line 12 `vec![` is inside the
    // loop of configured `fit_with_workspace`. The prologue alloc on
    // line 10, the allocation in `unrelated`, and the `#[cfg(test)]`
    // `helper_into` must all stay silent.
    assert_eq!(
        lines_and_rules(&diags),
        vec![
            (4, "no-alloc-in-into"),
            (5, "no-alloc-in-into"),
            (12, "no-alloc-in-into"),
        ]
    );
    for d in &diags {
        assert_eq!(d.path, "crates/matrix/src/fixture.rs");
    }
}

#[test]
fn record_fns_fixture_flags_exact_lines() {
    let src = include_str!("fixtures/record_fns.rs");
    // Inside the record paths, `record`'s `.to_vec()` on line 5 breaks
    // the alloc-free contract; the clean `inc` and the `_into` function
    // that *calls* record fns stay silent.
    let diags = amalur_audit::scan_file("crates/obs/src/fixture.rs", src, &config());
    assert_eq!(lines_and_rules(&diags), vec![(5, "no-alloc-in-into")]);
    // Outside the record paths, `record`/`inc` are ordinary functions.
    let elsewhere = amalur_audit::scan_file("crates/ml/src/fixture.rs", src, &config());
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn typed_errors_rule_flags_exact_lines() {
    let src = include_str!("fixtures/typed_errors.rs");
    let diags = amalur_audit::scan_file("crates/core/src/fixture.rs", src, &config());
    // `.unwrap()` on 4, `.expect(` on 5, `panic!` on 7. The string
    // decoy on line 14, `.unwrap_or(` on line 15, and the test module
    // must not fire.
    assert_eq!(
        lines_and_rules(&diags),
        vec![
            (4, "typed-errors"),
            (5, "typed-errors"),
            (7, "typed-errors")
        ]
    );
}

#[test]
fn typed_errors_rule_skips_exempt_paths() {
    let src = include_str!("fixtures/typed_errors.rs");
    let diags = amalur_audit::scan_file("crates/core/tests/fixture.rs", src, &config());
    assert!(
        diags.is_empty(),
        "exempt test path must not be scanned: {diags:?}"
    );
}

#[test]
fn determinism_rule_flags_exact_lines() {
    let src = include_str!("fixtures/determinism.rs");
    let diags = amalur_audit::scan_file("crates/gen/src/fixture.rs", src, &config());
    // Imports count too: `HashMap` on 3 and `SystemTime` on 4 (bare
    // `Instant` does not match `Instant::now`). Line 9 declares and
    // constructs a `HashMap`, so it fires twice. The `#[cfg(test)]`
    // clock use stays silent.
    assert_eq!(
        lines_and_rules(&diags),
        vec![
            (3, "determinism"),
            (4, "determinism"),
            (7, "determinism"),
            (8, "determinism"),
            (9, "determinism"),
            (9, "determinism"),
            (11, "determinism"),
        ]
    );
}

#[test]
fn determinism_rule_ignores_unlisted_paths() {
    let src = include_str!("fixtures/determinism.rs");
    let diags = amalur_audit::scan_file("crates/ml/src/fixture.rs", src, &config());
    assert!(
        diags.iter().all(|d| d.rule.id() != "determinism"),
        "determinism only applies under configured paths: {diags:?}"
    );
}

#[test]
fn bounded_channels_rule_flags_exact_lines() {
    let src = include_str!("fixtures/bounded.rs");
    let diags = amalur_audit::scan_file("crates/serve/src/fixture.rs", src, &config());
    // The import on line 3, the call on line 7 and std's unbounded
    // constructor on lines 10 and 11 fire; the `bounded::<u8>` call on
    // line 6, std's `sync_channel` on line 9 and the comment mentions
    // must not.
    assert_eq!(
        lines_and_rules(&diags),
        vec![
            (3, "bounded-channels"),
            (7, "bounded-channels"),
            (10, "bounded-channels"),
            (11, "bounded-channels"),
        ]
    );
}

#[test]
fn unsafe_forbid_rule_checks_crate_roots() {
    let good = "#![forbid(unsafe_code)]\n//! Docs.\npub fn f() {}\n";
    assert!(check_unsafe_forbid("crates/x/src/lib.rs", good).is_none());

    let missing = "//! Docs.\npub fn f() {}\n";
    let diag = check_unsafe_forbid("crates/x/src/lib.rs", missing).expect("missing attr flagged");
    assert_eq!((diag.path.as_str(), diag.line), ("crates/x/src/lib.rs", 1));
    assert_eq!(diag.rule.id(), "unsafe-forbid");

    // The attribute inside a comment or string does not count.
    let decoy = "// #![forbid(unsafe_code)]\nconst A: &str = \"#![forbid(unsafe_code)]\";\n";
    assert!(check_unsafe_forbid("crates/x/src/lib.rs", decoy).is_some());
}

#[test]
fn diagnostics_render_as_file_line_col() {
    let src = include_str!("fixtures/typed_errors.rs");
    let diags = amalur_audit::scan_file("crates/core/src/fixture.rs", src, &config());
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/fixture.rs:4:"),
        "diagnostic must lead with file:line:col, got `{rendered}`"
    );
    assert!(rendered.contains("typed-errors"));
}

/// The shipped tree must be clean modulo the checked-in baseline, and
/// the baseline must carry no stale entries — this is the same check CI
/// runs via `cargo run -p amalur-audit`.
#[test]
fn live_workspace_is_clean_modulo_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root above crates/audit");
    let config = load_config(root).expect("audit.toml loads");
    let report = audit_workspace(root, &config).expect("workspace walk succeeds");

    assert!(
        report.is_clean(),
        "unbaselined violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allow entries: {:?}",
        report.unused_allows
    );
    assert!(
        report.files_scanned > 100,
        "walk looks truncated: only {} files scanned",
        report.files_scanned
    );
    // Every baseline entry must still justify itself with a reason.
    for (_, reason) in &report.baselined {
        assert!(!reason.trim().is_empty());
    }
}
