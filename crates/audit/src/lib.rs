#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `amalur-audit` — in-house static contract checker for the Amalur
//! workspace.
//!
//! The workspace maintains several invariants that the compiler cannot
//! enforce and that code review keeps missing once the tree grows:
//! hot-path functions that must not allocate, library crates that must
//! report failures through their typed error enums, seeded modules that
//! must replay bit-identically, serving wires that must carry
//! backpressure, and a blanket ban on `unsafe`. This crate walks every
//! non-vendor source file and enforces those contracts with a
//! hand-rolled token-level scanner — no `syn`, no crates.io, `std`
//! only — so the checker builds anywhere the workspace builds.
//!
//! # The five rules
//!
//! | id | contract |
//! |----|----------|
//! | `no-alloc-in-into` | functions ending `_into` never allocate; functions listed in `[no_alloc] functions` never allocate *inside loops* |
//! | `typed-errors` | no `.unwrap()` / `.expect(` / `panic!` in library code (tests, benches, examples, bins exempt via `[exempt] paths`) |
//! | `determinism` | no `Instant::now` / `SystemTime` / `HashMap` / `HashSet` under `[determinism] paths` |
//! | `bounded-channels` | no `unbounded()` and no std `channel()` under `[bounded_channels] paths` |
//! | `unsafe-forbid` | every crate's `src/lib.rs` carries `#![forbid(unsafe_code)]` |
//!
//! # Scanning model
//!
//! [`scan::mask`] rewrites comments, strings, and char literals to
//! spaces (newlines preserved), so every rule is an honest substring
//! search over code the compiler actually sees. `#[cfg(test)]` items
//! are excluded by brace-matched region tracking, and rule 1 extracts
//! per-function body and loop spans to scope its checks.
//!
//! # Baseline workflow
//!
//! Known-acceptable findings live in `audit.toml` under `[allow]`,
//! keyed by rule, each entry a `"path: reason"` string — the reason is
//! mandatory and the entry fails parsing without it. Baselined findings
//! are reported but do not fail the run; allow entries that match
//! nothing are flagged so the baseline can only shrink. Run with
//! `cargo run -p amalur-audit` from anywhere in the workspace.

pub mod config;
pub mod rules;
pub mod scan;
pub mod walk;

pub use config::{AllowEntry, AuditConfig};
pub use rules::{check_unsafe_forbid, scan_file, Diagnostic, RuleId};

use std::path::Path;

/// Outcome of auditing a workspace tree.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Findings not covered by the baseline — these fail the run.
    pub violations: Vec<Diagnostic>,
    /// Findings matched by an `[allow]` entry, with the entry's reason.
    pub baselined: Vec<(Diagnostic, String)>,
    /// `[allow]` entries that matched no finding (stale baseline).
    pub unused_allows: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Whether the audited tree is clean modulo the baseline.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Audits the workspace rooted at `root` under `config`.
///
/// # Errors
/// A human-readable message on I/O failure (unreadable directory or
/// source file).
pub fn audit_workspace(root: &Path, config: &AuditConfig) -> Result<AuditReport, String> {
    let sources = walk::workspace_sources(root, config)?;
    let mut findings = Vec::new();
    for rel in &sources {
        let path = root.join(rel);
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(rules::scan_file(rel, &src, config));
        if rel.ends_with("src/lib.rs") {
            findings.extend(rules::check_unsafe_forbid(rel, &src));
        }
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    let mut report = AuditReport {
        files_scanned: sources.len(),
        ..AuditReport::default()
    };
    let mut used = std::collections::BTreeSet::new();
    for diag in findings {
        let entry = config.allow.get(diag.rule.allow_key()).and_then(|entries| {
            entries
                .iter()
                .find(|e| diag.path == e.path || diag.path.starts_with(&e.path))
        });
        match entry {
            Some(e) => {
                used.insert((diag.rule.allow_key(), e.path.clone()));
                report.baselined.push((diag, e.reason.clone()));
            }
            None => report.violations.push(diag),
        }
    }
    for (rule, entries) in &config.allow {
        for e in entries {
            if !used.contains(&(rule.as_str(), e.path.clone())) {
                report
                    .unused_allows
                    .push(format!("[allow] {rule}: `{}` matched nothing", e.path));
            }
        }
    }
    Ok(report)
}

/// Reads and parses `audit.toml` at the workspace root.
///
/// # Errors
/// A message when the file is unreadable or malformed.
pub fn load_config(root: &Path) -> Result<AuditConfig, String> {
    let path = root.join("audit.toml");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    AuditConfig::parse(&text)
}
