//! The five contract rules and the per-file rule driver.

use crate::config::AuditConfig;
use crate::scan::{functions, line_col, mask, test_regions, Region};

/// Identifies one of the five audit rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `*_into` / configured hot functions must not allocate.
    NoAllocInInto,
    /// Library code must use typed errors, not `unwrap`/`expect`/`panic!`.
    TypedErrors,
    /// Seeded/replayable modules must not read ambient time or iterate
    /// hash containers.
    Determinism,
    /// Serving and federated paths must use bounded channels.
    BoundedChannels,
    /// Every crate root must carry `#![forbid(unsafe_code)]`.
    UnsafeForbid,
}

impl RuleId {
    /// Stable kebab-case id used in diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::NoAllocInInto => "no-alloc-in-into",
            RuleId::TypedErrors => "typed-errors",
            RuleId::Determinism => "determinism",
            RuleId::BoundedChannels => "bounded-channels",
            RuleId::UnsafeForbid => "unsafe-forbid",
        }
    }

    /// The `audit.toml` `[allow]` key for this rule.
    pub fn allow_key(self) -> &'static str {
        match self {
            RuleId::NoAllocInInto => "no_alloc_in_into",
            RuleId::TypedErrors => "typed_errors",
            RuleId::Determinism => "determinism",
            RuleId::BoundedChannels => "bounded_channels",
            RuleId::UnsafeForbid => "unsafe_forbid",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding, pointing at a specific source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// What went wrong and why it matters.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Constructors recognized as allocating by `no-alloc-in-into`.
const ALLOC_PATTERNS: &[&str] = &[
    "DenseMatrix::zeros",
    "from_vec",
    "Vec::new",
    "vec![",
    "with_capacity",
    "to_vec",
    ".clone()",
];

/// Patterns banned by `typed-errors`.
const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// Patterns banned by `determinism` in seeded paths.
const NONDET_PATTERNS: &[&str] = &["Instant::now", "SystemTime", "HashMap", "HashSet"];

/// Every occurrence of `pattern` in `masked` within `[start, end)`,
/// respecting identifier boundaries for patterns that start or end with
/// identifier characters.
fn find_all(masked: &str, pattern: &str, start: usize, end: usize) -> Vec<usize> {
    let b = masked.as_bytes();
    let mut hits = Vec::new();
    let mut from = start;
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    while let Some(rel) = masked.get(from..end).and_then(|s| s.find(pattern)) {
        let pos = from + rel;
        from = pos + 1;
        let pat = pattern.as_bytes();
        // Only enforce a boundary on sides where the pattern itself is
        // identifier-like (`.clone()` needs no `before` check; `vec![`
        // needs no `after` check).
        let before_ok = !pat.first().is_some_and(|&c| ident(c)) || pos == 0 || !ident(b[pos - 1]);
        let after = pos + pat.len();
        let after_ok =
            !pat.last().is_some_and(|&c| ident(c)) || after >= b.len() || !ident(b[after]);
        if before_ok && after_ok {
            hits.push(pos);
        }
    }
    hits
}

/// Whether `offset` is inside any of `regions`.
fn in_regions(regions: &[Region], offset: usize) -> bool {
    regions.iter().any(|r| r.contains(offset))
}

/// Runs every applicable rule over one file; `rel_path` decides which
/// rules apply (see `audit.toml`).
pub fn scan_file(rel_path: &str, src: &str, config: &AuditConfig) -> Vec<Diagnostic> {
    let masked = mask(src);
    let tests = test_regions(&masked);
    let mut diags = Vec::new();

    let library_code = !config.is_exempt(rel_path);
    if library_code {
        check_no_alloc(rel_path, src, &masked, &tests, config, &mut diags);
        check_typed_errors(rel_path, src, &masked, &tests, &mut diags);
    }
    if config.is_deterministic_path(rel_path) {
        check_determinism(rel_path, src, &masked, &tests, &mut diags);
    }
    if config.is_bounded_channel_path(rel_path) {
        check_bounded_channels(rel_path, src, &masked, &tests, &mut diags);
    }
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Rule 1: functions ending in `_into` write into caller-provided
/// buffers and must not allocate anywhere; configured hot-loop functions
/// (`no_alloc.functions`) may allocate in their prologue but not inside
/// loops. Configured metric-record functions (`no_alloc.record_fns`,
/// scoped to `no_alloc.record_paths`) get the strict `_into` treatment:
/// they are what makes instrumentation legal inside `_into` bodies, so
/// they must never allocate themselves.
fn check_no_alloc(
    rel_path: &str,
    src: &str,
    masked: &str,
    tests: &[Region],
    config: &AuditConfig,
    diags: &mut Vec<Diagnostic>,
) {
    for function in functions(masked) {
        if in_regions(tests, function.body.start) {
            continue;
        }
        let into_fn = function.name.ends_with("_into");
        let record_fn =
            config.is_record_path(rel_path) && config.record_fns.contains(&function.name);
        let strict = into_fn || record_fn;
        let hot_fn = config.no_alloc_functions.contains(&function.name);
        if !strict && !hot_fn {
            continue;
        }
        for &pattern in ALLOC_PATTERNS {
            for pos in find_all(masked, pattern, function.body.start, function.body.end) {
                if in_regions(tests, pos) {
                    continue;
                }
                // Hot functions are only alloc-free inside their loops.
                if !strict && !in_regions(&function.loops, pos) {
                    continue;
                }
                let (line, col) = line_col(src, pos);
                let place = if into_fn {
                    "zero-allocation `_into` function"
                } else if record_fn {
                    "lock-free metric record function"
                } else {
                    "loop of a configured no-alloc function"
                };
                diags.push(Diagnostic {
                    path: rel_path.to_owned(),
                    line,
                    col,
                    rule: RuleId::NoAllocInInto,
                    message: format!("`{pattern}` allocates inside {place} `{}`", function.name),
                });
            }
        }
    }
}

/// Rule 2: library code reports failures through the crate's typed
/// error enum, never by panicking.
fn check_typed_errors(
    rel_path: &str,
    src: &str,
    masked: &str,
    tests: &[Region],
    diags: &mut Vec<Diagnostic>,
) {
    for &pattern in PANIC_PATTERNS {
        for pos in find_all(masked, pattern, 0, masked.len()) {
            if in_regions(tests, pos) {
                continue;
            }
            let (line, col) = line_col(src, pos);
            diags.push(Diagnostic {
                path: rel_path.to_owned(),
                line,
                col,
                rule: RuleId::TypedErrors,
                message: format!(
                    "`{pattern}` in library code — convert to the crate's typed error"
                ),
            });
        }
    }
}

/// Rule 3: seeded modules must be bit-replayable — no ambient clocks,
/// no hash-order iteration.
fn check_determinism(
    rel_path: &str,
    src: &str,
    masked: &str,
    tests: &[Region],
    diags: &mut Vec<Diagnostic>,
) {
    for &pattern in NONDET_PATTERNS {
        for pos in find_all(masked, pattern, 0, masked.len()) {
            if in_regions(tests, pos) {
                continue;
            }
            let (line, col) = line_col(src, pos);
            let hint = if pattern == "HashMap" || pattern == "HashSet" {
                "use BTreeMap/BTreeSet for deterministic iteration"
            } else {
                "thread a seeded clock/value through instead"
            };
            diags.push(Diagnostic {
                path: rel_path.to_owned(),
                line,
                col,
                rule: RuleId::Determinism,
                message: format!("`{pattern}` in a seeded module — {hint}"),
            });
        }
    }
}

/// Rule 4: serving and federated wires carry backpressure — an
/// unbounded channel hides overload until memory runs out. Flags the
/// word `unbounded` and a call of std's unbounded constructor
/// (`channel()`, `channel::<T>()`); its bounded one, `sync_channel`, is
/// another word.
fn check_bounded_channels(
    rel_path: &str,
    src: &str,
    masked: &str,
    tests: &[Region],
    diags: &mut Vec<Diagnostic>,
) {
    let std_calls = find_all(masked, "channel", 0, masked.len())
        .into_iter()
        .filter(|&pos| {
            let rest = masked[pos + "channel".len()..].trim_start();
            rest.starts_with('(') || rest.starts_with("::<")
        });
    for pos in find_all(masked, "unbounded", 0, masked.len())
        .into_iter()
        .chain(std_calls)
    {
        if in_regions(tests, pos) {
            continue;
        }
        let (line, col) = line_col(src, pos);
        diags.push(Diagnostic {
            path: rel_path.to_owned(),
            line,
            col,
            rule: RuleId::BoundedChannels,
            message: "unbounded channel on a backpressure path — use `sync_channel(capacity)`"
                .to_owned(),
        });
    }
}

/// Rule 5: a crate root must forbid `unsafe` outright. Returns a
/// diagnostic when `lib_src` (at `rel_path`) lacks the attribute.
pub fn check_unsafe_forbid(rel_path: &str, lib_src: &str) -> Option<Diagnostic> {
    let masked = mask(lib_src);
    if masked.contains("#![forbid(unsafe_code") {
        return None;
    }
    Some(Diagnostic {
        path: rel_path.to_owned(),
        line: 1,
        col: 1,
        rule: RuleId::UnsafeForbid,
        message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AuditConfig {
        AuditConfig::parse(
            r#"
[no_alloc]
functions = ["fit_with_workspace"]
record_fns = ["record", "inc"]
record_paths = ["crates/obs/src"]
[exempt]
paths = ["tests/", "benches/"]
[determinism]
paths = ["crates/gen/src"]
[bounded_channels]
paths = ["crates/serve/src"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn into_functions_flag_allocs_anywhere() {
        let src = "fn gemm_into(out: &mut M) {\n    let t = x.to_vec();\n    for i in 0..3 { out.set(i, 0.0); }\n}\n";
        let diags = scan_file("crates/matrix/src/gemm.rs", src, &config());
        let allocs: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::NoAllocInInto)
            .collect();
        assert_eq!(allocs.len(), 1);
        assert_eq!((allocs[0].line, allocs[0].col), (2, 15));
    }

    #[test]
    fn hot_functions_flag_allocs_only_in_loops() {
        let src = "fn fit_with_workspace(&mut self) {\n    let theta = DenseMatrix::zeros(3, 1);\n    for _ in 0..5 {\n        let g = vec![0.0; 3];\n    }\n}\n";
        let diags = scan_file("crates/ml/src/linreg.rs", src, &config());
        let allocs: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::NoAllocInInto)
            .collect();
        assert_eq!(allocs.len(), 1, "prologue alloc allowed, loop alloc not");
        assert_eq!(allocs[0].line, 4);
    }

    #[test]
    fn record_fns_are_strict_inside_record_paths_only() {
        let src = "fn record(&self, v: u64) {\n    let spill = v.to_le_bytes().to_vec();\n}\n";
        let in_obs = scan_file("crates/obs/src/metric.rs", src, &config());
        assert_eq!(in_obs.len(), 1);
        assert_eq!(in_obs[0].rule, RuleId::NoAllocInInto);
        assert!(in_obs[0].message.contains("metric record function"));
        // A `record` elsewhere is someone else's function; out of scope.
        assert!(scan_file("crates/ml/src/x.rs", src, &config()).is_empty());
        // An alloc-free record function is the contract being checked.
        let clean = "fn inc(&self) {\n    self.n.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(scan_file("crates/obs/src/metric.rs", clean, &config()).is_empty());
    }

    #[test]
    fn record_calls_are_legal_inside_into_functions() {
        // The point of the record-fn tier: instrumentation calls are not
        // allocation patterns, so `_into` bodies may carry them.
        let src = "fn gemm_into(out: &mut M) {\n    DISPATCHES.inc();\n    LAT.record(7);\n    out.set(0, 0.0);\n}\n";
        assert!(scan_file("crates/matrix/src/gemm.rs", src, &config()).is_empty());
    }

    #[test]
    fn typed_errors_exempts_tests_and_test_regions() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let diags = scan_file("crates/ml/src/lib.rs", src, &config());
        let panics: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::TypedErrors)
            .collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].line, 1);
        assert!(scan_file("crates/ml/tests/it.rs", src, &config()).is_empty());
    }

    #[test]
    fn determinism_only_in_configured_paths() {
        let src = "use std::collections::HashMap;\nfn now() -> Instant { Instant::now() }\n";
        let hits = scan_file("crates/gen/src/x.rs", src, &config());
        assert_eq!(
            hits.iter()
                .filter(|d| d.rule == RuleId::Determinism)
                .count(),
            2
        );
        let elsewhere = scan_file("crates/ml/src/x.rs", src, &config());
        assert!(elsewhere.iter().all(|d| d.rule != RuleId::Determinism));
    }

    #[test]
    fn bounded_channels_flags_unbounded() {
        let src = "fn mk() { let (tx, rx) = unbounded(); }\n";
        let hits = scan_file("crates/serve/src/server.rs", src, &config());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::BoundedChannels);
        assert!(scan_file("crates/ml/src/x.rs", src, &config()).is_empty());
    }

    #[test]
    fn unsafe_forbid_checks_crate_roots() {
        assert!(check_unsafe_forbid("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n").is_none());
        let diag = check_unsafe_forbid("crates/x/src/lib.rs", "pub mod a;\n").unwrap();
        assert_eq!(diag.rule, RuleId::UnsafeForbid);
        // The attribute inside a comment does not count.
        assert!(check_unsafe_forbid("x", "// #![forbid(unsafe_code)]\n").is_some());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src =
            "fn f() {\n    // x.unwrap() and HashMap here\n    let s = \"panic! vec![\";\n}\n";
        assert!(scan_file("crates/gen/src/x.rs", src, &config()).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f() { x.unwrap_or_else(Y::zero); x.unwrap_or(0); x.unwrap_or_default(); }\n";
        assert!(scan_file("crates/ml/src/x.rs", src, &config()).is_empty());
    }
}
