//! What a run prints: every metric by name with its unit, an envelope
//! line that says where and how the numbers were made, and as the last
//! line the result object the driver reads.

use crate::harness::{Outcome, RunConfig, Scale};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use serde::Value;
use std::path::{Path, PathBuf};

pub const SCHEMA: &str = "amalur-benchmark/v1";
/// Prefix of the envelope line on standard output.
pub const ENVELOPE_PREFIX: &str = "envelope ";

/// The metrics a run of this kind must report, in table order.
pub fn expected(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Pairs every expected metric with its value. A traced run reports 0 for
/// the layers its workload does not touch; an end-to-end metric that is
/// missing, zero or not finite is an error, since the driver divides by it.
pub fn collect(out: &Outcome, trace: bool) -> Result<Vec<(&'static MetricSpec, f64)>, String> {
    let mut rows = Vec::new();
    for spec in expected(trace) {
        let value = match out.metrics.get(spec.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {} is {v}", spec.name)),
            None if trace => 0.0,
            None => return Err(format!("metric {} was not measured", spec.name)),
        };
        if !trace && value <= 0.0 {
            return Err(format!(
                "end-to-end metric {} is {value}, must be positive",
                spec.name
            ));
        }
        rows.push((spec, value));
    }
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| expected(trace).iter().all(|s| s.name != **k))
    {
        return Err(format!("metric {extra} is not in the benchmark's tables"));
    }
    Ok(rows)
}

/// The last line of standard output.
pub fn result_line(out: &Outcome, rows: &[(&MetricSpec, f64)]) -> String {
    let metrics = rows
        .iter()
        .map(|(s, v)| {
            (
                s.name.to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Float(*v)),
                    ("unit".to_owned(), Value::Str(s.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(is_correct(out))),
        ("attempted".to_owned(), Value::Int(out.attempted as i64)),
        ("failed".to_owned(), Value::Int(out.failed as i64)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

pub fn is_correct(out: &Outcome) -> bool {
    out.failed == 0 && out.gate_failures.is_empty() && out.attempted > 0
}

/// `HEAD`'s commit, read from `.git` without running git; "unknown"
/// outside a repository (the driver's checkout is not one).
pub fn git_rev(root: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(root.join(".git").join(reference)) {
        return rev;
    }
    read(root.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One JSON object per run: schema, where it ran, how it was configured,
/// how many samples stand behind the numbers, and the numbers.
pub fn envelope(
    workload: &str,
    cfg: &RunConfig,
    out: &Outcome,
    rows: &[(&MetricSpec, f64)],
) -> String {
    let text = |s: &str| Value::Str(s.to_owned());
    let count = |n: usize| Value::Int(n as i64);
    let samples = out
        .samples
        .iter()
        .map(|(k, v)| ((*k).to_owned(), count(*v)));
    let metrics = rows
        .iter()
        .map(|(s, v)| (s.name.to_owned(), Value::Float(*v)));
    let fields = [
        ("schema", text(SCHEMA)),
        ("git_rev", text(&git_rev(Path::new(".")))),
        (
            "nproc",
            count(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        // What the kernels called from the workload's thread may use.
        ("thread_budget", count(amalur_matrix::kernel_threads())),
        ("workload", text(workload)),
        ("seed", text(&cfg.seed.to_string())),
        ("seconds", Value::Float(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        (
            "scale",
            text(if cfg.scale == Scale::Full {
                "full"
            } else {
                "quick"
            }),
        ),
        ("samples", Value::Object(samples.collect())),
        ("correct", Value::Bool(is_correct(out))),
        ("attempted", count(out.attempted as usize)),
        ("failed", count(out.failed as usize)),
        ("metrics", Value::Object(metrics.collect())),
    ];
    let doc = Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
    serde_json::to_string(&doc).unwrap_or_default()
}

/// The human-readable part: one line per metric, name, value, unit.
pub fn print_table(workload: &str, cfg: &RunConfig, out: &Outcome, rows: &[(&MetricSpec, f64)]) {
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (spec, value) in rows {
        println!("  {:<36} {:>16.6} {}", spec.name, value, spec.unit);
    }
    for (layer, share) in &out.layer_shares {
        println!("  share of op time: {layer:<36} {:>5.1} %", share * 100.0);
    }
    println!(
        "  attempted {}  failed {}  correct {}",
        out.attempted,
        out.failed,
        is_correct(out)
    );
    for g in &out.gate_failures {
        println!("  GATE FAILED: {g}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(metrics: &[(&'static str, f64)]) -> Outcome {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.metrics.extend(metrics.iter().copied());
        out
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let out = outcome(&all);
        let rows = collect(&out, false).unwrap();
        let line = result_line(&out, &rows);
        let doc: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &doc else {
            panic!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value"), Some(&Value::Float(1.25)));
        assert_eq!(m.get("unit"), Some(&Value::Str("s".to_owned())));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn collect_refuses_missing_zero_or_unknown_metrics() {
        assert!(collect(&outcome(&[("setup_s", 1.0)]), false).is_err());
        let mut all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        all[1].1 = 0.0;
        assert!(collect(&outcome(&all), false).is_err());
        all[1].1 = f64::NAN;
        assert!(collect(&outcome(&all), false).is_err());
        assert!(collect(&outcome(&[("no.such_metric", 1.0)]), true).is_err());
        // A traced run fills untouched layers with 0.
        let rows = collect(&outcome(&[("serve.rejected", 0.0)]), true).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut out = outcome(&[]);
        assert!(is_correct(&out));
        out.gate(false, || "x".to_owned());
        assert!(!is_correct(&out));
    }
}
