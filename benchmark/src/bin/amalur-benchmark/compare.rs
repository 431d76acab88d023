//! `compare <set-a> <set-b>`: the A/A check of this benchmark and the
//! parent-versus-change check of later issues.
//!
//! A result set is a file of envelope lines as `all` writes it. For every
//! end-to-end metric and workload the two sets' medians and quartiles are
//! printed, and set B is judged against set A by the metric's bound.

use crate::report::SCHEMA;
use crate::spec::{Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;

/// Runs per workload a set needs before its quartiles mean anything.
pub const MIN_RUNS: usize = 5;

/// `(workload, metric) → values`, untraced runs only.
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

/// Parses the envelope lines of one result set.
pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if doc.get("schema") != Some(&Value::Str(SCHEMA.to_owned())) {
            return Err(format!("line {}: not a {SCHEMA} envelope", n + 1));
        }
        if doc.get("trace") != Some(&Value::Bool(false)) {
            continue; // per-layer numbers carry no bound
        }
        if doc.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!(
                "line {}: the run's outputs were not correct",
                n + 1
            ));
        }
        let (Some(Value::Str(workload)), Some(Value::Object(metrics))) =
            (doc.get("workload"), doc.get("metrics"))
        else {
            return Err(format!("line {}: no workload or metrics", n + 1));
        };
        for (name, value) in metrics {
            let v = match value {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                other => return Err(format!("line {}: {name} is {other:?}", n + 1)),
            };
            set.entry((workload.clone(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other, spreads within it too.
    Same,
    /// B's median better than A's by more than the bound, or every run of
    /// B better than every run of A.
    Better,
    /// B's median worse than A's by more than the bound.
    Worse,
    /// A spread wider than the bound: the runs cannot tell.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub quartiles_a: (f64, f64, f64),
    pub quartiles_b: (f64, f64, f64),
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better), in the metric's own direction.
    pub worse_by: f64,
    /// The wider of the two interquartile ranges over its median.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Result<Row, String> {
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return Err(format!(
            "{}: {} and {} runs, need at least {MIN_RUNS} in each set",
            spec.name,
            a.len(),
            b.len()
        ));
    }
    let bound = spec
        .bound
        .ok_or_else(|| format!("{} has no bound", spec.name))?;
    let (qa, qb) = match (quartiles(a), quartiles(b)) {
        (Some(qa), Some(qb)) => (qa, qb),
        _ => return Err(format!("{}: too few runs for quartiles", spec.name)),
    };
    let sign = match spec.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (qb.1 - qa.1) / qa.1;
    let spread = ((qa.2 - qa.0) / qa.1).max((qb.2 - qb.0) / qb.1);
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init: f64| v.iter().copied().fold(init, f);
    let all_better = match spec.better {
        Better::Lower => fold(b, f64::max, f64::MIN) < fold(a, f64::min, f64::MAX),
        Better::Higher => fold(b, f64::min, f64::MAX) > fold(a, f64::max, f64::MIN),
    };
    let verdict = if all_better {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Ok(Row {
        quartiles_a: qa,
        quartiles_b: qb,
        worse_by,
        spread,
        verdict,
    })
}

/// Judges every end-to-end metric on every workload; prints one line per
/// pairing. Returns how many were worse and how many unresolved.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<(usize, usize), String> {
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<20} {:<12} {:>34} {:>34} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "worse %",
        "spread%",
        "bound%"
    );
    for w in WORKLOADS {
        for spec in END_TO_END {
            let key = (w.name.to_owned(), spec.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{} on {}: missing from a set", spec.name, w.name));
            };
            let row = judge(spec, va, vb).map_err(|e| format!("{}: {e}", w.name))?;
            let q = |q: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", q.0, q.1, q.2);
            println!(
                "{:<20} {:<12} {:>34} {:>34} {:>8.2} {:>7.2} {:>6.1}  {:?}",
                w.name,
                spec.name,
                q(row.quartiles_a),
                q(row.quartiles_b),
                row.worse_by * 100.0,
                row.spread * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                row.verdict
            );
            worse += usize::from(row.verdict == Verdict::Worse);
            unresolved += usize::from(row.verdict == Verdict::Unresolved);
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, in either direction.
    fn metric(better: Better) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
            meaning: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let (lower, higher) = (metric(Better::Lower), metric(Better::Higher));
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [103.0, 104.0, 102.0, 103.5, 102.5];
        let worse = [115.0, 116.0, 114.0, 115.5, 114.5];
        let better = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&lower, &a, &same).unwrap().verdict, Verdict::Same);
        assert_eq!(judge(&lower, &a, &worse).unwrap().verdict, Verdict::Worse);
        assert_eq!(judge(&lower, &a, &better).unwrap().verdict, Verdict::Better);
        // The same numbers read the other way for a throughput.
        assert_eq!(judge(&higher, &a, &worse).unwrap().verdict, Verdict::Better);
        assert_eq!(judge(&higher, &a, &better).unwrap().verdict, Verdict::Worse);
        let row = judge(&lower, &a, &worse).unwrap();
        assert!((row.worse_by - 0.15).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let lower = metric(Better::Lower);
        let a = [100.0, 140.0, 80.0, 120.0, 90.0];
        let b = [105.0, 150.0, 85.0, 125.0, 95.0];
        assert_eq!(judge(&lower, &a, &b).unwrap().verdict, Verdict::Unresolved);
        let clear = [50.0, 70.0, 40.0, 60.0, 45.0];
        assert_eq!(judge(&lower, &a, &clear).unwrap().verdict, Verdict::Better);
    }

    #[test]
    fn fewer_than_five_runs_is_an_error() {
        assert!(judge(&metric(Better::Lower), &[1.0; 4], &[1.0; 5]).is_err());
    }

    #[test]
    fn sets_parse_from_envelope_lines_and_skip_traced_runs() {
        let line = |w: &str, trace: bool, v: f64| {
            format!(
                "{{\"schema\":\"{SCHEMA}\",\"workload\":\"{w}\",\"trace\":{trace},\"correct\":true,\"metrics\":{{\"op_p50_ms\":{v:?}}}}}"
            )
        };
        let text = [
            line("a", false, 1.0),
            line("a", false, 2.0),
            line("a", true, 9.0),
        ]
        .join("\n");
        let set = parse_set(&text).unwrap();
        assert_eq!(
            set[&("a".to_owned(), "op_p50_ms".to_owned())],
            vec![1.0, 2.0]
        );
        assert!(parse_set("{\"schema\":\"other\"}").is_err());
        let wrong = line("a", false, 1.0).replace("\"correct\":true", "\"correct\":false");
        assert!(parse_set(&wrong).is_err());
    }
}
