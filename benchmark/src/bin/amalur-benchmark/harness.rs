//! What every workload shares: the run configuration, the outcome it
//! hands back, the closed-loop driver and the correctness-gate helpers.

use crate::stats::median;
use crate::trace::Span;
use amalur_matrix::DenseMatrix;
use amalur_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated this many times in a run and `setup_s` is the
/// median, so one slow page-cache miss does not decide it.
pub const SETUP_REPS: usize = 3;

/// Full inputs, or about a tenth of them for the `quick` smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    /// `n` at full scale, a tenth of it (at least `floor`) when quick.
    pub fn rows(self, n: usize, floor: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => (n / 10).max(floor),
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory inside the checkout for files the workload writes.
    pub scratch: PathBuf,
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back. A gate that fails is both counted in
/// `failed` and described in `gate_failures`; either makes the run
/// incorrect.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Sample counts behind the metrics, for the envelope.
    pub samples: BTreeMap<&'static str, usize>,
    pub spans: Vec<Span>,
    /// Share of op time per layer, printed by traced runs.
    pub layer_shares: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a gate: `ok == false` counts one failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what());
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last product and the
/// median wall time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take()); // one product alive at a time, as in a single set-up
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let product = last.ok_or_else(|| "SETUP_REPS is zero".to_owned())?;
    Ok((product, median(&times)))
}

/// Closed loop, one client: runs `op(index)` back to back until `seconds`
/// have passed (and at least `min_ops` ran). `op` returns the time that
/// counts, in seconds — its own wall time less any gate work it did.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(u32) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        times.push(op(times.len() as u32)?);
    }
    Ok(times)
}

/// The operation metrics of a one-client closed-loop workload from its
/// sample times (seconds): the median per operation in ms, and the rate
/// that median sustains. A 10-s run completes fewer than 20 of these
/// operations, so no percentile beyond the median has ten samples past
/// it; and the rate is taken from the median, not the mean, because on
/// the shared reference box one stalled pass in five moved the mean-based
/// rate of `train_materialized` by 21 % between seeds and the median by 9.
pub fn closed_loop_metrics(op_s: &[f64], ops_per_sample: f64, into: &mut Outcome) {
    let p50_s = median(op_s) / ops_per_sample;
    into.metrics.insert("op_p50_ms", p50_s * 1e3);
    into.metrics.insert("ops_per_s", 1.0 / p50_s);
    into.samples.insert("ops", op_s.len());
}

/// A traced run records spans on every other operation (the odd ones).
pub fn spans_on(op: u32) -> bool {
    op % 2 == 1
}

/// Splits the samples of such a run into (spans off, spans on) and gives
/// the overhead of recording: median on over median off, in percent.
pub fn split_alternating(samples: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
    let pick = |on: bool| -> Vec<f64> {
        samples
            .iter()
            .enumerate()
            .filter(|(i, _)| spans_on(*i as u32) == on)
            .map(|(_, v)| *v)
            .collect()
    };
    let (off, on) = (pick(false), pick(true));
    let overhead = (median(&on) - median(&off)) / median(&off) * 100.0;
    (off, on, overhead)
}

/// Replays `f` standalone: one warm-up call, then the median time of
/// `reps` calls, in ms.
pub fn replay_ms(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    f()?;
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// How far a counter of the program's own registry moved between two
/// snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Largest element-wise difference relative to `max(|a|, |b|, 1)` — the
/// measure `amalur_gen::equivalence_tolerance` bounds. Infinite on a
/// shape mismatch or a non-finite value.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x.is_finite() && y.is_finite() {
                (x - y).abs() / x.abs().max(y.abs()).max(1.0)
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

pub fn bit_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Maps any displayable error to the `String` the workloads return.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_runs_at_least_min_ops_and_reports_per_op_numbers() {
        let times = closed_loop(0.0, 4, |i| Ok(f64::from(i + 1) * 0.5)).unwrap();
        assert_eq!(times, vec![0.5, 1.0, 1.5, 2.0]);
        let mut out = Outcome::default();
        // Each sample covers two operations.
        closed_loop_metrics(&times, 2.0, &mut out);
        assert_eq!(out.metrics["op_p50_ms"], 625.0);
        assert_eq!(out.metrics["ops_per_s"], 1.6);
        assert_eq!(out.samples["ops"], 4);
        assert!(closed_loop(0.0, 1, |_| Err("boom".to_owned())).is_err());
    }

    #[test]
    fn alternating_samples_split_by_parity() {
        let (off, on, overhead) = split_alternating(&[10.0, 11.0, 10.0, 11.0, 10.0]);
        assert_eq!(off, vec![10.0, 10.0, 10.0]);
        assert_eq!(on, vec![11.0, 11.0]);
        assert!((overhead - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rel_diff_uses_an_absolute_floor_of_one() {
        assert_eq!(max_rel_diff(&[0.0, 10.0], &[0.5, 10.0]), 0.5);
        assert_eq!(max_rel_diff(&[100.0], &[101.0]), 1.0 / 101.0);
        assert_eq!(max_rel_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_rel_diff(&[f64::NAN], &[1.0]), f64::INFINITY);
    }

    #[test]
    fn gates_count_as_failed_operations() {
        let mut out = Outcome::default();
        out.gate(true, || unreachable!());
        out.gate(false, || "recall 0.5 below 0.95".to_owned());
        assert_eq!(out.failed, 1);
        assert_eq!(out.gate_failures.len(), 1);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
