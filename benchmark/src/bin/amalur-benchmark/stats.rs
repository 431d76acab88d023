//! Order statistics used by every workload and by `compare`.

/// Sorts a copy; NaNs (never produced by the timers) sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. With fewer than 20 samples p95 is the
/// maximum, which is what "the slowest of a handful" should report.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the two middle samples averaged for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `compare` judges spread exactly as the acceptance check does.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Splits `(time_s, value)` samples into consecutive windows of `width_s`
/// seconds starting at 0, applies `stat` to each window that holds at
/// least `min_samples`, and returns the median of the per-window results
/// together with the number of windows used. A stall then spoils one
/// window, not the run.
pub fn median_of_windows(
    samples: &[(f64, f64)],
    width_s: f64,
    min_samples: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> (f64, usize) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let w = (t / width_s).floor().max(0.0) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= min_samples.max(1))
        .map(|w| stat(w))
        .collect();
    (median(&per_window), per_window.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Unsorted input, small sample: p95 of five is the maximum.
        assert_eq!(percentile(&[3.0, 9.0, 1.0, 7.0, 5.0], 95.0), 9.0);
        assert_eq!(percentile(&[3.0, 9.0, 1.0, 7.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_windows_isolates_a_stall() {
        // Three 1-s windows of p50 = 1, 100 (a stall), 2; a fourth window
        // with too few samples is ignored.
        let mut s = Vec::new();
        for i in 0..10 {
            s.push((0.05 * f64::from(i), 1.0));
            s.push((1.0 + 0.05 * f64::from(i), 100.0));
            s.push((2.0 + 0.05 * f64::from(i), 2.0));
        }
        s.push((3.5, 1000.0));
        let (m, used) = median_of_windows(&s, 1.0, 5, |w| percentile(w, 50.0));
        assert_eq!(used, 3);
        assert_eq!(m, 2.0);
    }
}
