//! Order statistics over the samples of one run or one set of runs.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile `p` in `(0, 100]`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Busy seconds per throughput window.
const WINDOW_S: f64 = 1.0;

/// Work items per busy second of one closed-loop caller, as the median
/// over consecutive windows of at least [`WINDOW_S`] busy seconds.
/// `calls` holds `(seconds, items)` per call, in order. A host that
/// stalls for part of a run slows the windows it hits, not the figure;
/// a slowdown in the code slows them all. An unfinished last window
/// joins the one before it.
pub fn windowed_rate(calls: &[(f64, u64)]) -> f64 {
    let mut windows: Vec<(f64, u64)> = Vec::new();
    let mut open = (0.0, 0u64);
    for &(seconds, items) in calls {
        open = (open.0 + seconds, open.1 + items);
        if open.0 >= WINDOW_S {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => *last = (last.0 + open.0, last.1 + open.1),
        None => windows.push(open),
    }
    let rates: Vec<f64> = windows.iter().map(|w| w.1 as f64 / w.0).collect();
    median(&rates)
}

/// The quartile cut points `(q1, q2, q3)`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// `--compare` judges spread by the rule the acceptance check uses.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The distance between the first and third quartile as a share of the
/// median — the spread the acceptance check bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windowed_rate_ignores_a_stall() {
        // Ten calls a second for five seconds, one of them stalled.
        let mut calls = vec![(0.1, 1u64); 50];
        calls[17].0 = 1.5;
        let rate = windowed_rate(&calls);
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
        // Too short for one window: the plain rate.
        assert_eq!(windowed_rate(&[(0.2, 1), (0.2, 1)]), 5.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
