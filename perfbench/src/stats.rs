//! Sample summaries: median, quartiles, coefficient of variation and a
//! tail percentile, with the quartiles computed exactly as Python's
//! `statistics.quantiles(data, n=4)` (the default "exclusive" method)
//! computes them, so the figures printed here and the figures a reader
//! recomputes from raw values agree.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// First and ninth deciles (`statistics.quantiles(data, n=10)`).
    pub p10: f64,
    pub p90: f64,
    /// Sample standard deviation over the mean (0 with fewer than two
    /// samples).
    pub cv: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = match quantiles(&s, 4).as_slice() {
            [a, _, c] => (*a, *c),
            _ => (s[0], s[0]),
        };
        let deciles = quantiles(&s, 10);
        Some(Summary {
            median: median(&s),
            q1,
            q3,
            p10: deciles[0],
            p90: deciles[8],
            cv: cv(&s),
            n: s.len(),
        })
    }
}

/// Median of sorted data (the mean of the middle pair for even lengths).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `statistics.quantiles(sorted, n=parts)` with the exclusive method:
/// the `parts - 1` cut points.
pub fn quantiles(sorted: &[f64], parts: usize) -> Vec<f64> {
    let ld = sorted.len();
    if ld == 1 {
        return vec![sorted[0]; parts - 1];
    }
    let m = ld + 1;
    (1..parts)
        .map(|i| {
            let j = (i * m / parts).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * parts) as f64;
            (sorted[j - 1] * (parts as f64 - delta) + sorted[j] * delta) / parts as f64
        })
        .collect()
}

fn cv(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// The highest percentile, capped at `cap` (in percent), that has at
/// least `beyond` samples above it, as `(percent, value)`. The value is
/// the exclusive-method interpolation at that rank, so for `n` samples
/// the rank is at most `n - beyond` and `beyond` samples lie past it.
/// `None` when there are too few samples for any such percentile.
pub fn tail(samples: &[f64], cap: f64, beyond: usize) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= beyond {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // Exclusive-method position of fraction p is p * (n + 1), 1-based;
    // `beyond` samples lie past it while the position stays below
    // n - beyond + 1.
    let capped = cap / 100.0;
    let p = if capped * ((n + 1) as f64) < (n - beyond + 1) as f64 {
        capped
    } else {
        (n - beyond) as f64 / (n + 1) as f64
    };
    let pos = p * (n + 1) as f64;
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = pos - lo as f64;
    Some((p * 100.0, s[lo - 1] + (s[hi - 1] - s[lo - 1]) * frac))
}

/// Run-time percentiles over calls of several cases whose typical costs
/// differ. Pooled raw times would form one cluster per case, and their
/// median would sit in a gap between clusters and jump between runs.
/// Instead the typical time is the geometric mean of the per-case
/// medians, and the tail is that typical time scaled by the `cap`
/// percentile (with `beyond` samples past it, see [`tail`]) of every
/// call's time over its own case's median. Returns `(typical, (percent,
/// tail))`.
pub fn per_case(by_case: &[Vec<f64>], cap: f64, beyond: usize) -> Option<(f64, (f64, f64))> {
    let mut log_sum = 0.0;
    let mut ratios = Vec::new();
    for samples in by_case {
        let m = Summary::of(samples)?.median;
        log_sum += m.ln();
        ratios.extend(samples.iter().map(|t| t / m));
    }
    let typical = (log_sum / by_case.len() as f64).exp();
    let (pct, r) = tail(&ratios, cap, beyond)?;
    Some((typical, (pct, typical * r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[1.0, 2.0, 3.0], 4), vec![1.0, 2.0, 3.0]);
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.0, 5.0, 3));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs, 90.0, 10).unwrap();
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = tail(&few, 90.0, 10).unwrap();
        assert!(p < 90.0);
        assert_eq!(few.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&few[..10], 90.0, 10).is_none());
    }

    #[test]
    fn per_case_factors_out_case_cost() {
        // Two cases, one ten times the other, each with the same spread:
        // the typical time is their geometric mean and the tail factor is
        // the shared one.
        let unit: Vec<f64> = (1..=100).map(|i| 1.0 + f64::from(i) / 100.0).collect();
        let big: Vec<f64> = unit.iter().map(|x| x * 10.0).collect();
        let (typical, (pct, p90)) = per_case(&[unit.clone(), big], 90.0, 10).unwrap();
        let m = median(&unit);
        assert!((typical - m * 10f64.sqrt()).abs() < 1e-9);
        assert_eq!(pct, 90.0);
        let (_, unit_p90) = tail(&unit, 90.0, 10).unwrap();
        assert!((p90 / typical - unit_p90 / m).abs() < 1e-3);
    }
}
