//! Order statistics over measured samples.

/// Nearest-rank quantile of `sorted` (ascending) at `q` in `[0, 1]`, with
/// the number of samples strictly beyond it — a tail quantile means little
/// unless enough samples lie past it. `None` for an empty sample.
pub fn quantile_beyond(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    Some((value, beyond))
}

/// Nearest-rank quantile, `0.0` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_beyond(sorted, q).map_or(0.0, |(v, _)| v)
}

/// Sort a sample ascending (`total_cmp`, so an infinite latency standing for
/// a failed request sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` computed as Python's `statistics.quantiles(values,
/// n=4)` does (the default "exclusive" method), so a spread reported here
/// matches one computed from the same values in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    match data.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_and_beyond_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_beyond(&v, 0.5), Some((50.0, 50)));
        assert_eq!(quantile_beyond(&v, 0.9), Some((90.0, 10)));
        assert_eq!(quantile_beyond(&v, 0.99), Some((99.0, 1)));
        assert_eq!(quantile_beyond(&v, 1.0), Some((100.0, 0)));
        assert_eq!(quantile_beyond(&v, 0.0), Some((1.0, 99)));
        assert_eq!(quantile_beyond(&[], 0.5), None);
        // Ties at the quantile are not "beyond" it.
        let ties = [1.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(quantile_beyond(&ties, 0.5), Some((2.0, 1)));
        // A failed request (infinite latency) lands in the tail.
        let failed = sorted(vec![f64::INFINITY, 1.0, 2.0, 3.0]);
        assert_eq!(quantile_beyond(&failed, 0.9), Some((f64::INFINITY, 0)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
