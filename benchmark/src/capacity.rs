//! Capacity search: the highest offered rate that still meets the latency
//! limit, found with as few measured steps as possible.

/// Climb a √2 ladder from `start` until a rate fails (or `ladder_steps`
/// rungs pass), then bisect (geometrically) between the last passing and
/// the first failing rate `bisect_steps` times. If `start` itself fails the
/// ladder walks down instead. `meets_slo` runs one measured step at the
/// given rate. Returns the highest rate that passed (0 if none did).
pub fn find_capacity(
    start: f64,
    ladder_steps: usize,
    bisect_steps: usize,
    mut meets_slo: impl FnMut(f64) -> bool,
) -> f64 {
    let (mut lo, mut hi) = if meets_slo(start) {
        let mut lo = start;
        let mut hi = None;
        for _ in 1..ladder_steps {
            let rate = lo * std::f64::consts::SQRT_2;
            if meets_slo(rate) {
                lo = rate;
            } else {
                hi = Some(rate);
                break;
            }
        }
        match hi {
            Some(hi) => (lo, hi),
            // Never failed: the search cannot bound capacity from above.
            None => return lo,
        }
    } else {
        let mut hi = start;
        let mut lo = None;
        for _ in 1..ladder_steps {
            let rate = hi / std::f64::consts::SQRT_2;
            if meets_slo(rate) {
                lo = Some(rate);
                break;
            }
            hi = rate;
        }
        match lo {
            Some(lo) => (lo, hi),
            None => return 0.0,
        }
    };
    for _ in 0..bisect_steps {
        let mid = (lo * hi).sqrt();
        if meets_slo(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server that meets the limit exactly up to `capacity`.
    fn search(capacity: f64, start: f64) -> (f64, usize) {
        let mut steps = 0;
        let found = find_capacity(start, 4, 3, |rate| {
            steps += 1;
            rate <= capacity
        });
        (found, steps)
    }

    #[test]
    fn bisection_brackets_the_oracle_capacity() {
        for capacity in [2100.0, 2900.0, 3300.0, 3900.0, 5000.0, 5600.0] {
            let (found, steps) = search(capacity, 2000.0);
            assert!(found <= capacity, "{found} above {capacity}");
            // Three geometric halvings of a √2 bracket: within 2^(1/16).
            assert!(
                found * 2f64.powf(1.0 / 16.0) >= capacity,
                "{found} vs {capacity}"
            );
            assert!(steps <= 7, "{steps} steps");
        }
    }

    #[test]
    fn start_above_capacity_walks_down() {
        let (found, _) = search(1500.0, 2000.0);
        assert!(found <= 1500.0 && found * 2f64.powf(1.0 / 16.0) >= 1500.0);
    }

    #[test]
    fn unbounded_and_hopeless_searches() {
        // Every rung passes: the top rung is reported.
        let (found, steps) = search(1e9, 2000.0);
        assert_eq!(steps, 4);
        assert!((found - 2000.0 * 2f64.sqrt().powi(3)).abs() < 1e-6);
        // Nothing passes.
        assert_eq!(search(10.0, 2000.0).0, 0.0);
    }
}
