//! Metric derivations over raw run outputs: latency percentiles and the
//! outage / recovery times of a delivery series.

/// Nearest-rank percentile of ascending `sorted` samples. `None` when
/// fewer than `100 / (100 - p) * 10` samples back it, so that at least
/// ten samples lie beyond the reported value (p99 needs 1000, p50 20).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile {p} out of range");
    let needed = (1000.0 / (100.0 - p)).ceil() as usize;
    if sorted.len() < needed {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Deliveries of one process, as ascending virtual-time nanoseconds.
pub type Series = Vec<u64>;

/// Mean over `series` of each process's delivery rate inside
/// `[from, to]` (ns): deliveries after its first one there, over the time
/// from that first delivery to its last one (msg/s). Unlike a count over
/// the window, this resolves the rate below one message per window.
pub fn mean_rate(series: &[Series], from: u64, to: u64) -> f64 {
    let rates = series.iter().map(|s| {
        let inside = &s[s.partition_point(|&d| d < from)..s.partition_point(|&d| d <= to)];
        match (inside.first(), inside.last()) {
            (Some(&first), Some(&last)) if last > first => {
                (inside.len() - 1) as f64 * 1e9 / (last - first) as f64
            }
            _ => 0.0,
        }
    });
    rates.sum::<f64>() / series.len() as f64
}

/// Step function "fewest deliveries any process in `series` made in the
/// trailing window `(t - window, t]`", as `(from, count)` steps covering
/// `[from, to)`: the count holds from each step's instant to the next.
fn slowest_window_counts(series: &[Series], from: u64, to: u64, window: u64) -> Vec<(u64, u64)> {
    let mut cuts: Vec<u64> = vec![from];
    for s in series {
        for &d in s {
            for c in [d, d.saturating_add(window)] {
                if c > from && c < to {
                    cuts.push(c);
                }
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.into_iter()
        .map(|t| {
            let lo = t.saturating_sub(window);
            let slowest = series
                .iter()
                .map(|s| {
                    let after_lo = s.partition_point(|&d| d <= lo && t >= window);
                    let upto_t = s.partition_point(|&d| d <= t);
                    (upto_t - after_lo) as u64
                })
                .min()
                .unwrap_or(0);
            (t, slowest)
        })
        .collect()
}

/// Virtual nanoseconds in `[from, to)` during which the slowest of
/// `series` delivered fewer than `min_count` messages in the trailing
/// `window` — with `min_count` half the offered load over the window,
/// the time spent below half rate.
pub fn time_below(series: &[Series], from: u64, to: u64, window: u64, min_count: f64) -> u64 {
    let steps = slowest_window_counts(series, from, to, window);
    let mut below = 0;
    for (i, &(t, count)) in steps.iter().enumerate() {
        let next = steps.get(i + 1).map_or(to, |s| s.0);
        if (count as f64) < min_count {
            below += next - t;
        }
    }
    below
}

/// Virtual nanoseconds from `from` until the slowest of `series` delivers
/// at least `min_count` messages in every trailing `window` for `hold`
/// nanoseconds on end. Capped at `to - from` when that never happens
/// before `to`.
pub fn time_to_recover(
    series: &[Series],
    from: u64,
    to: u64,
    window: u64,
    min_count: f64,
    hold: u64,
) -> u64 {
    let steps = slowest_window_counts(series, from, to, window);
    let mut candidate = from;
    for (i, &(t, count)) in steps.iter().enumerate() {
        if t >= candidate.saturating_add(hold) {
            break;
        }
        if (count as f64) < min_count {
            candidate = steps.get(i + 1).map_or(to, |s| s.0);
        }
    }
    if candidate.saturating_add(hold) > to {
        to - from
    } else {
        candidate - from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// One delivery every `gap_ms`, in `[from_ms, to_ms)`.
    fn steady(from_ms: u64, to_ms: u64, gap_ms: u64) -> Series {
        (from_ms..to_ms)
            .step_by(gap_ms as usize)
            .map(|t| t * MS)
            .collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 99.0), Some(990.0));
        assert_eq!(percentile(&enough, 50.0), Some(500.0));
        assert_eq!(percentile(&few[..19], 50.0), None);
        assert_eq!(percentile(&few[..20], 50.0), Some(10.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mean_rate_resolves_below_one_message_per_window() {
        // 100 msg/s at p0; p1 has one extra delivery at the very end.
        let p0 = steady(0, 3000, 10);
        let mut p1 = steady(0, 3000, 10);
        p1.push(2995 * MS);
        let r = mean_rate(&[p0, p1], 1000 * MS, 2000 * MS);
        assert!((r - 100.0).abs() < 1e-9, "{r}");
        let r = mean_rate(&[steady(0, 3000, 10), steady(0, 3000, 10)], 0, 2995 * MS);
        assert!((r - 100.0).abs() < 1e-9, "{r}");
        assert_eq!(mean_rate(&[vec![5 * MS]], 0, 10 * MS), 0.0);
    }

    #[test]
    fn steady_series_has_only_the_cold_start_outage() {
        // 100 msg/s from t = 0; 100 ms window, half rate = 5 deliveries.
        // The trailing window first holds 5 deliveries at t = 40 ms.
        let s = vec![steady(0, 5000, 10)];
        assert_eq!(time_below(&s, 0, 5000 * MS, 100 * MS, 5.0), 40 * MS);
    }

    #[test]
    fn outage_counts_the_gap_of_the_slowest_process() {
        // p1 stops delivering between 1 s and 3 s; p0 never does.
        let p0 = steady(0, 5000, 10);
        let mut p1 = steady(0, 1000, 10);
        p1.extend(steady(3000, 5000, 10));
        let below = time_below(&[p0, p1], 0, 5000 * MS, 100 * MS, 5.0);
        // Cold start (40 ms) + from 1.05 s (window drops below 5) to
        // 3.04 s (fifth delivery after the gap).
        assert_eq!(below, 40 * MS + (3040 - 1050) * MS);
    }

    #[test]
    fn recovery_waits_for_a_full_hold_at_rate() {
        // Stalled from 2 s to 4 s, then steady; event at 2 s. With a
        // 250 ms window and 90% of 25 = 22.5, the window holds 23 at
        // 4.22 s, and the rate then holds for the 1 s hold.
        let mut p = steady(0, 2000, 10);
        p.extend(steady(4000, 9000, 10));
        let r = time_to_recover(&[p], 2000 * MS, 9000 * MS, 250 * MS, 22.5, 1000 * MS);
        assert_eq!(r, 2220 * MS);
    }

    #[test]
    fn recovery_ignores_a_dip_shorter_than_nothing_and_restarts_on_relapse() {
        // No dip at all after the event: recovered at once.
        let p = steady(0, 9000, 10);
        assert_eq!(
            time_to_recover(&[p], 2000 * MS, 9000 * MS, 250 * MS, 22.5, 1000 * MS),
            0
        );
        // Back at 3 s but relapses at 3.5 s for 1 s: the first
        // recovery does not hold, so it counts from the second one.
        let mut p = steady(0, 2000, 10);
        p.extend(steady(3000, 3500, 10));
        p.extend(steady(4500, 9000, 10));
        let r = time_to_recover(&[p], 2000 * MS, 9000 * MS, 250 * MS, 22.5, 1000 * MS);
        assert_eq!(r, 2720 * MS);
    }

    #[test]
    fn recovery_is_capped_at_the_end_of_the_run() {
        let p = steady(0, 2000, 10);
        let r = time_to_recover(&[p], 2000 * MS, 6000 * MS, 250 * MS, 22.5, 1000 * MS);
        assert_eq!(r, 4000 * MS);
    }
}
