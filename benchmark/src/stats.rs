//! Order statistics for latency samples: nearest-rank percentiles, the
//! segment rule (the median of per-segment values) that keeps a number
//! repeatable on a shared two-core host, and the rule that a percentile
//! is reported only when at least ten samples lie beyond it.

/// Most segments a measured phase is cut into.
pub const MAX_SEGMENTS: usize = 20;

/// Samples that must lie beyond a percentile for it to be reported; a
/// phase is cut into no more segments than leave this many beyond the
/// percentile inside every segment.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Panics on an empty
/// slice: every caller measured at least one operation.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a slice of numbers (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether `n` samples support percentile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    ((1.0 - q) * n as f64).floor() as usize >= MIN_BEYOND
}

/// The tail percentile reported beside the median: the p99.
pub const TAIL: f64 = 0.99;

/// The highest of p99 / p95 / p90 / p75 / p50 that `n` samples support.
/// Full-scale phases are sized so that this is always [`TAIL`] (a hard
/// check); only the smoke scale falls back, and says which it used.
pub fn tail_quantile(n: usize) -> f64 {
    [TAIL, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&q| supported(n, q))
        .unwrap_or(0.50)
}

/// Segments a phase of `n` samples is cut into for percentile `q`: as
/// many as leave [`MIN_BEYOND`] samples beyond `q` inside every segment,
/// at most [`MAX_SEGMENTS`].
pub fn segments_for(n: usize, q: f64) -> usize {
    (((1.0 - q) * n as f64) as usize / MIN_BEYOND).clamp(1, MAX_SEGMENTS)
}

/// Percentile `q` of a phase whose samples arrive as one series per
/// connection, each in issue order: the phase is cut into equal
/// consecutive segments (the same index range of every series), the
/// percentile is taken inside each segment, and the median of the
/// per-segment values is reported. A noisy stretch then moves a few
/// segment values instead of owning the whole tail, and a slowdown has to
/// last half the phase to move the number.
pub fn segmented_percentile(series: &[Vec<u64>], q: f64) -> f64 {
    let n: usize = series.iter().map(Vec::len).sum();
    let segments = segments_for(n, q);
    let per_segment: Vec<f64> = (0..segments)
        .filter_map(|s| {
            let mut seg: Vec<u64> = series
                .iter()
                .flat_map(|one| {
                    let lo = s * one.len() / segments;
                    let hi = (s + 1) * one.len() / segments;
                    one[lo..hi].iter().copied()
                })
                .collect();
            if seg.is_empty() {
                return None;
            }
            seg.sort_unstable();
            Some(percentile(&seg, q) as f64)
        })
        .collect();
    median(&per_segment)
}

/// Operations per second of a phase given, per connection and in issue
/// order, when each successful operation was sent and answered: every
/// connection's series is cut into [`MAX_SEGMENTS`] segments, a
/// segment's rate is the sum over connections of operations per second
/// inside it, and the median of the segment rates is reported. A segment
/// lasts from the send of its first operation to the send of the next
/// segment's first (the last one to its last answer), so that an open
/// loop's idle gaps count and the rate of a schedule is the schedule's.
pub fn segmented_rate(series: &[Vec<(u64, u64)>]) -> f64 {
    let shortest = series.iter().map(Vec::len).min().unwrap_or(0);
    let segments = shortest.clamp(1, MAX_SEGMENTS);
    let rates: Vec<f64> = (0..segments)
        .map(|s| {
            series
                .iter()
                .filter(|one| !one.is_empty())
                .map(|one| {
                    let lo = s * one.len() / segments;
                    let hi = ((s + 1) * one.len() / segments).max(lo + 1);
                    let end_ns = one.get(hi).map_or(one[hi - 1].1, |next| next.0);
                    (hi - lo) as f64 * 1e9 / (end_ns - one[lo].0).max(1) as f64
                })
                .sum()
        })
        .collect();
    median(&rates)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
        // Taken after the clamp, so short inputs extrapolate as Python does.
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 5 samples: p50 is the 3rd, p90 the 5th.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), 3);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.9), 5);
    }

    #[test]
    fn an_unsupported_percentile_is_suppressed() {
        // 999 samples leave 9 beyond p99: not enough.
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        // 199 samples leave 9 beyond p95: fall back to p90.
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(50), 0.75);
        assert_eq!(tail_quantile(12), 0.50);
    }

    #[test]
    fn a_short_stall_moves_one_segment_and_a_long_one_moves_the_number() {
        // Two connections, 5000 samples each, all 100 except a stall that
        // covers a fifth of one connection's phase: two segments of ten.
        let stalled = |range: std::ops::Range<usize>| {
            let mut a = vec![100u64; 5000];
            a[range].fill(10_000);
            a
        };
        let b = vec![100u64; 5000];
        assert_eq!(segments_for(10_000, 0.99), 10);
        let short = vec![stalled(3000..4000), b.clone()];
        assert_eq!(segmented_percentile(&short, 0.99), 100.0);
        // The pooled p99 would have reported the stall.
        let mut pooled: Vec<u64> = short.concat();
        pooled.sort_unstable();
        assert_eq!(percentile(&pooled, 0.99), 10_000);
        // A stall over more than half the phase is the phase's p99.
        let long = vec![stalled(1000..4000), b];
        assert_eq!(segmented_percentile(&long, 0.99), 10_000.0);
    }

    #[test]
    fn segment_count_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(segments_for(56_000, 0.99), 20, "capped");
        assert_eq!(segments_for(5_000, 0.99), 5);
        assert_eq!(segments_for(1_000, 0.99), 1);
        assert_eq!(segments_for(40, 0.99), 1, "never zero");
        assert_eq!(segments_for(300, 0.5), 15);
    }

    #[test]
    fn segments_use_the_same_index_range_of_every_series() {
        // 40 samples at p50 make two segments; series of different
        // lengths are each split in two.
        let a: Vec<u64> = (0..30).collect();
        let b: Vec<u64> = (100..110).collect();
        assert_eq!(segments_for(40, 0.5), 2);
        // Halves {0..15, 100..105} and {15..30, 105..110}: the 10th of 20
        // is 9 in the first and 24 in the second; their median is 16.5.
        assert_eq!(segmented_percentile(&[a, b], 0.5), 16.5);
    }

    #[test]
    fn rate_sums_connections_and_a_slow_stretch_moves_few_segments() {
        // Two connections, 40 ops each, one op per 1000 ns; connection 0
        // stalls for the whole of its second quarter.
        let steady: Vec<(u64, u64)> = (0..40).map(|i| (i * 1000, (i + 1) * 1000)).collect();
        let mut stalled = Vec::new();
        let mut t = 0u64;
        for i in 0..40 {
            let d = if (10..20).contains(&i) { 10_000 } else { 1000 };
            stalled.push((t, t + d));
            t += d;
        }
        let rate = segmented_rate(&[stalled, steady]);
        assert!(
            (rate - 2e6).abs() < 1.0,
            "two connections at 1e6 ops/s each, got {rate}"
        );
    }

    #[test]
    fn the_rate_of_a_schedule_is_the_schedule() {
        // One op due every 2500 ns, answered after 300: 400 000 ops/s,
        // idle gaps included.
        let paced: Vec<(u64, u64)> = (0..400).map(|i| (i * 2500, i * 2500 + 300)).collect();
        let rate = segmented_rate(&[paced]);
        assert!((rate / 4e5 - 1.0).abs() < 0.005, "got {rate}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
