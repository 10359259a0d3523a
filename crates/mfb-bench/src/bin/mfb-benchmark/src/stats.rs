//! Order statistics, interval arithmetic and seed mixing.

/// Percentile levels are reported only when at least this many samples lie
/// beyond them, so a tail percentile never rests on a handful of jobs.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let r = rank(n, p);
    if n == 0 || n - r < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r - 1])
}

/// Nearest-rank median (the lower middle for an even count). Unlike
/// [`percentile`] it needs no samples beyond it; used for repeated set-up
/// timings and other small sets.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(rank(sorted.len(), 50.0) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// Length of the union of `intervals` (half-open `[start, end)`) clipped to
/// `[lo, hi)`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if start < end {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// SplitMix64 finalizer over `(seed, stream)`: independent, reproducible
/// sub-seeds for every generated input.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // Unsorted input is fine.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 50.0), Some(50.0));
        assert_eq!(rank(10, 25.0), 3);
        assert_eq!(rank(1, 1.0), 1);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p99 of 100: rank 99, only 1 beyond.
        assert_eq!(percentile(&v, 99.0), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some(990.0));
        assert_eq!(percentile(&w[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0; 19], 50.0), None);
        assert_eq!(percentile(&[1.0; 20], 50.0), Some(1.0));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        // [0,3) + [5,12) + [20,25) clipped at 25.
        assert_eq!(union_len(&mut v, 0, 25), 3 + 7 + 5);
        let mut nested = vec![(2, 9), (3, 4), (4, 8)];
        assert_eq!(union_len(&mut nested, 0, 100), 7);
        let mut outside = vec![(0, 5), (50, 60)];
        assert_eq!(union_len(&mut outside, 10, 40), 0);
    }

    #[test]
    fn mix_separates_streams_and_seeds() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
