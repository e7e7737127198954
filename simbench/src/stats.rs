//! Summary statistics of the runner: the tail-percentile rule, medians,
//! scaling by the machine-speed probe and the log–log capacity
//! interpolation of the §6.1 ladder.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of samples sorted ascending.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile whose nearest-rank value leaves at least
/// `tail` of `n` samples strictly beyond it, or `None` when `n <= tail`.
pub fn highest_percentile_with_tail(n: usize, tail: usize) -> Option<u32> {
    (1..100u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= tail
    })
}

/// Median of unsorted samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times scaled to a machine whose probe takes `reference` seconds: each
/// time × `reference` ÷ the median of the probe times taken within `half`
/// places of it (a window, so a single noisy probe does not decide).
pub fn scaled(times: &[f64], probes: &[f64], reference: f64, half: usize) -> Vec<f64> {
    assert_eq!(times.len(), probes.len(), "one probe per time");
    (0..times.len())
        .map(|i| {
            let window = &probes[i.saturating_sub(half)..(i + half + 1).min(probes.len())];
            times[i] * reference / median(window)
        })
        .collect()
}

/// Unit count of ladder step `k` (negative steps descend): `base · 2^(k/4)`.
pub fn ladder_units(base: usize, k: i32) -> usize {
    (base as f64 * 2f64.powf(k as f64 / 4.0)).round() as usize
}

/// Log–log interpolation of the unit count at which throughput crosses
/// `target` ticks/s, between a step that holds it (`held` = units, ticks/s
/// ≥ target) and the next step that does not (`missed`, ticks/s < target).
pub fn interpolate_capacity(held: (f64, f64), missed: (f64, f64), target: f64) -> f64 {
    let (u0, t0) = (held.0.ln(), held.1.ln());
    let (u1, t1) = (missed.0.ln(), missed.1.ln());
    if t0 <= t1 {
        // Not a crossing in log space (equal or inverted rates): the held
        // step is the best supported figure.
        return held.0;
    }
    (u0 + (target.ln() - t0) * (u1 - u0) / (t1 - t0)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_the_tail_percentile_from_100_samples() {
        assert_eq!(highest_percentile_with_tail(100, TAIL_SAMPLES), Some(90));
        assert_eq!(highest_percentile_with_tail(99, TAIL_SAMPLES), Some(89));
        assert_eq!(highest_percentile_with_tail(250, TAIL_SAMPLES), Some(96));
        assert_eq!(highest_percentile_with_tail(1000, TAIL_SAMPLES), Some(99));
        assert_eq!(highest_percentile_with_tail(10, TAIL_SAMPLES), None);
    }

    #[test]
    fn nearest_rank_percentile_leaves_the_tail_beyond_it() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(sorted.iter().filter(|&&x| x > 90.0).count(), 10);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn scaling_divides_by_the_local_probe_median() {
        // The machine runs at half speed for the last three samples: the
        // probe and the times double together, and the scaled times do not.
        let times = [10.0, 10.0, 10.0, 20.0, 20.0, 20.0];
        let probes = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        assert_eq!(scaled(&times, &probes, 1.0, 0), vec![10.0; 6]);
        // A single outlying probe inside a window is outvoted.
        let probes = [1.0, 1.0, 5.0, 1.0, 1.0];
        assert_eq!(scaled(&[3.0; 5], &probes, 2.0, 1), vec![6.0; 5]);
    }

    #[test]
    fn ladder_is_geometric_with_ratio_fourth_root_of_two() {
        assert_eq!(ladder_units(2000, 0), 2000);
        assert_eq!(ladder_units(2000, 1), 2378);
        assert_eq!(ladder_units(2000, 4), 4000);
        assert_eq!(ladder_units(2000, -4), 1000);
    }

    #[test]
    fn capacity_interpolates_in_log_log_space() {
        // ticks/s ∝ units^-1: 4000 units at 20 t/s, 8000 at 10 t/s exactly.
        let cap = interpolate_capacity((4000.0, 20.0), (16000.0, 5.0), 10.0);
        assert!((cap - 8000.0).abs() < 1e-6, "{cap}");
        // A crossing at the held step itself.
        let cap = interpolate_capacity((5000.0, 10.0), (6000.0, 9.0), 10.0);
        assert!((cap - 5000.0).abs() < 1e-6, "{cap}");
        // Rates that fall faster than 1/units: 4k at 16 t/s, 8k at 6 t/s.
        let cap = interpolate_capacity((4000.0, 16.0), (8000.0, 6.0), 10.0);
        assert!(cap > 5500.0 && cap < 6500.0, "{cap}");
        // Degenerate (no drop in rate): fall back to the held step.
        assert_eq!(
            interpolate_capacity((100.0, 9.0), (200.0, 9.5), 10.0),
            100.0
        );
    }
}
