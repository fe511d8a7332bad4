//! Summary statistics over repeated host-time samples.

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

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the acceptance check's. `None` for fewer
/// than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's regression bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Samples a reported tail percentile must leave beyond it.
const TAIL_SAMPLES: usize = 10;

/// Index into `n` sorted samples of the highest percentile, capped at
/// p90, that still has at least [`TAIL_SAMPLES`] samples beyond it; `None`
/// when that percentile would lie below the median (fewer than 21 samples).
pub fn tail_index(n: usize) -> Option<usize> {
    let p90 = (n * 9).div_ceil(10).checked_sub(1)?;
    let i = p90.min(n.checked_sub(TAIL_SAMPLES + 1)?);
    (i >= n / 2).then_some(i)
}

/// The tail value at [`tail_index`], or the median when the samples are
/// too few to support a tail percentile.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    match tail_index(v.len()) {
        Some(i) => v[i],
        None => median(&v),
    }
}

/// `num / den`, or 0 when the denominator is 0 (an empty layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3: statistics.quantiles(data, n=4).
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(
            quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]),
            Some((1.5, 4.5)),
            "input order must not matter"
        );
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_index(10), None, "no percentile has 10 beyond");
        assert_eq!(tail_index(11), None, "only the minimum has 10 beyond");
        assert_eq!(tail_index(20), None, "below the median");
        assert_eq!(tail_index(21), Some(10), "the median itself");
        assert_eq!(tail_index(32), Some(21));
        // fig_sweep's 96 cells over 3 passes: p90 would be index 86 with
        // only 9 beyond, so the rule settles one lower.
        assert_eq!(tail_index(96), Some(85));
        assert_eq!(tail_index(200), Some(179), "capped at p90");
        for n in 21..500 {
            let i = tail_index(n).unwrap();
            assert!(n - 1 - i >= TAIL_SAMPLES, "n={n}");
            assert!(i < (n * 9).div_ceil(10), "never above p90, n={n}");
            assert!(i >= n / 2, "never below the median, n={n}");
        }
    }

    #[test]
    fn tail_falls_back_to_the_median_for_few_samples() {
        assert_eq!(tail(&[1.0, 9.0, 5.0]), 5.0);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), 5.0, "never the minimum");
        let v: Vec<f64> = (0..96).map(f64::from).collect();
        assert_eq!(tail(&v), 85.0);
    }

    #[test]
    fn ratio_of_an_empty_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
