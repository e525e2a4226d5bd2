//! Summary statistics and the result line: the percentile rule, ratios with
//! a named base, metric validation and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A timing sample reduced to one percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in `(0, 100]`.
    pub p: f64,
    /// The nearest-rank value at `p`.
    pub value: f64,
    /// Number of samples the value was read from.
    pub n: usize,
    /// Samples strictly above the value's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` of `sorted` (ascending), or `None` when the
/// sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The tolerance keeps float error in `p / 100` (99.9 → 0.99900…01) from
    // pushing an exact rank up by one.
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    Some(Percentile {
        p,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `sorted` (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0).map_or(0.0, |q| q.value)
}

/// The highest percentile of the ladder that has at least ten samples
/// beyond it: the tail a sample of this size supports.
pub fn supported_tail(sorted: &[f64]) -> Option<Percentile> {
    TAIL_LADDER
        .iter()
        .filter_map(|&p| percentile(sorted, p))
        .find(|q| q.beyond >= 10)
}

/// Percentile `p` of `sorted`, only if at least ten samples lie beyond it.
pub fn checked_tail(sorted: &[f64], p: f64) -> Result<Percentile, String> {
    match percentile(sorted, p) {
        Some(q) if q.beyond >= 10 => Ok(q),
        Some(q) => Err(format!(
            "p{p} needs at least ten samples beyond it; {} samples leave {}",
            q.n, q.beyond
        )),
        None => Err(format!("p{p} of an empty sample")),
    }
}

/// Split `items` into consecutive windows of `window` (the last window
/// takes the remainder, so none is shorter than `window` unless there is
/// only one), apply `stat` to each and return the median of the results:
/// a figure that a disturbance confined to a few windows cannot move.
pub fn windowed<T>(
    items: &[T],
    window: usize,
    mut stat: impl FnMut(&[T]) -> Result<f64, String>,
) -> Result<f64, String> {
    let n = (items.len() / window.max(1)).max(1);
    let mut stats = Vec::with_capacity(n);
    for w in 0..n {
        let end = if w + 1 == n {
            items.len()
        } else {
            (w + 1) * window
        };
        stats.push(stat(&items[w * window..end]).map_err(|e| format!("window {w}: {e}"))?);
    }
    Ok(median(&sorted(stats)))
}

/// Sort a sample for the percentile helpers.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `part / base`, or 0 when the base is empty (the layer did no work).
pub fn ratio(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

/// Share of requests *sent* answered within `limit_ns`: a request that was
/// shed or failed counts as a miss, so the base is `sent`, not the answers.
pub fn slo_met_frac(answered_latency_ns: &[u64], sent: u64, limit_ns: u64) -> f64 {
    let met = answered_latency_ns
        .iter()
        .filter(|&&ns| ns <= limit_ns)
        .count() as u64;
    ratio(met, sent)
}

/// Which periods to keep: the half (rounded up) with the least host steal,
/// ties going to the earlier period. Selection is by a measure of the
/// host, not of the program, so a slowdown the program causes in every
/// period shows in the kept ones as well.
pub fn least_stolen(steal: &[u64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (steal[i], i));
    let mut kept = vec![false; steal.len()];
    for &i in &order[..steal.len().div_ceil(2)] {
        kept[i] = true;
    }
    kept
}

/// Share of registry resolves served by a resident model: the base is
/// every resolve, and each cold load is one miss.
pub fn hit_ratio(resolves: u64, cold_loads: u64) -> f64 {
    ratio(resolves.saturating_sub(cold_loads), resolves)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check every metric: a name of `[A-Za-z0-9_.-]` starting with a letter
/// or digit, used once, a unit, and a finite value.
pub fn validate(metrics: &[Metric]) -> Result<(), String> {
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("metric name `{}` is not [A-Za-z0-9_.-]+", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!(
                "metric `{}` has no valid unit (`{}`)",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not finite ({})", m.name, m.value));
        }
        if metrics[..i].iter().any(|other| other.name == m.name) {
            return Err(format!("metric `{}` is reported twice", m.name));
        }
    }
    Ok(())
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let q = checked_tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((q.value, q.n, q.beyond), (990.0, 1000, 10));
        assert!(checked_tail(&ramp(999), 99.0).is_err());
        assert!(checked_tail(&[], 99.0).is_err());
    }

    #[test]
    fn supported_tail_is_the_highest_percentile_with_ten_beyond() {
        let at = |n: usize| supported_tail(&ramp(n)).map(|q| q.p);
        assert_eq!(at(10_000), Some(99.9));
        assert_eq!(at(1_000), Some(99.0));
        assert_eq!(at(999), Some(95.0));
        assert_eq!(at(200), Some(95.0));
        assert_eq!(at(100), Some(90.0));
        assert_eq!(at(20), Some(50.0));
        assert_eq!(at(19), None);
        let q = supported_tail(&ramp(200)).unwrap();
        assert_eq!((q.value, q.n, q.beyond), (190.0, 200, 10));
    }

    #[test]
    fn windowed_takes_the_median_over_windows_and_folds_the_remainder() {
        let mut seen = Vec::new();
        let m = windowed(&ramp(10), 3, |w| {
            seen.push(w.len());
            Ok(w[0])
        })
        .unwrap();
        assert_eq!(seen, vec![3, 3, 4]);
        assert_eq!(m, 4.0);
        // One disturbed window does not move the figure.
        let mut values = vec![1.0; 40];
        values[5] = 100.0;
        assert_eq!(
            windowed(&values, 10, |w| Ok(w.iter().cloned().fold(0.0, f64::max))).unwrap(),
            1.0
        );
        assert!(windowed(&ramp(5), 2, |_| Err("x".to_string())).is_err());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slo_base_is_requests_sent() {
        // Two of four sent requests never got an answer: they miss.
        assert_eq!(slo_met_frac(&[5, 50], 4, 10), 0.25);
        assert_eq!(slo_met_frac(&[5, 10], 2, 10), 1.0);
        assert_eq!(slo_met_frac(&[], 0, 10), 0.0);
    }

    #[test]
    fn least_stolen_keeps_the_calmer_half() {
        assert_eq!(
            least_stolen(&[5, 0, 9, 0, 1]),
            vec![false, true, false, true, true]
        );
        // Ties go to the earlier period; an odd count rounds up.
        assert_eq!(least_stolen(&[2, 2, 2]), vec![true, true, false]);
        assert!(least_stolen(&[]).is_empty());
    }

    #[test]
    fn hit_ratio_base_is_every_resolve() {
        assert_eq!(hit_ratio(8, 2), 0.75);
        assert_eq!(hit_ratio(8, 0), 1.0);
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(3, 0), 0.0);
    }

    fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }

    #[test]
    fn metric_names_units_and_values_are_validated() {
        assert!(validate(&[metric("frontend.queue_wait_ms.p99", "ms", 1.0)]).is_ok());
        assert!(validate(&[metric("peak-rss_mb", "MB", 1.0)]).is_ok());
        for bad in [
            "",
            "has space",
            "p99(ms)",
            ".leading_dot",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(
                validate(&[metric(bad, "ms", 1.0)]).is_err(),
                "{bad:?} accepted"
            );
        }
        assert!(validate(&[metric("x", "", 1.0)]).is_err());
        assert!(validate(&[metric("x", "m s", 1.0)]).is_err());
        assert!(validate(&[metric("x", "ms", f64::NAN)]).is_err());
        assert!(validate(&[metric("x", "ms", 1.0), metric("x", "ms", 2.0)]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("p50_ms", "ms", 1.25), metric("n", "count", 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
