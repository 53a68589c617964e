//! Order statistics and the metric record the benchmark prints.

/// Tail percentile reported as `latency_p90_ms`.
pub const TAIL_PCT: usize = 90;

/// Fewest timed samples a run may report: enough that at least ten
/// samples lie strictly beyond the nearest-rank tail percentile.
pub const MIN_SAMPLES: usize = 100;

/// Nearest-rank percentile of an ascending slice (`pct` in 1..=100).
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    sorted(values.to_vec())[values.len() / 2]
}

/// The sample sorted ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of `reps` self-timed measurements.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// Median wall seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    median_of(reps, || {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    })
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values, filled in any order and printed in the order of
/// a fixed `(name, unit)` catalogue.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value` (a later record of the same name wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Look a recorded value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `"metrics"` JSON object over `catalogue`: an error unless
    /// every catalogue entry, and nothing else, was recorded finite.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        if let Some((name, _)) = self
            .0
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        let body = catalogue
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                )),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was never recorded")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(format!("{{{}}}", body.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples that sit strictly past the nearest-rank `pct` position.
    fn beyond(len: usize, pct: usize) -> usize {
        len - (len * pct).div_ceil(100).max(1)
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn min_samples_leave_ten_beyond_the_tail() {
        assert_eq!(beyond(MIN_SAMPLES, TAIL_PCT), 10);
        for n in MIN_SAMPLES..MIN_SAMPLES * 10 {
            assert!(beyond(n, TAIL_PCT) >= 10, "n = {n}");
        }
        assert!(beyond(MIN_SAMPLES - 1, TAIL_PCT) < 10);
    }

    #[test]
    fn metrics_print_in_catalogue_order_with_full_digits() {
        let mut m = Metrics::default();
        m.set("b", 2.0);
        m.set("a", 0.123456789012);
        let json = m.to_json(&[("a", "ms"), ("b", "s")]);
        assert_eq!(
            json.as_deref(),
            Ok("{\"a\": {\"value\": 0.123456789012, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 2.0, \"unit\": \"s\"}}")
        );
        assert!(
            m.to_json(&[("a", "ms")]).is_err(),
            "b is not in the catalogue"
        );
        assert!(
            m.to_json(&[("a", "ms"), ("b", "s"), ("c", "s")]).is_err(),
            "c is missing"
        );
        m.set("b", f64::NAN);
        assert!(
            m.to_json(&[("a", "ms"), ("b", "s")]).is_err(),
            "b is not finite"
        );
    }
}
