//! Sample summaries and the result record the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `xs` (mean of the middle pair for even counts); `NaN` when
/// empty, which [`Metrics::put`] reports as a failed check.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p50/p90 a sample count supports with at least ten
/// samples beyond it (`None` below 20 samples).
pub fn supported_percentile(samples: usize) -> Option<f64> {
    if samples >= 100 {
        Some(0.90)
    } else if samples >= 20 {
        Some(0.50)
    } else {
        None
    }
}

/// Median of `reps` timed calls of `f`, in seconds.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.entries.iter()
    }
}

/// Operation tallies and the two metric planes of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, echoed to stderr.
    pub notes: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub e2e: Metrics,
    /// Per-layer metrics (reported with `--trace 1`).
    pub layer: Metrics,
    /// Host facts, input sizes and sample counts for the context line.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one operation that failed without a separate attempt (for
    /// operations already counted as attempted).
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    /// Adds one context entry.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.context.push((key.into(), value.into()));
    }

    /// The result line: `correct`, `attempted`, `failed` and the chosen
    /// metric plane. A non-finite value is a failed check and prints as 0.
    pub fn result_json(&mut self, traced: bool) -> String {
        let bad: Vec<String> = {
            let plane = if traced { &self.layer } else { &self.e2e };
            plane.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| n.clone()).collect()
        };
        for name in bad {
            self.attempted += 1;
            self.fail(format!("metric {name} has no finite value"));
        }
        let plane = if traced { &self.layer } else { &self.e2e };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in plane.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
    }

    #[test]
    fn result_line_counts_non_finite_metrics_as_failures() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.e2e.put("a_s", 1.5, "s");
        o.e2e.put("b_s", f64::NAN, "s");
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(line.contains("\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"b_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
