//! Sample statistics, process memory, and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`q` in 0..=100). `NaN` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Sum of `samples` divided by its length; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer this workload
/// never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reported metric: value, unit, and how many samples it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Human-readable table: name, value, unit, sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }
}

/// Operation outcome counts behind `correct` / `attempted` / `failed`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        if ok {
            self.ok()
        } else {
            self.fail()
        }
    }

    /// Mark an already-counted operation as failed (a check made after
    /// the fact, e.g. a recovered image verified at the end of the run).
    pub fn flag(&mut self) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
    }
}

/// The result line: one JSON object, every number with all its digits.
pub fn result_json(outcome: Outcome, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms", 10);
        let line = result_json(
            Outcome {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
