//! Sample statistics and the result record the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sample; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One named metric value with its unit and sample count.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run reports: metrics, operation accounting, output
/// checks, and the environment the numbers were taken in.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    env: BTreeMap<String, String>,
    /// Operations attempted (solves, or requests sent).
    pub attempted: u64,
    /// Operations that failed: error lines, sheds, missing responses,
    /// failed verifications.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Record a metric measured over `samples` observations.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name.to_string(), Metric { value, unit, samples });
    }

    /// Record an environment or validity fact.
    pub fn env(&mut self, key: &str, value: impl ToString) {
        self.env.insert(key.to_string(), value.to_string());
    }

    /// Record a failed output check; the run is then reported incorrect.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }

    /// Check a condition, recording `msg` as a problem when it is false.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problem(msg());
        }
        ok
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Human-readable metric table (stderr).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.env {
            let _ = writeln!(out, "  env {k} = {v}");
        }
        for (name, m) in &self.metrics {
            let _ =
                writeln!(out, "  {name:<40} {:>16.6} {:<6} (n = {})", m.value, m.unit, m.samples);
        }
        out
    }

    /// The detail record: environment, every metric with its sample
    /// count, and the failed checks.
    pub fn detail_json(&self, workload: &str) -> String {
        let env: Vec<String> =
            self.env.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, m)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                    json_str(k),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        format!(
            "{{\"workload\":{},\"env\":{{{}}},\"metrics\":{{{}}},\"problems\":[{}]}}",
            json_str(workload),
            env.join(","),
            metrics.join(","),
            problems.join(",")
        )
    }

    /// The one-line result object: `correct`, `attempted`, `failed`, and
    /// the metrics named in `names` (value and unit only).
    pub fn result_json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&n| match self.metrics.get(n) {
                Some(m) => format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    json_num(m.value),
                    json_str(m.unit)
                ),
                None => format!("{}:{{\"value\":null,\"unit\":null}}", json_str(n)),
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct() && names.iter().all(|n| self.has(n)),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Whether a finite value was recorded under `name`.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.get(name).is_some_and(|m| m.value.is_finite())
    }
}

/// A JSON number with every digit Rust prints (`null` when not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.put("latency_ms", 1.25, "ms", 3);
        assert_eq!(
            r.result_json(&["latency_ms"]),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        // A metric the run did not produce makes the run incorrect.
        assert!(r.result_json(&["latency_ms", "setup_s"]).starts_with("{\"correct\":false"));
    }
}
