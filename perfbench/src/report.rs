//! The benchmark's result: named metrics with units, the operation tally
//! that feeds `failed_frac`, and the one-line JSON the run ends with.

use std::fmt::Write as _;

/// Longest metric name the benchmark emits.
const MAX_NAME: usize = 64;

/// True when `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= MAX_NAME
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Nearest-rank quantile of `values`, the definition `HistSnapshot::quantile_us`
/// uses: the `ceil(q·n)`-th smallest value, the rank clamped to `[1, n]` and
/// `q` to `[0, 1]`. Returns `None` for an empty slice.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median of repeated timings: the middle value, or the mean of the
/// two middle values for an even count. (Latency percentiles use
/// [`nearest_rank`].)
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a metric. An invalid or repeated name is a bug in the
    /// benchmark; a non-finite value is a failed measurement.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name:?} recorded twice"
        );
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a value that is printed with the metrics but left out of the
    /// result line.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn notes(&self) -> &[Metric] {
        &self.notes
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation (an error, a refusal or a wrong output).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Counts one attempted operation and fails it unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(why());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `failed ÷ attempted` (failed + refused + wrong outputs over attempts).
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Holds the metrics to the manifest's `(name, unit)` list. A metric
    /// outside the list, or in another unit, is a failure. A listed metric
    /// the run did not record reads 0 when `zero_missing` (a layer the
    /// workload never entered) and is a failure otherwise.
    pub fn conform(&mut self, expected: &[(&str, &'static str)], zero_missing: bool) {
        let stray: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !expected.contains(&(m.name.as_str(), m.unit)))
            .map(|m| format!("metric {} ({}) is not in the manifest", m.name, m.unit))
            .collect();
        for why in stray {
            self.fail(why);
        }
        for &(name, unit) in expected {
            if self.metrics.iter().any(|m| m.name == name) {
                continue;
            }
            if zero_missing {
                self.metric(name, 0.0, unit);
            } else {
                self.fail(format!("metric {name} was not measured"));
            }
        }
    }

    /// The run is correct when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form (`Debug` prints `1e-7` and `2.0`, both valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_histogram_definition() {
        // Ranks ceil(q·n): n = 10 → p50 is the 5th, p99 the 10th, p0 the 1st.
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.11), Some(2.0));
        // q is clamped to [0, 1].
        assert_eq!(nearest_rank(&v, 7.0), Some(10.0));
        assert_eq!(nearest_rank(&v, -1.0), Some(1.0));
        // n = 200: p99 is the 198th smallest, so two values lie beyond it.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 0.99), Some(198.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0, 4.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "tensor.gram.mode0.self_s",
            "store.query.p50_ms",
            "net.alpha-us",
            "0x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".gram",
            "_x",
            "-x",
            "a b",
            "a/b",
            "läuft",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn conform_fills_unreached_layers_and_flags_strays() {
        let expected = [("a_s", "s"), ("b", "count")];
        let mut r = Report::new();
        r.check(true, String::new);
        r.metric("a_s", 2.0, "s");
        r.conform(&expected, true);
        assert!(r.correct());
        let got: Vec<(&str, f64)> = r
            .metrics()
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(got, [("a_s", 2.0), ("b", 0.0)]);

        let mut r = Report::new();
        r.check(true, String::new);
        r.metric("a_s", 2.0, "ms");
        r.conform(&expected, false);
        assert_eq!(r.failures().len(), 2, "{:?}", r.failures());
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn an_invalid_name_is_refused() {
        Report::new().metric("bad name", 1.0, "s");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.check(true, String::new);
        r.metric("latency_ms", 1.25, "ms");
        r.metric("tiny", 1e-7, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"tiny\": {\"value\": 1e-7, \"unit\": \"s\"}}}"
        );
        r.check(false, || "wrong".into());
        assert!(!r.correct());
        assert_eq!(r.failed_frac(), 0.5);
    }
}
