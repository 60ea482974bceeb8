//! The result a run prints: operation and check counts plus named metrics,
//! serialised as the one JSON object on the last line of standard output.

use crate::catalog::{self, MetricDef};
use std::collections::BTreeMap;

/// Counts and metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Record one operation the workload attempted (a detection run, a
    /// daemon request, a sharded run) and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record one output check; a failed check is named on stderr.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.op(ok);
        if !ok {
            eprintln!("perfbench: output check failed: {name}");
        }
    }

    /// Set metric `name` (its unit comes from the catalog).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line for the catalog `expected`. Errors name every metric
    /// that is missing, unexpected or not a finite number — a defect of the
    /// benchmark, so no result is printed.
    pub fn to_json_line(&self, expected: &[MetricDef]) -> Result<String, String> {
        let mut problems = Vec::new();
        for def in expected {
            match self.values.get(&def.name) {
                None => problems.push(format!("missing metric {}", def.name)),
                Some(v) if !v.is_finite() => {
                    problems.push(format!("metric {} is not finite ({v})", def.name))
                }
                Some(_) => {}
            }
        }
        for name in self.values.keys() {
            if !expected.iter().any(|d| &d.name == name) {
                problems.push(format!("metric {name} is not in the catalog"));
            }
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        let metrics: Vec<String> = expected
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.values[&d.name]),
                    d.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit (`{:?}` is the
/// shortest representation that round-trips).
pub fn json_number(v: f64) -> String {
    debug_assert!(v.is_finite());
    format!("{v:?}")
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it. `q` in `(0, 1]`; NaN when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Problems with a metric catalog: a count outside `1..=cap`, an illegal
/// name or a duplicate.
pub fn catalog_problems(defs: &[MetricDef], cap: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if defs.is_empty() || defs.len() > cap {
        problems.push(format!("{} metrics, allowed 1..={cap}", defs.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for d in defs {
        if !catalog::legal_name(&d.name) {
            problems.push(format!("illegal metric name {:?}", d.name));
        }
        if !seen.insert(d.name.as_str()) {
            problems.push(format!("duplicate metric name {}", d.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 1000 samples: p99 leaves exactly ten samples above it.
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&sorted, 0.99);
        assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), 10);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_requires_exactly_the_catalog() {
        let defs = vec![
            MetricDef::new("wall_s", "s"),
            MetricDef::new("setup_s", "s"),
        ];
        let mut r = Report::default();
        r.op(true);
        r.set("wall_s", 1.25);
        assert!(r
            .to_json_line(&defs)
            .unwrap_err()
            .contains("missing metric setup_s"));
        r.set("setup_s", 0.5);
        let line = r.to_json_line(&defs).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.set("extra", 1.0);
        assert!(r.to_json_line(&defs).is_err());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let defs = vec![MetricDef::new("wall_s", "s")];
        let mut r = Report::default();
        r.set("wall_s", 2.0);
        r.check("flipped label", false);
        let line = r.to_json_line(&defs).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
