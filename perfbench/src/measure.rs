//! Percentiles, metrics, and the result line every run ends with.

use gtr_sim::json::Json;

/// Nearest-rank percentile of `samples` (`p` in `0..=100`): the
/// smallest sample with at least `p`% of all samples at or below it.
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many samples lie strictly above the nearest-rank `p`th
/// percentile — the support of a tail estimate.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    percentile(samples, p).map_or(0, |q| samples.iter().filter(|&&s| s > q).count())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (simulated cells or served requests).
    pub attempted: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Correctness-check violations (empty when every check held).
    pub violations: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a check result.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.violations.push(e);
        }
    }

    /// The final JSON result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::from(m.unit)),
                    ]),
                )
            })
            .collect();
        let j = Json::Obj(vec![
            (
                "correct".to_string(),
                Json::Bool(self.violations.is_empty()),
            ),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        let mut s = String::new();
        j.write_compact(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0), "order does not matter");
        assert_eq!(
            median(&[1.0, 2.0]),
            Some(1.0),
            "nearest rank, not interpolated"
        );
    }

    #[test]
    fn tail_support_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 99.0), 10);
        assert_eq!(
            beyond(&v[..999], 99.0),
            9,
            "999 samples leave too few beyond p99"
        );
        assert_eq!(beyond(&[], 99.0), 0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 40,
            failed: 0,
            ..Default::default()
        };
        o.metrics.push(Metric::new("wall_s", "s", 1.25));
        o.metrics.push(Metric::new("hot_p50_ms", "ms", 0.5));
        let line = o.result_line();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &j else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(40));
        let wall = j
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn any_violation_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        o.check(Ok(()));
        assert!(o.result_line().contains("\"correct\":true"));
        o.check(Err("boom".to_string()));
        assert!(o.result_line().contains("\"correct\":false"));
    }
}
