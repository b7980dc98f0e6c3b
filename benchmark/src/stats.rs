//! Order statistics over timing samples, and the measured-metric record
//! both output formats (the driver's last line, `results.json`) are
//! rendered from.

use crate::names::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds since `t0`, as a float with every digit the clock gives.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an unsorted sample (`q` in 0..=1). Empty
/// samples give NaN, which the report refuses.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One measured metric: the reported value plus where it came from.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    /// Samples behind `value` (1 for counters and ratios).
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

/// Metric name -> measurement for one run of one workload.
#[derive(Debug, Default)]
pub struct Report(BTreeMap<&'static str, Measured>);

impl Report {
    /// A single reading (counter, ratio, one-shot time).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(
            name,
            Measured {
                value,
                n: 1,
                q1: value,
                q3: value,
            },
        );
    }

    /// The median of `samples`, with its quartiles and sample count.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set_quantile(name, samples, 0.5);
    }

    /// Quantile `q` of `samples` as the value (0.5 reports the median).
    pub fn set_quantile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        let value = if q == 0.5 {
            median(samples)
        } else {
            quantile(samples, q)
        };
        self.0.insert(
            name,
            Measured {
                value,
                n: samples.len(),
                q1: quantile(samples, 0.25),
                q3: quantile(samples, 0.75),
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the driver contract: exactly `wanted`, each
    /// with its unit. A missing or non-finite metric is a bug in the
    /// runner, reported as an error rather than printed as a wrong result.
    pub fn metrics_json(&self, wanted: &[Metric], detail: bool) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, metric) in wanted.iter().enumerate() {
            let m = self
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", metric.name));
            }
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                metric.name, m.value, metric.unit
            ));
            if detail {
                let fin = |x: f64| if x.is_finite() { x } else { m.value };
                out.push_str(&format!(
                    ",\"n\":{},\"q1\":{},\"q3\":{}",
                    m.n,
                    fin(m.q1),
                    fin(m.q3)
                ));
            }
            out.push('}');
        }
        out.push('}');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn report_refuses_missing_and_nan_metrics() {
        let wanted = [Metric {
            name: "x",
            unit: "ms",
            better: "lower",
        }];
        let mut r = Report::default();
        assert!(r.metrics_json(&wanted, false).is_err());
        r.set("x", f64::NAN);
        assert!(r.metrics_json(&wanted, false).is_err());
        r.set("x", 1.5);
        assert_eq!(
            r.metrics_json(&wanted, false).unwrap(),
            "{\"x\":{\"value\":1.5,\"unit\":\"ms\"}}"
        );
    }
}
