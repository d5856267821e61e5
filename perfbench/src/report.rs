//! Metric names, units and the report a run prints.
//!
//! The last line of standard output is the machine-readable result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! The lines before it are a detailed report carrying the host block,
//! each metric's sample count and the verification outcome.

use crate::host::{json_string, HostBlock};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("prepare.execute_s", "s"),
    ("prepare.profile_s", "s"),
    ("prepare.generate_s", "s"),
    ("capture_s", "s"),
    ("capture.accesses", "count"),
    ("capture.cache_hit_ratio", "ratio"),
    ("eval.6a_s", "s"),
    ("eval.6b_s", "s"),
    ("eval.6c_s", "s"),
    ("eval.6d_s", "s"),
    ("eval.6e_s", "s"),
    ("eval.configs", "count"),
    ("sweep.long_pole_s", "s"),
    ("sweep.idle_s", "s"),
    ("summarize_s", "s"),
    ("sweep.avg_err_pp", "pp"),
    ("serve.profile.p50_ms", "ms"),
    ("serve.clone.p50_ms", "ms"),
    ("serve.evaluate.p50_ms", "ms"),
    ("serve.ingest.p50_ms", "ms"),
    ("serve.evaluate.p99_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.ingest.mb_per_s", "MB/s"),
    ("serve.model_cache.hit_ratio", "ratio"),
    ("serve.queue_rejected", "count"),
    ("serve.jobs_shed", "count"),
    ("serve.deadline_timeouts", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// One measured value with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Appends the tracing-overhead metrics: throughput of the untraced and
/// traced passes of a traced run, and the slowdown in percent.
pub fn push_overhead(metrics: &mut Vec<Metric>, untraced: f64, traced: f64, samples: usize) {
    metrics.push(Metric::new(
        "trace.untraced_ops_per_s",
        "1/s",
        untraced,
        samples,
    ));
    metrics.push(Metric::new(
        "trace.traced_ops_per_s",
        "1/s",
        traced,
        samples,
    ));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        "%",
        (untraced / traced.max(1e-12) - 1.0) * 100.0,
        samples,
    ));
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set when the run could not be carried out at all; no result is
    /// printed and the process exits non-zero.
    pub refused: Option<String>,
    /// Verification failures (empty = correct).
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Extra named figures for the detailed report.
    pub notes: Vec<(String, f64)>,
    /// Recorded spans as JSON (traced runs).
    pub spans: Option<String>,
}

impl Outcome {
    /// An outcome with verification results and operation counts.
    pub fn new(problems: Vec<String>, attempted: u64, failed: u64) -> Self {
        Outcome {
            problems,
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// A run that could not be carried out.
    pub fn refused(why: impl Into<String>) -> Self {
        Outcome {
            refused: Some(why.into()),
            ..Outcome::default()
        }
    }

    /// Adds a named figure to the detailed report.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// The metrics to print, in `BENCHMARK.json` order: every end-to-end
    /// metric (untraced) or every per-layer metric (traced). A per-layer
    /// metric the workload did not measure reads 0 with 0 samples.
    ///
    /// # Panics
    ///
    /// When an untraced run failed to measure an end-to-end metric — a
    /// bug in the workload.
    pub fn ordered(&self, trace: bool) -> Vec<Metric> {
        let find = |name: &str| self.metrics.iter().find(|m| m.name == name);
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    find(name)
                        .cloned()
                        .unwrap_or_else(|| Metric::new(name, unit, 0.0, 0))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, _)| {
                    find(name)
                        .cloned()
                        .unwrap_or_else(|| panic!("workload did not measure {name}"))
                })
                .collect()
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The detailed multi-line report.
    pub fn detailed(&self, workload: &str, host: &HostBlock, trace: bool) -> String {
        let mut s = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"trace\": {trace},\n  \"host\": {},\n  \"correct\": {},\n  \"problems\": [{}],\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n",
            host.to_json(),
            self.correct(),
            self.problems
                .iter()
                .map(|p| json_string(p))
                .collect::<Vec<_>>()
                .join(", "),
            self.attempted,
            self.failed,
        );
        let metrics = self.ordered(trace);
        for (i, m) in metrics.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}{}\n",
                m.name,
                number(m.value),
                m.unit,
                m.samples,
                if i + 1 < metrics.len() { "," } else { "" }
            ));
        }
        s.push_str("  },\n  \"notes\": {");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), number(*v)))
            .collect();
        s.push_str(&notes.join(", "));
        s.push_str("}\n}");
        s
    }

    /// The one-line machine-readable result, printed last.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .ordered(trace)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for n in all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_fills_unmeasured_layers_with_zero() {
        let mut out = Outcome::new(vec![], 3, 0);
        out.metrics.push(Metric::new("capture_s", "s", 1.25, 2));
        let line = out.result_line(true);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"capture_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert!(line.contains("\"eval.6d_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
    }
}
