//! The metric registry — every name the benchmark reports, with its unit
//! — and the report a workload run produces.

use crate::trace::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload on an untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload on a traced run. Time
/// is attributed as a share (%) of the workload's unit of work, so a
/// layer a workload never enters reads 0 % rather than a fake time.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("serve.read_pct", "%"),
    ("serve.extract_pct", "%"),
    ("serve.queue_wait_pct", "%"),
    ("serve.execute_pct", "%"),
    ("serve.write_pct", "%"),
    ("serve.server_other_pct", "%"),
    ("serve.unattributed_pct", "%"),
    ("serve.batch_size_mean", "count"),
    ("serve.pool_misses_steady", "count"),
    ("serve.shed", "count"),
    ("asm.parse_pct", "%"),
    ("asm.cfg_build_pct", "%"),
    ("graph.acfg_pct", "%"),
    ("graph.reduce_pct", "%"),
    ("model.input_pct", "%"),
    ("model.predict_pct", "%"),
    ("classify.residual_pct", "%"),
    ("asm.bytes", "count"),
    ("graph.nodes_in", "count"),
    ("graph.nodes_out", "count"),
    ("graph.edges_out", "count"),
    ("kernel.conv2d_pct", "%"),
    ("kernel.graph_conv_pct", "%"),
    ("kernel.pool_pct", "%"),
    ("kernel.elementwise_pct", "%"),
    ("host.param_bind_pct", "%"),
    ("host.sample_overhead_pct", "%"),
    ("host.grad_pct", "%"),
    ("host.optimizer_step_pct", "%"),
    ("host.evaluate_pct", "%"),
    ("epoch.residual_pct", "%"),
    ("kernel.gflop", "GFLOP"),
    ("tape.pool_misses_steady", "count"),
    ("tape.allocs_per_epoch", "count"),
    ("data.read_pct", "%"),
    ("data.stall_pct", "%"),
    ("data.build_pct", "%"),
    ("data.bytes_read", "count"),
    ("data.bytes_written", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Outcome counts of every correctness check a run made.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Registry metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    /// Human-readable detail: tails, sample counts, tables, digests.
    pub lines: Vec<String>,
}

impl Report {
    /// Sets a registry metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the registry does not declare, so an undeclared
    /// metric cannot reach the output.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "metric {name} is not in the registry"
        );
        self.metrics.insert(name, value);
    }

    /// Sets the share metric (`<row>_pct`) of every row of a table and of
    /// its residual.
    pub fn set_shares(&mut self, table: &Table) {
        for (row, _, share) in table.shares() {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix("_pct") == Some(row.as_str()))
                .unwrap_or_else(|| panic!("no per-layer metric for row {row}"));
            self.set(name, share);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The metrics the mode reports, in registry order; a name the run
    /// did not set reads 0.
    pub fn selected(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let registry: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        registry
            .iter()
            .map(|&(name, unit)| (name, unit, self.metrics.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, (name, unit, value)) in self.selected(trace).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot hold, read 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magic_json::Value;

    /// The name rule `BENCHMARK.json` imposes.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../../BENCHMARK.json");
        let root = magic_json::from_str(text).expect("BENCHMARK.json parses");
        match &root[section] {
            Value::Array(items) => items
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect(),
            _ => panic!("{section} is not an array"),
        }
    }

    fn registry(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), registry(&END_TO_END));
        assert_eq!(declared("per_layer"), registry(&PER_LAYER));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(all.iter().all(|n| valid_name(n)));
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "metric names are unique");
    }

    #[test]
    fn json_line_carries_every_selected_metric() {
        let mut report = Report::default();
        report.set("latency_p50_ms", 1.25);
        report.checks.check(true, String::new);
        let line = report.json_line(false);
        let v = magic_json::from_str(&line).expect("result line is JSON");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["metrics"]["latency_p50_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        let traced = magic_json::from_str(&report.json_line(true)).unwrap();
        assert!(traced["metrics"]["trace.overhead_ratio"]
            .as_object()
            .is_some());
        assert!(traced["metrics"]["setup_s"].is_null());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        checks.check(false, || "probabilities differ".into());
        let report = Report {
            checks,
            ..Report::default()
        };
        let v = magic_json::from_str(&report.json_line(false)).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["failed"].as_u64(), Some(1));
        assert_eq!(v["attempted"].as_u64(), Some(2));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn undeclared_metric_is_refused() {
        Report::default().set("lat_p99_ms", 1.0);
    }
}
