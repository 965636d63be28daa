//! The metric registry and the result a run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions; `BENCHMARK.json` repeats them and a test
//! holds the two in agreement. Each entry also records the layer it
//! measures and the end-to-end metric it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Layer (crate) the metric measures; `e2e` for end-to-end metrics.
    pub layer: &'static str,
    /// The end-to-end metric this one should move (itself for end-to-end
    /// metrics).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics printed with `--trace 0`. Every workload defines each of them
/// (see the README for the per-workload meaning of an "operation").
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", Lower, "e2e", "setup_s"),
    m("throughput_per_s", "1/s", Higher, "e2e", "throughput_per_s"),
    m("op_p50_us", "us", Lower, "e2e", "op_p50_us"),
    m("peak_rss_mib", "MiB", Lower, "e2e", "peak_rss_mib"),
];

/// Metrics printed with `--trace 1`. A layer a workload does not exercise
/// reports `0`.
pub const PER_LAYER: &[MetricSpec] = &[
    m("workloads.generate_s", "s", Lower, "workloads", "setup_s"),
    m(
        "predictors.predict_calls",
        "count",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "predictors.predict_ns",
        "ns",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "predictors.train_calls",
        "count",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "predictors.train_ns",
        "ns",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "predictors.history_calls",
        "count",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "predictors.history_ns",
        "ns",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "predictors.share",
        "frac",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m("sim.self_s", "s", Lower, "sim", "throughput_per_s"),
    m(
        "sim.self_ns_per_uop",
        "ns",
        Lower,
        "sim",
        "throughput_per_s",
    ),
    m(
        "sim.host_ns_per_cycle",
        "ns",
        Lower,
        "sim",
        "throughput_per_s",
    ),
    m("sim.cycles", "count", Lower, "sim", "throughput_per_s"),
    m("sim.squashes", "count", Lower, "sim", "throughput_per_s"),
    m(
        "sim.dispatch_stalls",
        "count",
        Lower,
        "sim",
        "throughput_per_s",
    ),
    m("sim.l1d_misses", "count", Lower, "sim", "throughput_per_s"),
    m("sim.l3_misses", "count", Lower, "sim", "throughput_per_s"),
    m(
        "sim.loads_bypassed",
        "count",
        Higher,
        "sim",
        "throughput_per_s",
    ),
    m("sim.ipc", "uops/cycle", Higher, "sim", "throughput_per_s"),
    m(
        "sim.mdp_mpki",
        "mpki",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "sampling.plan_s",
        "s",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m(
        "sampling.warm_s",
        "s",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m(
        "sampling.measure_s",
        "s",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m("sampling.reference_s", "s", Lower, "sampling", "setup_s"),
    m(
        "sampling.simulated_uops",
        "count",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m(
        "sampling.warmed_uops",
        "count",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m(
        "sampling.clusters",
        "count",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m(
        "sampling.detail_frac",
        "frac",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m(
        "sampling.ipc_err",
        "frac",
        Lower,
        "sampling",
        "throughput_per_s",
    ),
    m("wire.encode_ns_per_frame", "ns", Lower, "wire", "op_p50_us"),
    m("wire.decode_ns_per_frame", "ns", Lower, "wire", "op_p50_us"),
    m(
        "serve.predict_rtt_p50_us",
        "us",
        Lower,
        "serve",
        "op_p50_us",
    ),
    m(
        "serve.predict_rtt_p99_us",
        "us",
        Lower,
        "serve",
        "op_p50_us",
    ),
    m(
        "serve.train_rtt_p50_us",
        "us",
        Lower,
        "serve",
        "throughput_per_s",
    ),
    m(
        "serve.train_rtt_p99_us",
        "us",
        Lower,
        "serve",
        "throughput_per_s",
    ),
    m("serve.rtt_samples", "count", Higher, "serve", "op_p50_us"),
    m(
        "serve.shard_service_p50_us",
        "us",
        Lower,
        "shard",
        "op_p50_us",
    ),
    m(
        "serve.shard_service_p99_us",
        "us",
        Lower,
        "shard",
        "op_p50_us",
    ),
    m("serve.shard_rtt_p50_us", "us", Lower, "shard", "op_p50_us"),
    m(
        "serve.unattributed_p50_us",
        "us",
        Lower,
        "server",
        "op_p50_us",
    ),
    m(
        "serve.jobs_per_batch",
        "count",
        Higher,
        "shard",
        "throughput_per_s",
    ),
    m(
        "serve.rejected",
        "count",
        Lower,
        "shard",
        "throughput_per_s",
    ),
    m(
        "serve.stale_trains",
        "count",
        Lower,
        "shard",
        "throughput_per_s",
    ),
    m(
        "serve.evicted_pending",
        "count",
        Lower,
        "shard",
        "throughput_per_s",
    ),
    m(
        "serve.mispredictions",
        "count",
        Lower,
        "predictors",
        "throughput_per_s",
    ),
    m(
        "trace.overhead_frac",
        "frac",
        Lower,
        "trace",
        "throughput_per_s",
    ),
    m("trace.timer_ns", "ns", Lower, "trace", "throughput_per_s"),
    m("trace.wall_s", "s", Lower, "trace", "throughput_per_s"),
    m("trace.layer_sum_s", "s", Lower, "trace", "throughput_per_s"),
    m(
        "trace.unattributed_s",
        "s",
        Lower,
        "trace",
        "throughput_per_s",
    ),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (simulation runs, or serve items).
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// Correctness failures, described.
    pub failures: Vec<String>,
    /// End-to-end metric values.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a correctness check; a failed one is kept for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a human-readable `name = value unit` line.
    pub fn line(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name} = {value} {unit}"));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The metric object of the result: every end-to-end metric, or with
    /// `traced` every per-layer metric (`0` for a layer not exercised).
    /// A missing end-to-end metric is a failure of the run.
    pub fn metrics(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let (specs, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut out = Vec::with_capacity(specs.len());
        let mut missing = Vec::new();
        for spec in specs {
            match values.get(spec.name) {
                Some(&v) if v.is_finite() => out.push((spec.name, v, spec.unit)),
                _ if traced => out.push((spec.name, 0.0, spec.unit)),
                _ => missing.push(spec.name),
            }
        }
        for name in missing {
            self.failures
                .push(format!("end-to-end metric {name} was not measured"));
        }
        out
    }

    /// The final result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&mut self, traced: bool) -> String {
        let metrics = self.metrics(traced);
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        json
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
            assert!(
                END_TO_END.iter().any(|e| e.name == spec.moves),
                "{} moves unknown metric {}",
                spec.name,
                spec.moves
            );
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("serve.p50_us"));
        assert!(valid_name("a-b_c.9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn traced_result_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.layers.insert("sim.cycles", 7.0);
        let json = r.result_json(true);
        assert!(json.contains("\"sim.cycles\": {\"value\": 7, \"unit\": \"count\"}"));
        assert!(json.contains("\"serve.rejected\": {\"value\": 0,"));
        assert!(r.correct());
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.e2e.insert("setup_s", 0.5);
        let json = r.result_json(false);
        assert!(!r.correct());
        assert!(json.starts_with("{\"correct\": false"));
        assert!(r.failures.iter().any(|f| f.contains("throughput_per_s")));
    }
}
