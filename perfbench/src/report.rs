//! The metric catalogue and the result line: the one JSON object the
//! benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by untraced runs. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_cycles", "cycles"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. A layer a
/// workload does not exercise reads 0 (the server layer on the
/// simulation workloads, for example).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mapping.s", "s"),
    ("mapping.miss_ms", "ms"),
    ("core.flow_table_s", "s"),
    ("core.build_s", "s"),
    ("core.compile_miss_ms", "ms"),
    ("traffic.s", "s"),
    ("traffic.packets", "count"),
    ("traffic.ns_per_packet", "ns"),
    ("sim.run_ms", "ms"),
    ("sim.step_s", "s"),
    ("sim.drain_s", "s"),
    ("sim.cycles", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.buffer_writes", "count"),
    ("sim.xbar_flit_traversals", "count"),
    ("sim.sa_requests", "count"),
    ("sim.sa_grants", "count"),
    ("sim.sa_grant_ratio", "ratio"),
    ("sim.flits_delivered", "count"),
    ("sim.ns_per_buffer_write", "ns"),
    ("sim.buffered_flits_mean", "flits"),
    ("sim.ns_per_buffered_flit", "ns"),
    ("sim.sharded_run_ms", "ms"),
    ("server.parse_us", "us"),
    ("server.accept_ms", "ms"),
    ("server.cell_hit_ms", "ms"),
    ("server.cell_miss_ms", "ms"),
    ("server.emit_us", "us"),
    ("server.wire_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name` = `value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or was already recorded.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} recorded twice"
        );
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The result object over the metrics of `catalogue`, in catalogue
/// order: `correct` is `failed == 0`; a metric never recorded reads 0;
/// a non-finite value (which JSON cannot carry) reads 0 and counts as
/// one more failed operation.
#[must_use]
pub fn result_line(
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let mut failed = failed;
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let mut value = metrics.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            failed += 1;
            value = 0.0;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}

/// One `name value unit` line per catalogue metric, for people.
#[must_use]
pub fn table(catalogue: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut s = String::new();
    for (name, unit) in catalogue {
        let value = metrics.get(name).unwrap_or(0.0);
        let _ = writeln!(s, "  {name:<26} {value:>20.6} {unit}");
    }
    s
}
