//! Every metric the benchmark reports, with its unit and direction, and the
//! result line the benchmark prints last.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Reported by the untraced run (end to end) rather than the traced one.
    pub end_to_end: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        end_to_end: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        end_to_end: false,
    }
}

/// The metric table, end-to-end metrics first.
pub const METRICS: &[Metric] = &[
    e2e("sim_ios_per_s", "1/s", "higher"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("setup_s", "s", "lower"),
    layer("workload.next_io_ns", "ns", "lower"),
    layer("core.submit_ns", "ns", "lower"),
    layer("core.submit_share", "frac", "lower"),
    layer("core.build_dag_ns", "ns", "lower"),
    layer("core.dag_steps_per_op", "count", "lower"),
    layer("core.stripe_ops_per_io", "count", "lower"),
    layer("core.drain_ns_per_io", "ns", "lower"),
    layer("sim.events_per_io", "count", "lower"),
    layer("sim.events_canceled_per_io", "count", "lower"),
    layer("sim.slab_slots", "count", "lower"),
    layer("sim.run_until_self_share", "frac", "lower"),
    layer("sim.self_ns_per_event", "ns", "lower"),
    layer("sim.replay_dispatch_ns", "ns", "lower"),
    layer("block.serve_ns", "ns", "lower"),
    layer("block.drive_ops_per_io", "count", "lower"),
    layer("net.host_bytes_per_user_byte", "ratio", "lower"),
    layer("core.exec_residual_share", "frac", "lower"),
    layer("core.store_write_ns", "ns", "lower"),
    layer("core.store_read_ns", "ns", "lower"),
    layer("core.store_read_degraded_ns", "ns", "lower"),
    layer("core.store_share", "frac", "lower"),
    layer("core.store_chunks", "count", "lower"),
    layer("ec.rs_reconstruct_ns", "ns", "lower"),
    layer("core.retries_per_io", "count", "lower"),
    layer("bench.trace_overhead", "ratio", "lower"),
];

/// Looks a metric up by name.
///
/// # Panics
///
/// Panics on an unknown name (a bug in the benchmark).
fn metric(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|&(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(value),
                metric(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite number in full precision; JSON has no NaN or infinity, so
/// those print as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.25), ("sim_ios_per_s", 1e5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"sim_ios_per_s\": {\"value\": 100000.0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "null");
    }
}
