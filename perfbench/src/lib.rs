//! The repository's benchmark: each workload is a paper figure run end to
//! end through the public API of the workspace crates, timed untraced for
//! the end-to-end metrics and traced for the per-layer ones.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod machine;
pub mod pipeline;
pub mod probes;
pub mod trace;
pub mod workload;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.parse_s", "s"),
    ("runner.render_s", "s"),
    ("runner.self_s", "s"),
    ("registry.builds", "count"),
    ("registry.build_s", "s"),
    ("registry.build_p50_us", "us"),
    ("registry.self_s", "s"),
    ("sim.steps", "count"),
    ("sim.step_s", "s"),
    ("sim.step_p50_us", "us"),
    ("sim.step_tail_us", "us"),
    ("sim.step_tail_pct", "%"),
    ("sim.step_samples", "count"),
    ("sim.burst_steps", "count"),
    ("sim.burst_step_s", "s"),
    ("sim.node_rounds", "count"),
    ("sim.ns_per_node_round", "ns"),
    ("sim.self_s", "s"),
    ("report.s", "s"),
    ("report.p50_us", "us"),
    ("report.self_s", "s"),
    ("sweep.jobs", "count"),
    ("sweep.wall_s", "s"),
    ("sweep.busy_s", "s"),
    ("sweep.idle_s", "s"),
    ("sweep.slowest_job_s", "s"),
    ("sweep.efficiency", "ratio"),
    ("sweep.self_s", "s"),
    ("digest.rebuild_ns_per_id", "ns"),
    ("digest.probe_ns", "ns"),
    ("digest.requests", "count"),
    ("digest.bytes_on_wire", "bytes"),
    ("digest.withheld", "count"),
    ("digest.fp_rate", "ratio"),
    ("plan.fill_ns_per_pair", "ns"),
    ("plan.shuffle_ns_per_pair", "ns"),
    ("pool.dispatch_us", "us"),
    ("pool.fill_1m_ms", "ms"),
    ("pool.speedup", "ratio"),
    ("faults.begin_round_ns", "ns"),
    ("faults.fate_ns", "ns"),
    ("faults.dropped", "count"),
    ("population.build_ms", "ms"),
    ("population.burst_round_ms", "ms"),
    ("population.begin_round_ns", "ns"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("trace.reps", "count"),
    ("bench.failed_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with these units, and every workload.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            workload::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(trace::valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workload::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\", \"why\"", w.name)));
        }
    }
}
