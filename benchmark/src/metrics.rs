//! The metric declarations: every name the benchmark prints, with its
//! unit. `BENCHMARK.json` must list exactly these (a unit test checks it);
//! which end-to-end metric each layer metric should move, and on which
//! workload, is tabulated in `benchmark/README.md`.

/// A printed metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the simulator sees, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("sim_p50_ms", "ms"),
    m("sim_p99_ms", "ms"),
    m("sim_p999_ms", "ms"),
    m("success_share", "ratio"),
];

/// Single-layer numbers, printed by the traced run (`--trace 1`). Host
/// wall-time splits are shares of the traced execution's wall time, so a
/// layer that does not run on a workload reads 0 rather than a constant
/// time.
pub const PER_LAYER: &[Metric] = &[
    // Host time: the event engine.
    m("sim.events", "count"),
    m("sim.ns_per_event", "ns"),
    m("sim.heap_ops", "count"),
    m("sim.heap_share", "ratio"),
    m("sim.reschedules", "count"),
    m("sim.peak_pending", "count"),
    m("sim.unattributed_share", "ratio"),
    // Host time: runtime subsystems under cost attribution.
    m("runtime.routing_ops", "count"),
    m("runtime.routing_share", "ratio"),
    m("sketch.ops", "count"),
    m("sketch.share", "ratio"),
    m("runtime.detector_ops", "count"),
    m("runtime.detector_share", "ratio"),
    m("obs.scrape_ops", "count"),
    m("obs.scrape_share", "ratio"),
    m("trace.record_ops", "count"),
    m("trace.record_share", "ratio"),
    // Host time: control loops, replayed on the end state.
    m("partition.rounds", "count"),
    m("partition.round_us", "us"),
    m("seda.solves", "count"),
    m("seda.solve_us", "us"),
    // Host time: the conservative-parallel runner.
    m("shard.busy_max_s", "s"),
    m("shard.busy_mean_s", "s"),
    m("shard.cpu_s", "s"),
    m("shard.serial_share", "ratio"),
    m("shard.barrier_wait_share", "ratio"),
    m("shard.parallelism", "ratio"),
    // Host time and memory: set-up.
    m("setup.workload_s", "s"),
    m("setup.runtime_s", "s"),
    m("workloads.slab_mb", "MiB"),
    // The tracer itself.
    m("trace.spans", "count"),
    m("trace.dropped", "count"),
    m("trace.overhead_pct", "%"),
    // Simulated (deterministic for a seed): the Fig. 4 stage decomposition
    // as shares of client latency, then counts.
    m("sim.requests", "count"),
    m("runtime.queue_share.recv", "ratio"),
    m("runtime.queue_share.worker", "ratio"),
    m("runtime.queue_share.send", "ratio"),
    m("runtime.service_share.recv", "ratio"),
    m("runtime.service_share.worker", "ratio"),
    m("runtime.service_share.send", "ratio"),
    m("runtime.net_share", "ratio"),
    m("runtime.cpu_util", "ratio"),
    m("runtime.remote_share", "ratio"),
    m("runtime.forwards", "count"),
    m("partition.migrations", "count"),
    m("runtime.timeouts", "count"),
    m("runtime.retries", "count"),
    m("runtime.dir_repairs", "count"),
    m("snapshot.state_writes", "count"),
    m("snapshot.journal_len", "count"),
    m("snapshot.rounds", "count"),
    m("snapshot.captures", "count"),
    m("snapshot.restores", "count"),
    m("snapshot.replayed", "count"),
    m("replication.splits", "count"),
    m("replication.replica_reads", "count"),
    m("replication.replica_writes", "count"),
    m("replication.drops", "count"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_trace::{parse_json, Json};
    use std::collections::BTreeSet;

    /// A letter or digit, then at most 63 more letters, digits, `_`, `.`
    /// or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "illegal metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {:?}", m.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
    }

    fn declared(spec: &Json, section: &str) -> BTreeSet<(String, String)> {
        spec.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> BTreeSet<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = parse_json(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&spec, "end_to_end"), printed(END_TO_END));
        assert_eq!(declared(&spec, "per_layer"), printed(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
