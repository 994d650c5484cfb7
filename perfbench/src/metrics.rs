//! The benchmark's metric catalogue: every name it prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! self-tests keep the two in step.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("requests_per_sec", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_overhead_mean_ms", "ms"),
    ("sim_e2e_p50_ms", "ms"),
    ("sim_e2e_p999_ms", "ms"),
    ("sim_cold_start_ratio", "ratio"),
    ("sim_cpu_cost_s", "cpu-s"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.trace_build_s", "s"),
    ("workloads.stream_build_s", "s"),
    ("chain.dag_build_s", "s"),
    ("platform.shard.replay_s", "s"),
    ("platform.shard.des_events", "count"),
    ("platform.shard.des_events_per_request", "count"),
    ("platform.shard.des_events_per_sec", "1/s"),
    ("platform.shard.barrier_wait_s", "s"),
    ("platform.shard.windows", "count"),
    ("platform.shard.merge_s", "s"),
    ("platform.shard.queue_peak", "count"),
    ("platform.shard.scaling_efficiency", "ratio"),
    ("platform.stream.audit_overhead_s", "s"),
    ("platform.stream.audit_self_s", "s"),
    ("platform.bus.events_delivered", "count"),
    ("platform.stream.ns_per_event", "ns"),
    ("platform.export.report_serialize_s", "s"),
    ("platform.export.report_bytes", "bytes"),
    ("platform.export.digest_s", "s"),
    ("platform.export.audit_serialize_s", "s"),
    ("platform.metastore.append_ms_p50", "ms"),
    ("platform.metastore.append_ms_max", "ms"),
    ("platform.metastore.checkpoint_bytes", "bytes"),
    ("xanadu.serve.epoch_overhead_s", "s"),
    ("xanadu.serve.checkpoints", "count"),
    ("core.policy.plan_us_p50", "us"),
    ("core.policy.plan_us_p99", "us"),
    ("core.mlp.misses_per_request", "count"),
    ("sandbox.pool.dispatch_us", "us"),
    ("sandbox.workers.useful_ratio", "ratio"),
    ("sandbox.workers_spawned_per_request", "count"),
    ("platform.hosts.place_us", "us"),
    ("platform.hosts.cross_host_cold", "count"),
    ("platform.hosts.retargets_colocated", "count"),
    ("platform.faults.injected", "count"),
    ("platform.faults.retries", "count"),
    ("bench.tracing_overhead_s", "s"),
];

/// One printed metric: `(name, value, unit)`.
pub type Row = (&'static str, f64, &'static str);

/// Metric values keyed by name, in insertion order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values of `catalogue` in catalogue order; a missing name is a
    /// bug in the benchmark.
    pub fn ordered(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<Row> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &serde_json::Value, key: &str) -> Vec<String> {
        doc[key]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| m["name"].as_str().expect("name").to_string())
            .collect()
    }

    #[test]
    fn every_name_matches_the_allowed_alphabet() {
        let all = Kind::ALL
            .iter()
            .map(|k| k.name())
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n));
        for name in all {
            assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (entry, (name, unit)) in doc[key].as_array().unwrap().iter().zip(catalogue) {
                assert_eq!(entry["unit"].as_str(), Some(*unit), "unit of {name}");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }
}
