//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` lists the same names (a test checks the two agree),
//! and [`Report::to_json`] refuses to print a result that lacks a declared
//! name or carries an undeclared one.

use std::collections::BTreeMap;

/// End-to-end metrics: host cost as a user of the system sees it. Printed
/// with tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solo_minstr_s", "Minstr/s"),
    ("pair_minstr_s", "Minstr/s"),
    ("runs_s", "1/s"),
    ("req_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run on every workload. A layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vm.interp.solo_ms", "ms"),
    ("vm.interp.instructions", "count"),
    ("vm.snapshot.us_per_kb", "us/KB"),
    ("vm.restore.us_per_kb", "us/KB"),
    ("vm.snapshot.kb", "KB"),
    ("core.primary.self_ms", "ms"),
    ("core.primary.ns_per_record", "ns"),
    ("core.primary.records", "count"),
    ("core.primary.frames", "count"),
    ("core.primary.bytes_logged", "bytes"),
    ("core.primary.flushes", "count"),
    ("core.codec.records", "count"),
    ("core.codec.encode_ns_per_record", "ns"),
    ("core.codec.seal_ns_per_kb", "ns/KB"),
    ("core.codec.open_ns_per_kb", "ns/KB"),
    ("core.codec.decode_ns_per_record", "ns"),
    ("core.codec.threads", "count"),
    ("core.codec.pipelined_x", "x"),
    ("core.codec.pipelined_frames", "count"),
    ("core.codec.pipelined_1t_ms", "ms"),
    ("core.codec.pipelined_nt_ms", "ms"),
    ("core.codec.pipelined_compact_x", "x"),
    ("core.codec.pipelined_compact_frames", "count"),
    ("core.codec.pipelined_compact_1t_ms", "ms"),
    ("core.codec.pipelined_compact_nt_ms", "ms"),
    ("core.backup.self_ms", "ms"),
    ("core.pair.drive_ms", "ms"),
    ("core.pair.hot_ms", "ms"),
    ("core.pair.residual_ms", "ms"),
    ("core.group.step_ms_p50", "ms"),
    ("core.group.step_ms_tail", "ms"),
    ("core.group.step_tail_pct", "%"),
    ("core.group.step_samples", "count"),
    ("core.group.takeover_ms_p50", "ms"),
    ("core.group.takeover_ms_tail", "ms"),
    ("core.group.takeover_tail_pct", "%"),
    ("core.group.takeover_samples", "count"),
    ("core.group.failovers", "count"),
    ("core.group.evictions", "count"),
    ("core.group.epochs_cut", "count"),
    ("core.group.snapshot_bytes", "bytes"),
    ("core.group.snapshot_chunks", "count"),
    ("core.group.votes_sent", "count"),
    ("netsim.lossy.host_ms", "ms"),
    ("netsim.lossy.armed_ms", "ms"),
    ("netsim.lossy.unarmed_ms", "ms"),
    ("netsim.lossy.messages", "count"),
    ("netsim.lossy.retransmits", "count"),
    ("netsim.lossy.nacks", "count"),
    ("netsim.lossy.drops", "count"),
    ("netsim.lossy.corrupted", "count"),
    ("netsim.lossy.useful_ratio", "ratio"),
    ("netsim.shared.host_ms", "ms"),
    ("netsim.shared.wall_ratio", "x"),
    ("netsim.shared.wall_ms", "ms"),
    ("netsim.shared.unshared_wall_ms", "ms"),
    ("netsim.shared.frames", "count"),
    ("netsim.shared.bytes", "bytes"),
    ("netsim.shared.merged_intervals", "count"),
    ("core.parallel.scaling", "x"),
    ("core.parallel.threads", "count"),
    ("core.parallel.serial_ms", "ms"),
    ("core.parallel.threaded_ms", "ms"),
    ("core.parallel.windows", "count"),
    ("core.parallel.barrier_waits", "count"),
    ("core.fleet.completed", "count"),
    ("core.fleet.lost", "count"),
    ("core.fleet.failovers_absorbed", "count"),
    ("core.fleet.reintegrated", "count"),
    ("sim.pair.lock_overhead_x", "x"),
    ("sim.pair.ts_overhead_x", "x"),
    ("sim.group.failover_ms_p50", "ms"),
    ("sim.group.failover_ms_max", "ms"),
    ("sim.group.failover_samples", "count"),
    ("sim.group.zero_detection_failovers", "count"),
    ("sim.fleet.commit_p50_us", "us"),
    ("sim.fleet.commit_p99_us", "us"),
    ("sim.fleet.trunk_util", "ratio"),
    ("sim.fleet.backlog_peak", "count"),
    ("sim.fleet.makespan_ms", "ms"),
    ("trace.overhead_x", "x"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.untraced_pass_ms", "ms"),
    ("trace.spans", "count"),
    ("host.kernel_ms", "ms"),
];

/// True when `name` is a legal metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The last line the benchmark prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed the output check.
    pub failed: u64,
    /// Cross-checks outside single operations (e.g. reproduced counts).
    pub checks_ok: bool,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Renders the result as one JSON object, with exactly the metrics of
    /// `catalogue`.
    ///
    /// # Errors
    /// Names a declared metric that has no value or an illegal name, or a
    /// value that is not declared or not finite.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        if let Some(extra) = self.values.keys().find(|k| !catalogue.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not legal"));
            }
            let v = self.values.get(name).ok_or_else(|| format!("metric {name} has no value"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        let correct = self.checks_ok && self.failed == 0 && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("value opens") + 1..];
                s[..s.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_names_are_the_printed_ones() {
        let json = benchmark_json();
        let declared =
            |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), declared(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), declared(PER_LAYER));
        for w in names_in(&json, "workloads") {
            assert!(crate::WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
        }
        for n in names_in(&json, "end_to_end").iter().chain(&names_in(&json, "per_layer")) {
            assert!(valid_name(n), "{n}");
        }
    }

    #[test]
    fn a_result_must_carry_every_declared_metric() {
        let mut r = Report { attempted: 3, checks_ok: true, ..Report::default() };
        for (n, _) in END_TO_END {
            r.values.insert(n, 1.5);
        }
        let line = r.to_json(END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": 1.5")), "{n}");
        }
        r.values.remove("req_s");
        assert!(r.to_json(END_TO_END).is_err());
        r.values.insert("req_s", 2.0);
        r.values.insert("vm.interp.solo_ms", 2.0);
        assert!(r.to_json(END_TO_END).is_err());
        r.values.remove("vm.interp.solo_ms");
        r.failed = 1;
        assert!(r.to_json(END_TO_END).expect("complete").starts_with("{\"correct\": false"));
    }
}
