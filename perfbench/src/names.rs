//! The benchmark's metric vocabulary. `BENCHMARK.json` lists the same
//! names and units; every run checks that it printed exactly these.

/// End-to-end metric names and units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("modular.latency_p50_ms", "ms"),
    ("modular.latency_p99_ms", "ms"),
    ("mono.latency_p50_ms", "ms"),
    ("mono.latency_p99_ms", "ms"),
    ("modular.throughput_msgs_s", "msg/s"),
    ("mono.throughput_msgs_s", "msg/s"),
    ("modular.host_us_per_delivery", "us"),
    ("mono.host_us_per_delivery", "us"),
    ("modular.outage_s", "s"),
    ("mono.outage_s", "s"),
    ("modular.recovery_s", "s"),
    ("mono.recovery_s", "s"),
];

/// Per-layer metric names and units (`--trace 1`), as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 83] = [
    ("modular.sim.events_per_delivery", "count"),
    ("modular.sim.kernel_ns_per_event", "ns"),
    ("modular.sim.run_until_ns_per_delivery", "ns"),
    ("modular.net.codec_encode_ns_per_kib", "ns/KiB"),
    ("modular.net.codec_decode_ns_per_kib", "ns/KiB"),
    ("modular.core.driver_self_ns_per_delivery", "ns"),
    ("modular.chaos.oracle_ns_per_delivery", "ns"),
    ("modular.chaos.check_ns_per_delivery", "ns"),
    ("modular.bench.tap_self_ns_per_delivery", "ns"),
    ("modular.trace.ns_per_event", "ns"),
    ("modular.bench.trace_overhead_ratio", "ratio"),
    ("modular.framework.dispatch_self_ns_per_delivery", "ns"),
    ("modular.flow.self_ns_per_delivery", "ns"),
    ("modular.abcast.self_ns_per_delivery", "ns"),
    ("modular.consensus.self_ns_per_delivery", "ns"),
    ("modular.rbcast.self_ns_per_delivery", "ns"),
    ("modular.fd.self_ns_per_delivery", "ns"),
    ("mono.sim.events_per_delivery", "count"),
    ("mono.sim.kernel_ns_per_event", "ns"),
    ("mono.sim.run_until_ns_per_delivery", "ns"),
    ("mono.net.codec_encode_ns_per_kib", "ns/KiB"),
    ("mono.net.codec_decode_ns_per_kib", "ns/KiB"),
    ("mono.core.driver_self_ns_per_delivery", "ns"),
    ("mono.chaos.oracle_ns_per_delivery", "ns"),
    ("mono.chaos.check_ns_per_delivery", "ns"),
    ("mono.bench.tap_self_ns_per_delivery", "ns"),
    ("mono.trace.ns_per_event", "ns"),
    ("mono.bench.trace_overhead_ratio", "ratio"),
    ("mono.self_ns_per_delivery", "ns"),
    ("abcast.msgs_per_instance", "count"),
    ("abcast.kib_per_instance", "KiB"),
    ("consensus.msgs_per_instance", "count"),
    ("consensus.kib_per_instance", "KiB"),
    ("rbcast.msgs_per_instance", "count"),
    ("rbcast.kib_per_instance", "KiB"),
    ("modular.analysis.msgs_ratio", "ratio"),
    ("consensus.batch_m", "count"),
    ("modular.cpu.max_utilization", "ratio"),
    ("modular.cpu.mean_utilization", "ratio"),
    ("modular.durability.max_utilization", "ratio"),
    ("modular.flow.blocked_ratio", "ratio"),
    ("modular.core.generator_lag_ratio", "ratio"),
    ("modular.latency.queueing_ms", "ms"),
    ("modular.latency.transmission_ms", "ms"),
    ("modular.latency.cpu_ms", "ms"),
    ("modular.latency.durability_ms", "ms"),
    ("consensus.decide_ratio", "ratio"),
    ("abcast.idle_proposal_share", "ratio"),
    ("abcast.payload_pulls_per_instance", "count"),
    ("abcast.ring_repairs", "count"),
    ("abcast.retransmits", "count"),
    ("modular.fd.suspicions", "count"),
    ("modular.fd.member_updates", "count"),
    ("modular.chaos.dropped_stale_incarnation", "count"),
    ("consensus.round_changes", "count"),
    ("consensus.gap_requests", "count"),
    ("consensus.state_transfers", "count"),
    ("consensus.snapshot_transfers", "count"),
    ("consensus.rejoins_completed", "count"),
    ("consensus.reconfigs", "count"),
    ("mono.msgs_per_instance", "count"),
    ("mono.kib_per_instance", "KiB"),
    ("mono.analysis.msgs_ratio", "ratio"),
    ("mono.batch_m", "count"),
    ("mono.cpu.max_utilization", "ratio"),
    ("mono.cpu.mean_utilization", "ratio"),
    ("mono.durability.max_utilization", "ratio"),
    ("mono.flow.blocked_ratio", "ratio"),
    ("mono.core.generator_lag_ratio", "ratio"),
    ("mono.latency.queueing_ms", "ms"),
    ("mono.latency.transmission_ms", "ms"),
    ("mono.latency.cpu_ms", "ms"),
    ("mono.latency.durability_ms", "ms"),
    ("mono.decide_ratio", "ratio"),
    ("mono.fd.suspicions", "count"),
    ("mono.fd.member_updates", "count"),
    ("mono.chaos.dropped_stale_incarnation", "count"),
    ("mono.round_changes", "count"),
    ("mono.gap_requests", "count"),
    ("mono.state_transfers", "count"),
    ("mono.snapshot_transfers", "count"),
    ("mono.rejoins_completed", "count"),
    ("mono.reconfigs", "count"),
];

/// Checks that `printed` holds exactly the metrics of `expected`.
pub fn check(
    printed: &[(String, f64, &'static str)],
    expected: &[(&str, &str)],
) -> Result<(), String> {
    let mut got: Vec<(&str, &str)> = printed.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
    let mut want = expected.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
        let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
        Err(format!(
            "metrics differ from the list: missing {missing:?}, unlisted {extra:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..json[start..].find(']').expect("section closes") + start];
        let field = |entry: &str, name: &str| {
            let at = entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = section(&json, key);
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        }
        let workloads = section_names(&json);
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    fn section_names(json: &str) -> Vec<String> {
        let start = json.find("\"workloads\"").expect("workloads present");
        let body = &json[start..json[start..].find(']').expect("section closes") + start];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
            .collect()
    }

    #[test]
    fn check_reports_missing_and_unlisted_metrics() {
        let printed = vec![("a".to_string(), 1.0, "s"), ("b".to_string(), 2.0, "ms")];
        assert!(check(&printed, &[("b", "ms"), ("a", "s")]).is_ok());
        let err = check(&printed, &[("a", "s"), ("c", "s")]).unwrap_err();
        assert!(err.contains("\"c\"") && err.contains("\"b\""), "{err}");
    }
}
