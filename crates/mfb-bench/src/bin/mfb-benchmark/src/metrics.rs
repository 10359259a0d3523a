//! Every metric the benchmark prints, with its unit, and the result line.

/// End-to-end metrics, printed by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("exec_time_s_mean", "chip_s"),
    ("utilization_mean", "ratio"),
    ("channel_mm_mean", "mm"),
];

/// Per-layer metrics, printed by traced runs of every workload (zero where
/// the workload never enters the layer).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("place.busy_ms", "ms"),
    ("place.calls", "count"),
    ("place.sa_proposals", "count"),
    ("place.proposals_per_s", "1/s"),
    ("place.sa_accept_ratio", "ratio"),
    ("netlist.busy_ms", "ms"),
    ("route.busy_ms", "ms"),
    ("route.calls", "count"),
    ("route.astar_queries", "count"),
    ("route.astar_expansions", "count"),
    ("route.expansions_per_s", "1/s"),
    ("route.window_retries", "count"),
    ("route.rips", "count"),
    ("flow.busy_ms", "ms"),
    ("flow.self_ms", "ms"),
    ("flow.attempts_run", "count"),
    ("flow.attempts_used", "count"),
    ("flow.wasted_attempts", "count"),
    ("flow.attempt_yield", "ratio"),
    ("sched.busy_ms", "ms"),
    ("sched.calls", "count"),
    ("sim.replay_ms", "ms"),
    ("verify.drc_ms", "ms"),
    ("analyze.ms", "ms"),
    ("model.parse_ms", "ms"),
    ("archive.decode_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.schedule_hits", "count"),
    ("cache.schedule_misses", "count"),
    ("cache.netlist_hits", "count"),
    ("cache.netlist_misses", "count"),
    ("cache.placement_hits", "count"),
    ("cache.placement_misses", "count"),
    ("cache.routing_hits", "count"),
    ("cache.routing_misses", "count"),
    ("batch.prep_ms", "ms"),
    ("batch.solve_ms", "ms"),
    ("batch.occupancy", "ratio"),
    ("trace.jobs", "count"),
    ("trace.latency_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The metric `name` with its declared unit. Every printed metric is built
/// here, so nothing outside the two tables above can be printed.
///
/// # Panics
///
/// Panics on a name missing from both tables, or a non-finite value: both
/// are bugs in the benchmark.
pub fn metric(name: &'static str, value: f64) -> Metric {
    let (_, unit) = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"));
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, unit, value }
}

/// `num / den`, or zero when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// `(name, unit)` pairs of one metric section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc: serde_json::Value =
            serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let entries = doc[section].as_array().expect("metric sections are arrays");
        entries
            .iter()
            .map(|e| {
                let field = |k: &str| e[k].as_str().expect("name and unit are strings");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn printed_names_are_valid_and_declared_in_benchmark_json() {
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = declared(section);
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            for (name, _) in &printed {
                assert!(valid_name(name), "{name}");
            }
            assert_eq!(printed, declared, "{section} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn metric_looks_up_units_and_rejects_strays() {
        assert_eq!(metric("setup_s", 0.5).unit, "s");
        assert_eq!(metric("route.calls", 3.0).unit, "count");
        assert!(std::panic::catch_unwind(|| metric("nope", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| metric("setup_s", f64::NAN)).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let doc: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(doc["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
    }
}
