//! Unit tests for the trace data model and exporters: JSONL and Chrome
//! trace-event outputs round-trip through serde and are accepted by the
//! minimal schema checks; malformed traces (NaN fields, non-monotone
//! timestamps, misused durations) are rejected.

#![cfg(feature = "trace")]

use mfb_obs::export::{check_chrome, check_events, check_jsonl, from_jsonl, to_chrome, to_jsonl};
use mfb_obs::{
    counter_totals, install, instant, stage_summaries, EventKind, Field, FieldValue,
    TraceCollector, TraceEvent,
};

/// Serializes the tests that install a collector. `enabled()` counts
/// installed collectors across the whole process, so a test asserting it
/// is false again would race with any test holding a collector on
/// another thread of the test harness.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds a small real trace through the public macro/guard API.
fn sample_trace() -> mfb_obs::Trace {
    let _exclusive = exclusive();
    let collector = TraceCollector::new();
    let guard = install(&collector);
    {
        let _outer = mfb_obs::obs_span!("stage.place", attempt = 0u64, seed = 42u64);
        {
            let _inner = mfb_obs::obs_span!("place.sa", components = 7u64);
            mfb_obs::obs_counter!("sa.proposals", 1000u64);
            mfb_obs::obs_counter!("sa.accepted", 300u64);
        }
        mfb_obs::obs_instant!("cache.placement.miss", stage = "placement");
    }
    drop(guard);
    collector.finish()
}

#[test]
fn jsonl_round_trips_and_passes_schema_check() {
    let trace = sample_trace();
    assert_eq!(trace.open_spans, 0, "all spans closed");
    assert!(!trace.events.is_empty());

    let jsonl = to_jsonl(&trace.events);
    assert_eq!(jsonl.lines().count(), trace.events.len());
    let parsed = from_jsonl(&jsonl).expect("jsonl parses back");
    assert_eq!(parsed, trace.events, "byte-level round-trip through serde");
    assert_eq!(check_jsonl(&jsonl), Ok(trace.events.len()));
}

#[test]
fn chrome_export_passes_schema_check_and_covers_all_kinds() {
    let trace = sample_trace();
    let chrome = to_chrome(&trace.events);
    assert_eq!(check_chrome(&chrome), Ok(trace.events.len()));
    // All three phase letters appear: complete spans, counters, instants.
    for ph in ["\"ph\":\"X\"", "\"ph\":\"C\"", "\"ph\":\"i\""] {
        assert!(chrome.contains(ph), "missing {ph} in {chrome}");
    }
}

#[test]
fn timestamps_are_monotone_and_spans_nest_within_parents() {
    let trace = sample_trace();
    let mut last = 0;
    for e in &trace.events {
        assert!(e.t_ns >= last, "sorted export is monotone");
        last = e.t_ns;
    }
    let outer = trace.spans_named("stage.place").next().expect("outer span");
    let inner = trace.spans_named("place.sa").next().expect("inner span");
    assert!(inner.t_ns >= outer.t_ns);
    assert!(inner.t_ns + inner.dur_ns <= outer.t_ns + outer.dur_ns);
    assert_eq!(outer.u64_field("seed"), Some(42));
}

fn event(seq: u64, t_ns: u64) -> TraceEvent {
    TraceEvent {
        seq,
        tid: 1,
        kind: EventKind::Instant,
        name: "x".to_string(),
        t_ns,
        dur_ns: 0,
        value: 0,
        fields: Vec::new(),
    }
}

#[test]
fn schema_check_rejects_malformed_traces() {
    // Non-monotone timestamps.
    let bad = vec![event(0, 10), event(1, 5)];
    assert!(check_events(&bad).unwrap_err().contains("monotone"));

    // NaN float field.
    let mut nan = event(0, 0);
    nan.fields.push(Field::new("ratio", f64::NAN));
    assert!(check_events(&[nan]).unwrap_err().contains("finite"));

    // Duration on a non-span event.
    let mut with_dur = event(0, 0);
    with_dur.dur_ns = 7;
    assert!(check_events(&[with_dur]).unwrap_err().contains("duration"));

    // Empty name.
    let mut unnamed = event(0, 0);
    unnamed.name.clear();
    assert!(check_events(&[unnamed]).unwrap_err().contains("name"));

    // The same malformations are caught after JSONL serialization.
    let bad_jsonl = to_jsonl(&[event(0, 10), event(1, 5)]);
    assert!(check_jsonl(&bad_jsonl).is_err());
}

#[test]
fn field_values_round_trip_every_variant() {
    let mut e = event(0, 0);
    e.fields = vec![
        Field::new("u", 3u64),
        Field::new("i", -4i64),
        Field::new("f", 2.5f64),
        Field::new("s", "text"),
        Field::new("b", true),
    ];
    let json = serde_json::to_string(&e).unwrap();
    let back: TraceEvent = serde_json::from_str(&json).unwrap();
    assert_eq!(back, e);
    assert_eq!(back.field("f"), Some(&FieldValue::F64(2.5)));
    assert_eq!(back.str_field("s"), Some("text"));
}

#[test]
fn summaries_aggregate_spans_and_counters_deterministically() {
    let trace = sample_trace();
    let stages = stage_summaries(&trace.events);
    let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["place.sa", "stage.place"], "sorted by name");
    for s in &stages {
        assert_eq!(s.count, 1);
        assert!(s.total_ms >= 0.0 && s.max_ms <= s.total_ms + 1e-9);
        assert_eq!(s.hist_us_log2.iter().sum::<u64>(), s.count);
    }
    let counters = counter_totals(&trace.events);
    assert_eq!(counters.len(), 2);
    assert_eq!(counters[0].name, "sa.accepted");
    assert_eq!(counters[0].total, 300);
    assert_eq!(counters[1].name, "sa.proposals");
    assert_eq!(counters[1].total, 1000);
}

#[test]
fn no_collector_means_no_recording_and_finish_counts_open_spans() {
    let _exclusive = exclusive();
    // No install: probes are inert.
    {
        let _span = mfb_obs::obs_span!("stage.route");
        mfb_obs::obs_counter!("astar.expansions", 5u64);
    }
    let collector = TraceCollector::new();
    let guard = install(&collector);
    let leaked = mfb_obs::obs_span!("leaky");
    let open_now = collector.finish().open_spans;
    drop(leaked);
    drop(guard);
    let trace = collector.finish();
    assert_eq!(open_now, 1, "finish sees the still-open span");
    assert_eq!(trace.open_spans, 0);
    assert_eq!(
        trace.events.len(),
        1,
        "only the installed-window span recorded"
    );
    assert_eq!(trace.events[0].name, "leaky");
}

#[test]
fn install_nests_and_restores_the_previous_collector() {
    let _exclusive = exclusive();
    let outer = TraceCollector::new();
    let g1 = install(&outer);
    instant("outer.before", Vec::new());
    {
        let inner = TraceCollector::new();
        let g2 = install(&inner);
        instant("inner.only", Vec::new());
        drop(g2);
        assert_eq!(inner.finish().events.len(), 1);
    }
    instant("outer.after", Vec::new());
    drop(g1);
    let trace = outer.finish();
    let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["outer.before", "outer.after"]);
    assert!(!mfb_obs::enabled(), "all guards dropped");
}

#[test]
fn collector_propagates_across_threads_with_distinct_tids() {
    let _exclusive = exclusive();
    let collector = TraceCollector::new();
    let guard = install(&collector);
    let handle = mfb_obs::current().expect("installed");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let h = handle.clone();
            scope.spawn(move || {
                let _g = install(&h);
                let _span = mfb_obs::obs_span!("worker.step");
            });
        }
    });
    drop(guard);
    let trace = collector.finish();
    let tids: std::collections::BTreeSet<u64> =
        trace.spans_named("worker.step").map(|e| e.tid).collect();
    assert_eq!(trace.events.len(), 2);
    assert_eq!(tids.len(), 2, "each worker thread has its own tid");
}
