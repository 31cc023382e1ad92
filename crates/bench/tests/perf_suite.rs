//! Harness-level observability guarantee: `perf::run_workload` produces a
//! trace-backed [`WorkloadResult`] isolated from earlier trace state.
//!
//! [`WorkloadResult`]: nde_bench::perf::WorkloadResult

use nde_bench::perf;
use nde_trace as trace;

#[test]
fn run_workload_captures_counters_and_spans() {
    let path = std::env::temp_dir().join(format!("nde_perf_suite_{}.jsonl", std::process::id()));

    // Pollute global state first: run_workload must reset it away.
    trace::configure(trace::Sink::Human, None);
    trace::counter("test.stale").add(99);
    trace::configure(trace::Sink::Off, None);

    let result = perf::run_workload("unit", &path, || {
        {
            let _s = trace::span("test.phase_a");
            trace::counter("test.work_items").add(7);
        }
        {
            let _s = trace::span("test.phase_a");
        }
        Some(7)
    });

    assert_eq!(result.name, "unit");
    assert!(result.wall_ms >= 0.0);
    assert!(result.rows_per_sec.unwrap() > 0.0);
    assert_eq!(result.counters.get("test.work_items"), Some(&7));
    assert!(
        !result.counters.contains_key("test.stale"),
        "pre-existing state must not leak into the workload: {:?}",
        result.counters
    );
    let phase = result.spans.get("test.phase_a").expect("span aggregated");
    assert_eq!(phase.count, 2);
    let root = result.spans.get("perf.workload").expect("root span");
    assert_eq!(root.count, 1);
    assert!(root.total_us >= phase.total_us);

    // run_workload must leave tracing off and state clean for the next
    // workload in the suite.
    assert_eq!(trace::counter_value("test.work_items"), 0);
    let _ = std::fs::remove_file(&path);
}
