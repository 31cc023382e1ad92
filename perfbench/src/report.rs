//! Turning a run's measurements into the reported metrics: the per-layer
//! table of the traced run, the self-time table, and the JSON result line.

use crate::layers::{self, Phase};
use std::fmt::Write as _;

/// What one run produced: metrics in report order plus the checks.
pub struct Outcome {
    /// Steps run.
    pub attempted: u64,
    /// Steps that failed, plus failed digest replays.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// `(queries, points scanned)` the workspace's k-d trees have counted so
/// far; they count only while its tracing is on.
pub fn kdtree_counters() -> (u64, u64) {
    (
        nde_trace::counter_value("kdtree.query"),
        nde_trace::counter_value("kdtree.points_scanned"),
    )
}

/// Prints the self-time table of the loop's benchmark-side spans: how much
/// of every step each layer covers, and what no layer span covers.
pub fn print_self_times(name: &str) {
    let step_total_s =
        layers::agg(Phase::Loop, "bench.step").map_or(0.0, |a| a.total.as_secs_f64());
    println!("self time per layer span over the loop ({name}):");
    println!(
        "  {:<34} {:>8} {:>12} {:>12} {:>8}",
        "span", "count", "total_ms", "self_ms", "of_step"
    );
    let mut spans = layers::phase_spans(Phase::Loop);
    spans.sort_by_key(|s| std::cmp::Reverse(s.1.self_time));
    for (span, agg) in spans {
        println!(
            "  {:<34} {:>8} {:>12.3} {:>12.3} {:>7.1}%",
            span,
            agg.count,
            agg.total.as_secs_f64() * 1e3,
            agg.self_time.as_secs_f64() * 1e3,
            100.0 * agg.self_time.as_secs_f64() / step_total_s.max(1e-12)
        );
    }
}

/// Per-layer metric names and units, in report order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("learners.encode_s", "s"),
    ("learners.encode_rows_per_s", "rows/s"),
    ("learners.encode_fit_s", "s"),
    ("learners.knn_fit_s", "s"),
    ("learners.knn_predict_s", "s"),
    ("learners.knn_queries", "count"),
    ("learners.kdtree_points_per_query", "points"),
    ("parallel.cache_build_s", "s"),
    ("parallel.cache_update_s", "s"),
    ("parallel.cache_updates", "count"),
    ("parallel.cache_mb", "MiB"),
    ("parallel.topk_build_s", "s"),
    ("importance.shapley_cached_s", "s"),
    ("importance.loo_topk_s", "s"),
    ("pipeline.datascope_s", "s"),
    ("pipeline.run_traced_s", "s"),
    ("pipeline.run_s", "s"),
    ("pipeline.whatif_s", "s"),
    ("pipeline.rows_out", "count"),
    ("quality.hook_s", "s"),
    ("quality.profile_s", "s"),
    ("quality.cells_per_s", "cells/s"),
    ("quality.drift_s", "s"),
    ("quality.detect_rate", "ratio"),
    ("quality.false_alarm_rate", "ratio"),
    ("core.repair_s", "s"),
    ("core.repairs", "count"),
    ("datagen.generate_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.step_coverage", "ratio"),
];

/// The first phase (loop, then first result, then set-up) in which `name`
/// ran, with how often that phase ran.
fn phase_of(name: &'static str) -> Option<(Phase, f64)> {
    [
        (Phase::Loop, "bench.step"),
        (Phase::Start, "bench.start"),
        (Phase::Setup, "bench.setup"),
    ]
    .into_iter()
    .find(|&(phase, _)| layers::agg(phase, name).is_some() || layers::counted(phase, name) > 0.0)
    .map(|(phase, marker)| {
        let runs = layers::agg(phase, marker).map_or(1, |a| a.count);
        (phase, runs.max(1) as f64)
    })
}

/// Layer time or count per occurrence of the phase it runs in: per step
/// for loop work, per build for first-result work, per set-up otherwise.
fn per_occurrence(name: &'static str, span_count: bool) -> f64 {
    let Some((phase, runs)) = phase_of(name) else {
        return 0.0;
    };
    let value = match layers::agg(phase, name) {
        Some(agg) if span_count => agg.count as f64,
        Some(agg) => agg.total.as_secs_f64(),
        None => layers::counted(phase, name),
    };
    value / runs
}

/// Every per-layer metric in [`LAYER_METRICS`] order: the values given in
/// `extra`, the rest from the recorded layer spans.
pub fn per_layer(extra: &[(&'static str, f64)]) -> Vec<(&'static str, f64, &'static str)> {
    let encode_rate = phase_of("learners.encode_s").map_or(0.0, |(phase, _)| {
        let time = layers::agg(phase, "learners.encode_s").map_or(0.0, |a| a.total.as_secs_f64());
        layers::counted(phase, "learners.encode_rows") / time.max(1e-12)
    });
    let step_coverage = layers::agg(Phase::Loop, "bench.step").map_or(0.0, |a| {
        1.0 - a.self_time.as_secs_f64() / a.total.as_secs_f64().max(1e-12)
    });
    LAYER_METRICS
        .iter()
        .map(|&(metric, unit)| {
            let value = if let Some(&(_, v)) = extra.iter().find(|(n, _)| *n == metric) {
                v
            } else {
                match metric {
                    "learners.encode_rows_per_s" => encode_rate,
                    "parallel.cache_updates" => per_occurrence("parallel.cache_update_s", true),
                    "core.repairs" => per_occurrence("core.repair_s", true),
                    "bench.step_coverage" => step_coverage,
                    _ => per_occurrence(metric, false),
                }
            };
            (metric, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect()
}

/// The result line: correctness, step counts and every metric with its unit.
pub fn render_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
