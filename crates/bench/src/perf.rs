//! Machine-readable perf snapshots (`BENCH_*.json`) and regression
//! diffing — the enforcement half of the observability stack.
//!
//! A [`Snapshot`] is one run of the fixed workload suite executed by the
//! `perf_report` binary: per workload, the wall time, an optional
//! throughput figure, and the trace-derived evidence (counter values and
//! per-name span totals) aggregated with [`nde_trace::analyze`]. The
//! committed `BENCH_baseline.json` at the repo root is the reference;
//! `perf_report --check` re-runs the suite and diffs against it with
//! [`diff_snapshots`].
//!
//! Gating philosophy: **wall times gate loosely, counters gate tightly.**
//! Wall clock varies across machines and CI runners, so its threshold is
//! a generous ratio that only catches catastrophic slowdowns (an
//! accidental O(n²), an index silently disabled). Work counters —
//! `kdtree.points_scanned`, `neighbor_cache.hit`/`miss`/`repair`,
//! per-operator `rows_out` spans — are deterministic for a fixed workload
//! (bit-identical across `NDE_THREADS` by construction), so even a small
//! drift is a real behavioural change. `parallel.*` counters are the
//! exception (they scale with worker count) and are skipped when the two
//! snapshots ran with different thread counts.

use crate::gate::{self, GateReport};
use nde_trace::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp written into every snapshot; bump when the schema
/// changes shape so stale baselines fail loudly instead of mis-diffing.
pub const SCHEMA_VERSION: u64 = 1;

/// Per-name span totals captured in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal {
    /// Number of spans closed under this name.
    pub count: u64,
    /// Summed inclusive time, microseconds.
    pub total_us: u64,
}

/// One workload's measurements within a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name (stable across runs; the diff key).
    pub name: String,
    /// Wall-clock time for the whole workload, milliseconds.
    pub wall_ms: f64,
    /// Optional throughput: workload-defined rows (or queries) per second.
    pub rows_per_sec: Option<f64>,
    /// Final counter values from the workload's trace.
    pub counters: BTreeMap<String, u64>,
    /// Per-name span aggregates from the workload's trace.
    pub spans: BTreeMap<String, SpanTotal>,
}

/// A versioned, machine-readable perf snapshot (`BENCH_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Free-form label (`baseline`, a branch name, a CI run id).
    pub label: String,
    /// `nde_parallel::num_threads()` when the suite ran.
    pub threads: usize,
    /// One entry per suite workload, in execution order.
    pub workloads: Vec<WorkloadResult>,
}

impl Snapshot {
    /// Renders the snapshot as pretty-printed JSON (stable key order:
    /// maps are `BTreeMap`s), suitable for committing as a baseline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        gate::write_header(&mut out, self.schema_version, &self.label);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        out.push_str("  \"workloads\": [\n");
        for (w_idx, w) in self.workloads.iter().enumerate() {
            out.push_str("    {\n      \"name\": \"");
            json::escape_into(&mut out, &w.name);
            out.push_str("\",\n");
            out.push_str("      \"wall_ms\": ");
            json::write_f64(&mut out, w.wall_ms);
            out.push_str(",\n      \"rows_per_sec\": ");
            match w.rows_per_sec {
                Some(v) => json::write_f64(&mut out, v),
                None => out.push_str("null"),
            }
            out.push_str(",\n      \"counters\": ");
            write_members(&mut out, w.counters.iter().map(|(n, v)| (n, v.to_string())));
            out.push_str(",\n      \"spans\": ");
            write_members(
                &mut out,
                w.spans.iter().map(|(n, s)| {
                    let total = format!("{{\"count\": {}, \"total_us\": {}}}", s.count, s.total_us);
                    (n, total)
                }),
            );
            out.push_str(if w_idx + 1 < self.workloads.len() {
                "\n    },\n"
            } else {
                "\n    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a snapshot previously written by [`Snapshot::to_json`].
    /// Rejects unknown schema versions.
    pub fn from_json(input: &str) -> Result<Snapshot, String> {
        let (value, label) = gate::parse_header(input, SCHEMA_VERSION)?;
        let threads = value
            .get("threads")
            .and_then(JsonValue::as_u64)
            .ok_or("missing threads")? as usize;
        let raw_workloads = match value.get("workloads") {
            Some(JsonValue::Array(items)) => items,
            _ => return Err("missing workloads array".into()),
        };
        let mut workloads = Vec::with_capacity(raw_workloads.len());
        for w in raw_workloads {
            let name = w
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("workload missing name")?
                .to_owned();
            let wall_ms = w
                .get("wall_ms")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("workload {name} missing wall_ms"))?;
            let rows_per_sec = match w.get("rows_per_sec") {
                None | Some(JsonValue::Null) => None,
                Some(v) => v.as_f64(),
            };
            let mut counters = BTreeMap::new();
            if let Some(JsonValue::Object(members)) = w.get("counters") {
                for (key, v) in members {
                    counters.insert(
                        key.clone(),
                        v.as_u64()
                            .ok_or_else(|| format!("counter {key} not a u64"))?,
                    );
                }
            }
            let mut spans = BTreeMap::new();
            if let Some(JsonValue::Object(members)) = w.get("spans") {
                for (key, v) in members {
                    spans.insert(
                        key.clone(),
                        SpanTotal {
                            count: v
                                .get("count")
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| format!("span {key} missing count"))?,
                            total_us: v
                                .get("total_us")
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| format!("span {key} missing total_us"))?,
                        },
                    );
                }
            }
            workloads.push(WorkloadResult {
                name,
                wall_ms,
                rows_per_sec,
                counters,
                spans,
            });
        }
        Ok(Snapshot {
            schema_version: SCHEMA_VERSION,
            label,
            threads,
            workloads,
        })
    }
}

/// Writes a workload's name-keyed map as a JSON object, one member per
/// line (`{}` when empty).
fn write_members<'a>(out: &mut String, members: impl Iterator<Item = (&'a String, String)>) {
    out.push('{');
    let mut empty = true;
    for (name, value) in members {
        out.push_str(if empty {
            "\n        \""
        } else {
            ",\n        \""
        });
        json::escape_into(out, name);
        let _ = write!(out, "\": {value}");
        empty = false;
    }
    out.push_str(if empty { "}" } else { "\n      }" });
}

/// Noise thresholds for [`diff_snapshots`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// A workload regresses when `new_wall / base_wall` exceeds this
    /// ratio (and symmetrically for `rows_per_sec` shrinking by it).
    /// Deliberately generous: wall clock compares across machines.
    pub time_ratio: f64,
    /// A counter regresses when its relative change
    /// `|new − base| / max(base, 1)` exceeds this fraction. Tight:
    /// counters are deterministic for a fixed workload.
    pub counter_ratio: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            time_ratio: 10.0,
            counter_ratio: 0.05,
        }
    }
}

/// The deterministic numbers [`diff_snapshots`] gates tightly, keyed for
/// display: counter values and span *counts* (span totals are wall time and
/// stay ungated). `parallel.*` names scale with the worker count and are
/// left out when `skip_parallel`.
fn gated_counts(w: &WorkloadResult, skip_parallel: bool) -> BTreeMap<String, u64> {
    let keep = |name: &&String| !(skip_parallel && name.starts_with("parallel."));
    let counters = w.counters.iter().filter(|(n, _)| keep(n));
    let spans = w.spans.iter().filter(|(n, _)| keep(n));
    counters
        .map(|(n, &v)| (format!("counter {n}"), v))
        .chain(spans.map(|(n, span)| (format!("span {n} count"), span.count)))
        .collect()
}

/// Compares `new` against `base` under `thresholds`; see the module docs
/// for what gates and what doesn't. Regressions are [`GateReport::fail`]
/// findings; non-gating notes are [`GateReport::warn`] findings.
pub fn diff_snapshots(base: &Snapshot, new: &Snapshot, thresholds: &DiffThresholds) -> GateReport {
    let mut report = GateReport::default();
    let threads_differ = base.threads != new.threads;
    if threads_differ {
        report.warn(format!(
            "thread counts differ (base {}, new {}): parallel.* counters not gated",
            base.threads, new.threads
        ));
    }
    for base_w in &base.workloads {
        let Some(new_w) = new.workloads.iter().find(|w| w.name == base_w.name) else {
            report.fail(format!(
                "workload {:?} missing from new snapshot",
                base_w.name
            ));
            continue;
        };
        let wall_ratio = new_w.wall_ms / base_w.wall_ms.max(1e-9);
        report.lines.push(format!(
            "{}: wall {:.1}ms -> {:.1}ms ({}{:.2}x)",
            base_w.name,
            base_w.wall_ms,
            new_w.wall_ms,
            if wall_ratio >= 1.0 { "+" } else { "" },
            wall_ratio
        ));
        if wall_ratio > thresholds.time_ratio {
            report.fail(format!(
                "{}: wall time {:.1}ms vs baseline {:.1}ms exceeds {:.1}x threshold",
                base_w.name, new_w.wall_ms, base_w.wall_ms, thresholds.time_ratio
            ));
        }
        if let (Some(base_rps), Some(new_rps)) = (base_w.rows_per_sec, new_w.rows_per_sec) {
            report.lines.push(format!(
                "{}: throughput {:.0} -> {:.0} rows/s",
                base_w.name, base_rps, new_rps
            ));
            if new_rps * thresholds.time_ratio < base_rps {
                report.fail(format!(
                    "{}: throughput {:.0} rows/s vs baseline {:.0} exceeds {:.1}x threshold",
                    base_w.name, new_rps, base_rps, thresholds.time_ratio
                ));
            }
        }
        let new_counts = gated_counts(new_w, threads_differ);
        for (key, base_v) in gated_counts(base_w, threads_differ) {
            let Some(&new_v) = new_counts.get(&key) else {
                report.fail(format!(
                    "{}: {key} missing from new snapshot (baseline {base_v})",
                    base_w.name
                ));
                continue;
            };
            let rel = (new_v as f64 - base_v as f64).abs() / (base_v as f64).max(1.0);
            if rel > thresholds.counter_ratio {
                report.fail(format!(
                    "{}: {key} drifted {base_v} -> {new_v} ({:.1}% > {:.1}%)",
                    base_w.name,
                    rel * 100.0,
                    thresholds.counter_ratio * 100.0
                ));
            } else if new_v != base_v {
                report.lines.push(format!(
                    "{}: {key} {base_v} -> {new_v} (within tolerance)",
                    base_w.name
                ));
            }
        }
    }
    for new_w in &new.workloads {
        if !base.workloads.iter().any(|w| w.name == new_w.name) {
            report.warn(format!(
                "workload {:?} is new (not in baseline); re-generate the baseline to gate it",
                new_w.name
            ));
        }
    }
    report
}

/// Runs `work` as one suite workload: trace state is reset, the JSON sink
/// is pointed at `trace_path`, the closure runs and returns an optional
/// `(rows, )` work volume for throughput, and the resulting trajectory is
/// aggregated into a [`WorkloadResult`]. The trace file is left on disk
/// (CI uploads it on failure). The sink is returned to `Off` afterwards.
pub fn run_workload(
    name: &str,
    trace_path: &std::path::Path,
    work: impl FnOnce() -> Option<u64>,
) -> WorkloadResult {
    let _ = std::fs::remove_file(trace_path);
    nde_trace::flush();
    nde_trace::reset();
    nde_trace::configure(nde_trace::Sink::Json, Some(trace_path));

    let start = std::time::Instant::now();
    let rows = {
        let _root = nde_trace::span("perf.workload");
        work()
    };
    let wall = start.elapsed();
    nde_trace::report();
    nde_trace::configure(nde_trace::Sink::Off, None); // flush + close
    nde_trace::reset();

    let data = nde_trace::analyze::parse_jsonl_file(trace_path).unwrap_or_else(|e| {
        panic!(
            "workload {name}: cannot analyze own trace {}: {e}",
            trace_path.display()
        )
    });
    let spans = data
        .span_stats
        .iter()
        .map(|(span_name, &(count, total_us))| (span_name.clone(), SpanTotal { count, total_us }))
        .collect();
    WorkloadResult {
        name: name.to_owned(),
        wall_ms: wall.as_secs_f64() * 1e3,
        rows_per_sec: rows.map(|r| r as f64 / wall.as_secs_f64().max(1e-9)),
        counters: data.counters,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_quality::Severity;

    fn sample() -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            label: "test \"quoted\"".into(),
            threads: 4,
            workloads: vec![
                WorkloadResult {
                    name: "w1".into(),
                    wall_ms: 12.5,
                    rows_per_sec: Some(1000.0),
                    counters: BTreeMap::from([
                        ("kdtree.points_scanned".into(), u64::MAX),
                        ("parallel.chunks".into(), 64),
                    ]),
                    spans: BTreeMap::from([(
                        "phase.x".into(),
                        SpanTotal {
                            count: 3,
                            total_us: 999,
                        },
                    )]),
                },
                WorkloadResult {
                    name: "w2".into(),
                    wall_ms: 1.0,
                    rows_per_sec: None,
                    counters: BTreeMap::new(),
                    spans: BTreeMap::new(),
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snapshot = sample();
        let rendered = snapshot.to_json();
        let parsed = Snapshot::from_json(&rendered).unwrap();
        assert_eq!(parsed, snapshot, "lossless round trip incl. u64::MAX");
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut snapshot = sample();
        snapshot.schema_version = SCHEMA_VERSION + 1;
        let err = Snapshot::from_json(&snapshot.to_json()).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn identical_snapshots_pass_and_drift_gates() {
        let base = sample();
        let thresholds = DiffThresholds::default();
        assert!(diff_snapshots(&base, &base, &thresholds).passed());

        // Small wall-time noise passes; counter drift beyond tolerance
        // fails even when wall time is fine.
        let mut noisy = base.clone();
        noisy.workloads[0].wall_ms *= 2.0;
        assert!(diff_snapshots(&base, &noisy, &thresholds).passed());

        let mut drifted = base.clone();
        *drifted.workloads[0]
            .counters
            .get_mut("kdtree.points_scanned")
            .unwrap() = u64::MAX / 2;
        let report = diff_snapshots(&base, &drifted, &thresholds);
        assert!(!report.passed());
        assert!(
            report.of(Severity::Fail)[0].contains("points_scanned"),
            "{report:?}"
        );

        // Catastrophic wall-time blowup fails.
        let mut slow = base.clone();
        slow.workloads[0].wall_ms *= 100.0;
        assert!(!diff_snapshots(&base, &slow, &thresholds).passed());

        // Missing workload fails; the reverse direction is only a note.
        let mut missing = base.clone();
        missing.workloads.pop();
        assert!(!diff_snapshots(&base, &missing, &thresholds).passed());
        let grown = diff_snapshots(&missing, &base, &thresholds);
        assert!(grown.passed());
        assert!(grown
            .of(Severity::Warn)
            .iter()
            .any(|n| n.contains("is new")));
    }

    #[test]
    fn parallel_counters_skip_when_threads_differ() {
        let base = sample();
        let mut other = sample();
        other.threads = 8;
        *other.workloads[0]
            .counters
            .get_mut("parallel.chunks")
            .unwrap() = 9999;
        let report = diff_snapshots(&base, &other, &DiffThresholds::default());
        assert!(report.passed(), "{:?}", report.findings);
        assert!(report
            .of(Severity::Warn)
            .iter()
            .any(|n| n.contains("parallel.*")));

        // Same thread count: the same drift gates.
        other.threads = 4;
        assert!(!diff_snapshots(&base, &other, &DiffThresholds::default()).passed());
    }
}
