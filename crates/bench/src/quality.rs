//! Machine-readable data-quality snapshots (`PROFILE_*.json`) and the
//! drift gate — the data counterpart of [`crate::perf`].
//!
//! A [`ProfileSnapshot`] is one run of the seeded Figure-3 pipeline under
//! `NDE_QUALITY=full`: the full [`TableProfile`] sketch state observed at
//! every operator boundary, keyed `"{index:02}:{operator label}"` so the
//! pipeline *shape* is part of the contract. The committed
//! `PROFILE_baseline.json` at the repo root is the reference;
//! `quality_report --check` re-runs the pipeline and scores every
//! operator's profile against it with [`nde_quality::diff_profiles`].
//!
//! Gating philosophy mirrors the perf gate: the pipeline inputs are
//! seeded and the sketches deterministic, so a healthy check shows *zero*
//! drift everywhere. Any [`Severity::Fail`] tier — or a change in the
//! operator sequence itself — exits non-zero; [`Severity::Warn`] findings
//! are printed but pass.

use crate::gate::{self, GateReport};
use nde_quality::{diff_profiles, DriftThresholds, OpProfile, Severity, TableProfile};
use nde_trace::json::{self, JsonValue};

/// Version stamp written into every profile snapshot; bump when the
/// schema changes shape so stale baselines fail loudly.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// One operator boundary's profile within a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// Snapshot key: `"{index:02}:{operator label}"`, where index is the
    /// post-order execution position — so reordering the plan is visible
    /// even when labels collide.
    pub key: String,
    /// The full sketch state observed at that boundary.
    pub profile: TableProfile,
}

/// A versioned data-quality snapshot (`PROFILE_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Schema version ([`PROFILE_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Free-form label (`baseline`, a branch name, a CI run id).
    pub label: String,
    /// One entry per profiled operator boundary, in execution order.
    pub operators: Vec<OperatorProfile>,
}

impl ProfileSnapshot {
    /// Builds a snapshot from the profiles a pipeline run left in the
    /// `nde-quality` registry (drained with [`nde_quality::take_profiles`]),
    /// stamping each with its execution index.
    pub fn from_run(label: &str, ops: Vec<OpProfile>) -> Self {
        ProfileSnapshot {
            schema_version: PROFILE_SCHEMA_VERSION,
            label: label.to_owned(),
            operators: ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| OperatorProfile {
                    key: format!("{i:02}:{}", op.op),
                    profile: op.profile,
                })
                .collect(),
        }
    }

    /// Renders the snapshot as JSON: pretty at the top level (one line
    /// per operator, so git diffs localize to the operator that changed),
    /// with each profile's sketch state on its operator's line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        gate::write_header(&mut out, self.schema_version, &self.label);
        out.push_str("  \"operators\": [\n");
        for (i, op) in self.operators.iter().enumerate() {
            out.push_str("    {\"key\": \"");
            json::escape_into(&mut out, &op.key);
            out.push_str("\", \"profile\": ");
            json::write_value(&mut out, &op.profile.to_json_value());
            out.push('}');
            out.push_str(if i + 1 < self.operators.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a snapshot previously written by [`ProfileSnapshot::to_json`].
    /// Rejects unknown schema versions.
    pub fn from_json(input: &str) -> Result<ProfileSnapshot, String> {
        let (value, label) = gate::parse_header(input, PROFILE_SCHEMA_VERSION)?;
        let raw_ops = match value.get("operators") {
            Some(JsonValue::Array(items)) => items,
            _ => return Err("missing operators array".into()),
        };
        let mut operators = Vec::with_capacity(raw_ops.len());
        for op in raw_ops {
            let key = op
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or("operator missing key")?
                .to_owned();
            let profile = op
                .get("profile")
                .ok_or_else(|| format!("operator {key} missing profile"))
                .and_then(|p| {
                    TableProfile::from_json_value(p).map_err(|e| format!("operator {key}: {e}"))
                })?;
            operators.push(OperatorProfile { key, profile });
        }
        Ok(ProfileSnapshot {
            schema_version: PROFILE_SCHEMA_VERSION,
            label,
            operators,
        })
    }
}

/// Scores `new` against `base` operator-by-operator. Operators pair by
/// position; a key mismatch at any position (different operator, or a
/// reordered/reshaped plan) is a failure, as is an operator-count change.
/// Within a pair, [`diff_profiles`] scores every column and the worst
/// tier decides.
pub fn check_snapshots(
    base: &ProfileSnapshot,
    new: &ProfileSnapshot,
    thresholds: &DriftThresholds,
) -> GateReport {
    let mut report = GateReport::default();
    if base.operators.len() != new.operators.len() {
        report.fail(format!(
            "operator count changed: baseline has {}, this run has {}",
            base.operators.len(),
            new.operators.len()
        ));
    }
    for (b, n) in base.operators.iter().zip(&new.operators) {
        if b.key != n.key {
            report.fail(format!(
                "pipeline shape changed: baseline operator {:?} vs current {:?}",
                b.key, n.key
            ));
            continue;
        }
        let drift = diff_profiles(&b.profile, &n.profile);
        let severity = drift.severity(thresholds);
        report.lines.push(format!(
            "{} [{severity}] rows {} -> {} (delta {:.4})",
            b.key, b.profile.rows, n.profile.rows, drift.row_delta
        ));
        for rendered in drift.render(thresholds).lines() {
            report.lines.push(rendered.trim_end().to_owned());
        }
        for finding in &drift.structural {
            report.fail(format!("{}: {finding}", b.key));
        }
        for col in &drift.columns {
            let tier = col.severity(thresholds);
            if tier != Severity::Ok {
                let (metric, value) = col.dominant_metric(thresholds);
                report.findings.push((
                    tier,
                    format!(
                        "{}: column {:?} drifted ({metric}={value:.4})",
                        b.key, col.column
                    ),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_quality::ColumnSketch;

    fn op(key: &str, nulls_every: u64) -> OperatorProfile {
        let mut col = ColumnSketch::numeric("x");
        for i in 0..600u64 {
            col.push_num(if i % nulls_every == 0 {
                None
            } else {
                Some(i as f64)
            });
        }
        let mut profile = TableProfile::with_columns(vec![col]);
        profile.rows = 600;
        OperatorProfile {
            key: key.to_owned(),
            profile,
        }
    }

    fn snapshot(ops: Vec<OperatorProfile>) -> ProfileSnapshot {
        ProfileSnapshot {
            schema_version: PROFILE_SCHEMA_VERSION,
            label: "test".into(),
            operators: ops,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = snapshot(vec![op("00:Source[t]", 7), op("01:Filter[x > 0]", 7)]);
        let rendered = snap.to_json();
        let parsed = ProfileSnapshot::from_json(&rendered).unwrap();
        assert_eq!(parsed, snap, "lossless round trip of full sketch state");
        assert_eq!(parsed.to_json(), rendered, "stable bytes");
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut snap = snapshot(vec![op("00:Source[t]", 7)]);
        snap.schema_version += 1;
        let err = ProfileSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn identical_snapshots_pass() {
        let snap = snapshot(vec![op("00:Source[t]", 7)]);
        let report = check_snapshots(&snap, &snap, &DriftThresholds::default());
        assert!(report.passed(), "{:?}", report.findings);
        assert!(report.of(Severity::Warn).is_empty());
    }

    #[test]
    fn null_rate_jump_fails_the_gate() {
        let base = snapshot(vec![op("00:Source[t]", 600)]); // ~no nulls
        let leaky = snapshot(vec![op("00:Source[t]", 5)]); // 20% nulls
        let report = check_snapshots(&base, &leaky, &DriftThresholds::default());
        assert!(!report.passed());
        assert!(
            report.of(Severity::Fail)[0].contains("null_rate"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn shape_changes_fail_regardless_of_content() {
        let base = snapshot(vec![op("00:Source[t]", 7), op("01:Filter[x > 0]", 7)]);
        let reordered = snapshot(vec![op("00:Filter[x > 0]", 7), op("01:Source[t]", 7)]);
        let report = check_snapshots(&base, &reordered, &DriftThresholds::default());
        assert!(!report.passed());
        assert!(report.of(Severity::Fail)[0].contains("shape changed"));

        let truncated = snapshot(vec![op("00:Source[t]", 7)]);
        let report = check_snapshots(&base, &truncated, &DriftThresholds::default());
        assert!(report
            .of(Severity::Fail)
            .iter()
            .any(|f| f.contains("operator count")));
    }
}
