//! `monitor_quality`: monitor one incoming batch of letters per step. The
//! Figure 3 plan runs under `NDE_QUALITY=full`, which profiles every
//! operator's output; the raw batch is profiled too, and both are scored
//! for drift against a clean reference batch. Batches cycle through clean,
//! MCAR-missing `employer_rating` and shifted `employer_rating`.

use super::err;
use crate::layers::{count, time};
use crate::stats::Digest;
use crate::Workload;
use nde_core::pipeline_scenario::{figure3_plan, pipeline_sources};
use nde_datagen::errors::{inject_missing, inject_shift, Mechanism};
use nde_datagen::{HiringConfig, HiringScenario};
use nde_pipeline::exec::Sources;
use nde_pipeline::Plan;
use nde_quality::{
    diff_profiles, DriftReport, DriftThresholds, OpProfile, QualityMode, Severity, TableProfile,
};
use nde_tabular::Table;
use std::time::Instant;

const BATCHES: usize = 40;
const BATCH_ROWS: usize = 500;
/// Share of `employer_rating` cells nulled in a missing batch.
const MISSING_RATE: f64 = 0.25;
/// Offset added to `employer_rating` in a shifted batch (its spread is
/// about 0.7 within a class).
const SHIFT: f64 = 1.0;
const INJECTED: &str = "employer_rating";
/// Columns the monitor scores. Ids and free text (`letter_text`, the
/// typo-ridden `employer`) differ between any two samples by construction.
const MONITORED: [&str; 5] = ["sex", "age", "degree", "employer_rating", "sentiment"];
const SOURCE: &str = "train_df";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Clean,
    Missing,
    Shifted,
}

pub struct MonitorQuality;

pub struct Inputs {
    plan: Plan,
    /// Side tables plus the clean reference batch as the training source.
    reference_sources: Sources,
    batches: Vec<(Kind, Table)>,
}

pub struct State {
    sources: Sources,
    reference_ops: Vec<OpProfile>,
    reference_raw: TableProfile,
    next: usize,
    kind: Kind,
    output: Table,
    raw_drift: DriftReport,
    op_drift: Vec<DriftReport>,
    /// Wall time and cells profiled of the latest profiled plan run.
    full_run_s: f64,
    full_run_cells: u64,
    /// Profiling-on minus profiling-off time, and cells profiled, summed
    /// over the `hooked` steps where both runs were made.
    hook_s: f64,
    hook_cells: u64,
    hooked: u64,
    /// (injected batches seen, of them failing drift on the column).
    injected: (u64, u64),
    /// (clean batches seen, of them failing drift on a monitored column).
    clean: (u64, u64),
}

/// A plan run with every operator profiled.
struct ProfiledRun {
    output: Table,
    ops: Vec<OpProfile>,
    seconds: f64,
    /// Cells the profiling hook reported (counted while tracing is on).
    cells: u64,
}

fn profiled_run(plan: &Plan, sources: &Sources) -> Result<ProfiledRun, String> {
    let cells = nde_trace::counter_value("quality.cells_profiled");
    nde_quality::configure_quality(QualityMode::Full);
    let t0 = Instant::now();
    let output = time("pipeline.run_s", || plan.run(sources));
    let seconds = t0.elapsed().as_secs_f64();
    nde_quality::configure_quality(QualityMode::Off);
    let ops = nde_quality::take_profiles();
    let output = output.map_err(err)?;
    count("pipeline.rows_out", output.num_rows() as f64);
    Ok(ProfiledRun {
        output,
        ops,
        seconds,
        cells: nde_trace::counter_value("quality.cells_profiled") - cells,
    })
}

fn severity_of(report: &DriftReport, column: &str) -> Severity {
    let t = DriftThresholds::default();
    report
        .columns
        .iter()
        .find(|c| c.column == column)
        .map_or(Severity::Fail, |c| c.severity(&t))
}

impl Workload for MonitorQuality {
    type Inputs = Inputs;
    type State = State;
    const ROWS_PER_STEP: f64 = BATCH_ROWS as f64;

    fn setup(seed: u64) -> Result<Inputs, String> {
        time("datagen.generate_s", || {
            let scenario = HiringScenario::generate(&HiringConfig {
                n_train: BATCHES * BATCH_ROWS,
                n_valid: BATCH_ROWS,
                n_test: 0,
                seed,
                ..Default::default()
            });
            let mut batches = Vec::with_capacity(BATCHES);
            for b in 0..BATCHES {
                let rows: Vec<usize> = (b * BATCH_ROWS..(b + 1) * BATCH_ROWS).collect();
                let batch = scenario.train.take(&rows).map_err(err)?;
                let batch_seed = seed.wrapping_add(b as u64);
                batches.push(match b % 3 {
                    0 => (Kind::Clean, batch),
                    1 => {
                        let (t, _) = inject_missing(
                            &batch,
                            INJECTED,
                            MISSING_RATE,
                            Mechanism::Mcar,
                            batch_seed,
                        )
                        .map_err(err)?;
                        (Kind::Missing, t)
                    }
                    _ => (
                        Kind::Shifted,
                        inject_shift(&batch, INJECTED, 1.0, SHIFT).map_err(err)?.0,
                    ),
                });
            }
            Ok(Inputs {
                plan: figure3_plan(),
                reference_sources: pipeline_sources(&scenario, scenario.valid.clone()),
                batches,
            })
        })
    }

    fn describe(_: &Inputs) -> String {
        format!(
            "{BATCHES} batches of {BATCH_ROWS} letters (clean / {}% MCAR-missing / +{SHIFT} shifted \
             {INJECTED}) against a clean {BATCH_ROWS}-letter reference, plan under NDE_QUALITY=full",
            MISSING_RATE * 100.0
        )
    }

    fn start(inputs: &Inputs) -> Result<State, String> {
        nde_quality::reset_quality();
        let sources = inputs.reference_sources.clone();
        let reference = profiled_run(&inputs.plan, &sources)?;
        let batch = sources.get(SOURCE).ok_or("reference batch missing")?;
        let reference_raw = time("quality.profile_s", || batch.quality_profile());
        let mut state = State {
            sources,
            reference_ops: reference.ops,
            reference_raw,
            next: 0,
            kind: Kind::Clean,
            output: reference.output,
            raw_drift: DriftReport {
                columns: Vec::new(),
                structural: Vec::new(),
                row_delta: 0.0,
            },
            op_drift: Vec::new(),
            full_run_s: 0.0,
            full_run_cells: 0,
            hook_s: 0.0,
            hook_cells: 0,
            hooked: 0,
            injected: (0, 0),
            clean: (0, 0),
        };
        // The first answer: the verdict on the first batch.
        Self::step(inputs, &mut state)?;
        Ok(state)
    }

    fn step(inputs: &Inputs, st: &mut State) -> Result<(), String> {
        let (kind, batch) = &inputs.batches[st.next % inputs.batches.len()];
        st.next += 1;
        st.kind = *kind;
        st.sources.insert(SOURCE.to_owned(), batch.clone());
        let run = profiled_run(&inputs.plan, &st.sources)?;
        let ops = run.ops;
        let raw = time("quality.profile_s", || batch.quality_profile());
        let reference_ops = &st.reference_ops;
        let (raw_drift, op_drift) = time("quality.drift_s", || {
            let op_drift = ops
                .iter()
                .zip(reference_ops)
                .map(|(op, base)| diff_profiles(&base.profile, &op.profile))
                .collect();
            (diff_profiles(&st.reference_raw, &raw), op_drift)
        });
        if ops.len() != reference_ops.len() {
            return Err(format!(
                "{} operator profiles, the reference run has {}",
                ops.len(),
                reference_ops.len()
            ));
        }
        st.output = run.output;
        st.raw_drift = raw_drift;
        st.op_drift = op_drift;
        st.full_run_s = run.seconds;
        st.full_run_cells = run.cells;
        Ok(())
    }

    fn observe(
        inputs: &Inputs,
        st: &mut State,
        digest: &mut Digest,
        sampled: bool,
    ) -> Result<(), String> {
        digest.u64(st.output.num_rows() as u64);
        for report in std::iter::once(&st.raw_drift).chain(&st.op_drift) {
            for c in &report.columns {
                digest.str(&c.column);
                digest.f64(c.psi.unwrap_or(-1.0));
                digest.f64(c.ks.unwrap_or(-1.0));
                digest.f64(c.null_delta);
                digest.f64(c.distinct_delta);
            }
            digest.f64(report.row_delta);
        }

        let verdict = if st.kind == Kind::Clean {
            st.clean.0 += 1;
            let alarms: Vec<&str> = MONITORED
                .into_iter()
                .filter(|c| severity_of(&st.raw_drift, c) == Severity::Fail)
                .collect();
            st.clean.1 += u64::from(!alarms.is_empty());
            if alarms.is_empty() {
                Ok(())
            } else {
                Err(format!("clean batch fails drift on {alarms:?}"))
            }
        } else {
            st.injected.0 += 1;
            let detected = severity_of(&st.raw_drift, INJECTED) == Severity::Fail;
            st.injected.1 += u64::from(detected);
            if detected {
                Ok(())
            } else {
                Err(format!(
                    "{:?} batch does not fail drift on {INJECTED}",
                    st.kind
                ))
            }
        };

        // Profiling must be observational: the same plan with profiling
        // off gives the same output. Timing both runs prices the hook.
        if sampled {
            let t0 = Instant::now();
            let off = inputs.plan.run(&st.sources).map_err(err)?;
            st.hook_s += st.full_run_s - t0.elapsed().as_secs_f64();
            st.hook_cells += st.full_run_cells;
            st.hooked += 1;
            if off != st.output {
                return Err("plan output differs with profiling off".into());
            }
        }
        verdict
    }

    fn layer_metrics(_: &Inputs, st: &State) -> Vec<(&'static str, f64)> {
        let share = |(n, k): (u64, u64)| k as f64 / (n as f64).max(1.0);
        vec![
            ("quality.hook_s", st.hook_s / (st.hooked as f64).max(1.0)),
            (
                "quality.cells_per_s",
                st.hook_cells as f64 / st.hook_s.max(1e-12),
            ),
            ("quality.detect_rate", share(st.injected)),
            ("quality.false_alarm_rate", share(st.clean)),
        ]
    }
}
