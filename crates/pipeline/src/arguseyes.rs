//! ArgusEyes-style pipeline screening (Schelter, Grafberger, Guha, Karlaš &
//! Zhang, SIGMOD 2023): a continuous-integration gate that screens a
//! pipeline run for data leakage, label errors, covariate shift, class
//! imbalance, and fairness gaps before a model ships.

use crate::exec::TracedTable;
use crate::Result;
use nde_importance::knn_shapley::knn_shapley;
use nde_learners::dataset::ClassDataset;
use nde_learners::metrics::fairness::equalized_odds_difference;
use nde_learners::traits::Learner;
use nde_quality::{Moments, Severity};
use std::collections::HashSet;

/// One screening finding.
#[derive(Debug, Clone)]
pub struct Issue {
    /// Which check fired (`"leakage"`, `"label_errors"`, …).
    pub check: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable detail.
    pub detail: String,
}

/// The screening outcome.
#[derive(Debug, Clone, Default)]
pub struct ScreeningReport {
    /// All findings, in check order.
    pub issues: Vec<Issue>,
}

impl ScreeningReport {
    /// Whether the CI gate passes (no [`Severity::Fail`] issues).
    pub fn passed(&self) -> bool {
        self.issues.iter().all(|i| i.severity != Severity::Fail)
    }

    /// Findings of one check.
    pub fn of_check(&self, check: &str) -> Vec<&Issue> {
        self.issues.iter().filter(|i| i.check == check).collect()
    }
}

/// Screening thresholds.
#[derive(Debug, Clone)]
pub struct ScreeningConfig {
    /// Fraction of train rows with negative KNN-Shapley above which the
    /// label-error warning fires.
    pub label_error_fraction: f64,
    /// `k` for the KNN-Shapley label screen.
    pub shapley_k: usize,
    /// Standardized-mean-difference threshold for the covariate-shift check.
    pub shift_threshold: f64,
    /// Minimum acceptable minority-class share.
    pub min_class_share: f64,
    /// Maximum acceptable equalized-odds gap.
    pub max_eo_gap: f64,
    /// Maximum acceptable fraction of exactly duplicated feature rows
    /// inside the training split (duplicates silently inflate the weight
    /// of the duplicated records).
    pub max_duplicate_fraction: f64,
}

impl Default for ScreeningConfig {
    fn default() -> Self {
        ScreeningConfig {
            label_error_fraction: 0.05,
            shapley_k: 5,
            shift_threshold: 0.5,
            min_class_share: 0.2,
            max_eo_gap: 0.2,
            max_duplicate_fraction: 0.05,
        }
    }
}

/// Screens encoded train/test splits (plus optional protected-group labels
/// for the test split) produced by a pipeline run.
pub fn screen(
    cfg: &ScreeningConfig,
    learner: &dyn Learner,
    train: &ClassDataset,
    test: &ClassDataset,
    test_groups: Option<&[usize]>,
) -> Result<ScreeningReport> {
    let mut report = ScreeningReport::default();

    check_feature_leakage(&mut report, train, test);
    check_train_duplicates(cfg, &mut report, train);
    check_label_errors(cfg, &mut report, train, test);
    check_covariate_shift(cfg, &mut report, train, test);
    check_class_imbalance(cfg, &mut report, train);
    if let Some(groups) = test_groups {
        check_fairness(cfg, &mut report, learner, train, test, groups)?;
    }
    Ok(report)
}

/// Provenance-level leakage: source rows that feed *both* the train and the
/// test side of a pipeline (the strongest form of train/test contamination).
pub fn provenance_leakage(train: &TracedTable, test: &TracedTable) -> Vec<(String, usize)> {
    let mut leaks = Vec::new();
    for (src_idx, name) in train.source_names.iter().enumerate() {
        let Some(test_src) = test.source_index(name) else {
            continue;
        };
        let train_rows: HashSet<usize> = train
            .lineage
            .iter()
            .flat_map(|m| m.rows_of_source(src_idx))
            .collect();
        let test_rows: HashSet<usize> = test
            .lineage
            .iter()
            .flat_map(|m| m.rows_of_source(test_src))
            .collect();
        let mut shared: Vec<usize> = train_rows.intersection(&test_rows).copied().collect();
        shared.sort_unstable();
        leaks.extend(shared.into_iter().map(|r| (name.clone(), r)));
    }
    leaks
}

fn row_key(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn check_feature_leakage(report: &mut ScreeningReport, train: &ClassDataset, test: &ClassDataset) {
    let train_rows: HashSet<Vec<u64>> = (0..train.len()).map(|i| row_key(train.x.row(i))).collect();
    let dupes = (0..test.len())
        .filter(|&i| train_rows.contains(&row_key(test.x.row(i))))
        .count();
    if dupes > 0 {
        report.issues.push(Issue {
            check: "leakage",
            severity: Severity::Fail,
            detail: format!("{dupes} test rows have feature-identical rows in train"),
        });
    }
}

fn check_train_duplicates(
    cfg: &ScreeningConfig,
    report: &mut ScreeningReport,
    train: &ClassDataset,
) {
    if train.is_empty() {
        return;
    }
    let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(train.len());
    let dupes = (0..train.len())
        .filter(|&i| !seen.insert(row_key(train.x.row(i))))
        .count();
    let fraction = dupes as f64 / train.len() as f64;
    if fraction > cfg.max_duplicate_fraction {
        report.issues.push(Issue {
            check: "duplicates",
            severity: Severity::Warn,
            detail: format!(
                "{dupes} duplicated feature rows in train ({:.1}%)",
                fraction * 100.0
            ),
        });
    }
}

fn check_label_errors(
    cfg: &ScreeningConfig,
    report: &mut ScreeningReport,
    train: &ClassDataset,
    test: &ClassDataset,
) {
    if train.is_empty() || test.is_empty() {
        return;
    }
    let scores = knn_shapley(train, test, cfg.shapley_k);
    let negative = scores.iter().filter(|&&s| s < 0.0).count();
    let fraction = negative as f64 / train.len() as f64;
    if fraction > cfg.label_error_fraction {
        report.issues.push(Issue {
            check: "label_errors",
            severity: Severity::Warn,
            detail: format!(
                "{negative} of {} train rows ({:.1}%) have negative KNN-Shapley value",
                train.len(),
                fraction * 100.0
            ),
        });
    }
}

fn check_covariate_shift(
    cfg: &ScreeningConfig,
    report: &mut ScreeningReport,
    train: &ClassDataset,
    test: &ClassDataset,
) {
    if train.is_empty() || test.is_empty() || train.n_features() != test.n_features() {
        return;
    }
    for j in 0..train.n_features() {
        let (m1, s1) = column_stats(train, j);
        let (m2, _) = column_stats(test, j);
        let smd = (m1 - m2).abs() / s1.max(1e-9);
        if smd > cfg.shift_threshold {
            report.issues.push(Issue {
                check: "covariate_shift",
                severity: Severity::Warn,
                detail: format!(
                    "feature {j}: standardized mean difference {smd:.2} between train and test"
                ),
            });
        }
    }
}

fn column_stats(data: &ClassDataset, j: usize) -> (f64, f64) {
    let mut moments = Moments::new();
    for i in 0..data.len() {
        moments.push(Some(data.x.get(i, j)));
    }
    (moments.mean, moments.std().unwrap_or(0.0))
}

fn check_class_imbalance(
    cfg: &ScreeningConfig,
    report: &mut ScreeningReport,
    train: &ClassDataset,
) {
    if train.is_empty() {
        return;
    }
    let counts = train.class_counts();
    let min_share = counts
        .iter()
        .map(|&c| c as f64 / train.len() as f64)
        .fold(f64::INFINITY, f64::min);
    if min_share < cfg.min_class_share {
        report.issues.push(Issue {
            check: "class_imbalance",
            severity: Severity::Warn,
            detail: format!("minority class share {:.1}%", min_share * 100.0),
        });
    }
}

fn check_fairness(
    cfg: &ScreeningConfig,
    report: &mut ScreeningReport,
    learner: &dyn Learner,
    train: &ClassDataset,
    test: &ClassDataset,
    groups: &[usize],
) -> Result<()> {
    let model = learner.fit(train).map_err(crate::PipelineError::Learn)?;
    let preds = model.predict_batch(&test.x);
    let gap = equalized_odds_difference(&test.y, &preds, groups);
    if gap > cfg.max_eo_gap {
        report.issues.push(Issue {
            check: "fairness",
            severity: Severity::Warn,
            detail: format!("equalized odds gap {gap:.2} exceeds {:.2}", cfg.max_eo_gap),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sources;
    use crate::plan::Plan;
    use nde_learners::matrix::Matrix;
    use nde_learners::models::knn::KnnClassifier;
    use nde_tabular::Table;

    fn blobs(n_per: usize, flip: &[usize]) -> ClassDataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            // Unique jitter per row — the duplicates check watches for
            // exactly repeated feature rows.
            let j = i as f64 * 0.013;
            rows.push(vec![j, 0.0]);
            y.push(0);
            rows.push(vec![3.0 + j, 0.0]);
            y.push(1);
        }
        for &f in flip {
            y[f] = 1 - y[f];
        }
        ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap()
    }

    #[test]
    fn clean_split_passes() {
        let train = blobs(20, &[]);
        // Balanced subset (alternating classes), so means match train.
        let test = blobs(10, &[]).subset(&[0, 1, 2, 3, 4, 5]);
        // Shift test rows off the train jitter grid (grid step is 0.013)
        // to avoid exact duplicates.
        let shifted_rows: Vec<Vec<f64>> = (0..test.len())
            .map(|i| vec![test.x.get(i, 0) + 0.0057, 0.0])
            .collect();
        let test = ClassDataset::new(Matrix::from_rows(&shifted_rows).unwrap(), test.y.clone(), 2)
            .unwrap();
        let learner = KnnClassifier::new(3);
        let report = screen(&ScreeningConfig::default(), &learner, &train, &test, None).unwrap();
        assert!(report.passed(), "{:?}", report.issues);
        assert!(report.issues.is_empty(), "{:?}", report.issues);
    }

    #[test]
    fn duplicated_rows_flag_leakage() {
        let train = blobs(10, &[]);
        let test = train.subset(&[0, 1, 2]);
        let learner = KnnClassifier::new(3);
        let report = screen(&ScreeningConfig::default(), &learner, &train, &test, None).unwrap();
        assert!(!report.passed());
        assert_eq!(report.of_check("leakage").len(), 1);
    }

    #[test]
    fn label_noise_flags_warning() {
        let flips: Vec<usize> = (0..8).collect();
        let train = blobs(20, &flips);
        let test = {
            let t = blobs(10, &[]);
            let rows: Vec<Vec<f64>> = (0..t.len())
                .map(|i| vec![t.x.get(i, 0) + 0.017, 0.0])
                .collect();
            ClassDataset::new(Matrix::from_rows(&rows).unwrap(), t.y.clone(), 2).unwrap()
        };
        let learner = KnnClassifier::new(3);
        let report = screen(&ScreeningConfig::default(), &learner, &train, &test, None).unwrap();
        assert!(
            !report.of_check("label_errors").is_empty(),
            "{:?}",
            report.issues
        );
        // Warnings don't fail the gate.
        assert!(report.passed());
    }

    #[test]
    fn duplicated_training_rows_flag_duplicates_check() {
        let base = blobs(10, &[]);
        // Duplicate a quarter of the rows.
        let mut idx: Vec<usize> = (0..base.len()).collect();
        idx.extend(0..5);
        let train = base.subset(&idx);
        let test = {
            let rows: Vec<Vec<f64>> = (0..base.len())
                .map(|i| vec![base.x.get(i, 0) + 0.017, 0.0])
                .collect();
            ClassDataset::new(Matrix::from_rows(&rows).unwrap(), base.y.clone(), 2).unwrap()
        };
        let learner = KnnClassifier::new(3);
        let report = screen(&ScreeningConfig::default(), &learner, &train, &test, None).unwrap();
        assert!(
            !report.of_check("duplicates").is_empty(),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn shifted_test_set_flags_covariate_shift() {
        let train = blobs(15, &[]);
        let rows: Vec<Vec<f64>> = (0..train.len())
            .map(|i| vec![train.x.get(i, 0) + 10.0, 0.0])
            .collect();
        let test =
            ClassDataset::new(Matrix::from_rows(&rows).unwrap(), train.y.clone(), 2).unwrap();
        let learner = KnnClassifier::new(3);
        let report = screen(&ScreeningConfig::default(), &learner, &train, &test, None).unwrap();
        assert!(!report.of_check("covariate_shift").is_empty());
    }

    #[test]
    fn imbalance_detected() {
        let train =
            blobs(20, &[]).subset(&(0..30).filter(|i| i % 2 == 0 || *i < 4).collect::<Vec<_>>());
        let learner = KnnClassifier::new(3);
        let report = screen(
            &ScreeningConfig {
                min_class_share: 0.4,
                ..Default::default()
            },
            &learner,
            &train,
            &blobs(3, &[]),
            None,
        )
        .unwrap();
        assert!(!report.of_check("class_imbalance").is_empty());
    }

    #[test]
    fn unfair_model_flags_fairness_gap() {
        // Group 1's features are inverted relative to its labels, so a model
        // trained on the pooled data misclassifies group 1 positives.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.01;
            rows.push(vec![j]);
            y.push(0);
            groups.push(0);
            rows.push(vec![3.0 + j]);
            y.push(1);
            groups.push(0);
        }
        for i in 0..6 {
            let j = (i % 3) as f64 * 0.01;
            rows.push(vec![3.0 + j]);
            y.push(0);
            groups.push(1);
            rows.push(vec![j]);
            y.push(1);
            groups.push(1);
        }
        let data = ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap();
        let learner = KnnClassifier::new(3);
        let report = screen(
            &ScreeningConfig {
                shift_threshold: 100.0,
                label_error_fraction: 1.1,
                ..Default::default()
            },
            &learner,
            &data,
            &data,
            Some(&groups),
        )
        .unwrap();
        assert!(
            !report.of_check("fairness").is_empty(),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn provenance_leakage_detects_shared_source_rows() {
        let base = Table::builder()
            .int("id", [0, 1, 2, 3])
            .float("x", [0.0, 1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let srcs = sources(vec![("base", base)]);
        // Train takes rows with x < 3, test takes rows with x > 1 — rows
        // with 1 < x < 3 (row 2) leak into both.
        let train_plan = Plan::source("base").filter("x < 3", |r| r.float("x").unwrap() < 3.0);
        let test_plan = Plan::source("base").filter("x > 1", |r| r.float("x").unwrap() > 1.0);
        let train = train_plan.run_traced(&srcs).unwrap();
        let test = test_plan.run_traced(&srcs).unwrap();
        let leaks = provenance_leakage(&train, &test);
        assert_eq!(leaks, vec![("base".to_owned(), 2)]);
    }
}
