//! Datascope (Karlaš et al., "Data Debugging with Shapley Importance over
//! Machine Learning Pipelines", ICLR 2023): compute KNN-Shapley importance
//! over the *output* of a preprocessing pipeline, then attribute it back to
//! the pipeline's *source* tuples through fine-grained provenance.
//!
//! For "map" pipelines (each output row depends on exactly one source row)
//! the attribution is exact under the K-NN utility; for fork/join shapes,
//! where one source row feeds several outputs, the attribution is the sum
//! of its dependents' Shapley values — the additive decomposition Datascope
//! computes efficiently via counting oracles.

use crate::exec::TracedTable;
use crate::provenance::invert_lineage;
use crate::{PipelineError, Result};
use nde_importance::knn_shapley::knn_shapley;
use nde_learners::dataset::ClassDataset;

/// Source-tuple importance through a traced pipeline.
///
/// * `traced` — pipeline output with lineage; `train` must be the encoded
///   dataset of exactly those output rows (row `i` of `train` ↔ row `i` of
///   `traced.table`).
/// * `valid` — encoded validation set.
/// * `source` — which source table to attribute to, with `source_rows` rows.
///
/// Returns one score per source row; rows that feed no output (e.g.
/// filtered out) score 0 — removal cannot change the model, which is
/// exactly what zero Shapley value means.
pub fn datascope_importance(
    traced: &TracedTable,
    train: &ClassDataset,
    valid: &ClassDataset,
    k: usize,
    source: &str,
    source_rows: usize,
) -> Result<Vec<f64>> {
    if train.len() != traced.table.num_rows() {
        return Err(PipelineError::Invalid {
            detail: format!(
                "encoded dataset has {} rows but pipeline output has {}",
                train.len(),
                traced.table.num_rows()
            ),
        });
    }
    if train.n_features() != valid.n_features() {
        return Err(PipelineError::Invalid {
            detail: format!(
                "encoded training rows have {} features but validation rows have {}",
                train.n_features(),
                valid.n_features()
            ),
        });
    }
    let src = traced
        .source_index(source)
        .ok_or_else(|| PipelineError::UnknownSource {
            name: source.to_owned(),
        })?;

    let output_scores = knn_shapley(train, valid, k);
    let index = invert_lineage(&traced.lineage, src);
    let mut scores = vec![0.0f64; source_rows];
    for (src_row, outputs) in index {
        if src_row < source_rows {
            scores[src_row] = outputs.iter().map(|&o| output_scores[o]).sum();
        }
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sources;
    use crate::plan::Plan;
    use nde_learners::matrix::Matrix;
    use nde_tabular::Table;

    fn encoded(table: &Table) -> ClassDataset {
        // Encode: feature = x, label = y column.
        let n = table.num_rows();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![table.get(i, "x").unwrap().as_float().unwrap()])
            .collect();
        let y: Vec<usize> = (0..n)
            .map(|i| table.get(i, "y").unwrap().as_int().unwrap() as usize)
            .collect();
        ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap()
    }

    fn valid_set() -> ClassDataset {
        ClassDataset::new(
            Matrix::from_rows(&[vec![0.0], vec![5.0]]).unwrap(),
            vec![0, 1],
            2,
        )
        .unwrap()
    }

    #[test]
    fn map_pipeline_attribution_matches_direct_shapley() {
        let t = Table::builder()
            .float("x", [0.1, 0.2, 5.1, 5.2])
            .int("y", [0, 0, 1, 1])
            .build()
            .unwrap();
        let plan = Plan::source("t"); // identity map pipeline
        let traced = plan.run_traced(&sources(vec![("t", t.clone())])).unwrap();
        let train = encoded(&traced.table);
        let valid = valid_set();
        let via_pipeline =
            datascope_importance(&traced, &train, &valid, 1, "t", t.num_rows()).unwrap();
        let direct = knn_shapley(&train, &valid, 1);
        assert_eq!(via_pipeline, direct);
    }

    #[test]
    fn feature_width_mismatch_is_rejected() {
        let t = Table::builder()
            .float("x", [0.1, 5.1])
            .int("y", [0, 1])
            .build()
            .unwrap();
        let traced = Plan::source("t")
            .run_traced(&sources(vec![("t", t.clone())]))
            .unwrap();
        let train = encoded(&traced.table);
        let wide = ClassDataset::new(
            Matrix::from_rows(&[vec![0.0, 1.0], vec![5.0, 1.0]]).unwrap(),
            vec![0, 1],
            2,
        )
        .unwrap();
        let err = datascope_importance(&traced, &train, &wide, 1, "t", 2).unwrap_err();
        assert!(
            matches!(&err, PipelineError::Invalid { detail } if detail.contains("1 features")),
            "{err:?}"
        );
    }

    #[test]
    fn filtered_out_rows_score_zero() {
        let t = Table::builder()
            .float("x", [0.1, 99.0, 5.1, 5.2])
            .int("y", [0, 0, 1, 1])
            .build()
            .unwrap();
        let plan = Plan::source("t").filter("x < 50", |r| r.float("x").unwrap_or(0.0) < 50.0);
        let traced = plan.run_traced(&sources(vec![("t", t.clone())])).unwrap();
        let train = encoded(&traced.table);
        let scores =
            datascope_importance(&traced, &train, &valid_set(), 1, "t", t.num_rows()).unwrap();
        assert_eq!(scores.len(), 4);
        assert_eq!(scores[1], 0.0);
        assert!(scores[0] != 0.0);
    }

    #[test]
    fn fork_pipeline_sums_dependent_scores() {
        // Concat the source with itself: every source row feeds two outputs.
        let t = Table::builder()
            .float("x", [0.1, 5.1])
            .int("y", [0, 1])
            .build()
            .unwrap();
        let plan = Plan::source("t").concat(Plan::source("t"));
        let traced = plan.run_traced(&sources(vec![("t", t.clone())])).unwrap();
        let train = encoded(&traced.table);
        let valid = valid_set();
        let scores = datascope_importance(&traced, &train, &valid, 1, "t", t.num_rows()).unwrap();
        let output_scores = knn_shapley(&train, &valid, 1);
        assert!((scores[0] - (output_scores[0] + output_scores[2])).abs() < 1e-12);
        assert!((scores[1] - (output_scores[1] + output_scores[3])).abs() < 1e-12);
    }

    #[test]
    fn join_pipeline_attributes_to_side_table() {
        let letters = Table::builder()
            .int("job", [0, 0, 1, 1])
            .float("x0", [0.1, 0.2, 5.1, 5.2])
            .int("y", [0, 0, 1, 1])
            .build()
            .unwrap();
        let jobs = Table::builder()
            .int("job", [0, 1])
            .float("bonus", [0.0, 0.0])
            .build()
            .unwrap();
        let plan = Plan::source("letters")
            .join(Plan::source("jobs"), "job", "job")
            .with_column("x", "x0 + bonus", |r| {
                nde_tabular::Value::Float(r.float("x0").unwrap() + r.float("bonus").unwrap())
            });
        let traced = plan
            .run_traced(&sources(vec![("letters", letters), ("jobs", jobs.clone())]))
            .unwrap();
        let train = encoded(&traced.table);
        let valid = valid_set();
        let job_scores =
            datascope_importance(&traced, &train, &valid, 1, "jobs", jobs.num_rows()).unwrap();
        let output_scores = knn_shapley(&train, &valid, 1);
        // Job 0 feeds output rows 0,1; job 1 feeds rows 2,3.
        assert!((job_scores[0] - (output_scores[0] + output_scores[1])).abs() < 1e-12);
        assert!((job_scores[1] - (output_scores[2] + output_scores[3])).abs() < 1e-12);
    }

    #[test]
    fn misaligned_dataset_rejected() {
        let t = Table::builder()
            .float("x", [0.1])
            .int("y", [0])
            .build()
            .unwrap();
        let traced = Plan::source("t")
            .run_traced(&sources(vec![("t", t)]))
            .unwrap();
        let wrong = valid_set(); // 2 rows ≠ 1 output row
        let r = datascope_importance(&traced, &wrong, &valid_set(), 1, "t", 1);
        assert!(matches!(r, Err(PipelineError::Invalid { .. })));
        let t2 = Table::builder()
            .float("x", [0.1])
            .int("y", [0])
            .build()
            .unwrap();
        let traced2 = Plan::source("t")
            .run_traced(&sources(vec![("t", t2)]))
            .unwrap();
        let train = encoded(&traced2.table);
        assert!(matches!(
            datascope_importance(&traced2, &train, &valid_set(), 1, "nope", 1),
            Err(PipelineError::UnknownSource { .. })
        ));
    }
}
