//! The four workloads, each a closed loop over one stage of the tutorial.

mod clean_letters;
mod debug_pipeline;
mod knn_lowdim;
mod monitor_quality;

use crate::layers;
use crate::{run, Args, Outcome};
use nde_learners::dataset::ClassDataset;
use nde_learners::preprocessing::FittedTableEncoder;
use nde_tabular::Table;

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 4] = [
    "clean_letters",
    "debug_pipeline",
    "monitor_quality",
    "knn_lowdim",
];

/// Neighbors in every k-NN model and importance kernel, as in the tutorial.
const K: usize = 5;

/// Runs the workload named in `args`; `None` for an unknown name.
pub(crate) fn run_named(args: &Args) -> Option<Result<Outcome, String>> {
    Some(match args.workload.as_str() {
        "clean_letters" => run::<clean_letters::CleanLetters>(args),
        "debug_pipeline" => run::<debug_pipeline::DebugPipeline>(args),
        "monitor_quality" => run::<monitor_quality::MonitorQuality>(args),
        "knn_lowdim" => run::<knn_lowdim::KnnLowdim>(args),
        _ => return None,
    })
}

/// Renders any error as the benchmark's error string.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Encodes `table` with a fitted encoder inside the `learners.encode_s` span.
fn encode(encoder: &FittedTableEncoder, table: &Table) -> Result<ClassDataset, String> {
    let ds = layers::time("learners.encode_s", || encoder.transform(table)).map_err(err)?;
    layers::count("learners.encode_rows", table.num_rows() as f64);
    Ok(ds)
}
