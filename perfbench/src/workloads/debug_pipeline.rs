//! `debug_pipeline`: source-level cleaning rounds through the Figure 3
//! plan. Each step asks the provenance what-if for deleting the `B` most
//! suspect source rows, repairs them instead, re-runs the plan with
//! provenance, refits and re-encodes its output, pushes the validation and
//! test splits through the plan, and re-attributes importance to the
//! source rows with Datascope.

use super::{encode, err, K};
use crate::layers::{count, time};
use crate::stats::Digest;
use crate::Workload;
use nde_core::cleaning::repair_row;
use nde_core::pipeline_scenario::{figure3_plan, pipeline_encoder, pipeline_sources};
use nde_datagen::errors::flip_labels;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::rank::rank_ascending;
use nde_learners::dataset::ClassDataset;
use nde_pipeline::exec::Sources;
use nde_pipeline::whatif::{delete_source_rows, rerun_without_rows, DeletionEffect};
use nde_pipeline::{datascope_importance, Plan, TracedTable};
use nde_tabular::{Table, Value};
use std::collections::HashSet;

const N_TRAIN: usize = 1000;
const N_VALID: usize = 250;
const N_TEST: usize = 250;
const FLIP_RATE: f64 = 0.2;
/// Share of every split's letters in healthcare jobs, the rows the plan's
/// filter keeps. Fixing it keeps a step's work the same for every seed.
const HEALTHCARE_SHARE: f64 = 0.4;
/// Letters generated per letter selected, so either sector has enough.
const POOL: usize = 2;
/// Source rows repaired per round.
const B: usize = 5;
/// Rounds before the loop restarts from the dirty source.
const EPOCH: usize = 100;
const SOURCE: &str = "train_df";

pub struct DebugPipeline;

pub struct Inputs {
    plan: Plan,
    /// Ground truth for the repairs.
    clean: Table,
    /// Sources with the dirty training letters.
    dirty_sources: Sources,
    valid_sources: Sources,
    test_sources: Sources,
}

/// One attribution of the current sources.
#[derive(Clone)]
struct Attribution {
    traced: TracedTable,
    scores: Vec<f64>,
    test: ClassDataset,
}

#[derive(Clone)]
struct Round {
    sources: Sources,
    attribution: Attribution,
    repaired: Vec<bool>,
    rounds: usize,
}

pub struct State {
    initial: Round,
    round: Round,
    picked: Vec<usize>,
    whatif: Option<DeletionEffect>,
}

/// Selects `n` letters of `pool`, in order, of which exactly
/// `HEALTHCARE_SHARE` are in healthcare jobs.
fn select(pool: &Table, jobs: &Table, n: usize) -> Result<Table, String> {
    let healthcare: HashSet<i64> = (0..jobs.num_rows())
        .filter(|&j| jobs.get(j, "sector").ok() == Some(Value::from("healthcare")))
        .filter_map(|j| jobs.get(j, "job_id").ok()?.as_int())
        .collect();
    let wanted = (n as f64 * HEALTHCARE_SHARE).round() as usize;
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for row in 0..pool.num_rows() {
        let job = pool.get(row, "job_id").map_err(err)?.as_int();
        match job.is_some_and(|j| healthcare.contains(&j)) {
            true if inside.len() < wanted => inside.push(row),
            false if outside.len() < n - wanted => outside.push(row),
            _ => {}
        }
    }
    if inside.len() + outside.len() < n {
        return Err(format!(
            "a pool of {} letters holds fewer than {n} to select",
            pool.num_rows()
        ));
    }
    inside.append(&mut outside);
    inside.sort_unstable();
    pool.take(&inside).map_err(err)
}

/// Runs the plan with provenance over `sources`, encodes its output and
/// the validation and test splits, and attributes Datascope importance to
/// the training source rows.
fn attribute(inputs: &Inputs, sources: &Sources) -> Result<Attribution, String> {
    let traced = time("pipeline.run_traced_s", || inputs.plan.run_traced(sources)).map_err(err)?;
    let encoder = time("learners.encode_fit_s", || {
        pipeline_encoder().fit(&traced.table)
    })
    .map_err(err)?;
    let train = encode(&encoder, &traced.table)?;
    let valid_out =
        time("pipeline.run_s", || inputs.plan.run(&inputs.valid_sources)).map_err(err)?;
    let test_out = time("pipeline.run_s", || inputs.plan.run(&inputs.test_sources)).map_err(err)?;
    count(
        "pipeline.rows_out",
        (traced.table.num_rows() + valid_out.num_rows() + test_out.num_rows()) as f64,
    );
    let valid = encode(&encoder, &valid_out)?;
    let test = encode(&encoder, &test_out)?;
    let n_source = sources.get(SOURCE).map_or(0, |t| t.num_rows());
    let scores = time("pipeline.datascope_s", || {
        datascope_importance(&traced, &train, &valid, K, SOURCE, n_source)
    })
    .map_err(err)?;
    Ok(Attribution {
        traced,
        scores,
        test,
    })
}

impl Workload for DebugPipeline {
    type Inputs = Inputs;
    type State = State;
    const ROWS_PER_STEP: f64 = N_TRAIN as f64;

    fn setup(seed: u64) -> Result<Inputs, String> {
        time("datagen.generate_s", || {
            let mut scenario = HiringScenario::generate(&HiringConfig {
                n_train: POOL * N_TRAIN,
                n_valid: POOL * N_VALID,
                n_test: POOL * N_TEST,
                seed,
                ..Default::default()
            });
            let jobs = &scenario.job_details;
            scenario.train = select(&scenario.train, jobs, N_TRAIN)?;
            scenario.valid = select(&scenario.valid, jobs, N_VALID)?;
            scenario.test = select(&scenario.test, jobs, N_TEST)?;
            let (dirty, _) =
                flip_labels(&scenario.train, "sentiment", FLIP_RATE, seed ^ 0xdeb9).map_err(err)?;
            Ok(Inputs {
                plan: figure3_plan(),
                dirty_sources: pipeline_sources(&scenario, dirty),
                valid_sources: pipeline_sources(&scenario, scenario.valid.clone()),
                test_sources: pipeline_sources(&scenario, scenario.test.clone()),
                clean: scenario.train,
            })
        })
    }

    fn describe(_: &Inputs) -> String {
        format!(
            "train/valid/test {N_TRAIN}/{N_VALID}/{N_TEST} source letters, {}% in healthcare jobs, \
             through the Figure 3 plan, {}% labels flipped, {B} source repairs per round, {EPOCH}-round epochs, k={K}",
            HEALTHCARE_SHARE * 100.0,
            FLIP_RATE * 100.0
        )
    }

    fn start(inputs: &Inputs) -> Result<State, String> {
        let sources = inputs.dirty_sources.clone();
        let attribution = attribute(inputs, &sources)?;
        std::hint::black_box(rank_ascending(&attribution.scores));
        let initial = Round {
            repaired: vec![false; attribution.scores.len()],
            sources,
            attribution,
            rounds: 0,
        };
        Ok(State {
            round: initial.clone(),
            initial,
            picked: Vec::new(),
            whatif: None,
        })
    }

    fn step(inputs: &Inputs, st: &mut State) -> Result<(), String> {
        let round = &mut st.round;
        st.picked = rank_ascending(&round.attribution.scores)
            .into_iter()
            .filter(|&row| !round.repaired[row])
            .take(B)
            .collect();
        st.whatif = Some(
            time("pipeline.whatif_s", || {
                delete_source_rows(&round.attribution.traced, SOURCE, &st.picked)
            })
            .map_err(err)?,
        );
        let source = round
            .sources
            .get_mut(SOURCE)
            .ok_or("training source missing")?;
        for &row in &st.picked {
            time("core.repair_s", || repair_row(source, &inputs.clean, row)).map_err(err)?;
            round.repaired[row] = true;
        }
        round.attribution = attribute(inputs, &round.sources)?;
        round.rounds += 1;
        Ok(())
    }

    fn observe(
        inputs: &Inputs,
        st: &mut State,
        digest: &mut Digest,
        sampled: bool,
    ) -> Result<(), String> {
        let att = &st.round.attribution;
        let whatif = st.whatif.as_ref().ok_or("no what-if answer")?;
        digest.usizes(&st.picked);
        digest.usizes(&whatif.kept);
        digest.f64s(&att.scores);
        digest.f64s(att.test.x.data());
        digest.usizes(&att.test.y);

        // Source rows that feed no output row cannot change the model, so
        // their importance must be exactly zero.
        let src = att
            .traced
            .source_index(SOURCE)
            .ok_or("training source missing from provenance")?;
        let mut feeds = vec![false; att.scores.len()];
        for token in att.traced.lineage.iter().flat_map(|m| m.tokens()) {
            if token.source == src && token.row < feeds.len() {
                feeds[token.row] = true;
            }
        }
        if let Some(row) = (0..feeds.len()).find(|&r| !feeds[r] && att.scores[r] != 0.0) {
            return Err(format!(
                "filtered-out source row {row} scores {} instead of 0",
                att.scores[row]
            ));
        }
        // The provenance what-if must equal re-running the plan without the
        // rows. The rows were repaired since, which a deletion cannot see.
        if sampled {
            let rerun = rerun_without_rows(&inputs.plan, &st.round.sources, SOURCE, &st.picked)
                .map_err(err)?;
            if rerun != whatif.table {
                return Err("provenance what-if differs from re-running the plan".into());
            }
        }
        if st.round.rounds >= EPOCH {
            st.round = st.initial.clone();
        }
        Ok(())
    }
}
