//! `clean_letters`: warm-cache cleaning rounds on text-embedded letters
//! (Figure 2). Each step re-ranks the training rows with cached
//! KNN-Shapley, repairs the `B` most suspect ones, re-encodes each repaired
//! row and updates the neighbor cache, then refits the indexed k-NN and
//! scores the test split.

use super::{encode, err, K};
use crate::layers::{count, time};
use crate::stats::Digest;
use crate::Workload;
use nde_core::cleaning::repair_row;
use nde_core::scenario::standard_encoder;
use nde_datagen::errors::flip_labels;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::{build_neighbor_cache, knn_shapley_cached};
use nde_importance::rank::rank_ascending;
use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::sq_dist;
use nde_learners::metrics::accuracy;
use nde_learners::preprocessing::FittedTableEncoder;
use nde_learners::{KnnClassifier, Learner};
use nde_parallel::NeighborCache;
use nde_tabular::Table;

const N_TRAIN: usize = 2000;
const N_VALID: usize = 500;
const N_TEST: usize = 500;
/// Share of training labels flipped.
const FLIP_RATE: f64 = 0.2;
/// Rows repaired per round.
const B: usize = 5;
/// Rounds before the loop restarts from the dirty data; the accuracy
/// check runs at the end of each epoch.
const EPOCH: usize = 100;

pub struct CleanLetters;

pub struct Inputs {
    scenario: HiringScenario,
    dirty: Table,
}

/// The part of the state a cleaning round changes.
#[derive(Clone)]
struct Round {
    working: Table,
    train: ClassDataset,
    cache: NeighborCache,
    cleaned: Vec<bool>,
    rounds: usize,
}

pub struct State {
    encoder: FittedTableEncoder,
    valid: ClassDataset,
    test: ClassDataset,
    dirty_accuracy: f64,
    initial: Round,
    round: Round,
    batch: Vec<usize>,
    accuracy: f64,
}

/// Fits the indexed k-NN on `train` and scores it on `test`.
fn evaluate(train: &ClassDataset, test: &ClassDataset) -> Result<f64, String> {
    let model = time("learners.knn_fit_s", || {
        KnnClassifier::indexed(K).fit(train)
    })
    .map_err(err)?;
    let preds = time("learners.knn_predict_s", || model.predict_batch(&test.x));
    count("learners.knn_queries", test.len() as f64);
    Ok(accuracy(&test.y, &preds))
}

impl Workload for CleanLetters {
    type Inputs = Inputs;
    type State = State;
    const ROWS_PER_STEP: f64 = N_TRAIN as f64;

    fn setup(seed: u64) -> Result<Inputs, String> {
        time("datagen.generate_s", || {
            let scenario = HiringScenario::generate(&HiringConfig {
                n_train: N_TRAIN,
                n_valid: N_VALID,
                n_test: N_TEST,
                seed,
                ..Default::default()
            });
            let (dirty, _) =
                flip_labels(&scenario.train, "sentiment", FLIP_RATE, seed ^ 0xf11b).map_err(err)?;
            Ok(Inputs { scenario, dirty })
        })
    }

    fn describe(_: &Inputs) -> String {
        format!(
            "train/valid/test {N_TRAIN}/{N_VALID}/{N_TEST} letters, {}% labels flipped, \
             {B} repairs per round, {EPOCH}-round epochs, k={K}",
            FLIP_RATE * 100.0
        )
    }

    fn start(inputs: &Inputs) -> Result<State, String> {
        let encoder = time("learners.encode_fit_s", || {
            standard_encoder().fit(&inputs.dirty)
        })
        .map_err(err)?;
        let train = encode(&encoder, &inputs.dirty)?;
        let valid = encode(&encoder, &inputs.scenario.valid)?;
        let test = encode(&encoder, &inputs.scenario.test)?;
        let cache = time("parallel.cache_build_s", || {
            build_neighbor_cache(&train, &valid)
        });
        // The first answer: the ranking of suspect rows, and the accuracy
        // the repairs have to beat.
        let scores = time("importance.shapley_cached_s", || {
            knn_shapley_cached(&cache, &train.y, &valid.y, K)
        });
        std::hint::black_box(rank_ascending(&scores));
        let dirty_accuracy = evaluate(&train, &test)?;
        let initial = Round {
            working: inputs.dirty.clone(),
            cleaned: vec![false; train.len()],
            train,
            cache,
            rounds: 0,
        };
        Ok(State {
            encoder,
            valid,
            test,
            dirty_accuracy,
            round: initial.clone(),
            initial,
            batch: Vec::new(),
            accuracy: dirty_accuracy,
        })
    }

    fn step(inputs: &Inputs, st: &mut State) -> Result<(), String> {
        let round = &mut st.round;
        let scores = time("importance.shapley_cached_s", || {
            knn_shapley_cached(&round.cache, &round.train.y, &st.valid.y, K)
        });
        st.batch = rank_ascending(&scores)
            .into_iter()
            .filter(|&row| !round.cleaned[row])
            .take(B)
            .collect();
        for &row in &st.batch {
            time("core.repair_s", || {
                repair_row(&mut round.working, &inputs.scenario.train, row)
            })
            .map_err(err)?;
            round.cleaned[row] = true;
            let repaired_row = round.working.take(&[row]).map_err(err)?;
            let repaired = encode(&st.encoder, &repaired_row)?;
            round
                .train
                .x
                .row_mut(row)
                .copy_from_slice(repaired.x.row(0));
            round.train.y[row] = repaired.y[0];
            let (train_x, valid_x) = (&round.train.x, &st.valid.x);
            time("parallel.cache_update_s", || {
                round
                    .cache
                    .update_row(row, |v| sq_dist(train_x.row(row), valid_x.row(v)))
            });
        }
        round.rounds += 1;
        st.accuracy = evaluate(&round.train, &st.test)?;
        Ok(())
    }

    fn observe(
        _: &Inputs,
        st: &mut State,
        digest: &mut Digest,
        _sampled: bool,
    ) -> Result<(), String> {
        digest.usizes(&st.batch);
        digest.f64(st.accuracy);
        if st.round.rounds < EPOCH {
            return Ok(());
        }
        let (last, dirty) = (st.accuracy, st.dirty_accuracy);
        st.round = st.initial.clone();
        if last > dirty {
            Ok(())
        } else {
            Err(format!(
                "accuracy after {EPOCH} rounds {last:.4} is not above the dirty baseline {dirty:.4}"
            ))
        }
    }

    fn layer_metrics(_: &Inputs, st: &State) -> Vec<(&'static str, f64)> {
        let cache = &st.initial.cache;
        let entry = std::mem::size_of::<(f64, u32)>() as f64;
        let bytes = cache.n_train() as f64 * cache.n_valid() as f64 * entry;
        vec![("parallel.cache_mb", bytes / (1024.0 * 1024.0))]
    }
}
