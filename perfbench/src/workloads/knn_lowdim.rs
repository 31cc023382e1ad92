//! `knn_lowdim`: query batches against one k-d-tree-indexed k-NN model over
//! about 100k low-dimensional rows (rating, age, one-hot degree and sex).
//! Each step predicts the batch with the indexed model, builds the
//! truncated top-k neighbor cache for it, and computes leave-one-out
//! importance of every training row from that cache.

use super::{encode, err, K};
use crate::layers::{count, time};
use crate::stats::Digest;
use crate::Workload;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::{build_topk_cache, knn_loo_topk};
use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::sq_dist;
use nde_learners::preprocessing::{ColumnSpec, TableEncoder};
use nde_learners::{KnnClassifier, Learner, Model};
use nde_parallel::TopKCache;
use nde_tabular::Table;

const N_TRAIN: usize = 30_000;
/// Query batches, cycled.
const BATCHES: usize = 20;
/// Queries per batch (one step).
const QUERIES: usize = 200;
/// Queries per step checked against a brute-force scan.
const CHECKED: usize = 2;

pub struct KnnLowdim;

pub struct Inputs {
    train: Table,
    queries: Table,
}

pub struct State {
    train: ClassDataset,
    batches: Vec<ClassDataset>,
    model: Box<dyn Model>,
    brute: Option<Box<dyn Model>>,
    next: usize,
    preds: Vec<usize>,
    cache: Option<TopKCache>,
    loo: Vec<f64>,
}

fn encoder() -> TableEncoder {
    TableEncoder::new(
        vec![
            ColumnSpec::numeric("employer_rating"),
            ColumnSpec::numeric("age"),
            ColumnSpec::categorical("degree"),
            ColumnSpec::categorical("sex"),
        ],
        "sentiment",
    )
}

/// The `depth` nearest training rows of `query` by a full scan, ordered by
/// `(squared distance, row)` as the index orders them.
fn brute_topk(train: &ClassDataset, query: &[f64], depth: usize) -> Vec<(f64, u32)> {
    let mut all: Vec<(f64, u32)> = (0..train.len())
        .map(|t| (sq_dist(train.x.row(t), query), t as u32))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(depth);
    all
}

impl Workload for KnnLowdim {
    type Inputs = Inputs;
    type State = State;
    const ROWS_PER_STEP: f64 = QUERIES as f64;

    fn setup(seed: u64) -> Result<Inputs, String> {
        let scenario = time("datagen.generate_s", || {
            HiringScenario::generate(&HiringConfig {
                n_train: N_TRAIN,
                n_valid: BATCHES * QUERIES,
                n_test: 0,
                seed,
                ..Default::default()
            })
        });
        Ok(Inputs {
            train: scenario.train,
            queries: scenario.valid,
        })
    }

    fn describe(_: &Inputs) -> String {
        format!(
            "{N_TRAIN} training rows x 8 features, {BATCHES} query batches of {QUERIES}, k={K}, \
             {CHECKED} queries per step checked by brute force"
        )
    }

    fn start(inputs: &Inputs) -> Result<State, String> {
        let fitted = time("learners.encode_fit_s", || encoder().fit(&inputs.train)).map_err(err)?;
        let train = encode(&fitted, &inputs.train)?;
        let queries = encode(&fitted, &inputs.queries)?;
        let batches = (0..BATCHES)
            .map(|b| queries.subset(&(b * QUERIES..(b + 1) * QUERIES).collect::<Vec<_>>()))
            .collect();
        let model = time("learners.knn_fit_s", || {
            KnnClassifier::indexed(K).fit(&train)
        })
        .map_err(err)?;
        let mut state = State {
            train,
            batches,
            model,
            brute: None,
            next: 0,
            preds: Vec::new(),
            cache: None,
            loo: Vec::new(),
        };
        // The first answer: the first batch's predictions and importances.
        Self::step(inputs, &mut state)?;
        Ok(state)
    }

    fn step(_: &Inputs, st: &mut State) -> Result<(), String> {
        let batch = &st.batches[st.next % BATCHES];
        st.next += 1;
        st.preds = time("learners.knn_predict_s", || {
            st.model.predict_batch(&batch.x)
        });
        count("learners.knn_queries", batch.len() as f64);
        let cache = time("parallel.topk_build_s", || {
            build_topk_cache(&st.train, batch, K)
        });
        st.loo = time("importance.loo_topk_s", || {
            knn_loo_topk(&cache, &st.train.y, &batch.y, K)
        });
        st.cache = Some(cache);
        Ok(())
    }

    fn observe(
        _: &Inputs,
        st: &mut State,
        digest: &mut Digest,
        _sampled: bool,
    ) -> Result<(), String> {
        let cache = st.cache.as_ref().ok_or("no neighbor cache")?;
        digest.usizes(&st.preds);
        digest.f64s(&st.loo);
        for v in 0..cache.n_valid() {
            for &(d, t) in cache.neighbors(v) {
                digest.f64(d);
                digest.u64(u64::from(t));
            }
        }

        // Indexed answers must equal a brute-force scan on sampled queries.
        let batch = &st.batches[(st.next - 1) % BATCHES];
        let brute = match &mut st.brute {
            Some(model) => model,
            slot => slot.insert(KnnClassifier::new(K).fit(&st.train).map_err(err)?),
        };
        for j in 0..CHECKED {
            let v = (st.next * 7 + j * 101) % batch.len();
            let query = batch.x.row(v);
            if brute.predict(query) != st.preds[v] {
                return Err(format!(
                    "query {v}: indexed prediction differs from brute force"
                ));
            }
            if brute_topk(&st.train, query, cache.k()) != cache.neighbors(v) {
                return Err(format!("query {v}: top-k list differs from brute force"));
            }
        }
        Ok(())
    }
}
