//! Column profiling: the bridge from a [`Table`] to the `nde-quality`
//! sketches. Every column statistic in the workspace — validation
//! expectations, drift scores, pipeline profiles — is read from the
//! [`TableProfile`] built here; there is no second, exact profiler.

use crate::column::Column;
use crate::table::Table;
use nde_quality::{ColumnSketch, TableProfile};
use std::ops::Range;

impl Table {
    /// Builds the streaming [`TableProfile`] (mergeable sketches) for this
    /// table, sharding rows across `NDE_THREADS` workers. Chunk boundaries
    /// and the in-order shard merge are functions of the row count only,
    /// so the result is bit-identical for every thread count.
    pub fn quality_profile(&self) -> TableProfile {
        self.quality_profile_sharded(nde_parallel::num_threads(), QUALITY_PROFILE_CHUNK_LEN)
    }

    /// [`Table::quality_profile`] with an explicit worker cap and chunk
    /// length. The worker cap bounds scheduling only; `chunk_len` fixes
    /// the shard boundaries, so two calls with the same `chunk_len` agree
    /// bit-for-bit regardless of `workers`.
    pub fn quality_profile_sharded(&self, workers: usize, chunk_len: usize) -> TableProfile {
        let rows = self.num_rows();
        let fields = self.schema().fields();
        let columns = self.columns();
        let sketch_rows = |range: Range<usize>| {
            let sketches = fields
                .iter()
                .zip(columns)
                .map(|(f, c)| sketch_column_range(&f.name, c, range.clone()))
                .collect();
            let mut shard = TableProfile::with_columns(sketches);
            shard.rows = range.len() as u64;
            shard
        };
        let shards = nde_parallel::par_map_chunks_with(workers, rows, chunk_len, sketch_rows);
        shards
            .into_iter()
            .reduce(|mut acc, shard| {
                acc.merge(&shard);
                acc
            })
            // Zero-row tables produce zero chunks; keep the column
            // skeletons so schema-level drift checks still see them.
            .unwrap_or_else(|| sketch_rows(0..0))
    }
}

/// Shard length for [`Table::quality_profile`]: big enough that sketch
/// merge costs are amortized, small enough that mid-size tables still
/// fan out.
pub const QUALITY_PROFILE_CHUNK_LEN: usize = 2048;

/// Sketches one row range of a column. Int/Float/Bool cells widen to
/// `f64` (moments + quantiles), strings feed the heavy-hitters sketch.
fn sketch_column_range(name: &str, col: &Column, range: Range<usize>) -> ColumnSketch {
    let mut s = match col {
        Column::Str(_) => ColumnSketch::categorical(name),
        _ => ColumnSketch::numeric(name),
    };
    match col {
        Column::Int(cells) => cells[range]
            .iter()
            .for_each(|cell| s.push_num(cell.map(|v| v as f64))),
        Column::Float(cells) => cells[range].iter().for_each(|&cell| s.push_num(cell)),
        Column::Bool(cells) => cells[range]
            .iter()
            .for_each(|cell| s.push_num(cell.map(|v| if v { 1.0 } else { 0.0 }))),
        Column::Str(cells) => cells[range]
            .iter()
            .for_each(|cell| s.push_str(cell.as_deref())),
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::builder()
            .float("x", [Some(1.0), Some(3.0), None, Some(5.0)])
            .str_opt(
                "cat",
                vec![Some("a".into()), Some("b".into()), Some("a".into()), None],
            )
            .int("n", [1, 2, 3, 4])
            .build()
            .unwrap()
    }

    #[test]
    fn quality_profile_covers_all_column_types() {
        let t = demo();
        let profile = t.quality_profile();
        assert_eq!(profile.rows, 4);
        assert_eq!(profile.columns.len(), 3);
        let x = profile.column("x").unwrap();
        assert_eq!(x.count, 4);
        assert_eq!(x.nulls, 1);
        assert_eq!(x.moments.min, Some(1.0));
        assert_eq!(x.moments.max, Some(5.0));
        let cat = profile.column("cat").unwrap();
        assert_eq!(cat.kind, nde_quality::ColumnKind::Categorical);
        assert_eq!(cat.nulls, 1);
        assert_eq!(cat.heavy.top()[0].0, "a");
    }

    #[test]
    fn quality_profile_identical_for_any_worker_count() {
        let values: Vec<Option<f64>> = (0..10_000)
            .map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some(((i * 2654435761u64 % 997) as f64) / 10.0)
                }
            })
            .collect();
        let labels: Vec<Option<String>> =
            (0..10_000).map(|i| Some(format!("c{}", i % 23))).collect();
        let t = Table::builder()
            .float("v", values)
            .str_opt("label", labels)
            .build()
            .unwrap();
        // Small chunks force many shard merges; the merged bits must not
        // depend on how many workers did the sharding.
        let baseline = t.quality_profile_sharded(1, 257);
        for workers in [2, 3, 8] {
            assert_eq!(t.quality_profile_sharded(workers, 257), baseline);
        }
        assert_eq!(baseline.rows, 10_000);
    }

    #[test]
    fn quality_profile_of_empty_table_keeps_column_skeletons() {
        let t = Table::builder()
            .float("x", Vec::<f64>::new())
            .build()
            .unwrap();
        let profile = t.quality_profile();
        assert_eq!(profile.rows, 0);
        assert_eq!(profile.columns.len(), 1);
        assert_eq!(profile.columns[0].name, "x");
    }
}
