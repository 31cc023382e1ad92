//! A mergeable KLL-style quantile sketch with **deterministic**
//! compaction, so profiles built over `nde-parallel` shards are
//! bit-identical for any thread count.

/// Default per-level buffer capacity ([`QuantileSketch::new`]).
pub const DEFAULT_QUANTILE_K: usize = 200;

/// A KLL-style compactor sketch over `f64` values.
///
/// Values enter a level-0 buffer; when a level overflows its capacity it
/// is sorted ([`f64::total_cmp`], so ties break deterministically) and
/// every other item survives to the next level, where each item weighs
/// twice as much. Classic KLL flips a random coin to pick the surviving
/// parity; this sketch derives the parity from a running compaction
/// counter instead, trading a little worst-case accuracy for **exact
/// reproducibility**: the same pushes and merges, in the same order,
/// always produce the same bits. Combined with `nde-parallel`'s fixed
/// chunk boundaries and in-order folds, sharded profiling is
/// thread-count-invariant.
///
/// While fewer than `k` values have been pushed (and nothing merged), the
/// sketch is *exact*: [`QuantileSketch::quantile`] returns nearest-rank
/// quantiles of the raw data.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Per-level capacity.
    k: usize,
    /// `levels[l]` holds items of weight `2^l` (unsorted between compactions).
    levels: Vec<Vec<f64>>,
    /// Total values pushed (directly or via merged sketches).
    count: u64,
    /// Total compactions performed; its parity picks which half survives.
    compactions: u64,
}

impl QuantileSketch {
    /// An empty sketch with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_QUANTILE_K)
    }

    /// An empty sketch keeping at most `k` items per level (`k >= 4`).
    pub fn with_capacity(k: usize) -> Self {
        QuantileSketch {
            k: k.max(4),
            levels: vec![Vec::new()],
            count: 0,
            compactions: 0,
        }
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-level capacity this sketch was built with.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Observes one value.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.levels[0].push(value);
        if self.levels[0].len() >= self.k {
            self.compact(0);
        }
    }

    /// Folds `other` into `self`: level buffers concatenate pairwise
    /// (then overflowing levels compact bottom-up). Deterministic for a
    /// fixed operand order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), Vec::new());
        }
        for (level, items) in other.levels.iter().enumerate() {
            self.levels[level].extend_from_slice(items);
        }
        self.count += other.count;
        self.compactions += other.compactions;
        for level in 0..self.levels.len() {
            if self.levels[level].len() >= self.k {
                self.compact(level);
            }
        }
    }

    /// Compacts `level`: sort, keep alternating items (parity from the
    /// compaction counter), promote survivors one level up.
    fn compact(&mut self, level: usize) {
        let mut items = std::mem::take(&mut self.levels[level]);
        items.sort_by(f64::total_cmp);
        let offset = (self.compactions % 2) as usize;
        self.compactions += 1;
        if self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        let survivors: Vec<f64> = items.into_iter().skip(offset).step_by(2).collect();
        self.levels[level + 1].extend(survivors);
        if self.levels[level + 1].len() >= self.k {
            self.compact(level + 1);
        }
    }

    /// All retained items as `(value, weight)` pairs, sorted by value
    /// (deterministic total order).
    pub fn weighted_items(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = Vec::new();
        for (level, items) in self.levels.iter().enumerate() {
            let weight = 1u64 << level;
            out.extend(items.iter().map(|&v| (v, weight)));
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Approximate nearest-rank quantile: the smallest retained value
    /// whose cumulative weight reaches `ceil(q · n)`. Exact while the
    /// sketch has never compacted. `None` when empty; `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let items = self.weighted_items();
        if items.is_empty() {
            return None;
        }
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(value, weight) in &items {
            cumulative += weight;
            if cumulative >= rank {
                return Some(value);
            }
        }
        items.last().map(|&(v, _)| v)
    }

    /// Two-sample Kolmogorov–Smirnov statistic between the empirical
    /// distributions the two sketches summarize: the maximum absolute CDF
    /// gap over the union of retained support points. `0.0` when either
    /// side is empty.
    pub fn ks_statistic(&self, other: &QuantileSketch) -> f64 {
        let a = self.weighted_items();
        let b = other.weighted_items();
        let (ta, tb) = (
            a.iter().map(|&(_, w)| w).sum::<u64>(),
            b.iter().map(|&(_, w)| w).sum::<u64>(),
        );
        if ta == 0 || tb == 0 {
            return 0.0;
        }
        let (mut ia, mut ib) = (0usize, 0usize);
        let (mut ca, mut cb) = (0u64, 0u64);
        let mut ks: f64 = 0.0;
        while ia < a.len() || ib < b.len() {
            // Advance over the next support point in the merged order,
            // accumulating all items with that value on both sides.
            let v = match (a.get(ia), b.get(ib)) {
                (Some(&(va, _)), Some(&(vb, _))) => {
                    if va.total_cmp(&vb).is_le() {
                        va
                    } else {
                        vb
                    }
                }
                (Some(&(va, _)), None) => va,
                (None, Some(&(vb, _))) => vb,
                (None, None) => break,
            };
            while ia < a.len() && a[ia].0.total_cmp(&v).is_le() {
                ca += a[ia].1;
                ia += 1;
            }
            while ib < b.len() && b[ib].0.total_cmp(&v).is_le() {
                cb += b[ib].1;
                ib += 1;
            }
            let gap = (ca as f64 / ta as f64 - cb as f64 / tb as f64).abs();
            ks = ks.max(gap);
        }
        ks
    }

    /// Internal state for serialization:
    /// `(k, count, compactions, levels)`.
    pub fn state(&self) -> (usize, u64, u64, &[Vec<f64>]) {
        (self.k, self.count, self.compactions, &self.levels)
    }

    /// Rebuilds a sketch from [`QuantileSketch::state`] output.
    pub fn from_state(k: usize, count: u64, compactions: u64, levels: Vec<Vec<f64>>) -> Self {
        QuantileSketch {
            k: k.max(4),
            levels: if levels.is_empty() {
                vec![Vec::new()]
            } else {
                levels
            },
            count,
            compactions,
        }
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile over raw values (the reference).
    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// Deterministic pseudo-random stream (splitmix64 → unit floats).
    fn stream(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn small_inputs_are_exact() {
        let values: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.push(v);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(
                sketch.quantile(q),
                Some(exact_quantile(&values, q)),
                "q={q}"
            );
        }
    }

    #[test]
    fn large_streams_stay_close() {
        let values = stream(20_000, 42);
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.push(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let approx = sketch.quantile(q).unwrap();
            let exact = exact_quantile(&values, q);
            assert!((approx - exact).abs() < 0.05, "q={q}: {approx} vs {exact}");
        }
    }

    #[test]
    fn merge_matches_fixed_order_rebuild() {
        // Merging shard sketches in chunk order must be deterministic:
        // two identical shard splits always merge to identical bits.
        let values = stream(5_000, 7);
        let build = || {
            let mut merged = QuantileSketch::new();
            for chunk in values.chunks(617) {
                let mut shard = QuantileSketch::new();
                for &v in chunk {
                    shard.push(v);
                }
                merged.merge(&shard);
            }
            merged
        };
        assert_eq!(build(), build());
        let q = build().quantile(0.5).unwrap();
        assert!((q - 0.5).abs() < 0.08, "median of uniform ≈ 0.5, got {q}");
    }

    #[test]
    fn ks_statistic_detects_shift() {
        let (mut a, mut b, mut c) = (
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        );
        for v in stream(4_000, 1) {
            a.push(v);
            b.push(v + 0.001); // negligible shift
            c.push(v * 1.5 + 2.0); // gross covariate shift
        }
        assert!(a.ks_statistic(&a) == 0.0);
        assert!(a.ks_statistic(&b) < 0.05);
        assert!(a.ks_statistic(&c) > 0.9);
        // Symmetric.
        assert!((a.ks_statistic(&c) - c.ks_statistic(&a)).abs() < 1e-12);
    }

    /// Pins the KS error that consumers of sketch drift scores (data
    /// validation, `quality_report`) inherit: default sketches built the
    /// way `Table::quality_profile` builds them — 2048-value shards merged
    /// in order — against exact-mode sketches that never compact.
    #[test]
    fn sketch_ks_tracks_exact_ks() {
        let sharded = |values: &[f64]| {
            let mut merged = QuantileSketch::new();
            for chunk in values.chunks(2048) {
                let mut shard = QuantileSketch::new();
                chunk.iter().for_each(|&v| shard.push(v));
                merged.merge(&shard);
            }
            merged
        };
        // Exact mode ignores push order; sorting first keeps its own sort
        // linear, and a shift keeps sorted input sorted.
        let exact = |sorted: &[f64], shift: f64| {
            let mut sketch = QuantileSketch::with_capacity(sorted.len() + 1);
            sorted.iter().for_each(|&v| sketch.push(v + shift));
            sketch
        };
        for n in [150, 300, 1_000, 5_000, 20_000, 100_000] {
            for seed in 0..20u64 {
                let (mut reference, fresh) = (stream(n, 2 * seed), stream(n, 2 * seed + 1));
                let ref_sketch = sharded(&reference);
                reference.sort_by(f64::total_cmp);
                let ref_exact = exact(&reference, 0.0);
                let mut fresh_sorted = fresh.clone();
                fresh_sorted.sort_by(f64::total_cmp);
                for shift in [0.0, 0.02, 0.1, 0.3] {
                    let current: Vec<f64> = fresh.iter().map(|v| v + shift).collect();
                    let approx = ref_sketch.ks_statistic(&sharded(&current));
                    let truth = ref_exact.ks_statistic(&exact(&fresh_sorted, shift));
                    if n < DEFAULT_QUANTILE_K {
                        assert_eq!(approx, truth, "n={n}, seed={seed}, shift={shift}");
                    }
                    let gap = (approx - truth).abs();
                    assert!(gap <= 0.02, "n={n}, seed={seed}, shift={shift}: gap {gap}");
                }
            }
        }
    }

    #[test]
    fn state_round_trips() {
        let mut sketch = QuantileSketch::with_capacity(32);
        for v in stream(1_000, 3) {
            sketch.push(v);
        }
        let (k, count, compactions, levels) = sketch.state();
        let rebuilt = QuantileSketch::from_state(k, count, compactions, levels.to_vec());
        assert_eq!(rebuilt, sketch);
        assert_eq!(rebuilt.quantile(0.5), sketch.quantile(0.5));
    }

    #[test]
    fn empty_sketch() {
        let sketch = QuantileSketch::new();
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.count(), 0);
        let mut other = QuantileSketch::new();
        other.merge(&sketch);
        assert_eq!(other, QuantileSketch::new());
    }
}
