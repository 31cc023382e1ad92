//! Order statistics and the output digest.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `q` of the steadiest stretch of `values`: they are split, in
/// order, into `len / window` windows of near-equal length, each at least
/// `window` long (one window when there are fewer than `2 * window`), and
/// the lowest of the windows' percentiles is returned. On a shared machine
/// a burst from another tenant inflates the windows it falls in; a change
/// to the program's own steps moves every window, and so the result.
pub fn steadiest_window_percentile(values: &[f64], window: usize, q: f64) -> f64 {
    let n = values.len();
    let windows = (n / window.max(1)).max(1);
    (0..windows)
        .map(|w| percentile(&values[w * n / windows..(w + 1) * n / windows], q))
        .fold(f64::INFINITY, f64::min)
}

/// FNV-1a over the bit patterns of a workload's outputs. Two runs agree
/// on the digest only if every hashed output is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Hashes one 64-bit word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Hashes a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Hashes a slice of floats.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Hashes a slice of indices or labels.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    /// Hashes a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn steadiest_window_skips_a_burst_but_not_a_slower_program() {
        // Three windows of 100; the middle one is a burst ten times slower.
        let burst: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 100 + 1) * if (100..200).contains(&i) { 10.0 } else { 1.0 })
            .collect();
        assert_eq!(percentile(&burst, 0.9), 700.0);
        assert_eq!(steadiest_window_percentile(&burst, 100, 0.9), 90.0);
        // Every step twice as slow: every window moves.
        let slower: Vec<f64> = burst.iter().map(|v| 2.0 * v).collect();
        assert_eq!(steadiest_window_percentile(&slower, 100, 0.9), 180.0);
        // Fewer than two windows' worth: the plain percentile.
        assert_eq!(
            steadiest_window_percentile(&burst[..150], 100, 0.9),
            percentile(&burst[..150], 0.9)
        );
        assert_eq!(steadiest_window_percentile(&[], 100, 0.9), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a, b);
    }
}
