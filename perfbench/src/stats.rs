//! Seeded generator and summary statistics.

/// SplitMix64: a small deterministic generator, so schedules depend only
/// on the seed argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `pct`/100.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    /// Uniform in `0..n`, excluding every value in `not`.
    pub fn below_except(&mut self, n: usize, not: &[usize]) -> usize {
        loop {
            let v = self.below(n);
            if !not.contains(&v) {
                return v;
            }
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank] as f64
}

/// Nearest-rank quantile (`q` in 0..=1) of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(q * (v.len() - 1) as f64).round() as usize]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
