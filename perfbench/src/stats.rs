//! Order statistics with the sample-size rule the benchmark reports by: a
//! percentile is only given when at least ten samples lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile `q` in `[0, 1]` of `sorted` (ascending).
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Like [`quantile`], but refuses (returns `None`) when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank: a p99 needs at least 1,000
/// samples.
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of unsorted values (0 when empty).
fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Lower quartile (nearest rank) of unsorted values.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile_f64(values, 0.25)
}

/// Upper quartile (nearest rank) of unsorted values.
pub fn upper_quartile(values: &[f64]) -> f64 {
    quantile_f64(values, 0.75)
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_refused_with_fewer_than_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // Rank 990 leaves exactly 10 samples beyond: allowed.
        assert_eq!(tail_quantile(&v, 0.99), Some(990));
        let v: Vec<u64> = (1..=999).collect();
        // Rank 990 of 999 leaves 9 beyond: refused.
        assert_eq!(tail_quantile(&v, 0.99), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 4.0, 2.0, 6.0, 3.0, 7.0, 5.0]),
            2.0
        );
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(
            upper_quartile(&[8.0, 1.0, 4.0, 2.0, 6.0, 3.0, 7.0, 5.0]),
            6.0
        );
    }
}
