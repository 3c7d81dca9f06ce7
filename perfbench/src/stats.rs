//! Order statistics over nanosecond samples.

/// Nearest-rank percentile (`pct` in `0..=100`); 0 for an empty sample.
pub fn percentile(sample: &[u64], pct: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut s = sample.to_vec();
    s.sort_unstable();
    let rank = ((s.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

pub fn median(sample: &[u64]) -> f64 {
    percentile(sample, 50.0)
}

pub fn mean(sample: &[u64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<u64>() as f64 / sample.len() as f64
    }
}

/// `num / den`, 0 over an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s = [40, 10, 30, 20];
        assert_eq!(median(&s), 20.0);
        assert_eq!(percentile(&s, 90.0), 40.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean(&s), 25.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
