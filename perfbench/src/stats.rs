//! Order statistics over timing samples.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 for an
/// empty one.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile that still leaves at least ten samples
/// above it, with its value: the tail a sample of this size can support.
/// Falls back to the median below twenty samples.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let n = samples.len();
    let pct = if n < 20 {
        50
    } else {
        (((n - 10) * 100) / n).min(99) as u32
    };
    (pct, percentile(samples, pct as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
