//! Order statistics and layer arithmetic used by every report.

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q * n)`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The tail a sample of this size can support: the highest percentile
/// up to `max_q` that still leaves at least `beyond` samples above its
/// rank, never below the median. Returns `(q, value)`.
pub fn tail(sorted: &[f64], max_q: f64, beyond: usize) -> (f64, f64) {
    let n = sorted.len();
    let wanted = ((max_q * n as f64).ceil() as usize).max(1);
    let rank = wanted.min(n.saturating_sub(beyond)).max(n.div_ceil(2)).max(1);
    let q = if rank == wanted { max_q } else { rank as f64 / n as f64 };
    (q, sorted[rank - 1])
}

/// A layer's self time: its median minus the median of the layer
/// beneath it on the same inputs. Negative when the layer saves work
/// the layer beneath would do (a cache hit, a stalled baseline).
pub fn self_time(layer: &[f64], beneath: &[f64]) -> f64 {
    median(layer) - median(beneath)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000), 0.99, 10), (0.99, 990.0));
        assert_eq!(tail(&ramp(2000), 0.99, 10), (0.99, 1980.0));
        // 999 samples: p99 would leave 9 beyond, so step down a rank.
        let (q, v) = tail(&ramp(999), 0.99, 10);
        assert_eq!(v, 989.0);
        assert!(q < 0.99 && (q - 989.0 / 999.0).abs() < 1e-12);
        // 100 samples: p90 is the highest with ten beyond.
        assert_eq!(tail(&ramp(100), 0.99, 10), (0.9, 90.0));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        assert_eq!(tail(&ramp(12), 0.99, 10).1, 6.0);
        assert_eq!(tail(&ramp(3), 0.99, 10).1, 2.0);
        assert_eq!(tail(&[4.0], 0.99, 10).1, 4.0);
    }

    #[test]
    fn self_time_subtracts_medians() {
        let http = [10.0, 12.0, 11.0, 50.0];
        let engine = [1.0, 2.0, 3.0];
        assert_eq!(self_time(&http, &engine), 11.0 - 2.0);
        assert!(self_time(&engine, &http) < 0.0);
    }
}
