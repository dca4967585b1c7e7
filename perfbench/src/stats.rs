//! Order statistics and seed derivation.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64 finalizer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th input seed of stream `stream` under the run seed `seed`:
/// every sweep of a run gets its own generator seed, and the same run
/// seed always yields the same sequence.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64((stream << 32) ^ i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn seeds_are_distinct_and_repeatable() {
        assert_eq!(derive_seed(7, 1, 2), derive_seed(7, 1, 2));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(7, 2, 1));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(8, 1, 2));
    }
}
