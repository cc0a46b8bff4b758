//! Small numeric helpers: exact quantiles and the result digest.

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into an FNV-1a digest, byte by byte.
pub fn fnv1a(mut digest: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// The `q`-quantile of `samples` (nearest rank on the sorted samples);
/// `None` when there are none.
pub fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// The median of `values` (mean of the middle two when even).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile::<u64>(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [2.5, 1.5], 0.5), Some(1.5));
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
