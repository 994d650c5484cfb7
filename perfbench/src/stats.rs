//! Order statistics and digests used by the benchmark and its oracle.

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// value such that at least `q · n` of the values are at or below it.
///
/// `q · n` is snapped to the nearest integer when it lies within 1e-9 of
/// one, so `0.999 × 20000` selects rank 19980 rather than 19981.
///
/// # Panics
///
/// On an empty slice or `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = sorted.len();
    let exact = q * n as f64;
    let snapped = exact.round();
    let rank = if (exact - snapped).abs() < 1e-9 {
        snapped
    } else {
        exact.ceil()
    };
    sorted[(rank as usize).clamp(1, n) - 1]
}

/// Nearest-rank median of an unordered sample (the lower middle value
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// FNV-1a over a byte slice: the digest `xanadu replay` and `xanadu
/// serve` print, recomputed independently here.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort-based brute force with the quantile given in permille, so the
    /// rank comparison is exact integer arithmetic.
    fn brute_force(values: &[f64], permille: u64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as u64;
        *sorted
            .iter()
            .find(|&&v| {
                let at_or_below = sorted.iter().filter(|&&x| x <= v).count() as u64;
                at_or_below * 1000 >= permille * n
            })
            .expect("the maximum always qualifies")
    }

    #[test]
    fn nearest_rank_matches_sort_based_brute_force() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 3, 7, 10, 999, 1000, 1001, 2000, 4321] {
            // Few distinct values so ties are common.
            let values: Vec<f64> = (0..n).map(|_| (next() % 97) as f64 * 0.5).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for permille in [1, 10, 250, 500, 750, 900, 950, 990, 999, 1000] {
                assert_eq!(
                    nearest_rank(&sorted, permille as f64 / 1000.0),
                    brute_force(&values, permille),
                    "n = {n}, q = {permille}‰"
                );
            }
        }
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
