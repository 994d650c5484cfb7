//! Summary statistics used by the experiment harness.
//!
//! The paper's evaluation reports means, percentiles, linear fits with R²
//! (the cascading-cold-start linearity claims of §2.3), and scatter/series
//! data. This module provides those primitives: [`OnlineStats`] (Welford),
//! [`Percentiles`] over recorded samples, and [`linear_regression`] with R².

use serde::{Deserialize, Serialize};

/// Online mean/variance accumulator (Welford's algorithm), O(1) memory.
///
/// # Example
///
/// ```
/// use xanadu_simcore::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 1 sample).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample variance with Bessel's correction (0 if fewer than 2 samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Sample-recording percentile estimator (exact, keeps all samples).
///
/// # Example
///
/// ```
/// use xanadu_simcore::stats::Percentiles;
///
/// let mut p = Percentiles::new();
/// for x in 1..=100 {
///     p.record(x as f64);
/// }
/// assert_eq!(p.quantile(0.5), Some(50.5));
/// assert_eq!(p.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`0.0..=1.0`) with linear interpolation, or `None`
    /// if empty or `q` is out of range.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
            self.sorted = true;
        }
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// The median, or `None` if empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// A borrowed view of all recorded samples (unsorted insertion order is
    /// not guaranteed after a quantile query).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Result of an ordinary-least-squares linear fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 for a perfect fit).
    pub r_squared: f64,
}

/// Ordinary least-squares fit of `ys` against `xs`, with R².
///
/// Used to reproduce the paper's claim that cascading cold-start overhead is
/// linear in chain length (R² = 0.993 on ASF, 0.953 on ADF, §2.3).
///
/// Returns `None` when fewer than two points are given, when the lengths
/// differ, or when all `xs` are identical (vertical line).
///
/// # Example
///
/// ```
/// use xanadu_simcore::stats::linear_regression;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [2.1, 4.0, 6.1, 8.0];
/// let fit = linear_regression(&xs, &ys).unwrap();
/// assert!((fit.slope - 1.98).abs() < 0.05);
/// assert!(fit.r_squared > 0.99);
/// ```
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0 // ys constant and fit reproduces them exactly
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// A normal-approximation confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

impl OnlineStats {
    /// A 95 % normal-approximation confidence interval for the mean
    /// (`z = 1.96`), or `None` with fewer than 2 samples. Experiments use
    /// this to report the stability of repeated-trigger means.
    pub fn confidence_interval_95(&self) -> Option<ConfidenceInterval> {
        if self.n < 2 {
            return None;
        }
        let se = (self.sample_variance() / self.n as f64).sqrt();
        Some(ConfidenceInterval {
            mean: self.mean(),
            half_width: 1.96 * se,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn online_stats_known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn confidence_interval_behaviour() {
        let mut s = OnlineStats::new();
        assert!(s.confidence_interval_95().is_none());
        s.record(10.0);
        assert!(s.confidence_interval_95().is_none());
        for x in [10.0, 12.0, 8.0, 11.0, 9.0] {
            s.record(x);
        }
        let ci = s.confidence_interval_95().unwrap();
        assert!(ci.contains(s.mean()));
        assert!(ci.lo() < s.mean() && s.mean() < ci.hi());
        // A tight constant sample collapses the interval.
        let mut tight = OnlineStats::new();
        for _ in 0..100 {
            tight.record(5.0);
        }
        let tci = tight.confidence_interval_95().unwrap();
        assert!(tci.half_width < 1e-9);
        assert!(tci.contains(5.0));
        assert!(!tci.contains(5.1));
    }

    #[test]
    fn percentiles_interpolate() {
        let mut p = Percentiles::new();
        for x in [10.0, 20.0, 30.0, 40.0] {
            p.record(x);
        }
        assert_eq!(p.quantile(0.0), Some(10.0));
        assert_eq!(p.quantile(1.0), Some(40.0));
        assert_eq!(p.median(), Some(25.0));
        assert_eq!(p.quantile(0.25), Some(17.5));
    }

    #[test]
    fn percentiles_edge_cases() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        p.record(7.0);
        assert_eq!(p.quantile(0.5), Some(7.0));
        assert_eq!(p.quantile(-0.1), None);
        assert_eq!(p.quantile(1.1), None);
    }

    #[test]
    fn percentiles_unsorted_insertion() {
        let mut p = Percentiles::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            p.record(x);
        }
        assert_eq!(p.median(), Some(3.0));
        // record after a query re-marks unsorted
        p.record(0.0);
        assert_eq!(p.quantile(0.0), Some(0.0));
    }

    #[test]
    fn regression_perfect_line() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 5.0, 7.0];
        let f = linear_regression(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_noisy_line_high_r2() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x + 2.0 + (x * 7.0).sin()).collect();
        let f = linear_regression(&xs, &ys).unwrap();
        assert!(f.r_squared > 0.99, "r2 {}", f.r_squared);
        assert!((f.slope - 4.0).abs() < 0.1);
    }

    #[test]
    fn regression_rejects_degenerate_inputs() {
        assert!(linear_regression(&[1.0], &[1.0]).is_none());
        assert!(linear_regression(&[1.0, 2.0], &[1.0]).is_none());
        assert!(linear_regression(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn regression_constant_y_has_r2_one() {
        let f = linear_regression(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn welford_matches_naive(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &data {
                s.record(x);
            }
            let n = data.len() as f64;
            let mean = data.iter().sum::<f64>() / n;
            let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        }

        #[test]
        fn merge_is_order_independent(
            a in proptest::collection::vec(-1e3f64..1e3, 1..50),
            b in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let acc = |xs: &[f64]| {
                let mut s = OnlineStats::new();
                for &x in xs { s.record(x); }
                s
            };
            let mut ab = acc(&a);
            ab.merge(&acc(&b));
            let mut ba = acc(&b);
            ba.merge(&acc(&a));
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            prop_assert!((ab.population_variance() - ba.population_variance()).abs() < 1e-6);
        }

        #[test]
        fn quantiles_are_monotone(
            data in proptest::collection::vec(-1e6f64..1e6, 2..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let mut p = Percentiles::new();
            for &x in &data { p.record(x); }
            let vlo = p.quantile(lo).unwrap();
            let vhi = p.quantile(hi).unwrap();
            prop_assert!(vlo <= vhi + 1e-9);
        }

        #[test]
        fn regression_r2_in_unit_interval(
            pts in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..60)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            if let Some(f) = linear_regression(&xs, &ys) {
                prop_assert!(f.r_squared >= -1e-9 && f.r_squared <= 1.0 + 1e-9,
                    "r2 {}", f.r_squared);
            }
        }
    }
}
