//! Empirical cumulative distribution functions.
//!
//! Every distributional figure in the paper (Figures 5, 6, 11–15, 17, 18,
//! 20–27) is a CDF; this module is the common machinery behind all of them.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. Returns `None` if empty or any NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Cdf> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        Some(Cdf { sorted })
    }

    /// Number of underlying samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// F(x): fraction of samples less than or equal to `x`.
    pub fn at(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|v| *v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest sample `v` with `F(v) >= q` (`q` clamped to
    /// `(0, 1]`; `q <= 0` returns the minimum).
    pub fn quantile(&self, q: f64) -> f64 {
        if q <= 0.0 {
            return self.sorted[0];
        }
        let q = q.min(1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty by construction")
    }

    /// Evaluates the CDF on a uniform grid of `n >= 2` points spanning
    /// `[lo, hi]`.
    pub fn series_on_grid(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "grid needs at least two points");
        assert!(hi >= lo, "grid bounds reversed");
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.at(x))
            })
            .collect()
    }

    /// The full step-function representation: one `(value, F(value))` pair
    /// per distinct sample value.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, v) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == *v => last.1 = f,
                _ => out.push((*v, f)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(samples: &[f64]) -> Cdf {
        Cdf::from_samples(samples).unwrap()
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Cdf::from_samples(&[]).is_none());
        assert!(Cdf::from_samples(&[f64::NAN]).is_none());
    }

    #[test]
    fn at_is_fraction_leq() {
        let c = cdf(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.at(0.0), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.0), 0.75);
        assert_eq!(c.at(2.5), 0.75);
        assert_eq!(c.at(3.0), 1.0);
        assert_eq!(c.at(99.0), 1.0);
    }

    #[test]
    fn quantile_inverts() {
        let c = cdf(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(0.25), 10.0);
        assert_eq!(c.quantile(0.26), 20.0);
        assert_eq!(c.quantile(0.5), 20.0);
        assert_eq!(c.quantile(1.0), 40.0);
        assert_eq!(c.quantile(2.0), 40.0);
    }

    #[test]
    fn mean_min_max() {
        let c = cdf(&[1.0, 2.0, 6.0]);
        assert!((c.mean() - 3.0).abs() < 1e-12);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 6.0);
    }

    #[test]
    fn grid_series_is_monotone() {
        let c = cdf(&[5.0, 1.0, 3.0, 3.0, 8.0]);
        let series = c.series_on_grid(0.0, 10.0, 21);
        assert_eq!(series.len(), 21);
        assert_eq!(series[0], (0.0, 0.0));
        assert_eq!(series.last().unwrap().1, 1.0);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn steps_deduplicate_values() {
        let c = cdf(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(c.steps(), vec![(2.0, 0.75), (5.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn grid_needs_two_points() {
        cdf(&[1.0]).series_on_grid(0.0, 1.0, 1);
    }
}
