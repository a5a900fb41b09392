//! Scalar summaries of samples: moments, extrema, and quantiles.

/// Descriptive statistics of a set of `f64` samples.
///
/// NaN samples are rejected at construction — a NaN in a metric stream is
/// always an upstream bug and poisoning every downstream aggregate would
/// hide it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Computes a summary. Returns `None` for an empty slice or any NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        Some(Summary {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().expect("nonempty"),
            sorted,
        })
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]` (clamped).
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Fraction of samples strictly below `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|v| *v < x);
        k as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_nan_rejected() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn basic_moments() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.quantile(1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let s = Summary::from_samples(&[1.0, 2.0]).unwrap();
        assert_eq!(s.quantile(-3.0), 1.0);
        assert_eq!(s.quantile(42.0), 2.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[7.0]).unwrap();
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.quantile(0.3), 7.0);
    }

    #[test]
    fn fractions() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.fraction_below(3.0), 0.5);
        assert_eq!(s.fraction_below(0.5), 0.0);
        assert_eq!(s.fraction_below(10.0), 1.0);
        // Samples equal to x do not count as below.
        assert_eq!(s.fraction_below(1.0), 0.0);
    }
}
