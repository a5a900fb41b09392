//! Order statistics over a handful of repeated measurements.

use crate::json::Value;

/// Min / quartiles / max of one metric's repeated values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The values, in the order measured.
    pub values: Vec<f64>,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    /// On an empty slice — every metric is measured at least once.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no values");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            values: values.to_vec(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        }
    }

    /// Number of values.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Interquartile range as a share of the median: the spread the
    /// benchmark contract compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `{"n":..,"min":..,"q1":..,"median":..,"q3":..,"max":..,"values":[..]}`
    pub fn to_json(&self, unit: &str) -> Value {
        Value::obj()
            .with("unit", unit)
            .with("n", self.n())
            .with("min", self.min)
            .with("q1", self.q1)
            .with("median", self.median)
            .with("q3", self.q3)
            .with("max", self.max)
            .with(
                "values",
                self.values
                    .iter()
                    .map(|v| Value::Num(*v))
                    .collect::<Vec<_>>(),
            )
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Summary> {
        let values: Vec<f64> = v
            .get("values")?
            .as_arr()?
            .iter()
            .map(Value::as_f64)
            .collect::<Option<_>>()?;
        (!values.is_empty()).then(|| Summary::of(&values))
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(x, n=4)`
/// (exclusive), which is what the benchmark's driver applies; one value is
/// its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; like Python, the pair of
        // neighbours is clamped into the data but the interpolation is not,
        // so very short series extrapolate.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The `q`-quantile (0..=1) of unsorted `values` by nearest rank.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max), (1.0, 2.0));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[3.25, 1.0, 2.5]);
        let back = Summary::from_json(&s.to_json("ms")).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn nearest_rank_quantile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
    }
}
