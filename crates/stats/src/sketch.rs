//! Mergeable streaming aggregates: fixed-point sums, a quantile sketch,
//! and bivariate co-moments.
//!
//! These are the primitives behind constant-memory campaigns. A campaign
//! that simulates millions of sessions cannot retain every sample; the
//! figures it produces are all counts, means, quantiles, CDF evaluations,
//! and correlations, every one of which folds into a bounded-size state
//! with a `merge` operation.
//!
//! **The determinism contract.** Per-worker accumulators are folded in
//! whatever order the scheduler runs jobs, then merged across workers —
//! so the aggregate state must be *independent of both fold and merge
//! order*, not merely of merge order. That rules out accumulating `f64`
//! sums directly (floating-point addition is not associative). Every
//! accumulated quantity here is an integer:
//!
//! * counts are `u64`,
//! * value sums are [`FixedSum`]: each sample is rounded **once** to a
//!   fixed-point integer (2⁻²⁰ resolution) and summed in `i128`, which is
//!   exact and therefore fully associative and commutative,
//! * the [`QuantileSketch`] stores `u64` counts in value-indexed buckets,
//!
//! so `merge(a, merge(b, c)) == merge(merge(a, b), c)` holds *bitwise*,
//! and any partition of a sample stream into sub-streams folds to the
//! identical state. Property tests in `tests/properties.rs` enforce both.
//! Derived `f64` statistics (means, quantiles) are computed once, at read
//! time, from the integer state — the same state yields the same bits.

use std::collections::BTreeMap;

/// Fixed-point scale: 2²⁰ ≈ 10⁶ steps per unit. Samples are bounded by
/// campaign metrics (≤ ~10⁶ in magnitude), so a scaled sample fits in
/// ~2⁴⁰ and 10⁹ of them sum to ~2⁷⁰ — comfortably inside `i128`.
const FIXED_SCALE: f64 = (1u64 << 20) as f64;

/// An order-independent accumulator for `f64` sums.
///
/// Each added sample is rounded once to a multiple of 2⁻²⁰ and the
/// rounded values are summed exactly in `i128`. The quantization error is
/// bounded by `n · 2⁻²¹` after `n` adds — negligible for campaign metrics
/// — and in exchange the sum is bit-identical for **any** add/merge
/// order. `total()` converts back to `f64` once, at read time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedSum(i128);

impl FixedSum {
    /// An empty sum.
    pub fn new() -> Self {
        FixedSum(0)
    }

    /// Adds one sample. NaN is rejected with a panic: a NaN in a metric
    /// stream is an upstream bug, and silently poisoning the sum (or
    /// dropping the sample) would hide it.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "FixedSum::add(NaN)");
        self.0 += (x * FIXED_SCALE).round() as i128;
    }

    /// Merges another sum into this one. Exact integer addition:
    /// associative, commutative.
    pub fn merge(&mut self, other: &FixedSum) {
        self.0 += other.0;
    }

    /// The accumulated total as `f64`.
    pub fn total(&self) -> f64 {
        self.0 as f64 / FIXED_SCALE
    }

    /// `total() / count`, or `None` for an empty count.
    pub fn mean(&self, count: u64) -> Option<f64> {
        (count > 0).then(|| self.total() / count as f64)
    }
}

/// ln γ for the sketch's geometric buckets, chosen for ~1 % relative
/// accuracy: γ = e^LN_GAMMA ≈ 1.0202, so consecutive bucket boundaries
/// differ by ~2 % and a bucket's representative value is within ~1 % of
/// every sample it holds. A literal (not computed at runtime) so the
/// bucket function is a fixed pure function of the sample.
const LN_GAMMA: f64 = 0.02;

/// Magnitudes below this collapse into the zero bucket. Campaign metrics
/// (fps, kbps, ms, ratings) are either exactly zero or well above it.
const MIN_MAGNITUDE: f64 = 1e-9;

/// A mergeable quantile sketch over `f64` samples with bounded memory and
/// ~1 % relative accuracy (DDSketch-style geometric buckets).
///
/// A sample `x > 0` lands in bucket `⌈ln(x)/ln γ⌉`, which spans
/// `(γ^(i-1), γ^i]`; negative samples mirror into a second bucket map and
/// near-zeros into a dedicated counter, so the sketch is exact about
/// signs. Bucket counts are `u64` and [`merge`](QuantileSketch::merge) is
/// per-bucket integer addition — associative, commutative, and
/// order-canonical by construction (see the module docs). The number of
/// buckets is logarithmic in the sample range (~1,400 spanning 1e-9 to
/// 1e3), so memory is bounded no matter how many samples stream through.
///
/// Exact extrema and a [`FixedSum`] ride along, so `min`/`max`/`mean` are
/// not sketched; only interior quantiles carry the ~1 % bucket error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSketch {
    /// Bucket counts for positive samples, keyed by `⌈ln(x)/ln γ⌉`.
    pos: BTreeMap<i32, u64>,
    /// Bucket counts for negative samples, keyed on `|x|`.
    neg: BTreeMap<i32, u64>,
    /// Samples with `|x| < MIN_MAGNITUDE`.
    zero: u64,
    count: u64,
    sum: FixedSum,
    /// Exact extrema (`None` until the first sample).
    bounds: Option<(f64, f64)>,
}

/// The bucket index of a positive magnitude.
fn bucket_of(magnitude: f64) -> i32 {
    (magnitude.ln() / LN_GAMMA).ceil() as i32
}

/// The representative value of bucket `i`: the geometric midpoint of
/// `(γ^(i-1), γ^i]`.
fn bucket_value(i: i32) -> f64 {
    ((f64::from(i) - 0.5) * LN_GAMMA).exp()
}

impl QuantileSketch {
    /// An empty sketch.
    pub const fn new() -> Self {
        QuantileSketch {
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: FixedSum(0),
            bounds: None,
        }
    }

    /// Builds a sketch from a sample slice (fold order is irrelevant).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in samples {
            s.add(x);
        }
        s
    }

    /// Records one sample. Panics on NaN (an upstream bug; see
    /// [`FixedSum::add`]).
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "QuantileSketch::add(NaN)");
        if x.abs() < MIN_MAGNITUDE {
            self.zero += 1;
        } else if x > 0.0 {
            *self.pos.entry(bucket_of(x)).or_insert(0) += 1;
        } else {
            *self.neg.entry(bucket_of(-x)).or_insert(0) += 1;
        }
        self.count += 1;
        self.sum.add(x);
        self.bounds = Some(match self.bounds {
            None => (x, x),
            Some((lo, hi)) => (lo.min(x), hi.max(x)),
        });
    }

    /// Merges another sketch into this one: per-bucket `u64` addition
    /// plus exact extrema/sum merges. Bitwise associative and
    /// commutative.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&b, &c) in &other.pos {
            *self.pos.entry(b).or_insert(0) += c;
        }
        for (&b, &c) in &other.neg {
            *self.neg.entry(b).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.bounds = match (self.bounds, other.bounds) {
            (a, None) => a,
            (None, b) => b,
            (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
        };
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean (to fixed-point resolution), or `None` when
    /// empty.
    pub fn mean(&self) -> Option<f64> {
        self.sum.mean(self.count)
    }

    /// Exact minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.bounds.map(|(lo, _)| lo)
    }

    /// Exact maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.bounds.map(|(_, hi)| hi)
    }

    /// The smallest value `v` (within ~1 % relative error) such that at
    /// least `⌈q·n⌉` samples are ≤ `v`. `q ≤ 0` yields the minimum,
    /// `q ≥ 1` the maximum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (lo, hi) = self.bounds?;
        if q <= 0.0 {
            return Some(lo);
        }
        let rank = ((q.min(1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        // Ascending value order: most-negative first (descending |x|
        // bucket index), then zeros, then positives ascending.
        for (&b, &c) in self.neg.iter().rev() {
            seen += c;
            if seen >= rank {
                return Some((-bucket_value(b)).clamp(lo, hi));
            }
        }
        seen += self.zero;
        if seen >= rank {
            return Some(0.0f64.clamp(lo, hi));
        }
        for (&b, &c) in self.pos.iter() {
            seen += c;
            if seen >= rank {
                return Some(bucket_value(b).clamp(lo, hi));
            }
        }
        Some(hi)
    }

    /// F(x): the fraction of samples ≤ `x`, to bucket resolution (samples
    /// sharing x's bucket all count as ≤ x). Zero when empty.
    pub fn at(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut below = 0u64;
        if x >= -MIN_MAGNITUDE {
            // Everything negative is ≤ x.
            below += self.neg.values().sum::<u64>();
            if x >= MIN_MAGNITUDE {
                below += self.zero;
                let cutoff = bucket_of(x);
                below += self.pos.range(..=cutoff).map(|(_, c)| *c).sum::<u64>();
            } else {
                below += self.zero;
            }
        } else {
            let cutoff = bucket_of(-x);
            below += self.neg.range(cutoff..).map(|(_, c)| *c).sum::<u64>();
        }
        below as f64 / self.count as f64
    }

    /// Number of occupied buckets (memory proxy, for tests and docs).
    pub fn buckets(&self) -> usize {
        self.pos.len() + self.neg.len() + usize::from(self.zero > 0)
    }
}

/// Mergeable bivariate co-moments: everything a scatter figure needs
/// (count, means, Pearson correlation, least-squares slope) in six
/// integers.
///
/// Each `(x, y)` pair contributes its five products rounded once into
/// [`FixedSum`]s, so the state obeys the same bitwise merge-order
/// independence as the rest of this module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoMoments {
    /// Number of pairs.
    pub n: u64,
    sum_x: FixedSum,
    sum_y: FixedSum,
    sum_xx: FixedSum,
    sum_yy: FixedSum,
    sum_xy: FixedSum,
}

impl CoMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(x, y)` pair.
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sum_x.add(x);
        self.sum_y.add(y);
        self.sum_xx.add(x * x);
        self.sum_yy.add(y * y);
        self.sum_xy.add(x * y);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &CoMoments) {
        self.n += other.n;
        self.sum_x.merge(&other.sum_x);
        self.sum_y.merge(&other.sum_y);
        self.sum_xx.merge(&other.sum_xx);
        self.sum_yy.merge(&other.sum_yy);
        self.sum_xy.merge(&other.sum_xy);
    }

    /// Pearson correlation coefficient; `None` with fewer than two pairs
    /// or when either variable is constant.
    pub fn pearson(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let cov = n * self.sum_xy.total() - self.sum_x.total() * self.sum_y.total();
        let var_x = n * self.sum_xx.total() - self.sum_x.total().powi(2);
        let var_y = n * self.sum_yy.total() - self.sum_y.total().powi(2);
        if var_x <= 0.0 || var_y <= 0.0 {
            return None;
        }
        Some(cov / (var_x * var_y).sqrt())
    }

    /// Least-squares slope of y on x; `None` with fewer than two pairs or
    /// constant x.
    pub fn slope(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let var_x = n * self.sum_xx.total() - self.sum_x.total().powi(2);
        if var_x <= 0.0 {
            return None;
        }
        Some((n * self.sum_xy.total() - self.sum_x.total() * self.sum_y.total()) / var_x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sum_is_order_independent() {
        let xs = [0.1, 0.7, 123.456, -3.25, 1e6, 1e-6];
        let mut forward = FixedSum::new();
        let mut backward = FixedSum::new();
        for x in xs {
            forward.add(x);
        }
        for x in xs.iter().rev() {
            backward.add(*x);
        }
        assert_eq!(forward, backward);
        assert!((forward.total() - xs.iter().sum::<f64>()).abs() < 1e-5);
    }

    #[test]
    fn sketch_counts_and_mean_are_exact() {
        let s = QuantileSketch::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean().unwrap() - 2.5).abs() < 1e-5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn sketch_quantiles_within_relative_error() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = QuantileSketch::from_samples(&samples);
        for (q, exact) in [(0.1, 100.0), (0.5, 500.0), (0.9, 900.0)] {
            let got = s.quantile(q).unwrap();
            assert!(
                (got - exact).abs() <= exact * 0.025,
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn sketch_handles_zero_and_negative() {
        let s = QuantileSketch::from_samples(&[-10.0, -1.0, 0.0, 0.0, 1.0, 10.0]);
        assert_eq!(s.count(), 6);
        assert_eq!(s.min(), Some(-10.0));
        assert_eq!(s.max(), Some(10.0));
        // F at zero covers negatives and zeros.
        assert!((s.at(0.0) - 4.0 / 6.0).abs() < 1e-12);
        assert!(s.at(-0.5) >= 2.0 / 6.0 - 1e-12);
        let q25 = s.quantile(0.25).unwrap();
        assert!(q25 < 0.0, "first quartile is negative: {q25}");
    }

    #[test]
    fn sketch_at_matches_exact_cdf_closely() {
        let samples: Vec<f64> = (1..=500).map(|i| f64::from(i) * 0.37).collect();
        let s = QuantileSketch::from_samples(&samples);
        let exact = crate::Cdf::from_samples(&samples).unwrap();
        for x in [1.0, 10.0, 50.0, 120.0, 185.0] {
            let got = s.at(x);
            let want = exact.at(x);
            assert!((got - want).abs() < 0.03, "at({x}): {got} vs {want}");
        }
        assert_eq!(s.at(1e9), 1.0);
        assert_eq!(s.at(-1e9), 0.0);
    }

    #[test]
    fn sketch_merge_equals_serial_fold() {
        let a: Vec<f64> = (0..100).map(|i| f64::from(i) * 1.7).collect();
        let b: Vec<f64> = (0..77).map(|i| f64::from(i) * -0.3).collect();
        let mut merged = QuantileSketch::from_samples(&a);
        merged.merge(&QuantileSketch::from_samples(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged, QuantileSketch::from_samples(&all));
    }

    #[test]
    fn sketch_memory_is_bounded() {
        // A million samples across nine decades land in ~a thousand
        // buckets, not a million.
        let mut s = QuantileSketch::new();
        for i in 0..1_000_000u64 {
            s.add((i % 100_000) as f64 * 1e-3 + 1e-6);
        }
        assert_eq!(s.count(), 1_000_000);
        assert!(s.buckets() < 2_000, "{} buckets", s.buckets());
    }

    #[test]
    fn empty_sketch_reads_none() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.at(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sketch_rejects_nan() {
        QuantileSketch::new().add(f64::NAN);
    }

    #[test]
    fn comoments_match_sample_formulas() {
        // y = 2x + 1 exactly: r = 1, slope = 2.
        let mut m = CoMoments::new();
        for i in 0..50 {
            let x = f64::from(i);
            m.add(x, 2.0 * x + 1.0);
        }
        assert!((m.pearson().unwrap() - 1.0).abs() < 1e-6);
        assert!((m.slope().unwrap() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn comoments_merge_equals_fold() {
        let pairs: Vec<(f64, f64)> = (0..40).map(|i| (f64::from(i), f64::from(i * i))).collect();
        let mut whole = CoMoments::new();
        for &(x, y) in &pairs {
            whole.add(x, y);
        }
        let (left, right) = pairs.split_at(13);
        let mut a = CoMoments::new();
        left.iter().for_each(|&(x, y)| a.add(x, y));
        let mut b = CoMoments::new();
        right.iter().for_each(|&(x, y)| b.add(x, y));
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn comoments_degenerate_cases() {
        let mut m = CoMoments::new();
        assert_eq!(m.pearson(), None);
        m.add(1.0, 2.0);
        assert_eq!(m.pearson(), None);
        m.add(1.0, 3.0); // constant x
        assert_eq!(m.pearson(), None);
        assert_eq!(m.slope(), None);
    }
}
