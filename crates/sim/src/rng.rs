//! Deterministic random number generation for the simulation.
//!
//! Every stochastic decision in the simulator draws from a [`SimRng`], which
//! wraps a seeded ChaCha12 keystream (implemented in-tree, see `chacha.rs`).
//! Given the same seed, every run of the simulation — and therefore every
//! regenerated figure — is bit-identical.
//!
//! Two derivation mechanisms keep subsystem streams independent:
//!
//! * [`SimRng::fork`] derives a child generator from the *parent's state*
//!   and a label — adding draws in one component does not perturb the
//!   stream seen by another (a classic reproducibility hazard in
//!   monolithic-RNG simulators). Forking consumes parent state, so fork
//!   order matters.
//! * [`SimRng::derive`] derives a stream from a *seed value*, a label, and
//!   an index through a SplitMix64 finalizer chain. No state is consumed
//!   and no ordering exists: `derive(seed, "availability", k)` yields the
//!   same stream whether it is the first derivation or the millionth,
//!   which is what lets campaign jobs be planned serially and executed on
//!   any number of threads with bit-identical results.

use crate::chacha::ChaCha12;
use crate::time::SimDuration;

/// A deterministic, forkable random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12,
}

/// A table of `N` weights, every one positive: what [`SimRng::pick`]
/// draws from. Build it in a `const` item, so `new`'s assertion runs at
/// compile time and a table that could draw nothing does not build.
#[derive(Debug, Clone, Copy)]
pub struct Weights<const N: usize>([f64; N]);

impl<const N: usize> Weights<N> {
    /// The table of `weights`; panics (at compile time, in a `const`)
    /// unless there is at least one and each is positive.
    pub const fn new(weights: [f64; N]) -> Self {
        assert!(N > 0, "a weight table needs an entry");
        let mut i = 0;
        while i < N {
            assert!(weights[i] > 0.0, "every weight must be positive");
            i += 1;
        }
        Weights(weights)
    }
}

/// One round of the SplitMix64 output finalizer: a bijective mixer with
/// full avalanche (every input bit flips each output bit with probability
/// ~1/2). The standard constants are from Steele et al.'s SplitMix64.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label string, for [`SimRng::derive`].
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed to a 256-bit key via the SplitMix64 sequence.
        let mut key = [0u8; 32];
        let mut z = seed;
        for chunk in key.chunks_exact_mut(8) {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            chunk.copy_from_slice(&splitmix64(z).to_le_bytes());
        }
        SimRng {
            inner: ChaCha12::from_key(key),
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is a deterministic function of the parent's state
    /// and the `stream` label; forking with different labels yields
    /// uncorrelated streams without consuming parent draws unevenly.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let mut seed = [0u8; 32];
        self.inner.fill_bytes(&mut seed);
        // Mix the label into the seed so equal parent states with different
        // labels still diverge.
        for (i, b) in stream.to_le_bytes().iter().enumerate() {
            seed[i] ^= *b;
        }
        SimRng {
            inner: ChaCha12::from_key(seed),
        }
    }

    /// Collision-resistant, order-independent seed derivation: maps
    /// `(seed, label, index)` to a new 64-bit seed through a SplitMix64
    /// finalizer chain.
    ///
    /// Unlike [`fork`](SimRng::fork) this consumes no generator state, so
    /// the result depends only on the three inputs — the property the
    /// campaign planner relies on to hand every session job a
    /// self-contained seed that is identical no matter which worker, in
    /// which order, at which scale, eventually runs the job.
    pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
        let mut h = splitmix64(seed);
        h = splitmix64(h ^ label_hash(label));
        splitmix64(h ^ splitmix64(index))
    }

    /// A generator seeded with [`derive_seed`](SimRng::derive_seed): one
    /// independent stream per `(seed, label, index)` triple.
    pub fn derive(seed: u64, label: &str, index: u64) -> SimRng {
        SimRng::seed_from_u64(SimRng::derive_seed(seed, label, index))
    }

    /// Next 32 bits of the stream.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// Next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    /// Uniform integer in `[0, n)` by rejection sampling (no modulo bias).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below() needs a positive bound");
        // Reject the low `2^64 mod n` values so every residue is equally
        // likely.
        let zone = n.wrapping_neg() % n;
        loop {
            let v = self.next_u64();
            if v >= zone {
                return v % n;
            }
        }
    }

    /// Uniform sample from a range, e.g. `rng.range(0..10)` or `rng.range(0.0..1.0)`.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random bits scaled into [0, 1), the standard construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponential sample with the given mean (`mean > 0`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse transform; 1 - unit() is in (0, 1] so ln() is finite.
        -mean * (1.0 - self.unit()).ln()
    }

    /// Standard-normal sample via the Box-Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.unit(); // (0, 1]
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal sample parameterized by the mean and standard deviation of
    /// the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto sample with scale `x_min > 0` and shape `alpha > 0`.
    /// Heavy-tailed; used for cross-traffic burst sizes.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.unit()).powf(1.0 / alpha)
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// Picks an index in `0..weights.len()` with probability proportional to
    /// its weight. Returns `None` for an empty slice or non-positive total.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut point = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if point < *w {
                return Some(i);
            }
            point -= *w;
        }
        // Floating point slop: fall back to the last positive-weight entry.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// [`weighted_index`](Self::weighted_index) over a table that cannot
    /// fail it: the same `unit()` draw and the same index.
    pub fn pick<const N: usize>(&mut self, table: &Weights<N>) -> usize {
        // Infallible: `Weights::new` proved a positive total.
        self.weighted_index(&table.0).unwrap_or(N - 1)
    }

    /// Fisher-Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0..=i);
            items.swap(i, j);
        }
    }
}

/// Types [`SimRng::range`] can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform sample in `[lo, hi)` when `inclusive` is false, `[lo, hi]`
    /// when true. Callers guarantee a non-empty range.
    fn sample_uniform(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// Range forms accepted by [`SimRng::range`].
pub trait SampleRange<T> {
    /// Draws one sample from this range.
    fn sample_from(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(
                    if inclusive { lo <= hi } else { lo < hi },
                    "empty sample range"
                );
                // Work in the unsigned 64-bit offset space to cover the
                // signed types without overflow.
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                if span == 0 || span > u128::from(u64::MAX) {
                    // Full 64-bit domain: every value is fair.
                    return (lo as i128).wrapping_add(rng.next_u64() as i128) as $t;
                }
                let off = rng.below(span as u64);
                ((lo as i128) + off as i128) as $t
            }
        }
    )+};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_uniform(rng: &mut SimRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
                assert!(lo <= hi, "empty sample range");
                let u = rng.unit() as $t;
                lo + u * (hi - lo)
            }
        }
    )+};
}

impl_sample_uniform_float!(f32, f64);

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from(self, rng: &mut SimRng) -> T {
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from(self, rng: &mut SimRng) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_uniform(rng, lo, hi, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = SimRng::seed_from_u64(7);
        let mut d1 = parent3.fork(1);
        let mut parent4 = SimRng::seed_from_u64(7);
        let mut d2 = parent4.fork(2);
        assert_ne!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn derive_is_order_independent_and_stateless() {
        // Same triple, same stream — regardless of any other derivations
        // or draws happening in between.
        let mut a = SimRng::derive(9, "availability", 17);
        let _noise = SimRng::derive(9, "availability", 3).next_u64();
        let mut scratch = SimRng::derive(9, "session", 17);
        scratch.next_u64();
        let mut b = SimRng::derive(9, "availability", 17);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_separates_labels_indices_and_seeds() {
        let base = SimRng::derive_seed(5, "session", 10);
        assert_ne!(base, SimRng::derive_seed(5, "session", 11));
        assert_ne!(base, SimRng::derive_seed(5, "rating", 10));
        assert_ne!(base, SimRng::derive_seed(6, "session", 10));
        // Low-bit diffusion: adjacent indices differ in roughly half their
        // bits, not just the low ones (the weakness of the old ad-hoc mix).
        let a = SimRng::derive_seed(5, "session", 10);
        let b = SimRng::derive_seed(5, "session", 11);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "avalanche too weak: {flipped} bits"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn range_covers_bounds_inclusively_and_exclusively() {
        let mut rng = SimRng::seed_from_u64(8);
        let mut saw_hi = false;
        for _ in 0..200 {
            let v = rng.range(0..=3u32);
            assert!(v <= 3);
            saw_hi |= v == 3;
        }
        assert!(saw_hi, "inclusive range never produced its upper bound");
        for _ in 0..200 {
            assert!(rng.range(0..3u32) < 3);
        }
        // Signed ranges.
        for _ in 0..200 {
            let v = rng.range(-5i32..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..1000 {
            assert!(rng.pareto(3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn weighted_index_distribution() {
        let mut rng = SimRng::seed_from_u64(19);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_edge_cases() {
        let mut rng = SimRng::seed_from_u64(23);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, -1.0]), None);
        assert_eq!(rng.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn pick_draws_what_weighted_index_draws() {
        const TABLE: Weights<4> = Weights::new([0.6, 0.25, 0.1, 0.05]);
        let (mut a, mut b) = (SimRng::seed_from_u64(37), SimRng::seed_from_u64(37));
        for _ in 0..1_000 {
            assert_eq!(Some(a.pick(&TABLE)), b.weighted_index(&TABLE.0));
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "every weight must be positive")]
    fn weights_refuse_a_non_positive_entry() {
        let _ = Weights::new([1.0, 0.0]);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SimRng::seed_from_u64(29);
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        assert_ne!(v, orig);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }

    #[test]
    fn exp_duration_is_nonnegative_and_scaled() {
        let mut rng = SimRng::seed_from_u64(31);
        let mean = SimDuration::from_millis(100);
        let n = 5_000;
        let total: f64 = (0..n).map(|_| rng.exp_duration(mean).as_secs_f64()).sum();
        let sample_mean = total / n as f64;
        assert!((sample_mean - 0.1).abs() < 0.01, "mean {sample_mean}");
    }

    #[test]
    fn unit_is_in_range_and_uniform_ish() {
        let mut rng = SimRng::seed_from_u64(37);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
