//! Simulated time.
//!
//! All simulation components share a single logical clock expressed as
//! [`SimTime`], a count of microseconds since the start of the simulation.
//! Durations between instants are [`SimDuration`]s. Both are thin wrappers
//! around `u64` so that arithmetic is exact and reproducible — no floating
//! point drift, no wall-clock reads.
//!
//! Microsecond resolution is deliberate: the finest-grained events in the
//! simulation are packet serializations on a ~10 Mbps LAN link (a 1500-byte
//! packet takes 1.2 ms), so a microsecond tick leaves three orders of
//! magnitude of headroom while keeping 64 bits enough for ~584 000 years of
//! simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in microseconds since time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" in wake-up math.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after time zero.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after time zero.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after time zero.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to time zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).0)
    }

    /// Microseconds since time zero.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since time zero (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since time zero as a float (lossless below ~285 years).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration from `earlier` to `self`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

/// Exactly `x.round() as u64` (half away from zero; negatives and NaN to
/// zero; saturating), spelled without the call: baseline x86-64 has no
/// rounding instruction, so `f64::round` is a libc call, and
/// `Link::start_next` comes through here once per packet served.
fn round_to_u64(x: f64) -> u64 {
    /// From here up every `f64` is an integer.
    const ALL_INTEGERS: f64 = (1u64 << 52) as f64;
    // Below 0.5 — `0.5 - ulp` in particular, which `+ 0.5` would carry to
    // 1.0 — the nearest integer is zero; from 2^52 up `+ 0.5` would tie an
    // odd integer to its even neighbour. Between, the sum is exact or
    // stays inside its integer's unit interval.
    if x < 0.5 {
        0
    } else if x >= ALL_INTEGERS {
        x as u64
    } else {
        (x + 0.5) as u64
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration; used as "infinite" in timer math.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// A duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// A duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// A duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_to_u64(secs * 1e6))
    }

    /// Total microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two durations, saturating at [`SimDuration::MAX`].
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtracts, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer factor, saturating.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales by a float factor, rounding to the nearest microsecond.
    /// Negative or NaN factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        let scaled = self.0 as f64 * factor;
        if scaled.is_nan() || scaled <= 0.0 {
            SimDuration::ZERO
        } else if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(scaled.round() as u64)
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Clamps into `[lo, hi]`. Panics in debug builds if `lo > hi`.
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        debug_assert!(lo <= hi, "SimDuration::clamp: lo > hi");
        self.max(lo).min(hi)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn float_round_trip_is_exact_at_microsecond_granularity() {
        let t = SimTime::from_secs_f64(1.234567);
        assert_eq!(t.as_micros(), 1_234_567);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
    }

    proptest::proptest! {
        /// The branch form is `f64::round` on every bit pattern: arbitrary
        /// ones, the neighbourhood of every half-integer boundary, odd
        /// integers past 2^52, and — every case — the two inputs `+ 0.5`
        /// alone gets wrong, NaN, both infinities and the saturating end.
        #[test]
        fn round_to_u64_is_f64_round(
            bits in proptest::prelude::any::<u64>(),
            whole in 0u64..(1 << 54),
            ulps in 0u64..4,
        ) {
            let half = whole as f64 + 0.5;
            let below_half = f64::from_bits(0.5f64.to_bits() - 1);
            let first_odd = ((1u64 << 52) + 1) as f64;
            proptest::prop_assert_eq!(below_half + 0.5, 1.0);
            proptest::prop_assert_ne!(first_odd + 0.5, first_odd);
            for x in [
                f64::from_bits(bits),
                f64::from_bits(half.to_bits() - ulps),
                f64::from_bits(half.to_bits() + ulps),
                ((1u64 << 52) + 2 * whole + 1) as f64,
                below_half,
                first_odd,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                u64::MAX as f64,
            ] {
                proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }

    #[test]
    fn float_seconds_saturate_and_nan_is_zero() {
        // A glacial link's service time saturates instead of wrapping.
        assert_eq!(
            SimDuration::from_secs_f64(1500.0 * 8.0 / 1e-300),
            SimDuration::MAX
        );
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d).as_micros(), 11_500_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
    }

    #[test]
    fn clamp_orders_bounds() {
        let d = SimDuration::from_millis(500);
        let lo = SimDuration::from_millis(100);
        let hi = SimDuration::from_millis(300);
        assert_eq!(d.clamp(lo, hi), hi);
        assert_eq!(SimDuration::ZERO.clamp(lo, hi), lo);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_millis(7).to_string(), "7.000ms");
        assert_eq!(SimDuration::from_secs(7).to_string(), "7.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}
