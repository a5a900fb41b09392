//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use rv_sim::{earliest, SimDuration, SimRng, SimTime};

proptest! {
    /// `earliest` is `flatten().min()`: `None` for an empty or all-`None`
    /// input, and a `Some(SimTime::MAX)` entry is a wake like any other.
    #[test]
    fn earliest_is_min(
        entries in prop::collection::vec(
            prop::option::of(prop_oneof![0u64..1_000, Just(u64::MAX)]),
            0..20,
        ),
        silent in 0usize..4,
    ) {
        let opts: Vec<Option<SimTime>> =
            entries.iter().map(|o| o.map(SimTime::from_micros)).collect();
        prop_assert_eq!(earliest(opts.iter().copied()), opts.iter().copied().flatten().min());
        prop_assert_eq!(earliest(vec![None; silent]), None);
    }

    /// Time arithmetic round-trips: (t + d) - t == d.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert_eq!((time + dur).saturating_since(time), dur);
    }

    /// Saturating subtraction never underflows and is zero when later > self.
    #[test]
    fn saturating_since_never_panics(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let ta = SimTime::from_micros(a);
        let tb = SimTime::from_micros(b);
        let d = ta.saturating_since(tb);
        if a <= b {
            prop_assert_eq!(d, SimDuration::ZERO);
        } else {
            prop_assert_eq!(d.as_micros(), a - b);
        }
    }

    /// Seeded RNG streams are reproducible for any seed.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.range(0u64..1_000_000), b.range(0u64..1_000_000));
        }
    }

    /// weighted_index only ever returns indices with positive weight.
    #[test]
    fn weighted_index_respects_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..16),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        if let Some(i) = rng.weighted_index(&weights) {
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|w| *w <= 0.0));
        }
    }

    /// Shuffle is a permutation: same multiset before and after.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), mut v in prop::collection::vec(any::<u32>(), 0..64)) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut orig = v.clone();
        rng.shuffle(&mut v);
        orig.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(orig, v);
    }
}
