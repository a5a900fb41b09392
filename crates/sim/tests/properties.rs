//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use rv_sim::{earliest, EventQueue, SimDuration, SimRng, SimTime, TimerWheel};

/// Replays `ops` against the timing wheel and the retained `BinaryHeap`
/// reference ([`EventQueue`]), asserting identical behavior after every
/// step. Ops: 0 = schedule, 1 = pop, 2 = cancel, 3 = advance-and-drain
/// (`pop_due` to a moved `now`). The heap has no cancel, so cancelled
/// seqs are skipped when it pops — the wheel must pop the surviving
/// events in exactly the heap's `(at, seq)` order.
fn check_wheel_matches_heap(ops: &[(u8, u64)]) -> Result<(), String> {
    let mut wheel = TimerWheel::new();
    let mut heap = EventQueue::new();
    let mut cancelled = std::collections::HashSet::new();
    let mut tokens = Vec::new();
    let mut gone = std::collections::HashSet::new(); // popped or cancelled ids
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;

    let heap_pop = |heap: &mut EventQueue<u64>, cancelled: &std::collections::HashSet<u64>| loop {
        match heap.pop() {
            Some(ev) if cancelled.contains(&ev.event) => continue,
            other => return other,
        }
    };

    for (op, arg) in ops {
        match op % 4 {
            0 => {
                // Schedule. Arg spreads over near times, coarse-slot
                // times, and (rarely) past the 2^36-tick horizon.
                let at = match arg % 10 {
                    9 => SimTime::from_micros((1 << 36) + arg % 1_000),
                    8 => now + SimDuration::from_secs(30 + arg % 100),
                    _ => SimTime::from_micros((arg / 10) % 3_000_000),
                };
                let id = next_id;
                next_id += 1;
                tokens.push((wheel.push(at, id), id));
                heap.push(at, id);
            }
            1 => {
                let got = wheel.pop();
                let want = heap_pop(&mut heap, &cancelled);
                match (&got, &want) {
                    (Some(g), Some(w)) => {
                        prop_assert_eq!(g.at, w.at);
                        prop_assert_eq!(g.seq, w.seq);
                        prop_assert_eq!(g.event, w.event);
                        gone.insert(g.event);
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "pop mismatch: {:?} vs {:?}", got, want),
                }
            }
            2 => {
                if tokens.is_empty() {
                    continue;
                }
                let (token, id) = tokens[(*arg as usize) % tokens.len()];
                let got = wheel.cancel(token);
                if gone.contains(&id) {
                    prop_assert_eq!(got, None, "cancel of a dead event must be a no-op");
                } else {
                    prop_assert_eq!(got, Some(id));
                    cancelled.insert(id);
                    gone.insert(id);
                }
            }
            _ => {
                // Advance the clock and drain both due streams.
                now += SimDuration::from_micros(arg % 500_000);
                loop {
                    let got = wheel.pop_due(now);
                    // Mirror pop_due for the heap, skipping cancelled.
                    let want = loop {
                        match heap.pop_due(now) {
                            Some(ev) if cancelled.contains(&ev.event) => continue,
                            other => break other,
                        }
                    };
                    match (&got, &want) {
                        (Some(g), Some(w)) => {
                            prop_assert_eq!(g.at, w.at);
                            prop_assert_eq!(g.seq, w.seq);
                            prop_assert_eq!(g.event, w.event);
                            gone.insert(g.event);
                        }
                        (None, None) => break,
                        _ => prop_assert!(false, "pop_due mismatch: {:?} vs {:?}", got, want),
                    }
                }
            }
        }
        // next_time must be exact after every op: equal to the earliest
        // surviving event in the reference.
        let want_next = {
            let mut probe = heap.clone();
            loop {
                match probe.pop() {
                    Some(ev) if cancelled.contains(&ev.event) => continue,
                    Some(ev) => break Some(ev.at),
                    None => break None,
                }
            }
        };
        prop_assert_eq!(wheel.next_time(), want_next);
    }
    Ok(())
}

proptest! {
    /// The timing wheel and the retained `BinaryHeap` reference model pop
    /// identically — same `(at, seq, event)` stream, same `next_time`
    /// after every step — for arbitrary schedule/cancel/advance
    /// interleavings.
    #[test]
    fn wheel_matches_heap_reference(
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..400),
    ) {
        check_wheel_matches_heap(&ops)?;
    }

    /// `next_time` is conservative *and* exact: a wheel reporting
    /// `IdleUntil(t)` has nothing due strictly before `t`, and popping at
    /// `t` always yields an event (the PR 2 driver contract — a driver
    /// jumping the clock to `next_time` never overshoots or spins).
    #[test]
    fn wheel_next_time_is_conservative(
        times in prop::collection::vec(0u64..5_000_000, 1..200),
    ) {
        let mut w = TimerWheel::new();
        for (i, t) in times.iter().enumerate() {
            w.push(SimTime::from_micros(*t), i);
        }
        while let Some(t) = w.next_time() {
            // Nothing is due before the reported wake-up...
            if t > SimTime::ZERO {
                prop_assert!(w.pop_due(t - SimDuration::from_micros(1)).is_none());
            }
            // ...and something is always due exactly at it.
            let ev = w.pop_due(t);
            prop_assert!(ev.is_some());
            prop_assert_eq!(ev.unwrap().at, t);
        }
        prop_assert!(w.is_empty());
    }

    /// Popping the queue always yields events in nondecreasing time order,
    /// regardless of insertion order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= last);
            last = ev.at;
        }
    }

    /// Events at identical times pop in insertion (FIFO) order.
    #[test]
    fn queue_fifo_on_ties(groups in prop::collection::vec((0u64..100, 1usize..10), 1..30)) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        for (t, n) in &groups {
            for _ in 0..*n {
                q.push(SimTime::from_micros(*t), idx);
                idx += 1;
            }
        }
        let mut per_time: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        while let Some(ev) = q.pop() {
            per_time.entry(ev.at.as_micros()).or_default().push(ev.event);
        }
        for seq in per_time.values() {
            let mut sorted = seq.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seq, &sorted);
        }
    }

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
