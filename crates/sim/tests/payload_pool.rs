//! The executable spec of [`PayloadPool`]: what it may write into, how
//! much it may own, and which backing a claim lands on.
//!
//! The pool is invisible to everything but the allocator — every window is
//! length-exact and fully overwritten — so the simulation's bit-identity
//! tests cannot see a pool that owns too much or reuses the wrong backing.
//! These scripts can.

use proptest::prelude::*;
use rv_sim::{PayloadBytes, PayloadPool};

/// A capacity of every class, smallest first (the pool's own bounds are
/// private; a length maps to the first of these that holds it).
const CLASS_CAPACITIES: [usize; 10] = [
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    PayloadPool::MAX_POOLED,
];

fn class_of(len: usize) -> Option<usize> {
    CLASS_CAPACITIES.iter().position(|&cap| len <= cap)
}

/// A live view of one claim's bytes: the window itself or a sub-slice.
struct View {
    claim: usize,
    bytes: PayloadBytes,
}

/// Every byte of a claim is its stamp, so any view of it — however
/// sliced — reads as that one value until something rewrites the backing.
fn stamp(claim: usize) -> u8 {
    (claim % 255) as u8 + 1
}

fn intact(view: &View) -> bool {
    view.bytes.iter().all(|&b| b == stamp(view.claim))
}

/// Pump-sized lengths mostly; now and then anything up to 300 KiB, so the
/// top classes and the unpooled arm above them are reached.
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..2_100,
        400usize..1_600,
        0usize..20_000,
        0usize..300 * 1024,
    ]
}

proptest! {
    /// Arbitrary scripts of `copy_in` / `gather`, sub-slices kept alive
    /// across later claims, and drops in any order.
    ///
    /// (a) No backing is written while a view of it lives: a new window
    /// shares its backing with no live view, and every view reads its own
    /// stamp when it is dropped or the script ends.
    /// (b) Per class, the pool never owns more backings than were live at
    /// once: it does not allocate past a free backing, wherever in the
    /// claim queue that backing sits.
    #[test]
    fn pool_never_rewrites_live_bytes_nor_allocates_past_a_free_backing(
        script in prop::collection::vec((0u8..8, lengths(), any::<u32>(), any::<u32>()), 1..80),
    ) {
        let mut pool = PayloadPool::new();
        let mut views: Vec<View> = Vec::new();
        // Per claim: its class (None above the top one). Per class: the
        // peak number of claims with a live view.
        let mut claims: Vec<Option<usize>> = Vec::new();
        let mut peak_live = [0usize; CLASS_CAPACITIES.len()];
        for (op, len, x, y) in script {
            let (x, y) = (x as usize, y as usize);
            match op {
                // Claim: by `copy_in` or by `gather`.
                0..=3 => {
                    let claim = claims.len();
                    let bytes = if op & 1 == 0 {
                        pool.copy_in(&vec![stamp(claim); len])
                    } else {
                        pool.gather(len, |out| {
                            assert_eq!(out.len(), len, "fill sees exactly the window");
                            out.fill(stamp(claim));
                        })
                    };
                    prop_assert_eq!(bytes.len(), len);
                    for old in &views {
                        prop_assert!(
                            len == 0 || !bytes.same_backing(&old.bytes),
                            "claim {claim} ({len} B) wrote into the backing of live claim {}",
                            old.claim
                        );
                    }
                    claims.push(class_of(len).filter(|_| len > 0));
                    views.push(View { claim, bytes });
                }
                // Sub-slice of a live view, kept alive on its own.
                4 | 5 if !views.is_empty() => {
                    let parent = &views[x % views.len()];
                    let start = y % (parent.bytes.len() + 1);
                    let end = start + (x / 7) % (parent.bytes.len() - start + 1);
                    let bytes = parent.bytes.slice(start..end);
                    prop_assert!(bytes.same_backing(&parent.bytes));
                    let claim = parent.claim;
                    views.push(View { claim, bytes });
                }
                // Drop a view, in no particular order.
                _ if !views.is_empty() => {
                    let view = views.swap_remove(x % views.len());
                    prop_assert!(intact(&view), "claim {} was rewritten while live", view.claim);
                }
                _ => {}
            }
            let mut live: Vec<usize> = views.iter().map(|v| v.claim).collect();
            live.sort_unstable();
            live.dedup();
            let mut live_now = [0usize; CLASS_CAPACITIES.len()];
            for class in live.into_iter().filter_map(|claim| claims[claim]) {
                live_now[class] += 1;
            }
            for (class, &capacity) in CLASS_CAPACITIES.iter().enumerate() {
                peak_live[class] = peak_live[class].max(live_now[class]);
                prop_assert!(
                    pool.backings_for(capacity) <= peak_live[class],
                    "class {capacity}: {} backings owned, {} live at peak",
                    pool.backings_for(capacity),
                    peak_live[class]
                );
            }
        }
        for view in &views {
            prop_assert!(intact(view), "claim {} was rewritten while live", view.claim);
        }
        let owned = pool.footprint();
        prop_assert_eq!(owned.backings, peak_live.iter().sum::<usize>());
        let by_class = CLASS_CAPACITIES.iter().zip(&peak_live);
        prop_assert_eq!(owned.bytes, by_class.map(|(cap, n)| cap * n).sum::<usize>());
    }

    /// (c) Windows released in claim order — what ACKed TCP data and
    /// delivered datagrams do — with claims of one class: the claim after
    /// a drop lands on the backing just freed, however many free backings
    /// lie beneath it, and the pool ends owning the most it ever had live.
    #[test]
    fn fifo_claims_land_on_the_backing_just_freed(
        peak in 1usize..60,
        keep in 1usize..60,
        steps in prop::collection::vec(1_025usize..2_049, 1..200),
    ) {
        let keep = keep.min(peak);
        let mut pool = PayloadPool::new();
        let mut live = std::collections::VecDeque::new();
        let mut claims = 0usize;
        let mut claim = |pool: &mut PayloadPool, len: usize| {
            claims += 1;
            let mut found = 0;
            let window = pool.gather(len, |out| {
                found = out[0];
                out.fill(stamp(claims));
            });
            (stamp(claims), found, window)
        };
        // Grow to `peak` live, fall back to `keep`: `peak - keep` free
        // backings sit in the stack before the steady state starts.
        for _ in 0..peak {
            let (stamped, found, window) = claim(&mut pool, 2_000);
            prop_assert_eq!(found, 0, "a growing pool hands out fresh backings");
            live.push_back((stamped, window));
        }
        live.drain(..peak - keep);
        for len in steps {
            let (freed, window) = live.pop_front().expect("keep >= 1");
            drop(window);
            let (stamped, found, window) = claim(&mut pool, len);
            prop_assert_eq!(found, freed, "not the backing just freed");
            live.push_back((stamped, window));
        }
        for (stamped, window) in &live {
            prop_assert!(window.iter().all(|b| b == stamped));
        }
        prop_assert_eq!(pool.footprint().backings, peak);
        prop_assert_eq!(pool.backings_for(2_048), peak);
    }
}

/// A thousand claims with forty live own forty backings, not a thousand —
/// and not the high-water mark of some earlier burst's capacity either:
/// what is owned is what was in flight.
#[test]
fn a_thousand_fifo_claims_with_forty_live_own_forty_backings() {
    let mut pool = PayloadPool::new();
    let mut live = std::collections::VecDeque::new();
    for claim in 0..1_000usize {
        if live.len() == 40 {
            live.pop_front();
        }
        live.push_back(pool.copy_in(&vec![stamp(claim); 1_200]));
    }
    let owned = pool.footprint();
    assert_eq!(owned.backings, 40);
    assert_eq!(owned.bytes, 40 * 2_048);
    assert_eq!(owned.peak_out_bytes, 40 * 1_200);
    for (age, window) in live.iter().enumerate() {
        assert!(window.iter().all(|&b| b == stamp(960 + age)));
    }
}
