//! The executable spec of [`PayloadPool`] and of the [`ByteRope`] open
//! tail written through it: what they may write into, how much they may
//! own, and which backing a claim lands on.
//!
//! The pool is invisible to everything but the allocator — every window is
//! length-exact and fully overwritten — so the simulation's bit-identity
//! tests cannot see a pool that owns too much or reuses the wrong backing.
//! These scripts can. Built with `--features alloc-stats` they also count
//! the allocations a write into the open tail makes (none).

use proptest::prelude::*;
use rv_sim::{ByteRope, PayloadBytes, PayloadPool};

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static ALLOC: rv_sim::alloc_stats::CountingAlloc = rv_sim::alloc_stats::CountingAlloc;

/// Allocations this thread has made, when the counting allocator is built
/// in; `None` otherwise.
fn allocs() -> Option<u64> {
    #[cfg(feature = "alloc-stats")]
    return Some(rv_sim::alloc_stats::thread_allocs());
    #[cfg(not(feature = "alloc-stats"))]
    None
}

/// 256 cases a property in tier-1, where the harness default is 64;
/// `PROPTEST_CASES` (CI runs 2,000) overrides.
fn cases() -> ProptestConfig {
    match std::env::var("PROPTEST_CASES") {
        Ok(_) => ProptestConfig::default(),
        Err(_) => ProptestConfig::with_cases(256),
    }
}

/// A capacity of every class, smallest first (the pool's own bounds are
/// private; a length maps to the first of these that holds it).
const CLASS_CAPACITIES: [usize; 8] = [
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
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

/// Pump-sized lengths mostly; now and then anything up to 96 KiB, so the
/// top classes and the unpooled arm above them are reached.
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..2_100,
        400usize..1_600,
        0usize..20_000,
        0usize..96 * 1024,
    ]
}

/// Write lengths for a rope: packet-sized mostly, now and then past the
/// largest open tail (16 KiB).
fn write_lengths() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..1_600, 0usize..600, 1usize..20_000]
}

/// `len` bytes no earlier write left in that order: a stamp-shifted ramp.
fn ramp(stamp: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| stamp ^ (i as u8)).collect()
}

proptest! {
    #![proptest_config(cases())]

    /// Arbitrary scripts of `gather` claims, sub-slices kept alive
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
                // Claim.
                0..=3 => {
                    let claim = claims.len();
                    let bytes = pool.gather(len, |out| {
                        assert_eq!(out.len(), len, "fill sees exactly the window");
                        out.fill(stamp(claim));
                    });
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

    /// The open tail: arbitrary scripts of writes (`push_with`, whole or
    /// a prefix kept, and `push_slice`), zero-copy `push`es, reads
    /// (`slice`, `advance`, `read_with`) and `clear`, against a `Vec<u8>`.
    ///
    /// (d) The rope holds the model's bytes throughout: every read returns
    /// them, every slice kept alive keeps its bytes whatever is written
    /// after it, and the whole rope reads as the model at the end.
    /// (e) A write the open tail has room for allocates nothing: no new
    /// backing, no chunk, and — counted when the allocator is — not one
    /// allocation.
    #[test]
    fn the_open_tail_holds_the_models_bytes_and_writes_in_place(
        script in prop::collection::vec((0u8..10, write_lengths(), any::<u32>(), any::<u32>()), 1..120),
    ) {
        let mut rope = ByteRope::new();
        let mut model: Vec<u8> = Vec::new();
        let mut kept: Vec<(PayloadBytes, Vec<u8>)> = Vec::new();
        for (step, (op, len, x, y)) in script.into_iter().enumerate() {
            let (x, y) = (x as usize, y as usize);
            let bytes = ramp(step as u8, len);
            match op {
                // A write: whole, or only a prefix kept.
                0..=2 => {
                    let keep = if op == 2 { x % (len + 1) } else { len };
                    let room = rope.tail_room();
                    let (owned, retained) = (rope.footprint(), rope.retained_bytes());
                    let before = allocs();
                    rope.push_with(len, keep, |out| out.copy_from_slice(&bytes));
                    let after = allocs();
                    if keep > 0 && len <= room {
                        prop_assert_eq!(after, before, "a write of {} B into {} B of room allocated", len, room);
                        prop_assert_eq!(rope.footprint(), owned);
                        prop_assert_eq!(rope.retained_bytes(), retained);
                        prop_assert_eq!(rope.tail_room(), room - keep);
                    }
                    model.extend_from_slice(&bytes[..keep]);
                }
                3 => {
                    rope.push_slice(&bytes);
                    model.extend_from_slice(&bytes);
                }
                4 => {
                    rope.push(PayloadBytes::from_vec(bytes.clone()));
                    model.extend_from_slice(&bytes);
                }
                // A read of any range, now and then kept alive.
                5 | 6 => {
                    let off = x % (model.len() + 1);
                    let n = y % (model.len() - off + 1);
                    let got = rope.slice(off, n);
                    prop_assert_eq!(&got[..], &model[off..off + n]);
                    if kept.len() == 8 {
                        kept.swap_remove(x % 8);
                    }
                    kept.push((got, model[off..off + n].to_vec()));
                }
                7 => {
                    let n = x % (model.len() + 1);
                    rope.advance(n);
                    model.drain(..n);
                }
                8 => {
                    let mut got = Vec::new();
                    let max = x % (model.len() + 2);
                    let n = rope.read_with(max, &mut |chunk| got.extend_from_slice(chunk));
                    prop_assert_eq!(n, max.min(model.len()));
                    prop_assert_eq!(&got[..], &model[..n]);
                    model.drain(..n);
                }
                _ => {
                    rope.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(rope.len(), model.len());
        }
        for (slice, want) in &kept {
            prop_assert_eq!(&slice[..], &want[..], "a kept slice was rewritten");
        }
        let all = rope.slice(0, model.len());
        prop_assert_eq!(&all[..], &model[..]);
    }

    /// (f) A stalled writer — `n` writes of `k` bytes, never read, at most
    /// a 256 KiB send buffer's worth — owns at most ⌈n·k / 16 KiB⌉ + 6
    /// backings: its bytes fill 16 KiB tails, after a few smaller ones
    /// while the tail grows, and read back as written.
    #[test]
    fn a_stalled_writer_owns_about_the_bytes_it_queued(k in 1usize..2_049, n in 1usize..4_000) {
        let n = n.min(256 * 1024 / k);
        let mut rope = ByteRope::new();
        for i in 0..n {
            rope.push_with(k, k, |out| out.fill(i as u8));
        }
        let owned = rope.footprint().backings;
        let bound = (n * k).div_ceil(16 * 1024) + 6;
        prop_assert!(owned <= bound, "{} writes of {} B own {} backings, bound {}", n, k, owned, bound);
        let all = rope.slice(0, n * k);
        for (i, write) in all.chunks(k).enumerate() {
            prop_assert!(write.iter().all(|&b| b == i as u8), "write {} reads back wrong", i);
        }
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
        live.push_back(pool.gather(1_200, |out| out.fill(stamp(claim))));
    }
    let owned = pool.footprint();
    assert_eq!(owned.backings, 40);
    assert_eq!(owned.bytes, 40 * 2_048);
    assert_eq!(owned.peak_out_bytes, 40 * 1_200);
    for (age, window) in live.iter().enumerate() {
        assert!(window.iter().all(|&b| b == stamp(960 + age)));
    }
}
