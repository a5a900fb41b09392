//! Property test for [`Playout::idle_until`]: the claim is *exact* in
//! both directions under arbitrary push / end-of-source / poll scripts.
//! Any poll strictly before it emits nothing and leaves the engine's
//! whole state untouched; any poll at or after it does something.

use proptest::prelude::*;
use rv_player::{CompleteFrame, Playout, PlayoutConfig, PlayoutEvent};
use rv_sim::{SimDuration, SimTime};

/// Short timers, so scripts of a few dozen steps reach every state
/// (prebuffer timeout, starvation, rebuffer halt, end of source).
fn engine() -> Playout {
    Playout::new(
        PlayoutConfig {
            prebuffer: SimDuration::from_secs(2),
            prebuffer_timeout: SimDuration::from_secs(5),
            rebuffer_target: SimDuration::from_secs(1),
            rebuffer_halt: SimDuration::from_secs(4),
            ..PlayoutConfig::default()
        },
        1.0,
    )
}

/// Polls at `now` and holds the poll to what `idle_until` said beforehand.
fn checked_poll(p: &mut Playout, now: SimTime) -> Result<(), String> {
    let until = p.idle_until();
    let before = format!("{p:?}");
    let mut events: Vec<PlayoutEvent> = Vec::new();
    p.poll_into(now, &mut events);
    let acted = !events.is_empty() || format!("{p:?}") != before;
    if now < until {
        prop_assert!(
            !acted,
            "acted at {now:?}, before idle_until {until:?}: {before}"
        );
    } else {
        prop_assert!(
            acted,
            "no-op at {now:?}, at/after idle_until {until:?}: {before}"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn idle_until_is_exact(
        steps in prop::collection::vec((0u8..8, 0u64..1_500, 0u64..900), 1..80),
    ) {
        let mut p = engine();
        // Driver time is monotone, as in every session loop. Frames
        // arrive mostly in presentation order (a gap of 0 repeats a pts);
        // one push in three is a straggler from behind the newest pts —
        // often behind the playout origin too.
        let mut now = SimTime::ZERO;
        let mut newest_ms = 0u64;
        for (kind, dt_ms, gap_ms) in steps {
            now += SimDuration::from_millis(dt_ms);
            match kind {
                0..=2 => {
                    let pts_ms = if kind == 2 {
                        newest_ms.saturating_sub(gap_ms * 4)
                    } else {
                        newest_ms += gap_ms;
                        newest_ms
                    };
                    p.push_frame(now, CompleteFrame {
                        index: pts_ms as u32,
                        rung: 0,
                        pts: SimDuration::from_millis(pts_ms),
                        size: 1_000,
                        key: false,
                        completed_at: now,
                    });
                }
                3 => p.source_ended(),
                4 | 5 => checked_poll(&mut p, now)?,
                // Walk up to the edge itself: one microsecond short of the
                // claim must be a no-op, the claimed instant must not.
                _ => {
                    let until = p.idle_until();
                    if until != SimTime::MAX && until > now {
                        now = until - SimDuration::from_micros(1);
                        checked_poll(&mut p, now)?;
                        now = until;
                        checked_poll(&mut p, now)?;
                    }
                }
            }
        }
    }
}
