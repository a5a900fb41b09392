//! The driver loops' wake-up fold.
//!
//! The simulator follows smoltcp's poll-based idiom: components are inert
//! state machines exposing "do work up to `now`" and "when do you next need
//! attention?" operations. A driver owns the current instant — the one in
//! the library is `rv_tracer::SessionWorld::run` — and [`earliest`] folds
//! the components' answers into the next instant to visit.

use crate::time::{SimDuration, SimTime};

/// The steady tick a live application asks to be woken at: a streaming
/// server paces and evaluates its rate on it, and a client that is not
/// done wakes on it whatever else it waits for. Both wake at `now +
/// APP_TICK` or later, which the driver's wake fold relies on.
pub const APP_TICK: SimDuration = SimDuration::from_millis(20);

/// Folds optional wake-up times down to the earliest one.
///
/// Poll-based components report `Option<SimTime>` ("wake me then" or "I'm
/// idle"); drivers combine them with this helper. Equal to
/// `times.into_iter().flatten().min()`, spelled as a scalar loop: over a
/// by-value array the adapter chain reloads the array with wide loads
/// straddling the narrower stores that built it — a store-forwarding
/// stall per call, on a function drivers call every instant.
pub fn earliest<I>(times: I) -> Option<SimTime>
where
    I: IntoIterator<Item = Option<SimTime>>,
{
    let mut min = SimTime::MAX;
    let mut any = false;
    for t in times.into_iter().flatten() {
        any = true;
        min = min.min(t);
    }
    any.then_some(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_folds_options() {
        let a = Some(SimTime::from_secs(4));
        let b = None;
        let c = Some(SimTime::from_secs(2));
        assert_eq!(earliest([a, b, c]), Some(SimTime::from_secs(2)));
        assert_eq!(earliest([None, None]), None);
        assert_eq!(earliest(std::iter::empty()), None);
        // A wake at the end of time is still a wake, not "idle".
        assert_eq!(earliest([None, Some(SimTime::MAX)]), Some(SimTime::MAX));
        assert_eq!(earliest([Some(SimTime::MAX), a]), a);
    }
}
