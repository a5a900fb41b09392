//! The simulation clock and driver-loop helpers.
//!
//! The simulator follows smoltcp's poll-based idiom: components are inert
//! state machines exposing "do work up to `now`" and "when do you next need
//! attention?" operations. A [`Clock`] owns the current instant and enforces
//! monotonicity; [`run_until`] advances a closure-driven loop to a deadline;
//! [`earliest`] folds the components' answers into the next instant to visit.

use crate::time::{SimDuration, SimTime};

/// A monotone simulated clock.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances to `to`. Panics if `to` is in the past — a component asking
    /// to travel backwards is always a bug worth catching loudly.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(
            to >= self.now,
            "clock cannot move backwards: now={} target={}",
            self.now,
            to
        );
        self.now = to;
    }

    /// Advances by a duration.
    pub fn advance_by(&mut self, d: SimDuration) {
        self.now += d;
    }
}

/// Outcome of one driver step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step did work; poll again at the same instant before advancing.
    Worked,
    /// Nothing to do until the contained instant.
    IdleUntil(SimTime),
    /// Nothing scheduled at all; the simulation has quiesced.
    Quiescent,
}

/// Drives `step` until `deadline`, advancing `clock` between idle periods.
///
/// `step` is called with the current instant; it should process everything
/// due and return a [`StepOutcome`]. Returns the number of non-idle steps
/// executed. The loop stops early if the system quiesces.
pub fn run_until<F>(clock: &mut Clock, deadline: SimTime, mut step: F) -> u64
where
    F: FnMut(SimTime) -> StepOutcome,
{
    let mut work_steps = 0u64;
    while clock.now() <= deadline {
        match step(clock.now()) {
            StepOutcome::Worked => work_steps += 1,
            StepOutcome::IdleUntil(t) => {
                if t <= clock.now() {
                    // A component reported a wake-up that is already due;
                    // re-polling immediately would spin forever. Nudge one
                    // microsecond forward to guarantee progress.
                    clock.advance_to(clock.now() + SimDuration::from_micros(1));
                } else if t > deadline {
                    clock.advance_to(deadline);
                    if step(clock.now()) == StepOutcome::Worked {
                        work_steps += 1;
                    }
                    break;
                } else {
                    clock.advance_to(t);
                }
            }
            StepOutcome::Quiescent => break,
        }
        if clock.now() == deadline && matches!(step(clock.now()), StepOutcome::Quiescent) {
            break;
        }
    }
    work_steps
}

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
    fn clock_is_monotone() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(1));
        c.advance_by(SimDuration::from_millis(500));
        assert_eq!(c.now(), SimTime::from_millis(1500));
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_rejects_backwards() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(2));
        c.advance_to(SimTime::from_secs(1));
    }

    #[test]
    fn run_until_follows_wakeups() {
        let mut clock = Clock::new();
        let mut fired = Vec::new();
        let schedule = [
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            SimTime::from_secs(5),
        ];
        let mut idx = 0;
        run_until(&mut clock, SimTime::from_secs(10), |now| {
            if idx < schedule.len() && now >= schedule[idx] {
                fired.push(schedule[idx]);
                idx += 1;
                StepOutcome::Worked
            } else if idx < schedule.len() {
                StepOutcome::IdleUntil(schedule[idx])
            } else {
                StepOutcome::Quiescent
            }
        });
        assert_eq!(fired, schedule);
        assert_eq!(clock.now(), SimTime::from_secs(5));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut clock = Clock::new();
        run_until(&mut clock, SimTime::from_secs(2), |_| {
            StepOutcome::IdleUntil(SimTime::from_secs(100))
        });
        assert_eq!(clock.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_survives_stale_wakeups() {
        // A component that keeps reporting an already-due wake-up must not
        // hang the driver.
        let mut clock = Clock::new();
        let steps = run_until(&mut clock, SimTime::from_millis(1), |_| {
            StepOutcome::IdleUntil(SimTime::ZERO)
        });
        assert_eq!(steps, 0);
        assert!(clock.now() >= SimTime::from_millis(1));
    }

    #[test]
    fn run_until_counts_work() {
        let mut clock = Clock::new();
        let mut budget = 3;
        let steps = run_until(&mut clock, SimTime::from_secs(1), |_| {
            if budget > 0 {
                budget -= 1;
                StepOutcome::Worked
            } else {
                StepOutcome::Quiescent
            }
        });
        assert_eq!(steps, 3);
    }

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
