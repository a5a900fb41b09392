//! # rv-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the RealVideo reproduction: a logical clock
//! ([`SimTime`]/[`SimDuration`]), a poll-style driver loop ([`run_until`])
//! with its wake-up fold ([`earliest`]), and a forkable deterministic RNG
//! ([`SimRng`]).
//!
//! Design follows the smoltcp school of event-driven networking: components
//! are plain state machines polled with an explicit `now`, never reading the
//! wall clock and never spawning threads. That is what makes every figure in
//! the paper reproduction bit-identical across runs and machines.
//!
//! ```
//! use rv_sim::{Clock, SimTime, StepOutcome, run_until};
//!
//! let schedule = [(SimTime::from_secs(1), "hello"), (SimTime::from_secs(2), "world")];
//! let mut next = 0;
//!
//! let mut clock = Clock::new();
//! let mut seen = Vec::new();
//! run_until(&mut clock, SimTime::from_secs(10), |now| match schedule.get(next) {
//!     Some(&(at, what)) if at <= now => {
//!         seen.push(what);
//!         next += 1;
//!         StepOutcome::Worked
//!     }
//!     Some(&(at, _)) => StepOutcome::IdleUntil(at),
//!     None => StepOutcome::Quiescent,
//! });
//! assert_eq!(seen, ["hello", "world"]);
//! ```

// The `alloc-stats` feature implements `GlobalAlloc`, whose contract is
// inherently unsafe; everything else in the crate stays unsafe-free.
#![cfg_attr(not(feature = "alloc-stats"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-stats", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "alloc-stats")]
#[allow(unsafe_code)]
pub mod alloc_stats;
mod bytes;
mod chacha;
mod clock;
mod counters;
mod fault;
mod rng;
mod time;
pub mod trace;

pub use bytes::{ByteRope, PayloadBytes, PayloadPool, PoolFootprint};
pub use clock::{earliest, run_until, Clock, StepOutcome};
pub use counters::{Counter, CounterSet};
pub use fault::{
    FaultPlan, FaultScenario, FaultSegment, LinkOutage, LossBurst, OutagePolicy, ServerCrash,
};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
