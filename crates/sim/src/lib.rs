//! # rv-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the RealVideo reproduction: a logical clock
//! ([`SimTime`]/[`SimDuration`]), the wake-up fold every poll-style driver
//! loop ends an instant with ([`earliest`]), and a forkable deterministic
//! RNG ([`SimRng`]).
//!
//! Design follows the smoltcp school of event-driven networking: components
//! are plain state machines polled with an explicit `now`, never reading the
//! wall clock and never spawning threads. That is what makes every figure in
//! the paper reproduction bit-identical across runs and machines.
//!
//! ```
//! use rv_sim::{earliest, SimTime};
//!
//! // One component: a sorted schedule. "Poll" takes what is due at `now`;
//! // "next wake" is the next entry's time, `None` once it has run out.
//! let schedule = [(SimTime::from_secs(1), "hello"), (SimTime::from_secs(2), "world")];
//! let mut next = 0;
//!
//! let mut now = SimTime::ZERO;
//! let mut seen = Vec::new();
//! loop {
//!     while let Some(&(_, what)) = schedule.get(next).filter(|(at, _)| *at <= now) {
//!         seen.push(what);
//!         next += 1;
//!     }
//!     // A driver folds every component's answer into the instant to visit
//!     // next; with none left, the simulation has quiesced.
//!     match earliest([schedule.get(next).map(|&(at, _)| at)]) {
//!         Some(wake) => now = wake,
//!         None => break,
//!     }
//! }
//! assert_eq!((seen, now), (vec!["hello", "world"], SimTime::from_secs(2)));
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
mod digest;
mod fault;
mod rng;
mod time;
pub mod trace;

pub use bytes::{ByteRope, PayloadBytes, PayloadPool, PoolFootprint};
pub use clock::{earliest, APP_TICK};
pub use counters::{Counter, CounterSet};
pub use digest::Fnv;
pub use fault::{
    FaultPlan, FaultScenario, FaultSegment, LinkOutage, LossBurst, OutagePolicy, ServerCrash,
};
pub use rng::{SimRng, Weights};
pub use time::{SimDuration, SimTime};
