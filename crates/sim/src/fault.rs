//! Deterministic per-session fault plans.
//!
//! The 2001 campaign measured the internet as it was, outages and all:
//! sessions that never connected, died mid-stream, or limped home over
//! TCP after the UDP path went dark. A [`FaultPlan`] scripts that
//! trouble for one session — link outages, loss bursts, a server crash,
//! a black-holed UDP path — as plain data fixed before any packet flies.
//!
//! Plans are generated from a self-contained seed (derived statelessly
//! from the campaign seed, like session seeds), so the faults a session
//! suffers are independent of execution order and worker count: the
//! determinism contract of the plan/execute split extends to failures.
//! A [`FaultScenario`] with `enabled: false` generates the empty plan,
//! and an empty plan injects nothing: fault-free campaigns are
//! bit-identical to a build that has never heard of faults.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Which leg of the client—server path a link fault applies to.
///
/// Abstract on purpose: the fault planner knows the paper's three-hop
/// topology (access, transit, server access), not concrete link ids.
/// The world builder maps segments to links when it arms the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSegment {
    /// The user's access link (both directions).
    ClientAccess,
    /// The inter-cloud transit leg.
    Transit,
    /// The server's access link.
    ServerAccess,
}

/// What an outage does to packets queued or in flight on the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutagePolicy {
    /// A hard cut — interface down, line card dead: everything queued or
    /// serializing is lost.
    DropInFlight,
    /// A stall — route flap, re-convergence: the queue holds its packets
    /// and drains when the link returns.
    CarryInFlight,
}

/// A scheduled link outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Which path leg goes down.
    pub segment: FaultSegment,
    /// When the link goes down.
    pub start: SimTime,
    /// When it comes back.
    pub end: SimTime,
    /// What happens to packets caught on the link.
    pub policy: OutagePolicy,
}

/// A window of elevated random loss on one path leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossBurst {
    /// Which path leg suffers.
    pub segment: FaultSegment,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Extra loss probability in parts per million (integer so plans
    /// stay `Eq`-comparable and bit-stable).
    pub loss_ppm: u32,
}

/// A server crash, optionally followed by a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// When the server process dies. `SimTime::ZERO` models a server
    /// that is down before the session ever starts.
    pub at: SimTime,
    /// Delay until the server comes back, or `None` if it stays dead
    /// for the rest of the session.
    pub restart_after: Option<SimDuration>,
    /// Which replica of the site's cluster dies. Plans are generated
    /// targeting replica 0 (the only replica in a single-server world);
    /// [`FaultPlan::retarget_crashes`] spreads targets across a cluster.
    pub replica: u8,
}

/// Probability a session suffers a link outage.
const OUTAGE_PROB: f64 = 0.06;
/// Mean outage duration, seconds.
const OUTAGE_MEAN_SECS: f64 = 12.0;
/// Probability an outage drops in-flight packets (vs carrying them).
const OUTAGE_DROP_INFLIGHT: f64 = 0.5;
/// Probability of a mid-session loss burst.
const BURST_PROB: f64 = 0.08;
/// Peak extra loss probability during a burst.
const BURST_LOSS: f64 = 0.25;
/// Mean burst duration, seconds.
const BURST_MEAN_SECS: f64 = 6.0;
/// Probability the server crashes mid-session.
const SERVER_CRASH_PROB: f64 = 0.03;
/// Probability a crashed server restarts within the session.
const SERVER_RESTART_PROB: f64 = 0.6;
/// Probability the server is down before the session starts.
const SERVER_DOWN_PROB: f64 = 0.02;
/// Probability the UDP data path is silently black-holed (the
/// firewall/NAT cases RealPlayer masked with TCP fallback).
const UDP_BLACKHOLE_PROB: f64 = 0.04;

/// Whether faults hit at all. How often and how hard they hit when they
/// do are the constants of this module (`OUTAGE_PROB` 0.06,
/// `OUTAGE_MEAN_SECS` 12, `OUTAGE_DROP_INFLIGHT` 0.5, `BURST_PROB` 0.08,
/// `BURST_LOSS` 0.25, `BURST_MEAN_SECS` 6, `SERVER_CRASH_PROB` 0.03,
/// `SERVER_RESTART_PROB` 0.6, `SERVER_DOWN_PROB` 0.02,
/// `UDP_BLACKHOLE_PROB` 0.04): rates sized so a campaign shows a clear
/// unsuccessful-session tail (a few percent of sessions each way)
/// without drowning the played distributions the figures need.
/// Probabilities are per-session; durations are means of exponential
/// draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Master switch. When false, [`FaultPlan::generate`] returns the
    /// empty plan without drawing a single random number.
    pub enabled: bool,
}

impl FaultScenario {
    /// No faults at all. This is the default campaign scenario.
    pub fn off() -> Self {
        FaultScenario { enabled: false }
    }

    /// The faults-on scenario: this module's rates.
    pub fn default_on() -> Self {
        FaultScenario { enabled: true }
    }
}

impl Default for FaultScenario {
    fn default() -> Self {
        FaultScenario::off()
    }
}

/// The scripted trouble for one session: plain data, fixed at plan time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Scheduled link outages, in start order.
    pub link_outages: Vec<LinkOutage>,
    /// Scheduled loss bursts, in start order.
    pub loss_bursts: Vec<LossBurst>,
    /// Server crash/restart events, in time order.
    pub server_crashes: Vec<ServerCrash>,
    /// Whether the UDP data path is black-holed for the whole session.
    pub udp_blackhole: bool,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when this plan schedules no fault of any kind.
    pub fn is_empty(&self) -> bool {
        self.link_outages.is_empty()
            && self.loss_bursts.is_empty()
            && self.server_crashes.is_empty()
            && !self.udp_blackhole
    }

    /// Generates the plan for one session from its own fault seed.
    ///
    /// `horizon` bounds fault scheduling (the session deadline): faults
    /// land in the window where the session is actually alive. The draw
    /// order is fixed, so a given `(scenario, seed)` pair always yields
    /// the same plan.
    pub fn generate(scenario: &FaultScenario, seed: u64, horizon: SimDuration) -> FaultPlan {
        if !scenario.enabled {
            return FaultPlan::none();
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let mut plan = FaultPlan::none();
        let horizon_s = horizon.as_secs_f64().max(10.0);

        if rng.chance(OUTAGE_PROB) {
            let segment = pick_segment(&mut rng);
            // Land the outage in the live middle of the session: after
            // startup, early enough that recovery can still be observed.
            let start = rng.range(3.0..horizon_s * 0.6);
            let dur = rng
                .exponential(OUTAGE_MEAN_SECS)
                .clamp(2.0, horizon_s * 0.5);
            let policy = if rng.chance(OUTAGE_DROP_INFLIGHT) {
                OutagePolicy::DropInFlight
            } else {
                OutagePolicy::CarryInFlight
            };
            plan.link_outages.push(LinkOutage {
                segment,
                start: SimTime::from_secs_f64(start),
                end: SimTime::from_secs_f64(start + dur),
                policy,
            });
        }

        if rng.chance(BURST_PROB) {
            let segment = pick_segment(&mut rng);
            let start = rng.range(2.0..horizon_s * 0.7);
            let dur = rng.exponential(BURST_MEAN_SECS).clamp(1.0, horizon_s * 0.4);
            let loss = rng.range(BURST_LOSS * 0.4..BURST_LOSS);
            plan.loss_bursts.push(LossBurst {
                segment,
                start: SimTime::from_secs_f64(start),
                end: SimTime::from_secs_f64(start + dur),
                loss_ppm: (loss.clamp(0.0, 1.0) * 1e6) as u32,
            });
        }

        if rng.chance(SERVER_DOWN_PROB) {
            // Down before the session starts; SYNs meet RSTs or silence.
            plan.server_crashes.push(ServerCrash {
                at: SimTime::ZERO,
                restart_after: None,
                replica: 0,
            });
        } else if rng.chance(SERVER_CRASH_PROB) {
            let at = rng.range(4.0..horizon_s * 0.6);
            let restart_after = if rng.chance(SERVER_RESTART_PROB) {
                Some(SimDuration::from_secs_f64(rng.range(2.0..8.0)))
            } else {
                None
            };
            plan.server_crashes.push(ServerCrash {
                at: SimTime::from_secs_f64(at),
                restart_after,
                replica: 0,
            });
        }

        plan.udp_blackhole = rng.chance(UDP_BLACKHOLE_PROB);
        plan
    }

    /// Re-aims each planned crash at a replica drawn uniformly from
    /// `0..replicas`, using its own RNG stream so the draws that shaped
    /// the plan itself never shift. A no-op for `replicas <= 1` (every
    /// crash already targets replica 0), so single-server plans are
    /// bit-identical whether or not this is ever called.
    pub fn retarget_crashes(&mut self, replicas: u8, seed: u64) {
        if replicas <= 1 || self.server_crashes.is_empty() {
            return;
        }
        let mut rng = SimRng::seed_from_u64(seed);
        for c in &mut self.server_crashes {
            c.replica = rng.range(0..u32::from(replicas)) as u8;
        }
    }
}

fn pick_segment(rng: &mut SimRng) -> FaultSegment {
    match rng.range(0..3u32) {
        0 => FaultSegment::ClientAccess,
        1 => FaultSegment::Transit,
        _ => FaultSegment::ServerAccess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: SimDuration = SimDuration::from_secs(150);

    #[test]
    fn disabled_scenario_generates_empty_plan() {
        let plan = FaultPlan::generate(&FaultScenario::off(), 123, HORIZON);
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn same_seed_same_plan() {
        let s = FaultScenario::default_on();
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                FaultPlan::generate(&s, seed, HORIZON),
                FaultPlan::generate(&s, seed, HORIZON)
            );
        }
    }

    #[test]
    fn default_scenario_produces_each_fault_kind_somewhere() {
        let s = FaultScenario::default_on();
        let mut outages = 0;
        let mut bursts = 0;
        let mut crashes = 0;
        let mut down_at_zero = 0;
        let mut blackholes = 0;
        for seed in 0..2_000u64 {
            let p = FaultPlan::generate(&s, seed, HORIZON);
            outages += p.link_outages.len();
            bursts += p.loss_bursts.len();
            for c in &p.server_crashes {
                if c.at == SimTime::ZERO {
                    down_at_zero += 1;
                } else {
                    crashes += 1;
                }
            }
            blackholes += usize::from(p.udp_blackhole);
        }
        assert!(outages > 50, "outages {outages}");
        assert!(bursts > 80, "bursts {bursts}");
        assert!(crashes > 20, "crashes {crashes}");
        assert!(down_at_zero > 10, "down at zero {down_at_zero}");
        assert!(blackholes > 30, "blackholes {blackholes}");
    }

    #[test]
    fn fault_windows_are_ordered_and_within_horizon() {
        let s = FaultScenario::default_on();
        for seed in 0..500u64 {
            let p = FaultPlan::generate(&s, seed, HORIZON);
            for o in &p.link_outages {
                assert!(o.start < o.end);
                assert!(o.start <= SimTime::ZERO + HORIZON);
            }
            for b in &p.loss_bursts {
                assert!(b.start < b.end);
                assert!(b.loss_ppm <= 1_000_000);
            }
            for c in &p.server_crashes {
                assert!(c.at <= SimTime::ZERO + HORIZON);
            }
        }
    }
}
