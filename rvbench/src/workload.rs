//! The four campaign workloads.
//!
//! All are closed-loop batches: an executor worker starts its next session
//! when the previous one ends, so a slower simulator is offered no more
//! load, only takes longer. The benchmark seed goes into
//! [`StudyParams::seed`] and nowhere else; the program under test receives
//! only the generated parameters.
//!
//! A workload is [`CAMPAIGNS`] campaigns, not one. A campaign's population
//! is 63 participants drawn afresh from its seed — connection class, line
//! rate, firewall and clip count per head — and a few heavy users dominate
//! it, so packets per session, and with them host cost per session, move by
//! ±17% from one seed to the next (and replication at scale > 1 repeats
//! the same 63). One campaign per seed would make every per-session metric
//! a measurement of the draw. Four populations per seed halve that spread
//! at the same session count; beyond four the host's own noise dominates.
//! `startup_churn` keeps each campaign above scale 1, so that planning and
//! running a replicated population is still measured.

use rv_sim::{FaultScenario, SimDuration, SimRng};
use rv_study::{GatewayPolicy, StudyParams};

/// Campaigns per workload. The first runs on the benchmark seed itself,
/// the others on seeds derived from it.
pub const CAMPAIGNS: usize = 4;

/// One benchmark workload: a name, the reason it exists, and how to turn a
/// seed into campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// One sentence on what this workload stresses that the others do not
    /// (recorded verbatim in `BENCHMARK.json`).
    pub why: &'static str,
    /// `StudyParams::scale` of each of the [`CAMPAIGNS`] campaigns.
    scale: f64,
    /// Executor threads.
    jobs: usize,
    /// Fault injection and the two-replica gateway tier on.
    faulted_gateway: bool,
    /// Watch limit per clip, seconds.
    watch_secs: u64,
}

/// The workloads, in round-robin order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "classic_serial",
        why: "4 June-2001 campaigns at scale 0.125 each on one thread: ~99% of wall is the per-instant layers inside SessionWorld::run, so pump, net, transport and player work shows, executor and results work not",
        scale: 0.125,
        jobs: 1,
        faulted_gateway: false,
        watch_secs: 60,
    },
    Workload {
        name: "classic_parallel",
        why: "same plans and same sim digest as classic_serial on two threads: only the ThreadedExecutor differs, so an executor change moves this alone and a per-session change moves both by one ratio",
        scale: 0.125,
        jobs: 2,
        faulted_gateway: false,
        watch_secs: 60,
    },
    Workload {
        name: "faulted_gateway",
        why: "4 campaigns at scale 0.125 each, default faults behind a 2-replica NearestHealthy gateway: the settle loop's replica arm, fault injector, outage drops, RTO storms, 453/redirect/retry run only here",
        scale: 0.125,
        jobs: 1,
        faulted_gateway: true,
        watch_secs: 60,
    },
    Workload {
        name: "startup_churn",
        why: "4 campaigns at scale 1.5 each (population cloned twice), 2 s watch limit: 30x less streaming per session, so planning, world build, caches, RTSP codec, TCP handshakes, retire, observe weigh ~10x more",
        scale: 1.5,
        jobs: 1,
        faulted_gateway: false,
        watch_secs: 2,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's campaigns for `seed`, in the order they run.
    /// `scale_mult` shrinks them for `smoke` and the tests; measured runs
    /// always pass 1.
    pub fn campaigns(&self, seed: u64, scale_mult: f64) -> Vec<StudyParams> {
        (0..CAMPAIGNS as u64)
            .map(|i| {
                let campaign_seed = if i == 0 {
                    seed
                } else {
                    SimRng::derive_seed(seed, "rvbench-campaign", i)
                };
                self.params(campaign_seed, scale_mult)
            })
            .collect()
    }

    /// One campaign's parameters.
    fn params(&self, seed: u64, scale_mult: f64) -> StudyParams {
        let base = StudyParams {
            seed,
            scale: self.scale * scale_mult,
            jobs: self.jobs,
            watch_limit: SimDuration::from_secs(self.watch_secs),
            ..StudyParams::default()
        };
        if self.faulted_gateway {
            StudyParams {
                faults: FaultScenario::default_on(),
                replicas: 2,
                gateway: GatewayPolicy::NearestHealthy,
                capacity: 0,
                ..base
            }
        } else {
            base
        }
    }

    /// Whether sessions run on more than one thread (allocation counts
    /// then depend on scheduling and are not exactly repeatable).
    pub fn is_parallel(&self) -> bool {
        self.jobs > 1
    }

    /// Whether faults and the replica gateway are on.
    pub fn is_faulted(&self) -> bool {
        self.faulted_gateway
    }

    /// Ceiling on simulated seconds per planned session for this workload
    /// to have done what its name says: the short-watch workload must
    /// stay under a third of the 60 s watch limit the classic ones play to.
    pub fn session_sim_ceiling(&self) -> Option<f64> {
        (self.watch_secs < 60).then_some(20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn seed_reaches_only_study_params() {
        let a = WORKLOADS[2].campaigns(7, 1.0);
        let b = WORKLOADS[2].campaigns(8, 1.0);
        assert_eq!((a.len(), b.len()), (CAMPAIGNS, CAMPAIGNS));
        assert_eq!(a[0].seed, 7);
        assert_eq!(b[0].seed, 8);
        // Derived seeds differ from each other and between benchmark seeds.
        let mut seeds: Vec<u64> = a.iter().chain(&b).map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2 * CAMPAIGNS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scale, y.scale);
            assert_eq!(x.replicas, 2);
            assert!(x.faults.enabled);
        }
        let total: f64 = WORKLOADS[0].campaigns(7, 0.1).iter().map(|p| p.scale).sum();
        assert!((total - 0.05).abs() < 1e-12, "{total}");
        // The churn campaigns each replicate their population.
        assert!(WORKLOADS[3].campaigns(7, 1.0).iter().all(|p| p.scale > 1.0));
    }
}
