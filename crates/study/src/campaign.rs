//! The campaign runner: replays the June 2001 study end to end.
//!
//! Running a campaign is two phases. The **plan phase**
//! ([`plan_campaign`](crate::plan_campaign)) is a pure serial pass that
//! fixes every clip-play attempt — strata, availability verdict (Figure
//! 10), rating slot, session seed — before any packet is simulated. The
//! **execute phase** ([`fold`]) runs those jobs on one thread or many and
//! folds each finished session into streaming [`CampaignAggregates`] —
//! the constant-memory results path.
//! Output is a pure function of [`StudyParams::seed`] and
//! [`StudyParams::scale`]; the worker count changes wall time only, never
//! a byte of the data.
//!
//! [`run_campaign`] keeps only aggregates (memory independent of session
//! count); [`run_campaign_with_records`] additionally retains every
//! [`SessionRecord`] for dumps, CSV export, and equivalence tests — an
//! O(sessions) cost the full-scale campaign cannot afford.

use std::sync::Arc;

use rv_sim::{CounterSet, FaultScenario, SimDuration, SimTime};
use rv_tracer::{DriverWork, SessionMetrics};

use crate::accumulate::{CampaignAccumulator, CampaignAggregates, RecordSink};
use crate::error::CampaignError;
use crate::executor::{fold, Fold, WorkerProfile};
use crate::geography::{Country, ServerRegion, UserRegion};
use crate::plan::plan_campaign;
use crate::population::{ConnectionClass, PcClass};

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyParams {
    /// Master seed: same seed, same study, bit for bit.
    pub seed: u64,
    /// Fraction of each user's clip count to actually play. `1.0`
    /// reproduces the paper's ~2,900 sessions; `0.05–0.2` suits tests
    /// and quick runs; integers above 1 replicate the population ×N
    /// with identical strata proportions (`--scale 100` ≈ 290k
    /// sessions) for scaling studies.
    pub scale: f64,
    /// Watch limit per clip (RealTracer default: 1 minute).
    pub watch_limit: SimDuration,
    /// Wall-clock budget per session before the harness gives up.
    pub session_deadline: SimTime,
    /// Worker threads for the execute phase. 1 runs serially; N fans
    /// sessions across N threads. Never changes the output, only the
    /// wall time.
    pub jobs: usize,
    /// Fault-injection scenario. [`FaultScenario::off`] (the default)
    /// generates empty fault plans and reproduces the fault-free
    /// campaign bit for bit.
    pub faults: FaultScenario,
    /// Server replicas per site. 1 (the default) is the single-server
    /// study, bit for bit; above 1 every session gets a gateway-routed
    /// replica cluster and crash failover.
    pub replicas: u8,
    /// Gateway replica-selection policy. Only consulted when
    /// `replicas > 1`.
    pub gateway: crate::gateway::GatewayPolicy,
    /// Per-replica session capacity for admission control; 0 (the
    /// default) admits everything. Only consulted when `replicas > 1`.
    pub capacity: u32,
}

impl Default for StudyParams {
    fn default() -> Self {
        StudyParams {
            seed: 0x2001_0604, // June 4, 2001: the study's first day
            scale: 1.0,
            watch_limit: SimDuration::from_secs(60),
            session_deadline: SimTime::from_secs(150),
            jobs: 1,
            faults: FaultScenario::off(),
            replicas: 1,
            gateway: crate::gateway::GatewayPolicy::Sticky,
            capacity: 0,
        }
    }
}

impl StudyParams {
    /// A small configuration for tests and examples.
    pub fn quick() -> Self {
        StudyParams {
            scale: 0.05,
            ..StudyParams::default()
        }
    }
}

/// One clip-play attempt: the study's unit of data.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Participant id.
    pub user_id: u32,
    /// User's country.
    pub user_country: Country,
    /// User's US state, if applicable.
    pub user_state: Option<&'static str>,
    /// User's figure region.
    pub user_region: UserRegion,
    /// User's connection class.
    pub connection: ConnectionClass,
    /// User's PC class.
    pub pc: PcClass,
    /// Server name (Figure 10 labels).
    pub server_name: &'static str,
    /// Server country.
    pub server_country: Country,
    /// Server figure region.
    pub server_region: ServerRegion,
    /// Clip name, interned: records share one allocation per playlist
    /// slot instead of cloning a `String` per session.
    pub clip_name: Arc<str>,
    /// `false` when the clip was unavailable at request time.
    pub available: bool,
    /// Measured session statistics.
    pub metrics: SessionMetrics,
    /// Deterministic event counters snapshotted from the session world
    /// (all-zero for unavailable attempts, which simulate nothing).
    pub counters: CounterSet,
    /// The user's 0–10 rating, when they rated this clip.
    pub rating: Option<u8>,
}

impl SessionRecord {
    /// `true` for records that played and produced measurements (the set
    /// the paper's Figures 11–25 are computed over). Degraded sessions —
    /// retries, rebuffer storms, UDP→TCP fallback — still count: they
    /// streamed and were measured, exactly as RealTracer logged them.
    pub fn played(&self) -> bool {
        self.available && self.metrics.outcome.is_played()
    }
}

/// What a campaign run did and how fast: printed by the binaries so
/// executor speedups are observable.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Jobs the plan phase fixed.
    pub jobs_planned: usize,
    /// Sessions that streamed to a `Played` outcome.
    pub played: usize,
    /// Attempts that found the clip unavailable (Figure 10).
    pub unavailable: usize,
    /// Workers that ran: `jobs` clamped to `1..=participants`.
    pub workers: usize,
    /// Jobs each worker ran.
    pub per_worker: Vec<usize>,
    /// Execute-phase wall time.
    pub wall: std::time::Duration,
    /// Plan-phase wall time (pure serial pass, before any simulation).
    pub plan_wall: std::time::Duration,
    /// Per-worker execute-phase profile: claims, busy, and wall time.
    /// Timing varies run to run; only the aggregates are deterministic.
    pub profiles: Vec<WorkerProfile>,
    /// Campaign-wide counter totals, merged across all sessions. Unlike
    /// the timings these are deterministic in seed/scale/faults and
    /// identical across worker counts.
    pub counters: CounterSet,
    /// Total simulated time across all sessions, in seconds: the sum of
    /// every record's `session_time`. With `wall`, this yields the
    /// simulator's time-compression ratio.
    pub sim_seconds: f64,
}

impl CampaignSummary {
    /// Sessions simulated per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.jobs_planned as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// What the session driver did across the campaign: the workers'
    /// tallies summed, identical across worker counts.
    pub fn driver_work(&self) -> DriverWork {
        let mut work = DriverWork::default();
        for p in &self.profiles {
            work += p.work;
        }
        work
    }

    /// Simulated seconds per wall-clock second (time compression).
    pub fn sim_seconds_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_seconds / secs
        } else {
            f64::INFINITY
        }
    }
}

impl std::fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign: {} jobs planned, {} played, {} unavailable | {} worker{} {:?} | {:.2?} wall, {:.1} sessions/sec, {:.0}x real time",
            self.jobs_planned,
            self.played,
            self.unavailable,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.per_worker,
            self.wall,
            self.sessions_per_sec(),
            self.sim_seconds_per_sec(),
        )
    }
}

/// The complete study output.
///
/// `aggregates` is always present and is everything the figures, the
/// failure report, and the summary need. `records` is `Some` only when
/// the campaign was run through [`run_campaign_with_records`] — the
/// O(sessions)-memory debug path.
#[derive(Debug, Clone)]
pub struct StudyData {
    /// Streaming aggregates over every session attempt.
    pub aggregates: CampaignAggregates,
    /// Every session attempt in canonical plan order, when retained.
    pub records: Option<Vec<SessionRecord>>,
    /// Number of volunteers excluded for RTSP-blocking firewalls.
    pub excluded_users: u32,
    /// Number of analyzable participants.
    pub participants: u32,
    /// Run accounting. Wall time and worker split vary run to run; the
    /// aggregates never do.
    pub summary: CampaignSummary,
}

impl StudyData {
    /// The retained records, in canonical plan order.
    ///
    /// # Panics
    /// When the campaign ran the streaming path ([`run_campaign`]);
    /// use [`run_campaign_with_records`] for record-level access.
    pub fn records(&self) -> &[SessionRecord] {
        self.records
            .as_deref()
            .expect("records not retained: use run_campaign_with_records")
    }

    /// Retained records that played successfully. Panics like
    /// [`StudyData::records`].
    pub fn played(&self) -> impl Iterator<Item = &SessionRecord> {
        self.records().iter().filter(|r| r.played())
    }

    /// The failure-taxonomy report, built from the streaming tallies in
    /// one pass — available on both paths.
    pub fn failure_report(&self) -> crate::report::FailureReport {
        crate::report::FailureReport::from_tallies(&self.aggregates.failures)
    }
}

/// Plans a campaign, folds it into accumulator `A` and assembles the
/// [`StudyData`]; `split` says which part of `A` is the aggregates and
/// which, if any, the retained records (it is handed the plan's job
/// count). The one engine under both public entry points.
fn run<A: CampaignAccumulator>(
    params: StudyParams,
    split: impl FnOnce(
        A,
        usize,
    ) -> Result<(CampaignAggregates, Option<Vec<SessionRecord>>), CampaignError>,
) -> Result<StudyData, CampaignError> {
    let plan_start = std::time::Instant::now();
    let plan = plan_campaign(params);
    let plan_wall = plan_start.elapsed();
    let start = std::time::Instant::now();
    let Fold {
        accumulator,
        worker_loads,
        worker_profiles,
    } = fold::<A>(&plan, params.jobs)?;
    let wall = start.elapsed();
    let (aggregates, records) = split(accumulator, plan.total_jobs())?;
    let summary = CampaignSummary {
        jobs_planned: plan.total_jobs(),
        played: aggregates.played as usize,
        unavailable: aggregates.unavailable as usize,
        workers: worker_loads.len(),
        per_worker: worker_loads,
        wall,
        plan_wall,
        profiles: worker_profiles,
        counters: aggregates.counters,
        sim_seconds: aggregates.sim_seconds(),
    };
    Ok(StudyData {
        aggregates,
        records,
        excluded_users: plan.population.excluded.len() as u32,
        participants: plan.population.participants.len() as u32,
        summary,
    })
}

/// Plans and executes the whole campaign on the streaming results path:
/// sessions are folded into [`CampaignAggregates`] as they finish and
/// records are dropped, so memory is independent of session count. The
/// aggregates are deterministic in `params.seed`, `params.scale`, and
/// `params.faults`; `params.jobs` sets the worker count. Fails with a
/// [`CampaignError`] instead of panicking when the execute phase cannot
/// finish (a worker died mid-campaign).
pub fn run_campaign(params: StudyParams) -> Result<StudyData, CampaignError> {
    run(params, |aggregates, _| Ok((aggregates, None)))
}

/// Like [`run_campaign`], but additionally retains every
/// [`SessionRecord`] in canonical plan order — for dumps, CSV export,
/// and aggregate-equivalence tests. O(sessions) memory.
pub fn run_campaign_with_records(params: StudyParams) -> Result<StudyData, CampaignError> {
    run(
        params,
        |(aggregates, sink): (CampaignAggregates, RecordSink), jobs| {
            Ok((aggregates, Some(sink.into_records(jobs)?)))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> StudyParams {
        StudyParams {
            scale: 0.04,
            ..StudyParams::default()
        }
    }

    fn quick_data() -> StudyData {
        run_campaign(quick_params()).expect("quick campaign runs")
    }

    #[test]
    fn campaign_produces_records_for_every_user() {
        let data = quick_data();
        assert_eq!(data.participants, 63);
        assert!(data.excluded_users > 0);
        assert_eq!(data.aggregates.plays_per_user.len(), 63);
    }

    #[test]
    fn most_sessions_play_some_are_unavailable() {
        let agg = quick_data().aggregates;
        let (total, played) = (agg.total_attempts, agg.played);
        assert!(played * 10 >= total * 6, "played {played}/{total}");
        // ~10 % unavailability.
        let frac = agg.unavailable as f64 / total as f64;
        assert!((0.02..0.25).contains(&frac), "unavailable fraction {frac}");
    }

    #[test]
    fn ratings_present_and_in_range() {
        let agg = quick_data().aggregates;
        assert!(agg.rated > 0);
        assert_eq!(agg.ratings.count(), agg.rated);
        assert!(agg.ratings.max().unwrap() <= 10.0);
        assert_eq!(agg.rated_per_user.values().sum::<u64>(), agg.rated);
    }

    #[test]
    fn both_protocols_appear() {
        let played = quick_data().aggregates.protocol_played;
        let (udp, tcp) = (played.get("UDP"), played.get("TCP"));
        assert!(udp > 0 && tcp > 0, "udp {udp} tcp {tcp}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_campaign_with_records(quick_params()).unwrap();
        let b = run_campaign_with_records(quick_params()).unwrap();
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.rating, y.rating);
        }
        assert_eq!(a.aggregates, b.aggregates);
    }

    #[test]
    fn streaming_path_retains_no_records() {
        let data = quick_data();
        assert!(data.records.is_none());
        // The aggregates still carry the study.
        assert!(data.aggregates.played > 0);
        assert!(data.failure_report().attempts > 0);
    }

    #[test]
    fn summary_accounts_for_every_job() {
        let data = quick_data();
        let s = &data.summary;
        assert_eq!(s.jobs_planned as u64, data.aggregates.total_attempts);
        assert_eq!(s.played as u64, data.aggregates.played);
        assert_eq!(s.per_worker.iter().sum::<usize>(), s.jobs_planned);
        assert_eq!(s.workers, 1);
        assert!(s.sessions_per_sec() > 0.0);
        assert!(s.sim_seconds > 0.0);
        assert!(s.sim_seconds_per_sec() > 0.0);
        // The Display line carries the pieces the binaries print.
        let line = s.to_string();
        assert!(line.contains("sessions/sec"), "{line}");
    }

    #[test]
    fn summary_reports_the_workers_that_ran_not_the_jobs_asked_for() {
        let data = run_campaign(StudyParams {
            scale: 0.002,
            jobs: 500,
            ..StudyParams::default()
        })
        .unwrap();
        let s = &data.summary;
        assert_eq!(s.workers, data.participants as usize);
        assert_eq!(s.per_worker.len(), s.workers);
        assert_eq!(s.profiles.len(), s.workers);
        assert!(s.to_string().contains("63 workers"), "{s}");
    }
}
