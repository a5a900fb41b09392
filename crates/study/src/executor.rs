//! The execute phase: [`fold`] runs a [`CampaignPlan`]'s jobs and folds
//! each finished session into a [`CampaignAccumulator`].
//!
//! Workers self-schedule: each pulls the next unclaimed *user* off a
//! shared atomic cursor (the plan is lazy, so a user is the natural claim
//! unit — their jobs are regenerated on demand), so a worker stuck on one
//! slow session never strands pre-assigned work behind it. Each worker
//! folds into its own accumulator; after the join they merge in
//! worker-slot order. Because every [`SessionJob`] carries a
//! self-contained seed and verdict, and because accumulators are
//! order-independent by contract, the merged accumulator is bit-identical
//! for every seed, scale, and worker count; `GOLDEN.json`'s matrix
//! (`tests/golden.rs`) enforces this across the crate boundary. Only the
//! per-worker *load split* is scheduling-dependent (and therefore
//! nondeterministic with more than one worker).
//!
//! What is kept is the accumulator's choice: [`CampaignAggregates`] is
//! O(1) in session count; adding a [`RecordSink`] retains every record at
//! O(sessions) — opt-in, for dumps and equivalence tests.
//!
//! [`CampaignAggregates`]: crate::CampaignAggregates
//! [`RecordSink`]: crate::RecordSink

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rv_sim::{CounterSet, SimRng};
use rv_tracer::{rate, DriverWork, SessionMetrics, SessionOutcome, WorldScratch};

use crate::accumulate::CampaignAccumulator;
use crate::campaign::SessionRecord;
use crate::error::CampaignError;
use crate::gateway::GatewaySpec;
use crate::plan::{CampaignPlan, SessionJob};
use crate::worldbuild::build_session_world_gw;

/// The outcome of a [`fold`]: the merged accumulator plus what each
/// worker did.
#[derive(Debug)]
pub struct Fold<A> {
    /// Every worker's accumulator, merged in worker-slot order.
    pub accumulator: A,
    /// Sessions each worker ran, one entry per worker that ran. Always
    /// sums to the plan's job count. With more than one worker the split
    /// depends on thread timing and is *not* deterministic — only the
    /// accumulator is.
    pub worker_loads: Vec<usize>,
    /// Per-worker execute-phase profile, in worker-slot order. Like the
    /// loads, the timings are scheduling-dependent observability data,
    /// never part of the deterministic output.
    pub worker_profiles: Vec<WorkerProfile>,
}

/// What one worker did with its time during the execute phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerProfile {
    /// Sessions this worker simulated.
    pub sessions: usize,
    /// Participants this worker claimed off the shared cursor (the
    /// self-scheduling unit). A lone worker claims every user.
    pub claims: usize,
    /// Time spent inside session simulation.
    pub busy: Duration,
    /// The worker's total lifetime, claim loop included.
    pub wall: Duration,
    /// What the session driver did across this worker's sessions. Exact,
    /// and summed over the workers the same whatever their number.
    pub work: DriverWork,
}

impl WorkerProfile {
    /// Time the worker was alive but not simulating: scheduling overhead
    /// plus starvation at the end of the roster.
    pub fn idle(&self) -> Duration {
        self.wall.saturating_sub(self.busy)
    }
}

/// One worker's life: claim users off `cursor` until the roster is
/// exhausted, run their jobs on one recycled scratch, fold every record
/// into a fresh `A`.
fn work<A: CampaignAccumulator>(plan: &CampaignPlan, cursor: &AtomicUsize) -> (A, WorkerProfile) {
    let started = Instant::now();
    let mut acc = A::default();
    let mut profile = WorkerProfile::default();
    let mut scratch = WorldScratch::default();
    loop {
        let user_idx = cursor.fetch_add(1, Ordering::Relaxed);
        if user_idx >= plan.num_users() {
            break;
        }
        profile.claims += 1;
        for job in plan.user_jobs(user_idx) {
            let job_start = Instant::now();
            let record = run_job_with(plan, &job, &mut scratch);
            profile.busy += job_start.elapsed();
            acc.observe(&job, &record);
            profile.sessions += 1;
        }
    }
    profile.wall = started.elapsed();
    profile.work = scratch.work;
    (acc, profile)
}

/// Runs every job of `plan` on `workers` self-scheduling workers (clamped
/// to `1..=plan.num_users()`), folding each finished session into an `A`
/// per worker and merging those in worker-slot order.
///
/// One worker — asked for, or all a one-user plan can occupy — runs on the
/// calling thread: no spawn, no second accumulator, jobs in plan order.
/// More fan out across scoped OS threads. The accumulator is bit-identical
/// either way. Fails with a [`CampaignError`] when a spawned worker died
/// before the plan finished.
pub fn fold<A: CampaignAccumulator>(
    plan: &CampaignPlan,
    workers: usize,
) -> Result<Fold<A>, CampaignError> {
    let workers = workers.clamp(1, plan.num_users().max(1));
    let cursor = AtomicUsize::new(0);
    let finished = if workers == 1 {
        vec![Ok(work::<A>(plan, &cursor))]
    } else {
        // Join every worker explicitly: a panicked worker becomes a typed
        // error instead of propagating out of the scope and aborting the
        // caller with the worker's payload.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| work::<A>(plan, &cursor)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    // Merge in worker-slot order — the canonical merge order.
    // (Accumulators are order-independent anyway; fixing the order makes
    // the guarantee not depend on that contract.)
    let mut merged: Option<A> = None;
    let mut worker_profiles = Vec::with_capacity(workers);
    for (worker, joined) in finished.into_iter().enumerate() {
        let (local, profile) = joined.map_err(|_| CampaignError::WorkerPanicked { worker })?;
        worker_profiles.push(profile);
        match &mut merged {
            Some(acc) => acc.merge(local),
            None => merged = Some(local),
        }
    }
    Ok(Fold {
        accumulator: merged.unwrap_or_default(),
        worker_loads: worker_profiles.iter().map(|p| p.sessions).collect(),
        worker_profiles,
    })
}

/// The gateway spec for one job, or `None` when the params leave the
/// gateway tier off (the default single-server study). The spec's seed is
/// derived per job from its own "gateway" stream, so replica loads are
/// order- and scale-independent like every other per-session draw.
pub fn gateway_spec(
    params: &crate::campaign::StudyParams,
    job: &SessionJob,
) -> Option<GatewaySpec> {
    if params.replicas <= 1 && params.capacity == 0 {
        return None;
    }
    let key = SessionJob::stream_key(job.user_id, job.clip_seq);
    Some(GatewaySpec {
        replicas: params.replicas.max(1),
        policy: params.gateway,
        capacity: params.capacity,
        seed: SimRng::derive_seed(params.seed, "gateway", key),
    })
}

/// Runs one job to a [`SessionRecord`], recycling world storage across
/// calls. `scratch` is capacity-only and carries no session state, so the
/// result is pure in `(plan, job)`: any thread may run any job in any
/// order, on a fresh scratch or a warm one, and [`fold`]'s bit-identity
/// guarantee does not depend on which.
pub fn run_job_with(
    plan: &CampaignPlan,
    job: &SessionJob,
    scratch: &mut WorldScratch,
) -> SessionRecord {
    let user = &plan.population.participants[job.user];
    let site = &plan.roster[job.server];
    let entry = &plan.playlist[job.playlist_slot];
    let params = &plan.params;

    let (metrics, rating, counters) = if job.available {
        let gateway = gateway_spec(params, job);
        let mut world = build_session_world_gw(
            user,
            site,
            &entry.clip,
            params.watch_limit,
            job.session_seed,
            &job.fault_plan,
            gateway.as_ref(),
            scratch,
        );
        let metrics = world.run(params.session_deadline);
        let counters = world.counters();
        // Degraded sessions are still rated: a user who sat through a
        // retry or a TCP fallback saw the clip and scored it (badly).
        let rating = if job.rating_slot && metrics.outcome.is_played() {
            let key = SessionJob::stream_key(job.user_id, job.clip_seq);
            let mut rating_rng = SimRng::derive(params.seed, "rating", key);
            Some(rate(&metrics, &user.rater, &mut rating_rng))
        } else {
            None
        };
        world.retire(scratch);
        (metrics, rating, counters)
    } else {
        (
            SessionMetrics::failed(SessionOutcome::Unavailable, rv_rtsp::TransportKind::Tcp),
            None,
            CounterSet::new(),
        )
    };

    SessionRecord {
        user_id: user.id,
        user_country: user.country,
        user_state: user.state,
        user_region: user.region(),
        connection: user.connection,
        pc: user.pc,
        server_name: site.name,
        server_country: site.country,
        server_region: site.region(),
        clip_name: plan.clip_names[job.playlist_slot].clone(),
        available: job.available,
        metrics,
        counters,
        rating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::{CampaignAggregates, RecordSink};
    use crate::campaign::StudyParams;
    use crate::plan::plan_campaign;

    fn small_plan() -> CampaignPlan {
        plan_campaign(StudyParams {
            scale: 0.02,
            ..StudyParams::default()
        })
    }

    // Bit-identity at ordinary worker counts is `GOLDEN.json`'s (checked
    // at 1 and 4 workers in tests/golden.rs, 1 and 8 in CI). These two
    // hold the clamp's edges, which no golden row reaches: no workers,
    // one per user, and more workers than users.
    #[test]
    fn threaded_aggregates_match_serial_bit_for_bit() {
        let plan = small_plan();
        let users = plan.num_users();
        let one_thread = fold::<CampaignAggregates>(&plan, 1).unwrap();
        assert_eq!(one_thread.worker_loads, [plan.total_jobs()]);
        for workers in [0, users, users + 5] {
            let fold = fold::<CampaignAggregates>(&plan, workers).unwrap();
            assert_eq!(
                fold.accumulator, one_thread.accumulator,
                "{workers} workers"
            );
            assert_eq!(fold.worker_loads.len(), workers.clamp(1, users));
            assert_eq!(fold.worker_loads.iter().sum::<usize>(), plan.total_jobs());
            assert_eq!(fold.worker_profiles.len(), fold.worker_loads.len());
            let claims: usize = fold.worker_profiles.iter().map(|p| p.claims).sum();
            assert_eq!(claims, users, "{workers} workers");
        }
    }

    #[test]
    fn threaded_matches_serial_bit_for_bit() {
        let plan = small_plan();
        let jobs = plan.collect_jobs();
        let records = |workers| {
            let (aggregates, sink) = fold::<(CampaignAggregates, RecordSink)>(&plan, workers)
                .unwrap()
                .accumulator;
            (aggregates, sink.into_records(plan.total_jobs()).unwrap())
        };
        let (serial_aggregates, serial) = records(1);
        for workers in [plan.num_users(), plan.num_users() + 5] {
            let (aggregates, parallel) = records(workers);
            assert_eq!(aggregates, serial_aggregates);
            assert_eq!(parallel.len(), jobs.len());
            // Plan order, whichever worker ran what.
            for ((s, p), job) in serial.iter().zip(&parallel).zip(&jobs) {
                assert_eq!(p.user_id, job.user_id);
                assert!(std::sync::Arc::ptr_eq(
                    &p.clip_name,
                    &plan.clip_names[job.playlist_slot]
                ));
                assert_eq!(s.user_id, p.user_id);
                assert_eq!(s.clip_name, p.clip_name);
                assert_eq!(s.available, p.available);
                assert_eq!(s.metrics, p.metrics);
                assert_eq!(s.counters, p.counters);
                assert_eq!(s.rating, p.rating);
            }
        }
    }

    #[test]
    fn worker_loads_cover_all_jobs() {
        let plan = small_plan();
        for workers in [1, 2, 4, 7] {
            let loads = fold::<RecordSink>(&plan, workers).unwrap().worker_loads;
            assert_eq!(loads.iter().sum::<usize>(), plan.total_jobs());
            assert!(loads.len() <= workers);
        }
    }

    #[test]
    fn records_share_interned_clip_names() {
        let plan = small_plan();
        let job = &plan.user_jobs(0)[0];
        let record = run_job_with(&plan, job, &mut WorldScratch::default());
        // The record's name points into the plan's intern table, not a
        // fresh allocation.
        assert!(plan
            .clip_names
            .iter()
            .any(|n| std::sync::Arc::ptr_eq(n, &record.clip_name)));
    }
}
