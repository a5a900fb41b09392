//! The traced pass: one workload's plans re-driven serially from the
//! benchmark's own files with a span around each call into a layer.
//!
//! The session loop mirrors `rv_study::run_job_with` call for call
//! (`gateway_spec` → `build_session_world_gw` → run → `counters` → `rate`
//! → `retire` → `observe`); inside `run`, sessions with an empty fault
//! plan go through the mirrored settle loop of [`crate::mirror`], the rest
//! get one coarse `tracer.run` span around `SessionWorld::run`. The pass
//! folds its own `CampaignAggregates` and renders its own figures, so its
//! sim digest can be held against the untraced reps': the tracer measures
//! the same program or says that it does not.
//!
//! If the mirror stops reproducing `SessionWorld::run` (a later change to
//! the driver), the pass does not fail: the pre-flight check sees it,
//! every session falls back to the coarse span, `tracer.mirror_ok` reads
//! 0 and the in-session shares are withheld (reported as 0).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use realvideo_core::all_figures;
use rv_sim::{alloc_stats, Counter, CounterSet, SimRng};
use rv_study::{
    build_session_world_gw, gateway_spec, plan_campaign, CampaignAccumulator, CampaignAggregates,
    CampaignPlan, CampaignSummary, SessionJob, SessionRecord, StudyData,
};
use rv_tracer::{rate, SessionMetrics, SessionOutcome, WorldScratch};

use crate::mirror::{run_mirrored, Call, Ledger, SpanSink};
use crate::rep::{output_checks, Totals};
use crate::spans::{calibrate_clock_pair, SessionKey, SpanName, SpanStore, NO_PARENT};
use crate::stats::quantile;
use crate::workload::Workload;

/// Sessions the pre-flight check drives twice (mirror and `run`).
const PREFLIGHT_SESSIONS: usize = 24;
/// One mirrored session in this many keeps its in-session spans; the rest
/// contribute to the ledger only, which keeps the trace file in the tens
/// of megabytes.
const SPAN_SESSION_STRIDE: u64 = 128;
/// Room for in-session spans beyond the eight session-level spans per
/// planned session.
const IN_SESSION_SPAN_ROOM: usize = 600_000;
/// Costliest sessions listed by key.
const TOP_SESSIONS: usize = 8;

/// One of the costliest sessions, by a key `repro trace` can replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CostlySession {
    /// Host microseconds, build to observe.
    pub host_us: f64,
    /// Seed of the campaign it belongs to (`repro trace --seed`).
    pub campaign_seed: u64,
    /// Participant id (`repro trace --user`).
    pub user_id: u32,
    /// Position in the participant's play sequence.
    pub clip_seq: u32,
    /// Clip name (`repro trace --clip`).
    pub clip: String,
}

/// Everything a traced pass produced.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-layer metrics measured by this pass, by `BENCHMARK.json` name.
    /// The executor pair comes from an untraced rep and the kernels from
    /// [`crate::kernels`]; the caller adds both.
    pub metrics: Vec<(&'static str, f64)>,
    /// Names of the metrics above that come from inside the mirrored
    /// `run`: the ones withheld when the mirror cannot be trusted.
    pub in_session: Vec<&'static str>,
    /// Whether sessions went through the mirror (the pre-flight check
    /// passed) rather than all through `SessionWorld::run`.
    pub mirrored: bool,
    /// Sim digest of the pass's own fold and figures.
    pub digest: u64,
    /// Sessions planned.
    pub planned: u64,
    /// Sessions labelled `failed`.
    pub failed: u64,
    /// Wall seconds of plan + session loop + merge + figures over every
    /// campaign: the same interval an untraced rep times.
    pub wall_s: f64,
    /// Output checks that failed.
    pub failed_checks: Vec<String>,
    /// Nanoseconds one empty span measures.
    pub clock_pair_ns: f64,
    /// Estimated run time (the mean whole-timed instant scaled by all
    /// instants — which the layer self times and the driver self time sum
    /// to) over the measured `tracer.run` time of the mirrored sessions,
    /// net of the clock reads inside it. Within 0.9..1.1 when the stride
    /// samples fairly. 0 when no session was mirrored.
    pub sum_check: f64,
    /// Sessions whose host time was sampled (those that simulated).
    pub host_time_samples: u64,
    /// The costliest sessions.
    pub top_sessions: Vec<CostlySession>,
    /// Spans written to the trace file.
    pub spans_written: u64,
    /// Spans that did not fit the store.
    pub spans_dropped: u64,
    /// Where the trace went, when it was written.
    pub trace_path: Option<PathBuf>,
    /// Each campaign's folded aggregates, in order (for tests).
    pub aggregates: Vec<CampaignAggregates>,
}

/// Session-level sums the pass keeps beside the spans.
#[derive(Debug, Default)]
struct SessionSums {
    simulated: u64,
    cold_builds: u64,
    mirrored: u64,
    observed: u64,
    build_cold_ns: u64,
    build_warm_ns: u64,
    build_warm_allocs: u64,
    run_ns: u64,
    mirrored_run_ns: u64,
    retire_ns: u64,
    observe_ns: u64,
    mirrored_packets: u64,
}

/// Builds the world for `job` exactly as `run_job_with` does.
fn build_world(
    plan: &CampaignPlan,
    job: &SessionJob,
    scratch: &mut WorldScratch,
) -> rv_tracer::SessionWorld {
    let gateway = gateway_spec(&plan.params, job);
    build_session_world_gw(
        &plan.population.participants[job.user],
        &plan.roster[job.server],
        &plan.playlist[job.playlist_slot].clip,
        plan.params.watch_limit,
        job.session_seed,
        &job.fault_plan,
        gateway.as_ref(),
        scratch,
    )
}

/// Drives up to `sessions` of the plan's fault-free sessions twice — once
/// through `SessionWorld::run`, once through the mirror, folding into
/// `ledger` — and holds the two to the same `SessionMetrics`, `CounterSet`
/// and clock. Returns how many sessions it compared, or the
/// `(user_id, clip_seq)` of the first that differed.
pub fn mirror_mismatch(
    plan: &CampaignPlan,
    sessions: usize,
    ledger: &mut Ledger,
) -> Result<usize, (u32, u32)> {
    let mut reference_scratch = WorldScratch::default();
    let mut mirror_scratch = WorldScratch::default();
    let jobs = (0..plan.num_users())
        .flat_map(|u| plan.user_jobs(u))
        .filter(|job| job.available && job.fault_plan.is_empty())
        .take(sessions);
    let mut compared = 0;
    for job in jobs {
        let mut reference = build_world(plan, &job, &mut reference_scratch);
        let want = reference.run(plan.params.session_deadline);
        let want_counters = reference.counters();
        let want_now = reference.now;
        reference.retire(&mut reference_scratch);

        let mut mirrored = build_world(plan, &job, &mut mirror_scratch);
        let got = run_mirrored(&mut mirrored, plan.params.session_deadline, ledger, None);
        let same = got == want && mirrored.counters() == want_counters && mirrored.now == want_now;
        mirrored.retire(&mut mirror_scratch);
        if !same {
            return Err((job.user_id, job.clip_seq));
        }
        compared += 1;
    }
    Ok(compared)
}

/// The record `run_job_with` would build for `job`.
fn record_for(
    plan: &CampaignPlan,
    job: &SessionJob,
    metrics: SessionMetrics,
    counters: CounterSet,
    rating: Option<u8>,
) -> SessionRecord {
    let user = &plan.population.participants[job.user];
    let site = &plan.roster[job.server];
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

/// Runs the traced pass of `workload`. With `out_dir`, writes
/// `trace-<workload>.jsonl` there.
pub fn traced_pass(
    workload: &Workload,
    seed: u64,
    scale_mult: f64,
    out_dir: Option<&std::path::Path>,
) -> TraceReport {
    let clock_pair_ns = calibrate_clock_pair(1_000_000);

    let plans: Vec<(CampaignPlan, u64)> = workload
        .campaigns(seed, scale_mult)
        .into_iter()
        .map(|params| {
            let start = Instant::now();
            let plan = plan_campaign(params);
            let ns = start.elapsed().as_nanos() as u64;
            (plan, ns)
        })
        .collect();
    // Pre-flight: a mirror that has drifted from the driver is found here,
    // before anything is measured with it.
    let mirror_ok = plans.iter().all(|(plan, _)| {
        let sessions = PREFLIGHT_SESSIONS.div_ceil(plans.len());
        mirror_mismatch(plan, sessions, &mut Ledger::default()).is_ok()
    });

    let planned: usize = plans.iter().map(|(plan, _)| plan.total_jobs()).sum();
    let users: usize = plans.iter().map(|(plan, _)| plan.num_users()).sum();
    let mut store = SpanStore::with_capacity(planned * 8 + users + IN_SESSION_SPAN_ROOM);
    let mut ledger = Ledger::default();
    let mut sums = SessionSums::default();
    let mut host_us: Vec<f64> = Vec::with_capacity(planned);
    let mut top: Vec<(u64, SessionKey, Arc<str>)> = Vec::with_capacity(TOP_SESSIONS + 1);
    let mut totals = Totals::default();
    let mut campaign_aggregates = Vec::with_capacity(plans.len());
    let (mut plan_ns, mut merge_ns, mut figures_ns, mut loop_ns) = (0u64, 0u64, 0u64, 0u64);

    for (campaign, (plan, this_plan_ns)) in plans.iter().enumerate() {
        plan_ns += this_plan_ns;
        // Like `run_campaign`'s executor: a fresh scratch per campaign.
        let mut scratch = WorldScratch::default();
        let mut cold = true;
        // Two half-campaign accumulators, merged at the end, so the merge
        // the threaded executor does after its join is timed here too.
        let mut halves = [CampaignAggregates::default(), CampaignAggregates::default()];
        let split = plan.num_users() / 2;

        let loop_start = Instant::now();
        for user_idx in 0..plan.num_users() {
            let user_key = SessionKey {
                campaign: campaign as u8,
                user_id: plan.population.participants[user_idx].id,
                clip_seq: 0,
            };
            let (jobs, _) = store.timed(SpanName::UserJobs, NO_PARENT, user_key, || {
                plan.user_jobs(user_idx)
            });
            let agg = &mut halves[usize::from(user_idx >= split)];
            for job in jobs {
                let key = SessionKey {
                    campaign: campaign as u8,
                    user_id: job.user_id,
                    clip_seq: job.clip_seq,
                };
                let session_start = Instant::now();
                let root = store.open(SpanName::Session, session_start, NO_PARENT, key);

                let (metrics, rating, counters) = if job.available {
                    let user = &plan.population.participants[job.user];
                    let (gateway, _) = store.timed(SpanName::GatewaySpec, root, key, || {
                        gateway_spec(&plan.params, &job)
                    });
                    let (allocs_before, _) = alloc_stats::snapshot();
                    let (mut world, build_ns) =
                        store.timed(SpanName::WorldBuild, root, key, || {
                            build_session_world_gw(
                                user,
                                &plan.roster[job.server],
                                &plan.playlist[job.playlist_slot].clip,
                                plan.params.watch_limit,
                                job.session_seed,
                                &job.fault_plan,
                                gateway.as_ref(),
                                &mut scratch,
                            )
                        });
                    let (allocs_after, _) = alloc_stats::snapshot();
                    if cold {
                        cold = false;
                        sums.cold_builds += 1;
                        sums.build_cold_ns += build_ns;
                    } else {
                        sums.build_warm_ns += build_ns;
                        sums.build_warm_allocs += allocs_after - allocs_before;
                    }
                    sums.simulated += 1;

                    let mirrored = mirror_ok && job.fault_plan.is_empty();
                    let run_start = Instant::now();
                    let run_span = store.open(SpanName::Run, run_start, root, key);
                    let metrics = if mirrored {
                        let keep_spans = sums.mirrored % SPAN_SESSION_STRIDE == 0;
                        let sink = keep_spans.then_some(SpanSink {
                            store: &mut store,
                            parent: run_span,
                            key,
                        });
                        run_mirrored(&mut world, plan.params.session_deadline, &mut ledger, sink)
                    } else {
                        world.run(plan.params.session_deadline)
                    };
                    let run_end = Instant::now();
                    store.close(run_span, run_end);
                    let run_ns = run_end.duration_since(run_start).as_nanos() as u64;
                    sums.run_ns += run_ns;

                    let (counters, _) =
                        store.timed(SpanName::Counters, root, key, || world.counters());
                    if mirrored {
                        sums.mirrored += 1;
                        sums.mirrored_run_ns += run_ns;
                        sums.mirrored_packets += counters.get(Counter::PacketsDelivered);
                    }
                    let (rating, _) = store.timed(SpanName::Rate, root, key, || {
                        if job.rating_slot && metrics.outcome.is_played() {
                            let stream = SessionJob::stream_key(job.user_id, job.clip_seq);
                            let mut rating_rng = SimRng::derive(plan.params.seed, "rating", stream);
                            Some(rate(&metrics, &user.rater, &mut rating_rng))
                        } else {
                            None
                        }
                    });
                    let ((), retire_ns) =
                        store.timed(SpanName::Retire, root, key, || world.retire(&mut scratch));
                    sums.retire_ns += retire_ns;
                    (metrics, rating, counters)
                } else {
                    (
                        SessionMetrics::failed(
                            SessionOutcome::Unavailable,
                            rv_rtsp::TransportKind::Tcp,
                        ),
                        None,
                        CounterSet::new(),
                    )
                };

                let record = record_for(plan, &job, metrics, counters, rating);
                let ((), observe_ns) =
                    store.timed(SpanName::Observe, root, key, || agg.observe(&job, &record));
                sums.observe_ns += observe_ns;
                sums.observed += 1;

                let session_end = Instant::now();
                store.close(root, session_end);
                if job.available {
                    let ns = session_end.duration_since(session_start).as_nanos() as u64;
                    host_us.push(ns as f64 / 1e3);
                    if top.len() < TOP_SESSIONS || top.last().is_some_and(|least| ns > least.0) {
                        top.push((ns, key, plan.clip_names[job.playlist_slot].clone()));
                        top.sort_by_key(|entry| std::cmp::Reverse(entry.0));
                        top.truncate(TOP_SESSIONS);
                    }
                }
            }
        }
        let this_loop_ns = loop_start.elapsed().as_nanos() as u64;
        loop_ns += this_loop_ns;

        let [mut aggregates, second_half] = halves;
        let merge_start = Instant::now();
        aggregates.merge(second_half);
        merge_ns += merge_start.elapsed().as_nanos() as u64;

        let data = StudyData {
            summary: CampaignSummary {
                jobs_planned: plan.total_jobs(),
                played: aggregates.played as usize,
                unavailable: aggregates.unavailable as usize,
                workers: 1,
                per_worker: vec![plan.total_jobs()],
                wall: std::time::Duration::from_nanos(this_loop_ns),
                plan_wall: std::time::Duration::from_nanos(*this_plan_ns),
                profiles: Vec::new(),
                counters: aggregates.counters,
                sim_seconds: aggregates.sim_seconds(),
            },
            excluded_users: plan.population.excluded.len() as u32,
            participants: plan.population.participants.len() as u32,
            records: None,
            aggregates,
        };
        let figures_start = Instant::now();
        let figures = all_figures(&data);
        figures_ns += figures_start.elapsed().as_nanos() as u64;
        totals.add(&data, &figures);
        campaign_aggregates.push(data.aggregates);
    }
    let wall_s = (plan_ns + loop_ns + merge_ns + figures_ns) as f64 / 1e9;
    let failed_checks = output_checks(workload, &totals);

    let trace_path = out_dir.map(|dir| dir.join(format!("trace-{}.jsonl", workload.name)));
    let mut spans_written = 0;
    if let Some(path) = &trace_path {
        match store.write_jsonl(path) {
            Ok(()) => spans_written = store.spans().len() as u64,
            Err(err) => eprintln!("rvbench: cannot write {}: {err}", path.display()),
        }
    }

    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let n_campaigns = plans.len() as u64;
    let warm_builds = sums.simulated - sums.cold_builds;
    // Mean of a per-session span, net of the clock pair that timed it.
    let span_mean_ns = |total: u64, n: u64| (per(total, n) - clock_pair_ns).max(0.0);
    let p50 = if host_us.is_empty() {
        0.0
    } else {
        quantile(&mut host_us, 0.50)
    };
    let p99 = if host_us.is_empty() {
        0.0
    } else {
        quantile(&mut host_us, 0.99)
    };
    let max = host_us.last().copied().unwrap_or(0.0);

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("study.plan_us", per(plan_ns, n_campaigns) / 1e3),
        (
            "study.worldbuild_cold_us",
            span_mean_ns(sums.build_cold_ns, sums.cold_builds) / 1e3,
        ),
        (
            "study.worldbuild_us_per_session",
            span_mean_ns(sums.build_warm_ns, warm_builds) / 1e3,
        ),
        (
            "study.worldbuild_allocs_per_session",
            per(sums.build_warm_allocs, warm_builds),
        ),
        (
            "study.retire_us_per_session",
            span_mean_ns(sums.retire_ns, sums.simulated) / 1e3,
        ),
        (
            "study.accumulate_ns_per_session",
            span_mean_ns(sums.observe_ns, sums.observed),
        ),
        ("study.merge_us", per(merge_ns, n_campaigns) / 1e3),
        ("study.session_host_us_p50", p50),
        ("study.session_host_us_p99", p99),
        ("study.session_host_us_max", max),
        (
            "tracer.run_us_per_session",
            span_mean_ns(sums.run_ns, sums.simulated) / 1e3,
        ),
        ("tracer.mirror_ok", f64::from(u8::from(mirror_ok))),
        ("tracer.mirror_coverage", per(sums.mirrored, sums.simulated)),
        (
            "net.packets_per_session",
            per(
                totals.counters.get(Counter::PacketsDelivered),
                totals.planned,
            ),
        ),
        (
            "transport.retransmits_per_session",
            per(totals.counters.get(Counter::TcpRetransmits), totals.planned),
        ),
        ("core.figures_ms", per(figures_ns, n_campaigns) / 1e6),
    ];
    let (in_session_values, sum_check) = in_session_metrics(&ledger, &sums, clock_pair_ns);
    let in_session = in_session_values.iter().map(|(name, _)| *name).collect();
    metrics.extend(in_session_values);

    let top_sessions = top
        .iter()
        .map(|(ns, key, clip)| CostlySession {
            host_us: *ns as f64 / 1e3,
            campaign_seed: plans[usize::from(key.campaign)].0.params.seed,
            user_id: key.user_id,
            clip_seq: key.clip_seq,
            clip: clip.to_string(),
        })
        .collect();

    TraceReport {
        metrics,
        in_session,
        mirrored: mirror_ok,
        digest: totals.digest(),
        planned: totals.planned,
        failed: totals.failed(),
        wall_s,
        failed_checks,
        clock_pair_ns,
        sum_check,
        host_time_samples: sums.simulated,
        top_sessions,
        spans_written,
        spans_dropped: store.dropped,
        trace_path,
        aggregates: campaign_aggregates,
    }
}

/// The metrics that come from inside `run` — all zero when no session was
/// mirrored (withheld, with `tracer.mirror_ok` saying why) — and the sum
/// check.
///
/// Accounting, with `c` the calibrated clock pair: a timed call measures
/// its true time plus `c`, and so does an instant timed whole. A layer's
/// cost over the pass is its mean true time per timed call scaled by all
/// its calls; the run's is the mean true time of a whole-timed instant
/// scaled by all instants; the driver's own time (the `needs_poll` gates,
/// the flags, the loop, the `next_wake` fan-in) is what is left of the
/// run once the layers are taken out.
fn in_session_metrics(
    ledger: &Ledger,
    sums: &SessionSums,
    c: f64,
) -> (Vec<(&'static str, f64)>, f64) {
    use Call::*;
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ns_per_call = |call: Call| {
        let s = ledger.call(call);
        (per(s.timed_ns, s.timed_calls) - c).max(0.0)
    };
    let total_ns = |call: Call| ns_per_call(call) * ledger.call(call).calls as f64;
    let useful = |calls: &[Call]| {
        per(
            calls.iter().map(|k| ledger.call(*k).useful).sum(),
            calls.iter().map(|k| ledger.call(*k).calls).sum(),
        )
    };

    let net_ns = total_ns(Net);
    let transport_ns = total_ns(ClientStack) + total_ns(ServerStack);
    let server_ns = total_ns(ServerApp);
    let client_ns = total_ns(ClientApp);
    let replica_ns = total_ns(ReplicaStack) + total_ns(ReplicaApp);
    let layers_ns = net_ns + transport_ns + server_ns + client_ns + replica_ns;
    let run_ns =
        (per(ledger.whole_instant_ns, ledger.whole_instants) - c).max(0.0) * ledger.instants as f64;
    let driver_ns = (run_ns - layers_ns).max(0.0);
    let share = |ns: f64| if run_ns > 0.0 { ns / run_ns } else { 0.0 };

    // What the mirrored sessions' `tracer.run` spans measured, less the
    // clock reads made inside them: two per timed call and per timed
    // instant, and the pair of the span itself.
    let timed_calls: u64 = ledger.calls.iter().map(|s| s.timed_calls).sum();
    let timed_instants = ledger.whole_instants + ledger.detailed_instants;
    let measured_run_ns = sums.mirrored_run_ns as f64
        - c * sums.mirrored as f64
        - 2.0 * c * (timed_calls + timed_instants) as f64;
    let sum_check = if measured_run_ns > 0.0 {
        run_ns / measured_run_ns
    } else {
        0.0
    };

    let metrics = vec![
        (
            "tracer.instants_per_session",
            per(ledger.instants, ledger.sessions),
        ),
        (
            "tracer.settle_rounds_per_instant",
            per(ledger.rounds, ledger.instants),
        ),
        (
            "tracer.inert_instant_share",
            per(ledger.inert_instants, ledger.instants),
        ),
        ("tracer.driver_self_share", share(driver_ns)),
        ("tracer.next_wake_ns_per_instant", ns_per_call(NextWake)),
        ("tracer.replica_arm_share", share(replica_ns)),
        ("tracer.client_poll_share", share(client_ns)),
        ("tracer.client_poll_ns", ns_per_call(ClientApp)),
        ("tracer.client_poll_useful_share", useful(&[ClientApp])),
        ("server.poll_share", share(server_ns)),
        ("server.poll_ns", ns_per_call(ServerApp)),
        ("server.poll_useful_share", useful(&[ServerApp])),
        (
            "server.allocs_per_session",
            per(ledger.server_allocs, ledger.sessions),
        ),
        (
            "server.alloc_bytes_per_session",
            per(ledger.server_alloc_bytes, ledger.sessions),
        ),
        ("net.poll_share", share(net_ns)),
        ("net.poll_ns", ns_per_call(Net)),
        ("net.poll_useful_share", useful(&[Net])),
        (
            "net.ns_per_packet",
            if sums.mirrored_packets == 0 {
                0.0
            } else {
                net_ns / sums.mirrored_packets as f64
            },
        ),
        ("transport.poll_share", share(transport_ns)),
        ("transport.client_poll_ns", ns_per_call(ClientStack)),
        ("transport.server_poll_ns", ns_per_call(ServerStack)),
        (
            "transport.poll_useful_share",
            useful(&[ClientStack, ServerStack]),
        ),
    ];
    (metrics, sum_check)
}
