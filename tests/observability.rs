//! The observability contract: the flight recorder is a pure observer.
//! Arming it changes nothing — dumps, aggregates, and counters stay bit
//! identical — and a faulted trace actually shows the session's story
//! (outage, retransmits, rebuffer, rung switches, outcome) in both export
//! formats.

use rv_sim::trace::{self, TraceEvent};
use rv_sim::{Counter, FaultScenario, SimTime};
use rv_study::{
    plan_campaign, run_campaign_with_records, run_job_with, trace_session, GatewayPolicy,
    StudyParams, TraceError,
};
use rv_tracer::WorldScratch;

fn params() -> StudyParams {
    StudyParams {
        scale: 0.04,
        faults: FaultScenario::default_on(),
        ..StudyParams::default()
    }
}

/// Planned, available, faulted (user, clip) keys under `params`, in plan
/// order. With `need_outage`, only jobs that schedule a link outage.
fn faulted_keys(params: StudyParams, need_outage: bool) -> Vec<(u32, String)> {
    let plan = plan_campaign(params);
    let mut keys = Vec::new();
    for user_idx in 0..plan.num_users() {
        for job in plan.user_jobs(user_idx) {
            if job.available
                && !job.fault_plan.is_empty()
                && (!need_outage || !job.fault_plan.link_outages.is_empty())
            {
                keys.push((job.user_id, plan.clip_names[job.playlist_slot].to_string()));
            }
        }
    }
    keys
}

fn faulted_key(params: StudyParams) -> Option<(u32, String)> {
    faulted_keys(params, false).into_iter().next()
}

#[test]
fn tracing_is_a_pure_observer_of_the_campaign() {
    // Baseline campaign with the recorder disarmed.
    let before = run_campaign_with_records(params()).unwrap();
    // Arm the recorder and replay one session through it.
    let (user_id, clip) = faulted_key(params()).expect("no faulted session at this scale");
    let traced = trace_session(params(), user_id, &clip).unwrap();
    assert!(traced.faulted);
    assert!(!trace::active(), "recorder left armed after trace_session");
    // The campaign after tracing is bit-identical to the one before:
    // recording neither draws randomness nor perturbs simulation state.
    let after = run_campaign_with_records(params()).unwrap();
    assert_eq!(before.aggregates, after.aggregates);
    assert_eq!(before.summary.counters, after.summary.counters);
    for (b, a) in before.records().iter().zip(after.records()) {
        assert_eq!(b.metrics, a.metrics);
        assert_eq!(b.counters, a.counters);
    }
    // And the traced session reported the very counters the campaign
    // recorded for that (user, clip) row.
    let row = before
        .records()
        .iter()
        .find(|r| r.user_id == user_id && r.clip_name.as_ref() == clip)
        .expect("traced session missing from campaign records");
    assert_eq!(traced.counters, row.counters);
    assert_eq!(traced.metrics, row.metrics);
}

#[test]
fn faulted_trace_tells_the_sessions_story() {
    // A scheduled outage only shows up if the session is still running
    // when it strikes, so walk the outage-bearing keys until one is.
    let keys = faulted_keys(params(), true);
    assert!(!keys.is_empty(), "no outage-faulted session at this scale");
    let traced = keys
        .iter()
        .map(|(user_id, clip)| trace_session(params(), *user_id, clip).unwrap())
        .find(|t| t.records.iter().any(|r| r.ev.name() == "link_down"))
        .expect("no traced session caught its outage");

    let has = |name: &str| traced.records.iter().any(|r| r.ev.name() == name);
    assert!(has("session_begin"));
    assert!(has("session_end"));
    // Timestamps are monotone non-decreasing after finish().
    assert!(traced.records.windows(2).all(|w| w[0].at <= w[1].at));

    // JSONL: one object per line with the two mandatory fields.
    let jsonl = traced.to_jsonl();
    assert_eq!(jsonl.lines().count(), traced.records.len());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"t_us\":"), "bad line: {line}");
        assert!(line.contains("\"ev\":\""), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
    }

    // Chrome trace: well-formed envelope with balanced spans.
    let chrome = traced.to_chrome_trace();
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\""));
    let begins = chrome.matches("\"ph\":\"B\"").count();
    let ends = chrome.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced spans in the chrome export");
}

#[test]
fn trace_counters_match_the_recorded_timeline() {
    // For the event families that mirror a counter one-to-one, the
    // timeline and the counter registry must agree exactly.
    let (user_id, clip) = faulted_key(params()).expect("no faulted session at this scale");
    let traced = trace_session(params(), user_id, &clip).unwrap();
    let count = |name: &str| {
        traced
            .records
            .iter()
            .filter(|r| r.ev.name() == name)
            .count() as u64
    };
    assert_eq!(
        traced.counters.get(Counter::ServerCrashes),
        count("server_crash")
    );
    if traced.counters.get(Counter::SessionRetries) == 0 {
        // Retry-free sessions mirror one-to-one. (A retry replaces the
        // player, so the rebuffer counters cover the final attempt while
        // the timeline keeps every attempt's events — see harness docs.)
        assert_eq!(
            traced.counters.get(Counter::TcpRetransmits),
            count("tcp_retransmit")
        );
        assert_eq!(
            traced.counters.get(Counter::RebufferEvents),
            count("rebuffer_start")
        );
    } else {
        assert!(count("tcp_retransmit") >= traced.counters.get(Counter::TcpRetransmits));
        assert!(count("rebuffer_start") >= traced.counters.get(Counter::RebufferEvents));
    }
    let drops: u64 = traced
        .records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::PacketDrop { .. }))
        .count() as u64;
    assert_eq!(
        traced.counters.get(Counter::DropsLoss)
            + traced.counters.get(Counter::DropsQueue)
            + traced.counters.get(Counter::DropsOutage),
        drops
    );
}

#[test]
fn gateway_trace_tells_the_failover_story() {
    // Every replicated session opens with a gateway_route event naming
    // the chosen replica; a crash on the serving replica shows up as a
    // gateway_redirect carrying the hop's reason. Walk the crash-bearing
    // keys until one session actually hopped.
    let params = StudyParams {
        scale: 0.05,
        faults: FaultScenario::default_on(),
        replicas: 2,
        gateway: GatewayPolicy::Sticky,
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let mut crash_keys = Vec::new();
    for user_idx in 0..plan.num_users() {
        for job in plan.user_jobs(user_idx) {
            if job.available && !job.fault_plan.server_crashes.is_empty() {
                crash_keys.push((job.user_id, plan.clip_names[job.playlist_slot].to_string()));
            }
        }
    }
    assert!(
        !crash_keys.is_empty(),
        "no crash-faulted session at this scale"
    );

    let mut redirected = None;
    for (user_id, clip) in &crash_keys {
        let traced = trace_session(params, *user_id, clip).unwrap();
        assert!(
            traced
                .records
                .iter()
                .any(|r| r.ev.name() == "gateway_route"),
            "replicated session traced without a gateway_route event"
        );
        if traced
            .records
            .iter()
            .any(|r| r.ev.name() == "gateway_redirect")
        {
            redirected = Some((*user_id, clip.clone(), traced));
            break;
        }
    }
    let (user_id, clip, traced) =
        redirected.expect("no crash-bearing session ever hopped replicas");

    // The timeline and the counter registry agree on the hop count, and
    // the JSONL export spells out where the session went and why.
    let redirects = traced
        .records
        .iter()
        .filter(|r| r.ev.name() == "gateway_redirect")
        .count() as u64;
    assert_eq!(traced.counters.get(Counter::GatewayRedirects), redirects);
    let jsonl = traced.to_jsonl();
    let line = jsonl
        .lines()
        .find(|l| l.contains("\"ev\":\"gateway_redirect\""))
        .expect("redirect missing from the JSONL export");
    for field in ["\"from\":", "\"to\":", "\"reason\":\""] {
        assert!(line.contains(field), "bad redirect line: {line}");
    }
    let chrome = traced.to_chrome_trace();
    let begins = chrome.matches("\"ph\":\"B\"").count();
    let ends = chrome.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced spans in the chrome export");

    // Tracing a replicated session is still a pure observation of the
    // campaign: the record for that key carries the same metrics.
    let data = run_campaign_with_records(params).unwrap();
    let row = data
        .records()
        .iter()
        .find(|r| r.user_id == user_id && r.clip_name.as_ref() == clip)
        .expect("traced session missing from campaign records");
    assert_eq!(traced.metrics, row.metrics);
    assert_eq!(traced.counters, row.counters);

    // And with the knob at its default the same key traces without any
    // gateway vocabulary at all — the schema of the classic study is
    // untouched.
    let classic = trace_session(
        StudyParams {
            replicas: 1,
            ..params
        },
        user_id,
        &clip,
    )
    .unwrap();
    assert!(classic
        .records
        .iter()
        .all(|r| !r.ev.name().starts_with("gateway")));
}

#[test]
fn unknown_trace_keys_are_typed_errors_with_nearby_keys() {
    let err = trace_session(params(), 40_000, "anything.rm").unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, TraceError::UnknownUser { .. }),
        "wrong error: {msg}"
    );
    assert!(msg.contains("nearby valid ids"), "unhelpful message: {msg}");

    let plan = plan_campaign(params());
    let user_id = plan.population.participants[0].id;
    let err = trace_session(params(), user_id, "definitely-not-a-clip.rm").unwrap_err();
    let msg = err.to_string();
    match err {
        TraceError::UnknownClip { available, .. } => {
            assert!(!available.is_empty());
            assert!(msg.contains("their clips"), "unhelpful message: {msg}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn recorder_is_reentrant_per_thread() {
    // start/emit/finish on this thread; a finished recorder drops its
    // records and a fresh start sees an empty sink.
    trace::start();
    trace::emit(SimTime::ZERO, || TraceEvent::RebufferStart);
    let first = trace::finish();
    assert_eq!(first.len(), 1);
    trace::start();
    let second = trace::finish();
    assert!(second.is_empty(), "stale records leaked across sessions");
    assert!(!trace::active());
    // Disarmed emit is a no-op, not a panic.
    trace::emit(SimTime::ZERO, || TraceEvent::RebufferStart);
}

#[test]
fn the_driver_reports_its_work_and_most_instants_need_only_the_network() {
    // The driver's own tally — beside the world, never in the counters —
    // summed over a classic campaign as any worker's scratch sums it.
    // 0.40 would mean only the driver's half of the quiet contract is
    // live, 0.50 that the server's bucket-blocked claim is missing.
    let plan = plan_campaign(StudyParams {
        scale: 0.1,
        ..StudyParams::default()
    });
    let mut scratch = WorldScratch::default();
    for user_idx in 0..plan.num_users() {
        for job in plan.user_jobs(user_idx) {
            run_job_with(&plan, &job, &mut scratch);
        }
    }
    let work = scratch.work;
    assert_eq!(work.settle_guard_trips, 0);
    assert!(work.instants > 1_000_000, "{work:?}");
    let light = work.light_instants as f64 / work.instants as f64;
    assert!(light >= 0.70, "light share {light:.3}: {work:?}");
    // Every instant is light or settled for one named reason.
    assert_eq!(work.settled_instants() + work.light_instants, work.instants);
    assert_eq!(work.settled_guard, 0);
    assert!(work.settle_rounds >= work.settled_instants(), "{work:?}");
    assert!(work.client_polls_useful > 0 && work.client_polls_useful < work.client_polls);
    assert!(work.server_polls_useful > 0 && work.server_polls_useful < work.server_polls);

    // `repro trace` prints the same tally for one session.
    let job = plan.user_jobs(0).into_iter().find(|j| j.available).unwrap();
    let clip = plan.clip_names[job.playlist_slot].to_string();
    let traced = trace_session(plan.params, job.user_id, &clip).unwrap();
    assert!(traced.driver.light_instants > 0);
    assert!(traced.driver.light_instants < traced.driver.instants);
}
