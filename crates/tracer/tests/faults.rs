//! Fault-injection scenarios: one scripted world per failure mode in the
//! `SessionOutcome` taxonomy, exercising the resilient-client FSM end to
//! end (retry/backoff, UDP→TCP fallback, stall detection).

use rv_media::{Clip, ContentKind};
use rv_net::{LinkId, LinkParams};
use rv_rtsp::TransportKind;
use rv_sim::{
    Counter, FaultPlan, FaultSegment, LinkOutage, OutagePolicy, ServerCrash, SimDuration, SimTime,
};
use rv_tracer::{two_host_world, ClientConfig, FaultLinkMap, SessionOutcome, SessionWorld};

/// A broadband two-host world with the given fault plan armed. In the
/// two-host topology the single duplex pair is the client's access leg.
fn faulted_world(plan: &FaultPlan, cfg_fn: impl FnOnce(&mut ClientConfig)) -> SessionWorld {
    let params = LinkParams::lan()
        .rate(500_000.0)
        .delay(SimDuration::from_millis(40))
        .loss(0.0)
        .queue(64 * 1024);
    let clip = Clip::new("news1.rm", SimDuration::from_secs(300), ContentKind::News);
    let mut w = two_host_world(params, clip, 42, |c, _| cfg_fn(c));
    let map = FaultLinkMap {
        client_access: vec![LinkId(0), LinkId(1)],
        ..FaultLinkMap::default()
    };
    w.set_faults(plan, &map);
    w
}

fn outage(start: u64, end: u64, policy: OutagePolicy) -> FaultPlan {
    FaultPlan {
        link_outages: vec![LinkOutage {
            segment: FaultSegment::ClientAccess,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            policy,
        }],
        ..FaultPlan::none()
    }
}

#[test]
fn empty_plan_changes_nothing() {
    let m_plain = {
        let params = LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(40))
            .loss(0.0)
            .queue(64 * 1024);
        let clip = Clip::new("news1.rm", SimDuration::from_secs(300), ContentKind::News);
        two_host_world(params, clip, 42, |_, _| {}).run(SimTime::from_secs(150))
    };
    let m_armed = faulted_world(&FaultPlan::none(), |_| {}).run(SimTime::from_secs(150));
    assert_eq!(m_plain, m_armed);
    assert_eq!(m_armed.outcome, SessionOutcome::Played);
}

#[test]
fn server_never_up_is_server_down() {
    let plan = FaultPlan {
        server_crashes: vec![ServerCrash {
            at: SimTime::ZERO,
            restart_after: None,
            replica: 0,
        }],
        ..FaultPlan::none()
    };
    let mut w = faulted_world(&plan, |_| {});
    let m = w.run(SimTime::from_secs(150));
    assert_eq!(m.outcome, SessionOutcome::ServerDown);
    assert_eq!(m.frames_played, 0);
    // Every connect was refused fast; the retry ledger must be exhausted
    // long before the session deadline.
    assert!(
        m.session_time < SimDuration::from_secs(60),
        "{}",
        m.session_time
    );
    assert_eq!(w.client.retries(), 3);
}

#[test]
fn crash_mid_play_with_restart_recovers_degraded() {
    let plan = FaultPlan {
        server_crashes: vec![ServerCrash {
            at: SimTime::from_secs(10),
            restart_after: Some(SimDuration::from_secs(3)),
            replica: 0,
        }],
        ..FaultPlan::none()
    };
    let mut w = faulted_world(&plan, |_| {});
    let m = w.run(SimTime::from_secs(150));
    match m.outcome {
        SessionOutcome::PlayedDegraded { retries, .. } => {
            assert!(retries >= 1, "expected at least one retry, got {retries}");
        }
        other => panic!("expected PlayedDegraded, got {other:?}"),
    }
    assert!(m.frames_played > 100, "played {}", m.frames_played);
}

/// A hand-written plan may overlap two crash windows on one replica:
/// crash, crash, restart, restart. The server is down from the first
/// crash to the first restart — a dead process cannot die again, a live
/// one is not restarted — and the session ends with a typed outcome.
#[test]
fn overlapping_crash_windows_on_one_replica_are_one_crash() {
    let crash = |at, restart_after| ServerCrash {
        at: SimTime::from_secs(at),
        restart_after: Some(SimDuration::from_secs(restart_after)),
        replica: 0,
    };
    let plan = FaultPlan {
        server_crashes: vec![crash(5, 10), crash(8, 2)],
        ..FaultPlan::none()
    };
    let mut w = faulted_world(&plan, |_| {});
    let m = w.run(SimTime::from_secs(150));
    match m.outcome {
        SessionOutcome::PlayedDegraded { retries, .. } => assert!(retries >= 1),
        other => panic!("expected PlayedDegraded, got {other:?}"),
    }
    assert!(w.server.is_alive());
    assert_eq!(w.counters().get(Counter::ServerCrashes), 1);
}

#[test]
fn udp_blackhole_falls_back_to_tcp_and_plays() {
    let plan = FaultPlan {
        udp_blackhole: true,
        ..FaultPlan::none()
    };
    let mut w = faulted_world(&plan, |_| {});
    let m = w.run(SimTime::from_secs(150));
    assert!(w.client.fell_back(), "client must renegotiate transports");
    match m.outcome {
        SessionOutcome::PlayedDegraded { fell_back, .. } => assert!(fell_back),
        other => panic!("expected PlayedDegraded via fallback, got {other:?}"),
    }
    assert_eq!(m.protocol, TransportKind::Tcp);
    assert!(m.frames_played > 100, "played {}", m.frames_played);
}

#[test]
fn long_outage_mid_play_starves_the_session() {
    // Data dies at 12 s and never returns within the stall budget: the
    // playout buffer drains, the player rebuffers, and after 20 s of
    // silence the user gives up.
    let mut w = faulted_world(&outage(12, 140, OutagePolicy::DropInFlight), |_| {});
    let m = w.run(SimTime::from_secs(150));
    assert_eq!(m.outcome, SessionOutcome::Starved);
    assert!(m.frames_played > 0, "stream was live before the outage");
}

#[test]
fn outage_from_start_times_out_through_retries() {
    // The access link is dark from the first SYN: every connect attempt
    // (and every retry) dies in silence, so the session deadline
    // classifies the wedge as a control-plane timeout.
    let mut w = faulted_world(&outage(0, 400, OutagePolicy::DropInFlight), |c| {
        c.connect_timeout = SimDuration::from_secs(10);
    });
    let m = w.run(SimTime::from_secs(300));
    assert_eq!(m.outcome, SessionOutcome::TimedOut);
    assert_eq!(m.frames_played, 0);
    assert_eq!(w.client.retries(), 3);
}

#[test]
fn brief_carried_outage_only_degrades_playback() {
    // A short route flap that carries in-flight packets: the buffer
    // absorbs most of it; the session must still complete (possibly
    // rebuffering, never dying).
    let mut w = faulted_world(&outage(15, 19, OutagePolicy::CarryInFlight), |_| {});
    let m = w.run(SimTime::from_secs(150));
    assert!(
        m.outcome.is_played(),
        "short flap must not kill the session: {:?}",
        m.outcome
    );
    assert!(m.frames_played > 100, "played {}", m.frames_played);
}
