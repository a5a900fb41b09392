//! The gateway-tier contract: replica clusters, capacity-based
//! admission, and crash failover.
//!
//! Three layers of guarantees. World level: a crash of the serving
//! replica degrades to a played-through-failover session when a healthy
//! replica exists, and exhausting the replica list degrades to the
//! classic `ServerDown`. Campaign level: replica clusters survive the
//! crash scenario that kills the single-server study and admission
//! rejects surface as their own outcome (bit-identity across worker
//! counts is `GOLDEN.json`'s, whose matrix holds both two-replica
//! clusters). Baseline level: the default
//! params (replicas=1, sticky, no capacity) never touch the gateway
//! machinery — no gateway events, every session served by replica 0.

use rv_media::{Clip, ContentKind};
use rv_sim::{Counter, FaultPlan, FaultScenario, ServerCrash, SimDuration, SimRng, SimTime};
use rv_study::{
    build_population, build_session_world_gw, run_campaign, server_roster, ConnectionClass,
    GatewayPolicy, GatewaySpec, StudyParams, UserProfile,
};
use rv_tracer::{SessionOutcome, WorldScratch};

fn dsl_user(pop: &rv_study::Population) -> &UserProfile {
    pop.participants
        .iter()
        .find(|u| {
            u.connection == ConnectionClass::DslCable && u.firewall == rv_rtsp::FirewallPolicy::Open
        })
        .expect("some open DSL user")
}

fn spec(replicas: u8, policy: GatewayPolicy) -> GatewaySpec {
    GatewaySpec {
        replicas,
        policy,
        capacity: 0,
        seed: 1,
    }
}

/// A crash of one replica with no restart, scheduled before the session.
fn dead_replica(replica: u8) -> ServerCrash {
    ServerCrash {
        at: SimTime::ZERO,
        restart_after: None,
        replica,
    }
}

#[test]
fn crash_failover_recovers_on_a_healthy_replica() {
    let mut rng = SimRng::seed_from_u64(1);
    let pop = build_population(&mut rng, 1.0);
    let user = dsl_user(&pop);
    let roster = server_roster();
    let site = &roster[9]; // US/CNN
    let clip = std::sync::Arc::new(Clip::new(
        "t.rm",
        SimDuration::from_secs(240),
        ContentKind::News,
    ));

    // Replica 0 (the sticky first choice) is dead from t=0; replica 1 is
    // healthy. The classic study ends in ServerDown here — the gateway
    // client must instead hop and play the clip from replica 1.
    let faults = FaultPlan {
        server_crashes: vec![dead_replica(0)],
        ..FaultPlan::none()
    };
    let gw = spec(2, GatewayPolicy::Sticky);
    let mut scratch = WorldScratch::default();
    let mut world = build_session_world_gw(
        user,
        site,
        &clip,
        SimDuration::from_secs(30),
        42,
        &faults,
        Some(&gw),
        &mut scratch,
    );
    let m = world.run(SimTime::from_secs(150));
    assert!(
        matches!(m.outcome, SessionOutcome::PlayedDegraded { .. }),
        "outcome {:?}",
        m.outcome
    );
    assert_eq!(
        m.served_replica, 1,
        "session must end on the healthy replica"
    );
    let counters = world.counters();
    assert!(counters.get(Counter::GatewayRedirects) >= 1);
    assert!(counters.get(Counter::Failovers) >= 1);
    assert!(m.frames_played > 30, "played {}", m.frames_played);
}

#[test]
fn failover_exhaustion_degrades_to_server_down() {
    let mut rng = SimRng::seed_from_u64(1);
    let pop = build_population(&mut rng, 1.0);
    let user = dsl_user(&pop);
    let roster = server_roster();
    let site = &roster[9];
    let clip = std::sync::Arc::new(Clip::new(
        "t.rm",
        SimDuration::from_secs(240),
        ContentKind::News,
    ));

    // Every replica dead, no restarts: the client walks the whole order,
    // runs out of hops, and the session fails exactly like the classic
    // single-server crash.
    let faults = FaultPlan {
        server_crashes: vec![dead_replica(0), dead_replica(1)],
        ..FaultPlan::none()
    };
    let gw = spec(2, GatewayPolicy::Sticky);
    let mut scratch = WorldScratch::default();
    let m = build_session_world_gw(
        user,
        site,
        &clip,
        SimDuration::from_secs(30),
        42,
        &faults,
        Some(&gw),
        &mut scratch,
    )
    .run(SimTime::from_secs(150));
    assert_eq!(m.outcome, SessionOutcome::ServerDown);
}

fn faulted(replicas: u8) -> StudyParams {
    StudyParams {
        scale: 0.05,
        faults: FaultScenario::default_on(),
        replicas,
        gateway: GatewayPolicy::NearestHealthy,
        ..StudyParams::default()
    }
}

#[test]
fn replica_clusters_survive_crashes_that_kill_the_single_server() {
    let single = run_campaign(faulted(1)).unwrap();
    let cluster = run_campaign(faulted(2)).unwrap();
    // The scenario bites the single server: outages drop packets, TCP
    // retransmits, the fault-only failure classes appear, and someone
    // limped home through a retry or a UDP->TCP fallback.
    let counters = &single.summary.counters;
    assert!(counters.get(Counter::DropsOutage) > 0);
    assert!(counters.get(Counter::TcpRetransmits) > 0);
    let report = single.failure_report();
    let count = |label: &str| {
        report
            .outcomes
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, c)| *c)
    };
    let hard_failures =
        count("timed-out") + count("server-down") + count("starved") + count("aborted");
    assert!(hard_failures > 0, "outcomes: {:?}", report.outcomes);
    assert!(
        report.retried + report.fallbacks > 0,
        "no session retried or fell back"
    );
    let down = |d: &rv_study::StudyData| d.aggregates.failures.outcomes.get("server-down").copied();
    let single_down = down(&single).unwrap_or(0);
    let cluster_down = down(&cluster).unwrap_or(0);
    assert!(
        single_down > 0,
        "crash scenario never killed the single-server study"
    );
    assert!(
        cluster_down < single_down,
        "replicas=2 must shed server-down failures: {cluster_down} vs {single_down}"
    );
    assert!(cluster.aggregates.played >= single.aggregates.played);
    // The cluster actually spreads load: someone was served by replica 1.
    let spread = cluster
        .aggregates
        .replica_sessions
        .get(&1)
        .copied()
        .unwrap_or(0);
    assert!(spread > 0, "no session served by replica 1");
    assert!(cluster.summary.counters.get(Counter::GatewayRedirects) > 0);
}

#[test]
fn admission_rejects_surface_as_their_own_outcome() {
    let params = StudyParams {
        scale: 0.05,
        replicas: 2,
        gateway: GatewayPolicy::LeastLoaded,
        capacity: 2,
        ..StudyParams::default()
    };
    let data = run_campaign(params).unwrap();
    let rejected = data
        .aggregates
        .failures
        .outcomes
        .get("rejected")
        .copied()
        .unwrap_or(0);
    assert!(rejected > 0, "capacity=2 never filled a whole cluster");
    assert!(data.summary.counters.get(Counter::AdmissionRejects) >= rejected);
    // Rejection is admission, not unavailability or a crash: the classic
    // failure classes don't absorb it.
    assert!(!data
        .aggregates
        .failures
        .outcomes
        .contains_key("server-down"));
}

#[test]
fn default_params_never_touch_the_gateway() {
    let data = run_campaign(StudyParams {
        scale: 0.04,
        ..StudyParams::default()
    })
    .unwrap();
    // Every played session is served by replica 0 and no gateway counter
    // ever fires — the knob at its default is the classic study.
    assert_eq!(
        data.aggregates
            .replica_sessions
            .keys()
            .copied()
            .collect::<Vec<u8>>(),
        vec![0]
    );
    assert_eq!(data.summary.counters.get(Counter::GatewayRedirects), 0);
    assert_eq!(data.summary.counters.get(Counter::Failovers), 0);
    assert_eq!(data.summary.counters.get(Counter::AdmissionRejects), 0);
    assert!(data.aggregates.failover_recovery.is_empty());
}
