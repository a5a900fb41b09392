//! End-to-end session tests: server + network + client, full protocol flow.

use rv_media::{Clip, ContentKind};
use rv_net::{Addr, HostId, LinkParams, NetBuilder};
use rv_rtsp::{FirewallPolicy, TransportKind, TransportPreference};
use rv_server::{Catalog, ServerConfig, ServerScratch};
use rv_sim::{SimDuration, SimRng, SimTime};
use rv_tracer::{
    client_data_tcp_config, client_endpoint, ports, server_endpoint, two_host_world, ClientConfig,
    ClientScratch, SessionOutcome, SessionWorld,
};
use rv_transport::{Segment, TcpConfig};

/// Builds a complete world over symmetric links of the given rate/delay.
fn world(
    rate_bps: f64,
    delay_ms: u64,
    loss: f64,
    cfg_fn: impl FnOnce(&mut ClientConfig, &mut ServerConfig),
) -> SessionWorld {
    let params = LinkParams::lan()
        .rate(rate_bps)
        .delay(SimDuration::from_millis(delay_ms))
        .loss(loss)
        .queue(64 * 1024);
    let clip = Clip::new("news1.rm", SimDuration::from_secs(300), ContentKind::News);
    two_host_world(params, clip, 42, cfg_fn)
}

#[test]
fn broadband_udp_session_plays_smoothly() {
    let mut w = world(500_000.0, 40, 0.0, |_, _| {});
    let m = w.run(SimTime::from_secs(150));
    assert_eq!(m.outcome, SessionOutcome::Played);
    assert_eq!(m.protocol, TransportKind::Udp);
    assert!(m.frames_played > 200, "played {}", m.frames_played);
    // A 500 kbps path sustains a mid/high rung: double-digit frame rate.
    assert!(m.frame_rate > 8.0, "frame rate {}", m.frame_rate);
    let jitter = m.jitter_ms.expect("enough frames for jitter");
    assert!(jitter < 100.0, "jitter {jitter} ms");
    assert_eq!(m.rebuffer_events, 0);
    assert!(m.bandwidth_kbps > 50.0, "bandwidth {}", m.bandwidth_kbps);
    // Startup delay reflects prebuffering, not instant play.
    let startup = m.startup_delay.expect("played frames");
    assert!(
        startup >= SimDuration::from_secs(2) && startup <= SimDuration::from_secs(25),
        "startup {startup}"
    );
}

#[test]
fn forced_tcp_session_also_plays() {
    let mut w = world(500_000.0, 40, 0.0, |c, _| {
        c.transport_pref = TransportPreference::ForceTcp;
    });
    let m = w.run(SimTime::from_secs(150));
    assert_eq!(m.outcome, SessionOutcome::Played);
    assert_eq!(m.protocol, TransportKind::Tcp);
    assert!(m.frame_rate > 8.0, "frame rate {}", m.frame_rate);
    assert!(m.jitter_ms.expect("jitter") < 150.0);
}

#[test]
fn udp_blocking_firewall_falls_back_to_tcp() {
    let mut w = world(500_000.0, 40, 0.0, |c, _| {
        c.firewall = FirewallPolicy::BlockUdp;
    });
    let m = w.run(SimTime::from_secs(150));
    assert_eq!(m.outcome, SessionOutcome::Played);
    assert_eq!(m.protocol, TransportKind::Tcp);
}

#[test]
fn server_preferring_tcp_downgrades_auto_clients() {
    let mut w = world(500_000.0, 40, 0.0, |_, s| {
        s.prefers_udp = false;
    });
    let m = w.run(SimTime::from_secs(150));
    assert_eq!(m.protocol, TransportKind::Tcp);
}

#[test]
fn rtsp_blocking_firewall_yields_blocked_record() {
    let mut w = world(500_000.0, 40, 0.0, |c, _| {
        c.firewall = FirewallPolicy::BlockRtsp;
    });
    let m = w.run(SimTime::from_secs(10));
    assert_eq!(m.outcome, SessionOutcome::Blocked);
    assert_eq!(m.frames_played, 0);
}

#[test]
fn modem_session_gets_low_but_nonzero_frame_rate() {
    // 50 kbps modem: only the lowest rung fits; frame rate must be far
    // below broadband but the clip still plays.
    let mut w = world(50_000.0, 120, 0.005, |c, _| {
        c.max_bandwidth_bps = 50_000;
    });
    let m = w.run(SimTime::from_secs(200));
    assert_eq!(m.outcome, SessionOutcome::Played);
    assert!(m.frames_played > 20, "played {}", m.frames_played);
    assert!(m.frame_rate < 10.0, "modem frame rate {}", m.frame_rate);
    assert!(
        m.bandwidth_kbps < 60.0,
        "modem bandwidth {}",
        m.bandwidth_kbps
    );
}

#[test]
fn unavailable_clip_reports_unavailable() {
    let mut b = NetBuilder::new();
    let client = b.host();
    let server = b.host();
    b.duplex(client, server, LinkParams::lan());
    let mut rng = SimRng::seed_from_u64(7);
    let net = b.build_with_payload::<Segment>(&mut rng);

    let mut catalog = Catalog::new();
    catalog.add(Clip::new(
        "news1.rm",
        SimDuration::from_secs(300),
        ContentKind::News,
    ));
    catalog.set_available("news1.rm", false);

    let server = server_endpoint(
        HostId(1),
        TcpConfig::default(),
        ServerConfig::default(),
        catalog,
        1,
        ServerScratch::default(),
    );
    let client_cfg = ClientConfig::new(
        "rtsp://server/news1.rm",
        Addr::new(HostId(1), ports::CTRL),
        Addr::new(HostId(1), ports::DATA_TCP),
    );
    let client = client_endpoint(
        HostId(0),
        client_data_tcp_config(),
        client_cfg,
        ClientScratch::default(),
    );
    let mut w = SessionWorld::new(net, client, server);
    let m = w.run(SimTime::from_secs(30));
    assert_eq!(m.outcome, SessionOutcome::Unavailable);
}

#[test]
fn lossy_congested_path_drops_rate_but_survives() {
    let mut w = world(200_000.0, 80, 0.03, |_, _| {});
    let m = w.run(SimTime::from_secs(200));
    assert_eq!(m.outcome, SessionOutcome::Played);
    assert!(m.frames_played > 10, "played {}", m.frames_played);
    // Loss must be visible to the receiver accounting on UDP.
    if m.protocol == TransportKind::Udp {
        assert!(m.packets_lost > 0);
    }
}

#[test]
fn slow_pc_plays_fewer_frames_than_fast_pc() {
    let run = |cpu: f64| {
        let mut w = world(500_000.0, 40, 0.0, |c, _| {
            c.cpu_power = cpu;
        });
        w.run(SimTime::from_secs(150))
    };
    let fast = run(1.0);
    let slow = run(0.10);
    assert_eq!(slow.outcome, SessionOutcome::Played);
    assert!(
        slow.frame_rate < fast.frame_rate * 0.7,
        "slow {} vs fast {}",
        slow.frame_rate,
        fast.frame_rate
    );
    assert!(slow.cpu_utilization > fast.cpu_utilization);
}

#[test]
fn deterministic_given_same_seeds() {
    let run = || {
        let mut w = world(300_000.0, 60, 0.01, |_, _| {});
        w.run(SimTime::from_secs(150))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
