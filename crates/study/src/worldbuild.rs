//! Builds the simulated world for one streaming session.
//!
//! Topology: `client — access link — cloud A — transit — cloud B — server
//! access — server`. The user's access class sets the first hop, the
//! zone pair sets the transit leg, and the server's capacity and load set
//! the last hop — the three candidate bottlenecks whose interplay the
//! paper's Figures 12–15 dissect.

use std::fmt::Write;
use std::sync::{Arc, OnceLock};

use rv_media::Clip;
use rv_net::{Addr, CongestionParams, HostId, LinkId, LinkParams};
use rv_server::ServerConfig;
use rv_sim::{FaultPlan, SimDuration, SimRng};
use rv_tracer::{
    client_data_tcp_config, client_endpoint, ports, server_endpoint, FaultLinkMap, GatewayEndpoint,
    SessionWorld, WorldScratch,
};
use rv_transport::TcpConfig;

use crate::gateway::{route as gateway_route, GatewaySpec};
use crate::geography::{path_profile, zone};
use crate::population::{ConnectionClass, UserProfile};
use crate::servers::ServerSite;

/// Access-link parameters for a user's connection class.
fn access_links(user: &UserProfile) -> (LinkParams, LinkParams) {
    match user.connection {
        ConnectionClass::Modem56k => {
            // Modems add ~60 ms of latency each way and have deep buffers
            // relative to their rate — the jitter machine of Figure 21.
            // Phone-line retrains and shared ISP dial-up backhaul appear
            // as heavy-tailed throughput dips with correlated loss.
            let line_noise = CongestionParams {
                mean_level: 0.08,
                variability: 0.10,
                mean_epoch: SimDuration::from_secs(4),
                burst_prob: 0.045,
            };
            let down = LinkParams::lan()
                .rate(user.access_down_bps)
                .delay(SimDuration::from_millis(60))
                .queue(10 * 1024)
                .loss(0.003)
                .cross_traffic(line_noise, 0.025);
            let up = LinkParams::lan()
                .rate(user.access_up_bps)
                .delay(SimDuration::from_millis(60))
                .queue(8 * 1024)
                .loss(0.003)
                .cross_traffic(line_noise, 0.025);
            (down, up)
        }
        ConnectionClass::DslCable => {
            let down = LinkParams::lan()
                .rate(user.access_down_bps)
                .delay(SimDuration::from_millis(8))
                .queue(48 * 1024)
                .loss(0.0005);
            let up = LinkParams::lan()
                .rate(user.access_up_bps)
                .delay(SimDuration::from_millis(8))
                .queue(16 * 1024)
                .loss(0.0005);
            (down, up)
        }
        ConnectionClass::T1Lan => {
            // Shared office uplink: fast but contended — slightly more
            // variance than a dedicated DSL line (the paper's explanation
            // for DSL's better jitter, Figure 21).
            let contention = CongestionParams {
                mean_level: 0.28,
                variability: 0.20,
                mean_epoch: SimDuration::from_secs(2),
                burst_prob: 0.07,
            };
            let link = LinkParams::lan()
                .rate(user.access_down_bps)
                .delay(SimDuration::from_millis(3))
                .queue(96 * 1024)
                .cross_traffic(contention, 0.01);
            (link, link)
        }
    }
}

/// Which concrete links realize each abstract fault segment in the
/// study topology. Link ids follow construction order below: the access
/// pair first (down, up), then the transit duplex, then server access.
/// The same for every session, so made once per process.
fn study_fault_links() -> &'static FaultLinkMap {
    static MAP: OnceLock<FaultLinkMap> = OnceLock::new();
    MAP.get_or_init(|| FaultLinkMap {
        client_access: vec![LinkId(0), LinkId(1)],
        transit: vec![LinkId(2), LinkId(3)],
        server_access: vec![LinkId(4), LinkId(5)],
    })
}

/// Builds the complete [`SessionWorld`] for `user` fetching `clip` from
/// `site`. `session_seed` isolates this session's randomness;
/// `fault_plan` scripts this session's trouble (pass
/// [`FaultPlan::none`] for a healthy world — arming an empty plan is
/// free). `scratch` recycles storage harvested from a previously retired
/// world — [`fold`](crate::fold) threads one [`WorldScratch`] per worker
/// through consecutive sessions; the worlds built are bit-identical to
/// ones built on a fresh scratch, they just reuse warm allocations.
///
/// `gateway` is the optional gateway tier: `Some(spec)` stands up
/// `spec.replicas` servers for the site (replica 0 is the classic server;
/// replicas 1.. get their own hosts behind cloud B), seeds each with a
/// standing load, arms admission control, and hands the client the
/// gateway's replica order to walk on busy/crash. The order is also the
/// world's role map: the replica tried first builds on the storage the
/// last world's first-tried server retired (see [`WorldScratch::roles`]).
/// `None` — and any spec with `replicas <= 1` and `capacity == 0` —
/// builds the single-server world bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn build_session_world_gw(
    user: &UserProfile,
    site: &ServerSite,
    clip: &Arc<Clip>,
    watch_limit: SimDuration,
    session_seed: u64,
    fault_plan: &FaultPlan,
    gateway: Option<&GatewaySpec>,
    scratch: &mut WorldScratch,
) -> SessionWorld {
    let mut rng = SimRng::seed_from_u64(session_seed);

    // --- topology --- (declared on the last world's builder storage)
    let mut b = std::mem::take(&mut scratch.builder);
    b.renew();
    let client = b.host(); // host 0
    let server = b.host(); // host 1
    let cloud_a = b.router();
    let cloud_b = b.router();

    let (down, up) = access_links(user);
    // Access: client <-> cloud A (down = toward client).
    b.link(cloud_a, client, down);
    b.link(client, cloud_a, up);

    // Transit: cloud A <-> cloud B.
    let path = path_profile(zone(user.country), zone(site.country));
    let transit = LinkParams::lan()
        .rate(45_000_000.0) // T3 backbone
        .delay(path.delay)
        .queue(256 * 1024)
        .loss(path.base_loss)
        .cross_traffic(path.congestion, path.congestion_loss);
    b.duplex(cloud_a, cloud_b, transit);

    // Server access: cloud B <-> server.
    let server_access = LinkParams::lan()
        .rate(site.access_bps)
        .delay(SimDuration::from_millis(2))
        .queue(128 * 1024)
        .cross_traffic(site.access_congestion(), 0.02);
    b.duplex(cloud_b, server, server_access);

    // Replicas 1..N sit behind cloud B over clones of the site's access
    // link, declared after the classic six links so the replica-free
    // topology — node ids, link ids, per-link RNG forks — is unchanged.
    // Hosts get `HostId` in declaration order: replica k is HostId(1+k).
    let n_replicas = gateway.map_or(1, |g| g.replicas.max(1));
    for _ in 1..n_replicas {
        let replica = b.host();
        b.duplex(cloud_b, replica, server_access);
    }
    // The gateway's plan, into the scratch's storage: the order is the
    // role map the servers' storage is taken by.
    match gateway {
        Some(g) => gateway_route(
            g,
            zone(site.country),
            zone(user.country),
            &mut scratch.roles,
            &mut scratch.loads,
        ),
        None => scratch.roles.clear(),
    }

    // Routing for this shape is computed once per worker and replayed
    // into every session (`TopologyPrototype` asserts the structural
    // match, so a cache hit is bit-identical to a fresh BFS by
    // construction). Link parameters and per-link RNG forks stay fully
    // per-session — only the route derivation is shared.
    let proto = scratch.topo.get_or_build(&b);
    let retired = std::mem::take(&mut scratch.net);
    let net = b.build_from_prototype_into(&mut rng.fork(1), retired, &proto);
    scratch.builder = b;

    // --- servers ---
    // Dialup-era TCP used a 536-byte MSS and small windows: a full-size
    // 1460-byte MSS slow-start burst overruns a modem's ~10 KB buffer
    // several segments per window, which Reno cannot repair without RTO
    // storms. (In reality MSS is negotiated at SYN time; the builder knows
    // the client's class and configures both ends directly.)
    let dialup = user.connection == ConnectionClass::Modem56k;
    let data_mss = if dialup {
        536
    } else {
        rv_transport::DEFAULT_MSS
    };
    let s_data_cfg = TcpConfig {
        mss: data_mss,
        ..TcpConfig::default()
    };
    // Server `k` of the site: the same shared clip, own host, stack and
    // RNG stream, standing load from the gateway plan, and the storage the
    // server of its role in this worker's previous world retired (cold
    // the first time).
    let server_at = |scratch: &mut WorldScratch, k: u8| {
        let cfg = ServerConfig {
            prefers_udp: site.prefers_udp,
            capacity: gateway.map_or(0, |g| g.capacity),
            background_sessions: gateway.map_or(0, |_| scratch.loads[usize::from(k)]),
            ..ServerConfig::default()
        };
        let mut warm = scratch.server(k);
        let mut catalog = warm.catalog();
        catalog.add(Arc::clone(clip));
        server_endpoint(
            HostId(1 + u32::from(k)),
            s_data_cfg,
            cfg,
            catalog,
            session_seed ^ 0x5EED ^ (u64::from(k) << 32),
            warm,
        )
    };

    // --- client ---
    // On the last client's config storage: the URL is written into the
    // string the last URL was.
    let mut client_cfg = scratch.client.config(
        Addr::new(HostId(1), ports::CTRL),
        Addr::new(HostId(1), ports::DATA_TCP),
    );
    let host = site.name.chars().map(|c| if c == '/' { '.' } else { c });
    client_cfg.url.push_str("rtsp://");
    client_cfg.url.extend(host);
    // Infallible because writing to a `String` never fails.
    let _ = write!(client_cfg.url, "/{}", clip.name);
    client_cfg.transport_pref = user.transport_pref;
    client_cfg.firewall = user.firewall;
    // Users picked a RealPlayer connection-speed *preset*, not their true
    // line rate: "56k modem" regardless of how degraded the phone line
    // was, "DSL/cable 384k", "LAN". Servers therefore overdrive weak
    // lines — a major source of the paper's poor modem results.
    client_cfg.max_bandwidth_bps = match user.connection {
        ConnectionClass::Modem56k => 42_000,
        // DSL/cable users picked the preset below their tier
        // (RealPlayer offered 256k, 384k, and 512k broadband presets).
        ConnectionClass::DslCable => {
            if user.access_down_bps < 384_000.0 {
                256_000
            } else if user.access_down_bps < 512_000.0 {
                384_000
            } else {
                512_000
            }
        }
        ConnectionClass::T1Lan => 1_544_000,
    };
    client_cfg.cpu_power = user.pc.cpu_power();
    client_cfg.watch_limit = watch_limit;
    // The gateway's routing decision, as the ordered endpoint list the
    // client walks: first entry is the chosen replica, the rest are the
    // failover chain for busy/crashed destinations (none without a
    // gateway).
    client_cfg
        .gateway
        .extend(scratch.roles.iter().map(|&k| GatewayEndpoint {
            replica: k,
            ctrl: Addr::new(HostId(1 + u32::from(k)), ports::CTRL),
            data: Addr::new(HostId(1 + u32::from(k)), ports::DATA_TCP),
        }));
    let c_data_cfg = TcpConfig {
        mss: data_mss,
        recv_capacity: if dialup { 8 * 1024 } else { 32 * 1024 },
        ..client_data_tcp_config()
    };
    let tracer = client_endpoint(
        HostId(0),
        c_data_cfg,
        client_cfg,
        std::mem::take(&mut scratch.client),
    );

    let primary = server_at(scratch, 0);
    let mut world = SessionWorld::on_scratch(net, tracer, primary, scratch);
    for k in 1..n_replicas {
        world.add_replica(server_at(scratch, k));
    }
    world.set_faults(fault_plan, study_fault_links());
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::build_population;
    use crate::servers::server_roster;
    use rv_media::ContentKind;
    use rv_sim::SimTime;
    use rv_tracer::SessionOutcome;

    /// A gateway-free world on a fresh scratch.
    fn classic_world(
        user: &UserProfile,
        site: &ServerSite,
        clip: &Arc<Clip>,
        watch_limit: SimDuration,
        session_seed: u64,
        fault_plan: &FaultPlan,
    ) -> SessionWorld {
        build_session_world_gw(
            user,
            site,
            clip,
            watch_limit,
            session_seed,
            fault_plan,
            None,
            &mut WorldScratch::default(),
        )
    }

    #[test]
    fn built_world_plays_a_session() {
        let mut rng = SimRng::seed_from_u64(1);
        let pop = build_population(&mut rng, 1.0);
        let user = pop
            .participants
            .iter()
            .find(|u| u.connection == ConnectionClass::DslCable)
            .expect("some DSL user");
        let roster = server_roster();
        let site = &roster[9]; // US/CNN
        let clip = Arc::new(Clip::new(
            "t.rm",
            SimDuration::from_secs(240),
            ContentKind::News,
        ));
        let mut world = classic_world(
            user,
            site,
            &clip,
            SimDuration::from_secs(30),
            42,
            &FaultPlan::none(),
        );
        let m = world.run(SimTime::from_secs(120));
        assert_eq!(m.outcome, SessionOutcome::Played);
        assert!(m.frames_played > 30, "played {}", m.frames_played);
    }

    #[test]
    fn scripted_faults_fail_the_study_session() {
        let mut rng = SimRng::seed_from_u64(1);
        let pop = build_population(&mut rng, 1.0);
        let user = pop
            .participants
            .iter()
            .find(|u| u.connection == ConnectionClass::DslCable)
            .expect("some DSL user");
        let roster = server_roster();
        let site = &roster[9];
        let clip = Arc::new(Clip::new(
            "t.rm",
            SimDuration::from_secs(240),
            ContentKind::News,
        ));

        // Server dead before the first SYN: refused until retries run out.
        let down = FaultPlan {
            server_crashes: vec![rv_sim::ServerCrash {
                at: SimTime::ZERO,
                restart_after: None,
                replica: 0,
            }],
            ..FaultPlan::none()
        };
        let m = classic_world(user, site, &clip, SimDuration::from_secs(30), 42, &down)
            .run(SimTime::from_secs(150));
        assert_eq!(m.outcome, SessionOutcome::ServerDown);

        // Transit dark mid-stream for longer than the stall budget: the
        // session starts, then starves.
        let cut = FaultPlan {
            link_outages: vec![rv_sim::LinkOutage {
                segment: rv_sim::FaultSegment::Transit,
                start: SimTime::from_secs(8),
                end: SimTime::from_secs(120),
                policy: rv_sim::OutagePolicy::DropInFlight,
            }],
            ..FaultPlan::none()
        };
        let m = classic_world(user, site, &clip, SimDuration::from_secs(30), 42, &cut)
            .run(SimTime::from_secs(150));
        assert!(!m.outcome.is_played(), "outcome {:?}", m.outcome);
    }

    /// The server a gateway plan tries first builds on slot 0 of the
    /// scratch's server storage, whichever replica it is, and retires to
    /// it: here a 2-replica US site whose nearest replica for an EU user
    /// is its overseas replica 1.
    #[test]
    fn servers_build_and_retire_on_the_storage_of_their_role() {
        use crate::gateway::GatewayPolicy;
        use crate::geography::Zone;
        use rv_server::ServerScratch;

        let mut rng = SimRng::seed_from_u64(1);
        let pop = build_population(&mut rng, 1.0);
        let user = pop
            .participants
            .iter()
            .find(|u| zone(u.country) == Zone::Eu)
            .expect("some EU user");
        let roster = server_roster();
        let site = &roster[9]; // US/CNN
        let spec = GatewaySpec {
            replicas: 2,
            policy: GatewayPolicy::NearestHealthy,
            capacity: 0,
            seed: 7,
        };
        let clip = Arc::new(Clip::new(
            "t.rm",
            SimDuration::from_secs(240),
            ContentKind::News,
        ));
        let build = |scratch: &mut WorldScratch| {
            build_session_world_gw(
                user,
                site,
                &clip,
                SimDuration::from_secs(30),
                42,
                &FaultPlan::none(),
                Some(&spec),
                scratch,
            )
        };
        let frames = |scratch: &WorldScratch| -> Vec<usize> {
            let servers = scratch.servers.iter();
            servers.map(ServerScratch::frame_capacity).collect()
        };

        let mut scratch = WorldScratch::default();
        let mut world = build(&mut scratch);
        assert_eq!(scratch.roles, [1, 0], "the plan tries replica 1 first");
        let m = world.run(SimTime::from_secs(120));
        assert_eq!(m.served_replica, 1);
        world.retire(&mut scratch);
        // Replica 1 streamed and filed its storage under role 0; the
        // primary, never asked, grew none.
        let streamed = frames(&scratch);
        assert!(streamed[0] > 0 && streamed[1] == 0, "{streamed:?}");
        // Built again, replica 1 takes slot 0's storage: retired unrun,
        // each server files what it took straight back.
        build(&mut scratch).retire(&mut scratch);
        assert_eq!(frames(&scratch), streamed);
    }

    #[test]
    fn modem_user_slower_than_lan_user() {
        let mut rng = SimRng::seed_from_u64(2);
        let pop = build_population(&mut rng, 1.0);
        let modem = pop
            .participants
            .iter()
            .find(|u| u.connection == ConnectionClass::Modem56k)
            .unwrap();
        let lan = pop
            .participants
            .iter()
            .find(|u| {
                u.connection == ConnectionClass::T1Lan
                    && u.pc.cpu_power() > 0.5
                    && u.firewall == rv_rtsp::FirewallPolicy::Open
            })
            .unwrap();
        let roster = server_roster();
        let site = &roster[9];
        let clip = Arc::new(Clip::new(
            "t.rm",
            SimDuration::from_secs(240),
            ContentKind::News,
        ));

        let mut w1 = classic_world(
            modem,
            site,
            &clip,
            SimDuration::from_secs(40),
            7,
            &FaultPlan::none(),
        );
        let m1 = w1.run(SimTime::from_secs(150));
        let mut w2 = classic_world(
            lan,
            site,
            &clip,
            SimDuration::from_secs(40),
            7,
            &FaultPlan::none(),
        );
        let m2 = w2.run(SimTime::from_secs(150));
        assert!(
            m1.bandwidth_kbps < m2.bandwidth_kbps,
            "modem {} vs lan {}",
            m1.bandwidth_kbps,
            m2.bandwidth_kbps
        );
    }
}
