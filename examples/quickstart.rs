//! Quickstart: stream one RealVideo clip across a simulated network and
//! print the statistics RealTracer would have recorded.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rv_media::{Clip, ContentKind};
use rv_net::{Addr, HostId, LinkParams, NetBuilder};
use rv_server::{Catalog, ServerConfig, ServerScratch};
use rv_sim::{SimDuration, SimRng, SimTime};
use rv_tracer::{
    client_data_tcp_config, client_endpoint, ports, server_endpoint, ClientConfig, ClientScratch,
    SessionWorld,
};
use rv_transport::{Segment, TcpConfig};

fn main() {
    // 1. A two-host network: client <-> server over a 500 kbps, 40 ms path.
    //    Hosts are numbered in declaration order: client 0, server 1.
    let mut b = NetBuilder::new();
    let client_node = b.host();
    let server_node = b.host();
    b.duplex(
        client_node,
        server_node,
        LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(40))
            .queue(64 * 1024),
    );
    let mut rng = SimRng::seed_from_u64(7);
    let net = b.build_with_payload::<Segment>(&mut rng);

    // 2. A server endpoint (stack, listening sockets, RealServer) with one
    //    clip in its catalog.
    let mut catalog = Catalog::new();
    catalog.add(Clip::new(
        "news1.rm",
        SimDuration::from_secs(300),
        ContentKind::News,
    ));
    let server = server_endpoint(
        HostId(1),
        TcpConfig::default(),
        ServerConfig::default(),
        catalog,
        42,
        ServerScratch::default(),
    );

    // 3. A client endpoint that watches the clip for a minute.
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

    // 4. Run the world and report.
    let mut world = SessionWorld::new(net, client, server);
    let m = world.run(SimTime::from_secs(150));

    println!("outcome            : {:?}", m.outcome);
    println!("transport          : {}", m.protocol);
    println!(
        "encoded            : {} kbps @ {} fps",
        m.encoded_bps / 1000,
        m.encoded_fps
    );
    println!("measured frame rate: {:.1} fps", m.frame_rate);
    println!(
        "jitter             : {} ms",
        m.jitter_ms.map_or("n/a".into(), |j| format!("{j:.1}"))
    );
    println!("bandwidth          : {:.0} kbps", m.bandwidth_kbps);
    println!(
        "startup delay      : {:.1} s (prebuffering)",
        m.startup_delay.map_or(0.0, |d| d.as_secs_f64())
    );
    println!(
        "frames             : {} played, {} dropped, {} FEC-recovered",
        m.frames_played, m.frames_dropped, m.frames_recovered
    );
    println!(
        "rebuffering        : {} events, {:.1} s halted",
        m.rebuffer_events,
        m.rebuffer_time.as_secs_f64()
    );
}
