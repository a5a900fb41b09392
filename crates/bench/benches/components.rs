//! Component micro-benchmarks: the building blocks every session exercises
//! thousands of times — protocol codecs, packetization, frame-schedule
//! generation, the statistics kernel, TCP bulk transfer, packet
//! forwarding through the simulated network, the wake queries a session
//! driver asks every instant, and the payload pool every staged pump and
//! every segment that spans two of them goes through.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rv_media::{
    packetize_frame, Clip, ContentKind, Frame, FrameSchedule, LazySchedule, StreamDepacketizer,
};
use rv_net::{Addr, HostId, LinkParams, NetBuilder, Packet};
use rv_rtsp::{Decoder, Message, Method};
use rv_sim::{ByteRope, PayloadPool, SimDuration, SimRng, SimTime};
use rv_stats::Cdf;
use rv_transport::{Segment, Stack, TcpConfig};

fn bench_rtsp_codec(c: &mut Criterion) {
    let msg = Message::request(Method::Setup, "rtsp://server/clip.rm")
        .with_header("CSeq", "2")
        .with_header("Transport", "x-real-rdt/udp;client_port=5002")
        .with_header("Bandwidth", "384000");
    let wire = msg.encode();
    let mut g = c.benchmark_group("rtsp");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode", |b| b.iter(|| std::hint::black_box(msg.encode())));
    g.bench_function("decode", |b| {
        b.iter(|| {
            let mut dec = Decoder::new();
            dec.feed(&wire);
            // The view borrows the decoder: look at it here.
            std::hint::black_box(dec.next_message().unwrap().unwrap().body().len())
        })
    });
    g.finish();
}

fn bench_media_pipeline(c: &mut Criterion) {
    let frame = Frame {
        index: 42,
        pts: SimDuration::from_millis(2_800),
        size: 4_200,
        key: false,
    };
    let pkts = packetize_frame(&frame, 3, 7);
    let wire: Vec<u8> = pkts.iter().flat_map(|p| p.encode()).collect();

    let mut g = c.benchmark_group("media");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("packetize_frame", |b| {
        b.iter(|| std::hint::black_box(packetize_frame(&frame, 3, 7)))
    });
    g.bench_function("depacketize_stream", |b| {
        b.iter(|| {
            let mut d = StreamDepacketizer::new();
            d.feed(&wire);
            let mut n = 0;
            while d.next_packet().is_some() {
                n += 1;
            }
            std::hint::black_box(n)
        })
    });
    g.finish();

    c.bench_function("frame_schedule_60s", |b| {
        let clip = Clip::new("x.rm", SimDuration::from_secs(60), ContentKind::Sports);
        let enc = &clip.ladder.rungs()[4];
        b.iter(|| {
            std::hint::black_box(FrameSchedule::generate(
                enc,
                ContentKind::Sports,
                SimDuration::from_secs(60),
                99,
            ))
        })
    });

    // What a 2 s session asks of a 6-minute clip (watch + the 13 s buffer
    // lead), on recycled storage: against six times the whole-clip case
    // above, this is what generating on demand saves such a session.
    c.bench_function("frame_schedule_first_16s_of_360s", |b| {
        let clip = Clip::new("x.rm", SimDuration::from_secs(360), ContentKind::Sports);
        let enc = &clip.ladder.rungs()[4];
        let mut storage = Vec::new();
        b.iter(|| {
            let mut lazy = LazySchedule::start(
                enc,
                ContentKind::Sports,
                clip.duration,
                99,
                std::mem::take(&mut storage),
            );
            std::hint::black_box(lazy.first_frame_at(SimDuration::from_secs(16)));
            storage = lazy.into_storage();
        })
    });

    c.bench_function("clip_describe_roundtrip", |b| {
        let clip = Clip::new("x.rm", SimDuration::from_secs(300), ContentKind::News);
        b.iter(|| {
            let body = clip.describe();
            std::hint::black_box(Clip::parse_description("x.rm", &body).unwrap())
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(1);
    let samples: Vec<f64> = (0..10_000).map(|_| rng.range(0.0..30.0)).collect();
    c.bench_function("cdf_build_10k", |b| {
        b.iter(|| std::hint::black_box(Cdf::from_samples(&samples).unwrap()))
    });
    let cdf = Cdf::from_samples(&samples).unwrap();
    c.bench_function("cdf_series_on_grid", |b| {
        b.iter(|| std::hint::black_box(cdf.series_on_grid(0.0, 30.0, 56)))
    });
}

/// Bulk TCP transfer between two stacks over a 10 Mbps link: measures the
/// whole transport + network stack in motion.
fn bench_tcp_bulk(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp_bulk_256KiB");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(256 * 1024));
    g.bench_function("clean_10mbps", |b| {
        b.iter(|| {
            let mut bld = NetBuilder::new();
            let cn = bld.host();
            let sn = bld.host();
            bld.duplex(
                cn,
                sn,
                LinkParams::lan()
                    .rate(10_000_000.0)
                    .delay(SimDuration::from_millis(10)),
            );
            let mut rng = SimRng::seed_from_u64(5);
            let mut net = bld.build_with_payload::<Segment>(&mut rng);
            let mut cs = Stack::new(HostId(0));
            let mut ss = Stack::new(HostId(1));
            let ch = cs.tcp_socket(1000, TcpConfig::default());
            let sh = ss.tcp_socket(80, TcpConfig::default());
            ss.tcp(sh).listen();
            cs.tcp(ch).connect(Addr::new(HostId(1), 80), SimTime::ZERO);
            let payload = vec![7u8; 256 * 1024];
            let mut sent = 0;
            let mut received = 0usize;
            let mut now = SimTime::ZERO;
            while received < payload.len() && now < SimTime::from_secs(30) {
                sent += cs.tcp(ch).send(&payload[sent..]);
                net.poll(now);
                cs.poll(now, &mut net);
                ss.poll(now, &mut net);
                received += ss.tcp(sh).recv(usize::MAX).len();
                now = rv_sim::earliest([net.next_wake(), cs.next_wake(), ss.next_wake()])
                    .unwrap_or(now + SimDuration::from_millis(1))
                    .max(now + SimDuration::from_micros(100));
            }
            assert_eq!(received, payload.len());
            std::hint::black_box(received)
        })
    });
    g.finish();
}

/// Raw packet forwarding through a three-hop route.
fn bench_network_forwarding(c: &mut Criterion) {
    let mut g = c.benchmark_group("network");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("forward_1k_packets_3hops", |b| {
        b.iter(|| {
            let mut bld = NetBuilder::new();
            let a = bld.host();
            let z = bld.host();
            let r1 = bld.router();
            let r2 = bld.router();
            let fast = LinkParams::lan()
                .rate(1e9)
                .delay(SimDuration::from_millis(1));
            bld.duplex(a, r1, fast);
            bld.duplex(r1, r2, fast);
            bld.duplex(r2, z, fast);
            let mut rng = SimRng::seed_from_u64(3);
            let mut net = bld.build_with_payload::<u32>(&mut rng);
            for i in 0..1_000u32 {
                net.send(
                    SimTime::from_micros(u64::from(i)),
                    Packet::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 1), 1000, i),
                );
                net.poll(SimTime::from_micros(u64::from(i)));
            }
            net.poll(SimTime::from_secs(10));
            let mut delivered = 0;
            while net.recv(HostId(1)).is_some() {
                delivered += 1;
            }
            std::hint::black_box(delivered)
        })
    });
    g.finish();
}

/// The network hot path in isolation: the wake-scheduled poll loop, link
/// drains, and route-interned forwarding, with no transport stack on top.
///
/// Two shapes, matching how sessions actually load the network:
/// `bottleneck_bidir` saturates one duplex link with traffic both ways
/// (data down, reports and ACKs up — every poll has queue work);
/// `route_3hop_paced` trickles paced packets down a three-hop route so
/// most polls find only one link due, which is exactly the case the
/// due-time index over links exists to make cheap.
fn bench_net_hotpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_hotpath");
    g.throughput(Throughput::Elements(2_000));
    g.bench_function("bottleneck_bidir", |b| {
        b.iter(|| {
            let mut bld = NetBuilder::new();
            let a = bld.host();
            let z = bld.host();
            // A 2 Mbps bottleneck: the queue stays busy the whole run.
            bld.duplex(
                a,
                z,
                LinkParams::lan()
                    .rate(2e6)
                    .delay(SimDuration::from_millis(5))
                    .queue(256 * 1024),
            );
            let mut rng = SimRng::seed_from_u64(11);
            let mut net = bld.build_with_payload::<u32>(&mut rng);
            let (down, up) = (
                (Addr::new(HostId(1), 1), Addr::new(HostId(0), 1)),
                (Addr::new(HostId(0), 1), Addr::new(HostId(1), 1)),
            );
            for i in 0..1_000u32 {
                let t = SimTime::from_micros(u64::from(i) * 50);
                net.send(t, Packet::new(down.0, down.1, 1_200, i));
                net.send(t, Packet::new(up.0, up.1, 80, i));
                net.poll(t);
            }
            net.poll(SimTime::from_secs(30));
            let mut delivered = 0;
            while net.recv(HostId(0)).is_some() {
                delivered += 1;
            }
            while net.recv(HostId(1)).is_some() {
                delivered += 1;
            }
            std::hint::black_box(delivered)
        })
    });
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("route_3hop_paced", |b| {
        b.iter(|| {
            let mut bld = NetBuilder::new();
            let a = bld.host();
            let z = bld.host();
            let r1 = bld.router();
            let r2 = bld.router();
            let fast = LinkParams::lan()
                .rate(1e8)
                .delay(SimDuration::from_millis(2));
            bld.duplex(a, r1, fast);
            bld.duplex(r1, r2, fast);
            bld.duplex(r2, z, fast);
            let mut rng = SimRng::seed_from_u64(12);
            let mut net = bld.build_with_payload::<u32>(&mut rng);
            // Paced far apart relative to service time: each poll visits
            // only the link with work, never the other five.
            for i in 0..1_000u32 {
                let t = SimTime::from_micros(u64::from(i) * 400);
                net.send(
                    t,
                    Packet::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 1), 1_000, i),
                );
                net.poll(t);
            }
            net.poll(SimTime::from_secs(10));
            let mut delivered = 0;
            while net.recv(HostId(1)).is_some() {
                delivered += 1;
            }
            std::hint::black_box(delivered)
        })
    });
    g.finish();
}

/// The wake questions a session driver asks, one call each: the
/// `earliest` fold over the six primary wake sources, the network's
/// `next_wake`, and the stack's `next_wake` (a sweep over the three
/// sockets a session server holds). An established connection with
/// unacked data keeps a retransmission deadline pending, so every answer
/// is `Some`.
fn bench_wake_queries(c: &mut Criterion) {
    let mut bld = NetBuilder::new();
    let cn = bld.host();
    let sn = bld.host();
    bld.duplex(
        cn,
        sn,
        LinkParams::lan()
            .rate(1e6)
            .delay(SimDuration::from_millis(10)),
    );
    let mut rng = SimRng::seed_from_u64(13);
    let mut net = bld.build_with_payload::<Segment>(&mut rng);
    let mut cs = Stack::new(HostId(0));
    let mut ss = Stack::new(HostId(1));
    let ch = cs.tcp_socket(1000, TcpConfig::default());
    let sh = ss.tcp_socket(554, TcpConfig::default());
    ss.tcp_socket(555, TcpConfig::default());
    ss.udp_socket(5000);
    ss.tcp(sh).listen();
    cs.tcp(ch).connect(Addr::new(HostId(1), 554), SimTime::ZERO);
    let mut now = SimTime::ZERO;
    while !ss.tcp_ref(sh).is_established() {
        net.poll(now);
        cs.poll(now, &mut net);
        ss.poll(now, &mut net);
        now += SimDuration::from_millis(1);
    }
    // Data on the wire and unacknowledged: the server's RTO is armed and
    // the network has a serialization pending.
    ss.tcp(sh).send(&[7u8; 4_000]);
    ss.poll(now, &mut net);
    assert!(net.next_wake().is_some() && ss.next_wake().is_some());
    assert!(!ss.needs_poll(&net, now));

    let wakes = [
        net.next_wake(),
        cs.next_wake(),
        ss.next_wake(),
        Some(now + rv_sim::APP_TICK),
        None,
        None,
    ];
    let mut g = c.benchmark_group("wake_queries");
    g.throughput(Throughput::Elements(1));
    g.bench_function("earliest_6", |b| {
        b.iter(|| rv_sim::earliest(std::hint::black_box(wakes)))
    });
    g.bench_function("network_next_wake", |b| {
        b.iter(|| std::hint::black_box(&net).next_wake())
    });
    g.bench_function("stack_next_wake", |b| {
        b.iter(|| std::hint::black_box(&ss).next_wake())
    });
    g.finish();
}

/// The layer numbers the campaign's memory and allocation figures rest
/// on. `copy_in` of a mean pump (1,200 B) with windows released in claim
/// order, as ACKs and deliveries release them: the cost must not depend
/// on how many backings an earlier burst left the pool owning (40 live of
/// 40 against 40 live of 900), nor on the oldest window being stuck
/// behind an outage with a thousand live behind it (one requeue per trip
/// through the claim queue, not a pass per claim). And the rope's
/// spanning slice — an MSS across two pump-sized chunks, 119.5 times a
/// session — which gathers into a recycled backing.
fn bench_payload_pool(c: &mut Criterion) {
    let pump = [0xA5u8; 1_200];
    // A pool that once had `owned` windows out and now keeps `live`.
    let warm = |owned: usize, live: usize| {
        let mut pool = PayloadPool::new();
        let mut windows: std::collections::VecDeque<_> =
            (0..owned).map(|_| pool.copy_in(&pump)).collect();
        windows.drain(..owned - live);
        (pool, windows)
    };
    let mut g = c.benchmark_group("payload_pool");
    g.throughput(Throughput::Bytes(pump.len() as u64));
    for owned in [40, 900] {
        let (mut pool, mut windows) = warm(owned, 40);
        g.bench_function(format!("copy_in_1200B_40_live_of_{owned}_owned"), |b| {
            b.iter(|| {
                windows.pop_front();
                windows.push_back(pool.copy_in(std::hint::black_box(&pump)));
            })
        });
    }
    let (mut pool, mut windows) = warm(1_000, 1_000);
    let pinned = windows.pop_front();
    g.bench_function("copy_in_1200B_1000_live_front_pinned", |b| {
        b.iter(|| {
            windows.pop_front();
            windows.push_back(pool.copy_in(std::hint::black_box(&pump)));
        })
    });
    drop(pinned);

    let mut rope = ByteRope::new();
    for _ in 0..8 {
        rope.push_slice(&[0x5Au8; 1_219]);
    }
    g.throughput(Throughput::Bytes(1_460));
    g.bench_function("rope_slice_spanning_mss", |b| {
        b.iter(|| std::hint::black_box(&mut rope).slice(1_000, 1_460))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rtsp_codec,
    bench_media_pipeline,
    bench_stats,
    bench_tcp_bulk,
    bench_network_forwarding,
    bench_net_hotpath,
    bench_wake_queries,
    bench_payload_pool
);
criterion_main!(benches);
