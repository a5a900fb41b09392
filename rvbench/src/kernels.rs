//! Fixed-iteration micro-kernels: one layer's public API exercised with
//! the other layers absent.
//!
//! Each kernel predicts a per-layer number of the traced pass (see the
//! README's interaction table) and is sized for about 0.3 s on the box the
//! baseline was taken on. They call only live-path APIs — nothing from the
//! timer wheel, the heap event queue, the legacy in-flight modes or the
//! rebuild-from-records constructors — so retiring those cannot break the
//! benchmark. The bodies follow the repository's Criterion benches
//! (`crates/bench/benches/components.rs`, `transport_throughput.rs`),
//! which stay where they are.

use std::hint::black_box;
use std::time::Instant;

use rv_media::{
    packetize_frame, Clip, ContentKind, Frame, FrameSchedule, MediaPacket, StreamDepacketizer,
};
use rv_net::{Addr, HostId, LinkParams, NetBuilder, Packet};
use rv_player::{Player, PlayoutConfig};
use rv_rtsp::{Decoder, Message, Method};
use rv_sim::{SimDuration, SimRng, SimTime};
use rv_transport::{Segment, Stack, TcpConfig};

/// Batches per kernel; the median batch is reported.
const BATCHES: usize = 5;

/// Runs `body` `iters` times per batch, [`BATCHES`] batches, and returns
/// the median batch's nanoseconds per operation, where one `body` call
/// performs `ops` operations.
fn median_ns_per_op(iters: u32, ops: u64, mut body: impl FnMut()) -> f64 {
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                body();
            }
            start.elapsed().as_nanos() as f64 / (f64::from(iters) * ops as f64)
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[BATCHES / 2]
}

/// Iterations per batch at `scale` (1.0 = full size), at least one.
fn iters(full: u32, scale: f64) -> u32 {
    ((f64::from(full) * scale) as u32).max(1)
}

/// 1,000 packets paced down a three-hop route: most polls find one link
/// due. Nanoseconds per packet.
pub fn net_forward(scale: f64) -> f64 {
    median_ns_per_op(iters(220, scale), 1_000, || {
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
        for i in 0..1_000u32 {
            let t = SimTime::from_micros(u64::from(i) * 400);
            net.send(
                t,
                Packet::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 1), 1_000, i),
            );
            net.poll(t);
        }
        net.poll(SimTime::from_secs(10));
        let mut delivered = 0u32;
        while net.recv(HostId(1)).is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 1_000, "paced route delivers every packet");
        black_box(delivered);
    })
}

/// 2,000 packets both ways through one saturated 2 Mbps duplex link:
/// every poll has queue work. Nanoseconds per packet.
pub fn net_bottleneck(scale: f64) -> f64 {
    median_ns_per_op(iters(560, scale), 2_000, || {
        let mut bld = NetBuilder::new();
        let a = bld.host();
        let z = bld.host();
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
        let client = Addr::new(HostId(0), 1);
        let server = Addr::new(HostId(1), 1);
        for i in 0..1_000u32 {
            let t = SimTime::from_micros(u64::from(i) * 50);
            net.send(t, Packet::new(server, client, 1_200, i));
            net.send(t, Packet::new(client, server, 80, i));
            net.poll(t);
        }
        net.poll(SimTime::from_secs(30));
        let mut delivered = 0u32;
        while net.recv(HostId(0)).is_some() {
            delivered += 1;
        }
        while net.recv(HostId(1)).is_some() {
            delivered += 1;
        }
        black_box(delivered);
    })
}

const TRANSFER: usize = 1024 * 1024;

/// Moves 1 MiB client to server over one 20 Mbps / 10 ms duplex link with
/// only the two stacks and the network present.
fn bulk_transfer(loss: f64) {
    let mut bld = NetBuilder::new();
    let cn = bld.host();
    let sn = bld.host();
    let mut params = LinkParams::lan()
        .rate(20_000_000.0)
        .delay(SimDuration::from_millis(10));
    if loss > 0.0 {
        params = params.loss(loss);
    }
    bld.duplex(cn, sn, params);
    let mut rng = SimRng::seed_from_u64(5);
    let mut net = bld.build_with_payload::<Segment>(&mut rng);
    let mut cs = Stack::new(HostId(0));
    let mut ss = Stack::new(HostId(1));
    let ch = cs.tcp_socket(1000, TcpConfig::default());
    let sh = ss.tcp_socket(80, TcpConfig::default());
    ss.tcp(sh).listen();
    cs.tcp(ch).connect(Addr::new(HostId(1), 80), SimTime::ZERO);

    let payload = vec![7u8; TRANSFER];
    let mut sent = 0;
    let mut received = 0usize;
    let mut now = SimTime::ZERO;
    while received < TRANSFER && now < SimTime::from_secs(120) {
        sent += cs.tcp(ch).send(&payload[sent..]);
        net.poll(now);
        cs.poll(now, &mut net);
        ss.poll(now, &mut net);
        received += ss.tcp(sh).recv_with(usize::MAX, &mut |chunk: &[u8]| {
            black_box(chunk.len());
        });
        now = rv_sim::earliest([net.next_wake(), cs.next_wake(), ss.next_wake()])
            .unwrap_or(now + SimDuration::from_millis(1))
            .max(now + SimDuration::from_micros(100));
    }
    assert_eq!(received, TRANSFER, "transfer must complete (loss={loss})");
}

/// Bulk TCP with no loss (the segmentize path). Host MiB per second.
pub fn transport_bulk_clean(scale: f64) -> f64 {
    let ns_per_transfer = median_ns_per_op(iters(100, scale), 1, || bulk_transfer(0.0));
    1e9 / ns_per_transfer
}

/// Bulk TCP at 2% loss (the retransmit path). Host MiB per second.
pub fn transport_bulk_lossy(scale: f64) -> f64 {
    let ns_per_transfer = median_ns_per_op(iters(60, scale), 1, || bulk_transfer(0.02));
    1e9 / ns_per_transfer
}

fn setup_request() -> Message {
    Message::request(Method::Setup, "rtsp://server/clip.rm")
        .with_header("CSeq", "2")
        .with_header("Transport", "x-real-rdt/udp;client_port=5002")
        .with_header("Bandwidth", "384000")
}

/// Encoding one SETUP request. Nanoseconds.
pub fn rtsp_encode(scale: f64) -> f64 {
    let msg = setup_request();
    median_ns_per_op(iters(180_000, scale), 1, || {
        black_box(black_box(&msg).encode());
    })
}

/// Feeding those bytes to a fresh decoder and taking the message back
/// out. Nanoseconds.
pub fn rtsp_decode(scale: f64) -> f64 {
    let wire = setup_request().encode();
    median_ns_per_op(iters(120_000, scale), 1, || {
        let mut dec = Decoder::new();
        dec.feed(black_box(&wire));
        let msg = dec.next_message();
        assert!(matches!(msg, Ok(Some(_))), "SETUP decodes");
        black_box(msg.ok());
    })
}

fn sports_schedule() -> FrameSchedule {
    let clip = Clip::new("x.rm", SimDuration::from_secs(60), ContentKind::Sports);
    let enc = &clip.ladder.rungs()[4];
    FrameSchedule::generate(enc, ContentKind::Sports, SimDuration::from_secs(60), 99)
}

/// Generating a 60 s Sports frame schedule at ladder rung 4 — what a
/// schedule-cache miss costs. Microseconds.
pub fn media_schedule_60s(scale: f64) -> f64 {
    median_ns_per_op(iters(2_000, scale), 1, || {
        black_box(sports_schedule());
    }) / 1e3
}

/// Packetizing a 4.2 kB frame, encoding the packets back to back and
/// taking them out of a stream depacketizer again (the TCP data path).
/// Nanoseconds per frame.
pub fn media_packetize(scale: f64) -> f64 {
    let frame = Frame {
        index: 42,
        pts: SimDuration::from_millis(2_800),
        size: 4_200,
        key: false,
    };
    let mut wire = Vec::new();
    median_ns_per_op(iters(350_000, scale), 1, || {
        let pkts = packetize_frame(black_box(&frame), 3, 7);
        wire.clear();
        for p in &pkts {
            p.encode_into(&mut wire);
        }
        let mut d = StreamDepacketizer::new();
        d.feed(&wire);
        let mut n = 0usize;
        while d.next_packet().is_some() {
            n += 1;
        }
        assert_eq!(n, pkts.len(), "every packet survives the round trip");
        black_box(n);
    })
}

/// A 60 s schedule's packets fed in order to a player, each at its
/// presentation time, polled through to the end. Nanoseconds per frame.
pub fn player_playout(scale: f64) -> f64 {
    let schedule = sports_schedule();
    let mut packets: Vec<(SimTime, MediaPacket)> = Vec::new();
    let mut seq = 0u32;
    for frame in schedule.frames() {
        for mut pkt in packetize_frame(frame, 4, frame.index / 8) {
            pkt.seq = seq;
            seq += 1;
            packets.push((SimTime::ZERO + frame.pts, pkt));
        }
    }
    let frames = schedule.len() as u64;
    let mut events = Vec::new();
    median_ns_per_op(iters(110, scale), frames, || {
        let mut player = Player::new(PlayoutConfig::default(), 1.0);
        let mut played = 0usize;
        for (at, pkt) in &packets {
            player.on_packet(*at, *pkt);
            events.clear();
            player.poll_into(*at, &mut events);
            played += events.len();
        }
        player.end_of_source();
        // Drain what the prebuffer still holds.
        let mut now = packets.last().map_or(SimTime::ZERO, |(at, _)| *at);
        while let Some(wake) = player.next_wake(now) {
            now = wake.max(now + SimDuration::from_micros(1));
            events.clear();
            player.poll_into(now, &mut events);
            played += events.len();
            if now > SimTime::from_secs(200) {
                break;
            }
        }
        assert!(played > 0, "the player emitted frame events");
        black_box(played);
    })
}

/// Every kernel metric, by its `BENCHMARK.json` name. `scale` shrinks the
/// iteration counts for `smoke`; measured runs pass 1.
pub fn run_all(scale: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("net.kernel_forward_ns_per_pkt", net_forward(scale)),
        ("net.kernel_bottleneck_ns_per_pkt", net_bottleneck(scale)),
        (
            "transport.kernel_bulk_clean_mib_per_s",
            transport_bulk_clean(scale),
        ),
        (
            "transport.kernel_bulk_lossy_mib_per_s",
            transport_bulk_lossy(scale),
        ),
        ("rtsp.kernel_encode_ns", rtsp_encode(scale)),
        ("rtsp.kernel_decode_ns", rtsp_decode(scale)),
        ("media.kernel_schedule_60s_us", media_schedule_60s(scale)),
        ("media.kernel_packetize_ns", media_packetize(scale)),
        ("player.kernel_playout_ns_per_frame", player_playout(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_reports_a_positive_number() {
        let results = run_all(0.0);
        assert_eq!(results.len(), 9);
        for (name, value) in results {
            assert!(
                crate::schema::PER_LAYER.iter().any(|m| m.name == name),
                "{name} not in schema"
            );
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }
}
