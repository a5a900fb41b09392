//! One recycling law for every component a session recycles (DESIGN.md
//! "The session lifecycle"). A recycled component is its own storage:
//! `new(args)` builds it, and `renew(args)` returns it to `new(args)`'s
//! state keeping only capacity. For two scripts A and B:
//!
//! 1. run A on a new component, renew it, and run B;
//! 2. every public output B produced equals B's outputs on a new
//!    component (and A's, renewed again, equal A's);
//! 3. a second A → B pass grows no retained storage.
//!
//! Each row of the lifecycle table is one instantiation below, with an A
//! that leaves the component dirty wherever B could notice.

use std::fmt::Debug;

use rv_media::{
    packetize_frame_into, parity_packet, Clip, ContentKind, Frame, MediaPacket, StreamDepacketizer,
};
use rv_net::{Addr, HostId, LinkId, LinkParams, NetBuilder, Network, Packet};
use rv_player::{Player, PlayoutConfig, PlayoutEvent};
use rv_rtsp::{
    ClientSession, Decoder, ServerHandler, ServerSession, Status, TransportPreference,
    TransportSpec,
};
use rv_server::{Catalog, ServerConfig, ServerScratch};
use rv_sim::{earliest, OutagePolicy, SimDuration, SimRng, SimTime};
use rv_tracer::{
    client_data_tcp_config, client_endpoint, ports, server_endpoint, ClientConfig, ClientScratch,
    SessionWorld,
};
use rv_transport::{Segment, Stack, TcpConfig};

/// A recycled component as the law drives it.
trait Recycled {
    /// What `new` and `renew` take.
    type Args;
    /// One session's worth of work.
    type Script;
    /// Every public output a script produces.
    type Seen: PartialEq + Debug;
    fn new(args: &Self::Args) -> Self;
    fn renew(&mut self, args: &Self::Args);
    fn run(&mut self, script: &Self::Script) -> Self::Seen;
    fn retained_bytes(&self) -> usize;
}

fn law<C: Recycled>(a: (&C::Args, &C::Script), b: (&C::Args, &C::Script)) {
    let want = C::new(b.0).run(b.1);
    let mut subject = C::new(a.0);
    let dirty = subject.run(a.1);
    subject.renew(b.0);
    assert_eq!(subject.run(b.1), want, "B on a component renewed after A");
    let grown = subject.retained_bytes();
    assert!(grown > 0, "A and B grew no storage to recycle");
    subject.renew(a.0);
    assert_eq!(subject.run(a.1), dirty, "A on a component renewed after B");
    subject.renew(b.0);
    assert_eq!(subject.run(b.1), want, "B after a second A");
    assert_eq!(
        subject.retained_bytes(),
        grown,
        "a second A → B pass grew storage"
    );
}

// --- the stack pair over a lossy path -----------------------------------

/// A client and a server stack.
struct Stacks([Stack; 2]);

/// A TCP transfer and a UDP burst between the stacks, driven until
/// `until_ms`.
struct Transfer {
    bytes: u32,
    datagrams: u8,
    /// A datagram to a port nobody bound (counted, dropped).
    stray: bool,
    /// Whether the receivers read what arrives.
    read: bool,
    until_ms: u64,
}

/// Drives the network and both stacks from `*now` until `deadline` or
/// quiescence.
fn drive(
    net: &mut Network<Segment>,
    [a, b]: &mut [Stack; 2],
    now: &mut SimTime,
    deadline: SimTime,
) {
    while *now <= deadline {
        while net.poll(*now) + a.poll(*now, net) + b.poll(*now, net) > 0 {}
        let Some(wake) = earliest([net.next_wake(), a.next_wake(), b.next_wake()]) else {
            return;
        };
        if wake > deadline && *now == deadline {
            return;
        }
        *now = wake.min(deadline).max(*now + SimDuration::from_micros(1));
    }
}

impl Recycled for Stacks {
    type Args = [HostId; 2];
    type Script = Transfer;
    type Seen = (usize, Vec<u8>, usize, String);

    fn new(&[c, s]: &[HostId; 2]) -> Self {
        Stacks([Stack::new(c), Stack::new(s)])
    }

    fn renew(&mut self, &[c, s]: &[HostId; 2]) {
        self.0[0].renew(c);
        self.0[1].renew(s);
    }

    fn run(&mut self, t: &Transfer) -> Self::Seen {
        let mut b = NetBuilder::new();
        let (c, s) = (b.host(), b.host());
        let path = LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(20))
            .loss(0.05);
        b.duplex(c, s, path);
        let mut net = b.build_with_payload::<Segment>(&mut SimRng::seed_from_u64(99));
        let [cs, ss] = &mut self.0;
        let (ch, cu) = (
            cs.tcp_socket(2000, TcpConfig::default()),
            cs.udp_socket(5000),
        );
        let (sh, su) = (
            ss.tcp_socket(554, TcpConfig::default()),
            ss.udp_socket(5001),
        );
        ss.tcp(sh).listen();
        cs.tcp(ch).connect(Addr::new(HostId(1), 554), SimTime::ZERO);
        let payload: Vec<u8> = (0..t.bytes).map(|i| (i % 251) as u8).collect();
        let accepted = cs.tcp(ch).send(&payload);
        for i in 0..t.datagrams {
            cs.udp(cu).send_to(Addr::new(HostId(1), 5001), vec![i; 300]);
            ss.udp(su).send_to(Addr::new(HostId(0), 5000), vec![i; 200]);
        }
        if t.stray {
            cs.udp(cu).send_to(Addr::new(HostId(1), 9), vec![1]);
        }
        let (mut now, mut received, mut datagrams) = (SimTime::ZERO, Vec::new(), 0);
        for step in 1..=t.until_ms / 100 {
            drive(
                &mut net,
                &mut self.0,
                &mut now,
                SimTime::from_millis(step * 100),
            );
            let [cs, ss] = &mut self.0;
            if t.read {
                received.extend(ss.tcp(sh).recv(usize::MAX));
                while ss.udp(su).recv().is_some() || cs.udp(cu).recv().is_some() {
                    datagrams += 1;
                }
            }
        }
        let [cs, ss] = &self.0;
        let state = format!(
            "{:?}",
            (
                [cs.total_tcp_stats(), ss.total_tcp_stats()],
                [cs.dropped_no_socket(), ss.dropped_no_socket()],
                [cs.udp_ref(cu).stats(), ss.udp_ref(su).stats()],
                [
                    cs.udp_ref(cu).recv_queue_len(),
                    ss.udp_ref(su).recv_queue_len()
                ],
                [cs.tcp_ref(ch).state(), ss.tcp_ref(sh).state()],
                [cs.tcp_ref(ch).cwnd(), ss.tcp_ref(sh).cwnd()],
                [cs.tcp_ref(ch).srtt(), ss.tcp_ref(sh).srtt()],
                [
                    cs.tcp_ref(ch).unacked_and_unsent(),
                    ss.tcp_ref(sh).recv_available()
                ],
                [cs.next_wake(), ss.next_wake()],
                (net.delivered(), net.total_link_stats()),
            )
        );
        (accepted, received, datagrams, state)
    }

    fn retained_bytes(&self) -> usize {
        self.0.iter().map(Stack::retained_bytes).sum()
    }
}

/// A is cut mid-transfer with nothing read, so every rope, the
/// out-of-order and ACK queues and both UDP inboxes still hold bytes, and
/// a datagram to an unbound port is counted.
#[test]
fn the_stack_pair_over_a_lossy_path_obeys_the_law() {
    let hosts = [HostId(0), HostId(1)];
    let a = Transfer {
        bytes: 60_000,
        datagrams: 40,
        stray: true,
        read: false,
        until_ms: 1_500,
    };
    let b = Transfer {
        bytes: 40_000,
        datagrams: 50,
        stray: false,
        read: true,
        until_ms: 40_000,
    };
    let mut fresh = Stacks::new(&hosts);
    assert_eq!(fresh.run(&b).1.len(), 40_000);
    let retransmits = fresh.0[0].total_tcp_stats().retransmits;
    assert!(retransmits > 0, "the path must lose segments");
    law::<Stacks>((&hosts, &a), (&hosts, &b));
}

// --- the player ---------------------------------------------------------

/// A stream of `frames` 10 fps frames with one parity packet per eight,
/// each packet on time, every `drop_every`-th lost (0: none).
fn stream(frames: u32, drop_every: usize) -> Vec<MediaPacket> {
    let (mut out, mut pkts, mut fec) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seq, mut group) = (0, 0);
    for index in 0..frames {
        let frame = Frame {
            index,
            pts: SimDuration::from_millis(u64::from(index) * 100),
            size: 300 + (index * 977) % 4_000,
            key: index % 10 == 0,
        };
        pkts.clear();
        packetize_frame_into(&frame, 0, group, &mut pkts);
        for mut pkt in pkts.drain(..) {
            pkt.seq = seq;
            seq += 1;
            out.push(pkt);
            fec.push(pkt);
            if fec.len() == 8 {
                let mut parity = parity_packet(group, &fec);
                parity.seq = seq;
                seq += 1;
                out.push(parity);
                fec.clear();
                group += 1;
            }
        }
    }
    let kept = out.into_iter().enumerate();
    let kept = kept.filter(|(i, _)| drop_every == 0 || i % drop_every != drop_every - 1);
    kept.map(|(_, pkt)| pkt).collect()
}

/// Packets fed as their media time comes due, the player polled every
/// 10 ms until `until_ms`, then the source ended when `eos`.
struct Feed {
    packets: Vec<MediaPacket>,
    until_ms: u64,
    eos: bool,
}

impl Recycled for Player {
    type Args = (PlayoutConfig, f64);
    type Script = Feed;
    type Seen = (Vec<PlayoutEvent>, String);

    fn new(&(cfg, cpu): &(PlayoutConfig, f64)) -> Self {
        Player::new(cfg, cpu)
    }

    fn renew(&mut self, &(cfg, cpu): &(PlayoutConfig, f64)) {
        Player::renew(self, cfg, cpu);
    }

    fn run(&mut self, feed: &Feed) -> Self::Seen {
        let (mut events, mut next) = (Vec::new(), 0);
        for ms in (0..feed.until_ms).step_by(10) {
            let now = SimTime::from_millis(ms);
            while let Some(pkt) = feed
                .packets
                .get(next)
                .filter(|p| p.pts_micros <= ms * 1_000)
            {
                self.on_packet(now, *pkt);
                next += 1;
            }
            self.poll_into(now, &mut events);
        }
        if feed.eos {
            self.end_of_source();
            self.poll_into(SimTime::from_millis(feed.until_ms), &mut events);
        }
        let state = format!(
            "{:?}",
            (
                self.state(),
                self.playout_stats(),
                self.reassembly_stats(),
                self.buffered_span(),
                self.idle_until(),
                self.take_interval(),
            )
        );
        (events, state)
    }

    fn retained_bytes(&self) -> usize {
        Player::retained_bytes(self)
    }
}

/// A is cut mid-stream over a lossy feed: frames and FEC groups await
/// fragments, the completed runs cover B's frame indices, and every
/// counter and clock has moved.
#[test]
fn the_player_obeys_the_law() {
    let a = Feed {
        packets: stream(150, 7),
        until_ms: 12_000,
        eos: false,
    };
    let b = Feed {
        packets: stream(200, 23),
        until_ms: 30_000,
        eos: true,
    };
    let slow = PlayoutConfig {
        prebuffer: SimDuration::from_secs(3),
        ..PlayoutConfig::default()
    };
    law::<Player>((&(PlayoutConfig::default(), 1.0), &a), (&(slow, 0.4), &b));
}

// --- the RTSP client session --------------------------------------------

/// A server that has every clip and grants every transport.
struct Grant;

impl ServerHandler for Grant {
    fn describe(&mut self, _: &str, body: &mut Vec<u8>) -> bool {
        body.extend_from_slice(b"v=0\r\n");
        true
    }
    fn setup(&mut self, _: &str, requested: TransportSpec) -> Result<TransportSpec, Status> {
        Ok(TransportSpec {
            server_port: Some(6970),
            ..requested
        })
    }
    fn play(&mut self, _: &str) {}
    fn set_parameter(&mut self, _: &str, _: &str, _: &str) {}
    fn teardown(&mut self, _: &str) {}
}

/// One request a client session writes.
#[derive(Clone, Copy)]
enum Ask {
    Describe,
    Setup(TransportSpec),
    Play,
    Report,
    Teardown,
}

/// Each request, and whether the server's reply reaches the client.
struct Dialogue(Vec<(Ask, bool)>);

impl Recycled for ClientSession {
    type Args = String;
    type Script = Dialogue;
    type Seen = Vec<(Vec<u8>, String)>;

    fn new(url: &String) -> Self {
        ClientSession::new(url)
    }

    fn renew(&mut self, url: &String) {
        ClientSession::renew(self, url);
    }

    fn run(&mut self, script: &Dialogue) -> Self::Seen {
        let (mut server, mut to_server, mut to_client) =
            (ServerSession::new(), Decoder::new(), Decoder::new());
        let mut seen = Vec::new();
        for &(ask, replied) in &script.0 {
            let mut req = Vec::new();
            let wrote = match ask {
                Ask::Describe => self.describe(Some(56_000), &mut req),
                Ask::Setup(spec) => self.setup(spec, &mut req),
                Ask::Play => self.play(&mut req),
                Ask::Report => self.set_parameter("x-report", "0.01:1000.0", &mut req),
                Ask::Teardown => {
                    self.teardown(&mut req);
                    Ok(())
                }
            };
            let mut event = format!("{wrote:?}");
            if replied && !req.is_empty() {
                to_server.feed(&req);
                let mut resp = Vec::new();
                if let Ok(Some(msg)) = to_server.next_message() {
                    server.on_request(&mut Grant, &msg, &mut resp);
                }
                to_client.feed(&resp);
                if let Ok(Some(reply)) = to_client.next_message() {
                    event = format!("{:?}", self.on_response(&reply));
                }
            }
            let ids = (self.state(), self.session_id().map(str::to_owned));
            seen.push((req, format!("{event} {ids:?}")));
        }
        seen
    }

    fn retained_bytes(&self) -> usize {
        ClientSession::retained_bytes(self)
    }
}

/// A holds a session id, a CSeq past B's and two unanswered reports when it is
/// renewed for another URL.
#[test]
fn the_client_session_obeys_the_law() {
    let a = Dialogue(vec![
        (Ask::Describe, true),
        (Ask::Setup(TransportSpec::udp(5002)), true),
        (Ask::Play, true),
        (Ask::Report, true),
        (Ask::Report, false),
        (Ask::Report, false),
    ]);
    let b = Dialogue(vec![
        (Ask::Describe, true),
        (Ask::Setup(TransportSpec::tcp()), true),
        (Ask::Play, true),
        (Ask::Report, true),
        (Ask::Teardown, true),
    ]);
    let urls = ["rtsp://srv/a-much-longer-clip-name.rm", "rtsp://srv/b.rm"].map(String::from);
    law::<ClientSession>((&urls[0], &a), (&urls[1], &b));
}

// --- the RTSP decoder and the TCP depacketizer --------------------------

/// Bytes fed in chunks of `chunk`.
struct Chunks {
    bytes: Vec<u8>,
    chunk: usize,
}

impl Recycled for Decoder {
    type Args = ();
    type Script = Chunks;
    type Seen = (Vec<String>, usize);

    fn new(_: &()) -> Self {
        Decoder::new()
    }

    fn renew(&mut self, _: &()) {
        Decoder::renew(self);
    }

    fn run(&mut self, input: &Chunks) -> Self::Seen {
        let mut seen = Vec::new();
        for chunk in input.bytes.chunks(input.chunk) {
            self.feed(chunk);
            loop {
                match self.next_message() {
                    Ok(Some(msg)) => {
                        let headers: Vec<_> = msg.headers().collect();
                        seen.push(format!("{:?}", (msg.start(), headers, msg.body())));
                    }
                    Ok(None) => break,
                    Err(e) => seen.push(format!("{e:?}")),
                }
            }
        }
        (seen, self.buffered())
    }

    fn retained_bytes(&self) -> usize {
        Decoder::retained_bytes(self)
    }
}

/// A leaves half a reply buffered, with its header scan and body wait
/// under way.
#[test]
fn the_rtsp_decoder_obeys_the_law() {
    let a = Chunks {
        bytes: b"RTSP/1.0 200 OK\r\nCSeq: 1\r\n\r\nRTSP/1.0 200 OK\r\nCSeq: 2\r\nContent-Length: 40\r\n\r\nv=0\r\n"
            .to_vec(),
        chunk: 7,
    };
    let b = Chunks {
        bytes: b"RTSP/1.0 454 Session Not Found\r\nCSeq: 9\r\n\r\nRTSP/1.0 200 OK\r\nCSeq: 10\r\nContent-Length: 3\r\n\r\nabc"
            .to_vec(),
        chunk: 11,
    };
    law::<Decoder>((&(), &a), (&(), &b));
}

impl Recycled for StreamDepacketizer {
    type Args = ();
    type Script = Chunks;
    type Seen = (Vec<MediaPacket>, usize);

    fn new(_: &()) -> Self {
        StreamDepacketizer::new()
    }

    fn renew(&mut self, _: &()) {
        StreamDepacketizer::renew(self);
    }

    fn run(&mut self, input: &Chunks) -> Self::Seen {
        let mut packets = Vec::new();
        for chunk in input.bytes.chunks(input.chunk) {
            self.feed(chunk);
            while let Some(pkt) = self.next_packet() {
                packets.push(pkt);
            }
        }
        (packets, self.buffered())
    }

    fn retained_bytes(&self) -> usize {
        StreamDepacketizer::retained_bytes(self)
    }
}

/// The wire bytes of `packets`, less the last `cut`.
fn wire(packets: &[MediaPacket], cut: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for pkt in packets {
        pkt.encode_into(&mut bytes);
    }
    bytes.truncate(bytes.len() - cut);
    bytes
}

/// A ends inside a packet.
#[test]
fn the_tcp_depacketizer_obeys_the_law() {
    let a = Chunks {
        bytes: wire(&stream(30, 0), 100),
        chunk: 1_000,
    };
    let b = Chunks {
        bytes: wire(&stream(40, 0)[..90], 0),
        chunk: 333,
    };
    law::<StreamDepacketizer>((&(), &a), (&(), &b));
}

// --- the network and its builder ----------------------------------------

/// A topology builder and the network last built from it.
struct Net {
    builder: NetBuilder,
    net: Network<u32>,
}

/// Client, server, replica and an unconnected host behind two routers
/// (`wide`), or a client and a server behind one (`!wide`).
fn declare(b: &mut NetBuilder, wide: bool) {
    let lossy = LinkParams::lan()
        .rate(400_000.0)
        .delay(SimDuration::from_millis(7))
        .loss(0.1)
        .queue(4 * 1024);
    let (client, server, router) = (b.host(), b.host(), b.router());
    b.duplex(client, router, lossy);
    if wide {
        let (replica, _isolated, far) = (b.host(), b.host(), b.router());
        b.duplex(router, far, lossy.rate(100_000.0));
        b.duplex(far, server, lossy);
        b.duplex(far, replica, lossy);
    } else {
        b.duplex(router, server, lossy.delay(SimDuration::from_millis(3)));
    }
}

/// `packets` packets, one a millisecond, from each host in turn to the
/// next; link 0 taken down, dropping what it holds, at `outage_ms`; every
/// host's inbox read every millisecond until `until_ms`.
struct Traffic {
    hosts: u32,
    links: u32,
    packets: u32,
    outage_ms: u64,
    until_ms: u64,
}

impl Recycled for Net {
    type Args = (bool, u64);
    type Script = Traffic;
    type Seen = (Vec<(u64, u32, u32)>, String);

    fn new(&(wide, seed): &(bool, u64)) -> Self {
        let mut builder = NetBuilder::new();
        declare(&mut builder, wide);
        let proto = builder.prototype();
        let net = builder.build_from_prototype_into(
            &mut SimRng::seed_from_u64(seed),
            Network::new(),
            &proto,
        );
        Net { builder, net }
    }

    fn renew(&mut self, &(wide, seed): &(bool, u64)) {
        self.builder.renew();
        declare(&mut self.builder, wide);
        let proto = self.builder.prototype();
        let retired = std::mem::take(&mut self.net);
        let mut rng = SimRng::seed_from_u64(seed);
        self.net = self
            .builder
            .build_from_prototype_into(&mut rng, retired, &proto);
    }

    fn run(&mut self, t: &Traffic) -> Self::Seen {
        let net = &mut self.net;
        let mut delivered = Vec::new();
        let mut sent = Vec::new();
        for ms in 0..t.until_ms {
            let now = SimTime::from_millis(ms);
            if ms < u64::from(t.packets) {
                let src = ms as u32 % t.hosts;
                let dst = (src + 1 + ms as u32 / t.hosts % 2) % t.hosts;
                let (src, dst) = (Addr::new(HostId(src), 1), Addr::new(HostId(dst), 1));
                sent.push(net.send(now, Packet::new(src, dst, 300, ms as u32)));
            }
            if ms == t.outage_ms {
                net.set_link_down(LinkId(0), OutagePolicy::DropInFlight);
            }
            net.poll(now);
            for h in 0..t.hosts {
                while let Some(p) = net.recv(HostId(h)) {
                    delivered.push((ms, h, p.payload));
                }
            }
        }
        let hosts = (0..t.hosts).map(HostId);
        let routes: Vec<_> = hosts
            .clone()
            .flat_map(|src| hosts.clone().map(move |dst| (src, dst)))
            .map(|(src, dst)| net.route(src, dst).map(<[LinkId]>::to_vec))
            .collect();
        let links: Vec<_> = (0..t.links)
            .map(|l| (net.link_stats(LinkId(l)), net.link_is_down(LinkId(l))))
            .collect();
        let inboxes: Vec<_> = (0..t.hosts).map(|h| net.inbox_len(HostId(h))).collect();
        let state = format!(
            "{:?}",
            (
                sent,
                (net.delivered(), net.unroutable(), net.misrouted()),
                net.delayline_stats(),
                net.total_link_stats(),
                links,
                routes,
                inboxes,
                net.next_wake(),
            )
        );
        (delivered, state)
    }

    fn retained_bytes(&self) -> usize {
        self.builder.retained_bytes() + self.net.retained_bytes()
    }
}

/// A is a wider topology than B, with a link down, packets queued and on
/// the wire, some to a host with no route, when it is rebuilt as B (whose
/// route matrix must start empty). Every counter, route and link
/// `Network` exposes is read.
#[test]
fn the_network_and_its_builder_obey_the_law() {
    let a = Traffic {
        hosts: 4,
        links: 8,
        packets: 60,
        outage_ms: 30,
        until_ms: 45,
    };
    let b = Traffic {
        hosts: 2,
        links: 4,
        packets: 50,
        outage_ms: u64::MAX,
        until_ms: 400,
    };
    law::<Net>((&(true, 1234), &a), (&(false, 9), &b));
}

// --- the client and server scratch --------------------------------------

const CLIP: &str = "news.rm";

fn clip() -> Clip {
    Clip::new(CLIP, SimDuration::from_secs(120), ContentKind::News)
}

/// A two-host network: `loss` on both directions of one link.
fn two_hosts(loss: f64) -> Network<Segment> {
    let mut b = NetBuilder::new();
    let (c, s) = (b.host(), b.host());
    let path = LinkParams::lan()
        .rate(600_000.0)
        .delay(SimDuration::from_millis(25))
        .loss(loss);
    b.duplex(c, s, path);
    b.build_with_payload(&mut SimRng::seed_from_u64(5))
}

fn client_config(tcp: bool, watch_s: u64) -> ClientConfig {
    let mut cfg = ClientConfig::new(
        &format!("rtsp://server/{CLIP}"),
        Addr::new(HostId(1), ports::CTRL),
        Addr::new(HostId(1), ports::DATA_TCP),
    );
    cfg.watch_limit = SimDuration::from_secs(watch_s);
    if tcp {
        cfg.transport_pref = TransportPreference::ForceTcp;
    }
    cfg
}

/// One streaming session from a fresh world around the component.
#[derive(Clone, Copy)]
struct Session {
    tcp: bool,
    loss: f64,
    watch_s: u64,
    /// The world's deadline: before the watch limit cuts the session off
    /// mid-stream.
    until_s: u64,
}

/// A session's record, counters and playout events.
type SessionSeen = (String, Vec<PlayoutEvent>);

fn session_seen(world: &mut SessionWorld, until_s: u64) -> SessionSeen {
    let metrics = world.run(SimTime::from_secs(until_s));
    let seen = format!("{:?}", (metrics, world.counters(), world.server.stats()));
    (seen, world.client.events().to_vec())
}

/// What a client scratch runs: a session, or a server that answers the
/// DESCRIBE with half a reply and nothing more.
enum ClientRun {
    Session(Session),
    HalfReply,
}

/// The client scratch is renewed where every session's client is built:
/// `client_endpoint` renews its stack and `TracerClient::new` its
/// components (`ClientScratch::renew`), so `renew` here has nothing left
/// to do.
impl Recycled for ClientScratch {
    type Args = ();
    type Script = ClientRun;
    type Seen = SessionSeen;

    fn new(_: &()) -> Self {
        ClientScratch::default()
    }

    fn renew(&mut self, _: &()) {}

    fn run(&mut self, script: &ClientRun) -> Self::Seen {
        let scratch = std::mem::take(self);
        let s = match *script {
            ClientRun::Session(s) => s,
            ClientRun::HalfReply => {
                let cfg = client_config(true, 60);
                let (mut stack, mut client) =
                    client_endpoint(HostId(0), client_data_tcp_config(), cfg, scratch);
                let mut net = two_hosts(0.0);
                let mut server = Stack::new(HostId(1));
                let ctrl = server.tcp_socket(ports::CTRL, TcpConfig::default());
                server.tcp(ctrl).listen();
                let mut answered = false;
                for ms in 0..2_000 {
                    let now = SimTime::from_millis(ms);
                    while net.poll(now)
                        + stack.poll(now, &mut net)
                        + server.poll(now, &mut net)
                        + client.poll(now, &mut stack)
                        > 0
                    {}
                    if !answered && server.tcp_ref(ctrl).recv_available() > 0 {
                        server.tcp(ctrl).recv(usize::MAX);
                        server
                            .tcp(ctrl)
                            .send(b"RTSP/1.0 200 OK\r\nCSeq: 1\r\nContent-Le");
                        answered = true;
                    }
                }
                assert!(answered, "the client never asked");
                let seen = format!("{:?}", (client.metrics(), client.transport()));
                *self = client.into_scratch();
                self.stack = stack;
                return (seen, Vec::new());
            }
        };
        let mut catalog = Catalog::new();
        catalog.add(clip());
        let server = server_endpoint(
            HostId(1),
            TcpConfig::default(),
            ServerConfig::default(),
            catalog,
            11,
            ServerScratch::default(),
        );
        let cfg = client_config(s.tcp, s.watch_s);
        let client = client_endpoint(HostId(0), client_data_tcp_config(), cfg, scratch);
        let mut world = SessionWorld::new(two_hosts(s.loss), client, server);
        let seen = session_seen(&mut world, s.until_s);
        *self = world.client.into_scratch();
        self.stack = world.client_stack;
        seen
    }

    fn retained_bytes(&self) -> usize {
        ClientScratch::retained_bytes(self)
    }
}

/// A1 is cut mid-stream on TCP (player, depacketizer, event log, RTSP
/// session and stack all dirty); A2 leaves half a reply in the control
/// decoder. B streams UDP over a lossy path.
#[test]
fn the_client_scratch_obeys_the_law() {
    let b = ClientRun::Session(Session {
        tcp: false,
        loss: 0.02,
        watch_s: 30,
        until_s: 200,
    });
    let a1 = ClientRun::Session(Session {
        tcp: true,
        loss: 0.01,
        watch_s: 60,
        until_s: 14,
    });
    law::<ClientScratch>((&(), &a1), (&(), &b));
    law::<ClientScratch>((&(), &ClientRun::HalfReply), (&(), &b));
}

/// The server scratch is renewed where every session's server is built:
/// `server_endpoint` renews its stack, `RealServer::new` its staging
/// buffers, `ServerScratch::catalog` its catalog, and each rung's first
/// schedule starts on that rung's frame storage.
impl Recycled for ServerScratch {
    type Args = ();
    type Script = Session;
    type Seen = SessionSeen;

    fn new(_: &()) -> Self {
        ServerScratch::default()
    }

    fn renew(&mut self, _: &()) {}

    fn run(&mut self, s: &Session) -> Self::Seen {
        let mut scratch = std::mem::take(self);
        let mut catalog = scratch.catalog();
        catalog.add(clip());
        let cfg = ServerConfig::default();
        let server = server_endpoint(HostId(1), TcpConfig::default(), cfg, catalog, 11, scratch);
        let cfg = client_config(s.tcp, s.watch_s);
        let client = client_endpoint(
            HostId(0),
            client_data_tcp_config(),
            cfg,
            ClientScratch::default(),
        );
        let mut world = SessionWorld::new(two_hosts(s.loss), client, server);
        let seen = session_seen(&mut world, s.until_s);
        *self = world.server.into_scratch();
        self.stack = world.server_stack;
        seen
    }

    fn retained_bytes(&self) -> usize {
        ServerScratch::retained_bytes(self)
    }
}

/// A is cut mid-stream on UDP over a lossy path, with payloads in flight
/// and a schedule half generated; B streams TCP, its schedule starting on
/// A's frame storage and its payloads on A's pool.
#[test]
fn the_server_scratch_obeys_the_law() {
    let a = Session {
        tcp: false,
        loss: 0.04,
        watch_s: 60,
        until_s: 16,
    };
    let b = Session {
        tcp: true,
        loss: 0.01,
        watch_s: 30,
        until_s: 200,
    };
    law::<ServerScratch>((&(), &a), (&(), &b));
}
