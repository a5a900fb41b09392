//! Per-session allocation accounting, compiled only with the
//! `alloc-stats` counting allocator.
//!
//! Two jobs: a build-vs-run breakdown printed for profiling (run with
//! `--nocapture`), and a hard per-session allocation budget so the
//! delay-line/arena work cannot silently regress. Run with:
//!
//! ```text
//! cargo test -p realvideo-core --features alloc-stats --release \
//!     --test alloc_probe -- --nocapture
//! ```
#![cfg(feature = "alloc-stats")]

use rv_media::{packetize_frame_into, parity_packet, Frame, MediaPacket, StreamDepacketizer};
use rv_net::{Addr, HostId, LinkParams, NetBuilder, Network, TopologyPrototype};
use rv_player::{Player, PlayoutConfig, PlayoutEvent};
use rv_rtsp::{
    ClientEvent, ClientSession, Decoder, ServerHandler, ServerSession, Status, TransportSpec,
};
use rv_server::{ReceiverReport, REPORT_PARAM};
use rv_sim::{alloc_stats, PayloadPool, SimDuration, SimRng, SimTime};
use rv_study::{
    build_session_world_gw, plan_campaign, run_campaign, run_job_with, CampaignAccumulator,
    CampaignAggregates, StudyParams,
};
use rv_tracer::WorldScratch;
use rv_transport::{Segment, Stack, TcpConfig};

#[global_allocator]
static ALLOC: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

fn allocs() -> u64 {
    alloc_stats::snapshot().0
}

/// The counting allocator is process-global, so probes that difference
/// its snapshots must not overlap with each other.
static PROBE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`PROBE_LOCK`], also after another probe failed holding it: one
/// failing probe must not fail the others.
fn probe_lock() -> std::sync::MutexGuard<'static, ()> {
    PROBE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Allocation counts by site: the first in-workspace frame of each
/// sampled backtrace, with the container operation it called.
type Sites = std::collections::BTreeMap<String, u64>;

/// Runs `work` with every `every`-th allocation recording its backtrace
/// and tallies the samples into `sites` (the sampler keeps at most 4,096
/// at a time, so a census samples one session per call).
fn sample_sites(every: u64, sites: &mut Sites, work: impl FnOnce()) {
    alloc_stats::start_sampling(every);
    work();
    alloc_stats::start_sampling(0);
    for (_, bt) in alloc_stats::take_samples() {
        *sites.entry(site_of(&bt)).or_insert(0) += 1;
    }
}

/// `"rv_player::Player::on_packet  [RawVec::grow_one]"`: the first
/// in-workspace frame of a backtrace, and the frame just above it — the
/// container operation that allocated for it (`grow_one`,
/// `reserve_rehash`, a B-tree `insert`, ...), or `alloc` when the
/// workspace frame called the allocator itself.
fn site_of(backtrace: &str) -> String {
    // "3: rv_player::Player::on_packet": the frame number says how deep
    // the allocator's own frames ran, not where.
    let frames: Vec<&str> = backtrace
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with("at "))
        .map(|l| {
            l.trim_start_matches(|c: char| c.is_ascii_digit() || c == ':')
                .trim()
        })
        .collect();
    let allocator = |f: &str| {
        [
            "alloc_stats",
            "CountingAlloc",
            "__rust_",
            "__rdl_",
            "alloc::alloc::",
        ]
        .iter()
        .any(|a| f.contains(a))
    };
    let ours = |f: &&str| {
        let path = f.trim_start_matches('<');
        (path.starts_with("rv_") || path.starts_with("realvideo")) && !allocator(f)
    };
    let Some(at) = frames.iter().position(ours) else {
        return "<no workspace frame>".to_string();
    };
    let container = match at.checked_sub(1).map(|i| frames[i]) {
        Some(f) if !allocator(f) => short_frame(f),
        _ => "alloc".to_string(),
    };
    format!("{}  [{container}]", frames[at])
}

/// A std frame's last two path segments with generic arguments dropped:
/// `alloc::raw_vec::RawVec<T,A>::grow_one` → `RawVec::grow_one`.
fn short_frame(frame: &str) -> String {
    let mut plain = String::new();
    let mut depth = 0usize;
    for c in frame.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth = depth.saturating_sub(1),
            _ if depth == 0 => plain.push(c),
            _ => {}
        }
    }
    let segments: Vec<&str> = plain.split("::").filter(|s| !s.is_empty()).collect();
    segments[segments.len().saturating_sub(2)..].join("::")
}

/// Prints the `top` sites by count, each divided by `per`.
fn print_sites(sites: &Sites, per: f64, top: usize) {
    let mut ranked: Vec<_> = sites.iter().collect();
    ranked.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    let samples: u64 = sites.values().sum();
    println!("sampled allocation sites ({samples} samples, counts / {per}):");
    for (site, n) in ranked.iter().take(top) {
        println!("  {:>7.1}  {site}", **n as f64 / per);
    }
}

/// Every world shape the campaign builds: classic, faulted with one, two
/// and three servers, and each gateway policy (`least-loaded` with
/// admission control on).
fn world_shapes() -> Vec<(&'static str, StudyParams)> {
    use rv_sim::FaultScenario;
    use rv_study::GatewayPolicy;
    let shape = |faults: bool, replicas: u8, gateway: GatewayPolicy, capacity: u32| StudyParams {
        scale: 0.02,
        faults: if faults {
            FaultScenario::default_on()
        } else {
            FaultScenario::off()
        },
        replicas,
        gateway,
        capacity,
        ..StudyParams::default()
    };
    let (nearest, sticky) = (GatewayPolicy::NearestHealthy, GatewayPolicy::Sticky);
    vec![
        ("classic", shape(false, 1, sticky, 0)),
        ("faults, 1 server", shape(true, 1, sticky, 0)),
        ("faults, 2 replicas, nearest", shape(true, 2, nearest, 0)),
        ("faults, 3 replicas, nearest", shape(true, 3, nearest, 0)),
        ("2 replicas, nearest", shape(false, 2, nearest, 0)),
        (
            "3 replicas, least-loaded, capacity 2",
            shape(false, 3, GatewayPolicy::LeastLoaded, 2),
        ),
        ("2 replicas, sticky", shape(false, 2, sticky, 0)),
    ]
}

/// A warm session allocates nothing, in every world shape: each session
/// of a scale-0.02 plan, replayed on the scratch that already ran them
/// all, takes no allocation. When one does, the every-allocation census
/// behind EXPERIMENTS.md's per-site tables says where: each warm session
/// of that shape once more with every allocation's backtrace kept,
/// printed per session. Run it with `--nocapture` to read the census:
///
/// ```text
/// cargo test -p realvideo-core --features alloc-stats --release \
///     --test alloc_probe -- --nocapture alloc_census
/// ```
#[test]
fn alloc_census() {
    let _serial = probe_lock();
    let mut allocating = Vec::new();
    for (shape, params) in world_shapes() {
        let plan = plan_campaign(params);
        let jobs = plan.collect_jobs();
        let jobs: Vec<_> = jobs.iter().filter(|j| j.available).collect();
        let mut scratch = WorldScratch::default();
        for job in &jobs {
            run_job_with(&plan, job, &mut scratch);
        }
        // The same warm pass unsampled: what the census must add up to.
        let before = allocs();
        for job in &jobs {
            run_job_with(&plan, job, &mut scratch);
        }
        let counted = allocs() - before;
        let n = jobs.len() as f64;
        println!(
            "{shape}: {} sessions, {:.2} allocations a warm session",
            jobs.len(),
            counted as f64 / n
        );
        if counted > 0 {
            let mut sites = Sites::new();
            for job in &jobs {
                sample_sites(1, &mut sites, || {
                    run_job_with(&plan, job, &mut scratch);
                });
            }
            let sampled: u64 = sites.values().sum();
            println!("{:.2} allocations a session sampled", sampled as f64 / n);
            print_sites(&sites, n, 60);
            allocating.push(shape);
        }
    }
    assert!(
        allocating.is_empty(),
        "warm sessions allocated in {allocating:?}; the census above says where"
    );
}

/// The results path's steady state: folding a record into the campaign
/// aggregates allocates only for a key (a category, a stratum, a sketch
/// bucket, a user) the aggregates have not seen, so a second fold of the
/// same records, every key already present, allocates nothing.
#[test]
fn observing_seen_keys_allocates_nothing() {
    let _serial = probe_lock();
    let plan = plan_campaign(StudyParams {
        scale: 0.02,
        faults: rv_sim::FaultScenario::default_on(),
        ..StudyParams::default()
    });
    let jobs = plan.collect_jobs();
    let mut scratch = WorldScratch::default();
    let records: Vec<_> = jobs
        .iter()
        .map(|job| run_job_with(&plan, job, &mut scratch))
        .collect();
    let mut aggregates = CampaignAggregates::default();
    let fold = |aggregates: &mut CampaignAggregates| {
        for (job, record) in jobs.iter().zip(&records) {
            aggregates.observe(job, record);
        }
    };
    let before = allocs();
    fold(&mut aggregates);
    let first = allocs() - before;
    let before = allocs();
    fold(&mut aggregates);
    let second = allocs() - before;
    println!(
        "results path: {first} allocations folding {} records, {second} folding them again",
        records.len()
    );
    assert!(
        first > 0,
        "the first fold created no key: the probe is vacuous"
    );
    assert_eq!(second, 0, "a fold over seen keys allocated");
}

/// Rendering every figure a second time from the same campaign: each
/// figure writes into one pre-sized body (Figure 1's is simulated once a
/// process and cloned), so the count is a few per figure whatever the
/// campaign's size.
#[test]
fn figures_allocate_a_few_each() {
    let _serial = probe_lock();
    let data = run_campaign(StudyParams {
        scale: 0.05,
        ..StudyParams::default()
    })
    .unwrap();
    let first = realvideo_core::all_figures(&data);
    let before = allocs();
    let again = realvideo_core::all_figures(&data);
    let spent = allocs() - before;
    assert_eq!(first.len(), again.len());
    let per_figure = spent as f64 / again.len() as f64;
    println!("all_figures again: {spent} allocations, {per_figure:.1} a figure");
    assert!(
        spent <= FIGURE_BUDGET,
        "figure rendering allocated {spent} (budget {FIGURE_BUDGET})"
    );
}

/// [`figures_allocate_a_few_each`]'s ceiling. It reads 52 at any scale
/// (0.05 and 0.3 agree): the 26 bodies, the returned vector, a column
/// width vector per table (18), Figures 5 and 6's per-user samples and
/// sorted CDFs (6), and the three bar charts' sorted categories. Before
/// the figures rendered in place it read ≈ 3,600 plus Figure 1's 2,318.
const FIGURE_BUDGET: u64 = 60;

#[test]
fn alloc_breakdown_per_session() {
    let _serial = probe_lock();
    let params = StudyParams {
        scale: 0.02,
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let jobs: Vec<_> = plan
        .collect_jobs()
        .into_iter()
        .filter(|j| j.available)
        .collect();
    assert!(!jobs.is_empty(), "scale too small: no available jobs");

    // One scratch threaded through every session, exactly as each
    // executor worker does it: steady state is "warm scratch", not
    // "fresh world every time".
    let mut scratch = WorldScratch::default();

    // Warm-up: first session pays one-time lazy init (statics, tables)
    // and populates the scratch.
    run_job_with(&plan, &jobs[0], &mut scratch);

    let (mut build, mut run, mut record, mut total) = (0u64, 0u64, 0u64, 0u64);
    let mut by_transport = std::collections::BTreeMap::new();
    let hist_before = alloc_stats::size_histogram();
    for job in &jobs {
        let user = &plan.population.participants[job.user];
        let site = &plan.roster[job.server];
        let entry = &plan.playlist[job.playlist_slot];
        let before = allocs();
        let mut world = build_session_world_gw(
            user,
            site,
            &entry.clip,
            plan.params.watch_limit,
            job.session_seed,
            &job.fault_plan,
            None,
            &mut scratch,
        );
        let built = allocs();
        let metrics = world.run(plan.params.session_deadline);
        let ran = allocs();
        let slot = by_transport
            .entry(format!("{:?}", metrics.protocol))
            .or_insert((0u64, 0u64));
        slot.0 += ran - before;
        slot.1 += 1;
        world.retire(&mut scratch);
        run_job_with(&plan, job, &mut scratch);
        let after = allocs();
        build += built - before;
        run += ran - built;
        record += after - ran;
        total += after - before;
    }
    let hist_after = alloc_stats::size_histogram();
    let n = jobs.len() as f64;
    let per_session = (build + run) as f64 / n;
    println!("sessions: {}", jobs.len());
    println!("size-class histogram (allocs/session, bucket = size <= 2^i):");
    for (i, (after, before)) in hist_after.iter().zip(hist_before.iter()).enumerate() {
        let delta = (after - before) as f64 / n;
        if delta >= 0.5 {
            println!("  <= {:>8} B: {:>8.1}", 1u64 << i, delta);
        }
    }
    println!(
        "  build_session_world: {:.1} allocs/session",
        build as f64 / n
    );
    println!(
        "  world.run:           {:.1} allocs/session",
        run as f64 / n
    );
    println!(
        "  full run_job redo:   {:.1} allocs/session",
        record as f64 / n
    );
    println!(
        "  grand total:         {:.1} allocs/session",
        total as f64 / n
    );
    println!("allocs/session (steady state): {per_session:.1}");
    for (transport, (count, n)) in &by_transport {
        println!(
            "  {transport}: {:.1} allocs/session over {n} sessions",
            *count as f64 / *n as f64
        );
    }

    // Backtrace-sampled attribution — the profiler of last resort for
    // "what is still allocating"; printed, not asserted.
    let mut sites = Sites::new();
    sample_sites(97, &mut sites, || {
        for job in jobs.iter().take(8) {
            run_job_with(&plan, job, &mut scratch);
        }
    });
    print_sites(&sites, 1.0, 20);

    // Measured steady state is 9.3 allocs/session (TCP 6.2, UDP 11.6),
    // and all of it is growth: this pass is the scratch's first over these
    // sessions, so a socket's ropes and pools, the player's slots and the
    // event log still grow to the largest session so far. Run again over
    // the same sessions (`alloc_census`) a session allocates nothing: the
    // client parses the DESCRIBE ladder into its recycled scratch. It read
    // 15.6 (TCP 24.9, UDP 8.4) while each TCP pacing pump took a payload
    // backing of its own, so a stalled stream grew the staging pool by
    // hundreds (UDP sessions then found it grown). The budget keeps the
    // 3.3 of slack it had over the 16.7 this read while the DESCRIBE
    // ladder was a fresh vector a session, close enough that any
    // allocation creep on the session path trips this probe.
    assert!(
        per_session < 12.6,
        "allocation budget blown: {per_session:.1} allocs/session (budget 12.6)"
    );
}

/// The control channel's steady state, under the counting allocator: a
/// warm client and server session, the two decoders between them and
/// the two staging buffers the endpoints reuse, driven through 1,000
/// receiver-report round trips exactly as `TracerClient::poll` and
/// `RealServer::pump_control` drive them — write in place, feed, read in
/// place, reply in place, feed, read in place. Not one allocation.
#[test]
fn receiver_reports_allocate_nothing() {
    let _serial = probe_lock();

    /// Keeps the last report it was handed, parsed, as the server does.
    struct Sink(Option<ReceiverReport>);
    impl ServerHandler for Sink {
        fn describe(&mut self, _url: &str, body: &mut Vec<u8>) -> bool {
            body.extend_from_slice(b"c=news\n");
            true
        }
        fn setup(&mut self, _url: &str, asked: TransportSpec) -> Result<TransportSpec, Status> {
            Ok(asked)
        }
        fn play(&mut self, _url: &str) {}
        fn set_parameter(&mut self, _url: &str, name: &str, value: &str) {
            assert!(name.eq_ignore_ascii_case(REPORT_PARAM));
            self.0 = ReceiverReport::parse(value);
        }
        fn teardown(&mut self, _url: &str) {}
    }

    let mut client = ClientSession::new("rtsp://srv.example/us_cnn-clip08.rm");
    let (mut server, mut sink) = (ServerSession::new(), Sink(None));
    let (mut to_server, mut to_client) = (Decoder::new(), Decoder::new());
    let (mut encode_buf, mut ctrl_buf) = (Vec::new(), Vec::new());

    // One request to the server and its reply back; whether the client
    // read the reply as a report's.
    let mut round_trip = |client: &mut ClientSession, sink: &mut Sink, encode_buf: &mut Vec<u8>| {
        to_server.feed(encode_buf);
        encode_buf.clear();
        let request = to_server.next_message().unwrap().unwrap();
        ctrl_buf.clear();
        server.on_request(sink, &request, &mut ctrl_buf);
        to_client.feed(&ctrl_buf);
        let reply = to_client.next_message().unwrap().unwrap();
        client.on_response(&reply) == ClientEvent::ReportAcked
    };

    // The handshake warms every buffer (and may allocate).
    client.describe(Some(384_000), &mut encode_buf).unwrap();
    round_trip(&mut client, &mut sink, &mut encode_buf);
    client
        .setup(TransportSpec::udp(5002), &mut encode_buf)
        .unwrap();
    round_trip(&mut client, &mut sink, &mut encode_buf);
    client.play(&mut encode_buf).unwrap();
    round_trip(&mut client, &mut sink, &mut encode_buf);

    // The counter is process-wide, and the test harness's own thread
    // allocates whenever a neighbouring test starts or ends. Anything
    // *this* path allocated would show in every window of 1,000 trips,
    // so one clean window in a few proves the claim; a stray harness
    // allocation dirties at most the window it lands in.
    let mut window = |cseq_base: u32| {
        let before = allocs();
        for i in cseq_base..cseq_base + 1_000 {
            // Values across the widths a session sees: 4- to 7-digit rates.
            let report = ReceiverReport {
                loss_rate: f64::from(i % 100) / 1_000.0,
                recv_rate_bps: 1_234.5 * f64::from(i + 1),
            };
            client
                .set_parameter(REPORT_PARAM, report, &mut encode_buf)
                .unwrap();
            assert!(round_trip(&mut client, &mut sink, &mut encode_buf));
            let got = sink.0.take().expect("the report reached the handler");
            assert!((got.recv_rate_bps - report.recv_rate_bps).abs() < 0.06);
        }
        allocs() - before
    };
    let spent: Vec<u64> = (0..5).map(|w| window(w * 1_000)).collect();
    assert!(
        spent.contains(&0),
        "1,000 report round trips allocated in every window: {spent:?}"
    );
}

/// What one session's data path keeps from the last: the topology, both
/// hosts' stacks, the network, the server's datagram payload pool, and
/// the client's player, depacketizer and event log.
struct DataPath {
    topology: NetBuilder,
    routes: TopologyPrototype,
    net: Network<Segment>,
    stacks: [Stack; 2],
    pool: PayloadPool,
    packets: Vec<MediaPacket>,
    fec: Vec<MediaPacket>,
    player: Player,
    depkt: StreamDepacketizer,
    events: Vec<PlayoutEvent>,
}

impl DataPath {
    /// Two hosts over a 2 Mbit/s path losing 1 % of its packets.
    fn new() -> DataPath {
        let mut topology = NetBuilder::new();
        let (c, s) = (topology.host(), topology.host());
        let path = LinkParams::lan()
            .rate(2_000_000.0)
            .delay(SimDuration::from_millis(30))
            .loss(0.01);
        topology.duplex(c, s, path);
        DataPath {
            routes: topology.prototype(),
            topology,
            net: Network::new(),
            stacks: Default::default(),
            pool: PayloadPool::new(),
            packets: Vec::new(),
            fec: Vec::new(),
            player: Player::default(),
            depkt: StreamDepacketizer::new(),
            events: Vec::new(),
        }
    }

    /// One 40 s, 10 fps stream over a 2 Mbit/s path losing 1 % of its
    /// packets — on TCP, or as UDP datagrams with one parity packet per
    /// eight — paced 2 s ahead of playout, read as the client reads it.
    /// Every component starts on what the last session left.
    fn session(&mut self, udp: bool) {
        let net = std::mem::take(&mut self.net);
        let mut rng = SimRng::seed_from_u64(7);
        let mut net = self
            .topology
            .build_from_prototype_into(&mut rng, net, &self.routes);
        let [mut cs, mut ss] = std::mem::take(&mut self.stacks);
        cs.renew(HostId(0));
        ss.renew(HostId(1));
        let (ct, cu) = (
            cs.tcp_socket(2001, TcpConfig::default()),
            cs.udp_socket(5002),
        );
        let (st, su) = (
            ss.tcp_socket(555, TcpConfig::default()),
            ss.udp_socket(6970),
        );
        ss.tcp(st).listen();
        cs.tcp(ct).connect(Addr::new(HostId(1), 555), SimTime::ZERO);
        self.player.renew(PlayoutConfig::default(), 1.0);
        self.depkt.renew();
        self.events.clear();

        let (mut next, mut group, mut seq) = (0u32, 0u32, 0u32);
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(50) {
            while net.poll(now) + cs.poll(now, &mut net) + ss.poll(now, &mut net) > 0 {}
            // Server: every frame due within the lead, while TCP takes it.
            let lead = SimDuration::from_secs(2);
            while next < 400
                && SimDuration::from_millis(u64::from(next) * 100)
                    <= now.saturating_since(SimTime::ZERO) + lead
            {
                let frame = Frame {
                    index: next,
                    pts: SimDuration::from_millis(u64::from(next) * 100),
                    size: 300 + (next * 977) % 4_000,
                    key: next % 10 == 0,
                };
                self.packets.clear();
                packetize_frame_into(&frame, 0, group, &mut self.packets);
                for pkt in &mut self.packets {
                    pkt.seq = seq;
                    seq += 1;
                }
                if udp {
                    let client = Addr::new(HostId(0), 5002);
                    for i in 0..self.packets.len() {
                        let pkt = self.packets[i];
                        let datagram = self.pool.gather(pkt.wire_len(), |out| pkt.write_to(out));
                        ss.udp(su).send_to(client, datagram);
                        self.fec.push(pkt);
                        if self.fec.len() == 8 {
                            let mut parity = parity_packet(group, &self.fec);
                            parity.seq = seq;
                            seq += 1;
                            let datagram = self
                                .pool
                                .gather(parity.wire_len(), |out| parity.write_to(out));
                            ss.udp(su).send_to(client, datagram);
                            self.fec.clear();
                            group += 1;
                        }
                    }
                } else {
                    if !ss.tcp_ref(st).is_established()
                        || ss.tcp_ref(st).send_capacity_left()
                            < self.packets.iter().map(MediaPacket::wire_len).sum()
                    {
                        seq -= self.packets.len() as u32;
                        break;
                    }
                    // Packet by packet into the send buffer, as the
                    // server's pump writes them.
                    for pkt in &self.packets {
                        ss.tcp(st)
                            .send_with(pkt.wire_len(), |out| pkt.write_to(out));
                    }
                }
                next += 1;
            }
            while net.poll(now) + cs.poll(now, &mut net) + ss.poll(now, &mut net) > 0 {}
            // Client: datagrams, then the stream, then playout.
            while let Some((_, data)) = cs.udp(cu).recv() {
                if let Some((pkt, _)) = MediaPacket::decode(&data) {
                    self.player.on_packet(now, pkt);
                }
            }
            let depkt = &mut self.depkt;
            cs.tcp(ct)
                .recv_with(usize::MAX, &mut |chunk| depkt.feed(chunk));
            while let Some(pkt) = self.depkt.next_packet() {
                self.player.on_packet(now, pkt);
            }
            self.player.poll_into(now, &mut self.events);
            now += SimDuration::from_millis(10);
        }
        assert!(
            self.player.playout_stats().frames_played > 300,
            "{udp}: {:?}",
            self.player.playout_stats()
        );
        self.fec.clear();
        self.net = net;
        self.stacks = [cs, ss];
    }
}

/// The data path's steady state, under the counting allocator: a player
/// and a two-host stack pair on the storage of the session before go
/// through a whole session's packets — TCP and UDP, handshake, loss,
/// retransmissions, FEC, playout — and allocate nothing. Windowed as in
/// [`receiver_reports_allocate_nothing`]: each window is one whole
/// session, and one clean window of several proves the claim.
#[test]
fn warm_player_and_sockets_allocate_nothing() {
    let _serial = probe_lock();
    for udp in [false, true] {
        let mut path = DataPath::new();
        // The first sessions grow every buffer to the stream's needs.
        path.session(udp);
        path.session(udp);
        let spent: Vec<u64> = (0..5)
            .map(|_| {
                let before = allocs();
                path.session(udp);
                allocs() - before
            })
            .collect();
        assert!(
            spent.contains(&0),
            "a warm {} session allocated in every window: {spent:?}",
            if udp { "UDP" } else { "TCP" }
        );
    }
}

#[test]
fn disarmed_flight_recorder_allocates_nothing() {
    let _serial = probe_lock();
    // The observability contract's zero-overhead clause, measured: with
    // the recorder disarmed, a session allocates *exactly* what it
    // allocated before the recorder existed — the emit sites are one
    // thread-local load and a branch, never a closure evaluation. The
    // probe replays the same job warm (identical allocation profile run
    // to run), arms the recorder once in between to prove arming is
    // observable, and checks the disarmed counts bracket it unchanged.
    let params = StudyParams {
        scale: 0.02,
        faults: rv_sim::FaultScenario::default_on(),
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let jobs: Vec<_> = plan
        .collect_jobs()
        .into_iter()
        .filter(|j| j.available)
        .collect();
    let job = jobs
        .iter()
        .find(|j| !j.fault_plan.is_empty())
        .unwrap_or(&jobs[0]);

    let mut scratch = WorldScratch::default();

    let measure = |scratch: &mut WorldScratch| {
        let before = allocs();
        run_job_with(&plan, job, scratch);
        allocs() - before
    };

    // Warm until the replay is allocation-stable: the early runs pay
    // lazy init and scratch pool growth (the count drifts down for ~20
    // runs as the pools fill, with a ±1 wobble near the end), then it
    // fixes. Demand several consecutive identical measures so a
    // mid-drift plateau cannot fake stability.
    let stable = |scratch: &mut WorldScratch| -> Option<u64> {
        let mut value = measure(scratch);
        let mut streak = 0;
        for _ in 0..64 {
            let next = measure(scratch);
            if next == value {
                streak += 1;
                if streak >= 5 {
                    return Some(value);
                }
            } else {
                streak = 0;
                value = next;
            }
        }
        None
    };
    let disarmed_a = stable(&mut scratch).expect(
        "warm replay never became allocation-stable; the zero-overhead probe is meaningless",
    );

    // Armed, the same session records thousands of events — the recorder
    // itself plainly allocates (so equality below is not vacuous).
    rv_sim::trace::start();
    let armed = measure(&mut scratch);
    let records = rv_sim::trace::finish();
    assert!(!records.is_empty(), "armed recorder captured nothing");
    assert!(
        armed > disarmed_a,
        "armed run ({armed}) did not allocate more than disarmed ({disarmed_a})"
    );

    let disarmed_after =
        stable(&mut scratch).expect("disarmed replay did not restabilize after an armed run");
    assert_eq!(
        disarmed_a, disarmed_after,
        "tracing-off path allocation count changed after an armed run"
    );
}
