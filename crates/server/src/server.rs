//! The streaming server: session control, SureStream switching, pacing,
//! scalable-video thinning, FEC, and UDP rate control.
//!
//! One [`RealServer`] serves one streaming session (the study runs every
//! session in its own simulated world; server-side contention is modeled by
//! cross traffic on the server's access link). The server:
//!
//! * answers RTSP on the control TCP connection (DESCRIBE/SETUP/PLAY/...),
//! * streams media packets over the negotiated transport, running ahead of
//!   real time by `buffer_lead` to fill the player's buffer (the initial
//!   bandwidth burst visible in the paper's Figure 1),
//! * adapts: picks the SureStream rung fitting the measured throughput
//!   (TFRC reports on UDP, delivered-byte rate on TCP), switching with
//!   hysteresis, and thins non-key frames when even the lowest rung
//!   exceeds the available rate (Scalable Video Technology),
//! * protects UDP data with one XOR-parity packet per FEC group.
//!
//! This file is the shell — lifecycle, the driver contract (`poll`,
//! `next_wake`, `quiet_until`, `quiet_step`) and stats. The control plane
//! is `control.rs`, the data pump and its claim `pump.rs`, schedule
//! storage `schedules.rs`.

use rv_media::MediaPacket;
use rv_rtsp::{Decoder, ServerSession};
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{PoolFootprint, SimDuration, SimTime};
use rv_transport::{Stack, TcpHandle, UdpHandle};

use crate::catalog::Catalog;
use crate::control::ServerCore;
use crate::pump::{ActiveStream, Staging};
use crate::ratecontrol::{ReceiverReport, TfrcConfig, TfrcController};
use crate::schedules::RungSchedules;

/// Server tuning knobs: what the study, the harness or an ablation sets.
/// Switch hold (5 s), rate evaluation period (1 s), report timeout (3 s)
/// and audio packet spacing (100 ms) are constants in `pump.rs`.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Whether this server picks UDP for auto-configured clients.
    pub prefers_udp: bool,
    /// Server-side UDP data port.
    pub data_udp_port: u16,
    /// How far ahead of the playout clock the server pushes media.
    pub buffer_lead: SimDuration,
    /// Data packets per FEC group on UDP (0 disables parity).
    pub fec_group: usize,
    /// UDP rate controller parameters.
    pub tfrc: TfrcConfig,
    /// Maximum concurrent sessions this replica admits. `0` means
    /// unlimited — SETUP never refuses for load.
    pub capacity: u32,
    /// Sessions already occupying this replica when the world starts
    /// (cluster background load, drawn deterministically by the gateway).
    /// A SETUP arriving while `background_sessions >= capacity` is
    /// refused with 453 Not Enough Bandwidth.
    pub background_sessions: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            prefers_udp: true,
            data_udp_port: 6970,
            buffer_lead: SimDuration::from_secs(13),
            fec_group: 8,
            tfrc: TfrcConfig::default(),
            capacity: 0,
            background_sessions: 0,
        }
    }
}

/// Server lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Video data packets sent.
    pub video_packets: u64,
    /// Audio packets sent.
    pub audio_packets: u64,
    /// FEC parity packets sent.
    pub parity_packets: u64,
    /// Media payload bytes sent (headers included).
    pub bytes_sent: u64,
    /// Video frames fully transmitted.
    pub frames_sent: u64,
    /// Frames skipped by scalable-video thinning.
    pub frames_thinned: u64,
    /// Downward rung switches.
    pub switches_down: u64,
    /// Upward rung switches.
    pub switches_up: u64,
    /// Malformed control messages dropped.
    pub control_errors: u64,
    /// Process crashes injected by the fault plan. Survives restarts,
    /// like the rest of the lifetime counters.
    pub crashes: u64,
    /// SETUPs refused because the replica was at capacity (453 Busy).
    pub admission_rejects: u64,
}

/// Recyclable server storage: every buffer a [`RealServer`] stages bytes
/// in. The server holds one of these for its whole life and hands it back
/// from [`RealServer::into_scratch`] for the next session's server to
/// start on; [`RealServer::new`] renews it.
///
/// Only capacity carries over: a server built on a retired server's
/// scratch behaves bit-identically to one built on
/// `ServerScratch::default()` — its staging buffers and payload pool
/// simply start warm, so steady-state streaming allocates nothing. The
/// payload pool is the big win: its working set of recycled backings
/// (sized by how long TCP holds sent bytes for retransmit) is paid for
/// once per worker instead of once per session.
#[derive(Debug, Default)]
pub struct ServerScratch {
    pub(crate) decoder: Decoder,
    /// Reused staging buffer for outgoing control responses.
    pub(crate) ctrl_buf: Vec<u8>,
    /// The data path's staged packets and payload pool.
    pub(crate) staging: Staging,
    /// Parked schedules and recycled frame tables, per rung.
    pub(crate) schedules: RungSchedules,
    /// The queue receiver reports wait in between a control pump and
    /// the rate controller.
    pub(crate) reports: Vec<ReceiverReport>,
    /// The last stream's FEC buffer, emptied.
    pub(crate) fec_buf: Vec<MediaPacket>,
    /// The retired server's catalog, which [`ServerScratch::catalog`]
    /// empties.
    catalog: Catalog,
    /// The retired stack this server ran on. The server never looks
    /// inside: whoever builds and retires its stack
    /// (`rv_tracer::server_endpoint`, `SessionWorld::retire`) threads it
    /// through here, so the next session's sockets renew this one's.
    pub stack: Stack,
}

impl ServerScratch {
    /// An empty catalog on the storage of the one the last server served
    /// from: filling it with as many clips allocates nothing.
    pub fn catalog(&mut self) -> Catalog {
        let mut catalog = std::mem::take(&mut self.catalog);
        catalog.clear();
        catalog
    }

    /// Returns the staging buffers [`RealServer::new`] starts on to a
    /// cold scratch's state, keeping their storage.
    fn renew(&mut self) {
        self.decoder.renew();
        self.ctrl_buf.clear();
        self.reports.clear();
    }

    /// Frames of recycled schedule storage held, summed over the rungs:
    /// what a test of the recycling contract reads to see that a warm
    /// session grew nothing.
    pub fn frame_capacity(&self) -> usize {
        self.schedules.storage.iter().map(Vec::capacity).sum()
    }

    /// Backings and bytes the payload pool owns, and the most it had in
    /// flight at once: read beside [`ServerScratch::frame_capacity`] to
    /// see that a warm session grew nothing and that what is owned
    /// tracks what was in flight.
    pub fn payload_footprint(&self) -> PoolFootprint {
        self.staging.pool.footprint()
    }
}

/// The streaming server for one session.
#[derive(Debug)]
pub struct RealServer {
    pub(crate) cfg: ServerConfig,
    pub(crate) core: ServerCore,
    pub(crate) rtsp: ServerSession,
    pub(crate) ctrl: TcpHandle,
    pub(crate) data_tcp: TcpHandle,
    pub(crate) udp: UdpHandle,
    pub(crate) stream: Option<ActiveStream>,
    pub(crate) tfrc: TfrcController,
    pub(crate) next_seq: u32,
    pub(crate) clip_seed: u64,
    pub(crate) stats: ServerStats,
    alive: bool,
    pub(crate) scratch: ServerScratch,
}

impl RealServer {
    /// Creates a server. `ctrl` and `data_tcp` must be listening TCP
    /// sockets; `udp` the server's data socket. `clip_seed` makes clip
    /// encodings deterministic per server. `scratch` is a retired
    /// server's storage, or `ServerScratch::default()` for a cold start —
    /// behavior is identical either way.
    pub fn new(
        cfg: ServerConfig,
        catalog: Catalog,
        ctrl: TcpHandle,
        data_tcp: TcpHandle,
        udp: UdpHandle,
        clip_seed: u64,
        mut scratch: ServerScratch,
    ) -> Self {
        scratch.renew();
        let mut core = ServerCore::new(&cfg, catalog);
        core.pending_reports = std::mem::take(&mut scratch.reports);
        RealServer {
            core,
            rtsp: ServerSession::new(),
            ctrl,
            data_tcp,
            udp,
            stream: None,
            tfrc: TfrcController::new(cfg.tfrc, 100_000.0),
            next_seq: 0,
            clip_seed,
            stats: ServerStats::default(),
            alive: true,
            scratch,
            cfg,
        }
    }

    /// Tears the server down, harvesting its storage for the next
    /// session's server, which renews it.
    pub fn into_scratch(mut self) -> ServerScratch {
        self.retire_stream();
        let mut scratch = self.scratch;
        scratch.reports = self.core.pending_reports;
        scratch.catalog = self.core.catalog;
        scratch
    }

    /// `true` unless [`RealServer::crash`] has taken the process down.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Simulates the server process dying: every connection is torn down
    /// with an RST on the wire and all session state vanishes. While down
    /// the host answers further segments with RSTs (no listener), so a
    /// reconnecting client fails fast as "refused" rather than timing out.
    /// A process that is already down cannot die again: nothing happens
    /// and nothing is counted.
    pub fn crash(&mut self, stack: &mut Stack) {
        if !self.alive {
            return;
        }
        self.alive = false;
        self.stats.crashes += 1;
        self.drop_session();
        stack.tcp(self.ctrl).abort();
        stack.tcp(self.data_tcp).abort();
    }

    /// Brings a crashed server back up with fresh listening sockets. The
    /// catalog and lifetime stats survive the restart; session state does
    /// not (clients must DESCRIBE/SETUP/PLAY from scratch). A server that
    /// is up stays as it is, connections included.
    pub fn restart(&mut self, stack: &mut Stack) {
        if self.alive {
            return;
        }
        self.alive = true;
        stack.tcp(self.ctrl).reset();
        stack.tcp(self.data_tcp).reset();
        stack.tcp(self.ctrl).listen();
        stack.tcp(self.data_tcp).listen();
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admission_rejects: self.core.admission_rejects,
            ..self.stats
        }
    }

    /// The rung currently streaming, if any.
    pub fn current_rung(&self) -> Option<usize> {
        self.stream.as_ref().map(|s| s.rung)
    }

    /// The UDP rate controller's current allowed rate.
    pub fn allowed_bps(&self) -> f64 {
        self.tfrc.allowed_bps()
    }

    /// Debug: the rate controller's smoothed loss estimate.
    pub fn debug_loss(&self) -> f64 {
        self.tfrc.smoothed_loss()
    }

    /// The instant strictly before which — with no new inbound packet — a
    /// poll does nothing beyond what [`RealServer::quiet_step`] does:
    /// forever for a dead process or a server with no stream,
    /// [`SimTime::ZERO`] (no claim) while the control plane has anything
    /// to act on, else the clock edge of the claim the last pump left —
    /// *exact* where [`RealServer::next_wake`] is conservative.
    pub fn quiet_until(&self, stack: &Stack) -> SimTime {
        if !self.alive {
            SimTime::MAX
        } else if !self.control_idle(stack) {
            SimTime::ZERO
        } else {
            self.stream.as_ref().map_or(SimTime::MAX, |s| s.claim.until)
        }
    }

    /// Takes a server through instant `now`, strictly before its
    /// [`RealServer::quiet_until`], in place of a poll. Returns whether
    /// that poll would indeed have done nothing — the last pump's claim
    /// still stands: `now` is short of its clock edge and the transport
    /// still refuses the smallest item owed. On `false` the caller owes
    /// the server a full poll at `now`.
    ///
    /// This is not a pure question for a pump blocked on its token
    /// bucket: the bucket's `f64` fill level depends on every instant it
    /// is asked at, so the step makes exactly the one refill the pump's
    /// refused spend would have made.
    pub fn quiet_step(&mut self, now: SimTime, stack: &Stack) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return true;
        };
        let socket = stack.tcp_ref(self.data_tcp);
        stream.claim.stands(now, &mut stream.outlet, socket)
    }

    /// Runs the server at `now`: control-plane processing then data pump.
    /// Returns how many units of work it performed (control messages
    /// handled, control events applied, media packets emitted) so drivers
    /// can feed server progress into their settle fixed point the same way
    /// they feed stack and network progress.
    pub fn poll(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        if !self.alive {
            return 0; // dead processes do no work; the stack still RSTs
        }
        // Executable spec of `control_idle`: debug builds still run the
        // control plane and hold it to having done nothing.
        let idle = self.control_idle(stack);
        let mut work = 0;
        if !idle || cfg!(debug_assertions) {
            work = self.poll_control(now, stack);
            debug_assert!(!idle || work == 0, "control plane worked while idle");
            if work > 0 {
                if let Some(stream) = self.stream.as_mut() {
                    stream.claim.void_if_blocked();
                }
            }
        }
        // Executable spec of `quiet_step`: debug builds still run the
        // pump and hold it to having emitted nothing.
        let quiet = self.quiet_step(now, stack);
        let mut pumped = 0;
        if !quiet || cfg!(debug_assertions) {
            pumped = self.pump_stream(now, stack);
            debug_assert!(!quiet || pumped == 0, "pump emitted at {now:?} while idle");
        }
        if pumped > 0 {
            trace::emit(now, || TraceEvent::ServerPump {
                packets: pumped as u32,
            });
        }
        work + pumped
    }

    /// When the server next needs attention.
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        // While streaming, pacing and rate evaluation need a steady tick;
        // idle servers are woken by control-connection arrivals.
        self.stream
            .as_ref()
            .map(|_| now + SimDuration::from_millis(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{clip_name, REPORT_PARAM};
    use crate::pump::{Outlet, RATE_EVAL_PERIOD};
    use crate::ratecontrol::TokenBucket;
    use crate::schedules::hash_name;
    use rv_media::{Clip, ContentKind, FrameSchedule};
    use rv_net::Addr;
    use rv_rtsp::{Message, Method, ServerHandler, Status, TransportKind, TransportSpec};

    #[test]
    fn clip_name_takes_last_component() {
        assert_eq!(clip_name("rtsp://srv.example/news/clip1.rm"), "clip1.rm");
        assert_eq!(clip_name("clip1.rm"), "clip1.rm");
    }

    #[test]
    fn hash_name_is_stable_and_distinct() {
        assert_eq!(hash_name("a.rm"), hash_name("a.rm"));
        assert_ne!(hash_name("a.rm"), hash_name("b.rm"));
    }

    #[test]
    fn core_setup_honors_preference() {
        let mut core = ServerCore::new(&ServerConfig::default(), Catalog::new());
        let got = core.setup("u", TransportSpec::udp(5002)).unwrap();
        assert_eq!(got.kind, TransportKind::Udp);
        assert_eq!(got.server_port, Some(6970));

        core.prefers_udp = false;
        let got = core.setup("u", TransportSpec::udp(5002)).unwrap();
        assert_eq!(got.kind, TransportKind::Tcp);

        let got = core.setup("u", TransportSpec::tcp()).unwrap();
        assert_eq!(got.kind, TransportKind::Tcp);
    }

    #[test]
    fn setup_at_capacity_refuses_with_453() {
        let mut core = ServerCore::new(
            &ServerConfig {
                capacity: 2,
                background_sessions: 2,
                ..ServerConfig::default()
            },
            Catalog::new(),
        );
        let err = core.setup("u", TransportSpec::udp(5002)).unwrap_err();
        assert_eq!(err, Status::NOT_ENOUGH_BANDWIDTH);
        assert_eq!(core.admission_rejects, 1);
        assert!(core.negotiated.is_none());
        // Freeing a slot admits the retry.
        core.occupancy = 1;
        assert!(core.setup("u", TransportSpec::udp(5002)).is_ok());
        assert_eq!(core.admission_rejects, 1);
    }

    #[test]
    fn core_describe_respects_availability() {
        let mut catalog = Catalog::new();
        catalog.add(Clip::new(
            "c.rm",
            SimDuration::from_secs(60),
            ContentKind::News,
        ));
        catalog.set_available("c.rm", false);
        let mut core = ServerCore::new(&ServerConfig::default(), catalog);
        let mut body = Vec::new();
        assert!(!core.describe("rtsp://s/c.rm", &mut body));
        assert!(body.is_empty(), "a 404 writes no body");
        core.catalog.set_available("c.rm", true);
        assert!(core.describe("rtsp://s/c.rm", &mut body));
        assert_eq!(body, core.catalog.get("c.rm").unwrap().describe());
    }

    /// A server host's stack with the three sockets open and listening.
    fn listening_stack() -> (Stack, TcpHandle, TcpHandle, UdpHandle) {
        let mut stack = Stack::new(rv_net::HostId(1));
        let ctrl = stack.tcp_socket(554, rv_transport::TcpConfig::default());
        let data = stack.tcp_socket(555, rv_transport::TcpConfig::default());
        let udp = stack.udp_socket(6970);
        stack.tcp(ctrl).listen();
        stack.tcp(data).listen();
        (stack, ctrl, data, udp)
    }

    #[test]
    fn crash_closes_listeners_and_restart_reopens_them() {
        use rv_transport::TcpState;

        let (mut stack, ctrl, data, udp) = listening_stack();
        let mut server = RealServer::new(
            ServerConfig::default(),
            Catalog::new(),
            ctrl,
            data,
            udp,
            7,
            ServerScratch::default(),
        );
        assert!(server.is_alive());

        server.crash(&mut stack);
        assert!(!server.is_alive());
        assert_eq!(stack.tcp_ref(ctrl).state(), TcpState::Closed);
        assert_eq!(stack.tcp_ref(data).state(), TcpState::Closed);
        assert_eq!(server.poll(SimTime::from_secs(1), &mut stack), 0);
        assert_eq!(server.next_wake(SimTime::from_secs(1)), None);

        server.restart(&mut stack);
        assert!(server.is_alive());
        assert_eq!(stack.tcp_ref(ctrl).state(), TcpState::Listen);
        assert_eq!(stack.tcp_ref(data).state(), TcpState::Listen);
    }

    #[test]
    fn crash_on_a_dead_server_and_restart_on_a_live_one_do_nothing() {
        use rv_transport::{TcpFlags, TcpSegment, TcpState};

        let (mut server, mut stack) = streaming(short_lead(), 300_000);
        let syn = TcpSegment {
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            data: rv_sim::PayloadBytes::empty(),
        };
        let peer = Addr::new(rv_net::HostId(0), 5001);
        stack.tcp(server.ctrl).on_segment(SimTime::ZERO, peer, syn);
        assert_eq!(stack.tcp_ref(server.ctrl).state(), TcpState::SynRcvd);

        // Up: a restart keeps the stream and the half-open connection.
        server.restart(&mut stack);
        assert!(server.is_alive() && server.stream.is_some());
        assert_eq!(stack.tcp_ref(server.ctrl).state(), TcpState::SynRcvd);

        // Down: the second crash counts nothing and owes no second RST.
        server.crash(&mut stack);
        let down = format!("{:?}", stack.tcp_ref(server.ctrl));
        server.crash(&mut stack);
        assert!(!server.is_alive());
        assert_eq!(server.stats().crashes, 1);
        assert_eq!(format!("{:?}", stack.tcp_ref(server.ctrl)), down);

        server.restart(&mut stack);
        server.restart(&mut stack);
        assert!(server.is_alive() && server.stream.is_none());
        assert_eq!(stack.tcp_ref(server.ctrl).state(), TcpState::Listen);
        assert_eq!(server.stats().crashes, 1);
    }

    const URL: &str = "rtsp://s/c.rm";

    /// Hands the server one RTSP request as if its control socket had
    /// just delivered the bytes.
    fn request(server: &mut RealServer, msg: Message) {
        server.scratch.decoder.feed(&msg.encode());
    }

    /// SETUP (TCP) + PLAY under the server's `n`th session id.
    fn play(server: &mut RealServer, n: u32) {
        let setup =
            Message::request(Method::Setup, URL).with_header("Transport", TransportSpec::tcp());
        request(server, setup);
        let session = format!("sess-{n}");
        request(
            server,
            Message::request(Method::Play, URL).with_header("Session", session.as_str()),
        );
    }

    /// A server on a bare stack, streaming a 60 s `c.rm` over TCP from
    /// t = 0 into a data socket nobody drains: its send buffer absorbs the
    /// first seconds of media, then blocks the pump.
    fn streaming(cfg: ServerConfig, client_bps: u32) -> (RealServer, Stack) {
        streaming_clip(cfg, client_bps, SimDuration::from_secs(60))
    }

    fn streaming_clip(
        cfg: ServerConfig,
        client_bps: u32,
        duration: SimDuration,
    ) -> (RealServer, Stack) {
        streaming_on(cfg, client_bps, duration, ServerScratch::default())
    }

    fn streaming_on(
        cfg: ServerConfig,
        client_bps: u32,
        duration: SimDuration,
        scratch: ServerScratch,
    ) -> (RealServer, Stack) {
        let (mut stack, ctrl, data, udp) = listening_stack();
        let mut catalog = Catalog::new();
        catalog.add(Clip::new("c.rm", duration, ContentKind::News));
        let mut server = RealServer::new(cfg, catalog, ctrl, data, udp, 7, scratch);
        request(
            &mut server,
            Message::request(Method::Describe, URL).with_header("Bandwidth", client_bps),
        );
        play(&mut server, 1);
        // Three requests handled, one PLAY applied, the lead pumped.
        assert!(server.poll(SimTime::ZERO, &mut stack) > 4);
        assert!(server.stream.is_some());
        (server, stack)
    }

    fn short_lead() -> ServerConfig {
        ServerConfig {
            buffer_lead: SimDuration::from_secs(2),
            ..ServerConfig::default()
        }
    }

    /// More lead than the data socket's send buffer holds: the first pump
    /// fills the socket, and what is still owed — flipped to UDP — is many
    /// times the token bucket's burst, at an allowed rate comfortably
    /// above the rung's (no thinning).
    fn long_lead() -> ServerConfig {
        ServerConfig {
            buffer_lead: SimDuration::from_secs(40),
            ..ServerConfig::default()
        }
    }

    const TICK: SimDuration = SimDuration::from_micros(1);

    /// Past `can_send` the pump does not care which transport carries it;
    /// flipping the live stream to UDP puts it under the rate controller
    /// and the token bucket without a control handshake for the client
    /// address.
    fn flip_to_udp(server: &mut RealServer) {
        let bucket = TokenBucket::new(server.allowed_bps(), 32_000.0);
        let client = Addr::new(rv_net::HostId(0), 5002);
        server.stream.as_mut().expect("streaming").outlet = Outlet::Udp { client, bucket };
    }

    /// The live UDP stream's pacing bucket.
    fn bucket(server: &mut RealServer) -> &mut TokenBucket {
        match &mut server.stream.as_mut().expect("streaming").outlet {
            Outlet::Udp { bucket, .. } => bucket,
            Outlet::Tcp => panic!("streaming on TCP"),
        }
    }

    fn blocked_need(server: &RealServer) -> u32 {
        server.stream.as_ref().expect("streaming").claim.need
    }

    /// The clock edge of the pump's claim; [`SimTime::ZERO`] — no claim —
    /// with no stream.
    fn idle_until(server: &RealServer) -> SimTime {
        let stream = server.stream.as_ref();
        stream.map_or(SimTime::ZERO, |s| s.claim.until)
    }

    /// Frees the data socket's send buffer, as the peer's ACKs would.
    fn drain_data_socket(server: &RealServer, stack: &mut Stack) {
        stack.tcp(server.data_tcp).reset();
        stack.tcp(server.data_tcp).listen();
    }

    #[test]
    fn tcp_blocked_pump_claims_its_next_clock_edge_until_capacity_reaches_the_need() {
        let cfg = short_lead();
        let (mut server, mut stack) = streaming(cfg, 300_000);
        let mut now = SimTime::ZERO;
        let mut claims = 0;
        while blocked_need(&server) == u32::MAX {
            let until = idle_until(&server);
            assert!(until > now, "claim {until:?} not ahead of {now:?}");
            // One tick short of the claim: nothing to do (debug builds
            // still run the pump here and assert it emitted nothing).
            assert_eq!(server.poll(until - TICK, &mut stack), 0);
            assert_eq!(idle_until(&server), until);
            now = until;
            server.poll(now, &mut stack);
            claims += 1;
        }
        // The transport blocked, not the clip.
        assert!(claims > 20, "only {claims} unblocked pumps");
        assert!(server.stream.is_some());
        assert!(now < SimTime::from_secs(30), "never blocked");
        let need = blocked_need(&server) as usize;
        assert!(stack.tcp_ref(server.data_tcp).send_capacity_left() < need);
        assert!(need < 16 * 1024);

        // Blocked, the pump still claims a clock edge — the earliest thing
        // it does not owe yet — and walks edge to edge sending nothing.
        for _ in 0..40 {
            let until = idle_until(&server);
            assert!(until > now && until <= now + RATE_EVAL_PERIOD);
            assert_eq!(server.quiet_until(&stack), until);
            assert!(server.quiet_step(until - TICK, &stack));
            assert_eq!(server.poll(until - TICK, &mut stack), 0);
            // At the edge itself the newly owed item may be small enough
            // to fit where the refused one does not.
            now = until;
            server.poll(now, &mut stack);
            assert_ne!(blocked_need(&server), u32::MAX);
        }

        // One byte short of the need is still a refusal; the need is not.
        let until = idle_until(&server);
        let need = blocked_need(&server) as usize;
        drain_data_socket(&server, &mut stack);
        let room = stack.tcp_ref(server.data_tcp).send_capacity_left();
        stack.tcp(server.data_tcp).send(&vec![0; room - need + 1]);
        assert!(server.quiet_step(until - TICK, &stack));
        drain_data_socket(&server, &mut stack);
        stack.tcp(server.data_tcp).send(&vec![0; room - need]);
        assert_eq!(
            server.quiet_until(&stack),
            until,
            "the clock's claim stands"
        );
        assert!(!server.quiet_step(until - TICK, &stack));
        assert!(server.poll(until - TICK, &mut stack) > 0);
    }

    #[test]
    fn bucket_blocked_pump_refills_every_instant_and_sends_the_instant_the_need_fits() {
        let (mut server, mut stack) = streaming(long_lead(), 300_000);
        flip_to_udp(&mut server);
        let mut now = SimTime::from_millis(20);
        assert!(server.poll(now, &mut stack) > 0);
        let (mut refused, mut sent) = (0, 0);
        for _ in 0..400 {
            now += SimDuration::from_micros(7_321);
            let need = blocked_need(&server);
            assert_ne!(need, u32::MAX, "the backlog outlasts the test");
            if now >= server.quiet_until(&stack) {
                // A clock edge (rate evaluation): no claim reaches past it.
                server.poll(now, &mut stack);
                continue;
            }
            let fits = bucket(&mut server).clone().covers(now, need);
            // The step is the refill, and its answer is the bucket's.
            assert_eq!(server.quiet_step(now, &stack), !fits);
            // It already refilled to `now`: refilling again changes nothing.
            let stepped = bucket(&mut server).clone();
            let mut again = stepped.clone();
            assert_eq!(again.covers(now, need), fits);
            assert_eq!(format!("{again:?}"), format!("{stepped:?}"));
            // Debug builds run the pump under the claim and hold it to
            // nothing emitted; either way the poll agrees with the step.
            let pumped = server.poll(now, &mut stack);
            assert_eq!(pumped > 0, fits);
            refused += u32::from(!fits);
            sent += u32::from(fits);
        }
        assert!(refused > 200 && sent > 20, "{refused} refused, {sent} sent");
    }

    #[test]
    fn report_voids_a_blocked_claim_and_a_thinning_retry_never_makes_one() {
        let (mut server, mut stack) = streaming(long_lead(), 300_000);
        flip_to_udp(&mut server);
        let mut now = SimTime::from_millis(20);
        server.poll(now, &mut stack);
        assert_ne!(blocked_need(&server), u32::MAX);
        let rate = bucket(&mut server).rate_bps();

        // A lossy report lands one tick later: the bucket cannot yet
        // cover the need, but the claim was made at the old rate — the
        // pump runs in full and re-rates the bucket.
        now += TICK;
        request(
            &mut server,
            Message::request(Method::SetParameter, URL)
                .with_header(REPORT_PARAM, "0.200000:40000.0"),
        );
        assert!(now < idle_until(&server));
        server.poll(now, &mut stack);
        assert!(bucket(&mut server).rate_bps() < rate / 2.0);

        // At that rate the stream thins until the rung comes down to
        // meet it. Every refused retry of a thinning frame accrues thin
        // debt, so it is never claimed away; any other refusal is.
        let (mut thinning, mut claimed) = (0, 0);
        for _ in 0..3_000 {
            now += SimDuration::from_millis(20);
            server.poll(now, &mut stack);
            let allowed_bps = server.allowed_bps();
            let stream = server.stream.as_mut().expect("streaming");
            // Audio is a trickle: when the bucket refuses, it refuses a frame.
            let Some(frame) = stream.schedule.frame(stream.next_frame) else {
                continue;
            };
            if stream.claim.need == u32::MAX {
                continue;
            }
            let rung_bps = f64::from(stream.clip.ladder.rungs()[stream.rung].total_bps);
            let thins = !frame.key && 0.85 * allowed_bps / rung_bps < 0.90;
            if thins {
                assert_eq!(stream.claim.until, SimTime::ZERO);
                thinning += 1;
            } else {
                assert!(now < stream.claim.until);
                claimed += 1;
            }
        }
        assert!(
            thinning > 100 && claimed > 100,
            "{thinning} thinning, {claimed} claimed"
        );
    }

    #[test]
    fn play_teardown_and_crash_drop_the_claim() {
        let (mut server, mut stack) = streaming(short_lead(), 300_000);
        let now = SimTime::from_millis(10);
        assert!(now < idle_until(&server));

        // A new PLAY while idle: the fresh stream pumps on this very poll.
        let audio = server.stats().audio_packets;
        play(&mut server, 2);
        assert!(server.poll(now, &mut stack) > 3);
        assert!(server.stats().audio_packets > audio);

        // TEARDOWN while idle: handled and applied now, and with the
        // stream goes its claim.
        assert!(now < idle_until(&server));
        request(&mut server, Message::request(Method::Teardown, URL));
        assert_eq!(server.poll(now, &mut stack), 2);
        assert!(server.stream.is_none());
        assert_eq!(idle_until(&server), SimTime::ZERO);

        play(&mut server, 3);
        server.poll(now, &mut stack);
        assert!(now < idle_until(&server));
        server.crash(&mut stack);
        assert_eq!(idle_until(&server), SimTime::ZERO);
    }

    #[test]
    fn rung_switch_recomputes_the_claim_from_the_new_schedule() {
        let cfg = short_lead();
        let (mut server, mut stack) = streaming(cfg, 300_000);
        flip_to_udp(&mut server);
        let rung = server.current_rung().expect("streaming");

        // A lossy report lands while the pump is idle; the rate it sets
        // is acted on at the next rate evaluation, no earlier.
        let mut now = SimTime::from_millis(10);
        request(
            &mut server,
            Message::request(Method::SetParameter, URL)
                .with_header(REPORT_PARAM, "0.200000:40000.0"),
        );
        assert_eq!(server.poll(now, &mut stack), 2);
        let eval = SimTime::ZERO + RATE_EVAL_PERIOD;
        while now < eval {
            assert_eq!(server.stats().switches_down, 0);
            let until = idle_until(&server);
            // The claim never reaches past a rate evaluation.
            assert!(until > now && until <= eval);
            assert_eq!(server.poll(until - TICK, &mut stack), 0);
            now = until;
            server.poll(now, &mut stack);
        }
        assert_eq!(server.stats().switches_down, 1);
        assert!(server.current_rung().expect("streaming") < rung);

        // The switch happened inside that pump, so the claim it left is
        // the new schedule's: stepping claim to claim keeps sending.
        let frames = server.stats().frames_sent;
        while now < eval + SimDuration::from_secs(2) {
            let until = idle_until(&server);
            assert!(until > now && until <= now + RATE_EVAL_PERIOD);
            assert_eq!(server.poll(until - TICK, &mut stack), 0);
            now = until;
            server.poll(now, &mut stack);
        }
        assert!(server.stats().frames_sent > frames + 5);
    }

    /// The whole-clip table of the live stream's clip at `rung`: what the
    /// server's lazy schedules are prefixes of.
    fn whole_table(server: &mut RealServer, rung: usize) -> FrameSchedule {
        let clip = server.stream.as_ref().expect("streaming").clip.clone();
        let schedules = &mut server.scratch.schedules;
        schedules.start(&clip, rung, server.clip_seed).finish()
    }

    /// Where the live stream is on its rung's schedule: (next frame to
    /// send, frames generated so far).
    fn progress(server: &RealServer) -> (usize, usize) {
        let stream = server.stream.as_ref().expect("streaming");
        (stream.next_frame, stream.schedule.generated())
    }

    /// Polls every 20 ms up to `until` against a peer that keeps up: the
    /// clock, not the transport, paces the pump.
    fn stream_drained(
        server: &mut RealServer,
        stack: &mut Stack,
        now: &mut SimTime,
        until: SimTime,
    ) {
        while *now < until {
            *now = (*now + SimDuration::from_millis(20)).min(until);
            drain_data_socket(server, stack);
            server.poll(*now, stack);
        }
    }

    #[test]
    fn two_seconds_of_a_ten_minute_clip_generate_two_seconds_plus_the_lead() {
        let cfg = ServerConfig::default();
        let (mut server, mut stack) = streaming_clip(cfg, 300_000, SimDuration::from_secs(600));
        let rung = server.current_rung().expect("streaming");
        let whole = whole_table(&mut server, rung);
        let watched = SimDuration::from_secs(2);
        let mut now = SimTime::ZERO;
        stream_drained(&mut server, &mut stack, &mut now, SimTime::ZERO + watched);
        assert_eq!(server.current_rung(), Some(rung));
        assert_eq!(blocked_need(&server), u32::MAX);

        // Every frame inside the lead is sent; the one frame generated
        // beyond it is the one the pump looked at to know it could stop.
        let horizon = watched + cfg.buffer_lead;
        let inside = whole.frames().partition_point(|f| f.pts <= horizon);
        let (next_frame, generated) = progress(&server);
        assert_eq!(next_frame, inside);
        assert_eq!(generated, inside + 1);
        assert!(
            whole.len() > 30 * generated,
            "{generated} of {}",
            whole.len()
        );
    }

    #[test]
    fn rung_round_trip_lands_where_the_whole_tables_say() {
        /// Switches the live stream as a rate evaluation would; returns
        /// where it landed.
        fn switch(server: &mut RealServer, now: SimTime, rung: usize) -> (usize, SimDuration) {
            let stream = server.stream.as_mut().expect("streaming");
            stream.switch_rung(now, rung, &mut server.scratch.schedules, server.clip_seed);
            // A rate evaluation sits inside a pump, which ends by claiming
            // afresh from the new schedule.
            stream.claim.until = SimTime::ZERO;
            (stream.next_frame, stream.sent_until)
        }

        let (mut server, mut stack) =
            streaming_clip(short_lead(), 300_000, SimDuration::from_secs(600));
        let a = server.current_rung().expect("streaming");
        let b = a - 1;
        let whole_a = whole_table(&mut server, a);
        let whole_b = whole_table(&mut server, b);
        let mut now = SimTime::from_millis(10);
        let (next_a, generated_a) = progress(&server);
        assert_eq!(generated_a, next_a + 1);

        // A → B → A with B sending nothing: `sent_until` is still the pts
        // of A's last sent frame, so the round trip lands *on* that frame
        // (`next_frame − 1`) and sends it again — behind the parked
        // schedule's frontier, which is why the prefix is a table.
        let (next, sent_until) = switch(&mut server, now, b);
        assert_eq!(next, whole_b.first_frame_at(sent_until));
        assert_eq!(switch(&mut server, now, a), (next_a - 1, sent_until));
        assert_eq!(whole_a.first_frame_at(sent_until), next_a - 1);
        assert_eq!(whole_a.frames()[next_a - 1].pts, sent_until);
        // The parked schedule came back; it did not start over.
        assert_eq!(progress(&server).1, generated_a);

        // A → B, a second of streaming on B, → A: `sent_until` is one of
        // B's timestamps now, ahead of everything A had generated.
        switch(&mut server, now, b);
        let frames = server.stats().frames_sent;
        stream_drained(&mut server, &mut stack, &mut now, SimTime::from_secs(1));
        assert_eq!(server.current_rung(), Some(b));
        assert!(server.stats().frames_sent > frames + 5);
        let (next, sent_until) = switch(&mut server, now, a);
        assert!(sent_until > whole_a.frames()[generated_a - 1].pts);
        assert_eq!(next, whole_a.first_frame_at(sent_until));
        assert_eq!(progress(&server).1, next + 1);
        let (next, _) = switch(&mut server, now, b);
        assert_eq!(next, whole_b.first_frame_at(sent_until));
    }

    #[test]
    fn every_way_a_stream_dies_keeps_its_frame_storage() {
        use rv_transport::{TcpFlags, TcpSegment};

        /// How many rungs hold recycled storage.
        fn stored(server: &RealServer) -> usize {
            let storage = &server.scratch.schedules.storage;
            assert!(storage.iter().all(Vec::is_empty), "storage holds frames");
            storage.iter().filter(|v| v.capacity() > 0).count()
        }
        /// A second rung visited, so the stream holds two schedules.
        fn visit_two_rungs(server: &mut RealServer) {
            let stream = server.stream.as_mut().expect("streaming");
            let (now, down) = (SimTime::from_millis(5), stream.rung - 1);
            stream.switch_rung(now, down, &mut server.scratch.schedules, server.clip_seed);
        }

        let (mut server, mut stack) = streaming(short_lead(), 300_000);
        let now = SimTime::from_millis(10);
        assert_eq!(stored(&server), 0);
        visit_two_rungs(&mut server);

        // TEARDOWN.
        request(&mut server, Message::request(Method::Teardown, URL));
        server.poll(now, &mut stack);
        assert_eq!(stored(&server), 2);
        let warm = server.scratch.frame_capacity();

        // PLAY starts on its rung's storage, and a PLAY over a live
        // stream takes the old stream's back first.
        play(&mut server, 2);
        server.poll(now, &mut stack);
        assert_eq!(stored(&server), 1);
        visit_two_rungs(&mut server);
        assert_eq!(stored(&server), 0);
        play(&mut server, 3);
        server.poll(now, &mut stack);
        assert_eq!(stored(&server), 1);

        // The data connection resetting under a TCP stream.
        visit_two_rungs(&mut server);
        let peer = Addr::new(rv_net::HostId(0), 5001);
        let rst = TcpFlags {
            rst: true,
            ..TcpFlags::ACK
        };
        for flags in [TcpFlags::SYN, rst] {
            let seg = TcpSegment {
                seq: 0,
                ack: 0,
                flags,
                window: 65_535,
                data: rv_sim::PayloadBytes::empty(),
            };
            stack.tcp(server.data_tcp).on_segment(now, peer, seg);
        }
        server.poll(now, &mut stack);
        assert!(server.stream.is_none());
        assert_eq!(stored(&server), 2);

        // A crash (the control connection dying takes the same path).
        play(&mut server, 4);
        server.poll(now, &mut stack);
        visit_two_rungs(&mut server);
        server.crash(&mut stack);
        assert_eq!(stored(&server), 2);

        // Retirement with a stream still live.
        server.restart(&mut stack);
        request(&mut server, Message::request(Method::Describe, URL));
        play(&mut server, 1);
        server.poll(now, &mut stack);
        assert!(server.stream.is_some());
        visit_two_rungs(&mut server);
        let scratch = server.into_scratch();
        assert!(scratch.schedules.parked.is_empty());
        assert!(scratch.schedules.storage.iter().all(Vec::is_empty));
        // Five streams over the same two rungs grew nothing after the first.
        assert_eq!(scratch.frame_capacity(), warm);
    }

    #[test]
    fn a_scratch_that_streamed_tcp_streams_udp_one_datagram_a_packet() {
        use rv_media::MediaPacket;
        use rv_transport::Segment;

        // A TCP stream retired mid-stream: both transports stage through
        // the one buffer its scratch carries to the next server.
        let (mut first, mut stack) = streaming(long_lead(), 300_000);
        let now = SimTime::from_millis(20);
        first.poll(now, &mut stack);
        let duration = SimDuration::from_secs(60);
        let (mut server, mut stack) =
            streaming_on(long_lead(), 300_000, duration, first.into_scratch());
        flip_to_udp(&mut server);
        let first_seq = server.next_seq;
        assert!(server.poll(now, &mut stack) > 0);

        let sent = stack.udp(server.udp).poll(now);
        assert!(sent.len() > 10, "{} datagrams", sent.len());
        for (i, wire) in sent.iter().enumerate() {
            let Segment::Udp(dgram) = &wire.payload else {
                panic!("not a datagram: {wire:?}");
            };
            let (pkt, used) = MediaPacket::decode(&dgram.data).expect("a whole packet");
            assert_eq!(used, dgram.data.len());
            assert_eq!(pkt.seq, first_seq + i as u32);
            assert_eq!(&pkt.encode()[..], &dgram.data[..]);
        }
        assert_eq!(server.next_seq, first_seq + sent.len() as u32);
    }

    #[test]
    fn report_arriving_while_the_pump_is_idle_is_applied_on_that_poll() {
        let (mut server, mut stack) = streaming(short_lead(), 300_000);
        let now = SimTime::from_millis(10);
        let until = idle_until(&server);
        assert!(now < until);
        request(
            &mut server,
            Message::request(Method::SetParameter, URL)
                .with_header(REPORT_PARAM, "0.050000:120000.0"),
        );
        // One request handled, one report applied, nothing pumped.
        assert_eq!(server.poll(now, &mut stack), 2);
        assert_eq!(server.tfrc.last_report(), Some(now));
        assert_eq!(idle_until(&server), until);
    }

    #[test]
    fn core_collects_reports() {
        let mut core = ServerCore::new(&ServerConfig::default(), Catalog::new());
        core.set_parameter("u", REPORT_PARAM, "0.050000:120000.0");
        core.set_parameter("u", "x-unrelated", "whatever");
        core.set_parameter("u", REPORT_PARAM, "not a report");
        assert_eq!(core.pending_reports.len(), 1);
        assert!((core.pending_reports[0].loss_rate - 0.05).abs() < 1e-9);
    }

    /// What a pump may change while it emits nothing, bit for bit.
    fn pump_state(server: &RealServer) -> impl PartialEq + std::fmt::Debug {
        let s = server.stream.as_ref().expect("streaming");
        (
            // `{:?}` round-trips `f64`s: fill level, last fill, rate.
            format!("{:?}", s.outlet),
            s.thin_debt.to_bits(),
            (s.next_frame, s.next_audio, s.audio_seq, s.rung),
            (s.last_rate_eval, s.last_switch, s.last_timeout_check),
            (s.claim.until, s.claim.need),
            (server.tfrc.allowed_bps().to_bits(), server.next_seq),
            server.stats,
        )
    }

    proptest::proptest! {
        /// Under arbitrary poll schedules, report sequences and drains of
        /// the data socket, on either transport: whenever the server says
        /// it is quiet, the full control plane and the full pump (called
        /// here directly, past their early-outs) do nothing and leave
        /// every bit where the quiet step left it; no claim reaches past
        /// the next thing the pump owes; and the rate stays inside its
        /// bounds and the rung inside the ladder.
        #[test]
        fn quiet_claims_are_exact_under_arbitrary_schedules(
            udp in proptest::prelude::any::<bool>(),
            long in proptest::prelude::any::<bool>(),
            steps in proptest::prelude::prop::collection::vec(
                (
                    proptest::prop_oneof![1u64..25_000, 1u64..25_000, 100_000u64..1_500_000],
                    0u8..24,
                    0u32..400_000,
                ),
                50..400,
            ),
        ) {
            let cfg = if long { long_lead() } else { short_lead() };
            let (mut server, mut stack) = streaming(cfg, 300_000);
            if udp {
                flip_to_udp(&mut server);
            }
            let mut now = SimTime::ZERO;
            let mut quiet_steps = 0;
            for (dt, op, arg) in steps {
                now += SimDuration::from_micros(dt);
                match op {
                    0 => {
                        let report = ReceiverReport {
                            loss_rate: f64::from(arg % 1_000) / 2_000.0 * f64::from(arg % 3),
                            recv_rate_bps: f64::from(arg),
                        };
                        request(
                            &mut server,
                            Message::request(Method::SetParameter, URL)
                                .with_header(REPORT_PARAM, report),
                        );
                    }
                    1 if !udp => drain_data_socket(&server, &mut stack),
                    _ => {}
                }
                if now < server.quiet_until(&stack) && server.quiet_step(now, &stack) {
                    quiet_steps += 1;
                    // Every pump re-rates the bucket before reading it, so
                    // an early-out may leave a stale rate behind — except
                    // under a refusal, whose step refills: a report voids
                    // those (asserted by the refill matching below).
                    let stream = server.stream.as_mut().expect("streaming");
                    if let (u32::MAX, Outlet::Udp { bucket, .. }) = (stream.claim.need, &mut stream.outlet) {
                        bucket.set_rate(server.tfrc.allowed_bps().max(8_000.0));
                    }
                    let left = pump_state(&server);
                    proptest::prop_assert_eq!(server.poll_control(now, &mut stack), 0);
                    proptest::prop_assert_eq!(server.pump_stream(now, &mut stack), 0);
                    let after = pump_state(&server);
                    proptest::prop_assert!(after == left, "{:?}\n != \n{:?}", after, left);
                    proptest::prop_assert_eq!(server.poll(now, &mut stack), 0);
                } else {
                    server.poll(now, &mut stack);
                }

                let s = server.stream.as_mut().expect("streaming");
                // Every edge still ahead bounds the claim; an edge already
                // passed is an item owed, which only a refusal excuses.
                let lead = server.cfg.buffer_lead;
                let audio = (s.next_audio < s.clip.duration)
                    .then(|| s.play_epoch + s.next_audio.saturating_sub(lead));
                let frame = s.schedule.frame(s.next_frame)
                    .map(|f| s.play_epoch + f.pts.saturating_sub(lead));
                let eval = Some(s.last_rate_eval + RATE_EVAL_PERIOD);
                for edge in [audio, frame, eval].into_iter().flatten() {
                    if edge > now {
                        proptest::prop_assert!(s.claim.until <= edge);
                    } else {
                        proptest::prop_assert!(s.claim.need != u32::MAX, "owed at {:?}, unclaimed", edge);
                    }
                }
                proptest::prop_assert!(s.rung <= s.max_rung && s.max_rung < s.clip.ladder.len());
                let allowed = server.allowed_bps();
                proptest::prop_assert!((10_000.0..=600_000.0).contains(&allowed), "allowed {}", allowed);
            }
            proptest::prop_assert!(quiet_steps > 0);
        }
    }
}
