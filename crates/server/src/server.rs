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

use rv_media::{
    packetize_frame_into, parity_packet, Clip, Frame, LazySchedule, MediaPacket, PacketKind,
};
use rv_net::Addr;
use rv_rtsp::{Decoder, ServerHandler, ServerSession, Status, TransportKind, TransportSpec};
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{PayloadPool, PoolFootprint, SimDuration, SimTime};
use rv_transport::{Stack, TcpHandle, UdpHandle};

use crate::catalog::Catalog;
use crate::ratecontrol::{ReceiverReport, TfrcConfig, TfrcController, TokenBucket};

/// The SET_PARAMETER header carrying receiver reports.
pub const REPORT_PARAM: &str = "x-receiver-report";

/// Server tuning knobs.
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
    /// Minimum spacing between upward rung switches.
    pub switch_hold: SimDuration,
    /// Rate re-evaluation period.
    pub rate_eval_period: SimDuration,
    /// Halve the UDP rate when no report arrives for this long.
    pub report_timeout: SimDuration,
    /// Spacing of audio packets.
    pub audio_interval: SimDuration,
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
            switch_hold: SimDuration::from_secs(5),
            rate_eval_period: SimDuration::from_secs(1),
            report_timeout: SimDuration::from_secs(3),
            audio_interval: SimDuration::from_millis(100),
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

/// Decisions + state shared with the RTSP handler callbacks.
#[derive(Debug)]
struct ServerCore {
    catalog: Catalog,
    prefers_udp: bool,
    data_udp_port: u16,
    /// Admission limit (0 = unlimited) and standing occupancy; a SETUP
    /// with no free slot gets 453 instead of a silently degraded stream.
    capacity: u32,
    occupancy: u32,
    admission_rejects: u64,
    client_max_bps: Option<u32>,
    negotiated: Option<TransportSpec>,
    pending_play: Option<String>,
    pending_teardown: bool,
    pending_reports: Vec<ReceiverReport>,
}

impl ServerHandler for ServerCore {
    fn describe(&mut self, url: &str) -> Option<Vec<u8>> {
        let name = clip_name(url);
        self.catalog.get(name).map(Clip::describe)
    }

    fn client_bandwidth(&mut self, bps: u32) {
        self.client_max_bps = Some(bps);
    }

    fn setup(&mut self, _url: &str, requested: TransportSpec) -> Result<TransportSpec, Status> {
        if self.capacity > 0 && self.occupancy >= self.capacity {
            self.admission_rejects += 1;
            return Err(Status::NOT_ENOUGH_BANDWIDTH);
        }
        let spec = match requested.kind {
            TransportKind::Udp if self.prefers_udp => TransportSpec {
                server_port: Some(self.data_udp_port),
                ..requested
            },
            // Client asked for TCP, or this server downgrades UDP to TCP.
            _ => TransportSpec::tcp(),
        };
        self.negotiated = Some(spec);
        Ok(spec)
    }

    fn play(&mut self, url: &str) {
        self.pending_play = Some(clip_name(url).to_string());
    }

    fn set_parameter(&mut self, _url: &str, name: &str, value: &str) {
        if name.eq_ignore_ascii_case(REPORT_PARAM) {
            if let Some(report) = ReceiverReport::parse(value) {
                self.pending_reports.push(report);
            }
        }
    }

    fn teardown(&mut self, _url: &str) {
        self.pending_teardown = true;
    }
}

/// Extracts the clip name from an rtsp:// URL (the final path component).
fn clip_name(url: &str) -> &str {
    url.rsplit('/').next().unwrap_or(url)
}

/// One active outbound stream.
#[derive(Debug)]
struct ActiveStream {
    clip: Clip,
    transport: TransportKind,
    client_udp: Option<Addr>,
    rung: usize,
    /// Highest rung this client's bandwidth setting allows. SureStream
    /// never serves above the player's configured connection speed — the
    /// headroom between rung rate and path rate is what keeps the buffer
    /// full and playout smooth.
    max_rung: usize,
    /// The current rung's schedule, generated as far as the pump has
    /// asked. Owned: a rung switch parks it in
    /// [`ServerScratch::rung_schedules`] and takes the new rung's out.
    schedule: LazySchedule,
    next_frame: usize,
    play_epoch: SimTime,
    /// High-water mark of transmitted presentation time.
    sent_until: SimDuration,
    next_audio: SimDuration,
    audio_seq: u32,
    fec_buf: Vec<MediaPacket>,
    group_id: u32,
    thin_debt: f64,
    /// Persistent pacing bucket for UDP (rate follows the TFRC controller).
    bucket: TokenBucket,
    eos_sent: bool,
    last_rate_eval: SimTime,
    last_switch: SimTime,
    tcp_bytes_acked_prev: u64,
    last_timeout_check: SimTime,
    /// The pump emits and evaluates nothing before this instant (see
    /// [`RealServer::idle_until`]) while the transport still refuses
    /// `blocked_need`. Lives with the stream, so whatever replaces or
    /// drops the stream drops the claim with it.
    idle_until: SimTime,
    /// The smallest item the last pump owed and the transport refused, in
    /// bytes of TCP send capacity or bucket tokens; `u32::MAX` when it
    /// refused nothing and the claim is the clock's alone.
    blocked_need: u32,
}

/// Recyclable server storage: every buffer a [`RealServer`] stages bytes
/// in. The server holds one of these for its whole life and hands it back,
/// emptied, from [`RealServer::into_scratch`] for the next session's
/// server to start on.
///
/// Everything here is capacity, not state: a server built on a retired
/// server's scratch behaves bit-identically to one built on
/// `ServerScratch::default()` — its staging buffers and payload pool
/// simply start warm, so steady-state streaming allocates nothing. The
/// payload pool is the big win: its working set of recycled backings
/// (sized by how long TCP holds sent bytes for retransmit) is paid for
/// once per worker instead of once per session.
#[derive(Debug, Default)]
pub struct ServerScratch {
    decoder: Decoder,
    /// Staging buffer for the TCP data path: one pump's packets are
    /// encoded here back-to-back and pushed to the socket as a single
    /// large chunk, so segmentization slices one backing allocation
    /// instead of straddling per-packet buffers.
    txbuf: Vec<u8>,
    /// Staging buffer for the UDP data path: one pump's datagrams are
    /// encoded here back-to-back and sent as zero-copy slices of a single
    /// shared backing allocation.
    udp_scratch: Vec<u8>,
    /// Datagram boundaries within `udp_scratch`: `(dst, start, len)`.
    udp_bounds: Vec<(Addr, usize, usize)>,
    /// Reusable packetization scratch (one frame's packets).
    pkt_scratch: Vec<MediaPacket>,
    /// Recycled payload backings for the pump flushes: once warm, staging
    /// a pump's bytes onto the wire allocates nothing.
    payload_pool: PayloadPool,
    /// Reused staging buffer for outgoing control responses.
    ctrl_buf: Vec<u8>,
    /// The current stream's schedules for the rungs it is *not* on, one
    /// slot per rung, each generated as far as the pump got while it was
    /// on that rung; the streaming rung's slot is empty, its schedule is
    /// in the stream. SureStream oscillates between adjacent rungs for
    /// the life of a stream, so a revisit resumes the parked schedule
    /// instead of generating its prefix again. Emptied into
    /// `frame_storage` wherever the stream dies.
    rung_schedules: Vec<Option<LazySchedule>>,
    /// Retired schedules' frame tables, emptied, one slot per rung: the
    /// storage the next schedule of that rung starts on. Kept by rung
    /// because a rung's frame rate sizes its table — once a rung has
    /// served its longest stream, starting a schedule on it allocates
    /// nothing.
    frame_storage: Vec<Vec<Frame>>,
}

impl ServerScratch {
    /// Frames of recycled schedule storage held, summed over the rungs:
    /// what a test of the recycling contract reads to see that a warm
    /// session grew nothing.
    pub fn frame_capacity(&self) -> usize {
        self.frame_storage.iter().map(Vec::capacity).sum()
    }

    /// Backings and bytes the payload pool owns, and the most it had in
    /// flight at once: read beside [`ServerScratch::frame_capacity`] to
    /// see that a warm session grew nothing and that what is owned
    /// tracks what was in flight.
    pub fn payload_footprint(&self) -> PoolFootprint {
        self.payload_pool.footprint()
    }
}

/// The streaming server for one session.
#[derive(Debug)]
pub struct RealServer {
    cfg: ServerConfig,
    core: ServerCore,
    rtsp: ServerSession,
    ctrl: TcpHandle,
    data_tcp: TcpHandle,
    udp: UdpHandle,
    /// Boxed: every non-idle pump takes the stream out of here and puts
    /// it back, which should move a pointer, not the whole struct.
    stream: Option<Box<ActiveStream>>,
    tfrc: TfrcController,
    next_seq: u32,
    clip_seed: u64,
    stats: ServerStats,
    alive: bool,
    scratch: ServerScratch,
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
        scratch: ServerScratch,
    ) -> Self {
        RealServer {
            core: ServerCore {
                catalog,
                prefers_udp: cfg.prefers_udp,
                data_udp_port: cfg.data_udp_port,
                capacity: cfg.capacity,
                occupancy: cfg.background_sessions,
                admission_rejects: 0,
                client_max_bps: None,
                negotiated: None,
                pending_play: None,
                pending_teardown: false,
                pending_reports: Vec::new(),
            },
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
    /// session's server, scrubbed here so no session state survives
    /// (capacity only).
    pub fn into_scratch(mut self) -> ServerScratch {
        self.retire_stream();
        let mut scratch = self.scratch;
        scratch.decoder.reset();
        scratch.txbuf.clear();
        scratch.udp_scratch.clear();
        scratch.udp_bounds.clear();
        scratch.pkt_scratch.clear();
        scratch.ctrl_buf.clear();
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
    pub fn crash(&mut self, stack: &mut Stack) {
        self.alive = false;
        self.stats.crashes += 1;
        self.drop_session();
        self.scratch.txbuf.clear();
        self.scratch.udp_scratch.clear();
        self.scratch.udp_bounds.clear();
        stack.tcp(self.ctrl).abort();
        stack.tcp(self.data_tcp).abort();
    }

    /// Forgets everything one client's session left behind — stream,
    /// negotiation, pending control events, RTSP state, undecoded bytes —
    /// the wipe a process crash and a dead control connection share.
    fn drop_session(&mut self) {
        self.retire_stream();
        self.core.negotiated = None;
        self.core.client_max_bps = None;
        self.core.pending_play = None;
        self.core.pending_teardown = false;
        self.core.pending_reports.clear();
        self.rtsp = ServerSession::new();
        self.scratch.decoder.reset();
    }

    /// Ends the stream, if there is one, keeping the storage under every
    /// schedule it started — the one streaming and the ones parked per
    /// rung — for the next PLAY's schedules. Every place a stream dies
    /// goes through here.
    fn retire_stream(&mut self) {
        let Some(stream) = self.stream.take() else {
            return;
        };
        let scratch = &mut self.scratch;
        scratch.rung_schedules[stream.rung] = Some(stream.schedule);
        let slots = scratch.frame_storage.iter_mut();
        for (slot, schedule) in slots.zip(scratch.rung_schedules.drain(..)) {
            if let Some(schedule) = schedule {
                *slot = schedule.into_storage();
            }
        }
    }

    /// Brings a crashed server back up with fresh listening sockets. The
    /// catalog and lifetime stats survive the restart; session state does
    /// not (clients must DESCRIBE/SETUP/PLAY from scratch).
    pub fn restart(&mut self, stack: &mut Stack) {
        assert!(!self.alive, "restart on a live server");
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

    /// `true` while a stream is active.
    pub fn is_streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// The instant before which the data pump provably emits and evaluates
    /// nothing — *exact* where [`RealServer::next_wake`] is conservative.
    /// A pump the transport blocked claims the next clock edge among what
    /// it does *not* owe yet (rate evaluation, an audio packet or frame
    /// still outside the buffer lead), for as long as the transport keeps
    /// refusing what it does owe. [`SimTime::ZERO`] makes no claim: no
    /// stream, a stream not yet pumped, or a blocked retry that is itself
    /// work (a thinning frame accrues `thin_debt` every time it is tried).
    pub fn idle_until(&self) -> SimTime {
        self.stream.as_ref().map_or(SimTime::ZERO, |s| s.idle_until)
    }

    /// The instant strictly before which — with no new inbound packet — a
    /// poll does nothing beyond what [`RealServer::quiet_step`] does:
    /// forever for a dead process, [`SimTime::ZERO`] (no claim) while the
    /// control plane has anything to act on, else the pump's claim.
    pub fn quiet_until(&self, stack: &Stack) -> SimTime {
        if !self.alive {
            SimTime::MAX
        } else if !self.control_idle(stack) {
            SimTime::ZERO
        } else {
            self.stream.as_ref().map_or(SimTime::MAX, |s| s.idle_until)
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
    /// refused `try_consume` would have made.
    pub fn quiet_step(&mut self, now: SimTime, stack: &Stack) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return true;
        };
        let need = stream.blocked_need;
        now < stream.idle_until
            && (need == u32::MAX
                || match stream.transport {
                    TransportKind::Tcp => {
                        stack.tcp_ref(self.data_tcp).send_capacity_left() < need as usize
                    }
                    TransportKind::Udp => !stream.bucket.covers(now, need),
                })
    }

    /// Debug snapshot: (rung, next_frame, frames generated so far on this
    /// rung's schedule, sent_until ms).
    pub fn debug_stream(&self) -> Option<(usize, usize, usize, u64)> {
        self.stream.as_ref().map(|s| {
            (
                s.rung,
                s.next_frame,
                s.schedule.generated(),
                s.sent_until.as_millis(),
            )
        })
    }

    /// Debug: the rate controller's smoothed loss estimate.
    pub fn debug_loss(&self) -> f64 {
        self.tfrc.smoothed_loss()
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
                // A receiver report moves the rate a blocked bucket
                // refills at: what the last pump learned no longer holds.
                if let Some(stream) = self.stream.as_mut().filter(|s| s.blocked_need != u32::MAX) {
                    stream.idle_until = SimTime::ZERO;
                }
            }
        }
        let pumped = self.pump_data(now, stack);
        if pumped > 0 {
            trace::emit(now, || TraceEvent::ServerPump {
                packets: pumped as u32,
            });
        }
        work + pumped
    }

    /// Whether the control plane provably has nothing to do: it acts only
    /// on bytes the control socket can read, bytes the decoder still
    /// holds, a socket error to recover from, or an event a handled
    /// message left pending — it has no clock.
    fn control_idle(&self, stack: &Stack) -> bool {
        let ctrl = stack.tcp_ref(self.ctrl);
        ctrl.recv_available() == 0
            && !ctrl.has_error()
            && !stack.tcp_ref(self.data_tcp).has_error()
            && self.scratch.decoder.buffered() == 0
            && self.core.pending_play.is_none()
            && !self.core.pending_teardown
            && self.core.pending_reports.is_empty()
    }

    /// The control plane: connection recovery, RTSP requests, and the
    /// events they queue. Returns units of work done.
    fn poll_control(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let mut work = self.recover_connections(stack);
        let unadmitted = self.core.negotiated.is_none();
        work += self.pump_control(stack);
        if unadmitted {
            if let Some(spec) = self.core.negotiated {
                trace::emit(now, || TraceEvent::ServerAdmit {
                    transport: match spec.kind {
                        TransportKind::Udp => "udp",
                        TransportKind::Tcp => "tcp",
                    },
                });
            }
        }
        work + self.apply_control_events(now, stack)
    }

    /// A client that aborted (RST) kills its session: the daemon recycles
    /// the connection state and returns to listening for a fresh client.
    /// Fault-free sessions never RST, so this never fires without faults.
    fn recover_connections(&mut self, stack: &mut Stack) -> usize {
        let mut work = 0;
        if stack.tcp(self.ctrl).take_error().is_some() {
            // The control connection died: the whole session is gone.
            self.drop_session();
            stack.tcp(self.ctrl).reset();
            stack.tcp(self.ctrl).listen();
            work += 1;
        }
        if stack.tcp(self.data_tcp).take_error().is_some() {
            if self
                .stream
                .as_ref()
                .is_some_and(|s| s.transport == TransportKind::Tcp)
            {
                self.retire_stream();
            }
            stack.tcp(self.data_tcp).reset();
            stack.tcp(self.data_tcp).listen();
            work += 1;
        }
        work
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

    fn pump_control(&mut self, stack: &mut Stack) -> usize {
        let mut handled = 0;
        let decoder = &mut self.scratch.decoder;
        stack
            .tcp(self.ctrl)
            .recv_with(usize::MAX, &mut |chunk| decoder.feed(chunk));
        loop {
            match self.scratch.decoder.next_message() {
                Ok(Some(msg)) => {
                    let resp = self.rtsp.on_request(&mut self.core, &msg);
                    self.scratch.ctrl_buf.clear();
                    resp.encode_into(&mut self.scratch.ctrl_buf);
                    stack.tcp(self.ctrl).send(&self.scratch.ctrl_buf);
                    handled += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    self.stats.control_errors += 1;
                    break;
                }
            }
        }
        handled
    }

    fn apply_control_events(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let mut applied = 0;
        if self.core.pending_teardown {
            self.core.pending_teardown = false;
            self.retire_stream();
            applied += 1;
        }
        if let Some(clip_name) = self.core.pending_play.take() {
            self.start_stream(now, stack, &clip_name);
            applied += 1;
        }
        let rtt = stack
            .tcp_ref(self.ctrl)
            .srtt()
            .unwrap_or(SimDuration::from_millis(200));
        for report in self.core.pending_reports.drain(..) {
            self.tfrc.on_report(now, report, rtt);
            applied += 1;
        }
        applied
    }

    fn start_stream(&mut self, now: SimTime, stack: &mut Stack, clip_name: &str) {
        let Some(clip) = self.core.catalog.get(clip_name).cloned() else {
            return; // vanished between DESCRIBE and PLAY
        };
        let Some(spec) = self.core.negotiated else {
            return; // PLAY without SETUP: session machine already rejected
        };
        // Initial rung: what the client says its connection supports,
        // moderated by what TFRC currently believes.
        let client_bps = f64::from(self.core.client_max_bps.unwrap_or(300_000));
        let max_rung = clip.ladder.select(client_bps * 0.9);
        let initial = clip.ladder.select(client_bps * 0.8).min(max_rung);
        let rung_bps = f64::from(clip.ladder.rungs()[initial].total_bps);
        // Cap the rate controller at the top rung (plus pacing headroom):
        // a media server has nothing to gain from probing beyond the
        // encoded rate, and doing so only manufactures queue loss.
        let top_bps = f64::from(
            clip.ladder
                .rungs()
                .last()
                .expect("ladder nonempty")
                .total_bps,
        );
        // ... and never above the client's stated connection speed: pushing
        // past the access link only fills its queue with loss and delay.
        let tfrc_cfg = crate::ratecontrol::TfrcConfig {
            max_rate_bps: self
                .cfg
                .tfrc
                .max_rate_bps
                .min(top_bps * 1.25)
                // 0.85: leave room for FEC (+1/8), audio, and headers so
                // the wire rate stays under the client's access link.
                .min(client_bps * 0.85),
            ..self.cfg.tfrc
        };
        self.tfrc = TfrcController::new(tfrc_cfg, rung_bps.max(20_000.0) * 1.5);

        let client_udp = match spec.kind {
            TransportKind::Udp => {
                let host = stack
                    .tcp_ref(self.ctrl)
                    .remote()
                    .map(|a| a.host)
                    .expect("control connection is established");
                Some(Addr::new(host, spec.client_port))
            }
            TransportKind::Tcp => None,
        };

        self.retire_stream();
        let rungs = clip.ladder.len();
        self.scratch.rung_schedules.resize_with(rungs, || None);
        if self.scratch.frame_storage.len() < rungs {
            self.scratch.frame_storage.resize_with(rungs, Vec::new);
        }
        let schedule = self.start_schedule(&clip, initial);
        self.stream = Some(Box::new(ActiveStream {
            transport: spec.kind,
            client_udp,
            rung: initial,
            max_rung,
            schedule,
            next_frame: 0,
            play_epoch: now,
            sent_until: SimDuration::ZERO,
            next_audio: SimDuration::ZERO,
            audio_seq: 0,
            fec_buf: Vec::new(),
            group_id: 0,
            thin_debt: 0.0,
            bucket: {
                // The burst must exceed the largest single frame (a
                // low-action keyframe at the top rung can reach ~16 KB);
                // a frame bigger than the burst could never be sent and
                // would livelock the stream.
                let mut b = TokenBucket::new(self.tfrc.allowed_bps(), 32_000.0);
                // Anchor refills to the stream start, not time zero.
                b.try_consume(now, 0);
                b
            },
            eos_sent: false,
            last_rate_eval: now,
            last_switch: now,
            tcp_bytes_acked_prev: 0,
            last_timeout_check: now,
            idle_until: SimTime::ZERO,
            blocked_need: u32::MAX,
            clip,
        }));
    }

    /// The schedule of `clip` at `rung`, nothing generated yet, on the
    /// rung's recycled storage.
    fn start_schedule(&mut self, clip: &Clip, rung: usize) -> LazySchedule {
        let enc = &clip.ladder.rungs()[rung];
        let seed = self
            .clip_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hash_name(&clip.name))
            .wrapping_add(rung as u64);
        let storage = std::mem::take(&mut self.scratch.frame_storage[rung]);
        LazySchedule::start(enc, clip.content, clip.duration, seed, storage)
    }

    fn pump_data(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        // Executable spec of `quiet_step`: debug builds still run the
        // pump and hold it to having emitted nothing.
        let idle = self.quiet_step(now, stack);
        if idle && !cfg!(debug_assertions) {
            return 0;
        }
        let emitted = self.pump_stream(now, stack);
        debug_assert!(!idle || emitted == 0, "pump emitted at {now:?} while idle");
        emitted
    }

    fn pump_stream(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let Some(mut stream) = self.stream.take() else {
            return 0;
        };
        let mut emitted = 0;
        // What the transport, not the media clock, stopped each loop on:
        // the bytes it refused.
        let mut audio_need = None;
        let mut video_need = None;
        self.evaluate_rate(now, stack, &mut stream);

        let media_clock = now.saturating_since(stream.play_epoch);
        let horizon = media_clock + self.cfg.buffer_lead;
        let rung_bps = f64::from(stream.clip.ladder.rungs()[stream.rung].total_bps);
        // Scalable Video Technology thinning applies to the rate-controlled
        // UDP path; TCP is governed by its own backpressure. Thinning to
        // ~85 % of the allowed rate leaves delivery margin so the surviving
        // frames arrive ahead of their deadlines and play smoothly —
        // "reduce the frame rate in a controlled fashion to maintain smooth
        // video" (paper, Section II.C).
        let thin_ratio = match stream.transport {
            TransportKind::Udp => (0.85 * self.tfrc.allowed_bps() / rung_bps).clamp(0.0, 1.0),
            TransportKind::Tcp => 1.0,
        };
        // UDP pacing follows the rate controller; TCP paces itself.
        stream.bucket.set_rate(self.tfrc.allowed_bps().max(8_000.0));

        // --- audio track (constant rate) ---
        let audio_bps = stream.clip.ladder.rungs()[stream.rung].audio_bps;
        let audio_bytes =
            (f64::from(audio_bps) * self.cfg.audio_interval.as_secs_f64() / 8.0) as u16;
        while stream.next_audio <= horizon && stream.next_audio < stream.clip.duration {
            let pkt = MediaPacket {
                kind: PacketKind::Audio,
                key: false,
                rung: stream.rung as u8,
                frame_index: stream.audio_seq,
                frag_index: 0,
                frag_count: 1,
                pts_micros: stream.next_audio.as_micros(),
                group_id: 0,
                seq: 0,
                payload_len: audio_bytes.max(8),
            };
            let wire = pkt.wire_len() as u32;
            let can_send = match stream.transport {
                TransportKind::Udp => stream.bucket.try_consume(now, wire),
                TransportKind::Tcp => {
                    // Staged bytes count against the socket window exactly
                    // as if each packet had been written eagerly.
                    stack.tcp_ref(self.data_tcp).send_capacity_left()
                        >= wire as usize + self.scratch.txbuf.len()
                }
            };
            if !can_send {
                audio_need = Some(wire);
                break;
            }
            let mut pkt = pkt;
            pkt.seq = self.bump_seq();
            self.transmit(&stream, pkt);
            self.stats.audio_packets += 1;
            emitted += 1;
            stream.audio_seq += 1;
            stream.next_audio += self.cfg.audio_interval;
        }

        // --- video frames ---
        while let Some(frame) = stream.schedule.frame(stream.next_frame) {
            if frame.pts > horizon {
                break;
            }
            // Scalable Video Technology: drop non-key frames when the
            // allowed rate is meaningfully below the rung's rate (small
            // transient dips are absorbed by the playout buffer).
            if !frame.key && thin_ratio < 0.90 {
                stream.thin_debt += 1.0 - thin_ratio;
                if stream.thin_debt >= 1.0 {
                    stream.thin_debt -= 1.0;
                    stream.next_frame += 1;
                    stream.sent_until = frame.pts;
                    self.stats.frames_thinned += 1;
                    emitted += 1;
                    continue;
                }
            }
            self.scratch.pkt_scratch.clear();
            packetize_frame_into(
                &frame,
                stream.rung as u8,
                stream.group_id,
                &mut self.scratch.pkt_scratch,
            );
            let wire: u32 = self
                .scratch
                .pkt_scratch
                .iter()
                .map(|p| p.wire_len() as u32)
                .sum();
            // Charge the FEC parity share up front so the pacing budget
            // covers every byte that will hit the wire.
            let wire_with_fec = if self.cfg.fec_group > 0 && stream.transport == TransportKind::Udp
            {
                wire + wire / self.cfg.fec_group as u32 + 8
            } else {
                wire
            };
            let can_send = match stream.transport {
                TransportKind::Udp => stream.bucket.try_consume(now, wire_with_fec),
                TransportKind::Tcp => {
                    stack.tcp_ref(self.data_tcp).send_capacity_left()
                        >= wire as usize + self.scratch.txbuf.len()
                }
            };
            if !can_send {
                video_need = Some(wire_with_fec);
                break;
            }
            for i in 0..self.scratch.pkt_scratch.len() {
                let mut pkt = self.scratch.pkt_scratch[i];
                pkt.seq = self.bump_seq();
                self.transmit(&stream, pkt);
                if self.cfg.fec_group > 0 && stream.transport == TransportKind::Udp {
                    stream.fec_buf.push(pkt);
                    if stream.fec_buf.len() >= self.cfg.fec_group {
                        let mut parity = parity_packet(stream.group_id, &stream.fec_buf);
                        parity.seq = self.bump_seq();
                        self.transmit(&stream, parity);
                        self.stats.parity_packets += 1;
                        stream.fec_buf.clear();
                        stream.group_id += 1;
                    }
                }
            }
            self.stats.frames_sent += 1;
            emitted += 1;
            stream.next_frame += 1;
            stream.sent_until = frame.pts;
        }

        // The loop stopped on this frame (past the horizon, or refused) or
        // on the clip's end: either way it is already generated.
        let upcoming = stream.schedule.frame(stream.next_frame);

        // --- end of stream ---
        if !stream.eos_sent && upcoming.is_none() && stream.next_audio >= stream.clip.duration {
            let mut pkt = MediaPacket {
                kind: PacketKind::EndOfStream,
                key: false,
                rung: stream.rung as u8,
                frame_index: 0,
                frag_index: 0,
                frag_count: 1,
                pts_micros: stream.clip.duration.as_micros(),
                group_id: 0,
                seq: 0,
                payload_len: 0,
            };
            pkt.seq = self.bump_seq();
            self.transmit(&stream, pkt);
            stream.eos_sent = true;
            emitted += 1;
        }

        self.flush_txbuf(stack);
        self.flush_udp(stack);
        // Retrying a refused frame is itself work when it thins: every
        // try accrues `thin_debt`. Such a pump claims nothing.
        let retry_thins =
            video_need.is_some() && thin_ratio < 0.90 && upcoming.is_some_and(|f| !f.key);
        stream.blocked_need = audio_need
            .unwrap_or(u32::MAX)
            .min(video_need.unwrap_or(u32::MAX));
        stream.idle_until = if retry_thins {
            SimTime::ZERO
        } else {
            // Each loop ran to the horizon or to a refusal, so the next
            // thing the pump does — short of the transport relenting,
            // which is not a clock edge: the staged bytes are flushed, so
            // a refused item needs `blocked_need` on its own — is the
            // earliest of: the next rate evaluation, the next audio
            // packet or frame coming inside the buffer lead.
            let lead = self.cfg.buffer_lead;
            let mut until = stream.last_rate_eval + self.cfg.rate_eval_period;
            if audio_need.is_none() && stream.next_audio < stream.clip.duration {
                until = until.min(stream.play_epoch + stream.next_audio.saturating_sub(lead));
            }
            if let (None, Some(frame)) = (video_need, upcoming) {
                until = until.min(stream.play_epoch + frame.pts.saturating_sub(lead));
            }
            until
        };
        self.stream = Some(stream);
        emitted
    }

    /// Hands the pump's staged TCP bytes to the socket as one shared
    /// chunk. Capacity was reserved per packet as it was staged, so the
    /// socket accepts the whole buffer (modulo the same tail truncation an
    /// unchecked eager write would have hit).
    fn flush_txbuf(&mut self, stack: &mut Stack) {
        if self.scratch.txbuf.is_empty() {
            return;
        }
        let chunk = self.scratch.payload_pool.copy_in(&self.scratch.txbuf);
        stack.tcp(self.data_tcp).send_bytes(chunk);
        self.scratch.txbuf.clear();
    }

    /// Sends the pump's staged datagrams: one shared backing allocation,
    /// each datagram a zero-copy slice of it. Queue order and simulated
    /// time are exactly those of per-packet eager sends.
    fn flush_udp(&mut self, stack: &mut Stack) {
        if self.scratch.udp_bounds.is_empty() {
            return;
        }
        let backing = self.scratch.payload_pool.copy_in(&self.scratch.udp_scratch);
        for (dst, start, len) in self.scratch.udp_bounds.drain(..) {
            stack
                .udp(self.udp)
                .send_to(dst, backing.slice(start..start + len));
        }
        self.scratch.udp_scratch.clear();
    }

    fn evaluate_rate(&mut self, now: SimTime, stack: &mut Stack, stream: &mut ActiveStream) {
        if now.saturating_since(stream.last_rate_eval) < self.cfg.rate_eval_period {
            return;
        }
        let dt = now.saturating_since(stream.last_rate_eval).as_secs_f64();
        stream.last_rate_eval = now;

        // Feedback starvation on UDP halves the rate.
        if stream.transport == TransportKind::Udp {
            let last = self.tfrc.last_report().unwrap_or(stream.play_epoch);
            if now.saturating_since(last) > self.cfg.report_timeout
                && now.saturating_since(stream.last_timeout_check) > self.cfg.report_timeout
            {
                self.tfrc.on_report_timeout();
                stream.last_timeout_check = now;
            }
        }

        // Rung selection with hysteresis: switch down on clear evidence the
        // current rate cannot be sustained; step up one rung at a time when
        // the path has comfortably supported more for a while.
        let rungs = stream.clip.ladder.rungs();
        let cur_bps = f64::from(rungs[stream.rung].total_bps);
        let next_bps = rungs.get(stream.rung + 1).map(|r| f64::from(r.total_bps));
        let held = now.saturating_since(stream.last_switch) >= self.cfg.switch_hold;

        match stream.transport {
            TransportKind::Udp => {
                let allowed = self.tfrc.allowed_bps();
                if allowed < cur_bps * 0.85 {
                    let desired = stream.clip.ladder.select(allowed);
                    if desired < stream.rung {
                        self.switch_rung(now, stream, desired);
                        self.stats.switches_down += 1;
                    }
                } else if let Some(next_bps) = next_bps {
                    if allowed > next_bps * 1.15 && held && stream.rung < stream.max_rung {
                        let next = stream.rung + 1;
                        self.switch_rung(now, stream, next);
                        self.stats.switches_up += 1;
                    }
                }
            }
            TransportKind::Tcp => {
                let acked = stack.tcp_ref(self.data_tcp).stats().bytes_acked;
                let measured = (acked - stream.tcp_bytes_acked_prev) as f64 * 8.0 / dt.max(0.1);
                stream.tcp_bytes_acked_prev = acked;
                let backlog = stack.tcp_ref(self.data_tcp).unacked_and_unsent();
                // A large standing backlog means TCP cannot drain what we
                // offer: the measured rate is the path's real capacity. An
                // empty backlog means the offered (media) rate understates
                // the path, so the only down-signal is the backlog itself.
                if backlog > 32 * 1024 && measured > 1_000.0 && measured < cur_bps * 0.85 {
                    let desired = stream.clip.ladder.select(measured);
                    if desired < stream.rung {
                        self.switch_rung(now, stream, desired);
                        self.stats.switches_down += 1;
                    }
                } else if backlog < 4 * 1024
                    && next_bps.is_some()
                    && held
                    && stream.rung < stream.max_rung
                {
                    let next = stream.rung + 1;
                    self.switch_rung(now, stream, next);
                    self.stats.switches_up += 1;
                }
            }
        }
    }

    fn switch_rung(&mut self, now: SimTime, stream: &mut ActiveStream, rung: usize) {
        let from = stream.rung as u8;
        trace::emit(now, || TraceEvent::ServerRungSwitch {
            from,
            to: rung as u8,
        });
        debug_assert_ne!(
            rung, stream.rung,
            "the streaming rung has no parked schedule"
        );
        let resumed = match self.scratch.rung_schedules[rung].take() {
            Some(parked) => parked,
            None => self.start_schedule(&stream.clip, rung),
        };
        let left = std::mem::replace(&mut stream.schedule, resumed);
        self.scratch.rung_schedules[stream.rung] = Some(left);
        stream.rung = rung;
        stream.next_frame = stream.schedule.first_frame_at(stream.sent_until);
        stream.fec_buf.clear();
        stream.thin_debt = 0.0;
        stream.last_switch = now;
    }

    fn transmit(&mut self, stream: &ActiveStream, pkt: MediaPacket) {
        self.stats.bytes_sent += pkt.wire_len() as u64;
        if pkt.kind == PacketKind::Video {
            self.stats.video_packets += 1;
        }
        match stream.transport {
            TransportKind::Udp => {
                let dst = stream.client_udp.expect("UDP stream has client address");
                let start = self.scratch.udp_scratch.len();
                pkt.encode_into(&mut self.scratch.udp_scratch);
                self.scratch.udp_bounds.push((dst, start, pkt.wire_len()));
            }
            TransportKind::Tcp => {
                // Staged; flushed once at the end of the pump.
                pkt.encode_into(&mut self.scratch.txbuf);
            }
        }
    }

    fn bump_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_media::{ContentKind, FrameSchedule};
    use rv_rtsp::{Message, Method};

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
        let mut core = ServerCore {
            catalog: Catalog::new(),
            prefers_udp: true,
            data_udp_port: 6970,
            capacity: 0,
            occupancy: 0,
            admission_rejects: 0,
            client_max_bps: None,
            negotiated: None,
            pending_play: None,
            pending_teardown: false,
            pending_reports: Vec::new(),
        };
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
        let mut core = ServerCore {
            catalog: Catalog::new(),
            prefers_udp: true,
            data_udp_port: 6970,
            capacity: 2,
            occupancy: 2,
            admission_rejects: 0,
            client_max_bps: None,
            negotiated: None,
            pending_play: None,
            pending_teardown: false,
            pending_reports: Vec::new(),
        };
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
        let mut core = ServerCore {
            catalog,
            prefers_udp: true,
            data_udp_port: 6970,
            capacity: 0,
            occupancy: 0,
            admission_rejects: 0,
            client_max_bps: None,
            negotiated: None,
            pending_play: None,
            pending_teardown: false,
            pending_reports: Vec::new(),
        };
        assert!(core.describe("rtsp://s/c.rm").is_none());
        core.catalog.set_available("c.rm", true);
        assert!(core.describe("rtsp://s/c.rm").is_some());
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

    const URL: &str = "rtsp://s/c.rm";

    /// Hands the server one RTSP request as if its control socket had
    /// just delivered the bytes.
    fn request(server: &mut RealServer, msg: Message) {
        server.scratch.decoder.feed(&msg.encode());
    }

    /// SETUP (TCP) + PLAY under the server's `n`th session id.
    fn play(server: &mut RealServer, n: u32) {
        let setup = Message::request(Method::Setup, URL)
            .with_header("Transport", TransportSpec::tcp().encode());
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
        let (mut stack, ctrl, data, udp) = listening_stack();
        let mut catalog = Catalog::new();
        catalog.add(Clip::new("c.rm", duration, ContentKind::News));
        let mut server =
            RealServer::new(cfg, catalog, ctrl, data, udp, 7, ServerScratch::default());
        request(
            &mut server,
            Message::request(Method::Describe, URL).with_header_display("Bandwidth", client_bps),
        );
        play(&mut server, 1);
        // Three requests handled, one PLAY applied, the lead pumped.
        assert!(server.poll(SimTime::ZERO, &mut stack) > 4);
        assert!(server.is_streaming());
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
        let stream = server.stream.as_mut().expect("streaming");
        stream.transport = TransportKind::Udp;
        stream.client_udp = Some(Addr::new(rv_net::HostId(0), 5002));
    }

    fn blocked_need(server: &RealServer) -> u32 {
        server.stream.as_ref().expect("streaming").blocked_need
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
            let until = server.idle_until();
            assert!(until > now, "claim {until:?} not ahead of {now:?}");
            // One tick short of the claim: nothing to do (debug builds
            // still run the pump here and assert it emitted nothing).
            assert_eq!(server.poll(until - TICK, &mut stack), 0);
            assert_eq!(server.idle_until(), until);
            now = until;
            server.poll(now, &mut stack);
            claims += 1;
        }
        // The transport blocked, not the clip.
        assert!(claims > 20, "only {claims} unblocked pumps");
        assert!(server.is_streaming());
        assert!(now < SimTime::from_secs(30), "never blocked");
        let need = blocked_need(&server) as usize;
        assert!(stack.tcp_ref(server.data_tcp).send_capacity_left() < need);
        assert!(need < 16 * 1024);

        // Blocked, the pump still claims a clock edge — the earliest thing
        // it does not owe yet — and walks edge to edge sending nothing.
        for _ in 0..40 {
            let until = server.idle_until();
            assert!(until > now && until <= now + cfg.rate_eval_period);
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
        let until = server.idle_until();
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
            let bucket = &server.stream.as_ref().expect("streaming").bucket;
            let fits = bucket.clone().covers(now, need);
            // The step is the refill, and its answer is the bucket's.
            assert_eq!(server.quiet_step(now, &stack), !fits);
            let bucket = &mut server.stream.as_mut().expect("streaming").bucket;
            assert_eq!(bucket.next_ready(now, need) <= now, fits);
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
        let rate = server.stream.as_ref().expect("streaming").bucket.rate_bps();

        // A lossy report lands one tick later: the bucket cannot yet
        // cover the need, but the claim was made at the old rate — the
        // pump runs in full and re-rates the bucket.
        now += TICK;
        request(
            &mut server,
            Message::request(Method::SetParameter, URL)
                .with_header(REPORT_PARAM, "0.200000:40000.0"),
        );
        assert!(now < server.idle_until());
        server.poll(now, &mut stack);
        let stream = server.stream.as_ref().expect("streaming");
        assert!(stream.bucket.rate_bps() < rate / 2.0);

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
            if stream.blocked_need == u32::MAX {
                continue;
            }
            let rung_bps = f64::from(stream.clip.ladder.rungs()[stream.rung].total_bps);
            let thins = !frame.key && 0.85 * allowed_bps / rung_bps < 0.90;
            if thins {
                assert_eq!(stream.idle_until, SimTime::ZERO);
                thinning += 1;
            } else {
                assert!(now < stream.idle_until);
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
        assert!(now < server.idle_until());

        // A new PLAY while idle: the fresh stream pumps on this very poll.
        let audio = server.stats().audio_packets;
        play(&mut server, 2);
        assert!(server.poll(now, &mut stack) > 3);
        assert!(server.stats().audio_packets > audio);

        // TEARDOWN while idle: handled and applied now, and with the
        // stream goes its claim.
        assert!(now < server.idle_until());
        request(&mut server, Message::request(Method::Teardown, URL));
        assert_eq!(server.poll(now, &mut stack), 2);
        assert!(!server.is_streaming());
        assert_eq!(server.idle_until(), SimTime::ZERO);

        play(&mut server, 3);
        server.poll(now, &mut stack);
        assert!(now < server.idle_until());
        server.crash(&mut stack);
        assert_eq!(server.idle_until(), SimTime::ZERO);
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
        let eval = SimTime::ZERO + cfg.rate_eval_period;
        while now < eval {
            assert_eq!(server.stats().switches_down, 0);
            let until = server.idle_until();
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
            let until = server.idle_until();
            assert!(until > now && until <= now + cfg.rate_eval_period);
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
        server.start_schedule(&clip, rung).finish()
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
        let (_, next_frame, generated, _) = server.debug_stream().expect("streaming");
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
            let mut stream = server.stream.take().expect("streaming");
            server.switch_rung(now, &mut stream, rung);
            // A rate evaluation sits inside a pump, which ends by claiming
            // afresh from the new schedule.
            stream.idle_until = SimTime::ZERO;
            let landed = (stream.next_frame, stream.sent_until);
            server.stream = Some(stream);
            landed
        }

        let (mut server, mut stack) =
            streaming_clip(short_lead(), 300_000, SimDuration::from_secs(600));
        let a = server.current_rung().expect("streaming");
        let b = a - 1;
        let whole_a = whole_table(&mut server, a);
        let whole_b = whole_table(&mut server, b);
        let mut now = SimTime::from_millis(10);
        let (_, next_a, generated_a, _) = server.debug_stream().expect("streaming");
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
        assert_eq!(server.debug_stream().expect("streaming").2, generated_a);

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
        assert_eq!(server.debug_stream().expect("streaming").2, next + 1);
        let (next, _) = switch(&mut server, now, b);
        assert_eq!(next, whole_b.first_frame_at(sent_until));
    }

    #[test]
    fn every_way_a_stream_dies_keeps_its_frame_storage() {
        use rv_transport::{TcpFlags, TcpSegment};

        /// How many rungs hold recycled storage.
        fn stored(server: &RealServer) -> usize {
            let storage = &server.scratch.frame_storage;
            assert!(storage.iter().all(Vec::is_empty), "storage holds frames");
            storage.iter().filter(|v| v.capacity() > 0).count()
        }
        /// A second rung visited, so the stream holds two schedules.
        fn visit_two_rungs(server: &mut RealServer) {
            let mut stream = server.stream.take().expect("streaming");
            let down = stream.rung - 1;
            server.switch_rung(SimTime::from_millis(5), &mut stream, down);
            server.stream = Some(stream);
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
        assert!(!server.is_streaming());
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
        assert!(server.is_streaming());
        visit_two_rungs(&mut server);
        let scratch = server.into_scratch();
        assert!(scratch.rung_schedules.is_empty());
        assert!(scratch.frame_storage.iter().all(Vec::is_empty));
        // Five streams over the same two rungs grew nothing after the first.
        assert_eq!(scratch.frame_capacity(), warm);
    }

    #[test]
    fn report_arriving_while_the_pump_is_idle_is_applied_on_that_poll() {
        let (mut server, mut stack) = streaming(short_lead(), 300_000);
        let now = SimTime::from_millis(10);
        let until = server.idle_until();
        assert!(now < until);
        request(
            &mut server,
            Message::request(Method::SetParameter, URL)
                .with_header(REPORT_PARAM, "0.050000:120000.0"),
        );
        // One request handled, one report applied, nothing pumped.
        assert_eq!(server.poll(now, &mut stack), 2);
        assert_eq!(server.tfrc.last_report(), Some(now));
        assert_eq!(server.idle_until(), until);
    }

    #[test]
    fn core_collects_reports() {
        let mut core = ServerCore {
            catalog: Catalog::new(),
            prefers_udp: true,
            data_udp_port: 6970,
            capacity: 0,
            occupancy: 0,
            admission_rejects: 0,
            client_max_bps: None,
            negotiated: None,
            pending_play: None,
            pending_teardown: false,
            pending_reports: Vec::new(),
        };
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
            format!("{:?}", s.bucket),
            s.thin_debt.to_bits(),
            (s.next_frame, s.next_audio, s.audio_seq, s.rung),
            (s.last_rate_eval, s.last_switch, s.last_timeout_check),
            (s.idle_until, s.blocked_need),
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
                                .with_header(REPORT_PARAM, report.encode()),
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
                    if stream.blocked_need == u32::MAX {
                        stream.bucket.set_rate(server.tfrc.allowed_bps().max(8_000.0));
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
                let eval = Some(s.last_rate_eval + server.cfg.rate_eval_period);
                for edge in [audio, frame, eval].into_iter().flatten() {
                    if edge > now {
                        proptest::prop_assert!(s.idle_until <= edge);
                    } else {
                        proptest::prop_assert!(s.blocked_need != u32::MAX, "owed at {:?}, unclaimed", edge);
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
