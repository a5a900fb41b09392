//! The instrumented streaming client (the RealTracer equivalent).
//!
//! Drives one clip session end to end: control-connection setup, DESCRIBE
//! with the player's bandwidth setting, transport negotiation (honoring the
//! user's preference and firewall), PLAY, data reception through the
//! [`rv_player::Player`], periodic receiver reports on UDP sessions, and
//! TEARDOWN after the watch limit — recording the per-clip statistics the
//! study analyzes.

use rv_media::{Clip, Encoding, MediaPacket, StreamDepacketizer};
use rv_net::Addr;
use rv_player::{Player, PlayoutConfig, PlayoutEvent, PlayoutState};
use rv_rtsp::{
    ClientEvent, ClientSession, Decoder, FirewallPolicy, OutOfOrder, Status, TransportKind,
    TransportPreference, TransportSpec,
};
use rv_server::{ReceiverReport, REPORT_PARAM};
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{SimDuration, SimTime, APP_TICK};
use rv_transport::{Stack, TcpError, TcpHandle, UdpHandle};

use crate::metrics::{finalize, SessionMetrics, SessionOutcome};

/// One server replica the gateway can route a session to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayEndpoint {
    /// Replica index at the site (0 = the primary).
    pub replica: u8,
    /// RTSP control endpoint.
    pub ctrl: Addr,
    /// TCP data endpoint.
    pub data: Addr,
}

/// Client-side configuration for one session.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The clip URL, e.g. `rtsp://server/news1.rm`.
    pub url: String,
    /// The user's transport preference (RealPlayer default: Auto).
    pub transport_pref: TransportPreference,
    /// The client-side firewall.
    pub firewall: FirewallPolicy,
    /// The RealPlayer "connection speed" setting, bits/second.
    pub max_bandwidth_bps: u32,
    /// Decode-speed factor of the user's PC (1.0 = typical new PC).
    pub cpu_power: f64,
    /// How long to watch before moving on (RealTracer default: 1 minute).
    pub watch_limit: SimDuration,
    /// Abort a session that has not finished by this wall age.
    pub session_timeout: SimDuration,
    /// Playout engine parameters.
    pub playout: PlayoutConfig,
    /// Local UDP data port.
    pub udp_port: u16,
    /// Server control endpoint.
    pub server_ctrl: Addr,
    /// Server TCP data endpoint.
    pub server_data: Addr,
    /// Receiver-report interval for UDP sessions.
    pub report_interval: SimDuration,
    /// Give up on a TCP connect (control or data) after this long. Far
    /// beyond any fault-free handshake (worst case a few lost SYNs retry
    /// at 3/9/21 s) but well inside the session deadline.
    pub connect_timeout: SimDuration,
    /// Give up waiting for an RTSP response after this long. TCP keeps
    /// retransmitting the request, so fault-free silence this long would
    /// need several consecutive RTO losses.
    pub response_timeout: SimDuration,
    /// After PLAY on UDP: if *nothing at all* arrives for this long, the
    /// path black-holes datagrams — fall back to TCP.
    pub data_timeout: SimDuration,
    /// After data has flowed: a stream silent for this long is dead; the
    /// user gives up (the paper's abandoned-rebuffer behavior).
    pub stall_limit: SimDuration,
    /// Full-session retry budget after connection failures.
    pub max_retries: u8,
    /// First retry backoff; doubles per retry.
    pub retry_backoff: SimDuration,
    /// Backoff ceiling.
    pub retry_backoff_cap: SimDuration,
    /// The gateway's routing plan: replica endpoints in preference
    /// order. Empty (the default) disables gateway behavior entirely —
    /// the client speaks only to `server_ctrl`/`server_data`, the
    /// legacy single-server path.
    pub gateway: Vec<GatewayEndpoint>,
    /// Maximum gateway redirects (replica hops) per session.
    pub max_hops: u8,
}

impl ClientConfig {
    /// Sensible defaults given the two server endpoints.
    pub fn new(url: &str, server_ctrl: Addr, server_data: Addr) -> Self {
        ClientConfig {
            url: url.to_string(),
            transport_pref: TransportPreference::Auto,
            firewall: FirewallPolicy::Open,
            max_bandwidth_bps: 300_000,
            cpu_power: 1.0,
            watch_limit: SimDuration::from_secs(60),
            session_timeout: SimDuration::from_secs(120),
            playout: PlayoutConfig::default(),
            udp_port: 5002,
            server_ctrl,
            server_data,
            report_interval: SimDuration::from_secs(1),
            connect_timeout: SimDuration::from_secs(45),
            response_timeout: SimDuration::from_secs(20),
            data_timeout: SimDuration::from_secs(6),
            stall_limit: SimDuration::from_secs(20),
            max_retries: 3,
            retry_backoff: SimDuration::from_secs(1),
            retry_backoff_cap: SimDuration::from_secs(8),
            gateway: Vec::new(),
            max_hops: 4,
        }
    }
}

/// Where the client is in its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Connecting,
    Describing,
    SettingUp,
    ConnectingData,
    Starting,
    Playing,
    TearingDown,
    /// Backing off before a retry attempt.
    Waiting,
    Done,
}

impl Phase {
    /// Stable phase name used by the `client_phase` trace event.
    fn label(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Connecting => "connecting",
            Phase::Describing => "describing",
            Phase::SettingUp => "setting_up",
            Phase::ConnectingData => "connecting_data",
            Phase::Starting => "starting",
            Phase::Playing => "playing",
            Phase::TearingDown => "tearing_down",
            Phase::Waiting => "waiting",
            Phase::Done => "done",
        }
    }
}

/// Recyclable client storage: every per-attempt component a
/// [`TracerClient`] holds for its whole life — the RTSP session, the
/// control decoder and staging buffer, the player, the TCP depacketizer,
/// the playout event log, the described ladder, the config's strings —
/// handed back as it was from [`TracerClient::into_scratch`] for the
/// next session's client, which renews each component
/// (`ClientScratch::renew`). Only capacity carries over, so a client
/// built on a retired client's scratch behaves bit-identically to one
/// built on `ClientScratch::default()`.
#[derive(Debug, Default)]
pub struct ClientScratch {
    session: ClientSession,
    decoder: Decoder,
    events: Vec<PlayoutEvent>,
    /// Reused staging buffer for outgoing control messages.
    encode_buf: Vec<u8>,
    player: Player,
    depkt: StreamDepacketizer,
    /// The ladder the DESCRIBE answer listed, ascending; empty until one
    /// parsed this attempt.
    ladder: Vec<Encoding>,
    /// The retired stack this client ran on.
    /// [`client_endpoint`](crate::client_endpoint) renews it for the next
    /// session, `SessionWorld::retire` puts it back.
    pub stack: Stack,
    /// The retired config's URL and gateway list, which
    /// [`ClientScratch::config`] empties.
    url: String,
    gateway: Vec<GatewayEndpoint>,
}

impl ClientScratch {
    /// [`ClientConfig::new`] with an empty URL, on the storage of the
    /// config the last client ran with: write the URL into `url` and the
    /// gateway plan into `gateway`, and neither allocates what the last
    /// session's did not outgrow.
    pub fn config(&mut self, server_ctrl: Addr, server_data: Addr) -> ClientConfig {
        let mut url = std::mem::take(&mut self.url);
        let mut gateway = std::mem::take(&mut self.gateway);
        url.clear();
        gateway.clear();
        ClientConfig {
            url,
            gateway,
            ..ClientConfig::new("", server_ctrl, server_data)
        }
    }

    /// Bytes of storage the player, depacketizer and event log hold:
    /// what a test of the recycling contract reads to see that a warm
    /// session grew none.
    pub fn player_bytes(&self) -> usize {
        self.player.retained_bytes()
            + self.depkt.retained_bytes()
            + self.events.capacity() * std::mem::size_of::<PlayoutEvent>()
    }

    /// Bytes of storage held, the retired stack's included: what this
    /// scratch carries into the next session.
    pub fn retained_bytes(&self) -> usize {
        self.player_bytes()
            + self.session.retained_bytes()
            + self.decoder.retained_bytes()
            + self.encode_buf.capacity()
            + self.stack.retained_bytes()
    }

    /// Returns every per-attempt component to the state a client for
    /// `cfg` starts an attempt in, keeping its storage: the one scrub,
    /// run by [`TracerClient::new`] and at every relaunch.
    fn renew(&mut self, cfg: &ClientConfig) {
        self.session.renew(&cfg.url);
        self.decoder.renew();
        self.events.clear();
        self.encode_buf.clear();
        self.player.renew(cfg.playout, cfg.cpu_power);
        self.depkt.renew();
        self.ladder.clear();
    }
}

/// The instrumented client.
#[derive(Debug)]
pub struct TracerClient {
    cfg: ClientConfig,
    ctrl: TcpHandle,
    data_tcp: TcpHandle,
    udp: UdpHandle,
    phase: Phase,
    transport: Option<TransportKind>,
    start_time: Option<SimTime>,
    play_start: Option<SimTime>,
    last_report: SimTime,
    last_rung: u8,
    /// Last rung observed by the flight recorder this attempt; `None`
    /// until the first media packet, so the initial rung is not reported
    /// as a switch. Pure observation — never read by session logic.
    rung_seen: Option<u8>,
    outcome: Option<SessionOutcome>,
    metrics: Option<SessionMetrics>,
    /// When the current phase was entered (drives connect/response timers).
    phase_entered: SimTime,
    /// When the last media packet arrived in the current attempt.
    last_data: Option<SimTime>,
    /// Full-session retry attempts consumed.
    retries: u8,
    /// Current retry backoff (doubles per retry up to the cap).
    backoff: SimDuration,
    /// When the next retry attempt may launch.
    next_retry_at: Option<SimTime>,
    /// Whether the session renegotiated UDP down to TCP.
    fell_back: bool,
    /// Index into `cfg.gateway` of the replica currently targeted.
    hop: usize,
    /// Gateway redirects consumed (bounded by `cfg.max_hops`).
    hops_used: u8,
    /// Gateway redirects, any reason (busy, crash, dead).
    gateway_redirects: u64,
    /// Redirects caused by a crashed or dead replica (subset of
    /// `gateway_redirects`).
    failovers: u64,
    /// 453 admission rejections this client was handed at SETUP.
    admission_rejects: u64,
    /// When the first crash-driven redirect happened; anchors the
    /// failover recovery-time measurement.
    first_failover_at: Option<SimTime>,
    /// Time from the first crash-driven redirect to the first media
    /// packet of a later attempt — how long failover took to heal.
    failover_recovery: Option<SimDuration>,
    /// Whether the resilient FSM (timeouts, retries, stall detection,
    /// transport fallback) is armed. Off by default: an unhardened
    /// client rides out any trouble to its watch limit, which is
    /// exactly the legacy behavior fault-free campaigns are
    /// bit-compatible with. The harness hardens the client when it arms
    /// a non-empty fault plan.
    hardened: bool,
    scratch: ClientScratch,
}

impl TracerClient {
    /// Creates a client over pre-created sockets (`ctrl` and `data_tcp`
    /// unconnected TCP sockets, `udp` bound to `cfg.udp_port`). `scratch`
    /// is a retired client's storage, or `ClientScratch::default()` for a
    /// cold start — behavior is identical either way.
    pub fn new(
        cfg: ClientConfig,
        ctrl: TcpHandle,
        data_tcp: TcpHandle,
        udp: UdpHandle,
        mut scratch: ClientScratch,
    ) -> Self {
        scratch.renew(&cfg);
        let backoff = cfg.retry_backoff;
        TracerClient {
            cfg,
            ctrl,
            data_tcp,
            udp,
            phase: Phase::Idle,
            transport: None,
            start_time: None,
            play_start: None,
            last_report: SimTime::ZERO,
            last_rung: 0,
            rung_seen: None,
            outcome: None,
            metrics: None,
            phase_entered: SimTime::ZERO,
            last_data: None,
            retries: 0,
            backoff,
            next_retry_at: None,
            fell_back: false,
            hop: 0,
            hops_used: 0,
            gateway_redirects: 0,
            failovers: 0,
            admission_rejects: 0,
            first_failover_at: None,
            failover_recovery: None,
            hardened: false,
            scratch,
        }
    }

    /// Retires this client, harvesting its components and its config's
    /// strings for the next session's client, which renews them.
    pub fn into_scratch(self) -> ClientScratch {
        let mut scratch = self.scratch;
        scratch.url = self.cfg.url;
        scratch.gateway = self.cfg.gateway;
        scratch
    }

    /// Arms the resilient FSM: connect/response timeouts, bounded
    /// retries with backoff, stall detection, and UDP→TCP fallback.
    ///
    /// Sessions with a scheduled fault plan run hardened; fault-free
    /// sessions stay unhardened and reproduce the legacy client's
    /// behavior (watch to the limit, whatever the path does) bit for
    /// bit.
    pub fn harden(&mut self) {
        self.hardened = true;
    }

    /// How many full-session retries this client has consumed.
    pub fn retries(&self) -> u8 {
        self.retries
    }

    /// Whether the session fell back from UDP to TCP.
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Gateway redirects this session performed, for any reason.
    pub fn gateway_redirects(&self) -> u64 {
        self.gateway_redirects
    }

    /// Redirects caused by a crashed or dead replica.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// 453 admission rejections this client received at SETUP.
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects
    }

    /// The replica currently targeted plus its control and data
    /// endpoints. Without a gateway plan this is the configured
    /// single server, reported as replica 0.
    fn current_endpoint(&self) -> (u8, Addr, Addr) {
        match self.cfg.gateway.get(self.hop) {
            Some(e) => (e.replica, e.ctrl, e.data),
            None => (0, self.cfg.server_ctrl, self.cfg.server_data),
        }
    }

    /// `true` when the session has fully finished.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The finished session's record (once done).
    pub fn metrics(&self) -> Option<&SessionMetrics> {
        self.metrics.as_ref()
    }

    /// The playout events recorded so far (played and dropped frames).
    pub fn events(&self) -> &[PlayoutEvent] {
        &self.scratch.events
    }

    /// The negotiated data transport, once known.
    pub fn transport(&self) -> Option<TransportKind> {
        self.transport
    }

    /// Advances the client at `now`. Returns how many units of work it
    /// performed (control messages handled, phase transitions, media
    /// packets consumed, playout events) so drivers can feed client
    /// progress into their settle fixed point uniformly with the stacks
    /// and the network.
    pub fn poll(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        if self.phase == Phase::Done {
            return 0;
        }
        let mut work = 0;
        if self.phase == Phase::Idle {
            self.start(now, stack);
            work += 1;
        }
        // Safety timeout: a wedged session still yields a record,
        // classified by where it wedged — silence after PLAY is data
        // starvation, silence before it is a control-channel failure.
        if let Some(start) = self.start_time {
            if now.saturating_since(start) >= self.cfg.session_timeout {
                let outcome = self.outcome.unwrap_or(match self.phase {
                    Phase::Playing => SessionOutcome::Starved,
                    _ => SessionOutcome::TimedOut,
                });
                self.finish(now, outcome);
                return work + 1;
            }
        }
        if self.phase == Phase::Waiting {
            if self.next_retry_at.is_some_and(|t| now >= t) {
                self.next_retry_at = None;
                let (_, ctrl_addr, _) = self.current_endpoint();
                stack.tcp(self.ctrl).connect(ctrl_addr, now);
                self.set_phase(Phase::Connecting, now);
                work += 1;
            }
            return work;
        }
        work += self.watch_faults(now, stack);
        if matches!(self.phase, Phase::Done | Phase::Waiting) {
            return work;
        }

        work += self.pump_control(now, stack);
        if self.phase == Phase::Connecting && stack.tcp_ref(self.ctrl).is_established() {
            let speed = Some(self.cfg.max_bandwidth_bps);
            self.send_control(stack, |session, out| session.describe(speed, out));
            self.set_phase(Phase::Describing, now);
            work += 1;
        }
        if self.phase == Phase::ConnectingData && stack.tcp_ref(self.data_tcp).is_established() {
            self.send_control(stack, ClientSession::play);
            self.set_phase(Phase::Starting, now);
            work += 1;
        }
        if self.phase == Phase::Playing {
            work += self.pump_data(now, stack);
        }
        work
    }

    /// The instant strictly before which — with no new inbound packet — a
    /// poll provably does nothing; [`SimTime::ZERO`] makes no claim. Every
    /// phase but `Idle` (whose first poll starts the session) moves only on
    /// an inbound packet or a clock edge, and the earliest edge is known
    /// exactly:
    ///
    /// - `Done` never moves again: [`SimTime::MAX`].
    /// - `Waiting` launches the next attempt at `next_retry_at`.
    /// - The handshake and teardown phases wait on the control connection:
    ///   no claim while it holds unread bytes or while a connect it waits
    ///   on has completed unanswered, else no edge of their own.
    /// - `Playing` with all three sockets empty moves at the player's
    ///   [`Player::idle_until`], the next receiver report or the watch
    ///   limit.
    ///
    /// The session deadline bounds every phase, and a hardened client adds
    /// its fault watch's edges (see `watch_quiet_until`). Outside `Playing`
    /// the data and UDP queues do not matter: only `pump_data` reads them,
    /// and the PLAY reply that starts `Playing` is itself an inbound
    /// packet.
    pub fn quiet_until(&self, stack: &Stack) -> SimTime {
        let ctrl = stack.tcp_ref(self.ctrl);
        let mut until = match self.phase {
            Phase::Done => return SimTime::MAX,
            Phase::Idle => return SimTime::ZERO,
            Phase::Waiting => self.next_retry_at.unwrap_or(SimTime::MAX),
            Phase::Playing => {
                if ctrl.recv_available() != 0
                    || stack.tcp_ref(self.data_tcp).recv_available() != 0
                    || stack.udp_ref(self.udp).recv_queue_len() != 0
                {
                    return SimTime::ZERO;
                }
                let mut until = self.scratch.player.idle_until();
                if self.transport == Some(TransportKind::Udp) {
                    until = until.min(self.last_report + self.cfg.report_interval);
                }
                if let Some(play_start) = self.play_start {
                    until = until.min(play_start + self.cfg.watch_limit);
                }
                until
            }
            // A completed connect is acted on at the next poll.
            Phase::Connecting if ctrl.is_established() => return SimTime::ZERO,
            Phase::ConnectingData if stack.tcp_ref(self.data_tcp).is_established() => {
                return SimTime::ZERO
            }
            Phase::Connecting
            | Phase::Describing
            | Phase::SettingUp
            | Phase::ConnectingData
            | Phase::Starting
            | Phase::TearingDown => {
                if ctrl.recv_available() != 0 {
                    return SimTime::ZERO;
                }
                SimTime::MAX
            }
        };
        if let Some(start) = self.start_time {
            until = until.min(start + self.cfg.session_timeout);
        }
        if self.hardened {
            until = until.min(self.watch_quiet_until(stack));
        }
        until
    }

    /// The earliest instant [`TracerClient::watch_faults`] acts at, with no
    /// new inbound packet: the current phase's timeout edge, or now while
    /// a socket it watches holds an error.
    fn watch_quiet_until(&self, stack: &Stack) -> SimTime {
        let edge = match self.phase {
            Phase::Connecting | Phase::ConnectingData => {
                self.phase_entered + self.cfg.connect_timeout
            }
            Phase::Describing | Phase::SettingUp | Phase::Starting | Phase::TearingDown => {
                self.phase_entered + self.cfg.response_timeout
            }
            Phase::Playing => {
                let Some(quiet_since) = self.last_data.or(self.play_start) else {
                    return SimTime::ZERO;
                };
                let mut until = quiet_since + self.cfg.stall_limit;
                if self.awaits_first_datagram() {
                    until = until.min(quiet_since + self.cfg.data_timeout);
                }
                until
            }
            // The watch does not run.
            Phase::Idle | Phase::Waiting | Phase::Done => return SimTime::MAX,
        };
        if stack.tcp_ref(self.ctrl).has_error()
            || (self.watches_data() && stack.tcp_ref(self.data_tcp).has_error())
        {
            return SimTime::ZERO;
        }
        edge
    }

    /// Whether the fault watch reads the TCP data connection's error: once
    /// the stream rides it, from its connect until the stream ends.
    fn watches_data(&self) -> bool {
        self.transport == Some(TransportKind::Tcp)
            && matches!(
                self.phase,
                Phase::ConnectingData | Phase::Starting | Phase::Playing
            )
    }

    /// Whether a UDP stream has yet to deliver its first datagram, so
    /// that silence past `data_timeout` means the path black-holes them.
    fn awaits_first_datagram(&self) -> bool {
        self.transport == Some(TransportKind::Udp) && !self.fell_back && self.last_data.is_none()
    }

    fn set_phase(&mut self, phase: Phase, now: SimTime) {
        trace::emit(now, || TraceEvent::ClientPhase {
            phase: phase.label(),
        });
        self.phase = phase;
        self.phase_entered = now;
    }

    /// Flight-recorder hook: reports rung *changes* in the media stream
    /// (the first packet of an attempt establishes the baseline).
    #[inline]
    fn note_rung(&mut self, now: SimTime, rung: u8) {
        if let Some(prev) = self.rung_seen {
            if prev != rung {
                trace::emit(now, || TraceEvent::RungSwitch {
                    from: prev,
                    to: rung,
                });
            }
        }
        self.rung_seen = Some(rung);
    }

    /// Has the session `write` its next request into the reused staging
    /// buffer and queues it on the control connection — no per-message
    /// allocation. A request the session refuses as out of order (its
    /// state machine and this one's phases disagreeing) wrote nothing and
    /// sends nothing: the silence ends as any unanswered request does.
    fn send_control(
        &mut self,
        stack: &mut Stack,
        write: impl FnOnce(&mut ClientSession, &mut Vec<u8>) -> Result<(), OutOfOrder>,
    ) {
        self.scratch.encode_buf.clear();
        let scratch = &mut self.scratch;
        if write(&mut scratch.session, &mut scratch.encode_buf).is_ok() {
            stack.tcp(self.ctrl).send(&self.scratch.encode_buf);
        }
    }

    /// Detects connection errors and silent stalls; classifies them into
    /// an outcome and either retries or ends the session. Armed only on
    /// hardened clients: an unhardened session keeps the legacy
    /// never-give-up behavior, so campaigns without fault plans are
    /// bit-identical to builds that predate this machinery (the worst
    /// fault-free paths *do* stall past these thresholds naturally).
    fn watch_faults(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        if !self.hardened {
            return 0;
        }
        if let Some(err) = stack.tcp(self.ctrl).take_error() {
            return self.fail_or_reroute(now, stack, err);
        }
        if self.watches_data() {
            if let Some(err) = stack.tcp(self.data_tcp).take_error() {
                return self.fail_or_reroute(now, stack, err);
            }
        }
        let waited = now.saturating_since(self.phase_entered);
        match self.phase {
            Phase::Connecting | Phase::ConnectingData if waited >= self.cfg.connect_timeout => {
                self.retry_or_finish(now, stack, SessionOutcome::TimedOut)
            }
            Phase::Describing | Phase::SettingUp | Phase::Starting
                if waited >= self.cfg.response_timeout =>
            {
                self.retry_or_finish(now, stack, SessionOutcome::TimedOut)
            }
            Phase::TearingDown if waited >= self.cfg.response_timeout => {
                // The clip already played; a lost TEARDOWN reply costs
                // nothing.
                self.finish(now, self.outcome.unwrap_or(SessionOutcome::Played));
                1
            }
            Phase::Playing => {
                let quiet_since = self.last_data.or(self.play_start).unwrap_or(now);
                let quiet = now.saturating_since(quiet_since);
                if self.awaits_first_datagram() && quiet >= self.cfg.data_timeout {
                    // Nothing at all ever arrived on UDP: the path
                    // black-holes datagrams (NAT/firewall). Renegotiate
                    // TCP over the still-live control connection.
                    self.send_control(stack, |session, out| {
                        session.resetup(TransportSpec::tcp(), out)
                    });
                    trace::emit(now, || TraceEvent::TransportFallback);
                    self.fell_back = true;
                    self.transport = None;
                    self.set_phase(Phase::SettingUp, now);
                    return 1;
                }
                if quiet >= self.cfg.stall_limit {
                    self.finish(now, SessionOutcome::Starved);
                    return 1;
                }
                0
            }
            _ => 0,
        }
    }

    /// Consumes one retry (with exponential backoff) or, with the budget
    /// exhausted, ends the session with `reason`.
    fn retry_or_finish(
        &mut self,
        now: SimTime,
        stack: &mut Stack,
        reason: SessionOutcome,
    ) -> usize {
        if self.retries >= self.cfg.max_retries {
            self.finish(now, reason);
            return 1;
        }
        self.retries += 1;
        trace::emit(now, || TraceEvent::ClientRetry {
            attempt: u32::from(self.retries),
        });
        self.relaunch(now, stack);
        1
    }

    /// A transport-level connection error. With a gateway plan, errors
    /// that mean "this replica's server process is gone" (RST to a SYN,
    /// an established connection reset under us) fail over to the
    /// gateway's next choice while the hop budget lasts; anything else —
    /// or a client without a gateway — takes the legacy retry path
    /// against the same endpoint.
    fn fail_or_reroute(&mut self, now: SimTime, stack: &mut Stack, err: TcpError) -> usize {
        let reason = classify(err);
        if self.can_hop() {
            let tag = match err {
                TcpError::Refused => "dead",
                TcpError::Reset => "crash",
                // Silence is a path property, not a replica verdict.
                TcpError::ConnectTimeout => "",
            };
            if !tag.is_empty() {
                return self.redirect(now, stack, tag);
            }
        }
        self.retry_or_finish(now, stack, reason)
    }

    /// Whether the gateway plan has another replica to offer.
    fn can_hop(&self) -> bool {
        self.hops_used < self.cfg.max_hops && self.hop + 1 < self.cfg.gateway.len()
    }

    /// Redirects the session to the gateway's next choice: counts the
    /// hop, tears this attempt down, and relaunches after the standing
    /// backoff. Callers must check [`TracerClient::can_hop`] first.
    fn redirect(&mut self, now: SimTime, stack: &mut Stack, reason: &'static str) -> usize {
        let from = self.current_endpoint().0;
        self.hop += 1;
        self.hops_used += 1;
        self.gateway_redirects += 1;
        if reason != "busy" {
            self.failovers += 1;
            if self.first_failover_at.is_none() {
                self.first_failover_at = Some(now);
            }
        }
        let to = self.current_endpoint().0;
        trace::emit(now, || TraceEvent::GatewayRedirect { from, to, reason });
        self.relaunch(now, stack);
        1
    }

    /// Tears down the current attempt's connections and schedules a
    /// fresh attempt — against whatever [`TracerClient::current_endpoint`]
    /// now says — after the standing backoff.
    fn relaunch(&mut self, now: SimTime, stack: &mut Stack) {
        // Tear down this attempt's connections (RSTs tell a live server
        // to recycle its session) and flush any stale datagrams.
        stack.tcp(self.ctrl).abort();
        stack.tcp(self.data_tcp).abort();
        while stack.udp(self.udp).recv().is_some() {}
        // A fresh protocol stack for the next attempt; the wall clock
        // (start_time) and the retry/hop ledgers carry over.
        self.scratch.renew(&self.cfg);
        self.transport = None;
        self.rung_seen = None;
        self.play_start = None;
        self.last_data = None;
        self.outcome = None;
        self.next_retry_at = Some(now + self.backoff);
        self.backoff = (self.backoff + self.backoff).min(self.cfg.retry_backoff_cap);
        self.set_phase(Phase::Waiting, now);
    }

    fn start(&mut self, now: SimTime, stack: &mut Stack) {
        self.start_time = Some(now);
        if self.cfg.firewall == FirewallPolicy::BlockRtsp {
            // The paper excluded these users; the record says why.
            self.finish(now, SessionOutcome::Blocked);
            return;
        }
        let (replica, ctrl_addr, _) = self.current_endpoint();
        if !self.cfg.gateway.is_empty() {
            trace::emit(now, || TraceEvent::GatewayRoute { replica });
        }
        stack.tcp(self.ctrl).connect(ctrl_addr, now);
        self.set_phase(Phase::Connecting, now);
    }

    fn pump_control(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let mut handled = 0;
        let decoder = &mut self.scratch.decoder;
        stack
            .tcp(self.ctrl)
            .recv_with(usize::MAX, &mut |chunk| decoder.feed(chunk));
        loop {
            let msg = match self.scratch.decoder.next_message() {
                Ok(Some(msg)) => msg,
                Ok(None) => break,
                Err(_) => {
                    // A malformed control message cannot be resynchronized;
                    // end the session rather than stalling to the timeout.
                    self.finish(now, SessionOutcome::Failed);
                    return handled + 1;
                }
            };
            handled += 1;
            match self.scratch.session.on_response(&msg) {
                ClientEvent::Described(body) => {
                    // Only the ladder is read (at `finish`), parsed into
                    // the scratch's: a warm session allocates nothing.
                    let _ = Clip::parse_description_into(body, &mut self.scratch.ladder);
                    let spec = self.pick_transport();
                    self.send_control(stack, |session, out| session.setup(spec, out));
                    self.set_phase(Phase::SettingUp, now);
                }
                ClientEvent::Unavailable(status) => {
                    if status == Status::NOT_ENOUGH_BANDWIDTH {
                        // 453 from SETUP: the replica is at capacity,
                        // not missing the clip. Ask the gateway for its
                        // next choice; with the plan exhausted, the
                        // cluster is up but full — a typed rejection.
                        let replica = self.current_endpoint().0;
                        trace::emit(now, || TraceEvent::AdmissionReject { replica });
                        self.admission_rejects += 1;
                        if self.can_hop() {
                            self.redirect(now, stack, "busy");
                        } else {
                            self.finish(now, SessionOutcome::Rejected);
                        }
                        return handled;
                    }
                    self.finish(now, SessionOutcome::Unavailable);
                    return handled;
                }
                ClientEvent::SetUp(spec) => {
                    self.transport = Some(spec.kind);
                    match spec.kind {
                        TransportKind::Tcp => {
                            let (_, _, data_addr) = self.current_endpoint();
                            stack.tcp(self.data_tcp).connect(data_addr, now);
                            self.set_phase(Phase::ConnectingData, now);
                        }
                        TransportKind::Udp => {
                            self.send_control(stack, ClientSession::play);
                            self.set_phase(Phase::Starting, now);
                        }
                    }
                }
                ClientEvent::Started => {
                    self.play_start = Some(now);
                    self.last_report = now;
                    self.set_phase(Phase::Playing, now);
                }
                ClientEvent::TornDown => {
                    self.finish(now, self.outcome.unwrap_or(SessionOutcome::Played));
                    return handled;
                }
                // Tolerated, and the session state is unaffected: the
                // reply to a receiver report, or a stale response.
                ClientEvent::ReportAcked | ClientEvent::ProtocolError(_) => {}
            }
        }
        handled
    }

    fn pick_transport(&self) -> TransportSpec {
        let want_udp = match self.cfg.transport_pref {
            TransportPreference::ForceUdp => true,
            TransportPreference::ForceTcp => false,
            TransportPreference::Auto => self.cfg.firewall != FirewallPolicy::BlockUdp,
        };
        if want_udp {
            TransportSpec::udp(self.cfg.udp_port)
        } else {
            TransportSpec::tcp()
        }
    }

    /// Records a media-packet arrival: feeds the stall detector and, on
    /// the first packet after a crash-driven redirect, closes the
    /// failover recovery-time measurement.
    fn note_media(&mut self, now: SimTime) {
        self.last_data = Some(now);
        if self.failover_recovery.is_none() {
            if let Some(at) = self.first_failover_at {
                self.failover_recovery = Some(now.saturating_since(at));
            }
        }
    }

    fn pump_data(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let mut work = 0;
        // UDP datagrams: one media packet each.
        while let Some((_, data)) = stack.udp(self.udp).recv() {
            work += 1;
            if let Some((pkt, _)) = MediaPacket::decode(&data) {
                self.note_rung(now, pkt.rung);
                self.last_rung = pkt.rung;
                self.note_media(now);
                self.scratch.player.on_packet(now, pkt);
            }
        }
        // TCP stream: depacketize straight out of the receive rope —
        // no intermediate `Vec` between the socket and the depacketizer.
        let depkt = &mut self.scratch.depkt;
        stack
            .tcp(self.data_tcp)
            .recv_with(usize::MAX, &mut |chunk| depkt.feed(chunk));
        while let Some(pkt) = self.scratch.depkt.next_packet() {
            work += 1;
            self.note_rung(now, pkt.rung);
            self.last_rung = pkt.rung;
            self.note_media(now);
            self.scratch.player.on_packet(now, pkt);
        }

        let before = self.scratch.events.len();
        self.scratch.player.poll_into(now, &mut self.scratch.events);
        work += self.scratch.events.len() - before;

        // Receiver reports keep the server's UDP rate control fed.
        if self.transport == Some(TransportKind::Udp)
            && now.saturating_since(self.last_report) >= self.cfg.report_interval
        {
            let interval = now.saturating_since(self.last_report).as_secs_f64();
            self.last_report = now;
            let (loss, bytes) = self.scratch.player.take_interval();
            let report = ReceiverReport {
                loss_rate: loss,
                recv_rate_bps: bytes as f64 * 8.0 / interval.max(0.1),
            };
            self.send_control(stack, |session, out| {
                session.set_parameter(REPORT_PARAM, report, out)
            });
            work += 1;
        }

        // Watch limit reached or the clip ran out: tear down.
        let watched_out = self
            .play_start
            .is_some_and(|s| now.saturating_since(s) >= self.cfg.watch_limit);
        if watched_out || self.scratch.player.state() == PlayoutState::Ended {
            self.outcome = Some(SessionOutcome::Played);
            self.send_control(stack, |session, out| {
                session.teardown(out);
                Ok(())
            });
            self.set_phase(Phase::TearingDown, now);
            work += 1;
        }
        work
    }

    fn finish(&mut self, now: SimTime, outcome: SessionOutcome) {
        // A clean playthrough that needed retries, replica hops, or a
        // transport fallback is a recovery, not a first-try success:
        // record it as degraded. Hops count into the retry tally — each
        // one was a failed attempt the user sat through.
        let outcome = match outcome {
            SessionOutcome::Played if self.retries > 0 || self.hops_used > 0 || self.fell_back => {
                SessionOutcome::PlayedDegraded {
                    retries: self.retries.saturating_add(self.hops_used),
                    rebuffers: self.scratch.player.playout_stats().rebuffer_events.min(255) as u8,
                    fell_back: self.fell_back,
                }
            }
            other => other,
        };
        let protocol = self.transport.unwrap_or(TransportKind::Tcp);
        // The rung last streamed (the top one past the ladder's end);
        // zeros when no description parsed.
        let ladder = &self.scratch.ladder;
        let (encoded_fps, encoded_bps) = ladder
            .get(usize::from(self.last_rung))
            .or(ladder.last())
            .map_or((0.0, 0), |enc| (enc.frame_rate, enc.total_bps));
        let mut metrics = finalize(
            outcome,
            protocol,
            encoded_fps,
            encoded_bps,
            &self.scratch.events,
            self.scratch.player.playout_stats(),
            self.scratch.player.reassembly_stats(),
            self.start_time.unwrap_or(now),
            now,
        );
        metrics.served_replica = self.current_endpoint().0;
        metrics.failover_recovery = self.failover_recovery;
        self.metrics = Some(metrics);
        trace::emit(now, || TraceEvent::SessionEnd {
            outcome: outcome.label(),
        });
        self.phase = Phase::Done;
    }

    /// The player's playout statistics for the current (final) attempt.
    /// Retried sessions rebuild the player per attempt, so this reflects
    /// the attempt that produced the session's record.
    pub fn playout_stats(&self) -> rv_player::PlayoutStats {
        self.scratch.player.playout_stats()
    }

    /// When the client next needs polling.
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        match self.phase {
            Phase::Done => None,
            // Sleep out the backoff; the 20 ms floor keeps the contract
            // that a live client always reports a wake.
            Phase::Waiting => Some(
                self.next_retry_at
                    .map_or(now + APP_TICK, |t| t.max(now + APP_TICK)),
            ),
            // Steady tick: cheap, and robust against missed edges.
            _ => Some(now + APP_TICK),
        }
    }
}

/// Maps a transport-level connection error to a session outcome.
fn classify(err: TcpError) -> SessionOutcome {
    match err {
        // RST to our SYN: no process listening — the server is down.
        TcpError::Refused => SessionOutcome::ServerDown,
        // SYN retries exhausted into silence.
        TcpError::ConnectTimeout => SessionOutcome::TimedOut,
        // An established connection torn down under us mid-session.
        TcpError::Reset => SessionOutcome::Aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{client_data_tcp_config, client_endpoint, ports, server_endpoint};
    use crate::SessionWorld;
    use proptest::prelude::*;
    use rv_media::ContentKind;
    use rv_net::{HostId, LinkId, LinkParams, NetBuilder};
    use rv_server::{Catalog, ServerConfig, ServerScratch};
    use rv_sim::{OutagePolicy, SimRng};
    use rv_transport::{Segment, TcpConfig};

    /// One client's world: the network, the servers and what the client
    /// is armed with. The client talks to server 0 — or, through a
    /// gateway plan, to server 0 and then server 1 — over a link of its
    /// own each (links 0/1 and 2/3).
    #[derive(Debug, Clone, Copy)]
    struct Case {
        udp: bool,
        hardened: bool,
        gateway: bool,
        /// Server 0 is at capacity: SETUP meets 453.
        busy: bool,
        /// Inbound datagrams vanish: a hardened UDP client falls back.
        blackhole: bool,
        loss: f64,
        delay_ms: u64,
        seed: u64,
    }

    fn world(case: Case) -> SessionWorld {
        let mut b = NetBuilder::new();
        let client = b.host();
        let params = LinkParams::lan()
            .rate(400_000.0)
            .delay(SimDuration::from_millis(case.delay_ms))
            .loss(case.loss)
            .queue(64 * 1024);
        for _ in 0..2 {
            let server = b.host();
            b.duplex(client, server, params);
        }
        let net = b.build_with_payload::<Segment>(&mut SimRng::seed_from_u64(case.seed));
        let server = |k: u32, busy: bool| {
            let mut catalog = Catalog::new();
            catalog.add(Clip::new(
                "c.rm",
                SimDuration::from_secs(30),
                ContentKind::News,
            ));
            let cfg = ServerConfig {
                capacity: u32::from(busy),
                background_sessions: u32::from(busy),
                ..ServerConfig::default()
            };
            let scratch = ServerScratch::default();
            server_endpoint(
                HostId(1 + k),
                TcpConfig::default(),
                cfg,
                catalog,
                case.seed ^ u64::from(k),
                scratch,
            )
        };
        let endpoint = |k: u32| Addr::new(HostId(1 + k), ports::CTRL);
        let data = |k: u32| Addr::new(HostId(1 + k), ports::DATA_TCP);
        let mut cfg = ClientConfig::new("rtsp://server/c.rm", endpoint(0), data(0));
        if !case.udp {
            cfg.transport_pref = TransportPreference::ForceTcp;
        }
        if case.gateway {
            cfg.gateway = (0..2)
                .map(|k| GatewayEndpoint {
                    replica: k as u8,
                    ctrl: endpoint(k),
                    data: data(k),
                })
                .collect();
        }
        // Every edge distinct, so that each bounds some claim on its own.
        cfg.watch_limit = SimDuration::from_secs(5);
        cfg.session_timeout = SimDuration::from_secs(40);
        cfg.connect_timeout = SimDuration::from_secs(3);
        cfg.response_timeout = SimDuration::from_millis(2_500);
        cfg.data_timeout = SimDuration::from_millis(1_500);
        cfg.stall_limit = SimDuration::from_millis(2_200);
        cfg.retry_backoff = SimDuration::from_millis(500);
        cfg.retry_backoff_cap = SimDuration::from_secs(2);
        let client = client_endpoint(
            HostId(0),
            client_data_tcp_config(),
            cfg,
            ClientScratch::default(),
        );
        let mut world = SessionWorld::new(net, client, server(0, case.busy));
        world.add_replica(server(1, false));
        if case.hardened {
            world.client.harden();
        }
        world.client_stack.set_udp_blackhole(case.blackhole);
        world
    }

    /// Every clock edge the client acts on, read off its fields: what
    /// `poll` compares `now` against in its current phase.
    fn edges(c: &TracerClient) -> Vec<SimTime> {
        let cfg = &c.cfg;
        let mut edges = Vec::new();
        if c.phase == Phase::Done {
            return edges;
        }
        edges.extend(c.start_time.map(|s| s + cfg.session_timeout));
        if c.phase == Phase::Waiting {
            edges.extend(c.next_retry_at);
            return edges;
        }
        if c.phase == Phase::Playing {
            edges.push(c.scratch.player.idle_until());
            edges.extend(c.play_start.map(|s| s + cfg.watch_limit));
            if c.transport == Some(TransportKind::Udp) {
                edges.push(c.last_report + cfg.report_interval);
            }
        }
        if c.hardened {
            let entered = c.phase_entered;
            match c.phase {
                Phase::Connecting | Phase::ConnectingData => {
                    edges.push(entered + cfg.connect_timeout)
                }
                Phase::Describing | Phase::SettingUp | Phase::Starting | Phase::TearingDown => {
                    edges.push(entered + cfg.response_timeout)
                }
                Phase::Playing => {
                    let since = c.last_data.or(c.play_start).unwrap_or(SimTime::ZERO);
                    edges.push(since + cfg.stall_limit);
                    if c.transport == Some(TransportKind::Udp)
                        && !c.fell_back
                        && c.last_data.is_none()
                    {
                        edges.push(since + cfg.data_timeout);
                    }
                }
                _ => {}
            }
        }
        edges
    }

    /// The client and its stack as `{:?}`: a quiet poll leaves both as it
    /// found them.
    fn snapshot(world: &SessionWorld) -> String {
        format!("{:?}\n{:?}", world.client, world.client_stack)
    }

    /// Drives `case` through `script` — each step an aim (at the claim's
    /// last quiet instant, at the claim, at the instant the driver would
    /// visit next, or `dt_us` on), a world-side action, then a full
    /// settle — holding every claim to both
    /// directions: strictly before it a `poll` changes nothing,
    /// and it never reaches past an edge the client acts on. Returns how
    /// many claims were exercised in each phase.
    fn drive(case: Case, script: &[(u8, u64, u8)]) -> Result<[u32; 10], String> {
        const TICK: SimDuration = SimDuration::from_micros(1);
        let mut world = world(case);
        let mut exercised = [0; 10];
        let mut now = SimTime::ZERO;
        world.settle(now);
        for &(aim, dt_us, op) in script {
            // Aimed steps land on the claim's last quiet instant or on the
            // claim itself, when that is no further than `dt_us` on.
            let claim = world.client.quiet_until(&world.client_stack);
            let step = now + SimDuration::from_micros(dt_us);
            let t = match aim {
                0 if claim > now + TICK => (claim - TICK).min(step),
                1 if claim > now => claim.min(step),
                2..=4 => world.next_instant(now, SimTime::MAX),
                _ => step,
            };
            let (replica_stack, replica) = &mut world.replicas[0];
            match op {
                0 => world.server.crash(&mut world.server_stack),
                1 => world.server.restart(&mut world.server_stack),
                2 => replica.crash(replica_stack),
                3 => replica.restart(replica_stack),
                4 => world
                    .net
                    .set_link_down(LinkId(0), OutagePolicy::DropInFlight),
                5 => world.net.set_link_up(t, LinkId(0)),
                6 => world.net.set_link_extra_loss(LinkId(1), 400_000),
                7 => world.net.set_link_extra_loss(LinkId(1), 0),
                // The client's stack takes in what arrived, and the
                // client is asked before it has looked: unread bytes, a
                // completed connect, a socket error.
                8..=39 => {
                    world.net.poll(t);
                    world.client_stack.poll(t, &mut world.net);
                }
                _ => {}
            }
            let claim = world.client.quiet_until(&world.client_stack);
            for edge in edges(&world.client) {
                prop_assert!(
                    claim <= edge,
                    "{:?} claims {:?} past {:?}",
                    world.client.phase,
                    claim,
                    edge
                );
            }
            if t < claim {
                exercised[world.client.phase as usize] += 1;
                let before = snapshot(&world);
                let phase = world.client.phase;
                let work = world.client.poll(t, &mut world.client_stack);
                prop_assert_eq!(
                    work,
                    0,
                    "{:?} worked at {:?} under a claim to {:?}",
                    phase,
                    t,
                    claim
                );
                let after = snapshot(&world);
                prop_assert!(
                    before == after,
                    "{:?} moved at {:?} under a claim to {:?}",
                    phase,
                    t,
                    claim
                );
            }
            world.settle(t);
            now = t;
            if world.client.is_done() {
                // Done claims everything, and keeps to it.
                prop_assert_eq!(world.client.quiet_until(&world.client_stack), SimTime::MAX);
                let before = snapshot(&world);
                prop_assert_eq!(world.client.poll(now + TICK, &mut world.client_stack), 0);
                prop_assert!(before == snapshot(&world));
                exercised[Phase::Done as usize] += 1;
                break;
            }
        }
        Ok(exercised)
    }

    proptest! {
        /// Arbitrary clients — TCP or UDP, hardened or not, behind a
        /// gateway or not, turned away with 453, black-holed, over lossy
        /// links — driven through arbitrary schedules of server crashes
        /// and restarts, link outages and loss bursts: every claim is exact
        /// in both directions, in every phase.
        #[test]
        fn client_quiet_claims_are_exact_under_arbitrary_scripts(
            (udp, hardened, gateway, busy, blackhole) in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            (loss, delay_ms, seed) in (prop_oneof![0.0f64..0.01, 0.0f64..0.01, 0.0f64..0.3], 1u64..200, any::<u64>()),
            script in prop::collection::vec(
                (0u8..8, prop_oneof![1u64..30_000, 1u64..30_000, 1u64..30_000, 100_000u64..2_000_000], 0u8..200),
                50..400,
            ),
        ) {
            let case = Case { udp, hardened, gateway, busy, blackhole, loss, delay_ms, seed };
            let exercised = drive(case, &script)?;
            prop_assert!(exercised.iter().sum::<u32>() > 0, "no claim exercised");
        }
    }

    /// The one error the property seldom meets: a reset on the data
    /// connection alone. A hardened TCP client that has it waiting makes
    /// no claim, and its next poll acts on it.
    #[test]
    fn a_reset_data_connection_vetoes_a_hardened_claim() {
        let case = Case {
            udp: false,
            hardened: true,
            gateway: false,
            busy: false,
            blackhole: false,
            loss: 0.0,
            delay_ms: 20,
            seed: 7,
        };
        let mut world = world(case);
        let step = SimDuration::from_millis(5);
        let mut now = SimTime::ZERO;
        while world.client.phase != Phase::Playing {
            world.settle(now);
            now += step;
        }
        // A second into the stream the control connection is idle.
        for _ in 0..200 {
            world.settle(now);
            now += step;
        }
        // The server host forgets its connections: the client's next
        // acknowledgement on the data connection is answered with a
        // reset, while the idle control connection hears nothing. The
        // server application is not polled again.
        world.server_stack.renew(HostId(1));
        let (ctrl, data) = (world.client.ctrl, world.client.data_tcp);
        while !world.client_stack.tcp_ref(data).has_error() {
            now += step;
            world.net.poll(now);
            world.client_stack.poll(now, &mut world.net);
            world.server_stack.poll(now, &mut world.net);
        }
        assert!(!world.client_stack.tcp_ref(ctrl).has_error());
        // Unread media would veto the claim on its own: drop it.
        world
            .client_stack
            .tcp(data)
            .recv_with(usize::MAX, &mut |_| {});
        assert_eq!(world.client.quiet_until(&world.client_stack), SimTime::ZERO);
        assert!(world.client.poll(now, &mut world.client_stack) > 0);
        assert_eq!(world.client.phase, Phase::Waiting);
    }

    /// The property's reach: two plain sessions on 5 ms steps — a clean
    /// TCP one, and a hardened UDP one turned away by a busy replica, sent
    /// through the gateway's backoff and, its datagrams black-holed, back
    /// to TCP — exercise a claim in every phase but `Idle`, the one that
    /// never claims.
    #[test]
    fn client_quiet_claims_are_exercised_in_every_phase() {
        let script = vec![(2, 5_000, 255); 4_000];
        let plain = Case {
            udp: false,
            hardened: false,
            gateway: false,
            busy: false,
            blackhole: false,
            loss: 0.0,
            delay_ms: 40,
            seed: 7,
        };
        let turned_away = Case {
            udp: true,
            hardened: true,
            gateway: true,
            busy: true,
            blackhole: true,
            ..plain
        };
        let mut exercised = drive(plain, &script).unwrap();
        for (n, m) in exercised
            .iter_mut()
            .zip(drive(turned_away, &script).unwrap())
        {
            *n += m;
        }
        for phase in [
            Phase::Connecting,
            Phase::Describing,
            Phase::SettingUp,
            Phase::ConnectingData,
            Phase::Starting,
            Phase::Playing,
            Phase::TearingDown,
            Phase::Waiting,
            Phase::Done,
        ] {
            assert!(
                exercised[phase as usize] > 0,
                "no claim exercised in {phase:?}: {exercised:?}"
            );
        }
        assert_eq!(exercised[Phase::Idle as usize], 0);
    }
}
