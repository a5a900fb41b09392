//! Session harness: wires a server and a client into a simulated network
//! and drives the whole world to completion.
//!
//! The study crate builds the topology (it knows geography and access-link
//! classes); this harness owns the driver loop that both the study and the
//! examples reuse.

use rv_media::Clip;
use rv_net::{Addr, HostId, LinkParams, NetBuilder, Network, PrototypeCache};
use rv_server::{Catalog, RealServer, ServerConfig, ServerScratch, ServerStats};
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{Counter, CounterSet, FaultPlan, SimDuration, SimRng, SimTime};
use rv_transport::{Segment, Stack, TcpConfig};

use crate::client::{ClientConfig, ClientScratch, TracerClient};
use crate::faults::{FaultAction, FaultInjector, FaultLinkMap};
use crate::metrics::SessionMetrics;

/// Standard TCP port assignments for a session world. (The UDP data ports
/// are configuration: [`ServerConfig::data_udp_port`] and
/// [`ClientConfig::udp_port`], which RTSP SETUP advertises.)
pub mod ports {
    /// Server RTSP control port.
    pub const CTRL: u16 = 554;
    /// Server TCP data port.
    pub const DATA_TCP: u16 = 555;
    /// Client control source port.
    pub const CLIENT_CTRL: u16 = 2000;
    /// Client TCP data source port.
    pub const CLIENT_DATA: u16 = 2001;
}

/// The receive-buffer configuration RealPlayer-era clients used for the
/// data connection. The 32 KiB window matters: it bounds the in-flight
/// data below typical bottleneck queue sizes, so a Reno sender fills the
/// pipe without overflowing the queue several segments per window (which
/// fast recovery cannot repair and which would otherwise collapse into
/// RTO storms).
pub fn client_data_tcp_config() -> TcpConfig {
    TcpConfig {
        recv_capacity: 32 * 1024,
        ..TcpConfig::default()
    }
}

/// Stands up one server endpoint on `host`: a transport stack with the
/// control and TCP data sockets listening on the standard [`ports`]
/// (`data_tcp` configures the data one), the UDP data socket on
/// `cfg.data_udp_port`, and the [`RealServer`] over them. `scratch` is a
/// retired server's storage or `ServerScratch::default()`.
///
/// Every server in the repo — primary, replica, example, test — is built
/// here, so a server reachable at `Addr::new(host, ports::CTRL)` is one
/// call.
pub fn server_endpoint(
    host: HostId,
    data_tcp: TcpConfig,
    cfg: ServerConfig,
    catalog: Catalog,
    seed: u64,
    mut scratch: ServerScratch,
) -> (Stack, RealServer) {
    let mut stack = std::mem::take(&mut scratch.stack);
    stack.renew(host);
    let ctrl = stack.tcp_socket(ports::CTRL, TcpConfig::default());
    let data = stack.tcp_socket(ports::DATA_TCP, data_tcp);
    let udp = stack.udp_socket(cfg.data_udp_port);
    stack.tcp(ctrl).listen();
    stack.tcp(data).listen();
    let server = RealServer::new(cfg, catalog, ctrl, data, udp, seed, scratch);
    (stack, server)
}

/// Stands up the client endpoint on `host`: a transport stack with the
/// control and TCP data sockets on the standard [`ports`] (`data_tcp`
/// configures the data one; see [`client_data_tcp_config`]), the UDP
/// socket on `cfg.udp_port`, and the [`TracerClient`] over them.
/// `scratch` is a retired client's storage or `ClientScratch::default()`.
pub fn client_endpoint(
    host: HostId,
    data_tcp: TcpConfig,
    cfg: ClientConfig,
    mut scratch: ClientScratch,
) -> (Stack, TracerClient) {
    let mut stack = std::mem::take(&mut scratch.stack);
    stack.renew(host);
    let ctrl = stack.tcp_socket(ports::CLIENT_CTRL, TcpConfig::default());
    let data = stack.tcp_socket(ports::CLIENT_DATA, data_tcp);
    let udp = stack.udp_socket(cfg.udp_port);
    let client = TracerClient::new(cfg, ctrl, data, udp, scratch);
    (stack, client)
}

/// Builds the canonical two-host streaming world: client and server joined
/// by a symmetric duplex link, one clip in the catalog, and a
/// watch-for-a-minute client. `cfg_fn` customizes the client and server
/// configurations before construction.
///
/// Tests, examples, and benches build their worlds through this function;
/// richer topologies (the study's access/transit/server-access chains) are
/// assembled in `rv-study` from the same two endpoint constructors.
pub fn two_host_world(
    params: LinkParams,
    clip: Clip,
    seed: u64,
    cfg_fn: impl FnOnce(&mut ClientConfig, &mut ServerConfig),
) -> SessionWorld {
    let mut b = NetBuilder::new();
    let c = b.host();
    let s = b.host();
    b.duplex(c, s, params);
    let mut rng = SimRng::seed_from_u64(seed);
    let net = b.build_with_payload::<Segment>(&mut rng);

    let mut catalog = Catalog::new();
    let url = format!("rtsp://server/{}", clip.name);
    catalog.add(clip);
    let mut server_cfg = ServerConfig::default();
    let mut client_cfg = ClientConfig::new(
        &url,
        Addr::new(HostId(1), ports::CTRL),
        Addr::new(HostId(1), ports::DATA_TCP),
    );
    cfg_fn(&mut client_cfg, &mut server_cfg);
    SessionWorld::new(
        net,
        client_endpoint(
            HostId(0),
            client_data_tcp_config(),
            client_cfg,
            ClientScratch::default(),
        ),
        server_endpoint(
            HostId(1),
            TcpConfig::default(),
            server_cfg,
            catalog,
            seed,
            ServerScratch::default(),
        ),
    )
}

/// Recycled storage carried from one retired [`SessionWorld`] to the
/// next: [`SessionWorld::retire`] fills it, the next world's builder
/// takes what it needs (leaving cold defaults behind) and renews each
/// component it takes. Only capacity survives a renew, so worlds built on
/// warm storage are bit-identical to worlds built on
/// `WorldScratch::default()`. The campaign keeps one of
/// these per worker and threads it through consecutive sessions.
#[derive(Debug, Default)]
pub struct WorldScratch {
    /// A retired network whose link rings/inboxes/tables keep their capacity.
    pub net: Network<Segment>,
    /// Buffers harvested from the retired servers, indexed by replica
    /// (the primary is replica 0).
    pub servers: Vec<ServerScratch>,
    /// Buffers harvested from the retired client.
    pub client: ClientScratch,
    /// The last world's topology declarations, for the next world to
    /// clear and declare its own on.
    pub builder: NetBuilder,
    /// Worker-lifetime topology prototypes: each distinct graph shape's
    /// BFS route set, computed once and cloned into every session that
    /// builds it. Unlike the fields above this is a read-shared cache,
    /// not recycled capacity — but the same bit-identity rule holds
    /// (routes are a pure function of structure; see
    /// [`rv_net::TopologyPrototype`]).
    pub topo: PrototypeCache,
    /// The driver work of every world retired into this scratch, summed:
    /// a worker's tally, which no session ever reads back.
    pub work: DriverWork,
}

/// One complete streaming world: network, two stacks, server, client.
#[derive(Debug)]
pub struct SessionWorld {
    /// The simulated network (client = host 0, server = host 1 by the
    /// conventions of the topology builders in rv-study).
    pub net: Network<Segment>,
    /// Client host's transport stack.
    pub client_stack: Stack,
    /// Server host's transport stack.
    pub server_stack: Stack,
    /// The streaming server (replica 0 — the only one in the classic
    /// single-server world).
    pub server: RealServer,
    /// The instrumented client.
    pub client: TracerClient,
    /// Additional server replicas (1..N) with their own stacks. Empty in
    /// the classic world; populated by [`SessionWorld::add_replica`].
    pub replicas: Vec<(Stack, RealServer)>,
    /// The world's clock: persists across `run` calls so a world can be
    /// driven in increments.
    pub now: SimTime,
    /// Scheduled faults, if this session has any.
    faults: Option<FaultInjector>,
    /// Per-replica settle-loop scheduling flags `(app_ran, poll_app)`,
    /// kept across `run` calls so their capacity is allocated once.
    replica_flags: Vec<(bool, bool)>,
    /// What `run` has done so far.
    work: DriverWork,
}

/// What the driver loop did, as opposed to what the simulation did — so
/// plain numbers beside the world, not [`CounterSet`] keys: a faster
/// driver must not move a digest of the simulation's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverWork {
    /// Instants [`SessionWorld::run`] visited.
    pub instants: u64,
    /// Those at which only the network had work — every other component
    /// was strictly before its `quiet_until` — and only the network ran.
    pub light_instants: u64,
    /// Instants the settle loop left unconverged at its 64-round guard.
    pub settle_guard_trips: u64,
}

impl SessionWorld {
    /// Creates a world with its clock at zero from a network and the
    /// client and (primary) server endpoints — the `(stack, application)`
    /// pairs [`client_endpoint`] and [`server_endpoint`] return.
    pub fn new(
        net: Network<Segment>,
        (client_stack, client): (Stack, TracerClient),
        (server_stack, server): (Stack, RealServer),
    ) -> Self {
        SessionWorld {
            net,
            client_stack,
            server_stack,
            server,
            client,
            replicas: Vec::new(),
            now: SimTime::ZERO,
            faults: None,
            replica_flags: Vec::new(),
            work: DriverWork::default(),
        }
    }

    /// What [`SessionWorld::run`] has done so far.
    pub fn driver_work(&self) -> DriverWork {
        self.work
    }

    /// Adds a server replica (index `1 + replicas.len()` from the
    /// client's point of view; the primary is replica 0). The replica
    /// participates in the drive loop, fault routing, and the counter
    /// snapshot exactly like the primary.
    pub fn add_replica(&mut self, endpoint: (Stack, RealServer)) {
        self.replicas.push(endpoint);
        self.replica_flags.push((false, true));
    }

    /// Server `r` with its stack: the primary is server 0, `replicas[k]`
    /// is server `k + 1`.
    fn server(&self, r: usize) -> Option<(&Stack, &RealServer)> {
        match r.checked_sub(1) {
            None => Some((&self.server_stack, &self.server)),
            Some(k) => self.replicas.get(k).map(|(stack, server)| (stack, server)),
        }
    }

    /// As [`SessionWorld::server`], mutably.
    fn server_mut(&mut self, r: usize) -> Option<(&mut Stack, &mut RealServer)> {
        match r.checked_sub(1) {
            None => Some((&mut self.server_stack, &mut self.server)),
            Some(k) => self
                .replicas
                .get_mut(k)
                .map(|(stack, server)| (stack, server)),
        }
    }

    /// Arms this world with a fault plan. `map` grounds the plan's
    /// abstract segments in this world's links. A black-holed UDP path
    /// takes effect immediately (the client stack silently eats inbound
    /// datagrams); scheduled events fire as the clock reaches them.
    pub fn set_faults(&mut self, plan: &FaultPlan, map: &FaultLinkMap) {
        if plan.udp_blackhole {
            self.client_stack.set_udp_blackhole(true);
        }
        if plan.is_empty() {
            return;
        }
        // Trouble is scheduled: arm the client's resilient FSM. Sessions
        // with an empty plan keep the legacy client behavior, which is
        // what keeps fault-free campaigns bit-identical to pre-fault
        // builds.
        self.client.harden();
        self.faults = Some(FaultInjector::new(plan, map));
    }

    /// Applies every fault event due at `now`.
    fn apply_faults(&mut self, now: SimTime) {
        while let Some(action) = self.faults.as_mut().and_then(|f| f.pop_due(now)) {
            // Fault events are traced here rather than in the components:
            // this is the one place that has both the simulated clock and
            // the decoded action.
            match action {
                FaultAction::LinkDown(l, policy) => {
                    trace::emit(now, || TraceEvent::LinkDown { link: l.0 });
                    self.net.set_link_down(l, policy);
                }
                FaultAction::LinkUp(l) => {
                    trace::emit(now, || TraceEvent::LinkUp { link: l.0 });
                    self.net.set_link_up(now, l);
                }
                FaultAction::BurstOn(l, ppm) => self.net.set_link_extra_loss(l, ppm),
                FaultAction::BurstOff(l) => self.net.set_link_extra_loss(l, 0),
                FaultAction::ServerCrash(r) => {
                    trace::emit(now, || TraceEvent::ServerCrash);
                    if let Some((stack, server)) = self.server_mut(usize::from(r)) {
                        server.crash(stack);
                    }
                }
                FaultAction::ServerRestart(r) => {
                    trace::emit(now, || TraceEvent::ServerRestart);
                    if let Some((stack, server)) = self.server_mut(usize::from(r)) {
                        server.restart(stack);
                    }
                }
            }
        }
    }

    /// Drives everything until the client finishes or `deadline` passes.
    /// Returns the session record. May be called repeatedly with growing
    /// deadlines; the clock picks up where it left off.
    pub fn run(&mut self, deadline: SimTime) -> SessionMetrics {
        let mut now = self.now;
        // Strictly before this instant every component but the network
        // has promised to be quiet; `ZERO` promises nothing.
        let mut quiet_until = SimTime::ZERO;
        loop {
            // Network-only instants: while the promise holds and no inbox
            // fills, an instant costs the network's poll and nothing else.
            // The instants themselves are the ones the settle loop would
            // visit — same wake fold — because they cannot be skipped:
            // server and client tick `now + 20 ms`, and a blocked token
            // bucket's `f64` fill depends on every instant it is asked at.
            while now < quiet_until.min(deadline) {
                self.net.poll(now);
                if self.inbound_waiting() || !self.servers_stay_quiet(now) {
                    // Someone has work after all: settle this instant in
                    // full (its `net.poll` finds nothing left to do).
                    break;
                }
                // Executable spec of the promise: debug builds settle the
                // instant anyway and hold the settle to having moved nothing.
                debug_assert_eq!(self.settle(now), Some(0), "quiet world moved at {now:?}");
                self.work.instants += 1;
                self.work.light_instants += 1;
                now = self.next_instant(now, deadline);
            }
            self.apply_faults(now);
            self.work.instants += 1;
            let converged = self.settle(now).is_some();
            if self.client.is_done() || now >= deadline {
                self.now = now;
                break;
            }
            quiet_until = if converged {
                self.quiet_until()
            } else {
                // Still moving at the guard: nobody is quiet.
                self.work.settle_guard_trips += 1;
                SimTime::ZERO
            };
            now = self.next_instant(now, deadline);
        }
        self.client.metrics().cloned().unwrap_or_else(|| {
            // Deadline hit before the client finished (should be rare: the
            // client has its own session timeout). Preserve the negotiated
            // transport if it got that far.
            SessionMetrics::failed(
                crate::metrics::SessionOutcome::Failed,
                self.client
                    .transport()
                    .unwrap_or(rv_rtsp::TransportKind::Tcp),
            )
        })
    }

    /// Settles all work at instant `now`. Returns what the rounds moved in
    /// total, or `None` if the guard — which bounds pathological ping-pong
    /// at one instant — cut the loop short while things still moved.
    ///
    /// Components are wake-scheduled: a stack is polled only when it
    /// has observable work (`needs_poll`: inbound packets, deferred
    /// output, a due timer) or its application has run since the
    /// stack was last flushed. Applications run once per instant
    /// unconditionally (their time-based triggers — pacing, reports,
    /// timeouts — fire on the first poll of an instant) and again
    /// only after their stack delivered or flushed something. All
    /// poll results, the applications' included, feed the `moved`
    /// fixed-point counter uniformly.
    fn settle(&mut self, now: SimTime) -> Option<usize> {
        let mut total = 0;
        let mut client_app_ran = false;
        let mut server_app_ran = false;
        let mut poll_client_app = true;
        let mut poll_server_app = true;
        for flags in &mut self.replica_flags {
            *flags = (false, true);
        }
        for _ in 0..64 {
            let mut moved = self.net.poll(now);
            if self.client_stack.needs_poll(&self.net, now) || client_app_ran {
                let handled = self.client_stack.poll(now, &mut self.net);
                client_app_ran = false;
                poll_client_app |= handled > 0;
                moved += handled;
            }
            if self.server_stack.needs_poll(&self.net, now) || server_app_ran {
                let handled = self.server_stack.poll(now, &mut self.net);
                server_app_ran = false;
                poll_server_app |= handled > 0;
                moved += handled;
            }
            if poll_server_app {
                poll_server_app = false;
                let worked = self.server.poll(now, &mut self.server_stack);
                server_app_ran |= worked > 0;
                moved += worked;
            }
            if poll_client_app {
                poll_client_app = false;
                let worked = self.client.poll(now, &mut self.client_stack);
                client_app_ran |= worked > 0;
                moved += worked;
            }
            // Replica servers ride the same wake-scheduling contract
            // as the primary: stack when it has observable work, app
            // once per instant and again after stack progress.
            for ((stack, server), (app_ran, poll_app)) in
                self.replicas.iter_mut().zip(&mut self.replica_flags)
            {
                if stack.needs_poll(&self.net, now) || *app_ran {
                    let handled = stack.poll(now, &mut self.net);
                    *app_ran = false;
                    *poll_app |= handled > 0;
                    moved += handled;
                }
                if *poll_app {
                    *poll_app = false;
                    let worked = server.poll(now, stack);
                    *app_ran |= worked > 0;
                    moved += worked;
                }
                if stack.needs_poll(&self.net, now) || *app_ran {
                    let handled = stack.poll(now, &mut self.net);
                    *app_ran = false;
                    *poll_app |= handled > 0;
                    moved += handled;
                }
            }
            if self.client_stack.needs_poll(&self.net, now) || client_app_ran {
                let handled = self.client_stack.poll(now, &mut self.net);
                client_app_ran = false;
                poll_client_app |= handled > 0;
                moved += handled;
            }
            if self.server_stack.needs_poll(&self.net, now) || server_app_ran {
                let handled = self.server_stack.poll(now, &mut self.net);
                server_app_ran = false;
                poll_server_app |= handled > 0;
                moved += handled;
            }
            if moved == 0 {
                return Some(total);
            }
            total += moved;
        }
        None
    }

    /// The instant after `now`: the wake fan-in, folded as scalars with
    /// `MAX` for "idle" — the same instant as
    /// `earliest([...]).unwrap_or(deadline)` clamped the same way (an
    /// all-idle world and a wake at `MAX` both land on `deadline`),
    /// without building the by-value `Option` array whose reload stalls
    /// on every instant.
    fn next_instant(&self, now: SimTime, deadline: SimTime) -> SimTime {
        let wake = |t: Option<SimTime>| t.unwrap_or(SimTime::MAX);
        let mut next = wake(self.net.next_wake())
            .min(wake(self.client_stack.next_wake()))
            .min(wake(self.server_stack.next_wake()))
            .min(wake(self.server.next_wake(now)))
            .min(wake(self.client.next_wake(now)))
            .min(wake(
                self.faults.as_ref().and_then(FaultInjector::next_wake),
            ));
        for (stack, server) in &self.replicas {
            next = next
                .min(wake(stack.next_wake()))
                .min(wake(server.next_wake(now)));
        }
        let step_floor = now + SimDuration::from_micros(1);
        next.min(deadline).max(step_floor)
    }

    /// The instant strictly before which — unless the network delivers a
    /// packet — settling an instant does nothing beyond the network's own
    /// poll and each server's [`RealServer::quiet_step`]: the earliest of
    /// every component's `quiet_until` and the next scheduled fault.
    /// Asked right after a settle converged.
    fn quiet_until(&self) -> SimTime {
        let mut until = self
            .client
            .quiet_until(&self.client_stack)
            .min(self.client_stack.quiet_until())
            .min(
                self.faults
                    .as_ref()
                    .and_then(FaultInjector::next_wake)
                    .unwrap_or(SimTime::MAX),
            );
        for (stack, server) in (0..).map_while(|r| self.server(r)) {
            until = until
                .min(stack.quiet_until())
                .min(server.quiet_until(stack));
        }
        until
    }

    /// Whether the network has delivered anything a stack must look at.
    fn inbound_waiting(&self) -> bool {
        self.net.inbox_len(self.client_stack.host()) > 0
            || (0..)
                .map_while(|r| self.server(r))
                .any(|(stack, _)| self.net.inbox_len(stack.host()) > 0)
    }

    /// Takes the servers through a network-only instant, stopping at the
    /// first that turns out to owe a full poll (a blocked bucket refilled
    /// far enough to send) — the settle that follows polls them all.
    fn servers_stay_quiet(&mut self, now: SimTime) -> bool {
        self.server.quiet_step(now, &self.server_stack)
            && self
                .replicas
                .iter_mut()
                .all(|(stack, server)| server.quiet_step(now, stack))
    }

    /// Snapshots this world's deterministic counters. Collected from the
    /// components' own statistics (never from trace events, which may be
    /// off), so the values are identical whether or not the flight
    /// recorder ran. Call after [`SessionWorld::run`] finishes.
    pub fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        let links = self.net.total_link_stats();
        c.add(Counter::DropsLoss, links.dropped_loss);
        c.add(Counter::DropsQueue, links.dropped_queue);
        c.add(Counter::DropsOutage, links.dropped_outage);
        c.add(Counter::PacketsDelivered, links.delivered);
        let (head_updates, bypass) = self.net.delayline_stats();
        c.add(Counter::DelaylineHeadUpdates, head_updates);
        c.add(Counter::DelaylineBypassPackets, bypass);
        let mut tcp = self.client_stack.total_tcp_stats();
        let mut server = ServerStats::default();
        for (stack, replica) in (0..).map_while(|r| self.server(r)) {
            let t = stack.total_tcp_stats();
            tcp.retransmits += t.retransmits;
            tcp.timeouts += t.timeouts;
            tcp.fast_retransmits += t.fast_retransmits;
            let s = replica.stats();
            server.switches_up += s.switches_up;
            server.switches_down += s.switches_down;
            server.frames_thinned += s.frames_thinned;
            server.crashes += s.crashes;
            server.admission_rejects += s.admission_rejects;
        }
        c.add(Counter::TcpRetransmits, tcp.retransmits);
        c.add(Counter::TcpRtoTimeouts, tcp.timeouts);
        c.add(Counter::TcpFastRetransmits, tcp.fast_retransmits);
        let playout = self.client.playout_stats();
        c.add(Counter::RebufferEvents, playout.rebuffer_events);
        c.add(Counter::RebufferMicros, playout.rebuffer_time.as_micros());
        c.add(Counter::SessionRetries, u64::from(self.client.retries()));
        c.add(
            Counter::TransportFallbacks,
            u64::from(self.client.fell_back()),
        );
        c.add(Counter::RungSwitchesUp, server.switches_up);
        c.add(Counter::RungSwitchesDown, server.switches_down);
        c.add(Counter::FramesThinned, server.frames_thinned);
        c.add(Counter::ServerCrashes, server.crashes);
        c.add(Counter::GatewayRedirects, self.client.gateway_redirects());
        c.add(Counter::Failovers, self.client.failovers());
        c.add(Counter::AdmissionRejects, server.admission_rejects);
        c
    }

    /// Retires this world, moving its recyclable storage into `scratch`
    /// for the next session: the network, the client with its stack and
    /// every server with its stack, each into its replica's slot. Nothing
    /// is scrubbed here: the next build renews each component before
    /// anything claims from a payload pool, so the payloads a retired
    /// component still holds are dropped before their backings are
    /// wanted.
    pub fn retire(self, scratch: &mut WorldScratch) {
        scratch.work.instants += self.work.instants;
        scratch.work.light_instants += self.work.light_instants;
        scratch.work.settle_guard_trips += self.work.settle_guard_trips;
        scratch.net = self.net;
        scratch.client = self.client.into_scratch();
        scratch.client.stack = self.client_stack;
        let primary = (self.server_stack, self.server);
        let servers = std::iter::once(primary).chain(self.replicas);
        for (r, (stack, server)) in servers.enumerate() {
            let mut harvested = server.into_scratch();
            harvested.stack = stack;
            match scratch.servers.get_mut(r) {
                Some(slot) => *slot = harvested,
                None => scratch.servers.push(harvested),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rv_media::ContentKind;
    use rv_net::LinkId;
    use rv_rtsp::TransportPreference;
    use rv_sim::{FaultSegment, LinkOutage, OutagePolicy};

    impl SessionWorld {
        /// The reference driver: `run` without its network-only stretch —
        /// every instant is settled in full.
        fn run_settling_every_instant(&mut self, deadline: SimTime) -> SessionMetrics {
            let mut now = self.now;
            loop {
                self.apply_faults(now);
                self.work.instants += 1;
                self.settle(now);
                if self.client.is_done() || now >= deadline {
                    self.now = now;
                    return self.client.metrics().cloned().expect("client finished");
                }
                now = self.next_instant(now, deadline);
            }
        }
    }

    proptest! {
        /// Random two-host worlds — path, transport, watch limit, seed, and
        /// optionally an access-link outage (which hardens the client) —
        /// end in the same record, counters and clock, after the same
        /// number of instants, whether `run` drives them or the reference
        /// that settles every instant does.
        #[test]
        fn run_visits_and_leaves_what_settling_every_instant_does(
            (rate, delay_ms, loss, queue) in (30_000.0f64..2_000_000.0, 1u64..300, 0.0f64..0.08, 8u32..128),
            tcp in any::<bool>(),
            watch_s in 3u64..25,
            seed in any::<u64>(),
            outage in prop::option::of((1u64..20, 1u64..25, any::<bool>())),
        ) {
            let build = || {
                let params = LinkParams::lan()
                    .rate(rate)
                    .delay(SimDuration::from_millis(delay_ms))
                    .loss(loss)
                    .queue(queue * 1024);
                let clip = Clip::new("c.rm", SimDuration::from_secs(90), ContentKind::News);
                let mut world = two_host_world(params, clip, seed, |c, _| {
                    c.watch_limit = SimDuration::from_secs(watch_s);
                    if tcp {
                        c.transport_pref = TransportPreference::ForceTcp;
                    }
                });
                if let Some((start, len, carry)) = outage {
                    let plan = FaultPlan {
                        link_outages: vec![LinkOutage {
                            segment: FaultSegment::ClientAccess,
                            start: SimTime::from_secs(start),
                            end: SimTime::from_secs(start + len),
                            policy: if carry {
                                OutagePolicy::CarryInFlight
                            } else {
                                OutagePolicy::DropInFlight
                            },
                        }],
                        ..FaultPlan::none()
                    };
                    let map = FaultLinkMap {
                        client_access: vec![LinkId(0), LinkId(1)],
                        ..FaultLinkMap::default()
                    };
                    world.set_faults(&plan, &map);
                }
                world
            };
            let deadline = SimTime::from_secs(200);
            let mut driven = build();
            let got = driven.run(deadline);
            let mut reference = build();
            let want = reference.run_settling_every_instant(deadline);

            prop_assert_eq!(got, want);
            prop_assert_eq!(driven.counters(), reference.counters());
            prop_assert_eq!(driven.now, reference.now);
            let (work, all) = (driven.driver_work(), reference.driver_work());
            prop_assert_eq!(work.instants, all.instants);
            prop_assert_eq!(work.settle_guard_trips, 0);
            prop_assert!(work.light_instants < work.instants);
        }
    }
}
