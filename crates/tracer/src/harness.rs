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
use rv_sim::{Counter, CounterSet, FaultPlan, SimDuration, SimRng, SimTime, APP_TICK};
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
/// Tests and examples build their worlds through this function; richer
/// topologies (the study's access/transit/server-access chains) are
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
    /// Buffers harvested from the retired servers, filed by role: slot
    /// `p` holds the storage of the server a world's client tried `p`-th
    /// (see [`WorldScratch::roles`]), so the server that streams builds
    /// on the storage the last streaming server grew, whichever replica
    /// it is.
    pub servers: Vec<ServerScratch>,
    /// The next world's role map, which its builder writes before it
    /// takes any server's storage: `roles[p]` is the server its client
    /// tries `p`-th, which builds on `servers[p]`; when it is empty,
    /// server `k` has role `k`. [`SessionWorld::on_scratch`] copies it
    /// into the world, which files its servers by it when it retires.
    pub roles: Vec<u8>,
    /// Each server's standing load for the next world, by server index:
    /// the builder's working space for its routing plan.
    pub loads: Vec<u32>,
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
    /// The last world's own vectors, for the next world to grow in.
    spare: Spare,
}

/// A retired world's replica list, claims and role map, emptied, and its
/// fault queue, disarmed.
#[derive(Debug, Default)]
struct Spare {
    replicas: Vec<(Stack, RealServer)>,
    replica_claims: Vec<SimTime>,
    roles: Vec<u8>,
    faults: FaultInjector,
}

impl WorldScratch {
    /// Takes the storage server `k` of the next world builds on: the slot
    /// of its role in [`WorldScratch::roles`], or a cold default if that
    /// slot was never filled.
    pub fn server(&mut self, k: u8) -> ServerScratch {
        let slot = role_of(&self.roles, usize::from(k));
        self.servers
            .get_mut(slot)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Bytes of recycled storage held: the network, the topology
    /// declarations, every server slot and the client — what a worker
    /// keeps between sessions, less the read-shared prototype cache.
    pub fn retained_bytes(&self) -> usize {
        let servers = self.servers.iter().map(ServerScratch::retained_bytes);
        self.net.retained_bytes()
            + self.builder.retained_bytes()
            + servers.sum::<usize>()
            + self.client.retained_bytes()
    }
}

/// Server `k`'s role under `roles`: its place in the order, or `k` when
/// the order does not name it.
fn role_of(roles: &[u8], k: usize) -> usize {
    roles.iter().position(|&r| usize::from(r) == k).unwrap_or(k)
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
    /// Scheduled faults: idle (no event) unless a plan armed it.
    faults: FaultInjector,
    /// Each replica's claim (see [`SessionWorld::run`]), parallel to
    /// `replicas`, kept across runs so its capacity is allocated once.
    replica_claims: Vec<SimTime>,
    /// The role map [`SessionWorld::retire`] files the servers by (see
    /// [`WorldScratch::roles`]).
    roles: Vec<u8>,
    /// What `run` has done so far.
    work: DriverWork,
}

/// What the driver loop did, as opposed to what the simulation did — so
/// plain numbers beside the world, not [`CounterSet`] keys: a faster
/// driver must not move a digest of the simulation's counters. Every
/// field is an exact count, the same whatever the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverWork {
    /// Instants [`SessionWorld::run`] visited.
    pub instants: u64,
    /// Those at which no endpoint owed work (see [`SessionWorld::run`])
    /// and only the network ran.
    pub light_instants: u64,
    /// Endpoint settles the 64-round guard cut short.
    pub settle_guard_trips: u64,
    /// Instants settled because the network filled an endpoint's inbox.
    pub settled_inbox: u64,
    /// Instants settled because a server's [`RealServer::quiet_step`]
    /// found it owed a poll.
    pub settled_quiet_step: u64,
    /// Instants settled because an endpoint's claim had run out: the
    /// first of a `run`, every one at or past the earliest claim, a
    /// fault's (which voids every claim) and the deadline's.
    pub settled_lapsed: u64,
    /// Instants after an endpoint's settle tripped the guard.
    pub settled_guard: u64,
    /// Server application polls issued (the primary's and the replicas').
    pub server_polls: u64,
    /// Those that did any work.
    pub server_polls_useful: u64,
    /// Client application polls issued.
    pub client_polls: u64,
    /// Those that did any work.
    pub client_polls_useful: u64,
}

/// Why an endpoint settled, least compelling first: an instant counts
/// once, by its endpoints' most compelling reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SettledBy {
    QuietStep,
    Inbox,
    Lapsed,
    Guard,
}

impl DriverWork {
    /// Every field by name, in declaration order: the `driver:` line of
    /// `repro trace` and the `"work"` block of `--bench-out` JSON.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("instants", self.instants),
            ("light_instants", self.light_instants),
            ("settle_guard_trips", self.settle_guard_trips),
            ("settled_inbox", self.settled_inbox),
            ("settled_quiet_step", self.settled_quiet_step),
            ("settled_lapsed", self.settled_lapsed),
            ("settled_guard", self.settled_guard),
            ("server_polls", self.server_polls),
            ("server_polls_useful", self.server_polls_useful),
            ("client_polls", self.client_polls),
            ("client_polls_useful", self.client_polls_useful),
        ]
    }

    /// Instants at which some endpoint settled: every one not light.
    pub fn settled_instants(&self) -> u64 {
        self.settled_inbox + self.settled_quiet_step + self.settled_lapsed + self.settled_guard
    }

    /// Counts one instant, light when no endpoint settled.
    fn count(&mut self, by: Option<SettledBy>) {
        self.instants += 1;
        *match by {
            None => &mut self.light_instants,
            Some(SettledBy::QuietStep) => &mut self.settled_quiet_step,
            Some(SettledBy::Inbox) => &mut self.settled_inbox,
            Some(SettledBy::Lapsed) => &mut self.settled_lapsed,
            Some(SettledBy::Guard) => &mut self.settled_guard,
        } += 1;
    }
}

impl std::ops::AddAssign for DriverWork {
    fn add_assign(&mut self, other: DriverWork) {
        self.instants += other.instants;
        self.light_instants += other.light_instants;
        self.settle_guard_trips += other.settle_guard_trips;
        self.settled_inbox += other.settled_inbox;
        self.settled_quiet_step += other.settled_quiet_step;
        self.settled_lapsed += other.settled_lapsed;
        self.settled_guard += other.settled_guard;
        self.server_polls += other.server_polls;
        self.server_polls_useful += other.server_polls_useful;
        self.client_polls += other.client_polls;
        self.client_polls_useful += other.client_polls_useful;
    }
}

impl SessionWorld {
    /// Creates a world with its clock at zero from a network and the
    /// client and (primary) server endpoints — the `(stack, application)`
    /// pairs [`client_endpoint`] and [`server_endpoint`] return.
    pub fn new(
        net: Network<Segment>,
        client: (Stack, TracerClient),
        server: (Stack, RealServer),
    ) -> Self {
        Self::assemble(net, client, server, Spare::default())
    }

    /// As [`SessionWorld::new`], on the replica list, claims and fault
    /// queue of the last world retired into `scratch`, with a copy of
    /// `scratch.roles` as its role map: a warm scratch builds a world of
    /// any shape without allocating.
    pub fn on_scratch(
        net: Network<Segment>,
        client: (Stack, TracerClient),
        server: (Stack, RealServer),
        scratch: &mut WorldScratch,
    ) -> Self {
        let mut spare = std::mem::take(&mut scratch.spare);
        spare.roles.extend_from_slice(&scratch.roles);
        Self::assemble(net, client, server, spare)
    }

    fn assemble(
        net: Network<Segment>,
        (client_stack, client): (Stack, TracerClient),
        (server_stack, server): (Stack, RealServer),
        spare: Spare,
    ) -> Self {
        SessionWorld {
            net,
            client_stack,
            server_stack,
            server,
            client,
            replicas: spare.replicas,
            now: SimTime::ZERO,
            faults: spare.faults,
            replica_claims: spare.replica_claims,
            roles: spare.roles,
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
        self.replica_claims.push(SimTime::ZERO);
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
        self.faults.renew(plan, map);
    }

    /// Applies every fault event due at `now`. Returns whether any was.
    fn apply_faults(&mut self, now: SimTime) -> bool {
        let mut fired = false;
        while let Some(action) = self.faults.pop_due(now) {
            fired = true;
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
        fired
    }

    /// Drives everything until the client finishes or `deadline` passes.
    /// Returns the session record. May be called repeatedly with growing
    /// deadlines; the clock picks up where it left off.
    ///
    /// An instant is the network's poll, then a visit to each endpoint
    /// (the client, the primary, each replica), which settles it only if
    /// it owes work. Endpoints share nothing within an instant but the
    /// network, which delivers nothing sent at `now` before the next
    /// microsecond, so settling one never gives another work.
    pub fn run(&mut self, deadline: SimTime) -> SessionMetrics {
        let mut now = self.now;
        // `ZERO` claims nothing: a run starts by settling every endpoint.
        let (mut client_claim, mut server_claim) = (SimTime::ZERO, SimTime::ZERO);
        self.replica_claims.fill(SimTime::ZERO);
        let mut wakes = self.wakes(now);
        let mut tripped = false;
        loop {
            // A fault may have changed any endpoint, and the deadline's
            // instant settles them all: every claim lapses.
            let void = self.apply_faults(now) || now >= deadline;
            self.net.poll(now);
            let trips = self.work.settle_guard_trips;
            let Self {
                net,
                client_stack,
                server_stack,
                server,
                client,
                replicas,
                replica_claims,
                work,
                ..
            } = self;
            let mut visit = |stack: &mut Stack, app: App<'_>, claim: &mut SimTime| {
                visit(net, stack, app, claim, void, now, work)
            };
            let mut why = visit(client_stack, App::Client(client), &mut client_claim);
            why = why.max(visit(server_stack, App::Server(server), &mut server_claim));
            for ((stack, server), claim) in replicas.iter_mut().zip(replica_claims.iter_mut()) {
                why = why.max(visit(stack, App::Server(server), claim));
            }
            work.count(if tripped { Some(SettledBy::Guard) } else { why });
            tripped = work.settle_guard_trips > trips;
            if client.is_done() || now >= deadline {
                self.now = now;
                break;
            }
            // Beside the network, only a settle moves what the wake fold
            // reads (a fault's instant settles every endpoint).
            if why.is_some() {
                wakes = self.wakes(now);
            }
            let next = wakes.next(&self.net, now, deadline);
            debug_assert_eq!(next, self.wakes(now).next(&self.net, now, deadline));
            now = next;
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

    /// What the wake fold reads beside the network, read at `now`.
    fn wakes(&self, now: SimTime) -> Wakes {
        let wake = |t: Option<SimTime>| t.unwrap_or(SimTime::MAX);
        let mut wakes = Wakes {
            timers: wake(self.client_stack.next_wake()).min(wake(self.faults.next_wake())),
            apps: wake(self.client.next_wake(now)),
        };
        for (stack, server) in (0..).map_while(|r| self.server(r)) {
            wakes.timers = wakes.timers.min(wake(stack.next_wake()));
            wakes.apps = wakes.apps.min(wake(server.next_wake(now)));
        }
        wakes
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
    /// for the next session: the network, the client with its stack,
    /// every server with its stack, each into the slot of its role, and
    /// the world's own vectors, emptied. Nothing is scrubbed here: the
    /// next build renews each component before anything claims from a
    /// payload pool, so the payloads a retired component still holds are
    /// dropped before their backings are wanted.
    pub fn retire(mut self, scratch: &mut WorldScratch) {
        scratch.work += self.work;
        scratch.net = self.net;
        scratch.client = self.client.into_scratch();
        scratch.client.stack = self.client_stack;
        let primary = (self.server_stack, self.server);
        let servers = std::iter::once(primary).chain(self.replicas.drain(..));
        for (r, (stack, server)) in servers.enumerate() {
            let mut harvested = server.into_scratch();
            harvested.stack = stack;
            let slot = role_of(&self.roles, r);
            if scratch.servers.len() <= slot {
                scratch
                    .servers
                    .resize_with(slot + 1, ServerScratch::default);
            }
            scratch.servers[slot] = harvested;
        }
        self.replica_claims.clear();
        self.roles.clear();
        self.faults.disarm();
        scratch.spare = Spare {
            replicas: self.replicas,
            replica_claims: self.replica_claims,
            roles: self.roles,
            faults: self.faults,
        };
    }
}

/// What the wake fold reads beside the network: the earliest stack timer
/// or fault, and the earliest application wake. Only a settle or a fault
/// moves them: an application's wake is `max(w, now + APP_TICK)` for a
/// `w` fixed between its polls, so the one read at a settle stands.
#[derive(Debug, Clone, Copy)]
struct Wakes {
    timers: SimTime,
    apps: SimTime,
}

impl Wakes {
    /// The instant after `now`: the earliest wake, at least a
    /// microsecond on and at most `deadline`.
    fn next(self, net: &Network<Segment>, now: SimTime, deadline: SimTime) -> SimTime {
        net.next_wake()
            .unwrap_or(SimTime::MAX)
            .min(self.timers)
            .min(self.apps.max(now + APP_TICK))
            .min(deadline)
            .max(now + SimDuration::from_micros(1))
    }
}

/// An endpoint's application, as the driver polls it.
enum App<'a> {
    Client(&'a mut TracerClient),
    Server(&'a mut RealServer),
}

impl App<'_> {
    /// Polls the application at `now`, counting the poll in `work`.
    fn poll(&mut self, now: SimTime, stack: &mut Stack, work: &mut DriverWork) -> usize {
        let worked = match self {
            App::Client(client) => client.poll(now, stack),
            App::Server(server) => server.poll(now, stack),
        };
        let (polls, useful) = match self {
            App::Client(_) => (&mut work.client_polls, &mut work.client_polls_useful),
            App::Server(_) => (&mut work.server_polls, &mut work.server_polls_useful),
        };
        *polls += 1;
        *useful += u64::from(worked > 0);
        worked
    }

    /// The endpoint's claim, asked right after it settled: the earlier of
    /// the application's and the stack's `quiet_until`.
    fn claim(&self, stack: &Stack) -> SimTime {
        let app = match self {
            App::Client(client) => client.quiet_until(stack),
            App::Server(server) => server.quiet_until(stack),
        };
        app.min(stack.quiet_until())
    }

    /// A server's [`RealServer::quiet_step`], the one per-instant
    /// obligation of a claim; a client has none.
    fn quiet_step(&mut self, now: SimTime, stack: &Stack) -> bool {
        match self {
            App::Client(_) => true,
            App::Server(server) => server.quiet_step(now, stack),
        }
    }
}

/// Takes one endpoint through instant `now`, after the network's poll. It
/// settles if its claim is `void` or reached, its host's inbox holds a
/// packet, or its `quiet_step` refuses (asked last, so a bucket refills
/// after this instant's receiver report), and is asked for a new claim.
/// Returns why it settled, `None` if it stayed quiet.
fn visit(
    net: &mut Network<Segment>,
    stack: &mut Stack,
    mut app: App<'_>,
    claim: &mut SimTime,
    void: bool,
    now: SimTime,
    work: &mut DriverWork,
) -> Option<SettledBy> {
    let why = if void || *claim <= now {
        SettledBy::Lapsed
    } else if net.inbox_len(stack.host()) > 0 {
        SettledBy::Inbox
    } else if !app.quiet_step(now, stack) {
        SettledBy::QuietStep
    } else {
        // Executable spec of the claim: debug builds settle the endpoint
        // anyway, uncounted, and hold the settle to having moved nothing.
        if cfg!(debug_assertions) {
            let counted = *work;
            let moved = settle_endpoint(net, stack, &mut app, now, work);
            *work = counted;
            assert_eq!(moved, Some(0), "quiet endpoint moved at {now:?}");
        }
        return None;
    };
    *claim = match settle_endpoint(net, stack, &mut app, now, work) {
        Some(_) => app.claim(stack),
        None => {
            work.settle_guard_trips += 1;
            SimTime::ZERO
        }
    };
    Some(why)
}

/// Settles one endpoint at `now`: the fixed point of stack, application,
/// stack. Returns what it moved, or `None` if the guard (which bounds
/// ping-pong at one instant) cut the rounds short while things moved.
///
/// The stack is flushed first if it has observable work (`needs_poll`).
/// Each round then polls the application and flushes the stack again if
/// the application worked or the stack has work. A round ends the settle
/// unless that flush sent something, which may give the application room
/// to act: a poll leaves its stack owing nothing at `now`, and a poll
/// right after it handles nothing and changes nothing
/// (`stack_claims_agree_with_a_socket_sweep` in rv-transport), so another
/// round could only ask again.
fn settle_endpoint(
    net: &mut Network<Segment>,
    stack: &mut Stack,
    app: &mut App<'_>,
    now: SimTime,
    work: &mut DriverWork,
) -> Option<usize> {
    let flush = |net: &mut Network<Segment>, stack: &mut Stack, app_ran: bool| {
        if app_ran || stack.needs_poll(net, now) {
            stack.poll(now, net)
        } else {
            0
        }
    };
    let mut total = flush(net, stack, false);
    for _ in 0..64 {
        let worked = app.poll(now, stack, work);
        let flushed = flush(net, stack, worked > 0);
        total += worked + flushed;
        if flushed == 0 {
            return Some(total);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GatewayEndpoint;
    use proptest::prelude::*;
    use rv_media::ContentKind;
    use rv_net::LinkId;
    use rv_rtsp::TransportPreference;
    use rv_sim::{FaultSegment, LinkOutage, OutagePolicy, ServerCrash};

    impl SessionWorld {
        /// Settles every endpoint at `now`, whatever its claim: the
        /// instant's network poll, then each endpoint's fixed point.
        pub(crate) fn settle(&mut self, now: SimTime) {
            self.net.poll(now);
            let Self {
                net,
                client_stack,
                server_stack,
                server,
                client,
                replicas,
                work,
                ..
            } = self;
            settle_endpoint(net, client_stack, &mut App::Client(client), now, work);
            settle_endpoint(net, server_stack, &mut App::Server(server), now, work);
            for (stack, server) in replicas {
                settle_endpoint(net, stack, &mut App::Server(server), now, work);
            }
        }

        /// The instant after `now` by the full wake fan-in, every
        /// component's `next_wake` read afresh: the reference for the
        /// [`Wakes`] that `run` steps by.
        pub(crate) fn next_instant(&self, now: SimTime, deadline: SimTime) -> SimTime {
            let wake = |t: Option<SimTime>| t.unwrap_or(SimTime::MAX);
            let mut next = wake(self.net.next_wake())
                .min(wake(self.client_stack.next_wake()))
                .min(wake(self.server_stack.next_wake()))
                .min(wake(self.server.next_wake(now)))
                .min(wake(self.client.next_wake(now)))
                .min(wake(self.faults.next_wake()));
            for (stack, server) in &self.replicas {
                next = next
                    .min(wake(stack.next_wake()))
                    .min(wake(server.next_wake(now)));
            }
            let step_floor = now + SimDuration::from_micros(1);
            next.min(deadline).max(step_floor)
        }

        /// The reference driver: `run` without its claims — every
        /// endpoint is settled at every instant, and the next instant is
        /// the full wake fold's.
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
        /// Random worlds — path, transport, watch limit, seed, optionally
        /// an access-link outage and optionally a second server the client
        /// reaches through a gateway list, one of the two crashing and
        /// perhaps restarting (either fault hardens the client) — end in
        /// the same record, counters and clock, after the same number of
        /// instants, whether `run` drives them or the reference that
        /// settles every endpoint at every instant does.
        #[test]
        fn run_visits_and_leaves_what_settling_every_instant_does(
            (rate, delay_ms, loss, queue) in (30_000.0f64..2_000_000.0, 1u64..300, 0.0f64..0.08, 8u32..128),
            tcp in any::<bool>(),
            watch_s in 3u64..25,
            seed in any::<u64>(),
            outage in prop::option::of((1u64..20, 1u64..25, any::<bool>())),
            replica in prop::option::of((any::<bool>(), 0u64..20, prop::option::of(1u64..15))),
        ) {
            let build = || {
                let params = LinkParams::lan()
                    .rate(rate)
                    .delay(SimDuration::from_millis(delay_ms))
                    .loss(loss)
                    .queue(queue * 1024);
                let mut b = NetBuilder::new();
                let client = b.host();
                let servers = if replica.is_some() { 2 } else { 1 };
                for _ in 0..servers {
                    let server = b.host();
                    b.duplex(client, server, params);
                }
                let net = b.build_with_payload::<Segment>(&mut SimRng::seed_from_u64(seed));
                let ctrl = |k: u32| Addr::new(HostId(1 + k), ports::CTRL);
                let data = |k: u32| Addr::new(HostId(1 + k), ports::DATA_TCP);
                let mut cfg = ClientConfig::new("rtsp://server/c.rm", ctrl(0), data(0));
                cfg.watch_limit = SimDuration::from_secs(watch_s);
                if tcp {
                    cfg.transport_pref = TransportPreference::ForceTcp;
                }
                if replica.is_some() {
                    cfg.gateway = (0..2)
                        .map(|k| GatewayEndpoint { replica: k as u8, ctrl: ctrl(k), data: data(k) })
                        .collect();
                }
                let server = |k: u32| {
                    let mut catalog = Catalog::new();
                    catalog.add(Clip::new("c.rm", SimDuration::from_secs(90), ContentKind::News));
                    server_endpoint(
                        HostId(1 + k),
                        TcpConfig::default(),
                        ServerConfig::default(),
                        catalog,
                        seed ^ u64::from(k),
                        ServerScratch::default(),
                    )
                };
                let client = client_endpoint(
                    HostId(0),
                    client_data_tcp_config(),
                    cfg,
                    ClientScratch::default(),
                );
                let mut world = SessionWorld::new(net, client, server(0));
                if replica.is_some() {
                    world.add_replica(server(1));
                }
                let plan = FaultPlan {
                    link_outages: outage
                        .map(|(start, len, carry)| LinkOutage {
                            segment: FaultSegment::ClientAccess,
                            start: SimTime::from_secs(start),
                            end: SimTime::from_secs(start + len),
                            policy: if carry {
                                OutagePolicy::CarryInFlight
                            } else {
                                OutagePolicy::DropInFlight
                            },
                        })
                        .into_iter()
                        .collect(),
                    server_crashes: replica
                        .map(|(primary, at, restart)| ServerCrash {
                            at: SimTime::from_secs(at),
                            restart_after: restart.map(SimDuration::from_secs),
                            replica: u8::from(!primary),
                        })
                        .into_iter()
                        .collect(),
                    ..FaultPlan::none()
                };
                let map = FaultLinkMap {
                    client_access: vec![LinkId(0), LinkId(1)],
                    ..FaultLinkMap::default()
                };
                world.set_faults(&plan, &map);
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
            prop_assert_eq!(work.settled_instants() + work.light_instants, work.instants);
            // A skipped poll is one that would have done nothing.
            prop_assert_eq!(work.server_polls_useful, all.server_polls_useful);
            prop_assert_eq!(work.client_polls_useful, all.client_polls_useful);
        }
    }
}
