//! The assembled network: nodes, links, source routes, and packet delivery.
//!
//! [`Network`] is a poll-based component in the smoltcp style: callers
//! `send` packets, `poll(now)` to crank link serializations and propagation,
//! and `recv` delivered packets from per-host inboxes. `next_wake` reports
//! when the network next needs attention.
//!
//! The hot path does no per-packet scheduling at all:
//!
//! - Routes are **interned** at [`Network::set_route`] time into an indexed
//!   table (`RouteId` → `Arc<[LinkId]>`). `send` resolves the route once
//!   through a dense host×host matrix (one multiply-add, no hashing) and
//!   every packet carries `(RouteId, hop)` through the links as an opaque
//!   tag, so per-hop forwarding is two array indexes — no map lookup,
//!   no O(route-length) scan for "which hop is this link".
//! - A packet crossing a hop is pushed into the link's ring once and
//!   popped once. The ring ([`Link`]) holds the link's packets in order:
//!   on the wire, in service, waiting. Finishing a serialization moves
//!   nothing — the packet in service becomes the wire's last entry,
//!   stamped with a global push sequence — and arrival pops the wire's
//!   front. A link is a fixed-delay, rate-limited FIFO: while it stays
//!   busy its completions are monotonic (service time is at least 1 µs)
//!   and the propagation delay is constant, so each wire is sorted by
//!   `(arrival, seq)` as it stands. The rare exception — a sparsely polled
//!   link drained idle, then handed a backdated forwarding enqueue —
//!   sort-inserts instead. Due wire heads are merged by that key, which
//!   reproduces exactly the global FIFO pop order a per-packet timer
//!   queue would have produced.
//! - There is no due-time index: a session topology has a handful of
//!   links, so the earliest pending instant — the minimum over each
//!   link's in-service completion and each wire's head arrival — is
//!   maintained as two eager scalar minima (`service_next`,
//!   `arrival_next`). `poll` computes both inside the scans it makes
//!   anyway: the service minimum in the due-link scan, the arrival
//!   minimum in the delivery merge's head scan, which ends after the
//!   first run when no other wire had a due head. `next_wake` and
//!   `poll`'s nothing-due fast path are therefore two word reads and a
//!   `min`.
//! - Those scans never touch a `Link`: every link's in-service
//!   completion and every wire's head key are **mirrored** into three
//!   dense arrays (`serve_at`, `head_at`, `head_seq`), written at the few
//!   places a completion or a head changes, so "which links are due" and
//!   "which head is earliest" read a few contiguous words (`poll` exit
//!   checks the mirrors against the links in debug builds).
//!
//! Determinism: links due at the same instant drain in ascending `LinkId`
//! order, and in-flight arrivals tie-break FIFO on their global push
//! sequence. The executable spec of that schedule is the naive reference
//! model in `tests/properties.rs` (every link drained every round through
//! its public [`Link::poll`], one unsorted bag of in-flight packets popped
//! by minimum `(arrival, seq)`), which `network_matches_reference_model`
//! holds this type to at every step of randomized traffic-and-fault
//! scripts.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rv_sim::{OutagePolicy, SimRng, SimTime};

use crate::link::{Link, LinkParams, LinkStats, Served, Slot};
use crate::packet::{HostId, NodeId, Packet};

/// Index of a link within the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Index of an interned route in the network's route table.
///
/// A route id is issued per [`Network::set_route`] call; replacing the
/// route for a pair issues a fresh id, so packets still carrying the old
/// id are detected as stranded (and counted `misrouted`) instead of being
/// silently forwarded along a path that no longer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteId(pub u32);

/// Why [`Network::set_route`] refused a route: a broken route would
/// silently blackhole traffic. A refused route changes nothing — the
/// pair keeps the route it had, or stays unroutable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The route names no link.
    Empty,
    /// The route names a link the network does not have.
    UnknownLink(LinkId),
    /// Hop `hop` does not start where the previous hop ended (hop 0:
    /// at the source host's node).
    Discontiguous {
        /// Index of the offending hop in the route.
        hop: usize,
    },
    /// The last hop does not end at the destination host's node.
    WrongDestination,
    /// Every route id has been issued.
    IdsExhausted,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Empty => write!(f, "route must have at least one link"),
            RouteError::UnknownLink(lid) => write!(f, "route names unknown link {}", lid.0),
            RouteError::Discontiguous { hop } => {
                write!(f, "route hop {hop} does not start where previous ended")
            }
            RouteError::WrongDestination => write!(f, "route does not end at destination"),
            RouteError::IdsExhausted => write!(f, "route id space exhausted"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Sentinel in the dense route matrix: no route installed for the pair.
const NO_ROUTE: u32 = u32::MAX;

/// Packs `(route, hop)` into the opaque u64 tag a [`Link`] carries.
fn pack_tag(route: RouteId, hop: u32) -> u64 {
    (u64::from(route.0) << 32) | u64::from(hop)
}

/// Inverse of [`pack_tag`].
fn unpack_tag(tag: u64) -> (RouteId, u32) {
    (RouteId((tag >> 32) as u32), tag as u32)
}

/// The simulated network.
#[derive(Debug)]
pub struct Network<P> {
    /// Total number of nodes (hosts + routers).
    num_nodes: u32,
    /// host -> node mapping (hosts are nodes with an inbox).
    host_nodes: Vec<NodeId>,
    /// The links, each owning every packet it holds: waiting, in service
    /// and propagating on its wire.
    links: Vec<Link<P>>,
    /// Source routes as a dense host×host matrix: entry
    /// `src * num_hosts + dst` is the interned route id, or
    /// [`NO_ROUTE`]. Session topologies have a handful of hosts, so the
    /// matrix is tiny and route resolution is one multiply-add — no
    /// hashing, no allocation.
    route_ids: Vec<u32>,
    /// Interned route table, indexed by `RouteId`. Entries are immutable
    /// once issued; replaced routes leave their entry in place so stale
    /// ids can still be resolved for the misrouted check.
    route_table: Vec<Arc<[LinkId]>>,
    /// Retired links' emptied rings, handed to the next links built, like
    /// `spare_inboxes`.
    spare_rings: Vec<VecDeque<Slot<P>>>,
    /// Global stamp assigned to each packet going on a wire, so
    /// cross-link merges break same-instant ties in push order.
    transit_seq: u64,
    /// Wire observability: head exposures the scheduler scan must notice
    /// (a push onto an empty wire or in front of its head, or an arrival
    /// that uncovers a successor), and packets that joined a busy wire
    /// with no scheduler interaction at all.
    head_updates: u64,
    bypass_packets: u64,
    /// Dense mirror of `links[i].next_wake()`: each link's in-service
    /// completion, [`SimTime::MAX`] while it serves nothing. Written
    /// wherever a completion changes (enqueue, drain, outage, recovery),
    /// so the due-link scans read one contiguous array.
    serve_at: Vec<SimTime>,
    /// Dense mirror of each wire's head key `(at, seq)`: `head_at[i]` is
    /// [`SimTime::MAX`] while link `i`'s wire is empty (and `head_seq[i]`
    /// then meaningless). Written wherever a head changes (a push onto an
    /// empty wire or in front of its head, an arrival).
    head_at: Vec<SimTime>,
    head_seq: Vec<u64>,
    /// Earliest in-service completion across all links, [`SimTime::MAX`]
    /// when none. Kept *exact* at every public-API boundary: enqueues
    /// fold their (exact) completion in O(1), `poll`'s due-link scan
    /// recomputes it. Exactness matters — a conservatively-early value
    /// would manufacture spurious wake instants and change driver-visible
    /// timing.
    service_next: SimTime,
    /// Earliest wire head across all links, maintained with the same
    /// exactness discipline (wire pushes fold in O(1); the delivery
    /// merge's head scan recomputes).
    arrival_next: SimTime,
    inboxes: Vec<VecDeque<Packet<P>>>,
    /// Emptied inboxes recycled across [`Network::renew`]
    /// cycles, so a rebuilt topology's hosts start with warm buffers.
    spare_inboxes: Vec<VecDeque<Packet<P>>>,
    /// Packets dropped because no route existed.
    unroutable: u64,
    /// Packets dropped mid-flight because their route changed under them.
    misrouted: u64,
    /// Packets delivered end-to-end.
    delivered: u64,
}

impl<P> Network<P> {
    /// Creates an empty network. Use [`crate::NetBuilder`] for convenient
    /// topology construction.
    pub fn new() -> Self {
        Network {
            num_nodes: 0,
            host_nodes: Vec::new(),
            links: Vec::new(),
            route_ids: Vec::new(),
            route_table: Vec::new(),
            spare_rings: Vec::new(),
            transit_seq: 0,
            head_updates: 0,
            bypass_packets: 0,
            serve_at: Vec::new(),
            head_at: Vec::new(),
            head_seq: Vec::new(),
            service_next: SimTime::MAX,
            arrival_next: SimTime::MAX,
            inboxes: Vec::new(),
            spare_inboxes: Vec::new(),
            unroutable: 0,
            misrouted: 0,
            delivered: 0,
        }
    }

    /// Adds a host (a node with an inbox). Returns its id.
    pub fn add_host(&mut self) -> HostId {
        let node = self.add_node();
        let host = HostId(self.host_nodes.len() as u32);
        self.host_nodes.push(node);
        self.inboxes
            .push(self.spare_inboxes.pop().unwrap_or_default());
        // Re-stride the dense route matrix for the new host count, in
        // place: slot `(src, dst)` moves from `src * (n - 1) + dst` to
        // `src * n + dst`, never lower, so walking down from the last slot
        // reads every slot before anything is written over it.
        let n = self.host_nodes.len();
        self.route_ids.resize(n * n, NO_ROUTE);
        for src in (0..n - 1).rev() {
            for dst in (0..n - 1).rev() {
                let rid = std::mem::replace(&mut self.route_ids[src * (n - 1) + dst], NO_ROUTE);
                self.route_ids[src * n + dst] = rid;
            }
        }
        host
    }

    /// The dense-matrix slot for a host pair.
    #[inline]
    fn route_slot(&self, src: HostId, dst: HostId) -> usize {
        src.0 as usize * self.host_nodes.len() + dst.0 as usize
    }

    /// The interned route id currently routing `src` → `dst`, if any.
    /// One multiply-add and one load — the hot path of `send` and both
    /// drain arms.
    #[inline]
    fn route_id(&self, src: HostId, dst: HostId) -> Option<RouteId> {
        match self.route_ids[self.route_slot(src, dst)] {
            NO_ROUTE => None,
            rid => Some(RouteId(rid)),
        }
    }

    /// Adds an interior node (router) with no inbox.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes);
        self.num_nodes += 1;
        id
    }

    /// The node a host occupies.
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.host_nodes[host.0 as usize]
    }

    /// Adds a unidirectional link. Returns its id.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        params: LinkParams,
        rng: SimRng,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let ring = self.spare_rings.pop().unwrap_or_default();
        let mut link = Link::new_on(from, to, params, rng, ring);
        link.set_trace_tag(id.0);
        self.links.push(link);
        self.serve_at.push(SimTime::MAX);
        self.head_at.push(SimTime::MAX);
        self.head_seq.push(0);
        id
    }

    /// Installs the source route from `src` to `dst`, interning it into
    /// the route table and issuing a fresh [`RouteId`]. Takes a `Vec` to
    /// intern or an `Arc` to share (a [`crate::TopologyPrototype`]'s
    /// routes are cloned into every network built from it); route ids are
    /// issued in call order either way.
    ///
    /// Refuses, changing nothing, a route that is empty, names a link the
    /// network lacks, or is not contiguous from `src`'s node to `dst`'s.
    pub fn set_route(
        &mut self,
        src: HostId,
        dst: HostId,
        route: impl Into<Arc<[LinkId]>>,
    ) -> Result<(), RouteError> {
        let route = route.into();
        if route.is_empty() {
            return Err(RouteError::Empty);
        }
        let mut at = self.host_node(src);
        for (hop, &lid) in route.iter().enumerate() {
            let link = self
                .links
                .get(lid.0 as usize)
                .ok_or(RouteError::UnknownLink(lid))?;
            if link.from != at {
                return Err(RouteError::Discontiguous { hop });
            }
            at = link.to;
        }
        if at != self.host_node(dst) {
            return Err(RouteError::WrongDestination);
        }
        let rid = u32::try_from(self.route_table.len())
            .ok()
            .filter(|&rid| rid != NO_ROUTE)
            .ok_or(RouteError::IdsExhausted)?;
        self.route_table.push(route);
        let slot = self.route_slot(src, dst);
        self.route_ids[slot] = rid;
        Ok(())
    }

    /// Whether a route exists between two hosts.
    pub fn has_route(&self, src: HostId, dst: HostId) -> bool {
        self.route_id(src, dst).is_some()
    }

    /// The interned link sequence currently routing `src` → `dst`.
    pub fn route(&self, src: HostId, dst: HostId) -> Option<&[LinkId]> {
        self.route_id(src, dst)
            .map(|rid| &*self.route_table[rid.0 as usize])
    }

    /// Sends a packet at `now`. The route is resolved once, here; the
    /// packet carries its `(RouteId, hop)` through every link. Returns
    /// `false` if no route exists or the first link dropped it immediately.
    pub fn send(&mut self, now: SimTime, packet: Packet<P>) -> bool {
        let Some(rid) = self.route_id(packet.src.host, packet.dst.host) else {
            self.unroutable += 1;
            return false;
        };
        let first = self.route_table[rid.0 as usize][0];
        self.enqueue_on_link(first, now, packet, pack_tag(rid, 0))
    }

    /// Enqueues on a link, folding the link's (possibly new) in-service
    /// completion into the eager service minimum. An already-serving
    /// link's completion never changes under enqueue, so the fold is a
    /// no-op then; an idle→serving transition contributes its exact time.
    fn enqueue_on_link(&mut self, lid: LinkId, now: SimTime, packet: Packet<P>, tag: u64) -> bool {
        let accepted = self.links[lid.0 as usize].enqueue_tagged(now, packet, tag);
        let at = self.mirror_serve_at(lid);
        self.service_next = self.service_next.min(at);
        accepted
    }

    /// Refreshes `serve_at` for one link after anything that can change
    /// its in-service completion. Returns the mirrored value.
    fn mirror_serve_at(&mut self, lid: LinkId) -> SimTime {
        let i = lid.0 as usize;
        let at = self.links[i].next_wake().unwrap_or(SimTime::MAX);
        self.serve_at[i] = at;
        at
    }

    /// Processes all work due by `now`: link serializations and propagation
    /// arrivals, forwarding packets along their routes. Returns the number
    /// of packets that moved.
    ///
    /// Due links are found by scanning the `serve_at` mirror in ascending
    /// `LinkId` order, behind a nothing-due fast path; the same scan
    /// recomputes the service minimum. An instant at which only arrivals
    /// are due skips the scan: the service minimum is exact, so past
    /// `now` it says no link is due and the scan would leave it as it is.
    pub fn poll(&mut self, now: SimTime) -> usize {
        // Fast path: nothing due. Drivers poll the network once an
        // instant, so this single cached read is the common case.
        if self.next_due() > now {
            return 0;
        }
        let mut moved = 0;
        loop {
            // Drains only move completions later and the scan reads each
            // link's after its drain, so its minimum is exact; the
            // forwarding enqueues below fold into it.
            if self.service_next <= now {
                let mut service_next = SimTime::MAX;
                for i in 0..self.serve_at.len() {
                    if self.serve_at[i] <= now {
                        moved += self.drain_link(i, now);
                    }
                    service_next = service_next.min(self.serve_at[i]);
                }
                self.service_next = service_next;
            }
            // Another round is needed only when forwarding parked a
            // serialization completing by `now`: a drained link never
            // stays due (`serve_one` runs until its completion passes
            // `now`), and drain-side pushes due by `now` are consumed by
            // the deliver pass in this same round.
            let mut requeue = false;
            moved += self.deliver_due(now, &mut requeue);
            if !requeue {
                break;
            }
        }
        self.debug_check_mirrors();
        moved
    }

    /// The mirrors' executable spec: every entry equals what it mirrors,
    /// the service minimum is the `serve_at` minimum, and every wire is in
    /// `(arrival, seq)` order. Compiled out of release builds.
    fn debug_check_mirrors(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert_eq!(
            self.service_next,
            self.serve_at.iter().copied().min().unwrap_or(SimTime::MAX),
            "service minimum drifted from the serve_at mirror"
        );
        for (i, link) in self.links.iter().enumerate() {
            assert_eq!(
                self.serve_at[i],
                link.next_wake().unwrap_or(SimTime::MAX),
                "serve_at[{i}] drifted from its link"
            );
            match link.wire_head() {
                Some(head) => assert_eq!(
                    (self.head_at[i], self.head_seq[i]),
                    head,
                    "head mirror {i} drifted from its wire"
                ),
                None => assert_eq!(self.head_at[i], SimTime::MAX, "head mirror {i} not cleared"),
            }
            assert!(
                link.wire_is_sorted(),
                "wire {i} out of (arrival, seq) order"
            );
        }
    }

    /// Drains one link's due serializations onto its wire, validating
    /// each packet's route id. Returns the number of packets that moved
    /// onward (misrouted drops are not movement — consistently with the
    /// propagation arm).
    fn drain_link(&mut self, i: usize, now: SimTime) -> usize {
        let Network {
            links,
            host_nodes,
            route_ids,
            serve_at,
            head_at,
            head_seq,
            transit_seq,
            head_updates,
            bypass_packets,
            arrival_next,
            misrouted,
            ..
        } = self;
        let num_hosts = host_nodes.len();
        // The route existed at send time, but may have been replaced
        // since; a packet stranded by a route change is dropped and
        // counted rather than panicking the simulation.
        let live = |packet: &Packet<P>, tag: u64| {
            let slot = packet.src.host.0 as usize * num_hosts + packet.dst.host.0 as usize;
            route_ids[slot] == unpack_tag(tag).0 .0
        };
        let link = &mut links[i];
        let mut moved = 0;
        while let Some(served) = link.serve_one(now, transit_seq, live) {
            match served {
                Served::Head(at, seq) => {
                    *head_updates += 1;
                    head_at[i] = at;
                    head_seq[i] = seq;
                    *arrival_next = (*arrival_next).min(at);
                    moved += 1;
                }
                Served::Behind => {
                    *bypass_packets += 1;
                    moved += 1;
                }
                Served::Stranded => *misrouted += 1,
            }
        }
        serve_at[i] = link.next_wake().unwrap_or(SimTime::MAX);
        moved
    }

    /// Delivers propagation arrivals due by `now`, forwarding each packet
    /// to its next hop or its destination inbox. Returns packets moved.
    ///
    /// K-way merges the due wire heads by `(at, seq)` — the exact global
    /// pop order a per-packet timer queue would produce. The merge is a
    /// repeated linear min scan: the link count is a topology-sized
    /// handful, so the scan beats any heap and allocates nothing.
    fn deliver_due(&mut self, now: SimTime, requeue: &mut bool) -> usize {
        // Exact fast path: `arrival_next` is exact on entry — exact at the
        // poll boundary, and the round's drains only *fold* head arrivals
        // into it (arrivals happen nowhere but here, and every exit below
        // leaves it exact again) — so one read settles "nothing due".
        if self.arrival_next > now {
            return 0;
        }
        let mut moved = 0;
        loop {
            // One scan finds the earliest due head, the runner-up due key
            // and the earliest head not yet due; `deliver_run` then takes
            // a whole *run* from the winning wire — every consecutive
            // entry still ahead of the runner-up — so bursts on one link
            // cost one scan, not one per packet.
            let mut best: Option<(SimTime, u64, usize)> = None;
            let mut second: Option<(SimTime, u64)> = None;
            let mut later = SimTime::MAX;
            for (li, (&at, &seq)) in self.head_at.iter().zip(&self.head_seq).enumerate() {
                if at == SimTime::MAX {
                    continue; // empty wire
                }
                if at > now {
                    later = later.min(at);
                    continue;
                }
                let key = (at, seq);
                match best {
                    Some((b_at, b_seq, _)) if key < (b_at, b_seq) => {
                        second = Some((b_at, b_seq));
                        best = Some((at, seq, li));
                    }
                    Some(_) => {
                        if second.is_none_or(|s| key < s) {
                            second = Some(key);
                        }
                    }
                    None => best = Some((at, seq, li)),
                }
            }
            let Some((_, _, li)) = best else {
                // No due heads remain, and `later` is the exact minimum
                // over every surviving (future) head.
                self.arrival_next = later;
                break;
            };
            moved += self.deliver_run(li, now, second, requeue);
            if second.is_none() {
                // No other wire had a due head, and forwarding only
                // enqueues — no wire changes outside `poll`'s drains — so
                // every other head is where the scan saw it, after `now`,
                // and this wire's run ended on a head after `now` too.
                self.arrival_next = later.min(self.head_at[li]);
                break;
            }
        }
        moved
    }

    /// Delivers wire `li`'s arrivals from its head while they are due by
    /// `now` and ahead of `second` (the earliest due head on any other
    /// wire). Returns packets moved.
    fn deliver_run(
        &mut self,
        li: usize,
        now: SimTime,
        second: Option<(SimTime, u64)>,
        requeue: &mut bool,
    ) -> usize {
        let mut moved = 0;
        loop {
            let head = (self.head_at[li], self.head_seq[li]);
            if head.0 > now || second.is_some_and(|s| s < head) {
                break;
            }
            let Some(Slot {
                packet, tag, at, ..
            }) = self.links[li].pop_wire()
            else {
                break; // the mirror said due; the wire agrees (debug-checked)
            };
            match self.links[li].wire_head() {
                Some((next_at, next_seq)) => {
                    // The arrival exposed a successor head the scheduler
                    // scan must now track.
                    self.head_updates += 1;
                    self.head_at[li] = next_at;
                    self.head_seq[li] = next_seq;
                }
                None => self.head_at[li] = SimTime::MAX,
            }
            let (route, hop) = unpack_tag(tag);
            // Same staleness rule as the serialization arm: a replaced
            // route strands the packet, counted not panicked.
            if self.route_id(packet.src.host, packet.dst.host) != Some(route) {
                self.misrouted += 1;
                continue;
            }
            let links = &self.route_table[route.0 as usize];
            if hop as usize + 1 >= links.len() {
                self.inboxes[packet.dst.host.0 as usize].push_back(packet);
                self.delivered += 1;
            } else {
                let next = links[hop as usize + 1];
                self.enqueue_on_link(next, at, packet, pack_tag(route, hop + 1));
                // A late-arriving packet (at < now) can finish
                // serializing by `now`; only then does the caller need
                // another drain round.
                if self.serve_at[next.0 as usize] <= now {
                    *requeue = true;
                }
            }
            moved += 1;
        }
        moved
    }

    /// The earliest pending instant, [`SimTime::MAX`] when there is none:
    /// the eager service and arrival minima (exact at every public-API
    /// boundary).
    #[inline]
    fn next_due(&self) -> SimTime {
        self.service_next.min(self.arrival_next)
    }

    /// When the network next needs polling, `None` when nothing is
    /// pending. Two word reads and a `min`; the session driver reads it
    /// once an instant, when it picks the next instant to visit.
    pub fn next_wake(&self) -> Option<SimTime> {
        let due = self.next_due();
        (due != SimTime::MAX).then_some(due)
    }

    /// Pops the next delivered packet for `host`, if any.
    pub fn recv(&mut self, host: HostId) -> Option<Packet<P>> {
        self.inboxes[host.0 as usize].pop_front()
    }

    /// Number of packets waiting in `host`'s inbox.
    pub fn inbox_len(&self, host: HostId) -> usize {
        self.inboxes[host.0 as usize].len()
    }

    /// Stats for one link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.links[link.0 as usize].stats()
    }

    /// Sums every link's counters: the per-path totals a campaign's
    /// failure accounting audits (notably `dropped_outage`, which only
    /// fault injection can produce).
    pub fn total_link_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for l in &self.links {
            let s = l.stats();
            total.enqueued += s.enqueued;
            total.delivered += s.delivered;
            total.dropped_queue += s.dropped_queue;
            total.dropped_loss += s.dropped_loss;
            total.dropped_outage += s.dropped_outage;
            total.bytes_delivered += s.bytes_delivered;
        }
        total
    }

    /// Takes a link down (fault injection). See [`Link::set_down`] for
    /// the policy semantics. A flush can retire the in-service packet, so
    /// the service minimum is recomputed; the wire is untouched.
    pub fn set_link_down(&mut self, lid: LinkId, policy: OutagePolicy) {
        self.links[lid.0 as usize].set_down(policy);
        self.mirror_serve_at(lid);
        self.service_next = self.serve_at.iter().copied().min().unwrap_or(SimTime::MAX);
    }

    /// Brings a link back up at `now`. A carried queue that resumes
    /// serializing folds its new completion into the service minimum —
    /// the idle→serving transition `enqueue_on_link` normally covers.
    pub fn set_link_up(&mut self, now: SimTime, lid: LinkId) {
        self.links[lid.0 as usize].set_up(now);
        let at = self.mirror_serve_at(lid);
        self.service_next = self.service_next.min(at);
    }

    /// `true` while a link is administratively down.
    pub fn link_is_down(&self, lid: LinkId) -> bool {
        self.links[lid.0 as usize].is_down()
    }

    /// Sets a link's injected extra loss in parts per million (loss
    /// bursts). Zero restores organic behavior exactly.
    pub fn set_link_extra_loss(&mut self, lid: LinkId, ppm: u32) {
        self.links[lid.0 as usize].set_extra_loss_ppm(ppm);
    }

    /// Count of packets that had no route.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Count of in-flight packets stranded by a mid-flight route change.
    pub fn misrouted(&self) -> u64 {
        self.misrouted
    }

    /// Count of packets delivered end-to-end.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Wire observability: `(head_updates, bypass_packets)`. Head updates
    /// are wire-head exposures — the instants the scheduler scan must
    /// track; bypass packets joined a busy wire behind an earlier head —
    /// the per-packet scheduling events the wires eliminated. (The name
    /// is the counters': each wire was once a separate delay line.)
    pub fn delayline_stats(&self) -> (u64, u64) {
        (self.head_updates, self.bypass_packets)
    }

    /// Returns to [`Network::new`]'s state, keeping the allocated
    /// storage — link rings, inboxes, mirrors, route tables — so the next
    /// session's rebuild schedules into warm memory. Every packet the
    /// network held is dropped here. [`crate::NetBuilder::build_from_prototype_into`]
    /// renews the network it builds on.
    pub fn renew(&mut self) {
        fn emptied<T>(v: &mut Vec<T>) -> Vec<T> {
            let mut v = std::mem::take(v);
            v.clear();
            v
        }
        // Reversed onto the spares, which are popped: link `i` and host
        // `i` of the next topology get link `i`'s ring and host `i`'s
        // inbox, sized by the same role's last need.
        let mut spare_rings = std::mem::take(&mut self.spare_rings);
        spare_rings.extend(self.links.drain(..).rev().map(Link::into_queue_storage));
        let mut spare_inboxes = std::mem::take(&mut self.spare_inboxes);
        spare_inboxes.extend(self.inboxes.drain(..).rev().map(|mut q| {
            q.clear();
            q
        }));
        *self = Network {
            host_nodes: emptied(&mut self.host_nodes),
            links: emptied(&mut self.links),
            route_ids: emptied(&mut self.route_ids),
            route_table: emptied(&mut self.route_table),
            spare_rings,
            serve_at: emptied(&mut self.serve_at),
            head_at: emptied(&mut self.head_at),
            head_seq: emptied(&mut self.head_seq),
            inboxes: emptied(&mut self.inboxes),
            spare_inboxes,
            ..Network::new()
        };
    }

    /// Bytes of packet storage held, live and spare: link rings and
    /// inboxes, what a retired network carries into the next session.
    pub fn retained_bytes(&self) -> usize {
        let rings = self.links.iter().map(Link::ring_capacity);
        let rings = rings.chain(self.spare_rings.iter().map(VecDeque::capacity));
        let inboxes = self.inboxes.iter().chain(&self.spare_inboxes);
        rings.sum::<usize>() * std::mem::size_of::<Slot<P>>()
            + inboxes.map(VecDeque::capacity).sum::<usize>() * std::mem::size_of::<Packet<P>>()
    }
}

impl<P> Default for Network<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Addr;
    use rv_sim::SimDuration;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    /// Two hosts joined by one bidirectional pair of links.
    fn two_hosts(params: LinkParams) -> (Network<u32>, HostId, HostId) {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let (na, nb) = (net.host_node(a), net.host_node(b));
        let ab = net.add_link(na, nb, params, rng());
        let ba = net.add_link(nb, na, params, rng());
        net.set_route(a, b, vec![ab]).unwrap();
        net.set_route(b, a, vec![ba]).unwrap();
        (net, a, b)
    }

    #[test]
    fn delivers_end_to_end_with_correct_latency() {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(20));
        let (mut net, a, b) = two_hosts(params);
        let t0 = SimTime::ZERO;
        let pkt = Packet::new(Addr::new(a, 100), Addr::new(b, 200), 1250, 7u32);
        assert!(net.send(t0, pkt));
        // 10 ms serialization + 20 ms propagation = 30 ms.
        net.poll(SimTime::from_millis(29));
        assert_eq!(net.inbox_len(b), 0);
        net.poll(SimTime::from_millis(30));
        assert_eq!(net.inbox_len(b), 1);
        let got = net.recv(b).unwrap();
        assert_eq!(got.payload, 7);
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn unroutable_packets_counted() {
        let mut net: Network<u32> = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let pkt = Packet::new(Addr::new(a, 1), Addr::new(b, 2), 100, 0);
        assert!(!net.send(SimTime::ZERO, pkt));
        assert_eq!(net.unroutable(), 1);
    }

    #[test]
    fn multi_hop_route_forwards() {
        let mut net: Network<u32> = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let r = net.add_node();
        let params = LinkParams::lan()
            .rate(1e9)
            .delay(SimDuration::from_millis(10));
        let l1 = net.add_link(net.host_node(a), r, params, rng());
        let l2 = net.add_link(r, net.host_node(b), params, rng());
        net.set_route(a, b, vec![l1, l2]).unwrap();
        let pkt = Packet::new(Addr::new(a, 1), Addr::new(b, 2), 125, 9u32);
        net.send(SimTime::ZERO, pkt);
        // Two 10 ms propagation legs plus ~1 us serialization each.
        net.poll(SimTime::from_millis(21));
        assert_eq!(net.recv(b).unwrap().payload, 9);
    }

    /// Hosts added after routes exist re-stride the route matrix in place:
    /// every route keeps its pair, and the new host's row and column are
    /// empty.
    #[test]
    fn adding_a_host_keeps_every_route_on_its_pair() {
        let (mut net, a, b) = two_hosts(LinkParams::lan());
        let c = net.add_host();
        assert!(net.has_route(a, b) && net.has_route(b, a));
        for (src, dst) in [(a, a), (b, b), (a, c), (c, a), (b, c), (c, b), (c, c)] {
            assert!(!net.has_route(src, dst), "{src:?} -> {dst:?}");
        }
        let ca = net.add_link(net.host_node(c), net.host_node(a), LinkParams::lan(), rng());
        net.set_route(c, a, vec![ca]).unwrap();
        let d = net.add_host();
        let routed = [(a, b), (b, a), (c, a)];
        for src in [a, b, c, d] {
            for dst in [a, b, c, d] {
                assert_eq!(net.has_route(src, dst), routed.contains(&(src, dst)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not end at destination")]
    fn set_route_validates_endpoint() {
        let mut net: Network<u32> = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let c = net.add_host();
        let l = net.add_link(net.host_node(a), net.host_node(c), LinkParams::lan(), rng());
        net.set_route(a, b, vec![l])
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Every way a route can be broken is a typed refusal that leaves the
    /// pair's route as it was.
    #[test]
    fn set_route_refuses_broken_routes_and_keeps_the_old_one() {
        let (mut net, a, b) = two_hosts(LinkParams::lan());
        let (ab, ba) = (LinkId(0), LinkId(1));
        let refusals = [
            (vec![], RouteError::Empty),
            (vec![LinkId(7)], RouteError::UnknownLink(LinkId(7))),
            (vec![ba], RouteError::Discontiguous { hop: 0 }),
            (vec![ab, ab], RouteError::Discontiguous { hop: 1 }),
            (vec![ab, ba], RouteError::WrongDestination),
        ];
        for (route, why) in refusals {
            assert_eq!(net.set_route(a, b, route), Err(why));
            assert_eq!(net.route(a, b), Some(&[ab][..]));
        }
        assert_eq!(
            RouteError::WrongDestination.to_string(),
            "route does not end at destination"
        );
        let pkt = Packet::new(Addr::new(a, 1), Addr::new(b, 1), 100, 1u32);
        assert!(net.send(SimTime::ZERO, pkt));
        net.poll(SimTime::from_secs(1));
        assert_eq!((net.delivered(), net.misrouted()), (1, 0));
    }

    #[test]
    fn next_wake_tracks_pending_work() {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(20));
        let (mut net, a, b) = two_hosts(params);
        assert_eq!(net.next_wake(), None);
        let pkt = Packet::new(Addr::new(a, 1), Addr::new(b, 2), 1250, 0u32);
        net.send(SimTime::ZERO, pkt);
        // Serialization finishes at 10 ms.
        assert_eq!(net.next_wake(), Some(SimTime::from_millis(10)));
        net.poll(SimTime::from_millis(10));
        // Now the propagation arrival at 30 ms is pending.
        assert_eq!(net.next_wake(), Some(SimTime::from_millis(30)));
        net.poll(SimTime::from_millis(30));
        assert_eq!(net.next_wake(), None);
    }

    #[test]
    fn bidirectional_traffic_does_not_interfere() {
        let (mut net, a, b) = two_hosts(LinkParams::lan().rate(1e9));
        net.send(
            SimTime::ZERO,
            Packet::new(Addr::new(a, 1), Addr::new(b, 1), 100, 1u32),
        );
        net.send(
            SimTime::ZERO,
            Packet::new(Addr::new(b, 1), Addr::new(a, 1), 100, 2u32),
        );
        net.poll(SimTime::from_millis(100));
        assert_eq!(net.recv(b).unwrap().payload, 1);
        assert_eq!(net.recv(a).unwrap().payload, 2);
    }

    #[test]
    fn outage_blackholes_then_recovers_with_coherent_wakes() {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(10));
        let (mut net, a, b) = two_hosts(params);
        let send = |net: &mut Network<u32>, t: SimTime, v: u32| {
            net.send(t, Packet::new(Addr::new(a, 1), Addr::new(b, 1), 1250, v))
        };
        // One packet mid-serialization when the outage hits.
        assert!(send(&mut net, SimTime::ZERO, 1));
        net.set_link_down(LinkId(0), OutagePolicy::DropInFlight);
        assert!(net.link_is_down(LinkId(0)));
        assert!(!send(&mut net, SimTime::from_millis(1), 2));
        net.poll(SimTime::from_secs(1));
        assert_eq!(net.inbox_len(b), 0);
        assert_eq!(net.link_stats(LinkId(0)).dropped_outage, 2);
        // Recovery: traffic flows, next_wake tracks the new serialization.
        let up = SimTime::from_secs(2);
        net.set_link_up(up, LinkId(0));
        assert!(send(&mut net, up, 3));
        assert_eq!(net.next_wake(), Some(up + SimDuration::from_millis(10)));
        net.poll(up + SimDuration::from_millis(20));
        assert_eq!(net.recv(b).unwrap().payload, 3);
    }

    #[test]
    fn carried_outage_delivers_queued_packets_after_recovery() {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(10));
        let (mut net, a, b) = two_hosts(params);
        let mk = |v: u32| Packet::new(Addr::new(a, 1), Addr::new(b, 1), 1250, v);
        assert!(net.send(SimTime::ZERO, mk(1)));
        net.set_link_down(LinkId(0), OutagePolicy::CarryInFlight);
        // Accepted into the stalled queue.
        assert!(net.send(SimTime::from_millis(5), mk(2)));
        net.poll(SimTime::from_secs(1));
        assert_eq!(net.inbox_len(b), 0);
        let up = SimTime::from_secs(3);
        net.set_link_up(up, LinkId(0));
        net.poll(up + SimDuration::from_millis(50));
        let mut got = Vec::new();
        while let Some(p) = net.recv(b) {
            got.push(p.payload);
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(net.link_stats(LinkId(0)).dropped_outage, 0);
        assert_eq!(net.total_link_stats().delivered, 2);
    }

    #[test]
    fn fifo_order_preserved_end_to_end() {
        let (mut net, a, b) = two_hosts(LinkParams::lan().rate(1e6).queue(1 << 20));
        for i in 0..10u32 {
            net.send(
                SimTime::ZERO,
                Packet::new(Addr::new(a, 1), Addr::new(b, 1), 500, i),
            );
        }
        net.poll(SimTime::from_secs(10));
        let mut got = Vec::new();
        while let Some(p) = net.recv(b) {
            got.push(p.payload);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
