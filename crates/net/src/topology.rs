//! Topology builder with automatic shortest-path routing.
//!
//! The study's world model builds a two-tier topology per streaming session:
//! server → server-side access link → transit path (region-dependent delay,
//! loss, cross traffic) → user access link → client. [`NetBuilder`] keeps
//! that construction declarative and installs BFS shortest-hop routes
//! between every pair of hosts automatically.

use std::collections::VecDeque;
use std::sync::Arc;

use rv_sim::SimRng;

use crate::link::LinkParams;
use crate::network::{LinkId, Network};
use crate::packet::{HostId, NodeId};

/// Declarative topology builder.
#[derive(Debug)]
pub struct NetBuilder {
    net_nodes: u32,
    hosts: Vec<u32>, // node indices that are hosts, in creation order
    links: Vec<(u32, u32, LinkParams)>,
}

/// A node handle issued by the builder before the network exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildNode(u32);

impl Default for NetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        NetBuilder {
            net_nodes: 0,
            hosts: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Returns to [`NetBuilder::new`]'s state, keeping the storage: every
    /// declaration is forgotten.
    pub fn renew(&mut self) {
        let mut hosts = std::mem::take(&mut self.hosts);
        let mut links = std::mem::take(&mut self.links);
        hosts.clear();
        links.clear();
        *self = NetBuilder {
            hosts,
            links,
            ..NetBuilder::new()
        };
    }

    /// Bytes of declaration storage held.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.hosts.capacity() * size_of::<u32>()
            + self.links.capacity() * size_of::<(u32, u32, LinkParams)>()
    }

    /// Declares a host (endpoint with sockets).
    pub fn host(&mut self) -> BuildNode {
        let n = BuildNode(self.net_nodes);
        self.hosts.push(self.net_nodes);
        self.net_nodes += 1;
        n
    }

    /// Declares an interior router.
    pub fn router(&mut self) -> BuildNode {
        let n = BuildNode(self.net_nodes);
        self.net_nodes += 1;
        n
    }

    /// Adds a unidirectional link.
    pub fn link(&mut self, from: BuildNode, to: BuildNode, params: LinkParams) {
        self.links.push((from.0, to.0, params));
    }

    /// Adds a symmetric pair of links with identical parameters.
    pub fn duplex(&mut self, a: BuildNode, b: BuildNode, params: LinkParams) {
        self.link(a, b, params);
        self.link(b, a, params);
    }

    /// Materializes the network and installs BFS shortest-hop routes between
    /// every ordered pair of hosts that is connected: [`NetBuilder::prototype`]
    /// followed by [`NetBuilder::build_from_prototype_into`] on a fresh
    /// network — the one build path, so a one-off build and a cached
    /// rebuild cannot drift apart.
    ///
    /// `rng` seeds the per-link loss/congestion streams (each link gets its
    /// own child stream, keyed by its endpoints).
    pub fn build_with_payload<P>(self, rng: &mut SimRng) -> Network<P> {
        let proto = self.prototype();
        self.build_from_prototype_into(rng, Network::new(), &proto)
    }

    /// Computes this builder's routing structure once, for reuse by
    /// [`NetBuilder::build_from_prototype_into`] across every later build
    /// of the same shape. Routes depend only on node/host declarations and
    /// link endpoints — never on link parameters or RNG draws — so one
    /// prototype serves every session whose topology differs only in
    /// rates, delays, and loss.
    pub fn prototype(&self) -> TopologyPrototype {
        // Link ids are issued in declaration order, so builder index ==
        // link id.
        let mut adj: Vec<Vec<(u32, LinkId)>> = vec![Vec::new(); self.net_nodes as usize];
        for (i, (from, to, _)) in self.links.iter().enumerate() {
            adj[*from as usize].push((*to, LinkId(i as u32)));
        }
        // BFS from every host to every other host. The recording order is
        // the route-id order of every network built from this prototype.
        let mut routes = Vec::new();
        for (src_pos, src_idx) in self.hosts.iter().enumerate() {
            let preds = bfs(&adj, *src_idx, self.net_nodes);
            for (dst_pos, dst_idx) in self.hosts.iter().enumerate() {
                if src_idx == dst_idx {
                    continue;
                }
                if let Some(route) = trace(&preds, *src_idx, *dst_idx) {
                    routes.push((
                        HostId(src_pos as u32),
                        HostId(dst_pos as u32),
                        Arc::from(route),
                    ));
                }
            }
        }
        TopologyPrototype {
            net_nodes: self.net_nodes,
            hosts: self.hosts.clone(),
            link_ends: self.links.iter().map(|(f, t, _)| (*f, *t)).collect(),
            routes,
        }
    }

    /// Builds this topology onto `net` — a fresh [`Network::new`] or a
    /// retired network whose storage (link rings, inboxes, tables) is
    /// recycled — and installs `proto`'s routes: nodes and links are
    /// created in declaration order (so ids match handles) with this
    /// builder's own parameters and one RNG fork per link, then each
    /// recorded route `Arc` is cloned into the route table in recorded
    /// order. Routing is a pure function of structure, so a cached
    /// prototype yields a network bit-identical to one built from a
    /// prototype computed on the spot.
    ///
    /// A prototype derived from a structurally different builder (see
    /// [`TopologyPrototype::matches`]) is not used: the routes are then
    /// computed on the spot, so the network is always the one
    /// [`NetBuilder::build_with_payload`] builds.
    pub fn build_from_prototype_into<P>(
        &self,
        rng: &mut SimRng,
        mut net: Network<P>,
        proto: &TopologyPrototype,
    ) -> Network<P> {
        let own;
        let proto = if proto.matches(self) {
            proto
        } else {
            own = self.prototype();
            &own
        };
        net.renew();
        // Node ids are issued sequentially, so builder index == node id —
        // no mapping table needed.
        for idx in 0..self.net_nodes {
            if self.hosts.contains(&idx) {
                net.add_host();
            } else {
                net.add_node();
            }
        }
        for (from, to, params) in &self.links {
            net.add_link(
                NodeId(*from),
                NodeId(*to),
                *params,
                rng.fork(u64::from(*from) << 32 | u64::from(*to)),
            );
        }
        for (src, dst, route) in &proto.routes {
            // Infallible: a matching prototype's routes are BFS paths over
            // these very link endpoints — non-empty, contiguous, ending at
            // `dst` — with one id per host pair. (Were one refused, its
            // pair would count `unroutable`, not panic.)
            let installed = net.set_route(*src, *dst, Arc::clone(route));
            debug_assert_eq!(installed, Ok(()));
        }
        net
    }
}

/// A topology's pre-computed routing structure: the BFS shortest-hop
/// route set for one graph shape, shared across every session that builds
/// it. Produced by [`NetBuilder::prototype`], consumed by
/// [`NetBuilder::build_from_prototype_into`].
///
/// Soundness does not rest on any cache key discipline: the prototype
/// records the exact structure (node count, host set, link endpoints) it
/// was derived from, and every build checks the builder matches before a
/// single cached route is installed. Routes are a pure function of that
/// structure, so a matching build gets bit-identical routing.
#[derive(Debug)]
pub struct TopologyPrototype {
    net_nodes: u32,
    hosts: Vec<u32>,
    link_ends: Vec<(u32, u32)>,
    /// `(src, dst, links)` in exactly the order a full build would have
    /// installed them — route-id assignment order is part of the
    /// determinism contract.
    routes: Vec<(HostId, HostId, Arc<[LinkId]>)>,
}

impl TopologyPrototype {
    /// `true` when `b` declares exactly the structure this prototype was
    /// derived from: same node count, same hosts, same link endpoints in
    /// the same order. Link *parameters* are deliberately not compared —
    /// routing never depends on them.
    pub fn matches(&self, b: &NetBuilder) -> bool {
        self.net_nodes == b.net_nodes
            && self.hosts == b.hosts
            && self.link_ends.len() == b.links.len()
            && self
                .link_ends
                .iter()
                .zip(b.links.iter())
                .all(|(&(f, t), &(bf, bt, _))| f == bf && t == bt)
    }

    /// The recorded route between two hosts, if one exists. The route
    /// set is a handful of entries, so a linear scan beats any index.
    pub fn route(&self, src: HostId, dst: HostId) -> Option<&[LinkId]> {
        self.routes
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, links)| links.as_ref())
    }
}

/// A worker-owned pool of [`TopologyPrototype`]s, looked up by structural
/// match. Campaign topologies collapse to one shape per replica count, so
/// the pool holds a handful of entries and lookup is a short linear scan
/// over O(links) endpoint comparisons — cheaper than hashing, and immune
/// to key/structure drift by construction.
#[derive(Debug, Default)]
pub struct PrototypeCache {
    entries: Vec<Arc<TopologyPrototype>>,
}

impl PrototypeCache {
    /// The prototype for `b`'s structure, computing and caching it on
    /// first sight.
    pub fn get_or_build(&mut self, b: &NetBuilder) -> Arc<TopologyPrototype> {
        if let Some(p) = self.entries.iter().find(|p| p.matches(b)) {
            return Arc::clone(p);
        }
        let p = Arc::new(b.prototype());
        self.entries.push(Arc::clone(&p));
        p
    }

    /// Number of distinct structures seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no structure has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// BFS over the directed adjacency, recording the (node, link) predecessor.
fn bfs(adj: &[Vec<(u32, LinkId)>], src: u32, n: u32) -> Vec<Option<(u32, LinkId)>> {
    let mut preds: Vec<Option<(u32, LinkId)>> = vec![None; n as usize];
    let mut visited = vec![false; n as usize];
    visited[src as usize] = true;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for (v, lid) in &adj[u as usize] {
            if !visited[*v as usize] {
                visited[*v as usize] = true;
                preds[*v as usize] = Some((u, *lid));
                q.push_back(*v);
            }
        }
    }
    preds
}

/// Reconstructs the link sequence from `src` to `dst`, if reachable.
fn trace(preds: &[Option<(u32, LinkId)>], src: u32, dst: u32) -> Option<Vec<LinkId>> {
    let mut route = Vec::new();
    let mut at = dst;
    while at != src {
        let (prev, lid) = preds[at as usize]?;
        route.push(lid);
        at = prev;
    }
    route.reverse();
    Some(route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Packet};
    use rv_sim::{SimDuration, SimTime};

    #[test]
    fn builds_dumbbell_and_routes() {
        let mut b = NetBuilder::new();
        let server = b.host();
        let client = b.host();
        let r1 = b.router();
        let r2 = b.router();
        let fast = LinkParams::lan()
            .rate(1e9)
            .delay(SimDuration::from_millis(1));
        b.duplex(server, r1, fast);
        b.duplex(r1, r2, fast);
        b.duplex(r2, client, fast);
        let mut rng = SimRng::seed_from_u64(2);
        let mut net = b.build_with_payload::<u32>(&mut rng);

        let (s, c) = (HostId(0), HostId(1));
        assert!(net.has_route(s, c));
        assert!(net.has_route(c, s));
        net.send(
            SimTime::ZERO,
            Packet::new(Addr::new(s, 1), Addr::new(c, 1), 100, 42u32),
        );
        net.poll(SimTime::from_millis(10));
        assert_eq!(net.recv(c).unwrap().payload, 42);
    }

    #[test]
    fn disconnected_hosts_have_no_route() {
        let mut b = NetBuilder::new();
        let _a = b.host();
        let _b = b.host();
        let mut rng = SimRng::seed_from_u64(3);
        let net = b.build_with_payload::<()>(&mut rng);
        assert!(!net.has_route(HostId(0), HostId(1)));
    }

    #[test]
    fn one_way_link_gives_one_way_route() {
        let mut b = NetBuilder::new();
        let a = b.host();
        let c = b.host();
        b.link(a, c, LinkParams::lan());
        let mut rng = SimRng::seed_from_u64(4);
        let net = b.build_with_payload::<()>(&mut rng);
        assert!(net.has_route(HostId(0), HostId(1)));
        assert!(!net.has_route(HostId(1), HostId(0)));
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        // a -> c directly and a -> r -> c; route must use the direct link.
        let mut b = NetBuilder::new();
        let a = b.host();
        let c = b.host();
        let r = b.router();
        b.link(a, c, LinkParams::lan().delay(SimDuration::from_millis(1)));
        b.link(a, r, LinkParams::lan());
        b.link(r, c, LinkParams::lan());
        let mut rng = SimRng::seed_from_u64(5);
        let mut net = b.build_with_payload::<u8>(&mut rng);
        net.send(
            SimTime::ZERO,
            Packet::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 1), 100, 1u8),
        );
        net.poll(SimTime::from_millis(2));
        // Direct link: ~1 ms propagation. Two-hop would be ~10 ms.
        assert_eq!(net.inbox_len(HostId(1)), 1);
    }

    #[test]
    fn cached_rebuild_of_a_retired_network_equals_a_fresh_build() {
        // The study's session shape: client and two servers behind two
        // routers, over lossy links so the per-link RNG forks matter.
        let shape = || {
            let mut b = NetBuilder::new();
            let client = b.host();
            let server = b.host();
            let (cloud_a, cloud_b) = (b.router(), b.router());
            let lossy = LinkParams::lan()
                .rate(400_000.0)
                .delay(SimDuration::from_millis(7))
                .loss(0.2);
            b.link(cloud_a, client, lossy);
            b.link(client, cloud_a, lossy.rate(50_000.0));
            b.duplex(cloud_a, cloud_b, lossy);
            b.duplex(cloud_b, server, lossy);
            let replica = b.host();
            b.duplex(cloud_b, replica, lossy);
            b
        };
        let hosts = [HostId(0), HostId(1), HostId(2)];
        // 40 packets spread over the six host pairs, one per millisecond,
        // polled every millisecond: every delivery as `(instant,
        // receiving host, payload)`.
        let drive = |net: &mut Network<u32>, until_ms: u64| {
            let mut delivered = Vec::new();
            for ms in 0..until_ms {
                let now = SimTime::from_millis(ms);
                if ms < 40 {
                    // Source cycles every packet, the offset to the
                    // destination (1 or 2 hosts on) every third.
                    let src = ms as usize % 3;
                    let dst = (src + 1 + ms as usize / 3 % 2) % 3;
                    let (src, dst) = (Addr::new(hosts[src], 1), Addr::new(hosts[dst], 1));
                    net.send(now, Packet::new(src, dst, 300, ms as u32));
                }
                net.poll(now);
                for h in hosts {
                    while let Some(p) = net.recv(h) {
                        delivered.push((now, h, p.payload));
                    }
                }
            }
            delivered
        };

        let mut fresh = shape().build_with_payload::<u32>(&mut SimRng::seed_from_u64(9));

        // A network built from the cache under another seed, abandoned
        // with packets queued, in flight and undelivered — then rebuilt
        // onto from the same (now cached) prototype.
        let mut cache = PrototypeCache::default();
        let proto = cache.get_or_build(&shape());
        let mut retired = shape().build_from_prototype_into(
            &mut SimRng::seed_from_u64(1234),
            Network::new(),
            &proto,
        );
        drive(&mut retired, 25);
        assert!(retired.next_wake().is_some(), "retired mid-traffic");
        let proto = cache.get_or_build(&shape());
        assert_eq!(cache.len(), 1);
        let mut rebuilt =
            shape().build_from_prototype_into(&mut SimRng::seed_from_u64(9), retired, &proto);

        for src in hosts {
            for dst in hosts {
                if src != dst {
                    assert!(fresh.route(src, dst).is_some());
                    assert_eq!(fresh.route(src, dst), rebuilt.route(src, dst));
                }
            }
        }
        let want = drive(&mut fresh, 400);
        assert!(
            want.len() > 10 && want.len() < 40,
            "{} delivered",
            want.len()
        );
        assert_eq!(drive(&mut rebuilt, 400), want);
        assert_eq!(fresh.total_link_stats(), rebuilt.total_link_stats());
    }

    /// A prototype of another shape is not installed: the build routes
    /// this builder's own structure, as a one-off build would.
    #[test]
    fn a_mismatched_prototype_builds_the_builders_own_routes() {
        let mut b = NetBuilder::new();
        let (a, c, r) = (b.host(), b.host(), b.router());
        b.duplex(a, r, LinkParams::lan());
        b.duplex(r, c, LinkParams::lan());
        let mut other = NetBuilder::new();
        let (x, y) = (other.host(), other.host());
        other.duplex(x, y, LinkParams::lan());
        let wrong = other.prototype();
        assert!(!wrong.matches(&b));
        let net: Network<u8> =
            b.build_from_prototype_into(&mut SimRng::seed_from_u64(1), Network::new(), &wrong);
        let (h0, h1) = (HostId(0), HostId(1));
        assert_eq!(net.route(h0, h1), Some(&[LinkId(0), LinkId(2)][..]));
        assert_eq!(net.route(h1, h0), Some(&[LinkId(3), LinkId(1)][..]));
    }

    #[test]
    fn asymmetric_duplex_uses_each_direction() {
        let mut b = NetBuilder::new();
        let a = b.host();
        let c = b.host();
        let down = LinkParams::lan().rate(500_000.0);
        let up = LinkParams::lan().rate(50_000.0);
        b.link(a, c, down);
        b.link(c, a, up);
        let mut rng = SimRng::seed_from_u64(6);
        let mut net = b.build_with_payload::<u8>(&mut rng);
        // 1250 bytes: 20 ms down at 500 kbps, 200 ms up at 50 kbps.
        net.send(
            SimTime::ZERO,
            Packet::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 1), 1250, 0),
        );
        net.send(
            SimTime::ZERO,
            Packet::new(Addr::new(HostId(1), 1), Addr::new(HostId(0), 1), 1250, 0),
        );
        net.poll(SimTime::from_millis(26));
        assert_eq!(net.inbox_len(HostId(1)), 1);
        assert_eq!(net.inbox_len(HostId(0)), 0);
        net.poll(SimTime::from_millis(206));
        assert_eq!(net.inbox_len(HostId(0)), 1);
    }
}
