//! Property-based tests for network-layer conservation laws: packets are
//! never created from nothing, FIFO order survives any load pattern, and
//! link accounting always balances — and the executable spec of
//! `Network`'s schedule, a naive reference [`Model`] it must match at
//! every step.

use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::{Debug, Display};

use rv_net::{Addr, HostId, Link, LinkId, LinkParams, NetBuilder, Network, NodeId, Packet};
use rv_sim::{OutagePolicy, SimDuration, SimRng, SimTime};

/// Two hosts, one duplex link with the given parameters.
fn two_hosts(params: LinkParams, seed: u64) -> rv_net::Network<u32> {
    let mut b = NetBuilder::new();
    let a = b.host();
    let z = b.host();
    b.duplex(a, z, params);
    let mut rng = SimRng::seed_from_u64(seed);
    b.build_with_payload::<u32>(&mut rng)
}

proptest! {
    /// Conservation: delivered + dropped == offered, under any mix of
    /// packet sizes, send times, loss rate, and queue size.
    #[test]
    fn packets_are_conserved(
        sends in prop::collection::vec((1u32..3000, 0u64..5_000), 1..200),
        loss in 0.0f64..0.3,
        queue_kb in 1u32..64,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(10))
            .queue(queue_kb * 1024)
            .loss(loss);
        let mut net = two_hosts(params, seed);
        let (a, z) = (HostId(0), HostId(1));
        let mut accepted = 0u64;
        for (i, (size, at_ms)) in sends.iter().enumerate() {
            let t = SimTime::from_millis(*at_ms);
            net.poll(t);
            if net.send(t, Packet::new(Addr::new(a, 1), Addr::new(z, 1), *size, i as u32)) {
                accepted += 1;
            }
        }
        net.poll(SimTime::from_secs(600));
        let mut received = 0u64;
        while net.recv(z).is_some() {
            received += 1;
        }
        // Everything the first link accepted must arrive (single hop, no
        // further loss points).
        prop_assert_eq!(received, accepted);
        prop_assert_eq!(net.delivered(), accepted);
        let stats = net.link_stats(rv_net::LinkId(0));
        prop_assert_eq!(stats.enqueued, accepted);
        prop_assert_eq!(
            stats.enqueued + stats.dropped_queue + stats.dropped_loss,
            sends.len() as u64
        );
    }

    /// FIFO: whatever arrives, arrives in send order on a lossless link.
    #[test]
    fn fifo_order_is_preserved(
        sends in prop::collection::vec((1u32..3000, 0u64..2_000), 1..150),
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(20))
            .queue(u32::MAX);
        let mut net = two_hosts(params, seed);
        let (a, z) = (HostId(0), HostId(1));
        let mut sorted_sends = sends.clone();
        sorted_sends.sort_by_key(|(_, t)| *t);
        for (i, (size, at_ms)) in sorted_sends.iter().enumerate() {
            let t = SimTime::from_millis(*at_ms);
            net.poll(t);
            net.send(t, Packet::new(Addr::new(a, 1), Addr::new(z, 1), *size, i as u32));
        }
        net.poll(SimTime::from_secs(600));
        let mut prev = None;
        while let Some(p) = net.recv(z) {
            if let Some(prev) = prev {
                prop_assert!(p.payload > prev, "out of order: {} after {prev}", p.payload);
            }
            prev = Some(p.payload);
        }
    }

    /// Latency sanity: delivery is never earlier than serialization +
    /// propagation allows.
    #[test]
    fn no_faster_than_light_delivery(
        size in 1u32..10_000,
        rate_kbps in 10u32..10_000,
        delay_ms in 0u64..500,
    ) {
        let rate = f64::from(rate_kbps) * 1e3;
        let params = LinkParams::lan()
            .rate(rate)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(u32::MAX);
        let mut net = two_hosts(params, 1);
        let (a, z) = (HostId(0), HostId(1));
        net.send(SimTime::ZERO, Packet::new(Addr::new(a, 1), Addr::new(z, 1), size, 0));
        let min_micros =
            (f64::from(size) * 8.0 / rate * 1e6) as u64 + delay_ms * 1000;
        // Just before the bound: nothing may have arrived.
        if min_micros > 1 {
            net.poll(SimTime::from_micros(min_micros - 1));
            prop_assert_eq!(net.inbox_len(z), 0);
        }
        // At (just past) the bound: it must arrive.
        net.poll(SimTime::from_micros(min_micros + 2));
        prop_assert_eq!(net.inbox_len(z), 1);
    }
}

/// Link endpoints of a randomized multi-hop world, as node-id pairs: `nh`
/// hosts (nodes `0..nh`) hanging off a chain of `nr` routers (the nodes
/// after them). Every host pair gets a BFS route through the chain, so
/// routes span 2..=nr+1 links and packets traverse shared interior links.
fn chain_ends(nh: usize, nr: usize) -> Vec<(u32, u32)> {
    let router = |r: usize| (nh + r) as u32;
    let mut ends = Vec::new();
    for r in 1..nr {
        ends.extend([(router(r - 1), router(r)), (router(r), router(r - 1))]);
    }
    for h in 0..nh {
        ends.extend([(h as u32, router(h % nr)), (router(h % nr), h as u32)]);
    }
    ends
}

/// The builder for [`chain_ends`], every link with the same parameters.
fn chain_builder(nh: usize, nr: usize, params: LinkParams) -> NetBuilder {
    let mut b = NetBuilder::new();
    let nodes: Vec<_> = (0..nh + nr)
        .map(|i| if i < nh { b.host() } else { b.router() })
        .collect();
    for (from, to) in chain_ends(nh, nr) {
        b.link(nodes[from as usize], nodes[to as usize], params);
    }
    b
}

/// The network [`chain_builder`] builds, its links seeded from `seed`.
fn chain_world(nh: usize, nr: usize, params: LinkParams, seed: u64) -> Network<u32> {
    chain_builder(nh, nr, params).build_with_payload(&mut SimRng::seed_from_u64(seed))
}

proptest! {
    /// `next_wake` is conservative: polling strictly before it moves
    /// nothing, and polling at it always makes progress — so the reported
    /// wake is never later than an unprocessed due event.
    #[test]
    fn next_wake_never_skips_due_work(
        sends in prop::collection::vec((1u32..2000, 0u64..100), 1..60),
        nr in 1usize..3,
        rate_kbps in 50u32..2_000,
        delay_ms in 0u64..20,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(f64::from(rate_kbps) * 1e3)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(u32::MAX);
        let mut net = chain_world(2, nr, params, seed);
        let (a, z) = (HostId(0), HostId(1));
        let mut sends = sends;
        sends.sort_by_key(|(_, at)| *at);
        let mut last = SimTime::ZERO;
        for (i, (size, at_ms)) in sends.iter().enumerate() {
            let t = SimTime::from_millis(*at_ms);
            net.poll(t);
            last = t;
            net.send(t, Packet::new(Addr::new(a, 1), Addr::new(z, 1), *size, i as u32));
        }
        let mut guard = 0;
        while let Some(wake) = net.next_wake() {
            guard += 1;
            prop_assert!(guard < 100_000, "wake loop did not converge");
            // A reported wake may never sit in the past: everything due at
            // the last poll time must already have been processed.
            prop_assert!(
                wake > last,
                "next_wake {wake} not after last processed instant {last}"
            );
            let before = SimTime::from_micros(wake.as_micros() - 1);
            if before > last {
                prop_assert_eq!(net.poll(before), 0, "moved before next_wake {wake}");
            }
            prop_assert!(net.poll(wake) > 0, "next_wake {wake} was a dud");
            last = wake;
        }
        // Quiescence (no wake) means nothing is still in flight: every
        // packet that survived the links sits in z's inbox.
        prop_assert_eq!(net.inbox_len(z) as u64, net.delivered());
        prop_assert_eq!(net.misrouted(), 0);
    }
}

/// The executable spec of [`rv_net::Network`]'s schedule: the same links,
/// cranked the naive way. Every link is drained every round in ascending
/// id order; everything propagating sits in one unsorted bag stamped with
/// a global push sequence; delivery pops the minimum `(arrival, seq)` until
/// nothing is due; `next_wake` is a plain `min` over all of it. It shares
/// nothing with the production type but the public [`Link`].
struct Model {
    links: Vec<Link<u32>>,
    /// `(src, dst)` → `(generation, links)`. Re-installing a route issues
    /// a fresh generation, stranding packets that carry the old one.
    routes: HashMap<(HostId, HostId), (u64, Vec<LinkId>)>,
    generations: u64,
    /// `(arrival, push seq, packet, generation << 32 | hop just crossed,
    /// link just crossed)`.
    bag: Vec<(SimTime, u64, Packet<u32>, u64, usize)>,
    pushes: u64,
    /// Payloads delivered to each host, in delivery order.
    inboxes: Vec<Vec<u32>>,
    delivered: u64,
    misrouted: u64,
    unroutable: u64,
    /// What `Network::delayline_stats` counts, read off the bag: a push
    /// that arrives before everything else in flight from its link, or an
    /// arrival that leaves some behind, exposes a new head of that link's
    /// wire; any other push joins it behind one.
    head_updates: u64,
    bypass: u64,
    /// Pushes that arrive before something already in flight from their
    /// link: the network's sort-insert.
    stragglers: u64,
}

impl Model {
    /// Links get the per-link RNG fork `NetBuilder` gives them.
    fn new(nh: usize, links: &[(u32, u32, LinkParams)], rng: &mut SimRng) -> Self {
        let links = links
            .iter()
            .map(|&(from, to, params)| {
                let fork = rng.fork(u64::from(from) << 32 | u64::from(to));
                Link::new(NodeId(from), NodeId(to), params, fork)
            })
            .collect();
        Model {
            links,
            routes: HashMap::new(),
            generations: 0,
            bag: Vec::new(),
            pushes: 0,
            inboxes: vec![Vec::new(); nh],
            delivered: 0,
            misrouted: 0,
            unroutable: 0,
            head_updates: 0,
            bypass: 0,
            stragglers: 0,
        }
    }

    fn set_route(&mut self, src: HostId, dst: HostId, route: &[LinkId]) {
        self.routes
            .insert((src, dst), (self.generations, route.to_vec()));
        self.generations += 1;
    }

    /// The route a packet tagged `generation` still travels, if current.
    fn live_route(&self, pkt: &Packet<u32>, generation: u64) -> Option<&[LinkId]> {
        let (current, route) = self.routes.get(&(pkt.src.host, pkt.dst.host))?;
        (*current == generation).then_some(route.as_slice())
    }

    fn send(&mut self, now: SimTime, pkt: Packet<u32>) -> bool {
        let Some((generation, route)) = self.routes.get(&(pkt.src.host, pkt.dst.host)) else {
            self.unroutable += 1;
            return false;
        };
        self.links[route[0].0 as usize].enqueue_tagged(now, pkt, generation << 32)
    }

    fn poll(&mut self, now: SimTime) -> usize {
        let mut moved = 0;
        loop {
            let mut progress = false;
            for l in 0..self.links.len() {
                let mut done = Vec::new();
                self.links[l].poll(now, &mut |at, pkt, tag| done.push((at, pkt, tag)));
                for (at, pkt, tag) in done {
                    progress = true;
                    if self.live_route(&pkt, tag >> 32).is_some() {
                        let same_link = || self.bag.iter().filter(|e| e.4 == l).map(|e| e.0);
                        // Ties go behind: the push carries the largest seq.
                        match same_link().min() {
                            Some(head) if head <= at => self.bypass += 1,
                            _ => self.head_updates += 1,
                        }
                        self.stragglers += u64::from(same_link().any(|a| a > at));
                        self.bag.push((at, self.pushes, pkt, tag, l));
                        self.pushes += 1;
                        moved += 1;
                    } else {
                        self.misrouted += 1;
                    }
                }
            }
            while let Some(i) = (0..self.bag.len())
                .filter(|&i| self.bag[i].0 <= now)
                .min_by_key(|&i| (self.bag[i].0, self.bag[i].1))
            {
                progress = true;
                let (at, _, pkt, tag, l) = self.bag.swap_remove(i);
                if self.bag.iter().any(|e| e.4 == l) {
                    self.head_updates += 1;
                }
                let hop = (tag as u32) as usize + 1;
                let Some(route) = self.live_route(&pkt, tag >> 32) else {
                    self.misrouted += 1;
                    continue;
                };
                moved += 1;
                if hop == route.len() {
                    self.inboxes[pkt.dst.host.0 as usize].push(pkt.payload);
                    self.delivered += 1;
                } else {
                    let next = route[hop].0 as usize;
                    self.links[next].enqueue_tagged(at, pkt, tag + 1);
                }
            }
            if !progress {
                return moved;
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        let serving = self.links.iter().filter_map(Link::next_wake);
        serving.chain(self.bag.iter().map(|e| e.0)).min()
    }
}

/// `Ok` when the network and the model gave the same answer; otherwise
/// an error naming the question and both answers.
fn same<T: PartialEq + Debug>(what: impl Display, net: T, model: T) -> Result<(), String> {
    if net == model {
        Ok(())
    } else {
        Err(format!("{what}: network {net:?}, model {model:?}"))
    }
}

/// Everything observable without consuming it: `next_wake`, the three
/// aggregate counters, the two wire counters, and every link's stats.
fn agree(net: &Network<u32>, model: &Model, when: &str) -> Result<(), String> {
    same(
        format_args!("next_wake {when}"),
        net.next_wake(),
        model.next_wake(),
    )?;
    same(
        format_args!("(delivered, misrouted, unroutable) {when}"),
        (net.delivered(), net.misrouted(), net.unroutable()),
        (model.delivered, model.misrouted, model.unroutable),
    )?;
    same(
        format_args!("(head updates, bypass packets) {when}"),
        net.delayline_stats(),
        (model.head_updates, model.bypass),
    )?;
    for (l, link) in model.links.iter().enumerate() {
        let stats = net.link_stats(LinkId(l as u32));
        same(format_args!("link {l} stats {when}"), stats, link.stats())?;
    }
    Ok(())
}

/// Polls both at `t` and drains every inbox: same `poll` return, same
/// payloads to the same hosts in the same order, same state afterwards.
fn poll_both(net: &mut Network<u32>, model: &mut Model, t: SimTime) -> Result<(), String> {
    agree(net, model, "before poll")?;
    same(format_args!("poll({t}) return"), net.poll(t), model.poll(t))?;
    for (h, want) in model.inboxes.iter_mut().enumerate() {
        let got: Vec<u32> = std::iter::from_fn(|| net.recv(HostId(h as u32)))
            .map(|p| p.payload)
            .collect();
        same(format_args!("inbox {h} after poll({t})"), &got, &*want)?;
        want.clear();
    }
    agree(net, model, "after poll")
}

/// Sends one packet into both worlds; they must accept or refuse alike.
fn send_both(
    net: &mut Network<u32>,
    model: &mut Model,
    t: SimTime,
    (src, dst): (HostId, HostId),
    size: u32,
    id: u32,
) -> Result<(), String> {
    let pkt = Packet::new(Addr::new(src, 1), Addr::new(dst, 1), size, id);
    same(
        format_args!("send of packet {id} at {t}"),
        net.send(t, pkt.clone()),
        model.send(t, pkt),
    )
}

proptest! {
    /// `Network` is observationally identical to the naive [`Model`] at
    /// every step of a randomized script — plain sends, tie bursts (which
    /// only the global push sequence orders), outages of both policies,
    /// loss bursts injected and withdrawn, route refreshes that strand
    /// packets in flight — under sparse polling, then settled to
    /// quiescence. Both worlds are built from one seed, so any divergence
    /// in per-link RNG draw order (which packet meets a loss draw first)
    /// also trips the comparison.
    #[test]
    fn network_matches_reference_model(
        nh in 2usize..5,
        nr in 1usize..4,
        ops in prop::collection::vec(
            (0u64..40, 0usize..12, 0usize..8, 0usize..8, 1u32..1500, 0u32..400_000),
            1..100,
        ),
        loss in 0.0f64..0.2,
        rate_kbps in 50u32..5_000,
        delay_ms in 0u64..30,
        queue_kb in 2u32..32,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(f64::from(rate_kbps) * 1e3)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(queue_kb * 1024)
            .loss(loss);
        let ends = chain_ends(nh, nr);
        let b = chain_builder(nh, nr, params);
        let proto = b.prototype();
        let mut net: Network<u32> = b.build_with_payload(&mut SimRng::seed_from_u64(seed));
        let links: Vec<_> = ends.iter().map(|&(from, to)| (from, to, params)).collect();
        let mut model = Model::new(nh, &links, &mut SimRng::seed_from_u64(seed));
        let host = |i: usize| HostId((i % nh) as u32);
        for (src, dst) in (0..nh * nh).map(|i| (host(i / nh), host(i))) {
            if let Some(route) = proto.route(src, dst) {
                model.set_route(src, dst, route);
            }
        }

        let mut now_ms = 0u64;
        let mut next_id = 0u32;
        for &(dt_ms, kind, a, bsel, size, ppm) in &ops {
            now_ms += dt_ms;
            let t = SimTime::from_millis(now_ms);
            poll_both(&mut net, &mut model, t)?;
            let lid = LinkId((a % ends.len()) as u32);
            match kind {
                0..=5 => {
                    next_id += 1;
                    send_both(&mut net, &mut model, t, (host(a), host(bsel)), size, next_id)?;
                }
                6 | 7 if net.link_is_down(lid) => {
                    net.set_link_up(t, lid);
                    model.links[lid.0 as usize].set_up(t);
                }
                6 | 7 => {
                    let policy =
                        [OutagePolicy::DropInFlight, OutagePolicy::CarryInFlight][bsel % 2];
                    net.set_link_down(lid, policy);
                    model.links[lid.0 as usize].set_down(policy);
                }
                8 => {
                    // Loss burst; ppm == 0 restores organic loss exactly.
                    net.set_link_extra_loss(lid, ppm);
                    model.links[lid.0 as usize].set_extra_loss_ppm(ppm);
                }
                9 => {
                    // Route refresh: re-installing even the same link
                    // sequence strands every packet already in flight on
                    // the old one (they must count `misrouted`).
                    if let Some(route) = proto.route(host(a), host(bsel)) {
                        prop_assert!(net.set_route(host(a), host(bsel), route.to_vec()).is_ok());
                        model.set_route(host(a), host(bsel), route);
                    }
                }
                _ => {
                    // Tie burst: same-size packets from every other host
                    // to one sink at one instant. Symmetric links finish
                    // them in the same microsecond, so they tie across
                    // delay lines and only the push sequence orders them.
                    for src in (0..nh).map(host).filter(|&src| src != host(a)) {
                        next_id += 1;
                        send_both(&mut net, &mut model, t, (src, host(a)), size, next_id)?;
                    }
                }
            }
            agree(&net, &model, "after op")?;
        }
        // Restore every link so carried queues flush, then settle.
        let end = SimTime::from_millis(now_ms);
        for (l, link) in model.links.iter_mut().enumerate() {
            if link.is_down() {
                net.set_link_up(end, LinkId(l as u32));
                link.set_up(end);
            }
        }
        for step in 1..=120u64 {
            poll_both(&mut net, &mut model, SimTime::from_millis(now_ms + step * 50))?;
        }
        prop_assert!(net.next_wake().is_none(), "world failed to quiesce");
    }
}

/// The straggler path, forced: a slow link is drained idle at completion
/// C by a sparse poll, then handed a forwarding enqueue backdated to an
/// arrival before C. It restarts service in the logical past, finishes
/// first, and must sort in ahead of the packet already on its wire — and
/// be delivered in the same poll, as the model delivers it.
#[test]
fn a_backdated_enqueue_sorts_in_ahead_of_the_wire() -> Result<(), String> {
    let fast = LinkParams::lan()
        .rate(1_000_000.0)
        .delay(SimDuration::from_millis(1));
    let slow = LinkParams::lan()
        .rate(100_000.0)
        .delay(SimDuration::from_millis(50));
    let mut b = NetBuilder::new();
    let (a, z, r) = (b.host(), b.host(), b.router());
    b.link(a, r, fast);
    b.link(r, z, slow);
    let proto = b.prototype();
    let mut net: Network<u32> = b.build_with_payload(&mut SimRng::seed_from_u64(3));
    let links = [(0, 2, fast), (2, 1, slow)];
    let mut model = Model::new(2, &links, &mut SimRng::seed_from_u64(3));
    let (a, z) = (HostId(0), HostId(1));
    let route = proto.route(a, z).ok_or("no route a -> z")?;
    model.set_route(a, z, route);

    let ms = SimTime::from_millis;
    // Packet 1 (1,250 B) reaches the router at 11 ms and serializes on
    // the slow link until 111 ms, arriving at 161 ms.
    send_both(&mut net, &mut model, SimTime::ZERO, (a, z), 1250, 1)?;
    poll_both(&mut net, &mut model, ms(15))?;
    // Packet 2 (125 B) reaches the router at 22 ms, but nothing polls
    // until 120 ms: the slow link is drained at 111 ms first, then takes
    // packet 2 at 22 ms and finishes it at 32 ms — arriving at 82 ms.
    send_both(&mut net, &mut model, ms(20), (a, z), 125, 2)?;
    poll_both(&mut net, &mut model, ms(20))?;
    assert_eq!(model.stragglers, 0);
    poll_both(&mut net, &mut model, ms(120))?;
    assert_eq!(
        model.stragglers, 1,
        "the scenario must exercise the sort-insert"
    );
    poll_both(&mut net, &mut model, ms(200))?;
    same("delivered", net.delivered(), 2)?;
    // Four pushes onto an empty wire or in front of its head, one arrival
    // exposing packet 1 behind packet 2; nothing joined a wire behind.
    same("wire counters", net.delayline_stats(), (5, 0))?;
    same("quiescent", net.next_wake(), None)
}
