//! Property-based tests for network-layer conservation laws: packets are
//! never created from nothing, FIFO order survives any load pattern, and
//! link accounting always balances.

use proptest::prelude::*;
use rv_net::{Addr, HostId, LinkId, LinkParams, NetBuilder, Packet};
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

/// A randomized multi-hop world: `nh` hosts hanging off a chain of `nr`
/// routers. Every host pair gets a BFS route through the chain, so routes
/// span 2..=nr+1 links and packets traverse shared interior links.
fn chain_world(nh: usize, nr: usize, params: LinkParams, seed: u64) -> rv_net::Network<u32> {
    let mut b = NetBuilder::new();
    let hosts: Vec<_> = (0..nh).map(|_| b.host()).collect();
    let routers: Vec<_> = (0..nr).map(|_| b.router()).collect();
    for w in routers.windows(2) {
        b.duplex(w[0], w[1], params);
    }
    for (i, h) in hosts.iter().enumerate() {
        b.duplex(*h, routers[i % nr], params);
    }
    let mut rng = SimRng::seed_from_u64(seed);
    b.build_with_payload::<u32>(&mut rng)
}

/// Observable delivery record: which packet reached which host, and at
/// which poll step it became visible.
type Deliveries = Vec<(u64, u32, u32)>;

/// Polls `net` at `at`, then drains every inbox, recording
/// (poll time in µs, host, payload) in drain order.
fn poll_and_drain(
    net: &mut rv_net::Network<u32>,
    nh: usize,
    at: SimTime,
    poll_scan_all: bool,
    out: &mut Deliveries,
) -> usize {
    let moved = if poll_scan_all {
        net.poll_scan_all(at)
    } else {
        net.poll(at)
    };
    for h in 0..nh {
        while let Some(p) = net.recv(HostId(h as u32)) {
            out.push((at.as_micros(), h as u32, p.payload));
        }
    }
    moved
}

proptest! {
    /// The wake-scheduled `Network::poll` is observationally identical to
    /// the retained scan-every-link reference implementation: over
    /// randomized topologies, loss, and traffic, both deliver the same
    /// packets to the same inboxes in the same order at the same poll
    /// steps, with identical aggregate counters. Both worlds are built
    /// from the same seed, so any divergence in per-link RNG draw order
    /// (the determinism contract) also trips the comparison.
    #[test]
    fn wake_scheduled_poll_matches_scan_all(
        nh in 2usize..5,
        nr in 1usize..4,
        sends in prop::collection::vec(
            (0usize..4, 0usize..4, 1u32..1500, 0u64..200),
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
        let mut fast = chain_world(nh, nr, params, seed);
        let mut reference = chain_world(nh, nr, params, seed);

        let mut sends = sends;
        sends.sort_by_key(|(_, _, _, at)| *at);
        let mut fast_log = Deliveries::new();
        let mut ref_log = Deliveries::new();
        for (i, (src, dst, size, at_ms)) in sends.iter().enumerate() {
            let (src, dst) = (HostId((src % nh) as u32), HostId((dst % nh) as u32));
            if src == dst {
                continue;
            }
            let t = SimTime::from_millis(*at_ms);
            let moved_fast = poll_and_drain(&mut fast, nh, t, false, &mut fast_log);
            let moved_ref = poll_and_drain(&mut reference, nh, t, true, &mut ref_log);
            prop_assert_eq!(moved_fast, moved_ref);
            let pkt = Packet::new(Addr::new(src, 1), Addr::new(dst, 1), *size, i as u32);
            let a = fast.send(t, pkt.clone());
            let b = reference.send(t, pkt);
            prop_assert_eq!(a, b);
        }
        // Drain to quiescence in coarse steps so arrival times stay
        // observable, then compare every record.
        for step in 1..=80u64 {
            let t = SimTime::from_millis(200 + step * 50);
            poll_and_drain(&mut fast, nh, t, false, &mut fast_log);
            poll_and_drain(&mut reference, nh, t, true, &mut ref_log);
        }
        prop_assert_eq!(fast_log, ref_log);
        prop_assert_eq!(fast.delivered(), reference.delivered());
        prop_assert_eq!(fast.misrouted(), reference.misrouted());
        prop_assert_eq!(fast.unroutable(), reference.unroutable());
        for l in 0..fast.num_links() {
            prop_assert_eq!(
                fast.link_stats(rv_net::LinkId(l as u32)),
                reference.link_stats(rv_net::LinkId(l as u32))
            );
        }
        prop_assert!(fast.next_wake().is_none(), "drained world still has wakes");
    }

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

/// One step of a randomized fault-and-traffic script; the raw strategy
/// tuple is decoded by [`apply_op`] so both worlds replay the identical
/// sequence.
type ScriptOp = (u64, usize, usize, usize, u32, u32);

/// What `next_wake` answered before each poll and after each op, and what
/// that poll returned. The wheel mode keeps its in-flight packets in a
/// structure `next_wake` and `poll`'s fast path read only while the mode
/// is on, so both modes must give the same answers at the same state.
type WakeLog = Vec<(Option<SimTime>, usize, Option<SimTime>)>;

/// Everything two equivalent networks must agree on after a script.
type Observables = (Deliveries, u64, u64, u64, Vec<rv_net::LinkStats>, WakeLog);

/// Replays a script of sends, outages, loss bursts, and route changes on a
/// freshly built chain world, polling before every op and then settling to
/// quiescence. `wheel_mode` selects the retained per-packet wheel path —
/// the executable spec the delay lines must match op-for-op.
#[allow(clippy::too_many_arguments)]
fn run_fault_script(
    nh: usize,
    nr: usize,
    params: LinkParams,
    seed: u64,
    ops: &[ScriptOp],
    wheel_mode: bool,
) -> Observables {
    // Rebuild the same builder twice (construction is deterministic) so
    // the prototype's recorded routes are available for route refreshes.
    let mut b = NetBuilder::new();
    let hosts: Vec<_> = (0..nh).map(|_| b.host()).collect();
    let routers: Vec<_> = (0..nr).map(|_| b.router()).collect();
    for w in routers.windows(2) {
        b.duplex(w[0], w[1], params);
    }
    for (i, h) in hosts.iter().enumerate() {
        b.duplex(*h, routers[i % nr], params);
    }
    let proto = b.prototype();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = b.build_with_payload::<u32>(&mut rng);
    net.set_inflight_wheel_mode(wheel_mode);

    let mut log = Deliveries::new();
    let mut wakes = WakeLog::new();
    let mut now_ms = 0u64;
    for (i, &(dt_ms, kind, a, bsel, size, ppm)) in ops.iter().enumerate() {
        now_ms += dt_ms;
        let t = SimTime::from_millis(now_ms);
        let wake = net.next_wake();
        let moved = poll_and_drain(&mut net, nh, t, false, &mut log);
        match kind % 4 {
            0 => {
                let (src, dst) = (HostId((a % nh) as u32), HostId((bsel % nh) as u32));
                if src != dst {
                    let pkt = Packet::new(Addr::new(src, 1), Addr::new(dst, 1), size, i as u32);
                    net.send(t, pkt);
                }
            }
            1 => {
                let lid = LinkId((a % net.num_links()) as u32);
                if net.link_is_down(lid) {
                    net.set_link_up(t, lid);
                } else if bsel % 2 == 0 {
                    net.set_link_down(lid, OutagePolicy::DropInFlight);
                } else {
                    net.set_link_down(lid, OutagePolicy::CarryInFlight);
                }
            }
            2 => {
                // Loss burst; ppm == 0 restores organic loss exactly.
                let lid = LinkId((a % net.num_links()) as u32);
                net.set_link_extra_loss(lid, ppm);
            }
            _ => {
                // Route refresh: re-installing even the same link sequence
                // issues a fresh route id, stranding every packet already
                // in flight on the old one (they must count `misrouted`).
                let (src, dst) = (HostId((a % nh) as u32), HostId((bsel % nh) as u32));
                if let Some(route) = proto.route(src, dst) {
                    net.set_route(src, dst, route.to_vec());
                }
            }
        }
        wakes.push((wake, moved, net.next_wake()));
    }
    // Restore every link so carried queues flush, then settle.
    let end = SimTime::from_millis(now_ms);
    for l in 0..net.num_links() {
        let lid = LinkId(l as u32);
        if net.link_is_down(lid) {
            net.set_link_up(end, lid);
        }
    }
    for step in 1..=120u64 {
        let t = SimTime::from_millis(now_ms + step * 50);
        let wake = net.next_wake();
        let moved = poll_and_drain(&mut net, nh, t, false, &mut log);
        wakes.push((wake, moved, net.next_wake()));
    }
    let stats = (0..net.num_links())
        .map(|l| net.link_stats(LinkId(l as u32)))
        .collect();
    assert!(net.next_wake().is_none(), "world failed to quiesce");
    (
        log,
        net.delivered(),
        net.misrouted(),
        net.unroutable(),
        stats,
        wakes,
    )
}

proptest! {
    /// The per-link delay lines are observationally identical to the
    /// retained per-packet wheel under adversarial conditions the plain
    /// traffic test never reaches: mid-flight outages of both policies,
    /// loss bursts injected and withdrawn, and route refreshes that
    /// strand in-flight packets (which must still count `misrouted`).
    /// Both worlds replay the identical op script and must agree on every
    /// delivery record, aggregate counter, and per-link stat — and on
    /// every `next_wake` answer and `poll` return along the way.
    #[test]
    fn delay_lines_match_wheel_reference(
        nh in 2usize..5,
        nr in 1usize..4,
        ops in prop::collection::vec(
            (0u64..40, 0usize..8, 0usize..8, 0usize..8, 1u32..1500, 0u32..400_000),
            1..80,
        ),
        loss in 0.0f64..0.1,
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
        let lines = run_fault_script(nh, nr, params, seed, &ops, false);
        let wheel = run_fault_script(nh, nr, params, seed, &ops, true);
        prop_assert_eq!(lines.0, wheel.0);
        prop_assert_eq!(lines.1, wheel.1, "delivered diverged");
        prop_assert_eq!(lines.2, wheel.2, "misrouted diverged");
        prop_assert_eq!(lines.3, wheel.3, "unroutable diverged");
        prop_assert_eq!(lines.4, wheel.4);
        prop_assert_eq!(lines.5, wheel.5, "next_wake / poll answers diverged");
    }
}
