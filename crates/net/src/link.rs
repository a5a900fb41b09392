//! Unidirectional links with drop-tail queues.
//!
//! A link serializes packets one at a time at its (congestion-reduced) line
//! rate, holds waiting packets in a bounded byte-limited FIFO, and drops on
//! overflow — the dominant loss mechanism on 2001-era bottlenecks. A
//! configurable random-loss term models non-congestive corruption, and the
//! [`CongestionProcess`] modulates both available rate and loss.
//!
//! A link owns every packet it holds, start to end, in one ring, oldest
//! first: the packets on the wire (serialized, propagating toward the far
//! end), then the packet in service, then the waiting queue. A packet is
//! written into the ring once, when it is enqueued, and read out once —
//! by [`Link::poll`] when the link stands alone, or by the owning
//! [`Network`](crate::Network) when it arrives at the far end. Finishing a
//! serialization moves nothing: the packet in service simply becomes the
//! wire's last entry.

use std::collections::VecDeque;

use rv_sim::trace::{self, DropCause, TraceEvent};
use rv_sim::{OutagePolicy, SimDuration, SimRng, SimTime};

use crate::congestion::{CongestionParams, CongestionProcess};
use crate::packet::{NodeId, Packet};

/// Static configuration of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Line rate in bits per second.
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Queue capacity in bytes (drop-tail beyond this).
    pub queue_bytes: u32,
    /// Base random loss probability per packet (non-congestive).
    pub base_loss: f64,
    /// Additional loss at full congestion; scales with the square of the
    /// congestion level so light load is nearly lossless.
    pub congestion_loss: f64,
    /// Background cross-traffic model.
    pub congestion: CongestionParams,
}

impl LinkParams {
    /// A sane default: 10 Mbps, 5 ms, 64 KiB queue, quiet.
    pub fn lan() -> Self {
        LinkParams {
            rate_bps: 10_000_000.0,
            prop_delay: SimDuration::from_millis(5),
            queue_bytes: 64 * 1024,
            base_loss: 0.0,
            congestion_loss: 0.0,
            congestion: CongestionParams::QUIET,
        }
    }

    /// Builder-style rate override.
    pub fn rate(mut self, bps: f64) -> Self {
        self.rate_bps = bps;
        self
    }

    /// Builder-style propagation-delay override.
    pub fn delay(mut self, d: SimDuration) -> Self {
        self.prop_delay = d;
        self
    }

    /// Builder-style queue-size override.
    pub fn queue(mut self, bytes: u32) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Builder-style base-loss override.
    pub fn loss(mut self, p: f64) -> Self {
        self.base_loss = p;
        self
    }

    /// Builder-style congestion override (also sets congestion loss).
    pub fn cross_traffic(mut self, c: CongestionParams, extra_loss: f64) -> Self {
        self.congestion = c;
        self.congestion_loss = extra_loss;
        self
    }
}

/// Counters a link accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets fully serialized and handed to propagation.
    pub delivered: u64,
    /// Packets dropped because the queue was full.
    pub dropped_queue: u64,
    /// Packets dropped by the random-loss models.
    pub dropped_loss: u64,
    /// Packets lost to an injected outage: flushed when the link went
    /// down with [`OutagePolicy::DropInFlight`], or refused while it was
    /// down. Distinct from `dropped_loss`/`dropped_queue` so injected
    /// failures stay auditable separately from organic loss.
    pub dropped_outage: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

/// One packet in a link's ring: the packet, its caller tag, and — once it
/// is on the wire — when it reaches the far end and its place in the
/// owning network's global push order.
#[derive(Debug, Clone)]
pub(crate) struct Slot<P> {
    pub(crate) packet: Packet<P>,
    pub(crate) tag: u64,
    /// Arrival at the far end; set when serialization finishes.
    pub(crate) at: SimTime,
    /// Global push sequence; set when the packet goes on the wire.
    pub(crate) seq: u64,
}

/// What became of one finished serialization ([`Link::serve_one`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// On the wire, and now its head `(arrival, seq)`: it went onto an
    /// empty wire, or sort-inserted in front of every packet there.
    Head(SimTime, u64),
    /// On the wire behind an earlier head.
    Behind,
    /// Dropped: the caller's liveness check refused it.
    Stranded,
}

/// A unidirectional link from one node to another.
///
/// Each queued packet carries an opaque `u64` tag supplied at enqueue time
/// and handed back verbatim when the packet finishes serializing. The
/// network layer uses it to carry routing state (interned route id + hop)
/// through the link so per-hop forwarding never re-derives it; standalone
/// users can pass [`Link::enqueue`], which tags with zero.
///
/// A rate that is not positive (zero, negative, NaN) is a link with no
/// capacity: it takes packets, and every non-empty one's serialization
/// saturates the clock, as on a glacial link.
#[derive(Debug, Clone)]
pub struct Link<P> {
    /// Node the link transmits from.
    pub from: NodeId,
    /// Node the link delivers to.
    pub to: NodeId,
    params: LinkParams,
    congestion: CongestionProcess,
    rng: SimRng,
    /// Every packet the link holds, oldest first: `wire` packets on the
    /// wire, sorted by `(at, seq)`; then the packet in service, while
    /// `serving` is `Some`; then the waiting queue.
    ring: VecDeque<Slot<P>>,
    /// Length of the wire run at the ring's front.
    wire: usize,
    /// Bytes waiting (the packet in service not counted).
    queued_bytes: u32,
    /// When the packet in service (`ring[wire]`) finishes serializing.
    serving: Option<SimTime>,
    /// Outage state: `Some(policy)` while the link is administratively
    /// down. With `DropInFlight` the link refuses traffic; with
    /// `CarryInFlight` the queue keeps filling and drains on recovery.
    down: Option<OutagePolicy>,
    /// Injected extra loss (parts per million), folded into the same
    /// single random draw as the organic loss models so a zero burst
    /// leaves the RNG stream untouched.
    extra_loss_ppm: u32,
    /// Identity the link reports in trace events (the owning network's
    /// link index). Purely observational; zero for standalone links.
    trace_tag: u32,
    stats: LinkStats,
}

impl<P> Link<P> {
    /// Creates a link between two nodes.
    pub fn new(from: NodeId, to: NodeId, params: LinkParams, rng: SimRng) -> Self {
        Self::new_on(from, to, params, rng, VecDeque::new())
    }

    /// [`Link::new`] on a retired link's emptied ring storage
    /// ([`Link::into_queue_storage`]): capacity only.
    pub(crate) fn new_on(
        from: NodeId,
        to: NodeId,
        mut params: LinkParams,
        mut rng: SimRng,
        ring: VecDeque<Slot<P>>,
    ) -> Self {
        if params.rate_bps.is_nan() || params.rate_bps <= 0.0 {
            // No capacity: the smallest positive rate makes every non-empty
            // serialization saturate (see `start_next`).
            params.rate_bps = f64::MIN_POSITIVE;
        }
        let congestion = CongestionProcess::new(params.congestion, rng.fork(0xC0));
        Link {
            from,
            to,
            params,
            congestion,
            rng,
            ring,
            wire: 0,
            queued_bytes: 0,
            serving: None,
            down: None,
            extra_loss_ppm: 0,
            trace_tag: 0,
            stats: LinkStats::default(),
        }
    }

    /// Retires the link, keeping its ring's storage (emptied — the
    /// payloads it held drop here) for the next link built on it.
    pub(crate) fn into_queue_storage(mut self) -> VecDeque<Slot<P>> {
        self.ring.clear();
        self.ring
    }

    /// Packets the ring has room for.
    pub(crate) fn ring_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Sets the identity this link reports in trace events. The owning
    /// [`Network`](crate::Network) tags each link with its `LinkId`.
    pub fn set_trace_tag(&mut self, tag: u32) {
        self.trace_tag = tag;
    }

    /// Static parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Bytes currently waiting (not counting the packet in service).
    pub fn backlog_bytes(&self) -> u32 {
        self.queued_bytes
    }

    /// Offers a packet to the link at `now`. Returns `false` if it was
    /// dropped (loss or full queue).
    pub fn enqueue(&mut self, now: SimTime, packet: Packet<P>) -> bool {
        self.enqueue_tagged(now, packet, 0)
    }

    /// As [`Link::enqueue`], but attaches an opaque caller tag that
    /// [`Link::poll`] hands back with the finished packet.
    pub fn enqueue_tagged(&mut self, now: SimTime, packet: Packet<P>, tag: u64) -> bool {
        match self.down {
            Some(OutagePolicy::DropInFlight) => {
                // Hard-down interface: traffic is refused outright, before
                // any random draw (only reachable with faults injected, so
                // the fault-free RNG stream is untouched).
                self.stats.dropped_outage += 1;
                trace::emit(now, || TraceEvent::PacketDrop {
                    link: self.trace_tag,
                    cause: DropCause::Outage,
                    bytes: packet.size,
                    queued_bytes: self.queued_bytes,
                });
                return false;
            }
            Some(OutagePolicy::CarryInFlight) => {
                // Stalled link: no transmission, so no corruption draw;
                // the queue keeps accepting until it overflows.
                if self.queued_bytes.saturating_add(packet.size) > self.params.queue_bytes {
                    self.stats.dropped_queue += 1;
                    trace::emit(now, || TraceEvent::PacketDrop {
                        link: self.trace_tag,
                        cause: DropCause::Queue,
                        bytes: packet.size,
                        queued_bytes: self.queued_bytes,
                    });
                    return false;
                }
                self.queued_bytes += packet.size;
                self.stats.enqueued += 1;
                trace::emit(now, || TraceEvent::QueueDepth {
                    link: self.trace_tag,
                    queued_bytes: self.queued_bytes,
                });
                self.push(packet, tag);
                return true;
            }
            None => {}
        }
        let level = self.congestion.level_at(now);
        let p_loss = self.params.base_loss
            + self.params.congestion_loss * level * level
            + f64::from(self.extra_loss_ppm) * 1e-6;
        if self.rng.chance(p_loss) {
            self.stats.dropped_loss += 1;
            trace::emit(now, || TraceEvent::PacketDrop {
                link: self.trace_tag,
                cause: DropCause::Loss,
                bytes: packet.size,
                queued_bytes: self.queued_bytes,
            });
            return false;
        }
        if self.queued_bytes.saturating_add(packet.size) > self.params.queue_bytes {
            self.stats.dropped_queue += 1;
            trace::emit(now, || TraceEvent::PacketDrop {
                link: self.trace_tag,
                cause: DropCause::Queue,
                bytes: packet.size,
                queued_bytes: self.queued_bytes,
            });
            return false;
        }
        self.queued_bytes += packet.size;
        self.stats.enqueued += 1;
        trace::emit(now, || TraceEvent::QueueDepth {
            link: self.trace_tag,
            queued_bytes: self.queued_bytes,
        });
        self.push(packet, tag);
        if self.serving.is_none() {
            self.start_next(now);
        }
        true
    }

    /// Appends an accepted packet to the waiting queue at the ring's back.
    fn push(&mut self, packet: Packet<P>, tag: u64) {
        self.ring.push_back(Slot {
            packet,
            tag,
            at: SimTime::ZERO,
            seq: 0,
        });
    }

    /// Completes any serializations due by `now`, feeding each finished
    /// packet to `sink` with the instant it *arrives* at the far end
    /// (serialization completion plus propagation delay) and its enqueue
    /// tag. Draining into a caller-provided sink keeps the hot path
    /// allocation-free: no per-poll `Vec` exists. Returns the number of
    /// packets drained.
    pub fn poll(&mut self, now: SimTime, sink: &mut impl FnMut(SimTime, Packet<P>, u64)) -> usize {
        let mut drained = 0;
        while self.finish_due(now) {
            // `finish_due` left the finished packet at the wire's back.
            self.wire -= 1;
            let Some(slot) = self.ring.remove(self.wire) else {
                break;
            };
            sink(slot.at, slot.packet, slot.tag);
            drained += 1;
        }
        drained
    }

    /// If the packet in service finishes by `now`: counts it delivered,
    /// stamps its arrival at the far end, makes it the wire's last entry
    /// (unsorted — the caller places it) and starts the next packet at
    /// the completion instant, not when the link happened to be polled.
    fn finish_due(&mut self, now: SimTime) -> bool {
        let Some(done_at) = self.serving.filter(|&t| t <= now) else {
            return false;
        };
        let Some(slot) = self.ring.get_mut(self.wire) else {
            return false;
        };
        slot.at = done_at + self.params.prop_delay;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += u64::from(slot.packet.size);
        self.wire += 1;
        self.serving = None;
        self.start_next(done_at);
        true
    }

    /// Finishes the serialization due by `now`, if one is, and puts the
    /// packet on the wire in `(arrival, seq)` order, stamped with the
    /// next of `seq` — unless `live` refuses it (its packet and tag), in
    /// which case it is dropped and takes no stamp. `None` when nothing
    /// was due.
    ///
    /// While the link stays busy its completions, and so its arrivals,
    /// are monotone (FIFO serialization with service ≥ 1 µs, constant
    /// propagation), so the packet is already in place. Sparse polling
    /// breaks that: an idle link drained at completion C can take a
    /// forwarding enqueue backdated to an arrival instant before C and
    /// finish it before C. That straggler moves down the wire until it
    /// sits behind every packet arriving no later — they all carry
    /// smaller stamps, so ordering by arrival alone keeps `(at, seq)`.
    pub(crate) fn serve_one(
        &mut self,
        now: SimTime,
        seq: &mut u64,
        live: impl FnOnce(&Packet<P>, u64) -> bool,
    ) -> Option<Served> {
        if !self.finish_due(now) {
            return None;
        }
        let mut i = self.wire - 1;
        let slot = &mut self.ring[i];
        if !live(&slot.packet, slot.tag) {
            self.wire = i;
            self.ring.remove(i);
            return Some(Served::Stranded);
        }
        slot.seq = *seq;
        *seq += 1;
        let (at, stamp) = (slot.at, slot.seq);
        while i > 0 && self.ring[i - 1].at > at {
            self.ring.swap(i - 1, i);
            i -= 1;
        }
        Some(if i == 0 {
            Served::Head(at, stamp)
        } else {
            Served::Behind
        })
    }

    /// The wire's head `(arrival, seq)`, `None` while nothing propagates.
    pub(crate) fn wire_head(&self) -> Option<(SimTime, u64)> {
        let head = self.ring.front().filter(|_| self.wire > 0)?;
        Some((head.at, head.seq))
    }

    /// Takes the wire's head off the link: the packet has arrived.
    pub(crate) fn pop_wire(&mut self) -> Option<Slot<P>> {
        if self.wire == 0 {
            return None;
        }
        self.wire -= 1;
        self.ring.pop_front()
    }

    /// `true` when the wire is sorted by `(arrival, seq)`: the order
    /// [`Link::serve_one`] keeps. A debug check's question.
    pub(crate) fn wire_is_sorted(&self) -> bool {
        let wire = self.ring.range(..self.wire);
        wire.clone()
            .zip(wire.skip(1))
            .all(|(a, b)| (a.at, a.seq) < (b.at, b.seq))
    }

    /// When the link next needs polling: the in-service completion time.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.serving
    }

    /// `true` while the link is administratively down.
    pub fn is_down(&self) -> bool {
        self.down.is_some()
    }

    /// Takes the link down. With [`OutagePolicy::DropInFlight`] the
    /// queue and the in-service packet are flushed (counted as
    /// `dropped_outage`) and traffic is refused until [`Link::set_up`];
    /// with [`OutagePolicy::CarryInFlight`] the in-service packet
    /// returns to the head of the queue and everything waits out the
    /// outage. Packets already on the wire arrive either way.
    pub fn set_down(&mut self, policy: OutagePolicy) {
        self.down = Some(policy);
        match policy {
            OutagePolicy::DropInFlight => {
                self.stats.dropped_outage += (self.ring.len() - self.wire) as u64;
                self.ring.truncate(self.wire);
                self.queued_bytes = 0;
                self.serving = None;
            }
            OutagePolicy::CarryInFlight => {
                if self.serving.take().is_some() {
                    // Re-serialize from scratch on recovery, like a
                    // retransmit after a line hit: the packet stays where
                    // it is, at the queue's head.
                    if let Some(slot) = self.ring.get(self.wire) {
                        self.queued_bytes += slot.packet.size;
                    }
                }
            }
        }
    }

    /// Brings the link back up at `now`; a carried queue resumes
    /// serializing immediately.
    pub fn set_up(&mut self, now: SimTime) {
        self.down = None;
        if self.serving.is_none() {
            self.start_next(now);
        }
    }

    /// Sets the injected extra loss for a burst window, in parts per
    /// million. Zero restores organic loss behavior exactly.
    pub fn set_extra_loss_ppm(&mut self, ppm: u32) {
        self.extra_loss_ppm = ppm;
    }

    /// Starts serializing the queue's head, if any, at `at`. Only called
    /// while nothing is in service, so the head sits right behind the
    /// wire.
    fn start_next(&mut self, at: SimTime) {
        if self.down.is_some() {
            return;
        }
        if let Some(slot) = self.ring.get(self.wire) {
            let size = slot.packet.size;
            self.queued_bytes -= size;
            let factor = self.congestion.capacity_factor(at).max(0.05);
            let rate = self.params.rate_bps * factor;
            let service = SimDuration::from_secs_f64(f64::from(size) * 8.0 / rate)
                .max(SimDuration::from_micros(1));
            // A slow enough link saturates `service`; the completion then
            // stops one tick short of `SimTime::MAX`, which callers read
            // as "serving nothing".
            let done_at = at
                .saturating_add(service)
                .min(SimTime::from_micros(u64::MAX - 1));
            self.serving = Some(done_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, HostId};

    fn pkt(size: u32) -> Packet<u32> {
        Packet::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 2), size, 0)
    }

    fn link(params: LinkParams) -> Link<u32> {
        Link::new(NodeId(0), NodeId(1), params, SimRng::seed_from_u64(5))
    }

    /// Test convenience: drain into a Vec the way the old allocating poll
    /// did, so assertions can index the results.
    fn drain(l: &mut Link<u32>, now: SimTime) -> Vec<(SimTime, Packet<u32>)> {
        let mut out = Vec::new();
        l.poll(now, &mut |at, pkt, _tag| out.push((at, pkt)));
        out
    }

    #[test]
    fn retired_queue_storage_carries_capacity_not_packets() {
        let slow = LinkParams::lan().rate(1_000.0);
        let mut l = link(slow);
        for _ in 0..20 {
            assert!(l.enqueue(SimTime::ZERO, pkt(100)));
        }
        let storage = l.into_queue_storage();
        assert!(storage.is_empty());
        let capacity = storage.capacity();
        assert!(capacity >= 19, "one packet is in service, 19 queued");
        let rng = SimRng::seed_from_u64(5);
        let warm = Link::new_on(NodeId(0), NodeId(1), slow, rng, storage);
        assert_eq!(warm.ring.capacity(), capacity);
        assert_eq!((warm.backlog_bytes(), warm.next_wake()), (0, None));
    }

    /// A link with no capacity is a defined model, not a panic: it takes
    /// packets and never finishes serializing one that has bytes.
    #[test]
    fn a_rate_that_is_not_positive_is_a_link_with_no_capacity() {
        for rate in [0.0, -1e6, f64::NAN] {
            let mut l = link(LinkParams::lan().rate(rate));
            let t0 = SimTime::from_secs(1);
            assert!(l.enqueue(t0, pkt(1500)));
            assert!(l.enqueue(t0, pkt(100)));
            assert_eq!(
                l.next_wake(),
                Some(SimTime::from_micros(u64::MAX - 1)),
                "rate {rate}"
            );
            assert!(drain(&mut l, SimTime::from_secs(1_000_000)).is_empty());
            assert_eq!(l.backlog_bytes(), 100);
        }
    }

    /// The ring under the network's calls: finished packets stay on the
    /// wire in `(arrival, seq)` order, a straggler sorts in ahead of later
    /// arrivals, a refused packet leaves without a stamp, and arrivals
    /// leave from the front.
    #[test]
    fn the_wire_keeps_arrival_order_and_sorts_a_straggler_in() {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(5))
            .queue(u32::MAX);
        let mut l = link(params);
        let mut seq = 0;
        let live = |_: &Packet<u32>, tag: u64| tag != 9;
        // Two back-to-back 10 ms serializations, then a stranded one.
        for tag in [1, 2, 9] {
            assert!(l.enqueue_tagged(SimTime::ZERO, pkt(1250), tag));
        }
        let ms = SimTime::from_millis;
        assert_eq!(
            l.serve_one(ms(30), &mut seq, live),
            Some(Served::Head(ms(15), 0))
        );
        assert_eq!(l.serve_one(ms(30), &mut seq, live), Some(Served::Behind));
        assert_eq!(l.serve_one(ms(30), &mut seq, live), Some(Served::Stranded));
        assert_eq!(l.serve_one(ms(30), &mut seq, live), None);
        assert_eq!((seq, l.wire_head()), (2, Some((ms(15), 0))));
        // Idle since 30 ms; an enqueue backdated to 1 ms finishes at
        // 1.1 ms and arrives at 6.1 ms — ahead of everything on the wire.
        assert!(l.enqueue_tagged(ms(1), pkt(13), 3));
        let early = SimTime::from_micros(6_104);
        assert_eq!(
            l.serve_one(ms(30), &mut seq, live),
            Some(Served::Head(early, 2))
        );
        assert!(l.wire_is_sorted());
        let arrivals: Vec<(SimTime, u64)> = std::iter::from_fn(|| l.pop_wire())
            .map(|s| (s.at, s.tag))
            .collect();
        assert_eq!(arrivals, [(early, 3), (ms(15), 1), (ms(25), 2)]);
        assert_eq!(l.stats().delivered, 4);
    }

    #[test]
    fn serialization_time_matches_rate() {
        // 1250 bytes at 1 Mbps = 10 ms, plus 5 ms propagation = 15 ms.
        let mut l = link(
            LinkParams::lan()
                .rate(1_000_000.0)
                .delay(SimDuration::from_millis(5)),
        );
        let t0 = SimTime::from_secs(1);
        assert!(l.enqueue(t0, pkt(1250)));
        assert_eq!(l.next_wake(), Some(t0 + SimDuration::from_millis(10)));
        assert!(drain(&mut l, t0 + SimDuration::from_millis(9)).is_empty());
        let out = drain(&mut l, t0 + SimDuration::from_millis(10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, t0 + SimDuration::from_millis(15));
    }

    #[test]
    fn glacial_link_completes_late_not_early() {
        // 1,500 bytes at 1e-12 bps: the service time saturates `u64`
        // microseconds, and the completion must neither wrap around to
        // before the enqueue nor land on `SimTime::MAX` ("idle").
        let mut l = link(LinkParams::lan().rate(1e-12));
        let t0 = SimTime::from_secs(1);
        assert!(l.enqueue(t0, pkt(1500)));
        let done = l.next_wake().expect("link is serving");
        assert!(t0 < done && done < SimTime::MAX, "completion {done:?}");
        assert!(drain(&mut l, SimTime::from_secs(1_000_000)).is_empty());
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        let mut l = link(LinkParams::lan().rate(1_000_000.0).delay(SimDuration::ZERO));
        let t0 = SimTime::ZERO;
        for _ in 0..3 {
            assert!(l.enqueue(t0, pkt(1250))); // 10 ms each
        }
        let out = drain(&mut l, SimTime::from_millis(30));
        let times: Vec<u64> = out.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(l.stats().delivered, 3);
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut l = link(LinkParams::lan().rate(1_000.0).queue(3000));
        let t0 = SimTime::ZERO;
        // First packet goes into service immediately (queue emptied), the
        // next two fill the 3000-byte queue, the fourth drops.
        assert!(l.enqueue(t0, pkt(1500)));
        assert!(l.enqueue(t0, pkt(1500)));
        assert!(l.enqueue(t0, pkt(1500)));
        assert!(!l.enqueue(t0, pkt(1500)));
        assert_eq!(l.stats().dropped_queue, 1);
        assert_eq!(l.backlog_bytes(), 3000);
    }

    #[test]
    fn base_loss_drops_roughly_p_fraction() {
        let mut l = link(LinkParams::lan().rate(1e9).loss(0.2));
        let mut dropped = 0;
        for i in 0..5000 {
            let now = SimTime::from_millis(i);
            drain(&mut l, now); // drain so only random loss, not queue overflow, drops
            if !l.enqueue(now, pkt(100)) {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / 5000.0;
        assert!((frac - 0.2).abs() < 0.03, "loss fraction {frac}");
        assert_eq!(l.stats().dropped_loss, dropped);
    }

    #[test]
    fn zero_loss_link_drops_nothing() {
        let mut l = link(LinkParams::lan().rate(1e9).queue(u32::MAX));
        for i in 0..1000 {
            assert!(l.enqueue(SimTime::from_millis(i), pkt(1500)));
        }
        assert_eq!(l.stats().dropped_loss + l.stats().dropped_queue, 0);
    }

    #[test]
    fn congestion_slows_service() {
        // With heavy cross traffic the same packet takes longer to serialize
        // than on a quiet link.
        let quiet = {
            let mut l = link(LinkParams::lan().rate(100_000.0).delay(SimDuration::ZERO));
            l.enqueue(SimTime::ZERO, pkt(1250));
            l.next_wake().unwrap()
        };
        let busy = {
            let params = LinkParams::lan()
                .rate(100_000.0)
                .delay(SimDuration::ZERO)
                .cross_traffic(CongestionParams::heavy(), 0.0);
            let mut l = link(params);
            l.enqueue(SimTime::ZERO, pkt(1250));
            l.next_wake().unwrap()
        };
        assert!(busy > quiet, "busy {busy} quiet {quiet}");
    }

    #[test]
    fn hard_outage_flushes_and_refuses() {
        let mut l = link(LinkParams::lan().rate(1_000.0).queue(64 * 1024));
        let t0 = SimTime::ZERO;
        assert!(l.enqueue(t0, pkt(1500))); // in service
        assert!(l.enqueue(t0, pkt(1500))); // queued
        l.set_down(OutagePolicy::DropInFlight);
        assert!(l.is_down());
        assert_eq!(l.stats().dropped_outage, 2);
        assert!(!l.enqueue(t0, pkt(100)));
        assert_eq!(l.stats().dropped_outage, 3);
        assert_eq!(l.next_wake(), None);
        assert!(drain(&mut l, SimTime::from_secs(100)).is_empty());
        // Recovery: fresh traffic flows again.
        l.set_up(SimTime::from_secs(100));
        assert!(l.enqueue(SimTime::from_secs(100), pkt(1500)));
        assert_eq!(drain(&mut l, SimTime::from_secs(200)).len(), 1);
    }

    #[test]
    fn carried_outage_stalls_then_delivers_everything() {
        let mut l = link(LinkParams::lan().rate(1_000_000.0).delay(SimDuration::ZERO));
        let t0 = SimTime::ZERO;
        assert!(l.enqueue(t0, pkt(1250))); // 10 ms service, in flight
        assert!(l.enqueue(t0, pkt(1250)));
        l.set_down(OutagePolicy::CarryInFlight);
        assert_eq!(l.stats().dropped_outage, 0);
        assert_eq!(l.next_wake(), None);
        // Queue still accepts while stalled.
        assert!(l.enqueue(SimTime::from_millis(5), pkt(1250)));
        assert!(drain(&mut l, SimTime::from_secs(10)).is_empty());
        let up = SimTime::from_secs(20);
        l.set_up(up);
        let out = drain(&mut l, up + SimDuration::from_millis(30));
        let times: Vec<u64> = out.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![20_010, 20_020, 20_030]);
        assert_eq!(l.stats().delivered, 3);
    }

    #[test]
    fn extra_loss_raises_drop_rate_and_zero_restores_it() {
        let mut l = link(LinkParams::lan().rate(1e9));
        l.set_extra_loss_ppm(300_000); // 30 %
        let mut dropped = 0;
        for i in 0..5000 {
            let now = SimTime::from_millis(i);
            drain(&mut l, now);
            if !l.enqueue(now, pkt(100)) {
                dropped += 1;
            }
        }
        let frac = f64::from(dropped) / 5000.0;
        assert!((frac - 0.3).abs() < 0.03, "burst loss fraction {frac}");
        l.set_extra_loss_ppm(0);
        for i in 5000..6000 {
            let now = SimTime::from_millis(i);
            drain(&mut l, now);
            assert!(l.enqueue(now, pkt(100)));
        }
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut l = link(LinkParams::lan().rate(1e9));
        l.enqueue(SimTime::ZERO, pkt(700));
        l.enqueue(SimTime::ZERO, pkt(300));
        drain(&mut l, SimTime::from_secs(1));
        assert_eq!(l.stats().bytes_delivered, 1000);
        assert_eq!(l.stats().enqueued, 2);
    }
}
