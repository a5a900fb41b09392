//! UDP: unreliable, unordered datagrams.
//!
//! The streaming data path of roughly half of all RealVideo sessions. The
//! socket is a thin queue pair; reliability, ordering, and rate control are
//! the application's problem (which is exactly what the paper studies).

use std::collections::VecDeque;

use rv_net::{Addr, Packet};
use rv_sim::{PayloadBytes, SimTime};

use crate::segment::{Segment, UdpDatagram};

/// Lifetime counters for a UDP socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Datagrams handed to the network.
    pub datagrams_sent: u64,
    /// Datagrams received.
    pub datagrams_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

/// An unconnected UDP socket.
#[derive(Debug)]
pub struct UdpSocket {
    local: Addr,
    outbox: VecDeque<Packet<Segment>>,
    inbox: VecDeque<(Addr, PayloadBytes)>,
    /// Bound on buffered inbound datagrams; beyond this, oldest are dropped
    /// (mirrors kernel socket-buffer overflow for a slow application).
    inbox_capacity: usize,
    stats: UdpStats,
}

impl UdpSocket {
    /// Creates a socket bound to `local`.
    pub fn new(local: Addr) -> Self {
        UdpSocket {
            local,
            outbox: VecDeque::new(),
            inbox: VecDeque::new(),
            inbox_capacity: 4096,
            stats: UdpStats::default(),
        }
    }

    /// Returns to [`UdpSocket::new`]`(local)`'s state, keeping both
    /// queues' storage. Every datagram the socket held is dropped here.
    pub(crate) fn renew(&mut self, local: Addr) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut inbox = std::mem::take(&mut self.inbox);
        outbox.clear();
        inbox.clear();
        *self = UdpSocket {
            outbox,
            inbox,
            ..UdpSocket::new(local)
        };
    }

    /// Bytes of storage held: both queues.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.outbox.capacity() * size_of::<Packet<Segment>>()
            + self.inbox.capacity() * size_of::<(Addr, PayloadBytes)>()
    }

    /// The local endpoint.
    pub fn local(&self) -> Addr {
        self.local
    }

    /// Lifetime counters.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }

    /// Queues a datagram to `dst`. The payload is a shared slice, so
    /// callers that already hold a [`PayloadBytes`] hand it over without
    /// copying.
    pub fn send_to(&mut self, dst: Addr, data: impl Into<PayloadBytes>) {
        let data = data.into();
        self.stats.datagrams_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        let dgram = UdpDatagram { data };
        let size = dgram.wire_size();
        self.outbox
            .push_back(Packet::new(self.local, dst, size, Segment::Udp(dgram)));
    }

    /// Delivers an inbound datagram (called by the stack demux).
    pub fn on_datagram(&mut self, src: Addr, data: PayloadBytes) {
        self.stats.datagrams_received += 1;
        self.stats.bytes_received += data.len() as u64;
        if self.inbox.len() == self.inbox_capacity {
            self.inbox.pop_front();
        }
        self.inbox.push_back((src, data));
    }

    /// Pops the next received datagram as a shared slice (no copy).
    pub fn recv(&mut self) -> Option<(Addr, PayloadBytes)> {
        self.inbox.pop_front()
    }

    /// Datagrams waiting to be read.
    pub fn recv_queue_len(&self) -> usize {
        self.inbox.len()
    }

    /// Drains queued outbound packets (the stack hands them to the network).
    pub fn poll(&mut self, _now: SimTime) -> Vec<Packet<Segment>> {
        self.outbox.drain(..).collect()
    }

    /// Drains queued outbound packets into `emit` without an intermediate
    /// `Vec`. Returns the number of packets emitted.
    pub fn poll_into(&mut self, _now: SimTime, emit: &mut dyn FnMut(Packet<Segment>)) -> usize {
        let n = self.outbox.len();
        for pkt in self.outbox.drain(..) {
            emit(pkt);
        }
        n
    }

    /// `true` when a poll would emit packets (queued outbound datagrams).
    pub fn has_pending_work(&self) -> bool {
        !self.outbox.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_net::HostId;

    fn addr(h: u32, p: u16) -> Addr {
        Addr::new(HostId(h), p)
    }

    #[test]
    fn send_produces_wire_packets() {
        let mut s = UdpSocket::new(addr(0, 5000));
        s.send_to(addr(1, 6000), vec![1, 2, 3]);
        let pkts = s.poll(SimTime::ZERO);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].size, 28 + 3);
        assert_eq!(pkts[0].dst, addr(1, 6000));
        match &pkts[0].payload {
            Segment::Udp(d) => assert_eq!(d.data, vec![1, 2, 3]),
            _ => panic!("expected UDP"),
        }
    }

    #[test]
    fn recv_returns_in_arrival_order() {
        let mut s = UdpSocket::new(addr(0, 5000));
        s.on_datagram(addr(1, 1), vec![1].into());
        s.on_datagram(addr(1, 1), vec![2].into());
        assert_eq!(s.recv().unwrap().1, vec![1]);
        assert_eq!(s.recv().unwrap().1, vec![2]);
        assert!(s.recv().is_none());
    }

    #[test]
    fn inbox_overflow_drops_oldest() {
        let mut s = UdpSocket::new(addr(0, 1));
        s.inbox_capacity = 2;
        s.on_datagram(addr(1, 1), vec![1].into());
        s.on_datagram(addr(1, 1), vec![2].into());
        s.on_datagram(addr(1, 1), vec![3].into());
        assert_eq!(s.recv_queue_len(), 2);
        assert_eq!(s.recv().unwrap().1, vec![2]);
    }

    #[test]
    fn stats_track_bytes() {
        let mut s = UdpSocket::new(addr(0, 1));
        s.send_to(addr(1, 1), vec![0; 10]);
        s.on_datagram(addr(1, 1), vec![0; 4].into());
        assert_eq!(s.stats().bytes_sent, 10);
        assert_eq!(s.stats().bytes_received, 4);
        assert_eq!(s.stats().datagrams_sent, 1);
        assert_eq!(s.stats().datagrams_received, 1);
    }
}
