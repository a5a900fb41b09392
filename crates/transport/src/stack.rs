//! Per-host socket stack: owns a host's sockets, demultiplexes inbound
//! packets, and pumps outbound segments into the network.

use rv_net::{Addr, HostId, Network, Packet};
use rv_sim::SimTime;

use crate::segment::{Segment, TcpFlags, TcpSegment};
use crate::tcp::{TcpConfig, TcpSocket, TcpState};
use crate::udp::UdpSocket;
use rv_sim::{PayloadBytes, PoolFootprint};

/// Handle to a TCP socket within a [`Stack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHandle(usize);

/// Handle to a UDP socket within a [`Stack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHandle(usize);

/// The transport stack of one host.
#[derive(Debug)]
pub struct Stack {
    host: HostId,
    tcp: Vec<TcpSocket>,
    udp: Vec<UdpSocket>,
    /// Inbound packets that matched no socket.
    dropped_no_socket: u64,
    /// RSTs owed for TCP segments that matched no socket (a real stack
    /// answers them; that answer is how a dialer learns "refused").
    pending_rsts: Vec<Packet<Segment>>,
    /// Fault injection: silently swallow inbound UDP (a filtering
    /// firewall/NAT on the path — the condition RealPlayer's UDP→TCP
    /// fallback existed for).
    udp_blackhole: bool,
    /// Datagrams eaten by the black hole.
    udp_blackholed: u64,
    /// Retired sockets for the sockets still to be created, the next
    /// one's on top: [`Stack::renew`] moves the live sockets here, so the
    /// `i`-th socket created renews the `i`-th the last session created
    /// and inherits the working set it grew.
    spare_tcp: Vec<TcpSocket>,
    spare_udp: Vec<UdpSocket>,
}

/// An empty stack for host 0: the retired stack a cold scratch holds.
impl Default for Stack {
    fn default() -> Self {
        Stack::new(HostId(0))
    }
}

impl Stack {
    /// Creates an empty stack for `host`.
    pub fn new(host: HostId) -> Self {
        Stack {
            host,
            tcp: Vec::new(),
            udp: Vec::new(),
            dropped_no_socket: 0,
            pending_rsts: Vec::new(),
            udp_blackhole: false,
            udp_blackholed: 0,
            spare_tcp: Vec::new(),
            spare_udp: Vec::new(),
        }
    }

    /// Returns to [`Stack::new`]`(host)`'s state, keeping its vectors'
    /// storage and its sockets as spares, which [`Stack::tcp_socket`] and
    /// [`Stack::udp_socket`] renew in creation order. Spares the last
    /// session never used are not kept.
    pub fn renew(&mut self, host: HostId) {
        let mut spare_tcp = std::mem::take(&mut self.spare_tcp);
        let mut spare_udp = std::mem::take(&mut self.spare_udp);
        spare_tcp.clear();
        spare_udp.clear();
        spare_tcp.extend(self.tcp.drain(..).rev());
        spare_udp.extend(self.udp.drain(..).rev());
        let mut pending_rsts = std::mem::take(&mut self.pending_rsts);
        pending_rsts.clear();
        *self = Stack {
            tcp: std::mem::take(&mut self.tcp),
            udp: std::mem::take(&mut self.udp),
            pending_rsts,
            spare_tcp,
            spare_udp,
            ..Stack::new(host)
        };
    }

    /// Bytes of storage held, live sockets and spares: what a retired
    /// stack carries into the next session.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let tcp = self.tcp.iter().chain(&self.spare_tcp);
        let udp = self.udp.iter().chain(&self.spare_udp);
        tcp.map(TcpSocket::retained_bytes).sum::<usize>()
            + udp.map(UdpSocket::retained_bytes).sum::<usize>()
            + (self.tcp.capacity() + self.spare_tcp.capacity()) * size_of::<TcpSocket>()
            + (self.udp.capacity() + self.spare_udp.capacity()) * size_of::<UdpSocket>()
            + self.pending_rsts.capacity() * size_of::<Packet<Segment>>()
    }

    /// What the TCP sockets' send buffers own, live sockets and spares,
    /// summed (see [`TcpSocket::send_footprint`]; the peak is the largest
    /// any one socket had out).
    pub fn send_footprint(&self) -> PoolFootprint {
        let tcp = self.tcp.iter().chain(&self.spare_tcp);
        tcp.map(TcpSocket::send_footprint).sum()
    }

    /// The host this stack belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Creates a TCP socket bound to `port`.
    pub fn tcp_socket(&mut self, port: u16, cfg: TcpConfig) -> TcpHandle {
        let local = Addr::new(self.host, port);
        let socket = match self.spare_tcp.pop() {
            Some(mut spare) => {
                spare.renew(local, cfg);
                spare
            }
            None => TcpSocket::new(local, cfg),
        };
        self.tcp.push(socket);
        TcpHandle(self.tcp.len() - 1)
    }

    /// Creates a UDP socket bound to `port`.
    pub fn udp_socket(&mut self, port: u16) -> UdpHandle {
        let local = Addr::new(self.host, port);
        let socket = match self.spare_udp.pop() {
            Some(mut spare) => {
                spare.renew(local);
                spare
            }
            None => UdpSocket::new(local),
        };
        self.udp.push(socket);
        UdpHandle(self.udp.len() - 1)
    }

    /// Access a TCP socket.
    pub fn tcp(&mut self, h: TcpHandle) -> &mut TcpSocket {
        &mut self.tcp[h.0]
    }

    /// Shared access to a TCP socket.
    pub fn tcp_ref(&self, h: TcpHandle) -> &TcpSocket {
        &self.tcp[h.0]
    }

    /// Access a UDP socket.
    pub fn udp(&mut self, h: UdpHandle) -> &mut UdpSocket {
        &mut self.udp[h.0]
    }

    /// Shared access to a UDP socket.
    pub fn udp_ref(&self, h: UdpHandle) -> &UdpSocket {
        &self.udp[h.0]
    }

    /// Packets dropped for want of a matching socket.
    pub fn dropped_no_socket(&self) -> u64 {
        self.dropped_no_socket
    }

    /// Sums every TCP socket's lifetime counters — the host-wide rollup
    /// the campaign counter registry collects at session end.
    pub fn total_tcp_stats(&self) -> crate::tcp::TcpStats {
        let mut total = crate::tcp::TcpStats::default();
        for s in &self.tcp {
            let st = s.stats();
            total.segments_sent += st.segments_sent;
            total.retransmits += st.retransmits;
            total.timeouts += st.timeouts;
            total.fast_retransmits += st.fast_retransmits;
            total.bytes_acked += st.bytes_acked;
            total.bytes_delivered += st.bytes_delivered;
        }
        total
    }

    /// Turns the inbound-UDP black hole on or off (fault injection).
    pub fn set_udp_blackhole(&mut self, on: bool) {
        self.udp_blackhole = on;
    }

    /// Datagrams silently eaten by the black hole so far.
    pub fn udp_blackholed(&self) -> u64 {
        self.udp_blackholed
    }

    /// Receives all delivered packets from the network, dispatches them to
    /// sockets, then transmits everything the sockets produce. Returns the
    /// number of packets handled.
    pub fn poll(&mut self, now: SimTime, net: &mut Network<Segment>) -> usize {
        let mut handled = 0;

        while let Some(pkt) = net.recv(self.host) {
            handled += 1;
            self.dispatch(now, pkt);
        }

        for pkt in self.pending_rsts.drain(..) {
            net.send(now, pkt);
            handled += 1;
        }

        for sock in &mut self.tcp {
            handled += sock.poll_into(now, &mut |pkt| {
                net.send(now, pkt);
            });
        }
        for sock in &mut self.udp {
            handled += sock.poll_into(now, &mut |pkt| {
                net.send(now, pkt);
            });
        }
        handled
    }

    fn dispatch(&mut self, now: SimTime, pkt: Packet<Segment>) {
        match pkt.payload {
            Segment::Tcp(seg) => {
                // Prefer an exact (local port, remote addr) match, then a
                // listener on the port.
                let exact = self
                    .tcp
                    .iter_mut()
                    .find(|s| s.local().port == pkt.dst.port && s.remote() == Some(pkt.src));
                let sock = match exact {
                    Some(s) => Some(s),
                    None => self
                        .tcp
                        .iter_mut()
                        .find(|s| s.local().port == pkt.dst.port && s.state() == TcpState::Listen),
                };
                match sock {
                    Some(s) => s.on_segment(now, pkt.src, seg),
                    None => {
                        self.dropped_no_socket += 1;
                        // Answer non-RST segments to a dead port with an
                        // RST, as RFC 793 requires — a SYN against a
                        // crashed server fails fast as "refused" instead
                        // of timing out. (Never replying to an RST
                        // prevents RST storms between two dead ends.)
                        if !seg.flags.rst && self.pending_rsts.len() < 64 {
                            let rst = TcpSegment {
                                seq: seg.ack,
                                ack: seg.seq + seg.data.len() as u64 + u64::from(seg.flags.syn),
                                flags: TcpFlags {
                                    rst: true,
                                    ack: false,
                                    syn: false,
                                    fin: false,
                                },
                                window: 0,
                                data: PayloadBytes::empty(),
                            };
                            let size = rst.wire_size();
                            self.pending_rsts.push(Packet::new(
                                pkt.dst,
                                pkt.src,
                                size,
                                Segment::Tcp(rst),
                            ));
                        }
                    }
                }
            }
            Segment::Udp(dgram) => {
                if self.udp_blackhole {
                    self.udp_blackholed += 1;
                    return;
                }
                match self.udp.iter_mut().find(|s| s.local().port == pkt.dst.port) {
                    Some(s) => s.on_datagram(pkt.src, dgram.data),
                    None => self.dropped_no_socket += 1,
                }
            }
        }
    }

    /// When any socket next needs attention (retransmission timers).
    pub fn next_wake(&self) -> Option<SimTime> {
        self.tcp.iter().filter_map(TcpSocket::next_wake).min()
    }

    /// `true` when a poll at `now` could do anything at all: inbound
    /// packets are waiting in the network, a socket timer is due, or a
    /// socket holds deferred output. Every other condition a poll acts on
    /// (new application writes, `connect`/`listen` calls) arises from the
    /// application running, which the driver tracks itself — so a driver
    /// may safely skip polls where this is `false` and the application has
    /// not run since the last poll.
    pub fn needs_poll(&self, net: &Network<Segment>, now: SimTime) -> bool {
        net.inbox_len(self.host) > 0 || self.quiet_until() <= now
    }

    /// The instant strictly before which — with no new inbound packet and
    /// no application call on a socket — a poll does nothing:
    /// [`Stack::needs_poll`] answered once for a whole stretch of instants
    /// instead of per instant. [`SimTime::ZERO`] (no claim) while anything
    /// is deferred (TCP pure ACKs or retransmissions, queued UDP
    /// datagrams, owed RSTs), else the earliest socket timer
    /// ([`SimTime::MAX`] with none armed). A sweep of the host's few
    /// sockets; the driver asks it only of an endpoint it settles.
    pub fn quiet_until(&self) -> SimTime {
        let pending = !self.pending_rsts.is_empty()
            || self.tcp.iter().any(TcpSocket::has_pending_work)
            || self.udp.iter().any(UdpSocket::has_pending_work);
        if pending {
            SimTime::ZERO
        } else {
            self.next_wake().unwrap_or(SimTime::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_net::{LinkParams, NetBuilder};
    use rv_sim::{earliest, SimDuration, SimRng};

    /// Builds two hosts joined by symmetric links and returns
    /// (network, client stack, server stack).
    fn world(params: LinkParams) -> (Network<Segment>, Stack, Stack) {
        let mut b = NetBuilder::new();
        let c = b.host();
        let s = b.host();
        b.duplex(c, s, params);
        let mut rng = SimRng::seed_from_u64(99);
        let net = b.build_with_payload::<Segment>(&mut rng);
        (net, Stack::new(HostId(0)), Stack::new(HostId(1)))
    }

    /// Drives network + both stacks from `*now` until `deadline` or
    /// quiescence: settle the instant, then jump to the earliest wake.
    fn drive(
        net: &mut Network<Segment>,
        a: &mut Stack,
        b: &mut Stack,
        now: &mut SimTime,
        deadline: SimTime,
    ) {
        while *now <= deadline {
            while net.poll(*now) + a.poll(*now, net) + b.poll(*now, net) > 0 {}
            let Some(wake) = earliest([net.next_wake(), a.next_wake(), b.next_wake()]) else {
                return;
            };
            if wake > deadline && *now == deadline {
                return;
            }
            // A wake that is already due must still move the clock.
            *now = wake.min(deadline).max(*now + SimDuration::from_micros(1));
        }
    }

    #[test]
    fn tcp_over_simulated_network_end_to_end() {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(30));
        let (mut net, mut cs, mut ss) = world(params);
        let ch = cs.tcp_socket(2000, TcpConfig::default());
        let sh = ss.tcp_socket(554, TcpConfig::default());
        ss.tcp(sh).listen();
        cs.tcp(ch).connect(Addr::new(HostId(1), 554), SimTime::ZERO);

        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        cs.tcp(ch).send(&payload);

        let mut now = SimTime::ZERO;
        let mut received = Vec::new();
        for step in 1..300 {
            drive(
                &mut net,
                &mut cs,
                &mut ss,
                &mut now,
                SimTime::from_millis(step * 100),
            );
            received.extend(ss.tcp(sh).recv(usize::MAX));
            if received.len() == payload.len() {
                break;
            }
        }
        assert_eq!(received, payload);
        // ~60 ms RTT should be visible in the client's SRTT.
        let srtt = cs.tcp(ch).srtt().expect("rtt measured");
        assert!((srtt.as_millis() as i64 - 60).abs() < 30, "srtt {srtt}");
    }

    #[test]
    fn tcp_recovers_over_lossy_link() {
        let params = LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(20))
            .loss(0.05);
        let (mut net, mut cs, mut ss) = world(params);
        let ch = cs.tcp_socket(2000, TcpConfig::default());
        let sh = ss.tcp_socket(554, TcpConfig::default());
        ss.tcp(sh).listen();
        cs.tcp(ch).connect(Addr::new(HostId(1), 554), SimTime::ZERO);

        let payload = vec![0xABu8; 60_000];
        cs.tcp(ch).send(&payload);

        let mut now = SimTime::ZERO;
        let mut received = Vec::new();
        for step in 1..600 {
            drive(
                &mut net,
                &mut cs,
                &mut ss,
                &mut now,
                SimTime::from_millis(step * 100),
            );
            received.extend(ss.tcp(sh).recv(usize::MAX));
            if received.len() == payload.len() {
                break;
            }
        }
        assert_eq!(
            received.len(),
            payload.len(),
            "transfer completed despite loss"
        );
        assert!(received.iter().all(|b| *b == 0xAB));
        let stats = cs.tcp(ch).stats();
        assert!(stats.retransmits > 0, "loss should force retransmissions");
    }

    #[test]
    fn udp_datagrams_flow_and_loss_is_tolerated() {
        let params = LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(10))
            .loss(0.1);
        let (mut net, mut cs, mut ss) = world(params);
        let cu = cs.udp_socket(5000);
        let su = ss.udp_socket(5001);

        let mut now = SimTime::ZERO;
        for i in 0..200u16 {
            ss.udp(su)
                .send_to(Addr::new(HostId(0), 5000), i.to_be_bytes().to_vec());
        }
        drive(&mut net, &mut cs, &mut ss, &mut now, SimTime::from_secs(30));

        let mut got = 0;
        while cs.udp(cu).recv().is_some() {
            got += 1;
        }
        assert!(
            got > 150 && got < 200,
            "got {got}: loss should drop some but not most"
        );
    }

    #[test]
    fn packets_to_unbound_ports_are_counted() {
        let params = LinkParams::lan();
        let (mut net, mut cs, mut ss) = world(params);
        let cu = cs.udp_socket(5000);
        cs.udp(cu).send_to(Addr::new(HostId(1), 9999), vec![1]);
        let mut now = SimTime::ZERO;
        drive(&mut net, &mut cs, &mut ss, &mut now, SimTime::from_secs(1));
        assert_eq!(ss.dropped_no_socket(), 1);
    }

    #[test]
    fn two_tcp_connections_multiplex_on_one_host() {
        let params = LinkParams::lan()
            .rate(1e7)
            .delay(SimDuration::from_millis(5));
        let (mut net, mut cs, mut ss) = world(params);
        let c1 = cs.tcp_socket(2000, TcpConfig::default());
        let c2 = cs.tcp_socket(2001, TcpConfig::default());
        let s1 = ss.tcp_socket(554, TcpConfig::default());
        let s2 = ss.tcp_socket(555, TcpConfig::default());
        ss.tcp(s1).listen();
        ss.tcp(s2).listen();
        cs.tcp(c1).connect(Addr::new(HostId(1), 554), SimTime::ZERO);
        cs.tcp(c2).connect(Addr::new(HostId(1), 555), SimTime::ZERO);
        cs.tcp(c1).send(b"control");
        cs.tcp(c2).send(b"data");

        let mut now = SimTime::ZERO;
        drive(&mut net, &mut cs, &mut ss, &mut now, SimTime::from_secs(5));
        assert_eq!(ss.tcp(s1).recv(64), b"control".to_vec());
        assert_eq!(ss.tcp(s2).recv(64), b"data".to_vec());
    }
}
