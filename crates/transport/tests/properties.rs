//! Property-based tests: TCP's reliable-delivery invariant under arbitrary
//! loss patterns, segment arithmetic, stack demux invariants, and the
//! stack's claims (`needs_poll`, `next_wake`, `quiet_until`) under
//! arbitrary socket scripts.

use proptest::prelude::*;
use rv_net::{Addr, HostId, LinkParams, NetBuilder, Network};
use rv_sim::{SimDuration, SimRng, SimTime};
use rv_transport::{
    Segment, Stack, TcpConfig, TcpFlags, TcpHandle, TcpSegment, TcpSocket, UdpHandle,
};

fn addr(h: u32, p: u16) -> Addr {
    Addr::new(HostId(h), p)
}

/// Drives two directly-connected sockets, dropping packets per `drops`
/// (cycled) and advancing time so RTO can fire. Returns bytes received.
fn lossy_transfer(payload: &[u8], drops: &[bool]) -> Vec<u8> {
    let mut client = TcpSocket::new(addr(0, 1), TcpConfig::default());
    let mut server = TcpSocket::new(addr(1, 2), TcpConfig::default());
    server.listen();
    client.connect(addr(1, 2), SimTime::ZERO);

    let mut received = Vec::new();
    let mut drop_idx = 0;
    let mut sent = 0;
    let mut now = SimTime::ZERO;
    // Generous budget: every loss costs at most one (backed-off) RTO.
    for _ in 0..4_000 {
        if client.is_established() {
            sent += client.send(&payload[sent..]);
        }
        let mut progressed = false;
        for pkt in client.poll(now) {
            let dropped = !drops.is_empty() && drops[drop_idx % drops.len()];
            drop_idx += 1;
            if !dropped {
                if let Segment::Tcp(seg) = pkt.payload {
                    server.on_segment(now, pkt.src, seg);
                    progressed = true;
                }
            }
        }
        for pkt in server.poll(now) {
            // The reverse path (ACKs, SYN+ACK) is lossless: the property
            // under test is data-path recovery.
            if let Segment::Tcp(seg) = pkt.payload {
                client.on_segment(now, pkt.src, seg);
                progressed = true;
            }
        }
        received.extend(server.recv(usize::MAX));
        if received.len() == payload.len() {
            break;
        }
        if !progressed {
            // Idle: jump to the next retransmission deadline.
            now = client
                .next_wake()
                .unwrap_or(now + SimDuration::from_secs(1))
                .max(now + SimDuration::from_millis(1));
        }
    }
    received
}

/// Like [`lossy_transfer`] but the application writes chunk by chunk:
/// each goes in via `send_with` (written in place, as the server writes
/// media) or `send` (borrowed slice) per `in_place`, into an 8 KiB send
/// buffer that a chunk of up to 4,000 bytes often overflows, so both
/// truncate and re-offer. Each round's data-path segments are delivered
/// in reverse order when the corresponding `reorder` flag fires (forcing
/// out-of-order reassembly and duplicate ACKs on top of the losses).
fn lossy_chunked_transfer(
    chunks: &[Vec<u8>],
    in_place: &[bool],
    drops: &[bool],
    reorder: &[bool],
) -> Vec<u8> {
    let total: usize = chunks.iter().map(Vec::len).sum();
    let cfg = TcpConfig {
        send_capacity: 8 * 1024,
        ..TcpConfig::default()
    };
    let mut client = TcpSocket::new(addr(0, 1), cfg);
    let mut server = TcpSocket::new(addr(1, 2), TcpConfig::default());
    server.listen();
    client.connect(addr(1, 2), SimTime::ZERO);

    let mut received = Vec::new();
    let mut drop_idx = 0;
    let mut chunk_idx = 0;
    let mut chunk_off = 0;
    let mut now = SimTime::ZERO;
    for round in 0..6_000 {
        while client.is_established() && chunk_idx < chunks.len() {
            let chunk = &chunks[chunk_idx];
            let rest = &chunk[chunk_off..];
            let accepted = if in_place[chunk_idx % in_place.len()] {
                client.send_with(rest.len(), |out| out.copy_from_slice(rest))
            } else {
                client.send(rest)
            };
            chunk_off += accepted;
            if chunk_off < chunk.len() {
                break; // send buffer full; retry after some ACKs drain it
            }
            chunk_idx += 1;
            chunk_off = 0;
        }
        let mut progressed = false;
        let mut data_path: Vec<TcpSegment> = Vec::new();
        for pkt in client.poll(now) {
            let dropped = !drops.is_empty() && drops[drop_idx % drops.len()];
            drop_idx += 1;
            if !dropped {
                if let Segment::Tcp(seg) = pkt.payload {
                    data_path.push(seg);
                }
            }
        }
        if !reorder.is_empty() && reorder[round % reorder.len()] {
            data_path.reverse();
        }
        for seg in data_path {
            server.on_segment(now, addr(0, 1), seg);
            progressed = true;
        }
        for pkt in server.poll(now) {
            if let Segment::Tcp(seg) = pkt.payload {
                client.on_segment(now, pkt.src, seg);
                progressed = true;
            }
        }
        received.extend(server.recv(usize::MAX));
        if received.len() == total && chunk_idx == chunks.len() {
            break;
        }
        if !progressed {
            now = client
                .next_wake()
                .unwrap_or(now + SimDuration::from_secs(1))
                .max(now + SimDuration::from_millis(1));
        }
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rope-backed send path (mixed in-place and borrowed-slice
    /// writes, truncated when the buffer is full) delivers the exact concatenated byte stream no matter how
    /// sends are sized or how the wire drops and reorders segments —
    /// byte-identical to what the old contiguous-`Vec` sender delivered.
    #[test]
    fn rope_backed_sends_deliver_identical_stream(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..4_000), 1..12),
        in_place in prop::collection::vec(any::<bool>(), 1..12),
        mut drops in prop::collection::vec(prop::bool::weighted(0.15), 1..48),
        reorder in prop::collection::vec(prop::bool::weighted(0.2), 1..16),
    ) {
        // An all-true drop cycle loses every packet forever; keep one
        // live slot so the transfer is completable by construction.
        drops.push(false);
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        let received = lossy_chunked_transfer(&chunks, &in_place, &drops, &reorder);
        prop_assert_eq!(received, expected);
    }

    /// Whatever the loss pattern, TCP delivers the exact byte stream.
    #[test]
    fn tcp_delivers_exactly_despite_loss(
        payload in prop::collection::vec(any::<u8>(), 1..20_000),
        drops in prop::collection::vec(prop::bool::weighted(0.2), 1..64),
    ) {
        let received = lossy_transfer(&payload, &drops);
        prop_assert_eq!(received, payload);
    }

    /// Sequence-space arithmetic: seq_end = seq + data + syn + fin.
    #[test]
    fn segment_seq_space(
        seq in any::<u32>(),
        len in 0usize..3000,
        syn in any::<bool>(),
        fin in any::<bool>(),
    ) {
        let seg = TcpSegment {
            seq: u64::from(seq),
            ack: 0,
            flags: TcpFlags { syn, ack: false, fin, rst: false },
            window: 0,
            data: vec![0; len].into(),
        };
        prop_assert_eq!(
            seg.seq_end(),
            u64::from(seq) + len as u64 + u64::from(syn) + u64::from(fin)
        );
        prop_assert_eq!(seg.wire_size(), 40 + len as u32);
    }

    /// send() never accepts more than capacity and never loses accepted bytes
    /// from its own accounting.
    #[test]
    fn send_buffer_accounting(chunks in prop::collection::vec(1usize..5000, 1..20)) {
        let cfg = TcpConfig { send_capacity: 16 * 1024, ..TcpConfig::default() };
        let mut sock = TcpSocket::new(addr(0, 1), cfg);
        let mut accepted_total = 0usize;
        for n in chunks {
            let accepted = sock.send(&vec![0u8; n]);
            prop_assert!(accepted <= n);
            accepted_total += accepted;
            prop_assert!(accepted_total <= 16 * 1024);
            prop_assert_eq!(sock.unacked_and_unsent(), accepted_total);
        }
    }
}

/// One host of the stack-claim script: its stack and every handle it
/// has issued so far (sockets are added mid-script).
struct ScriptHost {
    stack: Stack,
    tcp: Vec<TcpHandle>,
    udp: Vec<UdpHandle>,
    /// A socket call has been made since the stack was last polled — the
    /// one reason to poll that the stack's own queries leave to the driver.
    app_ran: bool,
}

impl ScriptHost {
    fn new(host: u32) -> Self {
        let mut stack = Stack::new(HostId(host));
        let tcp = (0..2)
            .map(|p| stack.tcp_socket(100 + p, TcpConfig::default()))
            .collect();
        let udp = vec![stack.udp_socket(200)];
        ScriptHost {
            stack,
            tcp,
            udp,
            app_ran: false,
        }
    }

    /// Holds the stack's three driver queries to a sweep of every socket
    /// made through the shared accessors. (Owed RSTs never outlive the
    /// poll that queued them, so the sockets are the whole answer.)
    fn check(&self, net: &Network<Segment>, now: SimTime) -> Result<(), String> {
        let tcp = || self.tcp.iter().map(|&h| self.stack.tcp_ref(h));
        let pending = tcp().any(TcpSocket::has_pending_work)
            || self
                .udp
                .iter()
                .any(|&h| self.stack.udp_ref(h).has_pending_work());
        let due = tcp().filter_map(TcpSocket::next_wake).min();
        prop_assert_eq!(self.stack.next_wake(), due);
        prop_assert_eq!(
            self.stack.needs_poll(net, now),
            net.inbox_len(self.stack.host()) > 0 || pending || due.is_some_and(|t| t <= now)
        );
        // `needs_poll` on an empty inbox, answered for all instants at once.
        let quiet_until = if pending {
            SimTime::ZERO
        } else {
            due.unwrap_or(SimTime::MAX)
        };
        prop_assert_eq!(self.stack.quiet_until(), quiet_until);
        Ok(())
    }
}

proptest! {
    /// The stack's claims agree with a sweep of its sockets under
    /// arbitrary scripts of socket calls through `tcp()` / `udp()`, new
    /// sockets, inbound segments and datagrams over a real two-host
    /// network, polls, and clock steps up to and past retransmission
    /// deadlines, with all three queries checked on both hosts after every
    /// step. A claim is exact both ways: a quiet stack handles nothing
    /// when polled, and a poll leaves nothing owed at its own instant —
    /// with an empty inbox, `quiet_until() > now` right after `poll(now)`,
    /// and a second `poll(now)` handles nothing and changes nothing. The
    /// driver's settle loop stops on this law.
    #[test]
    fn stack_claims_agree_with_a_socket_sweep(
        ops in prop::collection::vec((0u8..14, 0usize..4, 0usize..4, 1u64..2_500), 1..120),
        loss in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let mut b = NetBuilder::new();
        let (h0, h1) = (b.host(), b.host());
        let params = LinkParams::lan()
            .rate(1e6)
            .delay(SimDuration::from_millis(15))
            .loss(loss);
        b.duplex(h0, h1, params);
        let mut net = b.build_with_payload::<Segment>(&mut SimRng::seed_from_u64(seed));
        let mut hosts = [ScriptHost::new(0), ScriptHost::new(1)];
        let mut now = SimTime::ZERO;
        for (kind, a, z, dt) in ops {
            let (me, peer) = (a % 2, 1 - a % 2);
            let th = hosts[me].tcp[z % hosts[me].tcp.len()];
            let uh = hosts[me].udp[z % hosts[me].udp.len()];
            let peer_port = |base: u16, n: usize| Addr::new(HostId(peer as u32), base + (z % n) as u16);
            hosts[me].app_ran |= kind < 10;
            match kind {
                0 => {
                    if hosts[me].stack.tcp_ref(th).is_closed() {
                        let dst = peer_port(100, hosts[peer].tcp.len());
                        hosts[me].stack.tcp(th).connect(dst, now);
                    }
                }
                1 => {
                    if hosts[me].stack.tcp_ref(th).is_closed() {
                        hosts[me].stack.tcp(th).listen();
                    }
                }
                2 => {
                    hosts[me].stack.tcp(th).send(&vec![z as u8; dt as usize]);
                }
                3 => hosts[me].stack.tcp(th).close(),
                4 => hosts[me].stack.tcp(th).abort(),
                5 => hosts[me].stack.tcp(th).reset(),
                6 => {
                    let dst = peer_port(200, hosts[peer].udp.len());
                    hosts[me].stack.udp(uh).send_to(dst, vec![z as u8; 1 + dt as usize % 900]);
                }
                7 => {
                    // Reads reach the sockets mutably without changing
                    // what the claims summarize.
                    hosts[me].stack.tcp(th).recv(usize::MAX);
                    hosts[me].stack.udp(uh).recv();
                }
                8 => {
                    let port = 100 + hosts[me].tcp.len() as u16;
                    let h = hosts[me].stack.tcp_socket(port, TcpConfig::default());
                    hosts[me].tcp.push(h);
                }
                9 => {
                    let port = 200 + hosts[me].udp.len() as u16;
                    let h = hosts[me].stack.udp_socket(port);
                    hosts[me].udp.push(h);
                }
                10 => {
                    net.poll(now);
                }
                11 => {
                    net.poll(now);
                    let ScriptHost { stack, app_ran, .. } = &mut hosts[me];
                    let quiet = !*app_ran
                        && net.inbox_len(stack.host()) == 0
                        && now < stack.quiet_until();
                    let handled = stack.poll(now, &mut net);
                    prop_assert!(!quiet || handled == 0, "quiet stack handled {}", handled);
                    if net.inbox_len(stack.host()) == 0 {
                        let until = stack.quiet_until();
                        prop_assert!(until > now, "polled at {:?}, owes work at {:?}", now, until);
                    }
                    let polled = format!("{:?}", stack);
                    prop_assert_eq!(stack.poll(now, &mut net), 0, "a second poll at {:?} handled", now);
                    prop_assert!(polled == format!("{:?}", stack), "a second poll at {:?} moved", now);
                    *app_ran = false;
                }
                12 => now += SimDuration::from_millis(dt),
                _ => {
                    // Step exactly onto a retransmission deadline, so the
                    // claim's `due <= now` edge is hit, not jumped over.
                    if let Some(t) = hosts[me].stack.next_wake() {
                        now = now.max(t);
                    }
                }
            }
            for host in &hosts {
                host.check(&net, now)?;
            }
        }
    }
}
