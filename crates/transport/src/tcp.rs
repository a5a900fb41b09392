//! A from-scratch TCP implementation (Reno congestion control).
//!
//! Implements what mattered for 2001-era streaming dynamics:
//!
//! * three-way handshake, FIN close, RST abort;
//! * byte-stream send/receive buffers with cumulative ACKs and bounded
//!   out-of-order reassembly;
//! * slow start, congestion avoidance, fast retransmit + fast recovery
//!   (Reno), RTO per RFC 6298 (SRTT/RTTVAR, Karn's rule, exponential
//!   backoff);
//! * receiver flow control via advertised windows (with window-update ACKs
//!   when the application drains a closed window).
//!
//! Deliberately omitted, as irrelevant to the reproduced figures: SACK,
//! Nagle, delayed ACKs, zero-window probes, and wire-format encoding (the
//! simulator carries structured segments; sizes still include real header
//! overhead).

use std::collections::VecDeque;

use rv_net::{Addr, Packet};
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{ByteRope, PayloadBytes, PoolFootprint, SimDuration, SimTime};

use crate::segment::{Segment, TcpFlags, TcpSegment, DEFAULT_MSS};

/// Connection state, RFC 793 reduced to the transitions the simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent, waiting for SYN+ACK.
    SynSent,
    /// SYN received, SYN+ACK sent, waiting for the final ACK.
    SynRcvd,
    /// Data flows.
    Established,
    /// We sent a FIN and await its ACK.
    FinSent,
}

/// Tunable parameters. Defaults model a 2001-era BSD-ish stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (application bytes per segment).
    pub mss: u32,
    /// Send buffer capacity in bytes (unsent + unacked).
    pub send_capacity: usize,
    /// Receive buffer capacity in bytes; the advertised-window ceiling.
    pub recv_capacity: usize,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Initial slow-start threshold in bytes.
    pub initial_ssthresh: u32,
    /// RTO floor (RFC 2988 recommends 1 s; common stacks used lower).
    pub min_rto: SimDuration,
    /// RTO ceiling.
    pub max_rto: SimDuration,
    /// Handshake retransmissions before an active open gives up with
    /// [`TcpError::ConnectTimeout`] (BSD `tcp_syn_retries`-style). The
    /// default of 6 gives up only after ~213 s of cumulative backoff
    /// (3+6+12+24+48+60+60 with the default RTO bounds) — beyond any
    /// session deadline in the study, so a connect against a live server
    /// behaves exactly as the old unbounded retry did.
    pub max_syn_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: DEFAULT_MSS,
            send_capacity: 256 * 1024,
            recv_capacity: 64 * 1024,
            initial_cwnd_segments: 2,
            initial_ssthresh: 64 * 1024,
            min_rto: SimDuration::from_millis(1000),
            max_rto: SimDuration::from_secs(60),
            max_syn_retries: 6,
        }
    }
}

/// Why a connection reached [`TcpState::Closed`] abnormally. Read (and
/// cleared) with [`TcpSocket::take_error`]; a clean FIN close sets none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The handshake exhausted its SYN retransmissions.
    ConnectTimeout,
    /// A SYN was answered with RST: nothing listening (or the host is
    /// refusing connections — how a crashed server looks to a dialer).
    Refused,
    /// The established connection was torn down by a peer RST.
    Reset,
}

/// Lifetime counters for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments transmitted (first time).
    pub segments_sent: u64,
    /// Segments retransmitted (timeout or fast retransmit).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Application bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Application bytes delivered to the local application.
    pub bytes_delivered: u64,
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    local: Addr,
    remote: Option<Addr>,
    state: TcpState,

    // --- send side ---
    /// Initial send sequence.
    iss: u64,
    /// Oldest unacknowledged sequence.
    snd_una: u64,
    /// Next sequence to transmit.
    snd_nxt: u64,
    /// Sequence number of the first byte in `send_buf`.
    buf_seq: u64,
    /// Unacknowledged + unsent bytes as a rope of shared chunks:
    /// `send_with` and `send` write into the rope's open tail, and
    /// segmentize/retransmit window it with zero-copy sub-slices.
    send_buf: ByteRope,
    /// Congestion window, bytes (f64 so congestion-avoidance fractions accumulate).
    cwnd: f64,
    ssthresh: f64,
    /// Peer's advertised window.
    rwnd: u32,
    dup_acks: u32,
    in_fast_recovery: bool,
    /// `snd_nxt` when fast recovery began (Reno exit point).
    recover: u64,

    // --- retransmission timing ---
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    /// One in-flight RTT measurement: (sequence end, send time). Karn's
    /// rule: invalidated by any retransmission.
    rtt_sample: Option<(u64, SimTime)>,

    // --- receive side ---
    rcv_nxt: u64,
    recv_buf: ByteRope,
    /// Out-of-order payloads as a `(sequence, payload)` vector sorted by
    /// sequence, stored by value (the segment's shared slice — no byte
    /// copy on insertion or absorption). Reassembly windows are tiny (a
    /// few segments behind one loss), so a sorted vector beats a
    /// `BTreeMap`: binary-search insert, no per-segment node allocation,
    /// and the storage is reusable across connections.
    ooo: Vec<(u64, PayloadBytes)>,
    ooo_bytes: usize,
    peer_fin: bool,

    // --- control ---
    /// Our FIN's sequence number once sending was requested and data drained.
    fin_seq: Option<u64>,
    close_requested: bool,
    /// Pure ACKs owed to the peer: one per received data/FIN segment, each
    /// snapshotting (rcv_nxt, window) *at receipt time*. Emitting the
    /// snapshots — rather than the current values — reproduces real
    /// receiver behavior: in-order bursts yield distinct cumulative ACKs,
    /// out-of-order segments yield true duplicates (fast retransmit depends
    /// on the distinction).
    pending_acks: VecDeque<(u64, u32)>,
    /// Set when loss recovery wants the head-of-line segment re-sent; the
    /// next poll() performs it.
    pending_retransmit: bool,
    /// Handshake retransmissions performed so far (active or passive).
    syn_retries: u32,
    /// Why the socket closed abnormally, until the owner collects it.
    last_error: Option<TcpError>,
    /// An RST owed to `remote` after [`TcpSocket::abort`]; emitted by the
    /// next poll even though the socket is already Closed.
    pending_rst: Option<Addr>,
    stats: TcpStats,
}

impl TcpSocket {
    /// Creates a closed socket bound to `local`.
    pub fn new(local: Addr, cfg: TcpConfig) -> Self {
        TcpSocket {
            cfg,
            local,
            remote: None,
            state: TcpState::Closed,
            iss: 0,
            snd_una: 0,
            snd_nxt: 0,
            buf_seq: 1,
            send_buf: ByteRope::new(),
            cwnd: f64::from(cfg.initial_cwnd_segments * cfg.mss),
            ssthresh: f64::from(cfg.initial_ssthresh),
            rwnd: cfg.recv_capacity as u32,
            dup_acks: 0,
            in_fast_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(3), // RFC 6298 initial RTO
            rto_deadline: None,
            rtt_sample: None,
            rcv_nxt: 0,
            recv_buf: ByteRope::new(),
            ooo: Vec::new(),
            ooo_bytes: 0,
            peer_fin: false,
            fin_seq: None,
            close_requested: false,
            pending_acks: VecDeque::new(),
            pending_retransmit: false,
            syn_retries: 0,
            last_error: None,
            pending_rst: None,
            stats: TcpStats::default(),
        }
    }

    /// Returns to [`TcpSocket::new`]`(local, cfg)`'s state, keeping the
    /// storage both ropes (chunk deques and payload pools), the
    /// out-of-order queue and the ACK queue grew. Every byte and payload
    /// the socket held is dropped here.
    pub(crate) fn renew(&mut self, local: Addr, cfg: TcpConfig) {
        let mut send_buf = std::mem::take(&mut self.send_buf);
        let mut recv_buf = std::mem::take(&mut self.recv_buf);
        let mut ooo = std::mem::take(&mut self.ooo);
        let mut pending_acks = std::mem::take(&mut self.pending_acks);
        send_buf.clear();
        recv_buf.clear();
        ooo.clear();
        pending_acks.clear();
        *self = TcpSocket {
            send_buf,
            recv_buf,
            ooo,
            pending_acks,
            ..TcpSocket::new(local, cfg)
        };
    }

    /// Bytes of storage held: both ropes, the out-of-order and ACK queues.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.send_buf.retained_bytes()
            + self.recv_buf.retained_bytes()
            + self.ooo.capacity() * size_of::<(u64, PayloadBytes)>()
            + self.pending_acks.capacity() * size_of::<(u64, u32)>()
    }

    /// The local endpoint.
    pub fn local(&self) -> Addr {
        self.local
    }

    /// The connected peer, if any.
    pub fn remote(&self) -> Option<Addr> {
        self.remote
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Current congestion window in bytes (for instrumentation).
    pub fn cwnd(&self) -> u32 {
        self.cwnd as u32
    }

    /// Current smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Passive open.
    pub fn listen(&mut self) {
        assert_eq!(self.state, TcpState::Closed, "listen on non-closed socket");
        self.state = TcpState::Listen;
    }

    /// Active open toward `remote` at time `now`.
    pub fn connect(&mut self, remote: Addr, now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "connect on non-closed socket");
        self.remote = Some(remote);
        self.state = TcpState::SynSent;
        self.snd_una = self.iss;
        self.snd_nxt = self.iss; // SYN emitted by poll()
        self.buf_seq = self.iss + 1;
        self.rto_deadline = Some(now + self.rto);
    }

    /// `true` once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established || self.state == TcpState::FinSent
    }

    /// `true` when the connection is fully closed or reset.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Bytes of send-buffer space available.
    pub fn send_capacity_left(&self) -> usize {
        self.cfg.send_capacity - self.send_buf.len()
    }

    /// Queues application data by copying it into the send buffer's open
    /// tail (see [`TcpSocket::send_with`]); returns bytes accepted.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if self.close_requested {
            return 0;
        }
        let n = data.len().min(self.send_capacity_left());
        self.send_buf.push_slice(&data[..n]);
        n
    }

    /// Queues `len` bytes of application data written in place by
    /// `fill`, which receives exactly `len` bytes of unspecified content
    /// and must overwrite all of them: the copy-once ingress for data
    /// the caller encodes on the spot. Consecutive writes share the send
    /// buffer's open tail, so a sender the path cannot keep up with owns
    /// about the bytes it has queued, not a backing per write. Accepts
    /// as much as the buffer has room for and drops the rest (re-offer
    /// it, as with [`TcpSocket::send`]); returns bytes accepted.
    pub fn send_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> usize {
        if self.close_requested {
            return 0;
        }
        let n = len.min(self.send_capacity_left());
        self.send_buf.push_with(len, n, fill);
        n
    }

    /// What the send buffer's pool owns, its open tail included
    /// (instrumentation/tests).
    pub fn send_footprint(&self) -> PoolFootprint {
        self.send_buf.footprint()
    }

    /// Bytes queued but not yet acknowledged.
    pub fn unacked_and_unsent(&self) -> usize {
        self.send_buf.len()
    }

    /// Requests graceful close after queued data drains.
    pub fn close(&mut self) {
        self.close_requested = true;
    }

    /// Hard abort: discards all connection state and owes the peer an RST
    /// (emitted by the next poll). Models a process crash taking its
    /// connections with it.
    pub fn abort(&mut self) {
        if !matches!(self.state, TcpState::Closed | TcpState::Listen) {
            self.pending_rst = self.remote;
        }
        self.reset_conn_state();
        self.state = TcpState::Closed;
        // Forget the peer: an aborted socket must not keep exact-matching
        // its old remote (that would silently swallow segments the host
        // should now answer with RSTs from the no-socket path).
        self.remote = None;
    }

    /// Returns the socket to a fresh Closed state (same local address,
    /// same config, lifetime stats preserved) so the owner can
    /// `connect`/`listen` again — the substrate of client reconnects and
    /// server restarts. Unlike [`TcpSocket::abort`], owes the peer
    /// nothing and clears any pending error.
    pub fn reset(&mut self) {
        self.reset_conn_state();
        self.state = TcpState::Closed;
        self.last_error = None;
        self.pending_rst = None;
        self.remote = None;
    }

    /// Clears per-connection state common to [`TcpSocket::abort`] and
    /// [`TcpSocket::reset`].
    fn reset_conn_state(&mut self) {
        self.iss = 0;
        self.snd_una = 0;
        self.snd_nxt = 0;
        self.buf_seq = 1;
        self.send_buf.clear();
        self.cwnd = f64::from(self.cfg.initial_cwnd_segments * self.cfg.mss);
        self.ssthresh = f64::from(self.cfg.initial_ssthresh);
        self.rwnd = self.cfg.recv_capacity as u32;
        self.dup_acks = 0;
        self.in_fast_recovery = false;
        self.recover = 0;
        self.srtt = None;
        self.rttvar = SimDuration::ZERO;
        self.rto = SimDuration::from_secs(3);
        self.rto_deadline = None;
        self.rtt_sample = None;
        self.rcv_nxt = 0;
        self.recv_buf.clear();
        self.ooo.clear();
        self.ooo_bytes = 0;
        self.peer_fin = false;
        self.fin_seq = None;
        self.close_requested = false;
        self.pending_acks.clear();
        self.pending_retransmit = false;
        self.syn_retries = 0;
    }

    /// `true` while an abnormal-close reason waits to be collected by
    /// [`TcpSocket::take_error`].
    pub fn has_error(&self) -> bool {
        self.last_error.is_some()
    }

    /// Takes (and clears) the reason the socket last closed abnormally.
    pub fn take_error(&mut self) -> Option<TcpError> {
        self.last_error.take()
    }

    /// Reads up to `max` bytes of in-order received data into one `Vec`
    /// (single walk, single allocation). Prefer
    /// [`TcpSocket::recv_with`] to consume without the `Vec` at all.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.recv_buf.len());
        let mut out = Vec::with_capacity(n);
        self.recv_with(max, &mut |chunk| out.extend_from_slice(chunk));
        out
    }

    /// Reads up to `max` bytes of in-order received data, handing each
    /// contiguous chunk to `sink` without copying. Returns bytes
    /// consumed.
    pub fn recv_with(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
        let was_closed = self.advertised_window() == 0;
        let n = self.recv_buf.read_with(max, sink);
        self.stats.bytes_delivered += n as u64;
        if was_closed && self.advertised_window() > 0 && n > 0 {
            // Window update so a stalled sender can resume.
            self.queue_ack();
        }
        n
    }

    /// Bytes readable right now.
    pub fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    fn queue_ack(&mut self) {
        if self.pending_acks.len() < 64 {
            self.pending_acks
                .push_back((self.rcv_nxt, self.advertised_window()));
        }
    }

    fn advertised_window(&self) -> u32 {
        // Only in-order buffered data consumes window: charging the
        // out-of-order store would shrink the advertisement on every
        // reordered segment and make duplicate ACKs unrecognizable as such.
        (self.cfg.recv_capacity.saturating_sub(self.recv_buf.len())) as u32
    }

    /// Sequence space currently in flight.
    fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Processes an inbound segment.
    ///
    /// An acknowledgment of something not yet sent (`SEG.ACK > SND.NXT`,
    /// RFC 793 §3.9) is ignored in every state: `snd_una` does not move
    /// and no handshake completes on it. RFC 793 answers with an ACK (or a
    /// reset during the handshake); staying silent is the other choice it
    /// leaves a receiver that must not believe the number, and it keeps a
    /// peer that cannot count from drawing traffic out of this socket.
    pub fn on_segment(&mut self, now: SimTime, src: Addr, seg: TcpSegment) {
        if seg.flags.rst {
            match self.state {
                // A closed or listening socket ignores stray RSTs.
                TcpState::Closed | TcpState::Listen => {}
                TcpState::SynSent => {
                    self.last_error = Some(TcpError::Refused);
                    self.state = TcpState::Closed;
                    self.rto_deadline = None;
                }
                _ => {
                    self.last_error = Some(TcpError::Reset);
                    self.state = TcpState::Closed;
                    self.rto_deadline = None;
                }
            }
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::Listen => {
                if seg.flags.syn {
                    self.remote = Some(src);
                    self.rcv_nxt = seg.seq + 1;
                    self.state = TcpState::SynRcvd;
                    self.snd_una = self.iss;
                    self.snd_nxt = self.iss; // SYN+ACK emitted by poll()
                    self.buf_seq = self.iss + 1;
                    self.rto_deadline = Some(now + self.rto);
                }
            }
            TcpState::SynSent => {
                if seg.flags.syn
                    && seg.flags.ack
                    && seg.ack == self.iss + 1
                    && seg.ack <= self.snd_nxt
                {
                    self.rcv_nxt = seg.seq + 1;
                    self.snd_una = seg.ack;
                    self.rwnd = seg.window;
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                    self.queue_ack();
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.ack && seg.ack == self.iss + 1 && seg.ack <= self.snd_nxt {
                    self.snd_una = seg.ack;
                    self.rwnd = seg.window;
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                }
                // Data can ride on the handshake-completing ACK.
                self.process_payload(seg);
            }
            TcpState::Established | TcpState::FinSent => {
                if seg.flags.ack {
                    self.process_ack(now, &seg);
                }
                self.process_payload(seg);
            }
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        let prev_rwnd = self.rwnd;
        self.rwnd = seg.window;
        if seg.ack > self.snd_una && seg.ack <= self.snd_nxt {
            // --- new data acknowledged ---
            let newly_acked = seg.ack - self.snd_una;
            self.snd_una = seg.ack;
            self.dup_acks = 0;
            self.stats.bytes_acked += newly_acked;

            // Release acknowledged bytes from the buffer. The FIN occupies
            // sequence space beyond the buffered data.
            let data_acked = (seg.ack.min(self.buf_seq + self.send_buf.len() as u64))
                .saturating_sub(self.buf_seq) as usize;
            self.send_buf.advance(data_acked);
            self.buf_seq += data_acked as u64;

            // RTT sampling (Karn: the sample is cleared on retransmission).
            if let Some((end, sent_at)) = self.rtt_sample {
                if seg.ack >= end {
                    self.update_rtt(now.saturating_since(sent_at));
                    self.rtt_sample = None;
                }
            }

            if self.in_fast_recovery {
                if seg.ack >= self.recover {
                    self.in_fast_recovery = false;
                    self.cwnd = self.ssthresh;
                    trace::emit(now, || TraceEvent::TcpCwnd {
                        port: self.local.port,
                        cwnd: self.cwnd as u32,
                        ssthresh: self.ssthresh as u32,
                    });
                }
                // Partial ACKs just deflate toward ssthresh (plain Reno).
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd += f64::from(self.cfg.mss);
            } else {
                // Congestion avoidance: +MSS per RTT.
                let mss = f64::from(self.cfg.mss);
                self.cwnd += mss * mss / self.cwnd;
            }

            if let Some(fin_seq) = self.fin_seq {
                if self.state == TcpState::FinSent && seg.ack > fin_seq {
                    self.state = TcpState::Closed;
                }
            }

            // Rearm or clear the retransmission timer.
            self.rto_deadline = if self.snd_una < self.snd_nxt {
                Some(now + self.rto)
            } else {
                None
            };
        } else if seg.ack == self.snd_una
            && self.flight_size() > 0
            && seg.data.is_empty()
            && seg.window == prev_rwnd
        {
            // --- duplicate ACK ---
            self.dup_acks += 1;
            if self.in_fast_recovery {
                self.cwnd += f64::from(self.cfg.mss);
            } else if self.dup_acks == 3 {
                let mss = f64::from(self.cfg.mss);
                self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0 * mss);
                self.cwnd = self.ssthresh + 3.0 * mss;
                self.in_fast_recovery = true;
                self.recover = self.snd_nxt;
                self.stats.fast_retransmits += 1;
                self.pending_retransmit = true;
                self.rtt_sample = None; // Karn
                trace::emit(now, || TraceEvent::TcpCwnd {
                    port: self.local.port,
                    cwnd: self.cwnd as u32,
                    ssthresh: self.ssthresh as u32,
                });
            }
        }
    }

    fn process_payload(&mut self, seg: TcpSegment) {
        let TcpSegment {
            seq, flags, data, ..
        } = seg;
        let data_len = data.len() as u64;
        if data_len > 0 {
            if seq == self.rcv_nxt {
                // All-or-nothing: a sender respecting our advertised window
                // never overruns; a partial accept would silently discard a
                // tail only an RTO could recover.
                let room = self.cfg.recv_capacity.saturating_sub(self.recv_buf.len());
                if data.len() <= room {
                    self.recv_buf.push(data);
                    self.rcv_nxt += data_len;
                    self.absorb_ooo();
                }
            } else if seq > self.rcv_nxt {
                // Out of order: store the segment's payload by value if
                // room, and never store duplicates. A move of the shared
                // slice — no byte copy.
                let room = self
                    .cfg
                    .recv_capacity
                    .saturating_sub(self.recv_buf.len() + self.ooo_bytes);
                let pos = self.ooo.partition_point(|(s, _)| *s < seq);
                let duplicate = self.ooo.get(pos).is_some_and(|(s, _)| *s == seq);
                if data.len() <= room && !duplicate {
                    self.ooo_bytes += data.len();
                    self.ooo.insert(pos, (seq, data));
                }
            }
            // ACK every data segment (old/duplicate data is re-ACKed too —
            // that is what makes duplicate ACKs visible to the sender).
            self.queue_ack();
        }
        if flags.fin {
            let fin_seq = seq + data_len;
            if fin_seq == self.rcv_nxt && !self.peer_fin {
                self.rcv_nxt += 1;
                self.peer_fin = true;
            }
            self.queue_ack();
        }
    }

    /// Pulls contiguous out-of-order segments into the receive buffer,
    /// stopping when the in-order buffer is full.
    fn absorb_ooo(&mut self) {
        while let Some((seq, data)) = self.ooo.first() {
            let seq = *seq;
            if seq > self.rcv_nxt {
                break;
            }
            let len = data.len();
            if seq == self.rcv_nxt || seq + (len as u64) > self.rcv_nxt {
                let skip = (self.rcv_nxt - seq) as usize;
                let room = self.cfg.recv_capacity.saturating_sub(self.recv_buf.len());
                if len - skip > room {
                    break; // no room yet; keep it out-of-order
                }
                let (_, data) = self.ooo.remove(0);
                self.ooo_bytes -= len;
                self.rcv_nxt += (len - skip) as u64;
                // Partial overlap narrows the stored slice in place.
                self.recv_buf.push(data.slice(skip..));
            } else {
                // Fully old segment: discard.
                let (_, data) = self.ooo.remove(0);
                self.ooo_bytes -= data.len();
            }
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                let delta = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                // RTTVAR = 3/4 RTTVAR + 1/4 |delta|; SRTT = 7/8 SRTT + 1/8 sample.
                self.rttvar = (self.rttvar * 3) / 4 + delta / 4;
                (srtt * 7) / 8 + sample / 8
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + (self.rttvar * 4).max(SimDuration::from_millis(10)))
            .clamp(self.cfg.min_rto, self.cfg.max_rto);
    }

    /// Produces segments ready to transmit at `now` (including handshake,
    /// retransmissions due to timeout, new data, FIN, and pure ACKs),
    /// collected into a `Vec`. Prefer [`TcpSocket::poll_into`] on hot
    /// paths.
    pub fn poll(&mut self, now: SimTime) -> Vec<Packet<Segment>> {
        let mut out = Vec::new();
        self.poll_into(now, &mut |pkt| out.push(pkt));
        out
    }

    /// Produces segments ready to transmit at `now`, handing each to
    /// `emit` as it is built (no per-poll allocation). Returns the number
    /// of segments emitted.
    pub fn poll_into(&mut self, now: SimTime, emit: &mut dyn FnMut(Packet<Segment>)) -> usize {
        let mut emitted = 0;
        // An abort's RST goes out even though the socket is already
        // Closed — the one segment a dead connection still owes the wire.
        if let Some(dst) = self.pending_rst.take() {
            emitted += 1;
            emit(self.make_packet(
                dst,
                TcpSegment {
                    seq: self.snd_nxt,
                    ack: 0,
                    flags: TcpFlags {
                        rst: true,
                        ack: false,
                        syn: false,
                        fin: false,
                    },
                    window: 0,
                    data: PayloadBytes::empty(),
                },
            ));
        }
        let Some(remote) = self.remote else {
            return emitted;
        };

        // Retransmission timeout.
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && self.state != TcpState::Closed {
                self.on_timeout(now);
            }
        }

        match self.state {
            TcpState::SynSent => {
                // Emit the SYN exactly once; a timeout rewinds snd_nxt to
                // the ISS so poll() re-emits it. Emitting unconditionally
                // would spin drivers that re-poll while work is produced.
                if self.snd_nxt == self.iss {
                    self.snd_nxt = self.iss + 1;
                    emitted += 1;
                    emit(self.make_packet(
                        remote,
                        TcpSegment {
                            seq: self.iss,
                            ack: 0,
                            flags: TcpFlags::SYN,
                            window: self.advertised_window(),
                            data: PayloadBytes::empty(),
                        },
                    ));
                }
                return emitted;
            }
            TcpState::SynRcvd => {
                if self.snd_nxt == self.iss {
                    self.snd_nxt = self.iss + 1;
                    emitted += 1;
                    emit(self.make_packet(
                        remote,
                        TcpSegment {
                            seq: self.iss,
                            ack: self.rcv_nxt,
                            flags: TcpFlags::SYN_ACK,
                            window: self.advertised_window(),
                            data: PayloadBytes::empty(),
                        },
                    ));
                }
                return emitted;
            }
            TcpState::Closed | TcpState::Listen => return emitted,
            TcpState::Established | TcpState::FinSent => {}
        }

        // Fast-retransmit request from triple-dupack processing.
        if self.pending_retransmit {
            self.pending_retransmit = false;
            if let Some(pkt) = self.retransmit_head(remote) {
                trace::emit(now, || TraceEvent::TcpRetransmit {
                    port: self.local.port,
                    seq: (self.snd_una - self.iss) as u32,
                    bytes: pkt.size,
                    fast: self.in_fast_recovery,
                });
                emitted += 1;
                emit(pkt);
                self.rto_deadline = Some(now + self.rto);
            }
        }

        // New data within min(cwnd, rwnd). rwnd is respected strictly; a
        // zero window stalls the sender until the receiver's window-update
        // ACK (sent when the application drains) reopens it.
        let window = (self.cwnd as u64).min(u64::from(self.rwnd));
        loop {
            let buffered_end = self.buf_seq + self.send_buf.len() as u64;
            if self.snd_nxt >= buffered_end {
                break;
            }
            if self.flight_size() >= window {
                break;
            }
            let budget = window - self.flight_size();
            let len = (buffered_end - self.snd_nxt)
                .min(u64::from(self.cfg.mss))
                .min(budget) as usize;
            if len == 0 {
                break;
            }
            let off = (self.snd_nxt - self.buf_seq) as usize;
            let data = self.send_buf.slice(off, len);
            let seg = TcpSegment {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags::ACK,
                window: self.advertised_window(),
                data,
            };
            self.snd_nxt += len as u64;
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.rto);
            }
            self.stats.segments_sent += 1;
            self.pending_acks.clear(); // cumulative ack piggybacks on data
            emitted += 1;
            emit(self.make_packet(remote, seg));
        }

        // FIN once all data is sent.
        if self.close_requested
            && self.fin_seq.is_none()
            && self.snd_nxt == self.buf_seq + self.send_buf.len() as u64
            && self.state == TcpState::Established
        {
            let seg = TcpSegment {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags {
                    fin: true,
                    ack: true,
                    syn: false,
                    rst: false,
                },
                window: self.advertised_window(),
                data: PayloadBytes::empty(),
            };
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt += 1;
            self.state = TcpState::FinSent;
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.rto);
            }
            self.pending_acks.clear();
            emitted += 1;
            emit(self.make_packet(remote, seg));
        }

        // One pure ACK per received segment still owed, each carrying its
        // receipt-time snapshot.
        while let Some((ack, window)) = self.pending_acks.pop_front() {
            emitted += 1;
            emit(self.make_packet(
                remote,
                TcpSegment {
                    seq: self.snd_nxt,
                    ack,
                    flags: TcpFlags::ACK,
                    window,
                    data: PayloadBytes::empty(),
                },
            ));
        }
        emitted
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.stats.timeouts += 1;
        let mss = f64::from(self.cfg.mss);
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                self.syn_retries += 1;
                if self.syn_retries > self.cfg.max_syn_retries {
                    // Handshake abandoned: a black-holed or dead peer.
                    if self.state == TcpState::SynSent {
                        self.last_error = Some(TcpError::ConnectTimeout);
                    }
                    self.state = TcpState::Closed;
                    self.rto_deadline = None;
                    return;
                }
                // Handshake retransmission: poll() re-emits the SYN/SYN+ACK.
                self.snd_nxt = self.iss;
            }
            _ => {
                self.ssthresh = (self.flight_size() as f64 / 2.0).max(2.0 * mss);
                self.cwnd = mss;
                self.in_fast_recovery = false;
                self.dup_acks = 0;
                self.rtt_sample = None; // Karn
                self.pending_retransmit = true;
                trace::emit(now, || TraceEvent::TcpCwnd {
                    port: self.local.port,
                    cwnd: self.cwnd as u32,
                    ssthresh: self.ssthresh as u32,
                });
            }
        }
        self.rto = (self.rto * 2).min(self.cfg.max_rto);
        self.rto_deadline = Some(now + self.rto);
        trace::emit(now, || TraceEvent::TcpRto {
            port: self.local.port,
            rto_us: self.rto.as_micros(),
        });
    }

    fn retransmit_head(&mut self, remote: Addr) -> Option<Packet<Segment>> {
        if self.snd_una >= self.snd_nxt {
            return None;
        }
        // Is the head of the unacked region the FIN?
        if self.fin_seq == Some(self.snd_una) {
            self.stats.retransmits += 1;
            return Some(self.make_packet(
                remote,
                TcpSegment {
                    seq: self.snd_una,
                    ack: self.rcv_nxt,
                    flags: TcpFlags {
                        fin: true,
                        ack: true,
                        syn: false,
                        rst: false,
                    },
                    window: self.advertised_window(),
                    data: PayloadBytes::empty(),
                },
            ));
        }
        let off = (self.snd_una - self.buf_seq) as usize;
        let avail = self.send_buf.len().saturating_sub(off);
        let len = avail.min(self.cfg.mss as usize);
        if len == 0 {
            return None;
        }
        let data = self.send_buf.slice(off, len);
        self.stats.retransmits += 1;
        Some(self.make_packet(
            remote,
            TcpSegment {
                seq: self.snd_una,
                ack: self.rcv_nxt,
                flags: TcpFlags::ACK,
                window: self.advertised_window(),
                data,
            },
        ))
    }

    fn make_packet(&self, remote: Addr, seg: TcpSegment) -> Packet<Segment> {
        let size = seg.wire_size();
        Packet::new(self.local, remote, size, Segment::Tcp(seg))
    }

    /// When the socket next needs polling (its retransmission timer).
    pub fn next_wake(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// `true` when the socket has work a poll would emit (pure ACKs, a
    /// pending loss-recovery retransmission, or an abort's RST). A poll
    /// sends ACKs and retransmissions only on an open connection, so a
    /// socket closed while it owed some owes nothing.
    pub fn has_pending_work(&self) -> bool {
        let open = self.remote.is_some()
            && matches!(self.state, TcpState::Established | TcpState::FinSent);
        (open && (!self.pending_acks.is_empty() || self.pending_retransmit))
            || self.pending_rst.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_net::HostId;

    fn addr(h: u32, p: u16) -> Addr {
        Addr::new(HostId(h), p)
    }

    /// Delivers every packet both directions until quiescent, with no loss
    /// and zero latency. Returns packets exchanged.
    fn pump(now: SimTime, a: &mut TcpSocket, b: &mut TcpSocket) -> usize {
        let mut exchanged = 0;
        loop {
            let mut progress = false;
            for pkt in a.poll(now) {
                if let Segment::Tcp(seg) = pkt.payload {
                    b.on_segment(now, pkt.src, seg);
                    exchanged += 1;
                    progress = true;
                }
            }
            for pkt in b.poll(now) {
                if let Segment::Tcp(seg) = pkt.payload {
                    a.on_segment(now, pkt.src, seg);
                    exchanged += 1;
                    progress = true;
                }
            }
            if !progress {
                return exchanged;
            }
        }
    }

    /// The minimal hostile script behind the `flight_size` underflow
    /// (`snd_nxt - snd_una`, found by the stack-claim socket scripts in
    /// `tests/properties.rs` at 1,000 cases): a peer acknowledges a
    /// SYN+ACK — or a SYN — that has not been sent yet.
    #[test]
    fn ack_of_unsent_data_is_ignored_in_both_handshakes() {
        let now = SimTime::ZERO;
        let seg = |flags, seq, ack| TcpSegment {
            seq,
            ack,
            flags,
            window: 65_535,
            data: PayloadBytes::empty(),
        };

        // Passive side: SYN, then the "completing" ACK before any poll.
        let mut server = TcpSocket::new(addr(1, 554), TcpConfig::default());
        server.listen();
        server.on_segment(now, addr(0, 1000), seg(TcpFlags::SYN, 100, 0));
        let ack = seg(TcpFlags::ACK, 101, server.iss + 1);
        server.on_segment(now, addr(0, 1000), ack.clone());
        assert_eq!(server.state(), TcpState::SynRcvd);
        assert_eq!((server.snd_una, server.snd_nxt), (server.iss, server.iss));
        // The poll that used to underflow sends the SYN+ACK instead ...
        assert_eq!(server.poll(now).len(), 1);
        assert_eq!(server.flight_size(), 1);
        // ... after which the very same ACK is acceptable.
        server.on_segment(now, addr(0, 1000), ack);
        assert!(server.is_established());
        assert_eq!(server.flight_size(), 0);

        // Active side: a SYN+ACK answering a SYN still unsent.
        let mut client = TcpSocket::new(addr(0, 1000), TcpConfig::default());
        client.connect(addr(1, 554), now);
        let syn_ack = seg(TcpFlags::SYN_ACK, 500, client.iss + 1);
        client.on_segment(now, addr(1, 554), syn_ack.clone());
        assert_eq!(client.state(), TcpState::SynSent);
        assert_eq!(client.snd_una, client.iss);
        assert_eq!(client.poll(now).len(), 1);
        client.on_segment(now, addr(1, 554), syn_ack);
        assert!(client.is_established());
        client.send(&[7; 100]);
        assert_eq!(
            client.poll(now).len(),
            1,
            "the handshake ACK rides on the data"
        );
        assert_eq!(client.flight_size(), 100);

        // Established: `snd_una` stays put, and so does the flight.
        client.on_segment(
            now,
            addr(1, 554),
            seg(TcpFlags::ACK, 501, client.snd_nxt + 1),
        );
        assert_eq!(client.flight_size(), 100);
    }

    fn established_pair() -> (TcpSocket, TcpSocket) {
        let mut client = TcpSocket::new(addr(0, 1000), TcpConfig::default());
        let mut server = TcpSocket::new(addr(1, 554), TcpConfig::default());
        server.listen();
        client.connect(addr(1, 554), SimTime::ZERO);
        pump(SimTime::ZERO, &mut client, &mut server);
        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    #[test]
    fn handshake_establishes_both_ends() {
        established_pair();
    }

    #[test]
    fn transmit_and_retransmit_share_the_senders_backing_buffer() {
        let (mut c, mut _s) = established_pair();
        let original: Vec<u8> = (0..800u32).map(|i| (i % 256) as u8).collect();
        assert_eq!(c.send_with(800, |out| out.copy_from_slice(&original)), 800);

        // First transmission: the segment's payload is a sub-slice of the
        // send buffer's chunk (its sealed tail), not a copy.
        let pkts = c.poll(SimTime::from_millis(1));
        let first: Vec<&TcpSegment> = pkts
            .iter()
            .filter_map(|p| match &p.payload {
                Segment::Tcp(seg) if !seg.data.is_empty() => Some(seg),
                _ => None,
            })
            .collect();
        assert_eq!(first.len(), 1);
        let queued = c.send_buf.slice(0, 800);
        assert!(
            first[0].data.same_backing(&queued),
            "segmentize must slice the sender's buffer, not copy it"
        );
        assert_eq!(first[0].data, original);

        // Drop the segment (never deliver it) and run past the RTO: the
        // retransmission also re-slices the same backing allocation.
        let rto_fires = c.next_wake().expect("rto armed");
        let pkts = c.poll(rto_fires + SimDuration::from_millis(1));
        let retx: Vec<&TcpSegment> = pkts
            .iter()
            .filter_map(|p| match &p.payload {
                Segment::Tcp(seg) if !seg.data.is_empty() => Some(seg),
                _ => None,
            })
            .collect();
        assert!(!retx.is_empty(), "timeout must produce a retransmission");
        assert!(
            retx[0].data.same_backing(&queued),
            "retransmit must slice the sender's buffer, not copy it"
        );
        assert_eq!(retx[0].data, original);
        assert_eq!(c.stats().retransmits, 1);
    }

    /// The data segments among `pkts`, payloads only.
    fn data_of(pkts: &[Packet<Segment>]) -> Vec<PayloadBytes> {
        let segments = pkts.iter().filter_map(|p| match &p.payload {
            Segment::Tcp(seg) if !seg.data.is_empty() => Some(seg.data.clone()),
            _ => None,
        });
        segments.collect()
    }

    #[test]
    fn spanning_segment_and_its_retransmits_gather_the_same_bytes() {
        let (mut c, mut _s) = established_pair();
        // Two pump-sized writes in two chunks: the first fills its 1 KiB
        // tail's room, so the second opens a tail of its own. The first
        // MSS takes all of one and 660 bytes of the other, the second
        // lies within the second chunk.
        let a: Vec<u8> = (0..800u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..800u32).map(|i| (i * 7) as u8).collect();
        let write = |c: &mut TcpSocket, bytes: &[u8]| {
            c.send_with(bytes.len(), |out| out.copy_from_slice(bytes))
        };
        assert_eq!(write(&mut c, &a) + write(&mut c, &b), 1600);
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();

        let sent = data_of(&c.poll(SimTime::from_millis(1)));
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0], stream[..1460]);
        let (head, second) = (c.send_buf.slice(0, 800), c.send_buf.slice(800, 800));
        assert!(!sent[0].same_backing(&head) && !sent[0].same_backing(&second));
        assert_eq!(sent[1], stream[1460..]);
        assert!(
            sent[1].same_backing(&second),
            "within one chunk: still a slice"
        );

        // Nothing is delivered. The head is gathered again at each RTO:
        // while the first copy is in flight, into another backing ...
        let rto_fires = c.next_wake().expect("rto armed");
        let retx = data_of(&c.poll(rto_fires + SimDuration::from_millis(1)));
        assert_eq!(retx[0], sent[0], "retransmit differs from the transmission");
        assert!(!retx[0].same_backing(&sent[0]));

        // ... and once the first copy is gone (dropped on the path), into
        // the backing it left. The copy still in flight and the sender's
        // own buffer are untouched by that rewrite.
        let in_flight = retx[0].clone();
        drop((sent, retx));
        let rto_fires = c.next_wake().expect("rto re-armed");
        let again = data_of(&c.poll(rto_fires + SimDuration::from_millis(1)));
        assert_eq!(again[0], stream[..1460]);
        assert!(!again[0].same_backing(&in_flight));
        assert_eq!(in_flight, stream[..1460]);
        assert_eq!(head, a[..]);
        assert_eq!(second, b[..]);
        assert_eq!(c.stats().retransmits, 2);
        assert_eq!(c.send_buf.slice(0, 1600), stream[..]);
    }

    #[test]
    fn a_full_send_buffer_is_a_pooled_payload() {
        // A stream fills its send buffer packet by packet, each write
        // landing in the buffer's open tail. Every queued byte sits in a
        // pooled backing (the footprint counts no other kind), and the
        // backings are about the bytes' worth of 16 KiB tails, not one
        // per write.
        let (mut c, _s) = established_pair();
        let capacity = c.send_capacity_left();
        let mut writes = 0u8;
        while c.send_capacity_left() > 0 {
            writes = writes.wrapping_add(1);
            c.send_with(1_400, |out| out.fill(writes));
        }
        assert_eq!(c.unacked_and_unsent(), capacity);
        assert_eq!(c.send_with(1_400, |_| panic!("nothing accepted")), 0);
        let owned = c.send_footprint();
        assert!(owned.bytes >= capacity, "{owned:?}");
        assert!(
            owned.backings <= capacity.div_ceil(16 * 1024) + 6,
            "{owned:?}"
        );
        assert_eq!(c.send_buf.slice(1_400, 1_400), [2u8; 1_400]);
    }

    #[test]
    fn send_with_keeps_what_fits() {
        // `fill` writes the whole offer; only the first bytes that fit are
        // queued, and an offer to a full buffer is not written at all.
        let (mut c, _s) = established_pair();
        let room = c.send_capacity_left();
        assert_eq!(c.send_with(room - 500, |out| out.fill(1)), room - 500);
        let offer: Vec<u8> = (0..1_400u32).map(|i| i as u8).collect();
        assert_eq!(c.send_with(1_400, |out| out.copy_from_slice(&offer)), 500);
        assert_eq!(c.send_capacity_left(), 0);
        assert_eq!(c.send_with(1_400, |_| panic!("nothing accepted")), 0);
        assert_eq!(c.send_buf.slice(room - 500, 500), offer[..500]);
    }

    #[test]
    fn data_flows_in_order() {
        let (mut c, mut s) = established_pair();
        let msg = b"DESCRIBE rtsp://server/clip.rm RTSP/1.0\r\n\r\n";
        assert_eq!(c.send(msg), msg.len());
        pump(SimTime::from_millis(1), &mut c, &mut s);
        assert_eq!(s.recv(4096), msg.to_vec());
    }

    #[test]
    fn large_transfer_is_lossless_and_ordered() {
        let (mut c, mut s) = established_pair();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut now = SimTime::from_millis(1);
        while received.len() < data.len() {
            sent += c.send(&data[sent..]);
            pump(now, &mut c, &mut s);
            received.extend(s.recv(usize::MAX));
            now += SimDuration::from_millis(1);
        }
        assert_eq!(received, data);
    }

    #[test]
    fn lost_segment_is_fast_retransmitted() {
        // A wide initial window so enough segments are in flight for three
        // duplicate ACKs.
        let cfg = TcpConfig {
            initial_cwnd_segments: 8,
            ..TcpConfig::default()
        };
        let mut c = TcpSocket::new(addr(0, 1000), cfg);
        let mut s = TcpSocket::new(addr(1, 554), TcpConfig::default());
        s.listen();
        c.connect(addr(1, 554), SimTime::ZERO);
        pump(SimTime::ZERO, &mut c, &mut s);
        let now = SimTime::from_millis(1);
        let data = vec![7u8; 20 * 1460];
        c.send(&data);
        let pkts = c.poll(now);
        assert!(
            pkts.len() >= 2,
            "need at least 2 in flight, got {}",
            pkts.len()
        );
        // Drop the first data segment, deliver the rest.
        for pkt in pkts.into_iter().skip(1) {
            if let Segment::Tcp(seg) = pkt.payload {
                s.on_segment(now, pkt.src, seg);
            }
        }
        // Server generates dup ACKs; feed them back plus keep pumping so the
        // client can emit more segments, triggering >=3 dupacks.
        for step in 0..50 {
            let t = now + SimDuration::from_millis(step);
            pump(t, &mut c, &mut s);
            if c.stats().fast_retransmits > 0 {
                break;
            }
        }
        assert!(c.stats().fast_retransmits >= 1);
        // Eventually everything arrives.
        let mut got = Vec::new();
        for step in 50..100 {
            let t = now + SimDuration::from_millis(step);
            pump(t, &mut c, &mut s);
            got.extend(s.recv(usize::MAX));
        }
        assert_eq!(got.len(), data.len());
        assert!(got.iter().all(|b| *b == 7));
    }

    #[test]
    fn timeout_retransmits_and_backs_off() {
        let (mut c, mut _s) = established_pair();
        let now = SimTime::from_millis(1);
        c.send(b"hello");
        let first = c.poll(now);
        assert_eq!(first.len(), 1);
        // Peer never answers; jump past the RTO.
        let later = now + SimDuration::from_secs(4);
        let rexmit = c.poll(later);
        assert_eq!(rexmit.len(), 1);
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(c.stats().retransmits, 1);
        if let Segment::Tcp(seg) = &rexmit[0].payload {
            assert_eq!(seg.data, b"hello".to_vec());
        } else {
            panic!("expected TCP segment");
        }
        // cwnd collapsed to one MSS.
        assert_eq!(c.cwnd(), 1460);
    }

    #[test]
    fn slow_start_doubles_cwnd_per_rtt() {
        let (mut c, mut s) = established_pair();
        let initial = c.cwnd();
        c.send(&vec![0u8; 200_000]);
        // One "RTT": emit a window, ACK it all.
        let now = SimTime::from_millis(5);
        pump(now, &mut c, &mut s);
        s.recv(usize::MAX);
        assert!(
            c.cwnd() >= initial * 2 - 1460,
            "cwnd {} initial {initial}",
            c.cwnd()
        );
    }

    #[test]
    fn receiver_window_limits_sender() {
        let cfg = TcpConfig {
            recv_capacity: 4096,
            ..TcpConfig::default()
        };
        let mut c = TcpSocket::new(addr(0, 1), TcpConfig::default());
        let mut s = TcpSocket::new(addr(1, 2), cfg);
        s.listen();
        c.connect(addr(1, 2), SimTime::ZERO);
        pump(SimTime::ZERO, &mut c, &mut s);

        c.send(&vec![1u8; 64 * 1024]);
        pump(SimTime::from_millis(1), &mut c, &mut s);
        // Receiver never drained: at most its capacity is buffered.
        assert!(s.recv_available() <= 4096);
        // Drain and continue: transfer completes.
        let mut total = s.recv(usize::MAX).len();
        for step in 2..200 {
            pump(SimTime::from_millis(step), &mut c, &mut s);
            total += s.recv(usize::MAX).len();
            if total == 64 * 1024 {
                break;
            }
        }
        assert_eq!(total, 64 * 1024);
    }

    #[test]
    fn fin_closes_cleanly() {
        let (mut c, mut s) = established_pair();
        c.send(b"bye");
        c.close();
        pump(SimTime::from_millis(1), &mut c, &mut s);
        assert_eq!(s.recv(16), b"bye".to_vec());
        assert!(c.is_closed());
    }

    #[test]
    fn rst_aborts() {
        let (c, _s) = established_pair();
        let rst = TcpSegment {
            seq: 0,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..TcpFlags::default()
            },
            window: 0,
            data: PayloadBytes::empty(),
        };
        let mut c2 = c;
        c2.on_segment(SimTime::from_millis(1), addr(1, 554), rst);
        assert!(c2.is_closed());
    }

    #[test]
    fn rst_in_syn_sent_reports_refused() {
        let mut c = TcpSocket::new(addr(0, 1000), TcpConfig::default());
        c.connect(addr(1, 554), SimTime::ZERO);
        c.poll(SimTime::ZERO);
        let rst = TcpSegment {
            seq: 0,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..TcpFlags::default()
            },
            window: 0,
            data: PayloadBytes::empty(),
        };
        c.on_segment(SimTime::from_millis(1), addr(1, 554), rst);
        assert!(c.is_closed());
        assert_eq!(c.take_error(), Some(TcpError::Refused));
        assert_eq!(c.take_error(), None, "error is cleared on take");
        assert_eq!(c.next_wake(), None, "dead socket keeps no timer");
    }

    #[test]
    fn rst_when_established_reports_reset() {
        let (mut c, _s) = established_pair();
        let rst = TcpSegment {
            seq: 0,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..TcpFlags::default()
            },
            window: 0,
            data: PayloadBytes::empty(),
        };
        c.on_segment(SimTime::from_millis(1), addr(1, 554), rst);
        assert!(c.is_closed());
        assert_eq!(c.take_error(), Some(TcpError::Reset));
    }

    #[test]
    fn syn_retries_exhaust_into_connect_timeout() {
        let cfg = TcpConfig {
            max_syn_retries: 2,
            ..TcpConfig::default()
        };
        let mut c = TcpSocket::new(addr(0, 1000), cfg);
        c.connect(addr(1, 554), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut syns = 0;
        // Nothing ever answers; walk well past every backoff deadline.
        for _ in 0..64 {
            syns += c.poll(now).len();
            if c.is_closed() {
                break;
            }
            now = c.next_wake().expect("handshake timer armed");
        }
        assert!(c.is_closed());
        // Initial SYN + 2 retries.
        assert_eq!(syns, 3);
        assert_eq!(c.take_error(), Some(TcpError::ConnectTimeout));
        assert_eq!(c.next_wake(), None);
    }

    #[test]
    fn default_syn_retry_budget_outlives_a_session_deadline() {
        // The fault-free determinism guarantee: with the default config, a
        // connect only gives up after the cumulative backoff exceeds the
        // study's 150 s session deadline, so no fault-free session can see
        // a ConnectTimeout.
        let mut c = TcpSocket::new(addr(0, 1000), TcpConfig::default());
        c.connect(addr(1, 554), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        while !c.is_closed() {
            c.poll(now);
            match c.next_wake() {
                Some(t) => now = t,
                None => break,
            }
        }
        assert!(
            now > SimTime::from_secs(150),
            "gave up at {now}, inside the session deadline"
        );
    }

    #[test]
    fn abort_emits_rst_and_peer_observes_reset() {
        let (mut c, mut s) = established_pair();
        c.send(b"data the crash destroys");
        c.abort();
        assert!(c.is_closed());
        let pkts = c.poll(SimTime::from_millis(1));
        assert_eq!(pkts.len(), 1);
        let Segment::Tcp(seg) = &pkts[0].payload else {
            panic!("expected TCP")
        };
        assert!(seg.flags.rst);
        s.on_segment(SimTime::from_millis(1), pkts[0].src, seg.clone());
        assert!(s.is_closed());
        assert_eq!(s.take_error(), Some(TcpError::Reset));
    }

    #[test]
    fn reset_socket_reconnects_cleanly() {
        let (mut c, _old_server) = established_pair();
        let sent_before = c.stats().segments_sent;
        c.reset();
        assert!(c.is_closed());
        assert_eq!(c.remote(), None);
        assert_eq!(c.stats().segments_sent, sent_before, "stats survive reset");
        // Fresh handshake against a fresh listener succeeds.
        let mut s = TcpSocket::new(addr(1, 554), TcpConfig::default());
        s.listen();
        c.connect(addr(1, 554), SimTime::from_secs(1));
        pump(SimTime::from_secs(1), &mut c, &mut s);
        assert!(c.is_established());
        c.send(b"again");
        pump(SimTime::from_secs(2), &mut c, &mut s);
        assert_eq!(s.recv(16), b"again".to_vec());
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        c.send(&vec![9u8; 5 * 1460]);
        let pkts = c.poll(now);
        // Deliver in reverse order.
        for pkt in pkts.into_iter().rev() {
            if let Segment::Tcp(seg) = pkt.payload {
                s.on_segment(now, pkt.src, seg);
            }
        }
        pump(now, &mut c, &mut s);
        let got = s.recv(usize::MAX);
        assert!(got.len() >= 2 * 1460, "got {}", got.len());
        assert!(got.iter().all(|b| *b == 9));
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let (mut c, mut s) = established_pair();
        // Simulate a 100 ms RTT by delaying delivery of ACKs.
        let mut now = SimTime::from_millis(10);
        for _ in 0..20 {
            c.send(&vec![0u8; 1460]);
            let pkts = c.poll(now);
            let reply_at = now + SimDuration::from_millis(100);
            for pkt in pkts {
                if let Segment::Tcp(seg) = pkt.payload {
                    s.on_segment(reply_at, pkt.src, seg);
                }
            }
            for pkt in s.poll(reply_at) {
                if let Segment::Tcp(seg) = pkt.payload {
                    c.on_segment(reply_at, pkt.src, seg);
                }
            }
            s.recv(usize::MAX);
            now = reply_at + SimDuration::from_millis(1);
        }
        let srtt = c.srtt().expect("rtt measured");
        assert!((srtt.as_millis() as i64 - 100).abs() <= 15, "srtt {srtt}");
    }

    #[test]
    fn send_respects_buffer_capacity() {
        let cfg = TcpConfig {
            send_capacity: 1000,
            ..TcpConfig::default()
        };
        let mut c = TcpSocket::new(addr(0, 1), cfg);
        assert_eq!(c.send(&vec![0u8; 600]), 600);
        assert_eq!(c.send(&vec![0u8; 600]), 400);
        assert_eq!(c.send(&[1, 2, 3]), 0);
    }
}
