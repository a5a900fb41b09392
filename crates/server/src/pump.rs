//! The data pump: audio, video and end-of-stream emission up to the
//! buffer lead, scalable-video thinning, FEC, pacing and rate evaluation —
//! and, at its one exit, the [`PumpClaim`] that says when it next has
//! anything to do.

use std::sync::Arc;

use rv_media::{packetize_frame_into, parity_packet, Clip, Frame, LazySchedule};
use rv_media::{MediaPacket, PacketKind};
use rv_net::Addr;
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{PayloadPool, SimDuration, SimTime};
use rv_transport::{Stack, TcpHandle, TcpSocket, UdpHandle};

use crate::ratecontrol::{TfrcConfig, TfrcController, TokenBucket};
use crate::schedules::RungSchedules;
use crate::server::RealServer;

/// Minimum spacing between upward rung switches.
const SWITCH_HOLD: SimDuration = SimDuration::from_secs(5);
/// Rate re-evaluation period.
pub(crate) const RATE_EVAL_PERIOD: SimDuration = SimDuration::from_secs(1);
/// The UDP rate halves when no report arrives for this long.
const REPORT_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Spacing of audio packets.
const AUDIO_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// A non-key frame is a candidate for thinning while the allowed rate is
/// meaningfully below the rung's (small transient dips are absorbed by
/// the playout buffer).
const THIN_BELOW: f64 = 0.90;

/// Where a stream's packets go and what paces them, fixed at PLAY for the
/// life of the stream — and the one place that answers the pump's one
/// question of its transport: will it take `n` more bytes at `now`?
#[derive(Debug)]
pub(crate) enum Outlet {
    /// Interleaved on the data TCP connection, paced by its send window.
    Tcp,
    /// Datagrams to `client`, protected by FEC and paced by `bucket`,
    /// whose rate follows the TFRC controller.
    Udp {
        /// The client's negotiated data address.
        client: Addr,
        /// The stream's persistent pacing bucket.
        bucket: TokenBucket,
    },
}

impl Outlet {
    /// The claim's verb: whether `n` bytes would be taken, taking none.
    /// On TCP that is the data `socket`'s send capacity less the bytes
    /// this pump has `staged` for it, which count exactly as if each
    /// packet had been written eagerly. On UDP it is not pure: the
    /// bucket's `f64` fill level depends on every instant it is refilled
    /// at, so asking makes exactly the one refill a refused
    /// [`Outlet::spend`] makes.
    pub(crate) fn ask(&mut self, now: SimTime, n: u32, socket: &TcpSocket, staged: usize) -> bool {
        match self {
            Outlet::Tcp => socket.send_capacity_left() >= n as usize + staged,
            Outlet::Udp { bucket, .. } => bucket.covers(now, n),
        }
    }

    /// The pump's verb: takes `n` bytes of the transport's budget if it
    /// has them. On TCP asking is all there is to it — staging the packet
    /// is what takes the bytes.
    fn spend(&mut self, now: SimTime, n: u32, socket: &TcpSocket, staged: usize) -> bool {
        match self {
            Outlet::Udp { bucket, .. } => bucket.try_consume(now, n),
            tcp => tcp.ask(now, n, socket, staged),
        }
    }
}

/// What the last full pump learned about when the next one has anything
/// to do: with no new input, a pump strictly before `until` emits and
/// evaluates nothing for as long as the transport refuses `need` bytes.
///
/// Built at the pump's one exit ([`ActiveStream::claim_after`]) and kept
/// on the stream, so whatever replaces or drops the stream drops the
/// claim with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PumpClaim {
    /// The next clock edge among what the pump does *not* owe yet: the
    /// next rate evaluation, an audio packet or frame still outside the
    /// buffer lead. [`SimTime::ZERO`] claims nothing.
    pub(crate) until: SimTime,
    /// The smallest item the pump owed and the transport refused, in
    /// bytes of TCP send capacity or bucket tokens; `u32::MAX` when it
    /// refused nothing and the claim is the clock's alone.
    pub(crate) need: u32,
}

impl PumpClaim {
    /// No claim — run the pump: a stream not pumped yet, or a claim made
    /// at a rate that no longer holds.
    pub(crate) const NONE: PumpClaim = PumpClaim {
        until: SimTime::ZERO,
        need: u32::MAX,
    };

    /// Whether a pump at `now` would indeed do nothing: `now` is short of
    /// the clock edge and the transport still refuses the smallest item
    /// owed (nothing is staged between pumps, so it needs those bytes on
    /// its own). The transport is asked only then, and asked once.
    pub(crate) fn stands(self, now: SimTime, outlet: &mut Outlet, socket: &TcpSocket) -> bool {
        now < self.until && (self.need == u32::MAX || !outlet.ask(now, self.need, socket, 0))
    }

    /// A receiver report moves the rate a blocked bucket refills at, so
    /// any control-plane work voids what a *blocked* pump learned. An
    /// unblocked pump reads nothing a report changes before its next
    /// edge (it re-rates the bucket before it next refills it).
    pub(crate) fn void_if_blocked(&mut self) {
        if self.need != u32::MAX {
            *self = PumpClaim::NONE;
        }
    }
}

/// One active outbound stream.
#[derive(Debug)]
pub(crate) struct ActiveStream {
    /// Shared with the catalog.
    pub(crate) clip: Arc<Clip>,
    pub(crate) outlet: Outlet,
    pub(crate) rung: usize,
    /// Highest rung this client's bandwidth setting allows. SureStream
    /// never serves above the player's configured connection speed — the
    /// headroom between rung rate and path rate is what keeps the buffer
    /// full and playout smooth.
    pub(crate) max_rung: usize,
    /// The current rung's schedule, generated as far as the pump has
    /// asked. Owned: a rung switch parks it in [`RungSchedules`] and
    /// takes the new rung's out.
    pub(crate) schedule: LazySchedule,
    pub(crate) next_frame: usize,
    pub(crate) play_epoch: SimTime,
    /// High-water mark of transmitted presentation time.
    pub(crate) sent_until: SimDuration,
    pub(crate) next_audio: SimDuration,
    pub(crate) audio_seq: u32,
    /// The open FEC group's data packets; its storage comes from and
    /// goes back to [`crate::ServerScratch`].
    pub(crate) fec_buf: Vec<MediaPacket>,
    group_id: u32,
    pub(crate) thin_debt: f64,
    eos_sent: bool,
    pub(crate) last_rate_eval: SimTime,
    pub(crate) last_switch: SimTime,
    tcp_bytes_acked_prev: u64,
    pub(crate) last_timeout_check: SimTime,
    pub(crate) claim: PumpClaim,
}

/// One pump's packets, numbered as they are staged and written once, at
/// the end of the pump, to the transport. On TCP each packet is written
/// straight into the data socket's send buffer, whose open tail the
/// pump's packets share (and the next pumps' too, while the path is
/// slower than the stream): a stalled stream owns about the bytes it has
/// queued. On UDP they go back to back into one pooled backing, one
/// zero-copy slice per datagram. Queue order and simulated time are
/// exactly those of per-packet eager sends. Empty between pumps.
#[derive(Debug, Default)]
pub(crate) struct Staging {
    /// The staged packets, numbered, in send order.
    staged: Vec<MediaPacket>,
    /// Their wire bytes, summed: what the staged packets take of the
    /// transport's budget.
    len: usize,
    /// Reusable packetization scratch (one frame's packets).
    packets: Vec<MediaPacket>,
    /// Recycled datagram backings: once warm, a UDP flush allocates
    /// nothing.
    pub(crate) pool: PayloadPool,
}

impl Staging {
    /// Bytes of storage held: the packet vectors and the pool's backings.
    pub(crate) fn retained_bytes(&self) -> usize {
        let packets = self.staged.capacity() + self.packets.capacity();
        packets * std::mem::size_of::<MediaPacket>() + self.pool.footprint().bytes
    }

    /// Numbers and stages `pkt`; returns it as sent.
    fn send(&mut self, mut pkt: MediaPacket, next_seq: &mut u32) -> MediaPacket {
        pkt.seq = *next_seq;
        *next_seq += 1;
        self.len += pkt.wire_len();
        self.staged.push(pkt);
        pkt
    }

    /// Hands the staged packets to the transport and leaves nothing
    /// behind. On TCP capacity was reserved per packet as it was staged,
    /// so the socket accepts every packet (modulo the same tail
    /// truncation an unchecked eager write would have hit).
    fn flush(&mut self, outlet: &Outlet, stack: &mut Stack, data_tcp: TcpHandle, udp: UdpHandle) {
        self.packets.clear();
        if self.staged.is_empty() {
            return;
        }
        let staged = &self.staged;
        match outlet {
            Outlet::Tcp => {
                let socket = stack.tcp(data_tcp);
                for pkt in staged {
                    socket.send_with(pkt.wire_len(), |out| pkt.write_to(out));
                }
            }
            Outlet::Udp { client, .. } => {
                // Each packet writes every byte of its window: a recycled
                // backing's old bytes never reach the wire.
                let bytes = self.pool.gather(self.len, |out| {
                    let mut start = 0;
                    for pkt in staged {
                        let end = start + pkt.wire_len();
                        pkt.write_to(&mut out[start..end]);
                        start = end;
                    }
                });
                let mut start = 0;
                for pkt in staged {
                    let end = start + pkt.wire_len();
                    stack.udp(udp).send_to(*client, bytes.slice(start..end));
                    start = end;
                }
            }
        }
        self.staged.clear();
        self.len = 0;
    }
}

impl ActiveStream {
    /// Once a [`RATE_EVAL_PERIOD`]: feedback starvation on UDP halves the
    /// rate, then rung selection with hysteresis — down on clear evidence
    /// the current rate cannot be sustained, up one rung at a time when
    /// the path has comfortably supported more for a while. Returns the
    /// rung to switch to, if not the current one.
    fn evaluate_rate(
        &mut self,
        now: SimTime,
        tfrc: &mut TfrcController,
        socket: &TcpSocket,
    ) -> Option<usize> {
        if now.saturating_since(self.last_rate_eval) < RATE_EVAL_PERIOD {
            return None;
        }
        let dt = now.saturating_since(self.last_rate_eval).as_secs_f64();
        self.last_rate_eval = now;

        let rungs = self.clip.ladder.rungs();
        let cur_bps = f64::from(rungs[self.rung].total_bps);
        let next_bps = rungs.get(self.rung + 1).map(|r| f64::from(r.total_bps));
        // `unsustained`: the rate the path has shown it carries, when
        // that is clearly below the rung's. `roomy`: the path has
        // comfortably supported the next rung up.
        let (unsustained, roomy) = match self.outlet {
            Outlet::Udp { .. } => {
                let last = tfrc.last_report().unwrap_or(self.play_epoch);
                if now.saturating_since(last) > REPORT_TIMEOUT
                    && now.saturating_since(self.last_timeout_check) > REPORT_TIMEOUT
                {
                    tfrc.on_report_timeout();
                    self.last_timeout_check = now;
                }
                let allowed = tfrc.allowed_bps();
                let roomy = next_bps.is_some_and(|next_bps| allowed > next_bps * 1.15);
                ((allowed < cur_bps * 0.85).then_some(allowed), roomy)
            }
            Outlet::Tcp => {
                let acked = socket.stats().bytes_acked;
                let measured = (acked - self.tcp_bytes_acked_prev) as f64 * 8.0 / dt.max(0.1);
                self.tcp_bytes_acked_prev = acked;
                let backlog = socket.unacked_and_unsent();
                // A large standing backlog means TCP cannot drain what we
                // offer: the measured rate is the path's real capacity. An
                // empty backlog means the offered (media) rate understates
                // the path, so the only down-signal is the backlog itself.
                let choked = backlog > 32 * 1024 && measured > 1_000.0 && measured < cur_bps * 0.85;
                let roomy = next_bps.is_some() && backlog < 4 * 1024;
                (choked.then_some(measured), roomy)
            }
        };
        let held = now.saturating_since(self.last_switch) >= SWITCH_HOLD;
        let target = match unsustained {
            Some(bps) => self.clip.ladder.select(bps).min(self.rung),
            None if roomy && held && self.rung < self.max_rung => self.rung + 1,
            None => self.rung,
        };
        (target != self.rung).then_some(target)
    }

    /// Moves the stream to `rung`, resuming at the first frame the client
    /// has not been sent.
    pub(crate) fn switch_rung(
        &mut self,
        now: SimTime,
        rung: usize,
        schedules: &mut RungSchedules,
        clip_seed: u64,
    ) {
        let from = self.rung as u8;
        trace::emit(now, || TraceEvent::ServerRungSwitch {
            from,
            to: rung as u8,
        });
        schedules.switch(&mut self.schedule, &self.clip, (self.rung, rung), clip_seed);
        self.rung = rung;
        self.next_frame = self.schedule.first_frame_at(self.sent_until);
        self.fec_buf.clear();
        self.thin_debt = 0.0;
        self.last_switch = now;
    }

    /// A one-fragment packet of the current rung that is not video: an
    /// audio packet or the end-of-stream marker.
    fn unfragmented(
        &self,
        kind: PacketKind,
        frame_index: u32,
        pts: SimDuration,
        payload_len: u16,
    ) -> MediaPacket {
        MediaPacket {
            kind,
            key: false,
            rung: self.rung as u8,
            frame_index,
            frag_index: 0,
            frag_count: 1,
            pts_micros: pts.as_micros(),
            group_id: 0,
            seq: 0,
            payload_len,
        }
    }

    /// The claim a pump leaves, from what its two loops ended on: each
    /// ran to the horizon or to a refusal (`*_need`), the video loop
    /// stopping on `upcoming`. Called after the flush, so a refused item
    /// needs its bytes on their own.
    fn claim_after(
        &self,
        audio_need: Option<u32>,
        video_need: Option<u32>,
        upcoming: Option<Frame>,
        thin_ratio: f64,
        lead: SimDuration,
    ) -> PumpClaim {
        // Retrying a refused frame is itself work when it thins. Such a
        // pump claims no instant.
        let retry_thins = video_need.is_some() && upcoming.is_some_and(|f| thins(&f, thin_ratio));
        // Otherwise the next thing the pump does — short of the transport
        // relenting, which is not a clock edge — is the earliest of: the
        // next rate evaluation, the next audio packet or frame coming
        // inside the buffer lead.
        let mut until = self.last_rate_eval + RATE_EVAL_PERIOD;
        if audio_need.is_none() && self.next_audio < self.clip.duration {
            until = until.min(self.play_epoch + self.next_audio.saturating_sub(lead));
        }
        if let (None, Some(frame)) = (video_need, upcoming) {
            until = until.min(self.play_epoch + frame.pts.saturating_sub(lead));
        }
        PumpClaim {
            until: if retry_thins { SimTime::ZERO } else { until },
            need: audio_need
                .unwrap_or(u32::MAX)
                .min(video_need.unwrap_or(u32::MAX)),
        }
    }
}

/// Whether `frame` is one Scalable Video Technology may drop at
/// `thin_ratio`: every try at such a frame accrues `thin_debt`.
fn thins(frame: &Frame, thin_ratio: f64) -> bool {
    !frame.key && thin_ratio < THIN_BELOW
}

impl RealServer {
    /// Starts streaming `clip` to a client whose connection carries
    /// `client_bps` — as datagrams to `client` if there is one, else on
    /// the data connection — with a rate controller of its own.
    pub(crate) fn open_stream(
        &mut self,
        now: SimTime,
        clip: Arc<Clip>,
        client: Option<Addr>,
        client_bps: f64,
    ) {
        // Initial rung: what the client says its connection supports,
        // moderated by what TFRC currently believes.
        let max_rung = clip.ladder.select(client_bps * 0.9);
        let rung = clip.ladder.select(client_bps * 0.8).min(max_rung);
        let rungs = clip.ladder.rungs();
        let rung_bps = f64::from(rungs[rung].total_bps);
        // Cap the rate controller at the top rung (plus pacing headroom):
        // a media server has nothing to gain from probing beyond the
        // encoded rate, and doing so only manufactures queue loss.
        let top_bps = f64::from(clip.ladder.top().total_bps);
        // ... and never above the client's stated connection speed:
        // pushing past the access link only fills its queue with loss and
        // delay. 0.85: leave room for FEC (+1/8), audio, and headers so
        // the wire rate stays under the client's access link.
        let max_rate_bps = (self.cfg.tfrc.max_rate_bps)
            .min(top_bps * 1.25)
            .min(client_bps * 0.85);
        let tfrc_cfg = TfrcConfig {
            max_rate_bps,
            ..self.cfg.tfrc
        };
        self.tfrc = TfrcController::new(tfrc_cfg, rung_bps.max(20_000.0) * 1.5);

        let outlet = match client {
            Some(client) => {
                // The burst must exceed the largest single frame (a
                // low-action keyframe at the top rung can reach ~16 KB);
                // a frame bigger than the burst could never be sent and
                // would livelock the stream.
                let mut bucket = TokenBucket::new(self.tfrc.allowed_bps(), 32_000.0);
                // Anchor refills to the stream start, not time zero.
                bucket.try_consume(now, 0);
                Outlet::Udp { client, bucket }
            }
            None => Outlet::Tcp,
        };
        self.retire_stream();
        let schedule = self.scratch.schedules.start(&clip, rung, self.clip_seed);
        self.stream = Some(ActiveStream {
            clip,
            outlet,
            rung,
            max_rung,
            schedule,
            next_frame: 0,
            play_epoch: now,
            sent_until: SimDuration::ZERO,
            next_audio: SimDuration::ZERO,
            audio_seq: 0,
            fec_buf: std::mem::take(&mut self.scratch.fec_buf),
            group_id: 0,
            thin_debt: 0.0,
            eos_sent: false,
            last_rate_eval: now,
            last_switch: now,
            tcp_bytes_acked_prev: 0,
            last_timeout_check: now,
            claim: PumpClaim::NONE,
        });
    }

    /// One full pump at `now`: everything owed up to the buffer lead that
    /// the transport will take. Returns units of work done (audio
    /// packets, frames sent or thinned, the end-of-stream marker) and
    /// leaves the stream's claim recomputed, whichever way the loops
    /// ended. The stream is borrowed beside the rest of the server, not
    /// moved out of it.
    pub(crate) fn pump_stream(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let Some(stream) = self.stream.as_mut() else {
            return 0;
        };
        let socket = stack.tcp_ref(self.data_tcp);
        let (stats, next_seq) = (&mut self.stats, &mut self.next_seq);
        if let Some(rung) = stream.evaluate_rate(now, &mut self.tfrc, socket) {
            if rung < stream.rung {
                stats.switches_down += 1;
            } else {
                stats.switches_up += 1;
            }
            stream.switch_rung(now, rung, &mut self.scratch.schedules, self.clip_seed);
        }

        let horizon = now.saturating_since(stream.play_epoch) + self.cfg.buffer_lead;
        let allowed_bps = self.tfrc.allowed_bps();
        // Pacing, Scalable Video Technology thinning and FEC apply to the
        // rate-controlled UDP path; TCP is governed by its own
        // backpressure. Thinning to ~85 % of the allowed rate leaves
        // delivery margin so the surviving frames arrive ahead of their
        // deadlines and play smoothly — "reduce the frame rate in a
        // controlled fashion to maintain smooth video" (paper, Section
        // II.C).
        let (thin_ratio, fec_group) = match &mut stream.outlet {
            Outlet::Udp { bucket, .. } => {
                bucket.set_rate(allowed_bps.max(8_000.0));
                let rung_bps = f64::from(stream.clip.ladder.rungs()[stream.rung].total_bps);
                let thin_ratio = (0.85 * allowed_bps / rung_bps).clamp(0.0, 1.0);
                (thin_ratio, self.cfg.fec_group)
            }
            Outlet::Tcp => (1.0, 0),
        };
        let staging = &mut self.scratch.staging;
        let mut emitted = 0;
        // What the transport, not the media clock, stopped each loop on:
        // the bytes it refused.
        let (mut audio_need, mut video_need) = (None, None);

        // --- audio track (constant rate) ---
        let audio_bps = stream.clip.ladder.rungs()[stream.rung].audio_bps;
        let audio_bytes = (f64::from(audio_bps) * AUDIO_INTERVAL.as_secs_f64() / 8.0) as u16;
        while stream.next_audio <= horizon && stream.next_audio < stream.clip.duration {
            let (seq, pts) = (stream.audio_seq, stream.next_audio);
            let pkt = stream.unfragmented(PacketKind::Audio, seq, pts, audio_bytes.max(8));
            let wire = pkt.wire_len() as u32;
            if !stream.outlet.spend(now, wire, socket, staging.len) {
                audio_need = Some(wire);
                break;
            }
            staging.send(pkt, next_seq);
            stats.audio_packets += 1;
            emitted += 1;
            stream.audio_seq += 1;
            stream.next_audio += AUDIO_INTERVAL;
        }

        // --- video frames ---
        while let Some(frame) = stream.schedule.frame(stream.next_frame) {
            if frame.pts > horizon {
                break;
            }
            if thins(&frame, thin_ratio) {
                stream.thin_debt += 1.0 - thin_ratio;
                if stream.thin_debt >= 1.0 {
                    stream.thin_debt -= 1.0;
                    stream.next_frame += 1;
                    stream.sent_until = frame.pts;
                    stats.frames_thinned += 1;
                    emitted += 1;
                    continue;
                }
            }
            staging.packets.clear();
            let (rung, group) = (stream.rung as u8, stream.group_id);
            packetize_frame_into(&frame, rung, group, &mut staging.packets);
            let wire: u32 = staging.packets.iter().map(|p| p.wire_len() as u32).sum();
            // Charge the FEC parity share up front so the pacing budget
            // covers every byte that will hit the wire.
            let wire_with_fec = match fec_group {
                0 => wire,
                group => wire + wire / group as u32 + 8,
            };
            if !stream.outlet.spend(now, wire_with_fec, socket, staging.len) {
                video_need = Some(wire_with_fec);
                break;
            }
            for i in 0..staging.packets.len() {
                let pkt = staging.send(staging.packets[i], next_seq);
                if fec_group > 0 {
                    stream.fec_buf.push(pkt);
                    if stream.fec_buf.len() >= fec_group {
                        let parity = parity_packet(stream.group_id, &stream.fec_buf);
                        staging.send(parity, next_seq);
                        stats.parity_packets += 1;
                        stream.fec_buf.clear();
                        stream.group_id += 1;
                    }
                }
            }
            stats.video_packets += staging.packets.len() as u64;
            stats.frames_sent += 1;
            emitted += 1;
            stream.next_frame += 1;
            stream.sent_until = frame.pts;
        }

        // The loop stopped on this frame (past the horizon, or refused) or
        // on the clip's end: either way it is already generated.
        let upcoming = stream.schedule.frame(stream.next_frame);

        // --- end of stream ---
        if !stream.eos_sent && upcoming.is_none() && stream.next_audio >= stream.clip.duration {
            let pkt = stream.unfragmented(PacketKind::EndOfStream, 0, stream.clip.duration, 0);
            staging.send(pkt, next_seq);
            stream.eos_sent = true;
            emitted += 1;
        }

        // Every staged byte goes out: headers and payloads of all tracks.
        stats.bytes_sent += staging.len as u64;
        staging.flush(&stream.outlet, stack, self.data_tcp, self.udp);
        let lead = self.cfg.buffer_lead;
        stream.claim = stream.claim_after(audio_need, video_need, upcoming, thin_ratio, lead);
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_transport::{Segment, TcpConfig};

    const T: SimTime = SimTime::from_millis(500);
    const TICK: SimDuration = SimDuration::from_micros(1);
    const CLIENT: Addr = Addr {
        host: rv_net::HostId(0),
        port: 5002,
    };

    /// A host with a data socket that has exactly `room` bytes of send
    /// capacity left.
    fn socket_with_room(room: usize) -> (Stack, TcpHandle) {
        let mut stack = Stack::new(rv_net::HostId(1));
        let data = stack.tcp_socket(555, TcpConfig::default());
        let capacity = stack.tcp_ref(data).send_capacity_left();
        stack.tcp(data).send(&vec![0; capacity - room]);
        assert_eq!(stack.tcp_ref(data).send_capacity_left(), room);
        (stack, data)
    }

    /// A UDP outlet whose bucket fills at 10,000 bytes/s and was emptied
    /// at t = 0: at 125 ms it holds exactly 1,250 tokens.
    fn drained_udp() -> Outlet {
        let mut bucket = TokenBucket::new(80_000.0, 32_000.0);
        assert!(bucket.try_consume(SimTime::ZERO, 32_000));
        Outlet::Udp {
            client: CLIENT,
            bucket,
        }
    }

    /// Every transport state a claim can meet: TCP over a full and an
    /// empty socket, UDP with an empty and a full bucket.
    fn each_transport(mut check: impl FnMut(&mut Outlet, &TcpSocket)) {
        let full_bucket = TokenBucket::new(80_000.0, 32_000.0);
        let mut full_udp = Outlet::Udp {
            client: CLIENT,
            bucket: full_bucket,
        };
        for room in [0, 64 * 1024] {
            let (stack, data) = socket_with_room(room);
            let socket = stack.tcp_ref(data);
            check(&mut Outlet::Tcp, socket);
            check(&mut drained_udp(), socket);
            check(&mut full_udp, socket);
        }
    }

    #[test]
    fn none_never_stands() {
        for now in [SimTime::ZERO, T, SimTime::MAX] {
            each_transport(|outlet, socket| assert!(!PumpClaim::NONE.stands(now, outlet, socket)));
        }
        // A voided claim is `NONE` whatever it was blocked on; a claim
        // that is the clock's alone is not voided.
        let mut blocked = PumpClaim {
            until: T,
            need: 1_000,
        };
        blocked.void_if_blocked();
        assert_eq!(blocked, PumpClaim::NONE);
        let clock_only = PumpClaim {
            until: T,
            need: u32::MAX,
        };
        let mut kept = clock_only;
        kept.void_if_blocked();
        assert_eq!(kept, clock_only);
    }

    #[test]
    fn clock_only_claim_stands_strictly_before_its_edge_whatever_the_transport() {
        let claim = PumpClaim {
            until: T,
            need: u32::MAX,
        };
        each_transport(|outlet, socket| {
            // The transport is not asked: a bucket is not refilled.
            let before = format!("{outlet:?}");
            assert!(claim.stands(SimTime::ZERO, outlet, socket));
            assert!(claim.stands(T - TICK, outlet, socket));
            assert!(!claim.stands(T, outlet, socket));
            assert_eq!(format!("{outlet:?}"), before);
        });
    }

    #[test]
    fn tcp_blocked_claim_stands_while_capacity_is_short_of_the_need() {
        let claim = PumpClaim {
            until: T,
            need: 1_000,
        };
        for (room, refused) in [(0, true), (999, true), (1_000, false), (5_000, false)] {
            let (stack, data) = socket_with_room(room);
            let socket = stack.tcp_ref(data);
            assert_eq!(
                claim.stands(T - TICK, &mut Outlet::Tcp, socket),
                refused,
                "room {room}"
            );
            // Past the clock edge the transport's refusal is no excuse.
            assert!(!claim.stands(T, &mut Outlet::Tcp, socket));
        }
        // The pump's verb counts what it has staged against the window;
        // neither verb takes anything from the socket.
        let (stack, data) = socket_with_room(1_000);
        let socket = stack.tcp_ref(data);
        assert!(Outlet::Tcp.spend(T, 1_000, socket, 0));
        assert!(!Outlet::Tcp.spend(T, 1_000, socket, 1));
        assert!(Outlet::Tcp.ask(T, 1_000, socket, 0));
        assert_eq!(socket.send_capacity_left(), 1_000);
    }

    #[test]
    fn bucket_blocked_claim_stands_while_the_refilled_bucket_is_short_of_the_need() {
        let (stack, data) = socket_with_room(0);
        let socket = stack.tcp_ref(data);
        let now = SimTime::from_millis(125);
        // What a refused spend at `now` leaves behind: the refill alone.
        let mut refilled = drained_udp();
        assert!(!refilled.spend(now, 1_251, socket, 0));
        let refilled = format!("{refilled:?}");
        for (need, refused) in [(1_251, true), (1_250, false)] {
            let mut outlet = drained_udp();
            let claim = PumpClaim { until: T, need };
            // Asking is that refill and only that: nothing is spent, and
            // asking again at `now` adds nothing.
            assert_eq!(claim.stands(now, &mut outlet, socket), refused);
            assert_eq!(format!("{outlet:?}"), refilled);
            assert_eq!(claim.stands(now, &mut outlet, socket), refused);
            assert_eq!(format!("{outlet:?}"), refilled);
            // The pump's verb takes what asking found.
            assert_eq!(outlet.spend(now, need, socket, 0), !refused);
            assert_eq!(format!("{outlet:?}") == refilled, refused);
        }
        // At the clock edge the bucket is not asked, so not refilled.
        let mut outlet = drained_udp();
        let before = format!("{outlet:?}");
        let claim = PumpClaim {
            until: T,
            need: 1_251,
        };
        assert!(!claim.stands(T, &mut outlet, socket));
        assert_eq!(format!("{outlet:?}"), before);
    }

    #[test]
    fn staged_packets_reach_either_transport_as_their_per_packet_encodings() {
        let frame = Frame {
            index: 3,
            pts: SimDuration::from_millis(200),
            size: 3_000,
            key: true,
        };
        let mut packets = Vec::new();
        packetize_frame_into(&frame, 2, 7, &mut packets);
        packets.push(parity_packet(7, &packets));
        assert!(packets.len() > 3, "a frame of several fragments");

        // The server's data connection to a client host, established.
        let mut b = rv_net::NetBuilder::new();
        let (client_host, server_host) = (b.host(), b.host());
        b.duplex(client_host, server_host, rv_net::LinkParams::lan());
        let mut net = b.build_with_payload::<Segment>(&mut rv_sim::SimRng::seed_from_u64(1));
        let mut client = Stack::new(rv_net::HostId(0));
        let receiver = client.tcp_socket(2001, TcpConfig::default());
        client.tcp(receiver).listen();
        let mut stack = Stack::new(rv_net::HostId(1));
        let data = stack.tcp_socket(555, TcpConfig::default());
        let udp = stack.udp_socket(6970);
        let mut now = SimTime::ZERO;
        stack
            .tcp(data)
            .connect(Addr::new(rv_net::HostId(0), 2001), now);
        let mut run = |now: SimTime, client: &mut Stack, stack: &mut Stack| {
            net.poll(now);
            stack.poll(now, &mut net);
            client.poll(now, &mut net);
        };
        while !stack.tcp_ref(data).is_established() {
            now += SimDuration::from_millis(1);
            run(now, &mut client, &mut stack);
        }
        let mut staging = Staging::default();
        let mut seq = 0;

        // UDP: one datagram per packet, in order, each exactly its bytes.
        // The flush writes into a recycled backing last filled with junk,
        // none of which shows through.
        let outlet = drained_udp();
        for pkt in &mut packets {
            *pkt = staging.send(*pkt, &mut seq);
        }
        assert_eq!(seq as usize, packets.len());
        drop(staging.pool.gather(staging.len, |out| out.fill(0xA5)));
        staging.flush(&outlet, &mut stack, data, udp);
        let sent = stack.udp(udp).poll(SimTime::ZERO);
        assert_eq!(sent.len(), packets.len());
        for (i, (wire, pkt)) in sent.iter().zip(&packets).enumerate() {
            let Segment::Udp(dgram) = &wire.payload else {
                panic!("not a datagram: {wire:?}");
            };
            assert_eq!((wire.dst, pkt.seq), (CLIENT, i as u32));
            assert_eq!(&dgram.data[..], &pkt.encode()[..]);
        }

        // TCP through the same staging, emptied by the flush: the same
        // packets as one stream of bytes and no datagram bounds — read
        // back off the connection. The packets are written into the
        // socket's send buffer, not the staging pool.
        assert!(staging.staged.is_empty() && staging.len == 0);
        for pkt in &mut packets {
            *pkt = staging.send(*pkt, &mut seq);
        }
        let stream: Vec<u8> = packets.iter().flat_map(MediaPacket::encode).collect();
        drop(sent);
        assert_eq!(staging.len, stream.len());
        let room = stack.tcp_ref(data).send_capacity_left();
        let pooled = staging.pool.footprint();
        staging.flush(&Outlet::Tcp, &mut stack, data, udp);
        assert_eq!(staging.pool.footprint(), pooled);
        assert_eq!(
            stack.tcp_ref(data).send_capacity_left(),
            room - stream.len()
        );
        assert!(staging.staged.is_empty() && staging.len == 0);
        while client.tcp_ref(receiver).recv_available() < stream.len() {
            now += SimDuration::from_millis(1);
            run(now, &mut client, &mut stack);
        }
        assert_eq!(client.tcp(receiver).recv(usize::MAX), stream);
    }
}
