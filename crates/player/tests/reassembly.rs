//! The assembler's executable spec: [`Assembler`] against the reference
//! model it replaced — the `HashMap` / `HashSet` / `BTreeMap` assembler,
//! kept below verbatim — over arbitrary frame streams across rung
//! switches, FEC on and off, with loss, duplication, reordering, hostile
//! packets, `expire_before` and `take_interval` interleaved. After every
//! operation both must have yielded the same frames in the same order and
//! agree on `stats()`, `pending_frames()` and every `take_interval()`.
//! Three laws ride along: no `(rung, index)` is ever yielded twice, FEC
//! recoveries never outnumber completions, and an assembler that played
//! another stream and was cleared behaves exactly like a fresh one.
//!
//! 64 cases by default; CI runs 2,000 in debug and in release:
//!
//! ```text
//! PROPTEST_CASES=2000 cargo test -p rv-player --test reassembly
//! ```

use std::collections::HashSet;

use proptest::prelude::*;
use rv_media::{packetize_frame, parity_packet, Frame, MediaPacket, PacketKind};
use rv_player::{Assembler, CompleteFrame};
use rv_sim::{SimDuration, SimTime};

/// The assembler as it stood before its maps became recycled slots,
/// verbatim: the reference the rewrite is held to.
#[allow(dead_code)]
mod reference {
    use std::collections::{BTreeMap, HashMap, HashSet};

    use rv_media::{MediaPacket, PacketKind};
    use rv_player::{CompleteFrame, ReassemblyStats};
    use rv_sim::{SimDuration, SimTime};

    #[derive(Debug)]
    struct PartialFrame {
        got: Vec<bool>,
        /// FEC groups this frame has fragments in (tiny: a fragment run spans
        /// at most a couple of groups), so completion can drop the frame from
        /// exactly those groups instead of scanning the whole group map.
        member_of: Vec<u32>,
        received: u16,
        bytes: u32,
        pts: SimDuration,
        key: bool,
    }

    #[derive(Debug, Default)]
    struct FecGroup {
        data_received: u16,
        parity: Option<u16>, // group size announced by the parity packet
        /// Size of the largest member fragment, from the parity packet: the
        /// best available estimate for a recovered fragment's size.
        parity_len: u16,
        /// Incomplete frames that have fragments in this group. A plain Vec:
        /// membership is a handful of frames, and the backing allocation is
        /// recycled when the group retires.
        frames: Vec<(u8, u32)>,
    }

    /// Reassembles frames from media packets.
    #[derive(Debug)]
    pub struct Assembler {
        partial: HashMap<(u8, u32), PartialFrame>,
        /// Retired fragment bitmaps, recycled so steady-state reassembly
        /// allocates nothing per frame.
        spare_got: Vec<Vec<bool>>,
        /// Retired group-membership lists, recycled with the bitmaps.
        spare_member: Vec<Vec<u32>>,
        /// Retired FEC-group frame lists, recycled as groups die.
        spare_frames: Vec<Vec<(u8, u32)>>,
        /// Reused key buffer for `expire_before`.
        expire_scratch: Vec<(u8, u32)>,
        /// Frames already delivered; re-received fragments must not rebuild them.
        completed: HashSet<(u8, u32)>,
        groups: BTreeMap<u32, FecGroup>,
        /// Highest transport sequence seen, for loss estimation.
        max_seq: Option<u32>,
        seen_count: u64,
        /// Interval accounting for receiver reports.
        interval_bytes: u64,
        interval_max_seq: Option<u32>,
        interval_seen: u64,
        interval_base_seq: Option<u32>,
        /// Where the next interval's sequence window starts (max seen + 1).
        next_interval_base: u32,
        eos: bool,
        stats: ReassemblyStats,
    }

    impl Default for Assembler {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Assembler {
        /// An empty assembler.
        pub fn new() -> Self {
            Assembler {
                partial: HashMap::new(),
                spare_got: Vec::new(),
                spare_member: Vec::new(),
                spare_frames: Vec::new(),
                expire_scratch: Vec::new(),
                completed: HashSet::new(),
                groups: BTreeMap::new(),
                max_seq: None,
                seen_count: 0,
                interval_bytes: 0,
                interval_max_seq: None,
                interval_seen: 0,
                interval_base_seq: None,
                next_interval_base: 0,
                eos: false,
                stats: ReassemblyStats::default(),
            }
        }

        /// Lifetime counters (loss estimate updated on the fly).
        pub fn stats(&self) -> ReassemblyStats {
            let mut s = self.stats;
            s.packets_lost = self.estimated_lost();
            s
        }

        /// `true` once the end-of-stream marker arrived.
        pub fn eos(&self) -> bool {
            self.eos
        }

        /// Sequence-gap loss estimate over the whole session.
        fn estimated_lost(&self) -> u64 {
            match self.max_seq {
                Some(max) => (u64::from(max) + 1).saturating_sub(self.seen_count),
                None => 0,
            }
        }

        /// Processes one packet; returns any frames it completed (usually 0–1,
        /// more after an FEC recovery).
        pub fn on_packet(&mut self, now: SimTime, pkt: MediaPacket) -> Vec<CompleteFrame> {
            let mut out = Vec::new();
            self.on_packet_into(now, pkt, &mut out);
            out
        }

        /// [`Assembler::on_packet`] appending completed frames to `out`, so a
        /// receive loop can reuse one buffer across every packet it feeds.
        pub fn on_packet_into(
            &mut self,
            now: SimTime,
            pkt: MediaPacket,
            out: &mut Vec<CompleteFrame>,
        ) {
            self.stats.packets_received += 1;
            self.stats.bytes_received += pkt.wire_len() as u64;
            self.interval_bytes += pkt.wire_len() as u64;
            self.seen_count += 1;
            self.interval_seen += 1;
            self.max_seq = Some(self.max_seq.map_or(pkt.seq, |m| m.max(pkt.seq)));
            self.interval_max_seq = Some(self.interval_max_seq.map_or(pkt.seq, |m| m.max(pkt.seq)));
            if self.interval_base_seq.is_none() {
                // Anchor at the stream's continuation point, not the first seq
                // seen this interval: a reordered packet from the previous
                // interval would otherwise inflate the expected count and
                // report phantom loss.
                self.interval_base_seq = Some(pkt.seq.min(self.next_interval_base));
            }

            match pkt.kind {
                PacketKind::Audio => {
                    self.stats.audio_packets += 1;
                }
                PacketKind::EndOfStream => {
                    self.eos = true;
                }
                PacketKind::Video => self.on_video(now, pkt, out),
                PacketKind::Parity => self.on_parity(now, pkt, out),
            }
        }

        fn on_video(&mut self, now: SimTime, pkt: MediaPacket, out: &mut Vec<CompleteFrame>) {
            let key = (pkt.rung, pkt.frame_index);
            if self.completed.contains(&key) {
                return; // duplicate of an already-delivered frame
            }
            let entry = match self.partial.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let mut got = self.spare_got.pop().unwrap_or_default();
                    got.clear();
                    got.resize(usize::from(pkt.frag_count), false);
                    let mut member_of = self.spare_member.pop().unwrap_or_default();
                    member_of.clear();
                    v.insert(PartialFrame {
                        got,
                        member_of,
                        received: 0,
                        bytes: 0,
                        pts: SimDuration::from_micros(pkt.pts_micros),
                        key: pkt.key,
                    })
                }
            };
            let idx = usize::from(pkt.frag_index);
            if idx >= entry.got.len() || entry.got[idx] {
                return; // duplicate or malformed
            }
            entry.got[idx] = true;
            entry.received += 1;
            entry.bytes += u32::from(pkt.payload_len);

            let spare_frames = &mut self.spare_frames;
            let group = self.groups.entry(pkt.group_id).or_insert_with(|| FecGroup {
                frames: spare_frames.pop().unwrap_or_default(),
                ..FecGroup::default()
            });
            group.data_received += 1;

            if entry.received == entry.got.len() as u16 {
                let mut done = self.partial.remove(&key).expect("present");
                self.spare_got.push(std::mem::take(&mut done.got));
                self.completed.insert(key);
                self.stats.frames_completed += 1;
                // The frame left the partial set; drop it from group tracking.
                for gid in done.member_of.drain(..) {
                    if let Some(g) = self.groups.get_mut(&gid) {
                        g.frames.retain(|k| *k != key);
                    }
                }
                self.spare_member.push(done.member_of);
                out.push(CompleteFrame {
                    index: pkt.frame_index,
                    rung: pkt.rung,
                    pts: done.pts,
                    size: done.bytes,
                    key: done.key,
                    completed_at: now,
                });
            } else {
                if !group.frames.contains(&key) {
                    group.frames.push(key);
                }
                if !entry.member_of.contains(&pkt.group_id) {
                    entry.member_of.push(pkt.group_id);
                }
                self.try_recover(now, pkt.group_id, out);
            }
        }

        fn on_parity(&mut self, now: SimTime, pkt: MediaPacket, out: &mut Vec<CompleteFrame>) {
            let group = self.groups.entry(pkt.group_id).or_default();
            group.parity = Some(pkt.frag_count);
            group.parity_len = pkt.payload_len;
            self.try_recover(now, pkt.group_id, out);
        }

        /// XOR-parity semantics: if the parity packet arrived and exactly one
        /// data packet of the group is missing, the missing fragment is
        /// reconstructible. In the simulation the fragment's *content* is not
        /// carried, so recovery completes the unique frame in the group that is
        /// one fragment short.
        fn try_recover(&mut self, now: SimTime, group_id: u32, out: &mut Vec<CompleteFrame>) {
            let Some(group) = self.groups.get(&group_id) else {
                return;
            };
            let Some(size) = group.parity else {
                return;
            };
            if group.data_received + 1 != size {
                return;
            }
            // Find the unique one-fragment-short frame touched by this group.
            let mut candidate = None;
            for k in &group.frames {
                let short = self
                    .partial
                    .get(k)
                    .is_some_and(|p| p.received + 1 == p.got.len() as u16);
                if short {
                    if candidate.is_some() {
                        return; // ambiguous: more than one frame is short
                    }
                    candidate = Some(*k);
                }
            }
            let Some(key) = candidate else {
                return;
            };
            let recovered_len = self.groups[&group_id].parity_len;
            let mut done = self.partial.remove(&key).expect("candidate exists");
            self.spare_got.push(std::mem::take(&mut done.got));
            self.completed.insert(key);
            if let Some(mut dead) = self.groups.remove(&group_id) {
                dead.frames.clear();
                self.spare_frames.push(dead.frames);
            }
            for gid in done.member_of.drain(..) {
                if let Some(g) = self.groups.get_mut(&gid) {
                    g.frames.retain(|k| *k != key);
                }
            }
            self.spare_member.push(done.member_of);
            self.stats.frames_completed += 1;
            self.stats.frames_recovered += 1;
            // The recovered fragment's bytes are synthesized; the parity
            // packet's length (the largest member) is the best size estimate.
            let recovered = if recovered_len > 0 {
                u32::from(recovered_len)
            } else {
                done.bytes / u32::from(done.received.max(1))
            };
            out.push(CompleteFrame {
                index: key.1,
                rung: key.0,
                pts: done.pts,
                size: done.bytes + recovered,
                key: done.key,
                completed_at: now,
            });
        }

        /// Drains the per-interval receiver-report counters, returning
        /// `(loss_rate, received_bytes)` since the previous call.
        pub fn take_interval(&mut self) -> (f64, u64) {
            let loss = match (self.interval_base_seq, self.interval_max_seq) {
                (Some(base), Some(max)) => {
                    let expected = u64::from(max) - u64::from(base) + 1;
                    let lost = expected.saturating_sub(self.interval_seen);
                    lost as f64 / expected as f64
                }
                _ => 0.0,
            };
            let bytes = self.interval_bytes;
            self.next_interval_base = self
                .interval_max_seq
                .map_or(self.next_interval_base, |m| m.saturating_add(1));
            self.interval_bytes = 0;
            self.interval_seen = 0;
            self.interval_base_seq = None;
            self.interval_max_seq = None;
            (loss, bytes)
        }

        /// Number of frames currently awaiting fragments.
        pub fn pending_frames(&self) -> usize {
            self.partial.len()
        }

        /// Discards partial frames older than `horizon` (their playout deadline
        /// passed; holding them forever would leak).
        pub fn expire_before(&mut self, horizon: SimDuration) {
            let mut stale = std::mem::take(&mut self.expire_scratch);
            stale.clear();
            stale.extend(
                self.partial
                    .iter()
                    .filter(|(_, p)| p.pts < horizon)
                    .map(|(k, _)| *k),
            );
            for key in stale.drain(..) {
                if let Some(mut dead) = self.partial.remove(&key) {
                    self.spare_got.push(std::mem::take(&mut dead.got));
                    for gid in dead.member_of.drain(..) {
                        if let Some(g) = self.groups.get_mut(&gid) {
                            g.frames.retain(|k| *k != key);
                        }
                    }
                    self.spare_member.push(dead.member_of);
                }
            }
            self.expire_scratch = stale;
            // Old FEC groups with no live frames can go too, their frame-list
            // backings returned to the spare pool.
            let mut spare_frames = std::mem::take(&mut self.spare_frames);
            self.groups.retain(|_, g| {
                let keep = !g.frames.is_empty() || g.parity.is_none();
                if !keep {
                    spare_frames.push(std::mem::take(&mut g.frames));
                }
                keep
            });
            self.spare_frames = spare_frames;
        }
    }
}

/// One frame of a generated stream: `(rung, index step, size, keyframe)`.
/// A step of 0 sends the next frame under the same index again; one size
/// in 31 is blown up twelvefold and one in 97 45-fold, past the 64 and 256
/// fragments a word and a fresh slot's bitmap hold.
type FrameSpec = (u8, u32, u32, bool);

/// What a server sends for `frames`: each frame packetized on its rung
/// into the FEC group open when it started, with `fec` > 0 one parity
/// packet after every `fec` data packets, with `fec` = 0 everything in
/// group 0 (a TCP stream); sequence numbers in send order. `high` starts
/// every rung's indices just short of `u32::MAX`, so they wrap.
fn stream(frames: &[FrameSpec], fec: usize, high: bool) -> Vec<MediaPacket> {
    let mut next_index = [if high { u32::MAX - 40 } else { 0 }; 3];
    let (mut out, mut group, mut fec_buf) = (Vec::new(), 0u32, Vec::new());
    for &(rung, step, size, key) in frames {
        let index = next_index[usize::from(rung)];
        next_index[usize::from(rung)] = index.wrapping_add(step);
        let pts = SimDuration::from_millis(u64::from(index % 100_000) * 100);
        let size = match size {
            s if s % 97 == 0 => s * 45,
            s if s % 31 == 0 => s * 12,
            s => s,
        };
        let frame = Frame {
            index,
            pts,
            size,
            key,
        };
        for pkt in packetize_frame(&frame, rung, group) {
            out.push(pkt);
            if fec > 0 {
                fec_buf.push(pkt);
                if fec_buf.len() >= fec {
                    out.push(parity_packet(group, &fec_buf));
                    fec_buf.clear();
                    group += 1;
                }
            }
        }
    }
    for (seq, pkt) in out.iter_mut().enumerate() {
        pkt.seq = seq as u32;
    }
    out
}

/// `pkt` bent by `r` into something no server sends: a fragment past its
/// frame's count, a frame claiming another fragment count, another rung,
/// a parity packet for a group never opened, or an index near the top.
fn hostile(mut pkt: MediaPacket, r: u32) -> MediaPacket {
    match r % 5 {
        0 => pkt.frag_index = pkt.frag_count.saturating_add((r >> 8) as u16 % 3),
        1 => pkt.frag_count = 1 + (r >> 8) as u16 % 4,
        2 => pkt.rung = (r >> 8) as u8 % 4,
        3 => {
            pkt.kind = PacketKind::Parity;
            pkt.group_id = r >> 3;
            pkt.frag_count = (r >> 8) as u16 % 9;
        }
        _ => pkt.frame_index = u32::MAX - (r >> 8) % 3,
    }
    pkt
}

/// The reference and two subjects fed the same packets: a fresh assembler
/// and a cleared one that played another stream first.
struct Trio {
    model: reference::Assembler,
    fresh: Assembler,
    warm: Assembler,
    yielded: HashSet<(u8, u32)>,
}

impl Trio {
    fn new(warm_up: &[MediaPacket]) -> Trio {
        let mut warm = Assembler::new();
        let mut sink = Vec::new();
        for (i, pkt) in warm_up.iter().enumerate() {
            warm.on_packet_into(SimTime::from_millis(i as u64), *pkt, &mut sink);
            if i % 16 == 0 {
                warm.expire_before(SimDuration::from_micros(pkt.pts_micros / 2));
            }
        }
        warm.renew();
        Trio {
            model: reference::Assembler::new(),
            fresh: Assembler::new(),
            warm,
            yielded: HashSet::new(),
        }
    }

    fn packet(&mut self, now: SimTime, pkt: MediaPacket) -> Result<(), String> {
        let mut want = Vec::new();
        self.model.on_packet_into(now, pkt, &mut want);
        for (name, subject) in [("fresh", &mut self.fresh), ("warm", &mut self.warm)] {
            let mut got: Vec<CompleteFrame> = Vec::new();
            subject.on_packet_into(now, pkt, &mut got);
            prop_assert_eq!(
                &got,
                &want,
                "{name} yielded {got:?}, the model {want:?} on {pkt:?}"
            );
        }
        for f in &want {
            let first = self.yielded.insert((f.rung, f.index));
            prop_assert!(first, "({}, {}) yielded twice", f.rung, f.index);
        }
        self.agree()
    }

    fn expire_before(&mut self, horizon: SimDuration) -> Result<(), String> {
        self.model.expire_before(horizon);
        self.fresh.expire_before(horizon);
        self.warm.expire_before(horizon);
        self.agree()
    }

    fn take_interval(&mut self) -> Result<(), String> {
        let (loss, bytes) = self.model.take_interval();
        let want = (loss.to_bits(), bytes);
        for subject in [&mut self.fresh, &mut self.warm] {
            let (loss, bytes) = subject.take_interval();
            prop_assert_eq!((loss.to_bits(), bytes), want);
        }
        self.agree()
    }

    fn agree(&self) -> Result<(), String> {
        let m = &self.model;
        let want = (m.stats(), m.pending_frames(), m.eos());
        for (name, s) in [("fresh", &self.fresh), ("warm", &self.warm)] {
            let got = (s.stats(), s.pending_frames(), s.eos());
            prop_assert_eq!(got, want, "{name}: {got:?}, the model {want:?}");
        }
        let stats = want.0;
        prop_assert!(
            stats.frames_recovered <= stats.frames_completed,
            "{stats:?}"
        );
        Ok(())
    }
}

proptest! {
    /// `ops` are `(op, r)`: 0–7 deliver the next packet, 8 loses it, 9
    /// delivers it twice, 10 swaps the next two, 11 redelivers an earlier
    /// packet, 12 expires partial frames behind the newest presentation
    /// time, 13 takes the receiver-report interval, 14 delivers a hostile
    /// packet, 15 an audio or end-of-stream one. What the ops leave is
    /// then delivered in order.
    #[test]
    fn assembler_matches_the_reference_model(
        frames in prop::collection::vec((0u8..3, 0u32..3, 1u32..9_000, any::<bool>()), 1..40),
        fec in 0usize..6,
        high in any::<bool>(),
        ops in prop::collection::vec((0u8..16, any::<u32>()), 0..300),
        warm_up in prop::collection::vec((0u8..3, 0u32..3, 1u32..9_000, any::<bool>()), 0..30),
    ) {
        let mut queue: std::collections::VecDeque<MediaPacket> = stream(&frames, fec, high).into();
        let mut warm_stream = stream(&warm_up, (fec + 3) % 6, high);
        warm_stream.reverse();
        let mut trio = Trio::new(&warm_stream);
        let mut sent: Vec<MediaPacket> = Vec::new();
        let mut newest = SimDuration::ZERO;
        let mut now = SimTime::ZERO;
        for (op, r) in ops {
            now += SimDuration::from_millis(u64::from(r % 40));
            match op {
                0..=7 | 9 => {
                    let Some(pkt) = queue.pop_front() else { continue };
                    newest = newest.max(SimDuration::from_micros(pkt.pts_micros));
                    trio.packet(now, pkt)?;
                    if op == 9 {
                        trio.packet(now, pkt)?;
                    }
                    sent.push(pkt);
                }
                8 => {
                    queue.pop_front();
                }
                10 if queue.len() >= 2 => queue.swap(0, 1),
                11 if !sent.is_empty() => {
                    let pkt = sent[r as usize % sent.len()];
                    trio.packet(now, pkt)?;
                }
                12 => {
                    let behind = SimDuration::from_millis(u64::from(r % 3_000));
                    trio.expire_before(newest.saturating_sub(behind))?;
                }
                13 => trio.take_interval()?,
                14 => {
                    let Some(&pkt) = queue.front().or(sent.last()) else { continue };
                    trio.packet(now, hostile(pkt, r))?;
                }
                15 => {
                    let Some(&pkt) = queue.front().or(sent.last()) else { continue };
                    let kind = if r % 7 == 0 { PacketKind::EndOfStream } else { PacketKind::Audio };
                    trio.packet(now, MediaPacket { kind, ..pkt })?;
                }
                _ => {}
            }
        }
        while let Some(pkt) = queue.pop_front() {
            now += SimDuration::from_millis(3);
            trio.packet(now, pkt)?;
        }
        trio.take_interval()?;
        trio.expire_before(SimDuration::MAX)?;
        prop_assert_eq!(trio.fresh.pending_frames(), 0);
    }
}
