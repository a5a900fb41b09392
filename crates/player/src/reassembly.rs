//! Frame reassembly, FEC recovery, and receive-side loss accounting.
//!
//! Media packets arrive fragmented, reordered (UDP), and with gaps; the
//! assembler reconstructs complete frames, applies the parity packets'
//! single-loss recovery, and keeps the sequence-gap statistics the player
//! reports back to the server's rate controller.
//!
//! Nothing here hashes and nothing here is freed: the frames awaiting
//! fragments and the FEC groups live in [`Slots`], sorted vectors whose
//! retired entries keep their storage for the next, and the frames already
//! yielded are runs of keys. [`Assembler::renew`] returns all of it to a
//! fresh assembler's state with its capacity, so a warm assembler
//! allocates nothing a session's traffic has not outgrown.

use rv_media::{MediaPacket, PacketKind};
use rv_sim::{SimDuration, SimTime};

/// A fully reassembled video frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteFrame {
    /// Encoder frame index.
    pub index: u32,
    /// SureStream rung it was encoded at.
    pub rung: u8,
    /// Presentation time.
    pub pts: SimDuration,
    /// Total frame bytes.
    pub size: u32,
    /// Keyframe flag.
    pub key: bool,
    /// When the last fragment (or FEC recovery) completed the frame.
    pub completed_at: SimTime,
}

/// Counters for the receive side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Data/audio/parity packets received.
    pub packets_received: u64,
    /// Estimated packets lost (sequence gaps).
    pub packets_lost: u64,
    /// Media payload bytes received.
    pub bytes_received: u64,
    /// Frames completed normally.
    pub frames_completed: u64,
    /// Frames completed only thanks to a parity packet.
    pub frames_recovered: u64,
    /// Audio packets received.
    pub audio_packets: u64,
}

/// `(rung, frame index)`: what identifies a frame.
type FrameKey = (u8, u32);

/// Room a frame or group slot is given the first time it is used, so that
/// which slot a frame lands in never decides whether storage grows: 256
/// fragments (a 358 KB frame), four FEC groups per frame (a server's
/// fragments of one frame share one), eight frames per group (a group is
/// eight data packets). Only traffic no server sends outgrows it.
const FRAGMENT_WORDS: usize = 4;
const GROUPS_PER_FRAME: usize = 4;
const FRAMES_PER_GROUP: usize = 8;

#[derive(Debug, Default)]
struct PartialFrame {
    /// Fragments received, one bit each.
    got: Vec<u64>,
    frag_count: u16,
    /// FEC groups this frame has fragments in (tiny: a fragment run spans
    /// at most a couple of groups), so completion can drop the frame from
    /// exactly those groups instead of scanning every group.
    member_of: Vec<u32>,
    received: u16,
    bytes: u32,
    pts: SimDuration,
    key: bool,
}

impl PartialFrame {
    /// Refills a retired frame's storage as the fresh partial frame of
    /// `pkt`: no fragment yet.
    fn start(&mut self, pkt: &MediaPacket) {
        self.got.clear();
        self.got.reserve(FRAGMENT_WORDS);
        self.got.resize(usize::from(pkt.frag_count).div_ceil(64), 0);
        self.frag_count = pkt.frag_count;
        self.member_of.clear();
        self.member_of.reserve(GROUPS_PER_FRAME);
        self.received = 0;
        self.bytes = 0;
        self.pts = SimDuration::from_micros(pkt.pts_micros);
        self.key = pkt.key;
    }

    /// Records fragment `idx`; `false` for a duplicate or one past the
    /// frame's count.
    fn receive(&mut self, idx: u16) -> bool {
        if idx >= self.frag_count {
            return false;
        }
        let (word, bit) = (usize::from(idx / 64), 1u64 << (idx % 64));
        if self.got[word] & bit != 0 {
            return false;
        }
        self.got[word] |= bit;
        self.received += 1;
        true
    }

    fn complete(&self) -> bool {
        self.received == self.frag_count
    }

    /// Whether exactly one fragment is missing.
    fn one_short(&self) -> bool {
        u32::from(self.received) + 1 == u32::from(self.frag_count)
    }
}

#[derive(Debug, Default)]
struct FecGroup {
    /// Data fragments received in the group. Wraps like the `u16` group
    /// size it is compared with (a TCP stream's one group counts every
    /// packet of the session).
    data_received: u16,
    parity: Option<u16>, // group size announced by the parity packet
    /// Size of the largest member fragment, from the parity packet: the
    /// best available estimate for a recovered fragment's size.
    parity_len: u16,
    /// Incomplete frames that have fragments in this group: a handful.
    frames: Vec<FrameKey>,
}

impl FecGroup {
    /// Refills a retired group's storage as a fresh group.
    fn start(&mut self) {
        self.data_received = 0;
        self.parity = None;
        self.parity_len = 0;
        self.frames.clear();
        self.frames.reserve(FRAMES_PER_GROUP);
    }

    fn forget(&mut self, key: FrameKey) {
        self.frames.retain(|k| *k != key);
    }
}

/// A small sorted map whose removed entries keep their storage: the live
/// entries are `entries[..live]` in key order, binary-searched; past them
/// lie retired values, handed to the next insertion for refilling. A
/// working set of a few dozen frames or groups costs a few shifts per
/// insert and no hashing, and once as many entries have been live at once
/// as will ever be, nothing allocates.
#[derive(Debug)]
struct Slots<K, V> {
    entries: Vec<(K, V)>,
    live: usize,
}

impl<K, V> Default for Slots<K, V> {
    fn default() -> Self {
        Slots {
            entries: Vec::new(),
            live: 0,
        }
    }
}

impl<K: Ord + Copy, V: Default> Slots<K, V> {
    fn len(&self) -> usize {
        self.live
    }

    fn find(&self, key: K) -> Result<usize, usize> {
        self.entries[..self.live].binary_search_by(|(k, _)| k.cmp(&key))
    }

    fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let at = self.find(key).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// The index of the live entry for `key`; absent, a retired value (or
    /// a new default one) refilled by `start` is inserted in order first.
    fn entry(&mut self, key: K, start: impl FnOnce(&mut V)) -> usize {
        match self.find(key) {
            Ok(at) => at,
            Err(at) => {
                if self.live == self.entries.len() {
                    self.entries.push((key, V::default()));
                }
                // The first retired slot moves into place.
                self.entries[at..=self.live].rotate_right(1);
                self.live += 1;
                self.entries[at].0 = key;
                start(&mut self.entries[at].1);
                at
            }
        }
    }

    /// Retires the live entry at `at`, returning its value — readable
    /// until the next insertion reuses it.
    fn remove(&mut self, at: usize) -> &mut V {
        self.entries[at..self.live].rotate_left(1);
        self.live -= 1;
        &mut self.entries[self.live].1
    }

    /// Retires every live entry `keep` refuses, keeping the rest in order.
    fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        let mut kept = 0;
        for at in 0..self.live {
            let (key, value) = &mut self.entries[at];
            if keep(*key, value) {
                self.entries.swap(kept, at);
                kept += 1;
            }
        }
        self.live = kept;
    }

    fn clear(&mut self) {
        self.live = 0;
    }
}

/// Every frame key already yielded, exactly, for any `u32` index: disjoint
/// half-open runs of [`Completed::key`], in order. Frames complete almost
/// in index order, so a run grows at its end and the runs number the gaps
/// between completed frames, never the size of an index.
#[derive(Debug, Default)]
struct Completed {
    runs: Vec<(u64, u64)>,
}

impl Completed {
    fn key((rung, index): FrameKey) -> u64 {
        (u64::from(rung) << 32) | u64::from(index)
    }

    fn contains(&self, frame: FrameKey) -> bool {
        let k = Self::key(frame);
        let at = self.runs.partition_point(|&(_, end)| end <= k);
        self.runs.get(at).is_some_and(|&(start, _)| start <= k)
    }

    /// Adds a key known to be absent.
    fn insert(&mut self, frame: FrameKey) {
        let k = Self::key(frame);
        // Runs before `at` end short of `k`; the run at `at`, if any, ends
        // exactly at `k` or (`k` being absent) starts past it.
        let at = self.runs.partition_point(|&(_, end)| end < k);
        match self.runs.get(at).copied() {
            Some((_, end)) if end == k => match self.runs.get(at + 1).copied() {
                Some((next, next_end)) if next == k + 1 => {
                    self.runs[at].1 = next_end;
                    self.runs.remove(at + 1);
                }
                _ => self.runs[at].1 = k + 1,
            },
            Some((start, _)) if start == k + 1 => self.runs[at].0 = k,
            _ => self.runs.insert(at, (k, k + 1)),
        }
    }
}

/// Reassembles frames from media packets.
#[derive(Debug)]
pub struct Assembler {
    partial: Slots<FrameKey, PartialFrame>,
    /// Frames already delivered; re-received fragments must not rebuild them.
    completed: Completed,
    groups: Slots<u32, FecGroup>,
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
            partial: Slots::default(),
            completed: Completed::default(),
            groups: Slots::default(),
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

    /// Returns to [`Assembler::new`]'s state — no frame, group, counter or
    /// interval survives — keeping the storage this one grew.
    pub fn renew(&mut self) {
        let mut partial = std::mem::take(&mut self.partial);
        let mut groups = std::mem::take(&mut self.groups);
        let mut completed = std::mem::take(&mut self.completed);
        partial.clear();
        groups.clear();
        completed.runs.clear();
        *self = Assembler {
            partial,
            completed,
            groups,
            ..Assembler::new()
        };
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
    pub fn on_packet_into(&mut self, now: SimTime, pkt: MediaPacket, out: &mut Vec<CompleteFrame>) {
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
        if self.completed.contains(key) {
            return; // duplicate of an already-delivered frame
        }
        let at = self.partial.entry(key, |p| p.start(&pkt));
        let entry = &mut self.partial.entries[at].1;
        if !entry.receive(pkt.frag_index) {
            return; // duplicate or malformed
        }
        entry.bytes += u32::from(pkt.payload_len);

        let g = self.groups.entry(pkt.group_id, FecGroup::start);
        let group = &mut self.groups.entries[g].1;
        group.data_received = group.data_received.wrapping_add(1);

        let entry = &mut self.partial.entries[at].1;
        if entry.complete() {
            let done = self.partial.remove(at);
            self.completed.insert(key);
            self.stats.frames_completed += 1;
            // The frame left the partial set; drop it from group tracking.
            for &gid in &done.member_of {
                if let Some(g) = self.groups.get_mut(gid) {
                    g.forget(key);
                }
            }
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
        let g = self.groups.entry(pkt.group_id, FecGroup::start);
        let group = &mut self.groups.entries[g].1;
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
        let Ok(g) = self.groups.find(group_id) else {
            return;
        };
        let group = &self.groups.entries[g].1;
        let Some(size) = group.parity else {
            return;
        };
        if group.data_received.wrapping_add(1) != size {
            return;
        }
        // Find the unique one-fragment-short frame touched by this group.
        let mut candidate = None;
        for &k in &group.frames {
            let at = self.partial.find(k).ok();
            if at.is_some_and(|at| self.partial.entries[at].1.one_short()) {
                if candidate.is_some() {
                    return; // ambiguous: more than one frame is short
                }
                candidate = at.map(|at| (k, at));
            }
        }
        let Some((key, at)) = candidate else {
            return;
        };
        let recovered_len = group.parity_len;
        let done = self.partial.remove(at);
        self.completed.insert(key);
        self.groups.remove(g);
        for &gid in &done.member_of {
            if let Some(g) = self.groups.get_mut(gid) {
                g.forget(key);
            }
        }
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
        let groups = &mut self.groups;
        self.partial.retain(|key, p| {
            if p.pts >= horizon {
                return true;
            }
            for &gid in &p.member_of {
                if let Some(g) = groups.get_mut(gid) {
                    g.forget(key);
                }
            }
            false
        });
        // Old FEC groups with no live frames can go too.
        self.groups
            .retain(|_, g| !g.frames.is_empty() || g.parity.is_none());
    }

    /// Bytes of storage held for frames, groups and completed runs —
    /// what a warm assembler carries into its next session.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let frames = self.partial.entries.iter().map(|(_, p)| {
            p.got.capacity() * size_of::<u64>() + p.member_of.capacity() * size_of::<u32>()
        });
        let groups = self
            .groups
            .entries
            .iter()
            .map(|(_, g)| g.frames.capacity() * size_of::<FrameKey>());
        self.partial.entries.capacity() * size_of::<(FrameKey, PartialFrame)>()
            + self.groups.entries.capacity() * size_of::<(u32, FecGroup)>()
            + self.completed.runs.capacity() * size_of::<(u64, u64)>()
            + frames.sum::<usize>()
            + groups.sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_media::{packetize_frame, parity_packet, Frame};

    fn frame(index: u32, size: u32) -> Frame {
        Frame {
            index,
            pts: SimDuration::from_millis(u64::from(index) * 100),
            size,
            key: index.is_multiple_of(10),
        }
    }

    fn seq_packets(frames: &[Frame], group: u32) -> Vec<MediaPacket> {
        let mut seq = 0;
        let mut out = Vec::new();
        for f in frames {
            for mut p in packetize_frame(f, 0, group) {
                p.seq = seq;
                seq += 1;
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn single_fragment_frame_completes_immediately() {
        let mut a = Assembler::new();
        let pkts = seq_packets(&[frame(0, 500)], 0);
        let done = a.on_packet(SimTime::from_millis(5), pkts[0]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].index, 0);
        assert_eq!(done[0].size, 500);
        assert!(done[0].key);
        assert_eq!(done[0].completed_at, SimTime::from_millis(5));
        assert_eq!(a.stats().frames_completed, 1);
    }

    #[test]
    fn multi_fragment_frame_waits_for_all() {
        let mut a = Assembler::new();
        let pkts = seq_packets(&[frame(1, 3000)], 0);
        assert_eq!(pkts.len(), 3);
        assert!(a.on_packet(SimTime::ZERO, pkts[0]).is_empty());
        assert!(a.on_packet(SimTime::ZERO, pkts[2]).is_empty());
        let done = a.on_packet(SimTime::from_millis(9), pkts[1]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].size, 3000);
        assert_eq!(a.pending_frames(), 0);
    }

    #[test]
    fn reordering_is_tolerated() {
        let mut a = Assembler::new();
        let mut pkts = seq_packets(&[frame(1, 2800), frame(2, 700)], 0);
        pkts.reverse();
        let mut done = Vec::new();
        for p in pkts {
            done.extend(a.on_packet(SimTime::ZERO, p));
        }
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn duplicates_ignored() {
        let mut a = Assembler::new();
        let pkts = seq_packets(&[frame(1, 500)], 0);
        assert_eq!(a.on_packet(SimTime::ZERO, pkts[0]).len(), 1);
        assert_eq!(a.on_packet(SimTime::ZERO, pkts[0]).len(), 0);
        assert_eq!(a.stats().frames_completed, 1);
    }

    #[test]
    fn fec_recovers_single_loss() {
        let mut a = Assembler::new();
        let f = frame(1, 3000); // 3 fragments
        let mut pkts = packetize_frame(&f, 0, 7);
        for (i, p) in pkts.iter_mut().enumerate() {
            p.seq = i as u32;
        }
        let mut parity = parity_packet(7, &pkts);
        parity.seq = 3;
        // Lose fragment 1.
        assert!(a.on_packet(SimTime::ZERO, pkts[0]).is_empty());
        assert!(a.on_packet(SimTime::ZERO, pkts[2]).is_empty());
        let done = a.on_packet(SimTime::from_millis(3), parity);
        assert_eq!(done.len(), 1, "parity should complete the frame");
        assert_eq!(a.stats().frames_recovered, 1);
        // Size approximates the original.
        assert!(
            done[0].size >= 2800 && done[0].size <= 3200,
            "size {}",
            done[0].size
        );
    }

    #[test]
    fn fec_cannot_recover_double_loss() {
        let mut a = Assembler::new();
        let f = frame(1, 4200); // 3 fragments
        let mut pkts = packetize_frame(&f, 0, 9);
        for (i, p) in pkts.iter_mut().enumerate() {
            p.seq = i as u32;
        }
        let mut parity = parity_packet(9, &pkts);
        parity.seq = 3;
        assert!(a.on_packet(SimTime::ZERO, pkts[0]).is_empty());
        assert!(a.on_packet(SimTime::ZERO, parity).is_empty());
        assert_eq!(a.stats().frames_recovered, 0);
    }

    #[test]
    fn loss_estimate_from_seq_gaps() {
        let mut a = Assembler::new();
        let frames: Vec<Frame> = (0..10).map(|i| frame(i, 500)).collect();
        let pkts = seq_packets(&frames, 0);
        // Drop packets 3 and 7.
        for (i, p) in pkts.iter().enumerate() {
            if i != 3 && i != 7 {
                a.on_packet(SimTime::ZERO, *p);
            }
        }
        assert_eq!(a.stats().packets_lost, 2);
        let (loss, bytes) = a.take_interval();
        assert!((loss - 0.2).abs() < 1e-9, "loss {loss}");
        assert!(bytes > 0);
        // Interval counters reset.
        let (loss2, bytes2) = a.take_interval();
        assert_eq!(loss2, 0.0);
        assert_eq!(bytes2, 0);
    }

    #[test]
    fn eos_flag() {
        let mut a = Assembler::new();
        let mut p = packetize_frame(&frame(0, 100), 0, 0)[0];
        p.kind = PacketKind::EndOfStream;
        a.on_packet(SimTime::ZERO, p);
        assert!(a.eos());
    }

    #[test]
    fn audio_counted_not_assembled() {
        let mut a = Assembler::new();
        let mut p = packetize_frame(&frame(0, 100), 0, 0)[0];
        p.kind = PacketKind::Audio;
        assert!(a.on_packet(SimTime::ZERO, p).is_empty());
        assert_eq!(a.stats().audio_packets, 1);
        assert_eq!(a.pending_frames(), 0);
    }

    #[test]
    fn expiry_drops_stale_partials() {
        let mut a = Assembler::new();
        let pkts = seq_packets(&[frame(1, 2800)], 0);
        a.on_packet(SimTime::ZERO, pkts[0]); // 1 of 2 fragments
        assert_eq!(a.pending_frames(), 1);
        a.expire_before(SimDuration::from_secs(10));
        assert_eq!(a.pending_frames(), 0);
    }

    #[test]
    fn completed_runs_are_exact_at_the_ends_of_the_index_space() {
        let mut c = Completed::default();
        for frame in [
            (0, u32::MAX),
            (1, 0),
            (0, 5),
            (0, 7),
            (0, 6),
            (255, u32::MAX),
        ] {
            assert!(!c.contains(frame), "{frame:?}");
            c.insert(frame);
            assert!(c.contains(frame), "{frame:?}");
        }
        // 5..=7 merged; the rung boundary is a contiguous key pair.
        assert_eq!(c.runs.len(), 3, "{:?}", c.runs);
        for absent in [(0, 4), (0, 8), (0, u32::MAX - 1), (1, 1), (254, u32::MAX)] {
            assert!(!c.contains(absent), "{absent:?}");
        }
    }

    #[test]
    fn a_hostile_frame_index_costs_one_run() {
        let mut a = Assembler::new();
        let mut p = packetize_frame(&frame(0, 100), 0, 0)[0];
        for index in [u32::MAX, 0, u32::MAX / 2] {
            p.frame_index = index;
            assert_eq!(a.on_packet(SimTime::ZERO, p).len(), 1);
        }
        assert_eq!(a.completed.runs.len(), 3);
        assert!(a.retained_bytes() < 4096, "{}", a.retained_bytes());
    }
}
