//! Media packetization: application data units and their binary codec.
//!
//! Frames are fragmented into packets that fit a datagram; each packet
//! carries a 32-byte binary header plus (simulated) payload bytes. The
//! codec is exercised for real on both transports — UDP datagrams carry one
//! encoded packet each, TCP carries the same encoding back-to-back in the
//! byte stream — so the player's depacketizer must handle fragmentation,
//! reordering, and loss.
//!
//! Parity packets implement the paper's "special packets that correct
//! errors": one XOR-parity packet per group of data packets lets the
//! receiver reconstruct any single loss within the group.

use crate::frames::Frame;

/// Fixed header size of every media packet.
pub const MEDIA_HEADER_BYTES: usize = 32;
/// Maximum payload bytes per packet (fits a 1500-byte MTU with headers).
pub const MAX_PAYLOAD: usize = 1400;

const MAGIC: u16 = 0x5256; // "RV"
const VERSION: u8 = 1;

const FLAG_KEY: u8 = 0b0000_0001;
const FLAG_AUDIO: u8 = 0b0000_0010;
const FLAG_PARITY: u8 = 0b0000_0100;
const FLAG_EOS: u8 = 0b0000_1000;

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A fragment of a video frame.
    Video,
    /// A fragment of the audio track.
    Audio,
    /// XOR parity over the current FEC group.
    Parity,
    /// End-of-stream marker.
    EndOfStream,
}

/// A media application data unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaPacket {
    /// Payload classification.
    pub kind: PacketKind,
    /// `true` if part of a keyframe.
    pub key: bool,
    /// SureStream rung index the bytes were encoded at.
    pub rung: u8,
    /// Frame index (video), sequence number (audio), or group base (parity).
    pub frame_index: u32,
    /// Fragment number within the frame.
    pub frag_index: u16,
    /// Total fragments of the frame.
    pub frag_count: u16,
    /// Presentation timestamp, microseconds from clip start.
    pub pts_micros: u64,
    /// FEC group this packet belongs to (data) or covers (parity).
    pub group_id: u32,
    /// Transport-level sequence number: increments per packet sent on the
    /// session. The receiver detects loss from gaps (the basis of the
    /// receiver reports driving UDP rate control).
    pub seq: u32,
    /// Simulated payload length in bytes.
    pub payload_len: u16,
}

impl MediaPacket {
    /// Total wire bytes: header + payload.
    pub fn wire_len(&self) -> usize {
        MEDIA_HEADER_BYTES + usize::from(self.payload_len)
    }

    /// Serializes header + zero-filled payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Serializes header + zero-filled payload onto the end of `out`,
    /// reusing the caller's buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.wire_len(), 0);
        self.write_to(&mut out[start..]);
    }

    /// Writes header + zero-filled payload over `out`, which is exactly
    /// [`MediaPacket::wire_len`] bytes: the one wire writer, for callers
    /// that place many packets in one buffer (the server's pump writes a
    /// whole pump's packets into one pooled backing). Every byte is
    /// written, so whatever `out` held before cannot show through.
    pub fn write_to(&self, out: &mut [u8]) {
        let mut flags = 0u8;
        if self.key {
            flags |= FLAG_KEY;
        }
        match self.kind {
            PacketKind::Video => {}
            PacketKind::Audio => flags |= FLAG_AUDIO,
            PacketKind::Parity => flags |= FLAG_PARITY,
            PacketKind::EndOfStream => flags |= FLAG_EOS,
        }
        let (header, payload) = out.split_at_mut(MEDIA_HEADER_BYTES);
        header[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        header[2] = VERSION;
        header[3] = flags;
        header[4] = self.rung;
        header[5] = 0; // reserved
        header[6..10].copy_from_slice(&self.frame_index.to_be_bytes());
        header[10..12].copy_from_slice(&self.frag_index.to_be_bytes());
        header[12..14].copy_from_slice(&self.frag_count.to_be_bytes());
        header[14..22].copy_from_slice(&self.pts_micros.to_be_bytes());
        header[22..26].copy_from_slice(&self.group_id.to_be_bytes());
        header[26..30].copy_from_slice(&self.seq.to_be_bytes());
        header[30..32].copy_from_slice(&self.payload_len.to_be_bytes());
        debug_assert_eq!(payload.len(), usize::from(self.payload_len));
        payload.fill(0);
    }

    /// Decodes one packet from the front of `buf`. Returns the packet and
    /// the bytes consumed, `None` if the buffer is too short or malformed.
    pub fn decode(buf: &[u8]) -> Option<(MediaPacket, usize)> {
        if buf.len() < MEDIA_HEADER_BYTES {
            return None;
        }
        let magic = u16::from_be_bytes([buf[0], buf[1]]);
        if magic != MAGIC || buf[2] != VERSION {
            return None;
        }
        let flags = buf[3];
        let kind = if flags & FLAG_EOS != 0 {
            PacketKind::EndOfStream
        } else if flags & FLAG_PARITY != 0 {
            PacketKind::Parity
        } else if flags & FLAG_AUDIO != 0 {
            PacketKind::Audio
        } else {
            PacketKind::Video
        };
        let pkt = MediaPacket {
            kind,
            key: flags & FLAG_KEY != 0,
            rung: buf[4],
            frame_index: u32::from_be_bytes(buf[6..10].try_into().ok()?),
            frag_index: u16::from_be_bytes(buf[10..12].try_into().ok()?),
            frag_count: u16::from_be_bytes(buf[12..14].try_into().ok()?),
            pts_micros: u64::from_be_bytes(buf[14..22].try_into().ok()?),
            group_id: u32::from_be_bytes(buf[22..26].try_into().ok()?),
            seq: u32::from_be_bytes(buf[26..30].try_into().ok()?),
            payload_len: u16::from_be_bytes(buf[30..32].try_into().ok()?),
        };
        let total = pkt.wire_len();
        if buf.len() < total {
            return None;
        }
        Some((pkt, total))
    }
}

/// Splits a video frame into data packets at most [`MAX_PAYLOAD`] each.
pub fn packetize_frame(frame: &Frame, rung: u8, group_id: u32) -> Vec<MediaPacket> {
    let mut out = Vec::new();
    packetize_frame_into(frame, rung, group_id, &mut out);
    out
}

/// [`packetize_frame`] into a caller-owned buffer, so a streaming loop
/// can reuse one allocation across every frame it sends.
pub fn packetize_frame_into(frame: &Frame, rung: u8, group_id: u32, out: &mut Vec<MediaPacket>) {
    let size = frame.size.max(1) as usize;
    let frag_count = size.div_ceil(MAX_PAYLOAD).max(1) as u16;
    out.extend((0..frag_count).map(|frag_index| {
        let start = usize::from(frag_index) * MAX_PAYLOAD;
        let len = (size - start).min(MAX_PAYLOAD);
        MediaPacket {
            kind: PacketKind::Video,
            key: frame.key,
            rung,
            frame_index: frame.index,
            frag_index,
            frag_count,
            pts_micros: frame.pts.as_micros(),
            group_id,
            seq: 0, // assigned by the sender at transmission time
            payload_len: len as u16,
        }
    }));
}

/// Builds the parity packet covering `group` (any single lost member can be
/// reconstructed from the others plus this packet).
pub fn parity_packet(group_id: u32, group: &[MediaPacket]) -> MediaPacket {
    let max_len = group.iter().map(|p| p.payload_len).max().unwrap_or(0);
    MediaPacket {
        kind: PacketKind::Parity,
        key: false,
        rung: group.first().map(|p| p.rung).unwrap_or(0),
        frame_index: group.first().map(|p| p.frame_index).unwrap_or(0),
        frag_index: 0,
        frag_count: group.len() as u16,
        pts_micros: group.iter().map(|p| p.pts_micros).max().unwrap_or(0),
        group_id,
        seq: 0, // assigned by the sender at transmission time
        payload_len: max_len,
    }
}

/// An incremental depacketizer for the TCP byte stream.
///
/// Consumed bytes are tracked with a cursor rather than drained per
/// packet, so popping N packets walks the buffer once instead of
/// memmoving the tail N times.
#[derive(Debug, Default)]
pub struct StreamDepacketizer {
    buf: Vec<u8>,
    pos: usize,
}

impl StreamDepacketizer {
    /// An empty depacketizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 {
            // Compact a long-consumed prefix so a perpetually incomplete
            // tail cannot grow the buffer without bound.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete packet, if buffered.
    pub fn next_packet(&mut self) -> Option<MediaPacket> {
        let (pkt, used) = MediaPacket::decode(&self.buf[self.pos..])?;
        self.pos += used;
        Some(pkt)
    }

    /// Bytes buffered awaiting a complete packet.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns to [`StreamDepacketizer::new`]'s state, keeping the
    /// buffer's capacity: every buffered byte is dropped.
    pub fn renew(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// Bytes of buffer storage held.
    pub fn retained_bytes(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_sim::SimDuration;

    fn frame(index: u32, size: u32, key: bool) -> Frame {
        Frame {
            index,
            pts: SimDuration::from_millis(u64::from(index) * 100),
            size,
            key,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let pkt = MediaPacket {
            kind: PacketKind::Video,
            key: true,
            rung: 3,
            frame_index: 1234,
            frag_index: 2,
            frag_count: 5,
            pts_micros: 98_765_432,
            group_id: 77,
            seq: 31337,
            payload_len: 1400,
        };
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), 32 + 1400);
        let (got, used) = MediaPacket::decode(&bytes).unwrap();
        assert_eq!(got, pkt);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            PacketKind::Video,
            PacketKind::Audio,
            PacketKind::Parity,
            PacketKind::EndOfStream,
        ] {
            let pkt = MediaPacket {
                kind,
                key: false,
                rung: 0,
                frame_index: 1,
                frag_index: 0,
                frag_count: 1,
                pts_micros: 0,
                group_id: 0,
                seq: 0,
                payload_len: 10,
            };
            let (got, _) = MediaPacket::decode(&pkt.encode()).unwrap();
            assert_eq!(got.kind, kind);
        }
    }

    #[test]
    fn decode_rejects_bad_magic_and_truncation() {
        let pkt = MediaPacket {
            kind: PacketKind::Video,
            key: false,
            rung: 0,
            frame_index: 0,
            frag_index: 0,
            frag_count: 1,
            pts_micros: 0,
            group_id: 0,
            seq: 0,
            payload_len: 100,
        };
        let mut bytes = pkt.encode();
        assert!(MediaPacket::decode(&bytes[..31]).is_none()); // short header
        assert!(MediaPacket::decode(&bytes[..100]).is_none()); // short payload
        bytes[0] = 0xFF;
        assert!(MediaPacket::decode(&bytes).is_none()); // bad magic
    }

    #[test]
    fn small_frame_is_one_fragment() {
        let pkts = packetize_frame(&frame(5, 300, false), 1, 9);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].frag_count, 1);
        assert_eq!(pkts[0].payload_len, 300);
        assert_eq!(pkts[0].group_id, 9);
    }

    #[test]
    fn large_frame_fragments_and_sums() {
        let pkts = packetize_frame(&frame(5, 3500, true), 2, 0);
        assert_eq!(pkts.len(), 3);
        assert!(pkts.iter().all(|p| p.frag_count == 3 && p.key));
        let total: u32 = pkts.iter().map(|p| u32::from(p.payload_len)).sum();
        assert_eq!(total, 3500);
        assert_eq!(pkts[0].payload_len, 1400);
        assert_eq!(pkts[2].payload_len, 700);
    }

    #[test]
    fn parity_covers_group() {
        let group = packetize_frame(&frame(5, 3500, false), 0, 4);
        let parity = parity_packet(4, &group);
        assert_eq!(parity.kind, PacketKind::Parity);
        assert_eq!(parity.group_id, 4);
        assert_eq!(parity.frag_count, 3);
        assert_eq!(parity.payload_len, 1400);
    }

    #[test]
    fn stream_depacketizer_survives_segmentation() {
        let frames = [frame(0, 2000, true), frame(1, 500, false)];
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            for p in packetize_frame(f, 0, i as u32) {
                wire.extend(p.encode());
                expected.push(p);
            }
        }
        let mut depkt = StreamDepacketizer::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(7) {
            depkt.feed(chunk);
            while let Some(p) = depkt.next_packet() {
                got.push(p);
            }
        }
        assert_eq!(got, expected);
        assert_eq!(depkt.buffered(), 0);
    }
}
