//! Transport-layer segments carried as `rv-net` packet payloads.
//!
//! Payloads are [`PayloadBytes`] — shared slices, not owned `Vec`s — so a
//! segment can window the sender's buffer without copying and survive
//! cloning through the network for free.

use rv_sim::PayloadBytes;

/// Header bytes added to every TCP segment (IP + TCP, no options).
pub const TCP_HEADER_BYTES: u32 = 40;
/// Header bytes added to every UDP datagram (IP + UDP).
pub const UDP_HEADER_BYTES: u32 = 28;
/// Default maximum segment size: Ethernet MTU minus headers.
pub const DEFAULT_MSS: u32 = 1460;

/// TCP control flags (the subset the simulator uses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Synchronize sequence numbers (connection open).
    pub syn: bool,
    /// Acknowledgment field is valid.
    pub ack: bool,
    /// Sender has finished sending (connection close).
    pub fin: bool,
    /// Abort the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// A bare ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// An initial SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// The SYN+ACK reply.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// A FIN, acknowledging what was received.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    /// A bare RST: an aborted connection, or a segment to a dead port.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

/// A TCP segment: sequence/ack numbers in byte space plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Cumulative acknowledgment: next byte expected from the peer.
    pub ack: u64,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window advertisement, in bytes.
    pub window: u32,
    /// Application payload: a shared slice of the sender's buffer.
    pub data: PayloadBytes,
}

impl TcpSegment {
    /// Sequence space this segment occupies (data bytes, +1 for SYN, +1 for FIN).
    pub fn seq_len(&self) -> u64 {
        self.data.len() as u64 + u64::from(self.flags.syn) + u64::from(self.flags.fin)
    }

    /// The sequence number following this segment.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.seq_len()
    }

    /// On-the-wire size in bytes.
    pub fn wire_size(&self) -> u32 {
        TCP_HEADER_BYTES + self.data.len() as u32
    }
}

/// A UDP datagram: just bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Application payload: a shared slice of the sender's buffer.
    pub data: PayloadBytes,
}

impl UdpDatagram {
    /// On-the-wire size in bytes.
    pub fn wire_size(&self) -> u32 {
        UDP_HEADER_BYTES + self.data.len() as u32
    }
}

/// The payload type the transport layer installs into `rv_net::Network`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
}

impl Segment {
    /// On-the-wire size in bytes (headers + payload).
    pub fn wire_size(&self) -> u32 {
        match self {
            Segment::Tcp(s) => s.wire_size(),
            Segment::Udp(d) => d.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut seg = TcpSegment {
            seq: 100,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 0,
            data: PayloadBytes::empty(),
        };
        assert_eq!(seg.seq_len(), 1);
        assert_eq!(seg.seq_end(), 101);
        seg.flags = TcpFlags::ACK;
        seg.data = vec![0u8; 10].into();
        assert_eq!(seg.seq_len(), 10);
        seg.flags.fin = true;
        assert_eq!(seg.seq_len(), 11);
    }

    #[test]
    fn wire_sizes_include_headers() {
        let t = TcpSegment {
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            data: vec![0u8; 100].into(),
        };
        assert_eq!(t.wire_size(), 140);
        let u = UdpDatagram {
            data: vec![0u8; 100].into(),
        };
        assert_eq!(u.wire_size(), 128);
        assert_eq!(Segment::Tcp(t).wire_size(), 140);
        assert_eq!(Segment::Udp(u).wire_size(), 128);
    }
}
