//! # rv-transport — TCP and UDP over the simulated network
//!
//! RealSystem streamed video over either TCP or UDP, negotiated at session
//! setup; the paper's Figures 16–18 and 24 compare the two. This crate
//! provides both from scratch: a Reno [`TcpSocket`] with real congestion
//! control and loss recovery, a fire-and-forget [`UdpSocket`], and a
//! per-host [`Stack`] that demultiplexes inbound packets and pumps segments
//! through an [`rv_net::Network`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod segment;
mod stack;
mod tcp;
mod udp;

pub use segment::{
    Segment, TcpFlags, TcpSegment, UdpDatagram, DEFAULT_MSS, TCP_HEADER_BYTES, UDP_HEADER_BYTES,
};
pub use stack::{Stack, TcpHandle, UdpHandle};
pub use tcp::{TcpConfig, TcpError, TcpSocket, TcpState, TcpStats};
pub use udp::{UdpSocket, UdpStats};
