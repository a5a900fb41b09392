//! # rv-media — the RealVideo media model
//!
//! Clips with SureStream multi-rate ladders ([`Clip`], [`SureStream`]), the
//! audio/video bandwidth split ([`Encoding`]), action-varying frame
//! schedules ([`FrameSchedule`]), and packetization with a binary codec and
//! XOR-parity FEC ([`MediaPacket`], [`parity_packet`]).
//!
//! The DESCRIBE body a server sends is produced by [`Clip::describe`] and
//! parsed back by [`Clip::parse_description`]; the player's depacketizers
//! ([`StreamDepacketizer`] for TCP, [`MediaPacket::decode`] per UDP
//! datagram) reconstruct frames on the far side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adu;
mod clip;
mod frames;

pub use adu::{
    packetize_frame, packetize_frame_into, parity_packet, MediaPacket, PacketKind,
    StreamDepacketizer, MAX_PAYLOAD, MEDIA_HEADER_BYTES,
};
pub use clip::{standard_rung, Clip, ContentKind, Encoding, SureStream};
pub use frames::{Frame, FrameSchedule, LazySchedule};
