//! # rv-rtsp — RTSP-like streaming control plane
//!
//! The control connection of a RealVideo session: a text-protocol
//! [`Message`] codec robust to arbitrary TCP segmentation ([`Decoder`]),
//! client/server [session state machines](`ClientSession`) with CSeq
//! bookkeeping, and the data-transport [negotiation](`negotiate`) whose
//! outcome the paper reports in Figure 16 (~56 % UDP / ~44 % TCP).
//!
//! PNA (Progressive Networks Audio), RealServer's legacy control protocol,
//! is modeled only as a [`ControlProtocol`] tag: the paper observed
//! essentially all sessions on RTSP, so PNA carries no distinct behavior.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod message;
mod session;
mod transport;

pub use message::{
    DecodeError, Decoder, Message, MessageView, Method, StartLine, Status, Writer, MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
};
pub use session::{
    ClientEvent, ClientSession, ClientState, OutOfOrder, ProtocolError, ServerHandler,
    ServerSession,
};
pub use transport::{
    negotiate, FirewallPolicy, NegotiationError, TransportKind, TransportPreference, TransportSpec,
};

/// Which control protocol a session speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlProtocol {
    /// RTSP (essentially all sessions in the 2001 study).
    Rtsp,
    /// PNA, RealServer's legacy protocol, retained for backward compat.
    Pna,
}
