//! # rv-net — packet-level network simulator
//!
//! The substrate under the RealVideo reproduction: hosts and routers joined
//! by unidirectional [`Link`]s that serialize packets at a line rate
//! modulated by background cross traffic ([`CongestionProcess`]), queue in
//! bounded drop-tail FIFOs, and lose packets to both overflow and random
//! corruption. [`Network`] wires links into source-routed topologies;
//! [`NetBuilder`] constructs them declaratively with BFS routing.
//!
//! Everything is poll-based and deterministic: no wall clock, no threads,
//! every random draw from a forked [`rv_sim::SimRng`] stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congestion;
mod link;
mod network;
mod packet;
mod topology;

pub use congestion::{CongestionParams, CongestionProcess};
pub use link::{Link, LinkParams, LinkStats};
pub use network::{LinkId, Network, RouteError, RouteId};
pub use packet::{Addr, HostId, NodeId, Packet};
pub use topology::{BuildNode, NetBuilder, PrototypeCache, TopologyPrototype};
