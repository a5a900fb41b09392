//! # realvideo-core — public facade of the RealVideo reproduction
//!
//! Re-exports every layer of the system and provides [`figures`]: one
//! generator per figure of *An Empirical Study of RealVideo Performance
//! Across the Internet* (Wang, Claypool, Zuo — 2001). The `repro` binary
//! prints them:
//!
//! ```text
//! cargo run --release -p realvideo-core --bin repro -- all
//! cargo run --release -p realvideo-core --bin repro -- fig11 --scale 0.2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cli;
pub mod figures;
pub mod golden;

pub use figures::{all_figures, figure, gateway_figures, FigureOutput, FIGURE_IDS};

/// Clips, SureStream, packetization.
pub use rv_media as media;
/// The packet-level network.
pub use rv_net as net;
/// The buffered player.
pub use rv_player as player;
/// The RTSP control plane.
pub use rv_rtsp as rtsp;
/// The streaming server.
pub use rv_server as server;
/// The simulation kernel.
pub use rv_sim as sim;
/// CDFs, histograms, rendering.
pub use rv_stats as stats;
/// The world model and campaign.
pub use rv_study as study;
/// The instrumented client and metrics.
pub use rv_tracer as tracer;
/// TCP and UDP transports.
pub use rv_transport as transport;
