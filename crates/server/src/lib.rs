//! # rv-server — the RealServer equivalent
//!
//! Serves a clip [`Catalog`] over RTSP: transport negotiation, SureStream
//! rung selection and mid-stream switching, buffer-lead pacing,
//! scalable-video frame thinning, XOR-parity FEC on UDP, and a TFRC-like
//! [`TfrcController`] that keeps UDP streams responsive to congestion — the
//! mechanism behind the paper's observation (Figure 18) that RealVideo UDP
//! bandwidth tracks TCP bandwidth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod control;
mod pump;
mod ratecontrol;
mod schedules;
mod server;

pub use catalog::Catalog;
pub use control::REPORT_PARAM;
pub use ratecontrol::{ReceiverReport, TfrcConfig, TfrcController, TokenBucket};
pub use server::{RealServer, ServerConfig, ServerScratch, ServerStats};
