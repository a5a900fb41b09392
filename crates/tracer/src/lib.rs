//! # rv-tracer — the RealTracer equivalent
//!
//! The instrumented client at the heart of the study: [`TracerClient`]
//! plays one clip end to end over the simulated network, recording the
//! statistics RealTracer recorded (frame rate, jitter, bandwidth,
//! transport, drops, rebuffers, CPU), summarized as [`SessionMetrics`].
//! The [`rate`] model produces the 0–10 user quality ratings of Section
//! V.C, and [`SessionWorld`] drives a complete server+network+client
//! world to completion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod faults;
mod harness;
mod metrics;
mod rating;

pub use client::{ClientConfig, ClientScratch, GatewayEndpoint, TracerClient};
pub use faults::{FaultInjector, FaultLinkMap};
pub use harness::{
    client_data_tcp_config, client_endpoint, ports, server_endpoint, two_host_world, DriverWork,
    SessionWorld, WorldScratch,
};
pub use metrics::{finalize, jitter_ms, SessionMetrics, SessionOutcome};
pub use rating::{rate, system_score, RaterProfile};
