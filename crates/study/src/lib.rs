//! # rv-study — the world model and campaign runner
//!
//! Everything the 2001 measurement study needed that was not software:
//! geography and the era's inter-region path quality ([`geography`]), the
//! 63-participant population with its connection/PC/firewall mix
//! ([`build_population`]), the eleven-server roster ([`server_roster`]),
//! the 98-clip playlist ([`build_playlist`]), per-session world
//! construction ([`build_session_world_gw`]), and the campaign runner that
//! replays the whole June 2001 study and yields the streaming
//! [`CampaignAggregates`] every figure is computed from. Campaigns run
//! in two phases: a pure plan pass ([`plan_campaign`]) fixes every
//! session as a [`SessionJob`] (lazily — plan memory is O(users)), and
//! [`fold`] runs them on one thread or many into a
//! [`CampaignAccumulator`] — bit-identically, whatever the worker count.
//! [`run_campaign`] keeps aggregates only (constant memory in session
//! count); [`run_campaign_with_records`] also retains the
//! [`SessionRecord`]s for dumps and equivalence tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulate;
mod campaign;
mod error;
mod executor;
mod gateway;
pub mod geography;
mod plan;
mod playlist;
mod population;
mod report;
mod servers;
mod tracefile;
mod worldbuild;

pub use accumulate::{
    bandwidth_bucket, CampaignAccumulator, CampaignAggregates, FailureTallies, OutcomeTally,
    QualityMoments, RecordSink, BANDWIDTH_BINS,
};
pub use campaign::{
    run_campaign, run_campaign_with_records, CampaignSummary, SessionRecord, StudyData, StudyParams,
};
pub use error::CampaignError;
pub use executor::{fold, gateway_spec, run_job_with, Fold, WorkerProfile};
pub use gateway::{replica_zone, route as gateway_route, GatewayPolicy, GatewaySpec};
pub use geography::{
    path_profile, server_region, user_region, zone, Country, PathProfile, ServerRegion, UserRegion,
    Zone,
};
pub use plan::{plan_campaign, CampaignPlan, SessionJob};
pub use playlist::{build_playlist, PlaylistEntry, PLAYLIST_LEN};
pub use population::{
    build_population, ConnectionClass, PcClass, Population, UserProfile, COUNTRY_TARGETS,
    US_STATE_WEIGHTS,
};
pub use report::{FailureBreakdown, FailureReport};
pub use servers::{server_roster, ServerSite};
pub use tracefile::{trace_session, SessionTrace, TraceError};
pub use worldbuild::build_session_world_gw;
