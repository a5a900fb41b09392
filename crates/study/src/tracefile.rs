//! Single-session flight recording: replays one planned session with the
//! [`rv_sim::trace`] recorder armed and returns the captured timeline.
//!
//! This is the engine behind `repro trace`. It runs strictly serially on
//! the calling thread (the recorder's sink is thread-local) and replays
//! the *exact* session the campaign would run: same plan, same derived
//! seed, same fault plan — so a trace is a faithful zoom-in on one row of
//! the campaign's output, not a reconstruction.

use rv_sim::trace::{self, TraceEvent, TraceRecord};
use rv_sim::{CounterSet, SimTime};
use rv_tracer::{DriverWork, SessionMetrics, WorldScratch};

use crate::campaign::StudyParams;
use crate::executor::run_job_with;
use crate::plan::plan_campaign;

/// One traced session: the event timeline plus the session's record-level
/// results, for cross-checking the trace against the campaign output.
#[derive(Debug)]
pub struct SessionTrace {
    /// Participant id the session was traced for.
    pub user_id: u32,
    /// Clip name requested.
    pub clip: String,
    /// Whether the planned attempt found the clip available. Unavailable
    /// attempts simulate nothing; their trace is begin/end only.
    pub available: bool,
    /// `true` when the traced job carried a non-empty fault plan.
    pub faulted: bool,
    /// The captured timeline, time-sorted.
    pub records: Vec<TraceRecord>,
    /// The session's measured statistics.
    pub metrics: SessionMetrics,
    /// The session's deterministic counters — identical to the values
    /// this session contributes to the campaign totals.
    pub counters: CounterSet,
    /// What the driver loop did to run the session: instants visited,
    /// how many of them only the network needed, settle-guard trips.
    pub driver: DriverWork,
}

impl SessionTrace {
    /// The timeline as JSONL, one event object per line.
    pub fn to_jsonl(&self) -> String {
        trace::to_jsonl(&self.records)
    }

    /// The timeline as a Chrome `trace_event` JSON document.
    pub fn to_chrome_trace(&self) -> String {
        trace::to_chrome_trace(&self.records)
    }
}

/// Why a trace request could not be satisfied. Carries the valid nearby
/// keys so the caller can print an actionable message instead of writing
/// an empty trace.
#[derive(Debug)]
pub enum TraceError {
    /// No participant has the requested id.
    UnknownUser {
        /// The id that was requested.
        requested: u32,
        /// Valid participant ids closest to the request.
        nearby: Vec<u32>,
    },
    /// The participant exists but never plays the requested clip.
    UnknownClip {
        /// The participant whose playlist was searched.
        user_id: u32,
        /// The clip name that was requested.
        requested: String,
        /// Clip names the participant actually plays, in play order.
        available: Vec<String>,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnknownUser { requested, nearby } => {
                write!(f, "no participant with id {requested}; nearby valid ids: ")?;
                for (i, id) in nearby.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{id}")?;
                }
                Ok(())
            }
            TraceError::UnknownClip {
                user_id,
                requested,
                available,
            } => {
                write!(
                    f,
                    "user {user_id} never plays \"{requested}\"; their clips: "
                )?;
                for (i, name) in available.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Replays the planned session `(user_id, clip)` under `params` with the
/// flight recorder armed and returns the captured timeline.
///
/// The campaign's worker count is irrelevant here — the session runs on
/// the calling thread, whose thread-local recorder captures it. An
/// unknown user or clip is a typed [`TraceError`] listing nearby valid
/// keys; no trace is produced.
pub fn trace_session(
    params: StudyParams,
    user_id: u32,
    clip: &str,
) -> Result<SessionTrace, TraceError> {
    let plan = plan_campaign(params);
    let Some(user_idx) = plan
        .population
        .participants
        .iter()
        .position(|u| u.id == user_id)
    else {
        // Closest valid ids by numeric distance, ties toward the smaller.
        let mut ids: Vec<u32> = plan.population.participants.iter().map(|u| u.id).collect();
        ids.sort_by_key(|id| (id.abs_diff(user_id), *id));
        ids.truncate(8);
        ids.sort_unstable();
        return Err(TraceError::UnknownUser {
            requested: user_id,
            nearby: ids,
        });
    };

    let jobs = plan.user_jobs(user_idx);
    let Some(job) = jobs
        .iter()
        .find(|j| plan.clip_names[j.playlist_slot].as_ref() == clip)
    else {
        let mut available: Vec<String> = Vec::new();
        for j in &jobs {
            let name = plan.clip_names[j.playlist_slot].as_ref();
            if !available.iter().any(|n| n == name) {
                available.push(name.to_string());
            }
        }
        return Err(TraceError::UnknownClip {
            user_id,
            requested: clip.to_string(),
            available,
        });
    };

    trace::start();
    trace::emit(SimTime::ZERO, || TraceEvent::SessionBegin {
        user: user_id,
        clip: clip.to_string(),
    });
    // The campaign's own job runner, so the trace is the exact session a
    // campaign would run at any replica count, fault plan or seed.
    let mut scratch = WorldScratch::default();
    let record = run_job_with(&plan, job, &mut scratch);
    if !job.available {
        // The clip was unavailable at request time: nothing simulated.
        trace::emit(SimTime::ZERO, || TraceEvent::SessionEnd {
            outcome: "unavailable",
        });
    }
    let records = trace::finish();

    Ok(SessionTrace {
        user_id,
        clip: clip.to_string(),
        available: job.available,
        faulted: !job.fault_plan.is_empty(),
        records,
        metrics: record.metrics,
        counters: record.counters,
        driver: scratch.work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_user_lists_nearby_ids() {
        let err = trace_session(StudyParams::quick(), 9_999, "whatever").unwrap_err();
        match err {
            TraceError::UnknownUser { requested, nearby } => {
                assert_eq!(requested, 9_999);
                assert!(!nearby.is_empty() && nearby.len() <= 8);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn unknown_clip_lists_the_users_playlist() {
        let params = StudyParams::quick();
        let plan = plan_campaign(params);
        let user_id = plan.population.participants[0].id;
        let err = trace_session(params, user_id, "no-such-clip.rm").unwrap_err();
        match err {
            TraceError::UnknownClip { available, .. } => {
                assert!(!available.is_empty());
                // The listed keys are themselves valid.
                let trace = trace_session(params, user_id, &available[0]).unwrap();
                assert_eq!(trace.user_id, user_id);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn traced_session_matches_the_campaign_record() {
        let params = StudyParams::quick();
        let plan = plan_campaign(params);
        let jobs = plan.user_jobs(0);
        let job = jobs.iter().find(|j| j.available).expect("available job");
        let clip = plan.clip_names[job.playlist_slot].to_string();
        let trace = trace_session(params, job.user_id, &clip).unwrap();
        // The trace replays the exact planned session.
        let record = run_job_with(&plan, job, &mut WorldScratch::default());
        assert_eq!(trace.metrics, record.metrics);
        assert_eq!(trace.counters, record.counters);
        // Begin and end frame the timeline. (End may not be the literal
        // last record: stacks settle at the finish instant after the
        // client is done, and the sort is stable within an instant.)
        assert_eq!(trace.records.first().unwrap().ev.name(), "session_begin");
        assert!(trace.records.iter().any(|r| r.ev.name() == "session_end"));
        // And the recorder is disarmed again.
        assert!(!rv_sim::trace::active());
    }
}
