//! Session metrics: exactly the statistics RealTracer recorded per clip.
//!
//! The paper's definitions (Section V): measured frame rate is frames
//! played per second of playout; jitter is the standard deviation of
//! inter-frame playout times over the clip; bandwidth is the average
//! application receive rate.

use rv_player::{PlayoutEvent, PlayoutStats, ReassemblyStats};
use rv_rtsp::TransportKind;
use rv_sim::{SimDuration, SimTime};

/// How the session ended.
///
/// The taxonomy distinguishes every failure mode the resilient client can
/// observe, so the study's failure report can be broken down the way the
/// paper breaks down its unsuccessful-clip fraction (Section IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Played to the watch limit (or clip end) on the first attempt.
    Played,
    /// Played to the end, but only after recovering from faults: session
    /// retries, a UDP→TCP transport fallback, or both.
    PlayedDegraded {
        /// Full-session retry attempts that preceded the successful one.
        retries: u8,
        /// Rebuffer halts endured during the successful attempt.
        rebuffers: u8,
        /// Whether the client renegotiated UDP down to TCP mid-session.
        fell_back: bool,
    },
    /// The server reported the clip unavailable (404).
    Unavailable,
    /// RTSP was blocked by a firewall; the session never started.
    Blocked,
    /// Control-channel silence: connect or response timeouts exhausted the
    /// retry budget before playback ever started.
    TimedOut,
    /// The server refused the connection (RST to our SYN) — the process
    /// was down and stayed down through every retry, and no healthy
    /// replica remained for the gateway to offer.
    ServerDown,
    /// Every replica the gateway offered refused the SETUP at capacity
    /// (453 Not Enough Bandwidth): an admission rejection, not an outage
    /// — the cluster was up but full.
    Rejected,
    /// Data starvation after PLAY: the stream went silent and stayed
    /// silent past the stall limit, so the user gave up.
    Starved,
    /// An established session was torn down under the client (control or
    /// data connection reset mid-session) and retries could not revive it.
    Aborted,
    /// Some other protocol failure.
    Failed,
}

impl SessionOutcome {
    /// `true` for outcomes where the clip actually played to its end
    /// (possibly after retries or a transport fallback).
    pub fn is_played(self) -> bool {
        matches!(
            self,
            SessionOutcome::Played | SessionOutcome::PlayedDegraded { .. }
        )
    }

    /// Short stable label for reports and dumps.
    pub fn label(self) -> &'static str {
        match self {
            SessionOutcome::Played => "played",
            SessionOutcome::PlayedDegraded { .. } => "played-degraded",
            SessionOutcome::Unavailable => "unavailable",
            SessionOutcome::Blocked => "blocked",
            SessionOutcome::TimedOut => "timed-out",
            SessionOutcome::ServerDown => "server-down",
            SessionOutcome::Rejected => "rejected",
            SessionOutcome::Starved => "starved",
            SessionOutcome::Aborted => "aborted",
            SessionOutcome::Failed => "failed",
        }
    }
}

/// The per-clip statistics record RealTracer uploaded.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMetrics {
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// Data transport used.
    pub protocol: TransportKind,
    /// Encoded frame rate of the (final) stream rung.
    pub encoded_fps: f64,
    /// Encoded total bandwidth of the (final) rung, bits/second.
    pub encoded_bps: u32,
    /// Measured frame rate, frames/second of playout time.
    pub frame_rate: f64,
    /// Jitter: standard deviation of inter-frame playout gaps, ms
    /// (`None` with fewer than three played frames).
    pub jitter_ms: Option<f64>,
    /// Average receive bandwidth over the session, Kbits/second.
    pub bandwidth_kbps: f64,
    /// Frames played.
    pub frames_played: u64,
    /// Frames dropped (late + decode).
    pub frames_dropped: u64,
    /// Packets lost (sequence-gap estimate).
    pub packets_lost: u64,
    /// Frames rescued by FEC.
    pub frames_recovered: u64,
    /// Rebuffer halts.
    pub rebuffer_events: u64,
    /// Wall time spent halted.
    pub rebuffer_time: SimDuration,
    /// Startup delay: wall time from session start to first played frame.
    pub startup_delay: Option<SimDuration>,
    /// Fraction of wall time the (modeled) CPU spent decoding.
    pub cpu_utilization: f64,
    /// Wall duration from session start to finish.
    pub session_time: SimDuration,
    /// Replica that served the (final) attempt. Always 0 without a
    /// gateway; with one, the replica the session ended on.
    pub served_replica: u8,
    /// Wall time from the first crash-triggered gateway redirect to the
    /// first frame played afterwards — the failover recovery time. `None`
    /// when no failover happened (or playback never resumed).
    pub failover_recovery: Option<SimDuration>,
}

impl SessionMetrics {
    /// A record for a session that never produced data.
    pub fn failed(outcome: SessionOutcome, protocol: TransportKind) -> Self {
        SessionMetrics {
            outcome,
            protocol,
            encoded_fps: 0.0,
            encoded_bps: 0,
            frame_rate: 0.0,
            jitter_ms: None,
            bandwidth_kbps: 0.0,
            frames_played: 0,
            frames_dropped: 0,
            packets_lost: 0,
            frames_recovered: 0,
            rebuffer_events: 0,
            rebuffer_time: SimDuration::ZERO,
            startup_delay: None,
            cpu_utilization: 0.0,
            session_time: SimDuration::ZERO,
            served_replica: 0,
            failover_recovery: None,
        }
    }
}

/// Computes jitter: the standard deviation of inter-playout intervals, ms.
///
/// Returns `None` with fewer than three played frames (fewer than two
/// intervals — a standard deviation needs at least two samples).
///
/// Two passes over the gaps between played frames, nothing collected: the
/// first counts and sums them, the second sums their squared deviations —
/// the same `f64` operations in the same order as over a collected list.
pub fn jitter_ms(events: &[PlayoutEvent]) -> Option<f64> {
    let gaps = || {
        let played = || events.iter().filter_map(|e| e.played_at);
        let later = played().skip(1);
        played()
            .zip(later)
            .map(|(a, b): (SimTime, SimTime)| b.saturating_since(a).as_secs_f64() * 1e3)
    };
    let mut count = 0usize;
    let total = gaps().inspect(|_| count += 1).sum::<f64>();
    if count < 2 {
        return None;
    }
    let n = count as f64;
    let mean = total / n;
    let var = gaps().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
    Some(var.sqrt())
}

/// Assembles the full metrics record at session end.
#[allow(clippy::too_many_arguments)]
pub fn finalize(
    outcome: SessionOutcome,
    protocol: TransportKind,
    encoded_fps: f64,
    encoded_bps: u32,
    events: &[PlayoutEvent],
    playout: PlayoutStats,
    reassembly: ReassemblyStats,
    session_start: SimTime,
    session_end: SimTime,
) -> SessionMetrics {
    let session_time = session_end.saturating_since(session_start);
    let playout_time = playout
        .playback_started_at
        .map(|s| {
            session_end
                .saturating_since(s)
                .saturating_sub(playout.rebuffer_time)
        })
        .unwrap_or(SimDuration::ZERO);
    let frame_rate = if playout_time.is_zero() {
        0.0
    } else {
        playout.frames_played as f64 / playout_time.as_secs_f64()
    };
    let bandwidth_kbps = if session_time.is_zero() {
        0.0
    } else {
        reassembly.bytes_received as f64 * 8.0 / session_time.as_secs_f64() / 1e3
    };
    let first_play = events.iter().find_map(|e| e.played_at);
    SessionMetrics {
        outcome,
        protocol,
        encoded_fps,
        encoded_bps,
        frame_rate,
        jitter_ms: jitter_ms(events),
        bandwidth_kbps,
        frames_played: playout.frames_played,
        frames_dropped: playout.dropped_late + playout.dropped_decode,
        packets_lost: reassembly.packets_lost,
        frames_recovered: reassembly.frames_recovered,
        rebuffer_events: playout.rebuffer_events,
        rebuffer_time: playout.rebuffer_time,
        startup_delay: first_play.map(|t| t.saturating_since(session_start)),
        cpu_utilization: if session_time.is_zero() {
            0.0
        } else {
            (playout.decode_busy.as_secs_f64() / session_time.as_secs_f64()).min(1.0)
        },
        session_time,
        served_replica: 0,
        failover_recovery: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn played(at_ms: u64) -> PlayoutEvent {
        PlayoutEvent {
            frame_index: at_ms as u32,
            rung: 0,
            pts: SimDuration::from_millis(at_ms),
            played_at: Some(SimTime::from_millis(at_ms)),
            drop_reason: None,
        }
    }

    /// Every variant of the taxonomy, exactly once.
    fn all_outcomes() -> [SessionOutcome; 10] {
        [
            SessionOutcome::Played,
            SessionOutcome::PlayedDegraded {
                retries: 2,
                rebuffers: 1,
                fell_back: true,
            },
            SessionOutcome::Unavailable,
            SessionOutcome::Blocked,
            SessionOutcome::TimedOut,
            SessionOutcome::ServerDown,
            SessionOutcome::Rejected,
            SessionOutcome::Starved,
            SessionOutcome::Aborted,
            SessionOutcome::Failed,
        ]
    }

    #[test]
    fn outcome_labels_are_distinct_and_stable() {
        let outcomes = all_outcomes();
        let labels: std::collections::BTreeSet<&str> = outcomes.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), outcomes.len(), "labels must be unique");
        assert!(labels.contains("played"));
        assert!(labels.contains("played-degraded"));
        assert!(labels.contains("server-down"));
        // Labels feed dumps and reports: no whitespace, no uppercase.
        for l in labels {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{l}");
        }
    }

    #[test]
    fn only_played_variants_count_as_played() {
        for o in all_outcomes() {
            let expect = matches!(
                o,
                SessionOutcome::Played | SessionOutcome::PlayedDegraded { .. }
            );
            assert_eq!(o.is_played(), expect, "{o:?}");
        }
    }

    #[test]
    fn jitter_zero_for_perfectly_even_playout() {
        let events: Vec<PlayoutEvent> = (0..20).map(|i| played(i * 100)).collect();
        assert_eq!(jitter_ms(&events), Some(0.0));
    }

    #[test]
    fn jitter_none_for_too_few_frames() {
        assert_eq!(jitter_ms(&[]), None);
        assert_eq!(jitter_ms(&[played(0), played(100)]), None);
    }

    #[test]
    fn jitter_measures_variance() {
        // Gaps of 50 and 150 ms around a 100 ms mean → stddev 50 ms.
        let events = vec![played(0), played(50), played(200)];
        let j = jitter_ms(&events).unwrap();
        assert!((j - 50.0).abs() < 1e-9, "jitter {j}");
    }

    #[test]
    fn jitter_ignores_dropped_frames() {
        let mut events: Vec<PlayoutEvent> = (0..10).map(|i| played(i * 100)).collect();
        events.insert(
            5,
            PlayoutEvent {
                frame_index: 999,
                rung: 0,
                pts: SimDuration::from_millis(450),
                played_at: None,
                drop_reason: Some(rv_player::DropReason::Late),
            },
        );
        assert_eq!(jitter_ms(&events), Some(0.0));
    }

    #[test]
    fn finalize_computes_rates() {
        let events: Vec<PlayoutEvent> = (0..100).map(|i| played(10_000 + i * 100)).collect();
        let playout = PlayoutStats {
            frames_played: 100,
            playback_started_at: Some(SimTime::from_secs(10)),
            ..PlayoutStats::default()
        };
        let reassembly = ReassemblyStats {
            bytes_received: 75_000, // over 20 s → 30 kbps
            ..ReassemblyStats::default()
        };
        let m = finalize(
            SessionOutcome::Played,
            TransportKind::Udp,
            15.0,
            80_000,
            &events,
            playout,
            reassembly,
            SimTime::ZERO,
            SimTime::from_secs(20),
        );
        // 100 frames over 10 s of playout.
        assert!((m.frame_rate - 10.0).abs() < 1e-9);
        assert!((m.bandwidth_kbps - 30.0).abs() < 1e-9);
        assert_eq!(m.startup_delay, Some(SimDuration::from_secs(10)));
        assert_eq!(m.jitter_ms, Some(0.0));
    }

    #[test]
    fn finalize_handles_never_started() {
        let m = finalize(
            SessionOutcome::Played,
            TransportKind::Tcp,
            15.0,
            80_000,
            &[],
            PlayoutStats::default(),
            ReassemblyStats::default(),
            SimTime::ZERO,
            SimTime::from_secs(20),
        );
        assert_eq!(m.frame_rate, 0.0);
        assert_eq!(m.startup_delay, None);
    }

    #[test]
    fn rebuffer_time_excluded_from_playout_time() {
        let playout = PlayoutStats {
            frames_played: 50,
            playback_started_at: Some(SimTime::from_secs(10)),
            rebuffer_time: SimDuration::from_secs(5),
            rebuffer_events: 1,
            ..PlayoutStats::default()
        };
        let m = finalize(
            SessionOutcome::Played,
            TransportKind::Udp,
            15.0,
            80_000,
            &[],
            playout,
            ReassemblyStats::default(),
            SimTime::ZERO,
            SimTime::from_secs(20),
        );
        // 50 frames over (10 - 5) s.
        assert!((m.frame_rate - 10.0).abs() < 1e-9);
        assert_eq!(m.rebuffer_events, 1);
    }

    #[test]
    fn failed_record_is_empty() {
        let m = SessionMetrics::failed(SessionOutcome::Unavailable, TransportKind::Tcp);
        assert_eq!(m.outcome, SessionOutcome::Unavailable);
        assert_eq!(m.frames_played, 0);
        assert_eq!(m.jitter_ms, None);
    }
}
