//! Streaming campaign accumulators: the constant-memory results path.
//!
//! A campaign at full scale simulates millions of sessions; retaining a
//! [`SessionRecord`] per session caps the study at whatever fits in RAM.
//! Every figure, report, and summary the study produces is an *aggregate*
//! — counts, stratified distributions, co-moments — so
//! [`fold`](crate::fold) folds each finished session into a
//! [`CampaignAccumulator`] and drops the record.
//! [`CampaignAggregates`] is the accumulator the study runs on;
//! [`RecordSink`] keeps the old retain-everything path available as an
//! opt-in debug sink.
//!
//! **Merge-order canonicalization.** Per-worker accumulators are merged
//! in worker-slot order after the join, but the guarantee is stronger
//! than that: every piece of state in [`CampaignAggregates`] is built
//! from order-independent primitives (integer counts in `BTreeMap`s,
//! [`QuantileSketch`]/[`FixedSum`]/[`CoMoments`] from `rv-stats`), so
//! *any* fold order and *any* merge order produce bit-identical
//! aggregates. `--jobs 1/4/8` agree byte for byte; `tests/aggregates.rs`
//! and the proptests in `rv-stats` enforce both halves.

use std::collections::BTreeMap;

use rv_rtsp::TransportKind;
use rv_sim::CounterSet;
use rv_stats::{CategoryCount, CoMoments, FixedSum, QuantileSketch};
use rv_tracer::SessionOutcome;

use crate::campaign::SessionRecord;
use crate::error::CampaignError;
use crate::geography::{ServerRegion, UserRegion};
use crate::plan::SessionJob;
use crate::population::{ConnectionClass, PcClass};

/// A fold target for the execute phase: observes each finished session,
/// then merges across workers.
///
/// Implementations must be order-independent: `observe` in any order
/// followed by `merge` in any order must yield identical state, because
/// self-scheduling workers make the fold order nondeterministic. Build
/// state from integer counts and the mergeable `rv-stats` primitives and
/// this holds by construction.
pub trait CampaignAccumulator: Default + Send {
    /// Folds one finished session into the accumulator.
    fn observe(&mut self, job: &SessionJob, record: &SessionRecord);

    /// Absorbs another accumulator (one worker's fold) into this one.
    fn merge(&mut self, other: Self);
}

/// Two accumulators fed side by side — e.g. aggregates plus an opt-in
/// record sink.
impl<A: CampaignAccumulator, B: CampaignAccumulator> CampaignAccumulator for (A, B) {
    fn observe(&mut self, job: &SessionJob, record: &SessionRecord) {
        self.0.observe(job, record);
        self.1.observe(job, record);
    }

    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

/// The retain-everything accumulator: collects `(plan index, record)`
/// pairs and restores canonical plan order at the end. O(sessions)
/// memory — the thing the streaming path exists to avoid — so it is
/// opt-in (`run_campaign_with_records`, `repro --dump-records`).
#[derive(Debug, Default)]
pub struct RecordSink {
    pairs: Vec<(usize, SessionRecord)>,
}

impl CampaignAccumulator for RecordSink {
    fn observe(&mut self, job: &SessionJob, record: &SessionRecord) {
        self.pairs.push((job.index, record.clone()));
    }

    fn merge(&mut self, other: Self) {
        self.pairs.extend(other.pairs);
    }
}

impl RecordSink {
    /// Sorts into canonical plan order and verifies every one of the
    /// plan's `expected` slots was filled exactly once.
    pub fn into_records(mut self, expected: usize) -> Result<Vec<SessionRecord>, CampaignError> {
        self.pairs.sort_by_key(|(index, _)| *index);
        for (slot, (index, _)) in self.pairs.iter().enumerate() {
            if *index != slot {
                return Err(CampaignError::MissingRecord { index: slot });
            }
        }
        if self.pairs.len() != expected {
            return Err(CampaignError::MissingRecord {
                index: self.pairs.len(),
            });
        }
        Ok(self.pairs.into_iter().map(|(_, r)| r).collect())
    }
}

/// Played / degraded / unsuccessful counts for one failure-report group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Attempts in the group.
    pub attempts: u64,
    /// Clean plays.
    pub played: u64,
    /// Plays that limped home (retries, rebuffer storms, TCP fallback).
    pub degraded: u64,
    /// Everything else.
    pub unsuccessful: u64,
}

impl OutcomeTally {
    fn observe(&mut self, r: &SessionRecord) {
        self.attempts += 1;
        if !r.played() {
            self.unsuccessful += 1;
        } else if r.metrics.outcome == SessionOutcome::Played {
            self.played += 1;
        } else {
            self.degraded += 1;
        }
    }

    fn merge(&mut self, other: &OutcomeTally) {
        self.attempts += other.attempts;
        self.played += other.played;
        self.degraded += other.degraded;
        self.unsuccessful += other.unsuccessful;
    }
}

/// Single-pass failure-taxonomy tallies: everything
/// [`FailureReport`](crate::FailureReport) needs, folded as sessions
/// finish instead of re-scanning a record vec afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureTallies {
    /// Count per outcome label.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Sessions that played only after at least one connection retry.
    pub retried: u64,
    /// Sessions that renegotiated UDP down to TCP mid-stream.
    pub fallbacks: u64,
    /// Per-server tallies, keyed by roster name.
    pub by_server: BTreeMap<&'static str, OutcomeTally>,
    /// Per-server-country tallies, keyed by the country's debug name.
    pub by_country: BTreeMap<&'static str, OutcomeTally>,
    /// Per-negotiated-transport tallies ("udp"/"tcp"); unavailable
    /// attempts never negotiated a transport and are excluded here.
    pub by_transport: BTreeMap<&'static str, OutcomeTally>,
}

impl FailureTallies {
    fn observe(&mut self, r: &SessionRecord) {
        *self.outcomes.entry(r.metrics.outcome.label()).or_insert(0) += 1;
        if let SessionOutcome::PlayedDegraded {
            retries, fell_back, ..
        } = r.metrics.outcome
        {
            self.retried += u64::from(retries > 0);
            self.fallbacks += u64::from(fell_back);
        }
        self.by_server.entry(r.server_name).or_default().observe(r);
        self.by_country
            .entry(r.server_country.ident())
            .or_default()
            .observe(r);
        if r.available {
            let proto = match r.metrics.protocol {
                TransportKind::Udp => "udp",
                TransportKind::Tcp => "tcp",
            };
            self.by_transport.entry(proto).or_default().observe(r);
        }
    }

    fn merge(&mut self, other: Self) {
        for (label, n) in other.outcomes {
            *self.outcomes.entry(label).or_insert(0) += n;
        }
        self.retried += other.retried;
        self.fallbacks += other.fallbacks;
        for (k, v) in other.by_server {
            self.by_server.entry(k).or_default().merge(&v);
        }
        for (k, v) in other.by_country {
            self.by_country.entry(k).or_default().merge(&v);
        }
        for (k, v) in other.by_transport {
            self.by_transport.entry(k).or_default().merge(&v);
        }
    }
}

/// Figure 28's state: bandwidth-vs-rating co-moments, the high-bandwidth
/// corner counts the paper highlights, and fixed bandwidth bins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityMoments {
    /// Bandwidth/rating co-moments over rated sessions.
    pub moments: CoMoments,
    /// Rated sessions above 250 kbps.
    pub high_bw: u64,
    /// ...of which rated ≤ 2 (the paper reports their absence).
    pub high_bw_low_rating: u64,
    /// Per-bin `(count, rating sum)` for [`BANDWIDTH_BINS`].
    pub bins: [(u64, FixedSum); BANDWIDTH_BINS.len()],
}

/// Figure 28's fixed bandwidth bins, kbps.
pub const BANDWIDTH_BINS: [(f64, f64); 5] = [
    (0.0, 50.0),
    (50.0, 100.0),
    (100.0, 200.0),
    (200.0, 350.0),
    (350.0, 600.0),
];

impl QualityMoments {
    fn observe(&mut self, bandwidth_kbps: f64, rating: u8) {
        let rating = f64::from(rating);
        self.moments.add(bandwidth_kbps, rating);
        if bandwidth_kbps > 250.0 {
            self.high_bw += 1;
            if rating <= 2.0 {
                self.high_bw_low_rating += 1;
            }
        }
        for (bin, (lo, hi)) in self.bins.iter_mut().zip(BANDWIDTH_BINS) {
            if bandwidth_kbps >= lo && bandwidth_kbps < hi {
                bin.0 += 1;
                bin.1.add(rating);
            }
        }
    }

    fn merge(&mut self, other: &QualityMoments) {
        self.moments.merge(&other.moments);
        self.high_bw += other.high_bw;
        self.high_bw_low_rating += other.high_bw_low_rating;
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.0 += theirs.0;
            mine.1.merge(&theirs.1);
        }
    }
}

/// Merges a map of sketches per stratum, key by key.
fn merge_sketch_map<K: Ord>(
    into: &mut BTreeMap<K, QuantileSketch>,
    from: BTreeMap<K, QuantileSketch>,
) {
    for (k, v) in from {
        match into.get_mut(&k) {
            Some(s) => s.merge(&v),
            None => {
                into.insert(k, v);
            }
        }
    }
}

fn sketch_add<K: Ord>(map: &mut BTreeMap<K, QuantileSketch>, key: K, x: f64) {
    map.entry(key).or_default().add(x);
}

/// Everything the study's figures, failure report, and summary need,
/// in bounded memory: the streaming replacement for `Vec<SessionRecord>`.
///
/// Composition tallies (per-user counts, category counts, the failure
/// taxonomy) are exact integers; continuous distributions (frame rate,
/// bandwidth, jitter, ratings) are [`QuantileSketch`]es with exact
/// count/mean/extrema and ~1 % relative quantile accuracy. State size is
/// O(users + strata × sketch buckets), independent of session count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignAggregates {
    /// Total clip-play attempts.
    pub total_attempts: u64,
    /// Attempts that found the clip unavailable.
    pub unavailable: u64,
    /// Sessions that streamed to a played outcome (incl. degraded).
    pub played: u64,
    /// Sessions carrying a rating.
    pub rated: u64,
    /// Sessions that ended `Blocked` (firewalled mid-study).
    pub blocked: u64,
    /// Total simulated time across sessions, exact integer microseconds.
    pub sim_time_micros: u128,
    /// Campaign-wide event counter totals: element-wise sums of every
    /// session's [`CounterSet`], so the merge law matches the rest of the
    /// aggregates and the totals are worker-count-independent.
    pub counters: CounterSet,

    /// Attempts per user (Figure 5). One entry per participant.
    pub plays_per_user: BTreeMap<u32, u64>,
    /// Rated clips per user (Figure 6). Users who rated nothing are
    /// present in `plays_per_user` and absent here.
    pub rated_per_user: BTreeMap<u32, u64>,
    /// Attempts per user country (Figure 7).
    pub user_countries: CategoryCount,
    /// Attempts per server country (Figure 8).
    pub server_countries: CategoryCount,
    /// Attempts per US state (Figure 9).
    pub us_states: CategoryCount,
    /// Attempts per server (Figure 10 denominator).
    pub attempts_by_server: CategoryCount,
    /// Unavailable attempts per server (Figure 10 numerator).
    pub unavailable_by_server: CategoryCount,
    /// Negotiated transport of played sessions, "UDP"/"TCP" (Figure 16).
    pub protocol_played: CategoryCount,

    /// Frame rate of played sessions (Figure 11).
    pub fps: QuantileSketch,
    /// Frame rate by connection class (Figure 12).
    pub fps_by_connection: BTreeMap<ConnectionClass, QuantileSketch>,
    /// Frame rate by server region (Figure 14).
    pub fps_by_server_region: BTreeMap<ServerRegion, QuantileSketch>,
    /// Frame rate by user region (Figure 15).
    pub fps_by_user_region: BTreeMap<UserRegion, QuantileSketch>,
    /// Frame rate by transport (Figure 17), keyed "TCP"/"UDP".
    pub fps_by_protocol: BTreeMap<&'static str, QuantileSketch>,
    /// Frame rate by PC class (Figure 19).
    pub fps_by_pc: BTreeMap<PcClass, QuantileSketch>,

    /// Bandwidth (kbps) by connection class (Figure 13).
    pub bw_by_connection: BTreeMap<ConnectionClass, QuantileSketch>,
    /// Bandwidth (kbps) by transport (Figure 18).
    pub bw_by_protocol: BTreeMap<&'static str, QuantileSketch>,

    /// Jitter (ms) of played sessions that measured one (Figure 20).
    pub jitter: QuantileSketch,
    /// Jitter by connection class (Figure 21).
    pub jitter_by_connection: BTreeMap<ConnectionClass, QuantileSketch>,
    /// Jitter by server region (Figure 22).
    pub jitter_by_server_region: BTreeMap<ServerRegion, QuantileSketch>,
    /// Jitter by user region (Figure 23).
    pub jitter_by_user_region: BTreeMap<UserRegion, QuantileSketch>,
    /// Jitter by transport (Figure 24).
    pub jitter_by_protocol: BTreeMap<&'static str, QuantileSketch>,
    /// Jitter by observed-bandwidth bucket (Figure 25): 0 = <10 kbps,
    /// 1 = 10–100, 2 = >100.
    pub jitter_by_bw_bucket: BTreeMap<u8, QuantileSketch>,

    /// Ratings of rated sessions (Figure 26).
    pub ratings: QuantileSketch,
    /// Ratings by connection class (Figure 27).
    pub ratings_by_connection: BTreeMap<ConnectionClass, QuantileSketch>,
    /// Figure 28's bandwidth-vs-rating state.
    pub quality: QualityMoments,

    /// Played sessions per serving replica (gateway tier). The classic
    /// single-server study puts everything under replica 0.
    pub replica_sessions: BTreeMap<u8, u64>,
    /// Failover recovery time (ms): first media packet after a
    /// crash-driven gateway redirect. Empty without faulted clusters.
    pub failover_recovery: QuantileSketch,

    /// Single-pass failure-report tallies.
    pub failures: FailureTallies,
}

impl CampaignAggregates {
    /// Rated clips for `user` (zero when they rated nothing).
    pub fn rated_by(&self, user: u32) -> u64 {
        self.rated_per_user.get(&user).copied().unwrap_or(0)
    }

    /// Total simulated seconds across all sessions.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_time_micros as f64 / 1e6
    }
}

/// Figure 25's observed-bandwidth bucket of a played session.
pub fn bandwidth_bucket(kbps: f64) -> u8 {
    if kbps < 10.0 {
        0
    } else if kbps <= 100.0 {
        1
    } else {
        2
    }
}

impl CampaignAccumulator for CampaignAggregates {
    fn observe(&mut self, _job: &SessionJob, r: &SessionRecord) {
        self.total_attempts += 1;
        *self.plays_per_user.entry(r.user_id).or_insert(0) += 1;
        self.user_countries.add(r.user_country.name());
        self.server_countries.add(r.server_country.name());
        if let Some(state) = r.user_state {
            self.us_states.add(state);
        }
        self.attempts_by_server.add(r.server_name);
        if !r.available {
            self.unavailable += 1;
            self.unavailable_by_server.add(r.server_name);
        }
        if r.metrics.outcome == SessionOutcome::Blocked {
            self.blocked += 1;
        }
        self.sim_time_micros += u128::from(r.metrics.session_time.as_micros());
        self.counters.merge(&r.counters);
        self.failures.observe(r);

        if !r.played() {
            return;
        }
        self.played += 1;
        let m = &r.metrics;
        *self.replica_sessions.entry(m.served_replica).or_insert(0) += 1;
        if let Some(rec) = m.failover_recovery {
            self.failover_recovery.add(rec.as_micros() as f64 / 1000.0);
        }
        let proto = match m.protocol {
            TransportKind::Udp => "UDP",
            TransportKind::Tcp => "TCP",
        };
        self.protocol_played.add(proto);

        self.fps.add(m.frame_rate);
        sketch_add(&mut self.fps_by_connection, r.connection, m.frame_rate);
        sketch_add(
            &mut self.fps_by_server_region,
            r.server_region,
            m.frame_rate,
        );
        sketch_add(&mut self.fps_by_user_region, r.user_region, m.frame_rate);
        sketch_add(&mut self.fps_by_protocol, proto, m.frame_rate);
        sketch_add(&mut self.fps_by_pc, r.pc, m.frame_rate);

        sketch_add(&mut self.bw_by_connection, r.connection, m.bandwidth_kbps);
        sketch_add(&mut self.bw_by_protocol, proto, m.bandwidth_kbps);

        if let Some(jitter) = m.jitter_ms {
            self.jitter.add(jitter);
            sketch_add(&mut self.jitter_by_connection, r.connection, jitter);
            sketch_add(&mut self.jitter_by_server_region, r.server_region, jitter);
            sketch_add(&mut self.jitter_by_user_region, r.user_region, jitter);
            sketch_add(&mut self.jitter_by_protocol, proto, jitter);
            sketch_add(
                &mut self.jitter_by_bw_bucket,
                bandwidth_bucket(m.bandwidth_kbps),
                jitter,
            );
        }

        if let Some(rating) = r.rating {
            self.rated += 1;
            *self.rated_per_user.entry(r.user_id).or_insert(0) += 1;
            self.ratings.add(f64::from(rating));
            sketch_add(
                &mut self.ratings_by_connection,
                r.connection,
                f64::from(rating),
            );
            self.quality.observe(m.bandwidth_kbps, rating);
        }
    }

    fn merge(&mut self, other: Self) {
        self.total_attempts += other.total_attempts;
        self.unavailable += other.unavailable;
        self.played += other.played;
        self.rated += other.rated;
        self.blocked += other.blocked;
        self.sim_time_micros += other.sim_time_micros;
        self.counters.merge(&other.counters);

        for (user, n) in other.plays_per_user {
            *self.plays_per_user.entry(user).or_insert(0) += n;
        }
        for (user, n) in other.rated_per_user {
            *self.rated_per_user.entry(user).or_insert(0) += n;
        }
        self.user_countries.merge(&other.user_countries);
        self.server_countries.merge(&other.server_countries);
        self.us_states.merge(&other.us_states);
        self.attempts_by_server.merge(&other.attempts_by_server);
        self.unavailable_by_server
            .merge(&other.unavailable_by_server);
        self.protocol_played.merge(&other.protocol_played);

        self.fps.merge(&other.fps);
        merge_sketch_map(&mut self.fps_by_connection, other.fps_by_connection);
        merge_sketch_map(&mut self.fps_by_server_region, other.fps_by_server_region);
        merge_sketch_map(&mut self.fps_by_user_region, other.fps_by_user_region);
        merge_sketch_map(&mut self.fps_by_protocol, other.fps_by_protocol);
        merge_sketch_map(&mut self.fps_by_pc, other.fps_by_pc);

        merge_sketch_map(&mut self.bw_by_connection, other.bw_by_connection);
        merge_sketch_map(&mut self.bw_by_protocol, other.bw_by_protocol);

        self.jitter.merge(&other.jitter);
        merge_sketch_map(&mut self.jitter_by_connection, other.jitter_by_connection);
        merge_sketch_map(
            &mut self.jitter_by_server_region,
            other.jitter_by_server_region,
        );
        merge_sketch_map(&mut self.jitter_by_user_region, other.jitter_by_user_region);
        merge_sketch_map(&mut self.jitter_by_protocol, other.jitter_by_protocol);
        merge_sketch_map(&mut self.jitter_by_bw_bucket, other.jitter_by_bw_bucket);

        self.ratings.merge(&other.ratings);
        merge_sketch_map(&mut self.ratings_by_connection, other.ratings_by_connection);
        self.quality.merge(&other.quality);

        for (replica, n) in other.replica_sessions {
            *self.replica_sessions.entry(replica).or_insert(0) += n;
        }
        self.failover_recovery.merge(&other.failover_recovery);

        self.failures.merge(other.failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::StudyParams;
    use crate::executor::run_job_with;
    use crate::plan::plan_campaign;

    #[test]
    fn record_sink_names_the_missing_or_duplicated_slot() {
        let plan = plan_campaign(StudyParams {
            scale: 0.002,
            ..StudyParams::default()
        });
        // Three unavailable attempts: records without simulating anything.
        let jobs: Vec<SessionJob> = plan
            .collect_jobs()
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(index, job)| SessionJob {
                index,
                available: false,
                ..job
            })
            .collect();
        let sink_of = |slots: &[usize]| {
            let mut sink = RecordSink::default();
            for &slot in slots {
                let record = run_job_with(&plan, &jobs[slot], &mut Default::default());
                sink.observe(&jobs[slot], &record);
            }
            sink
        };
        let missing = |index| Err(CampaignError::MissingRecord { index });

        // Any observe order restores plan order.
        let records = sink_of(&[2, 0, 1]).into_records(3).unwrap();
        let users: Vec<u32> = records.iter().map(|r| r.user_id).collect();
        assert_eq!(users, jobs.iter().map(|j| j.user_id).collect::<Vec<_>>());

        // A hole in the middle, a short tail, a slot filled twice and a
        // record beyond the plan each name the first slot that is wrong.
        assert_eq!(sink_of(&[0, 2]).into_records(3).map(drop), missing(1));
        assert_eq!(sink_of(&[0, 1]).into_records(3).map(drop), missing(2));
        assert_eq!(sink_of(&[0, 1, 1, 2]).into_records(3).map(drop), missing(2));
        assert_eq!(sink_of(&[0, 1, 2]).into_records(2).map(drop), missing(3));
        assert_eq!(RecordSink::default().into_records(0).map(drop), Ok(()));
    }
}
