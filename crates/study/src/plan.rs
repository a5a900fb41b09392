//! The plan phase: materializes a campaign as data before any packet flies.
//!
//! A [`CampaignPlan`] is a pure function of [`StudyParams`]: a serial pass
//! over the population that fixes, for every clip-play attempt, the
//! user/server/clip strata, the availability verdict, the rating-slot
//! assignment, and a self-contained session seed. Because each of those is
//! derived from `(seed, label, job key)` via [`SimRng::derive`] rather
//! than drawn from a shared mutated generator, the plan — and therefore
//! the campaign's output — is independent of the order in which jobs are
//! later executed. That is the property that lets the execute phase run
//! on any number of threads and still produce bit-identical results.
//!
//! Plans are also *prefix-stable across scale*: a job's availability and
//! seed depend only on `(seed, user id, clip sequence number)`, so a
//! scaled-down campaign (`scale < 1`) plans, for every user, an exact
//! prefix of the jobs the full campaign would plan for that user.
//!
//! The same derive-by-key property makes the plan *lazy*: because a job
//! is a pure function of `(params, user, clip_seq)`, the plan stores only
//! per-user job counts (a prefix-sum table) and regenerates each user's
//! jobs on demand via [`CampaignPlan::user_jobs`]. Plan memory is
//! O(users), not O(sessions) — at `--scale 100` the old materialized
//! job vector alone would dwarf the streaming aggregates it feeds.

use std::sync::Arc;

use rv_sim::{FaultPlan, SimRng, SimTime};

use crate::campaign::StudyParams;
use crate::playlist::{build_playlist, PlaylistEntry};
use crate::population::{build_population, Population};
use crate::servers::{server_roster, ServerSite};

/// One planned clip-play attempt: everything the execute phase needs to
/// simulate the session, with no shared mutable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionJob {
    /// Canonical position in plan order; records are reassembled by it.
    pub index: usize,
    /// Index into [`CampaignPlan::population`]'s participants.
    pub user: usize,
    /// The participant's stable id (also part of the seed derivation key).
    pub user_id: u32,
    /// Position of this attempt in the user's personal play sequence,
    /// starting at 0. Scale-independent, unlike `index`.
    pub clip_seq: u32,
    /// Index into [`CampaignPlan::playlist`].
    pub playlist_slot: usize,
    /// Index into [`CampaignPlan::roster`].
    pub server: usize,
    /// Availability verdict (Figure 10), fixed at plan time from this
    /// job's own derived stream.
    pub available: bool,
    /// Whether this attempt occupies one of the user's rating slots
    /// (the first `clips_to_rate` *available* attempts). The executor
    /// rates it only if the session actually plays.
    pub rating_slot: bool,
    /// Self-contained seed for the session world.
    pub session_seed: u64,
    /// The trouble scripted for this session: outages, bursts, crashes,
    /// a black-holed UDP path. Empty whenever [`StudyParams::faults`] is
    /// off, and derived from this job's own fault stream otherwise, so
    /// the faults a session suffers are independent of execution order.
    pub fault_plan: FaultPlan,
}

impl SessionJob {
    /// The derivation key for this job's RNG streams: user id in the high
    /// half, play-sequence number in the low half. `clip_seq` is bounded
    /// by the playlist-walk length (≤ a few thousand), so keys never
    /// collide across users.
    pub fn stream_key(user_id: u32, clip_seq: u32) -> u64 {
        (u64::from(user_id) << 32) | u64::from(clip_seq)
    }
}

/// A campaign ready to execute: the world model plus a lazy job table.
///
/// Jobs are not stored; only the per-user prefix-sum offsets are. Workers
/// regenerate each user's jobs on demand ([`CampaignPlan::user_jobs`]),
/// which keeps plan memory independent of session count.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The parameters the plan was built from.
    pub params: StudyParams,
    /// The eleven-server roster.
    pub roster: Vec<ServerSite>,
    /// Participants and exclusions.
    pub population: Population,
    /// The 98-clip playlist.
    pub playlist: Vec<PlaylistEntry>,
    /// Interned clip names, one per playlist slot: records share these
    /// instead of cloning a `String` per session.
    pub clip_names: Vec<Arc<str>>,
    /// `job_offsets[u]` is the canonical plan index of participant `u`'s
    /// first job; the final entry is the campaign's total job count.
    job_offsets: Vec<usize>,
}

impl CampaignPlan {
    /// Total clip-play attempts the campaign will run.
    pub fn total_jobs(&self) -> usize {
        *self.job_offsets.last().expect("offsets never empty")
    }

    /// Number of participants with planned jobs.
    pub fn num_users(&self) -> usize {
        self.job_offsets.len() - 1
    }

    /// Regenerates participant `user_idx`'s jobs, in play order. Pure:
    /// every call returns bit-identical jobs, and the concatenation over
    /// users in index order is the canonical plan order.
    pub fn user_jobs(&self, user_idx: usize) -> Vec<SessionJob> {
        let user = &self.population.participants[user_idx];
        let base = self.job_offsets[user_idx];
        let fault_horizon = self.params.session_deadline.saturating_since(SimTime::ZERO);
        let offset = (user.id as usize * 7) % self.playlist.len();
        let mut rating_slots_left = user.clips_to_rate;
        let mut jobs = Vec::with_capacity(user.clips_to_play as usize);
        for clip_seq in 0..user.clips_to_play {
            let playlist_slot = (offset + clip_seq as usize) % self.playlist.len();
            let entry = &self.playlist[playlist_slot];
            let site = &self.roster[entry.server];
            let key = SessionJob::stream_key(user.id, clip_seq);
            // The availability draw comes from this job's own stream, not
            // a shared generator, so verdicts are order- and
            // scale-independent.
            let mut availability_rng = SimRng::derive(self.params.seed, "availability", key);
            let available = !site.clip_unavailable(&mut availability_rng);
            let rating_slot = available && rating_slots_left > 0;
            if rating_slot {
                rating_slots_left -= 1;
            }
            let mut fault_plan = FaultPlan::generate(
                &self.params.faults,
                SimRng::derive_seed(self.params.seed, "faults", key),
                fault_horizon,
            );
            // With a replica cluster, crashes spread across replicas from
            // this job's own gateway-crash stream — the fault stream above
            // is untouched, so the crash *schedule* matches replicas=1.
            if self.params.replicas > 1 {
                fault_plan.retarget_crashes(
                    self.params.replicas,
                    SimRng::derive_seed(self.params.seed, "gateway-crash", key),
                );
            }
            jobs.push(SessionJob {
                index: base + clip_seq as usize,
                user: user_idx,
                user_id: user.id,
                clip_seq,
                playlist_slot,
                server: entry.server,
                available,
                rating_slot,
                session_seed: SimRng::derive_seed(self.params.seed, "session", key),
                fault_plan,
            });
        }
        jobs
    }

    /// Materializes every job in canonical plan order. O(sessions)
    /// memory — for tests and small runs; `fold` never calls it.
    pub fn collect_jobs(&self) -> Vec<SessionJob> {
        (0..self.num_users())
            .flat_map(|u| self.user_jobs(u))
            .collect()
    }
}

/// Plans a campaign. Pure and serial: same `params`, same plan, bit for
/// bit — and cheap, since nothing is simulated and no jobs are stored.
pub fn plan_campaign(params: StudyParams) -> CampaignPlan {
    let mut rng = SimRng::seed_from_u64(params.seed);
    let roster = server_roster();
    let population = build_population(&mut rng.fork(1), params.scale);
    let playlist = build_playlist(&roster, &mut rng.fork(2));
    let clip_names: Vec<Arc<str>> = playlist
        .iter()
        .map(|e| Arc::from(e.clip.name.as_str()))
        .collect();

    let mut job_offsets = Vec::with_capacity(population.participants.len() + 1);
    job_offsets.push(0);
    let mut total = 0usize;
    for user in &population.participants {
        total += user.clips_to_play as usize;
        job_offsets.push(total);
    }

    CampaignPlan {
        params,
        roster,
        population,
        playlist,
        clip_names,
        job_offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn full_scale() -> CampaignPlan {
        plan_campaign(StudyParams::default())
    }

    #[test]
    fn same_seed_identical_plan() {
        let a = plan_campaign(StudyParams::quick());
        let b = plan_campaign(StudyParams::quick());
        assert_eq!(a.collect_jobs(), b.collect_jobs());
        assert_eq!(a.clip_names, b.clip_names);
    }

    #[test]
    fn different_seeds_differ() {
        let a = plan_campaign(StudyParams::quick());
        let b = plan_campaign(StudyParams {
            seed: 7,
            ..StudyParams::quick()
        });
        assert_ne!(a.collect_jobs(), b.collect_jobs());
    }

    #[test]
    fn lazy_regeneration_is_stable_and_consistent() {
        let plan = plan_campaign(StudyParams::quick());
        // Regenerating a user's jobs is pure...
        for u in [0usize, 7, 31, 62] {
            assert_eq!(plan.user_jobs(u), plan.user_jobs(u));
        }
        // ...and the concatenation is dense in plan order.
        let jobs = plan.collect_jobs();
        assert_eq!(jobs.len(), plan.total_jobs());
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
    }

    #[test]
    fn plan_covers_every_participant_in_canonical_order() {
        let plan = full_scale();
        assert_eq!(plan.population.participants.len(), 63);
        // Canonical order: jobs are grouped by user, sequence within each
        // user ascends from zero, and `index` equals position.
        let jobs = plan.collect_jobs();
        let mut expected_seq: HashMap<u32, u32> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
            let seq = expected_seq.entry(job.user_id).or_insert(0);
            assert_eq!(job.clip_seq, *seq, "user {} out of sequence", job.user_id);
            *seq += 1;
        }
        assert_eq!(expected_seq.len(), 63);
        // Full scale plans the paper's ~2,900 sessions.
        assert!(
            (2_500..3_300).contains(&plan.total_jobs()),
            "{} jobs",
            plan.total_jobs()
        );
    }

    #[test]
    fn scaled_plan_is_a_prefix_per_user_of_the_full_plan() {
        let full = full_scale();
        let scaled = plan_campaign(StudyParams {
            scale: 0.25,
            ..StudyParams::default()
        });
        let full_jobs = full.collect_jobs();
        let scaled_jobs_all = scaled.collect_jobs();
        let mut full_by_user: HashMap<u32, Vec<&SessionJob>> = HashMap::new();
        for job in &full_jobs {
            full_by_user.entry(job.user_id).or_default().push(job);
        }
        let mut scaled_by_user: HashMap<u32, Vec<&SessionJob>> = HashMap::new();
        for job in &scaled_jobs_all {
            scaled_by_user.entry(job.user_id).or_default().push(job);
        }
        assert_eq!(full_by_user.len(), scaled_by_user.len());
        for (user_id, scaled_jobs) in &scaled_by_user {
            let full_jobs = &full_by_user[user_id];
            assert!(scaled_jobs.len() <= full_jobs.len());
            assert!(!scaled_jobs.is_empty());
            for (s, f) in scaled_jobs.iter().zip(full_jobs.iter()) {
                // Everything except the global plan index matches the
                // full-scale plan's corresponding job.
                assert_eq!(s.user_id, f.user_id);
                assert_eq!(s.clip_seq, f.clip_seq);
                assert_eq!(s.playlist_slot, f.playlist_slot);
                assert_eq!(s.server, f.server);
                assert_eq!(s.available, f.available);
                assert_eq!(s.rating_slot, f.rating_slot);
                assert_eq!(s.session_seed, f.session_seed);
                assert_eq!(s.fault_plan, f.fault_plan);
            }
        }
    }

    #[test]
    fn availability_fraction_in_figure_10_band() {
        let plan = full_scale();
        let unavailable = plan.collect_jobs().iter().filter(|j| !j.available).count();
        let frac = unavailable as f64 / plan.total_jobs() as f64;
        // Figure 10: overall clip unavailability averaged ≈ 10 %.
        assert!((0.05..0.18).contains(&frac), "unavailable fraction {frac}");
    }

    #[test]
    fn session_seeds_unique_over_full_scale_job_set() {
        let plan = full_scale();
        let jobs = plan.collect_jobs();
        let mut seen = std::collections::HashSet::new();
        for job in &jobs {
            assert!(
                seen.insert(job.session_seed),
                "seed collision at user {} seq {}",
                job.user_id,
                job.clip_seq
            );
        }
        // And the seeds are well spread, not clustered in a few high or
        // low bits the way the old `wrapping_mul`/`<< 20` mixing was:
        // population-count over the whole set should straddle 32.
        let mean_ones: f64 = jobs
            .iter()
            .map(|j| f64::from(j.session_seed.count_ones()))
            .sum::<f64>()
            / jobs.len() as f64;
        assert!((30.0..34.0).contains(&mean_ones), "mean ones {mean_ones}");
    }

    #[test]
    fn fault_plans_empty_when_off_and_scheduled_when_on() {
        let off = plan_campaign(StudyParams::quick());
        assert!(off.collect_jobs().iter().all(|j| j.fault_plan.is_empty()));

        let on_jobs = plan_campaign(StudyParams {
            faults: rv_sim::FaultScenario::default_on(),
            ..StudyParams::quick()
        })
        .collect_jobs();
        let faulted = on_jobs.iter().filter(|j| !j.fault_plan.is_empty()).count();
        assert!(faulted > 0, "default-on scenario scheduled no faults");
        assert!(
            faulted * 2 < on_jobs.len(),
            "faults must stay the minority: {faulted}/{}",
            on_jobs.len()
        );
        // Fault plans ride the same derive-by-key scheme as session
        // seeds: replanning yields the identical trouble.
        let again = plan_campaign(StudyParams {
            faults: rv_sim::FaultScenario::default_on(),
            ..StudyParams::quick()
        });
        assert_eq!(on_jobs, again.collect_jobs());
    }

    #[test]
    fn rating_slots_respect_user_budgets() {
        let plan = full_scale();
        let mut slots: HashMap<u32, u32> = HashMap::new();
        for job in plan.collect_jobs() {
            if job.rating_slot {
                assert!(job.available, "rating slot on an unavailable job");
                *slots.entry(job.user_id).or_insert(0) += 1;
            }
        }
        for user in &plan.population.participants {
            let got = slots.get(&user.id).copied().unwrap_or(0);
            assert!(
                got <= user.clips_to_rate,
                "user {} has {got} slots, budget {}",
                user.id,
                user.clips_to_rate
            );
        }
    }
}
