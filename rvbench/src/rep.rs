//! One untraced repetition of one workload, run in a process of its own.
//!
//! `rvbench child <workload> --seed N` is what a parent spawns once per
//! (workload, rep): peak RSS is then per workload, and every rep starts
//! with cold schedule/prototype caches and empty scratch exactly as a
//! user's `repro` does. Nothing is armed — no flight recorder, no spans —
//! so these are the end-to-end numbers.

use std::time::Instant;

use std::collections::BTreeMap;

use realvideo_core::{all_figures, FigureOutput};
use rv_sim::{alloc_stats, Counter, CounterSet};
use rv_study::{plan_campaign, run_campaign, run_job_with, StudyData, StudyParams};
use rv_tracer::WorldScratch;

use crate::digest::{sim_digest, Fnv};
use crate::json::Value;
use crate::procstat;
use crate::stats::Summary;
use crate::workload::Workload;

/// Participants per campaign whose first session a set-up probe runs
/// cold. One session would make the probe a measurement of who the first
/// participant happens to be (a modem session costs a tenth of a T1 one).
pub const SETUP_USERS: usize = 8;

/// What the campaigns of one rep — untraced or traced — simulated, summed.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Sessions planned.
    pub planned: u64,
    /// Sessions folded into aggregates.
    pub folded: u64,
    /// Sessions that played.
    pub played: u64,
    /// Simulated seconds across all sessions.
    pub sim_seconds: f64,
    /// Counter totals.
    pub counters: CounterSet,
    /// Outcome tallies by label.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Digest over the campaigns' sim digests, in order.
    digest: Fnv,
}

impl Totals {
    /// Adds one finished campaign and its rendered figures.
    pub fn add(&mut self, data: &StudyData, figures: &[FigureOutput]) {
        self.planned += data.summary.jobs_planned as u64;
        self.folded += data.aggregates.total_attempts;
        self.played += data.summary.played as u64;
        self.sim_seconds += data.summary.sim_seconds;
        self.counters.merge(&data.summary.counters);
        for (label, n) in &data.aggregates.failures.outcomes {
            *self.outcomes.entry(label).or_insert(0) += n;
        }
        self.digest.field(&sim_digest(data, figures).to_le_bytes());
    }

    /// The sim digest of everything added so far.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Sessions that yielded no client-finalised record. From outside the
    /// driver this is every session labelled `failed`: the deadline
    /// fallback the harness fabricates, plus the client's own catch-all
    /// protocol failure, which the label does not tell apart. Modelled
    /// outcomes (unavailable, server-down, rejected, starved, ...) are sim
    /// results, not failures; the digest pins them.
    pub fn failed(&self) -> u64 {
        self.outcomes.get("failed").copied().unwrap_or(0)
    }
}

/// Everything one rep measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct RepRecord {
    /// Workload name.
    pub workload: String,
    /// Seed given to `StudyParams`.
    pub seed: u64,
    /// Sessions planned.
    pub planned: u64,
    /// Sessions that played.
    pub played: u64,
    /// Sessions labelled `failed` (no client-finalised record).
    pub failed: u64,
    /// Wall seconds from the first call to `run_campaign` to the last
    /// campaign's last figure rendered.
    pub wall_s: f64,
    /// User + system CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Allocations over the same interval.
    pub allocs: u64,
    /// Bytes allocated over the same interval.
    pub alloc_bytes: u64,
    /// `VmHWM` when the rep ended, MiB.
    pub peak_rss_mib: f64,
    /// The set-up probe, seconds from `main()` entry in this cold process.
    pub setup_s: f64,
    /// Simulated seconds across all sessions.
    pub sim_seconds: f64,
    /// Sim digest.
    pub digest: u64,
    /// Seconds executor workers were alive but not simulating, summed.
    pub worker_idle_s: f64,
    /// Seconds executor workers were alive, summed.
    pub worker_wall_s: f64,
    /// (max − min worker busy time) ÷ mean, median over the campaigns.
    pub busy_skew: f64,
    /// `std::thread::available_parallelism` where the rep ran.
    pub threads_available: u64,
    /// Output checks that failed; empty when the rep is correct.
    pub failed_checks: Vec<String>,
}

/// The set-up probe: everything that must happen before `run_campaign`
/// simulates at its steady rate — each campaign's plan, and the first
/// available session of each of its first [`SETUP_USERS`] participants run
/// alone from a fresh scratch, which is where the schedule and prototype
/// caches and the world's buffers are first filled. Returns the seconds
/// since `main_entry`, the instant `main()` began: a process makes one
/// probe, cold, and a median comes from several processes.
pub fn setup_probe(workload: &Workload, seed: u64, scale_mult: f64, main_entry: Instant) -> f64 {
    probe(&workload.campaigns(seed, scale_mult), main_entry)
}

fn probe(campaigns: &[StudyParams], started: Instant) -> f64 {
    for params in campaigns {
        let plan = plan_campaign(*params);
        for user in 0..plan.num_users().min(SETUP_USERS) {
            if let Some(job) = plan.user_jobs(user).into_iter().find(|job| job.available) {
                let mut scratch = WorldScratch::default();
                std::hint::black_box(run_job_with(&plan, &job, &mut scratch));
            }
        }
    }
    started.elapsed().as_secs_f64()
}

/// Runs one rep of `workload`. `main_entry` is the instant `main()` began.
pub fn run_rep(workload: &Workload, seed: u64, scale_mult: f64, main_entry: Instant) -> RepRecord {
    let campaigns = workload.campaigns(seed, scale_mult);

    let setup_s = probe(&campaigns, main_entry);

    let cpu_before = procstat::cpu_seconds();
    let (allocs_before, bytes_before) = alloc_stats::snapshot();
    let started = Instant::now();
    let results: Vec<_> = campaigns
        .iter()
        .map(|params| {
            run_campaign(*params).map(|data| {
                let figures = all_figures(&data);
                (data, figures)
            })
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let (allocs_after, bytes_after) = alloc_stats::snapshot();
    let cpu_after = procstat::cpu_seconds();

    let mut totals = Totals::default();
    let mut failed_checks = Vec::new();
    let mut failed = 0;
    let (mut worker_idle_s, mut worker_wall_s) = (0.0, 0.0);
    let mut skews = Vec::new();
    for (params, result) in campaigns.iter().zip(&results) {
        match result {
            Ok((data, figures)) => {
                totals.add(data, figures);
                let busy: Vec<f64> = data
                    .summary
                    .profiles
                    .iter()
                    .map(|p| p.busy.as_secs_f64())
                    .collect();
                for p in &data.summary.profiles {
                    worker_idle_s += p.idle().as_secs_f64();
                    worker_wall_s += p.wall.as_secs_f64();
                }
                let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
                if mean > 0.0 {
                    let spread = busy.iter().copied().fold(f64::MIN, f64::max)
                        - busy.iter().copied().fold(f64::MAX, f64::min);
                    skews.push(spread / mean);
                }
            }
            Err(err) => {
                // A campaign that could not finish yields no record for any
                // of its sessions: every planned session counts as failed.
                let planned = plan_campaign(*params).total_jobs() as u64;
                totals.planned += planned;
                failed += planned;
                failed_checks.push(format!("run_campaign(seed {}) failed: {err}", params.seed));
            }
        }
    }
    failed_checks.extend(output_checks(workload, &totals));
    RepRecord {
        workload: workload.name.to_string(),
        seed,
        planned: totals.planned,
        played: totals.played,
        failed: failed + totals.failed(),
        wall_s,
        cpu_s: cpu_after.zip(cpu_before).map_or(0.0, |(a, b)| a - b),
        allocs: allocs_after - allocs_before,
        alloc_bytes: bytes_after - bytes_before,
        peak_rss_mib: procstat::peak_rss_mib().unwrap_or(0.0),
        setup_s,
        sim_seconds: totals.sim_seconds,
        digest: totals.digest(),
        worker_idle_s,
        worker_wall_s,
        busy_skew: if skews.is_empty() {
            0.0
        } else {
            Summary::of(&skews).median
        },
        threads_available: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        failed_checks,
    }
}

/// The checks every finished rep must pass, whoever drove it: the tallies
/// add up, something played, and the workload did what its name says.
/// Returns the failures.
pub fn output_checks(workload: &Workload, totals: &Totals) -> Vec<String> {
    let mut failed = Vec::new();
    let planned = totals.planned;
    let tallied: u64 = totals.outcomes.values().sum();
    if tallied != planned {
        failed.push(format!(
            "outcome tallies sum to {tallied}, planned {planned}"
        ));
    }
    if totals.folded != planned {
        failed.push(format!(
            "{} attempts folded, planned {planned}",
            totals.folded
        ));
    }
    if totals.played == 0 {
        failed.push("no session played".to_string());
    }
    let fault_counters = [
        Counter::DropsOutage,
        Counter::GatewayRedirects,
        Counter::ServerCrashes,
    ];
    for counter in fault_counters {
        let v = totals.counters.get(counter);
        if workload.is_faulted() && v == 0 {
            failed.push(format!("{}: {} is 0", workload.name, counter.name()));
        }
        if !workload.is_faulted() && v != 0 {
            failed.push(format!(
                "{}: {} is {v}, expected 0",
                workload.name,
                counter.name()
            ));
        }
    }
    if let Some(ceiling) = workload.session_sim_ceiling() {
        let per_session = totals.sim_seconds / planned.max(1) as f64;
        if per_session >= ceiling {
            failed.push(format!(
                "{}: {per_session:.2} sim s/session, expected under {ceiling}",
                workload.name
            ));
        }
    }
    failed
}

impl RepRecord {
    /// The one-line record a child prints for its parent.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("workload", self.workload.as_str())
            // Seeds and digests are full 64-bit values; JSON numbers are
            // not, so both travel as strings.
            .with("seed", self.seed.to_string())
            .with("planned", self.planned)
            .with("played", self.played)
            .with("failed", self.failed)
            .with("wall_s", self.wall_s)
            .with("cpu_s", self.cpu_s)
            .with("allocs", self.allocs)
            .with("alloc_bytes", self.alloc_bytes)
            .with("peak_rss_mib", self.peak_rss_mib)
            .with("setup_s", self.setup_s)
            .with("sim_seconds", self.sim_seconds)
            .with("digest", format!("{:016x}", self.digest))
            .with("worker_idle_s", self.worker_idle_s)
            .with("worker_wall_s", self.worker_wall_s)
            .with("busy_skew", self.busy_skew)
            .with("threads_available", self.threads_available)
            .with(
                "failed_checks",
                self.failed_checks
                    .iter()
                    .map(|s| Value::from(s.as_str()))
                    .collect::<Vec<_>>(),
            )
    }

    /// Reads back what [`RepRecord::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<RepRecord> {
        Some(RepRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_str()?.parse().ok()?,
            planned: v.get("planned")?.as_u64()?,
            played: v.get("played")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            wall_s: v.get("wall_s")?.as_f64()?,
            cpu_s: v.get("cpu_s")?.as_f64()?,
            allocs: v.get("allocs")?.as_u64()?,
            alloc_bytes: v.get("alloc_bytes")?.as_u64()?,
            peak_rss_mib: v.get("peak_rss_mib")?.as_f64()?,
            setup_s: v.get("setup_s")?.as_f64()?,
            sim_seconds: v.get("sim_seconds")?.as_f64()?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            worker_idle_s: v.get("worker_idle_s")?.as_f64()?,
            worker_wall_s: v.get("worker_wall_s")?.as_f64()?,
            busy_skew: v.get("busy_skew")?.as_f64()?,
            threads_available: v.get("threads_available")?.as_u64()?,
            failed_checks: v
                .get("failed_checks")?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}
