//! Per-session allocation accounting, compiled only with the
//! `alloc-stats` counting allocator.
//!
//! Two jobs: a build-vs-run breakdown printed for profiling (run with
//! `--nocapture`), and a hard per-session allocation budget so the
//! delay-line/arena work cannot silently regress. Run with:
//!
//! ```text
//! cargo test -p realvideo-core --features alloc-stats --release \
//!     --test alloc_probe -- --nocapture
//! ```
#![cfg(feature = "alloc-stats")]

use rv_sim::alloc_stats;
use rv_study::{build_session_world_gw, plan_campaign, run_job_with, StudyParams};
use rv_tracer::WorldScratch;

#[global_allocator]
static ALLOC: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

fn allocs() -> u64 {
    alloc_stats::snapshot().0
}

/// The counting allocator is process-global, so probes that difference
/// its snapshots must not overlap with each other.
static PROBE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn alloc_breakdown_per_session() {
    let _serial = PROBE_LOCK.lock().unwrap();
    let params = StudyParams {
        scale: 0.02,
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let jobs: Vec<_> = plan
        .collect_jobs()
        .into_iter()
        .filter(|j| j.available)
        .collect();
    assert!(!jobs.is_empty(), "scale too small: no available jobs");

    // One scratch threaded through every session, exactly as each
    // executor worker does it: steady state is "warm scratch", not
    // "fresh world every time".
    let mut scratch = WorldScratch::default();

    // Warm-up: first session pays one-time lazy init (statics, tables)
    // and populates the scratch.
    run_job_with(&plan, &jobs[0], &mut scratch);

    let (mut build, mut run, mut record, mut total) = (0u64, 0u64, 0u64, 0u64);
    let mut by_transport = std::collections::BTreeMap::new();
    let hist_before = alloc_stats::size_histogram();
    for job in &jobs {
        let user = &plan.population.participants[job.user];
        let site = &plan.roster[job.server];
        let entry = &plan.playlist[job.playlist_slot];
        let before = allocs();
        let mut world = build_session_world_gw(
            user,
            site,
            &entry.clip,
            plan.params.watch_limit,
            job.session_seed,
            &job.fault_plan,
            None,
            &mut scratch,
        );
        let built = allocs();
        let metrics = world.run(plan.params.session_deadline);
        let ran = allocs();
        let slot = by_transport
            .entry(format!("{:?}", metrics.protocol))
            .or_insert((0u64, 0u64));
        slot.0 += ran - before;
        slot.1 += 1;
        world.retire(&mut scratch);
        run_job_with(&plan, job, &mut scratch);
        let after = allocs();
        build += built - before;
        run += ran - built;
        record += after - ran;
        total += after - before;
    }
    let hist_after = alloc_stats::size_histogram();
    let n = jobs.len() as f64;
    let per_session = (build + run) as f64 / n;
    println!("sessions: {}", jobs.len());
    println!("size-class histogram (allocs/session, bucket = size <= 2^i):");
    for (i, (after, before)) in hist_after.iter().zip(hist_before.iter()).enumerate() {
        let delta = (after - before) as f64 / n;
        if delta >= 0.5 {
            println!("  <= {:>8} B: {:>8.1}", 1u64 << i, delta);
        }
    }
    println!(
        "  build_session_world: {:.1} allocs/session",
        build as f64 / n
    );
    println!(
        "  world.run:           {:.1} allocs/session",
        run as f64 / n
    );
    println!(
        "  full run_job redo:   {:.1} allocs/session",
        record as f64 / n
    );
    println!(
        "  grand total:         {:.1} allocs/session",
        total as f64 / n
    );
    println!("allocs/session (steady state): {per_session:.1}");
    for (transport, (count, n)) in &by_transport {
        println!(
            "  {transport}: {:.1} allocs/session over {n} sessions",
            *count as f64 / *n as f64
        );
    }

    // Backtrace-sampled attribution: rerun a few sessions with every
    // 97th allocation recording its backtrace, then aggregate by the
    // first in-workspace frame. The profiler of last resort for "what is
    // still allocating" — printed, not asserted.
    alloc_stats::start_sampling(97);
    for job in jobs.iter().take(8) {
        run_job_with(&plan, job, &mut scratch);
    }
    alloc_stats::start_sampling(0);
    let samples = alloc_stats::take_samples();
    let mut by_site: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (_, bt) in &samples {
        let site = bt
            .lines()
            .map(str::trim)
            .filter(|l| l.contains("rv_") || l.contains("realvideo"))
            .find(|l| !l.contains("alloc_stats") && !l.contains("CountingAlloc"))
            .unwrap_or("<no workspace frame>")
            .to_string();
        *by_site.entry(site).or_insert(0) += 1;
    }
    let mut ranked: Vec<_> = by_site.into_iter().collect();
    ranked.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("sampled allocation sites ({} samples):", samples.len());
    for (site, n) in ranked.iter().take(20) {
        println!("  {n:>5}  {site}");
    }

    // Measured steady state is ~389 allocs/session (scratch arena,
    // topology prototypes, on-demand schedules, pooled gathers and
    // control writes); the budget sits close enough above it that any
    // allocation creep on the session hot path trips this probe rather
    // than hiding under an old slack bound.
    assert!(
        per_session < 450.0,
        "allocation budget blown: {per_session:.1} allocs/session (budget 450)"
    );
}

#[test]
fn disarmed_flight_recorder_allocates_nothing() {
    let _serial = PROBE_LOCK.lock().unwrap();
    // The observability contract's zero-overhead clause, measured: with
    // the recorder disarmed, a session allocates *exactly* what it
    // allocated before the recorder existed — the emit sites are one
    // thread-local load and a branch, never a closure evaluation. The
    // probe replays the same job warm (identical allocation profile run
    // to run), arms the recorder once in between to prove arming is
    // observable, and checks the disarmed counts bracket it unchanged.
    let params = StudyParams {
        scale: 0.02,
        faults: rv_sim::FaultScenario::default_on(),
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let jobs: Vec<_> = plan
        .collect_jobs()
        .into_iter()
        .filter(|j| j.available)
        .collect();
    let job = jobs
        .iter()
        .find(|j| !j.fault_plan.is_empty())
        .unwrap_or(&jobs[0]);

    let mut scratch = WorldScratch::default();

    let measure = |scratch: &mut WorldScratch| {
        let before = allocs();
        run_job_with(&plan, job, scratch);
        allocs() - before
    };

    // Warm until the replay is allocation-stable: the early runs pay
    // lazy init and scratch pool growth (the count drifts down for ~20
    // runs as the pools fill, with a ±1 wobble near the end), then it
    // fixes. Demand several consecutive identical measures so a
    // mid-drift plateau cannot fake stability.
    let stable = |scratch: &mut WorldScratch| -> Option<u64> {
        let mut value = measure(scratch);
        let mut streak = 0;
        for _ in 0..64 {
            let next = measure(scratch);
            if next == value {
                streak += 1;
                if streak >= 5 {
                    return Some(value);
                }
            } else {
                streak = 0;
                value = next;
            }
        }
        None
    };
    let disarmed_a = stable(&mut scratch).expect(
        "warm replay never became allocation-stable; the zero-overhead probe is meaningless",
    );

    // Armed, the same session records thousands of events — the recorder
    // itself plainly allocates (so equality below is not vacuous).
    rv_sim::trace::start();
    let armed = measure(&mut scratch);
    let records = rv_sim::trace::finish();
    assert!(!records.is_empty(), "armed recorder captured nothing");
    assert!(
        armed > disarmed_a,
        "armed run ({armed}) did not allocate more than disarmed ({disarmed_a})"
    );

    let disarmed_after =
        stable(&mut scratch).expect("disarmed replay did not restabilize after an armed run");
    assert_eq!(
        disarmed_a, disarmed_after,
        "tracing-off path allocation count changed after an armed run"
    );
}
