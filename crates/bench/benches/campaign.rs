//! Execute-phase benchmarks for the plan/execute split: `fold` into
//! `CampaignAggregates` — the path `run_campaign` takes — with one worker
//! against several on the same plan at scale 0.2, for quick local A/B of
//! a change to `fold`. Sessions are independent closed worlds, so the
//! speedup is whatever the runner's cores allow — this file sets no
//! target. The numbers of record are `rvbench`'s `classic_serial` /
//! `classic_parallel` workloads (`BENCHMARK.json`); each bench here also
//! prints the sessions/sec summary line so the numbers are visible in
//! plain bench output.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rv_study::{fold, plan_campaign, run_campaign, CampaignAggregates, StudyParams};

const SCALE: f64 = 0.2;

fn params(jobs: usize) -> StudyParams {
    StudyParams {
        scale: SCALE,
        jobs,
        ..StudyParams::default()
    }
}

/// One worker vs. several over one shared plan.
fn bench_campaign_parallel(c: &mut Criterion) {
    let plan = plan_campaign(params(1));
    let sessions = plan.total_jobs() as u64;

    let mut g = c.benchmark_group("campaign_parallel");
    g.sample_size(10);
    g.throughput(Throughput::Elements(sessions));
    for workers in [1, 2, 4, 8] {
        g.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| std::hint::black_box(fold::<CampaignAggregates>(&plan, workers)))
        });
    }
    g.finish();

    // One end-to-end run per worker count, printing the summary line the
    // binaries emit — this is where sessions/sec shows up in bench logs.
    // Skipped when cargo runs this target in test mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    for jobs in [1, 4] {
        let data = run_campaign(params(jobs)).expect("campaign runs");
        println!("campaign_parallel summary (jobs={jobs}): {}", data.summary);
    }
}

/// Plan-phase cost alone: must stay negligible next to execution.
fn bench_plan_phase(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_plan");
    g.bench_function("plan_full_scale", |b| {
        b.iter(|| std::hint::black_box(plan_campaign(StudyParams::default())))
    });
    g.finish();
}

criterion_group!(benches, bench_campaign_parallel, bench_plan_phase);
criterion_main!(benches);
