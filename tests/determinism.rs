//! The headline invariant of the plan/execute split: campaign output is
//! bit-identical for every worker count. A figure regenerated with
//! `--jobs 8` must match one regenerated with `--jobs 1` byte for byte —
//! both the streaming aggregates every figure is computed from and the
//! opt-in retained records.

use rv_study::{run_campaign, run_campaign_with_records, StudyParams};

fn params(jobs: usize) -> StudyParams {
    StudyParams {
        scale: 0.04,
        jobs,
        ..StudyParams::default()
    }
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let serial = run_campaign_with_records(params(1)).unwrap();
    assert!(!serial.records().is_empty());
    for jobs in [4, 8] {
        let parallel = run_campaign_with_records(params(jobs)).unwrap();
        // The streaming aggregates are the primary output: merged across
        // workers in canonical order, they must be *equal*, not just
        // statistically close.
        assert_eq!(
            serial.aggregates, parallel.aggregates,
            "aggregates differ at jobs={jobs}"
        );
        assert_eq!(
            serial.records().len(),
            parallel.records().len(),
            "record count differs at jobs={jobs}"
        );
        assert_eq!(serial.participants, parallel.participants);
        assert_eq!(serial.excluded_users, parallel.excluded_users);
        for (i, (s, p)) in serial.records().iter().zip(parallel.records()).enumerate() {
            assert_eq!(s.user_id, p.user_id, "record {i} user at jobs={jobs}");
            assert_eq!(s.server_name, p.server_name, "record {i} server");
            assert_eq!(s.clip_name, p.clip_name, "record {i} clip");
            assert_eq!(s.available, p.available, "record {i} availability");
            assert_eq!(s.metrics, p.metrics, "record {i} metrics at jobs={jobs}");
            assert_eq!(s.rating, p.rating, "record {i} rating at jobs={jobs}");
            assert_eq!(s.counters, p.counters, "record {i} counters at jobs={jobs}");
        }
        // Campaign-wide counter totals merge associatively: the same
        // totals whatever the worker count.
        assert_eq!(
            serial.summary.counters, parallel.summary.counters,
            "counter totals differ at jobs={jobs}"
        );
        // The summary reflects the executor that actually ran.
        assert_eq!(parallel.summary.workers, jobs);
        assert_eq!(
            parallel.summary.per_worker.iter().sum::<usize>(),
            parallel.records().len()
        );
    }
}

#[test]
fn streaming_aggregates_are_identical_across_worker_counts() {
    // Same invariant on the constant-memory path, where no records exist
    // to compare: the aggregates themselves carry the bit-identity.
    let serial = run_campaign(params(1)).unwrap();
    assert!(serial.records.is_none(), "streaming path retained records");
    for jobs in [4, 8] {
        let parallel = run_campaign(params(jobs)).unwrap();
        assert_eq!(
            serial.aggregates, parallel.aggregates,
            "streaming aggregates differ at jobs={jobs}"
        );
        assert_eq!(
            serial.summary.counters, parallel.summary.counters,
            "streaming counter totals differ at jobs={jobs}"
        );
    }
    // The totals are not vacuously equal: a fault-free campaign still
    // delivers packets and (on lossy paths) retransmits.
    use rv_sim::Counter;
    assert!(serial.summary.counters.get(Counter::PacketsDelivered) > 0);
}

#[test]
fn seed_and_scale_select_the_data_not_the_executor() {
    // Different seeds must differ (the invariant is not vacuous)...
    let a = run_campaign(params(4)).unwrap();
    let b = run_campaign(StudyParams {
        seed: 0xBEEF,
        ..params(4)
    })
    .unwrap();
    assert_ne!(a.aggregates.fps, b.aggregates.fps);
    assert_ne!(a.aggregates, b.aggregates);
    // ...and a parallel re-run of the same seed must not.
    let c = run_campaign(params(4)).unwrap();
    assert_eq!(a.aggregates, c.aggregates);
}

fn faulted_params(jobs: usize) -> StudyParams {
    StudyParams {
        faults: rv_sim::FaultScenario::default_on(),
        ..params(jobs)
    }
}

#[test]
fn faulted_campaign_is_bit_identical_across_worker_counts() {
    let serial = run_campaign_with_records(faulted_params(1)).unwrap();
    for jobs in [4, 8] {
        let parallel = run_campaign_with_records(faulted_params(jobs)).unwrap();
        assert_eq!(
            serial.aggregates, parallel.aggregates,
            "faulted aggregates differ at jobs={jobs}"
        );
        assert_eq!(serial.records().len(), parallel.records().len());
        for (i, (s, p)) in serial.records().iter().zip(parallel.records()).enumerate() {
            assert_eq!(s.metrics, p.metrics, "record {i} metrics at jobs={jobs}");
            assert_eq!(s.rating, p.rating, "record {i} rating at jobs={jobs}");
        }
        assert_eq!(
            serial.summary.counters, parallel.summary.counters,
            "faulted counter totals differ at jobs={jobs}"
        );
    }
    // Fault-only counters register under the default-on scenario.
    use rv_sim::Counter;
    assert!(serial.summary.counters.get(Counter::DropsOutage) > 0);
    assert!(serial.summary.counters.get(Counter::TcpRetransmits) > 0);
    // The scenario actually bites: the fault-only failure classes appear
    // and at least one session limped home through retry or fallback.
    let report = serial.failure_report();
    let count = |label: &str| {
        report
            .outcomes
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, c)| *c)
    };
    let hard_failures =
        count("timed-out") + count("server-down") + count("starved") + count("aborted");
    assert!(hard_failures > 0, "outcomes: {:?}", report.outcomes);
    assert!(
        report.retried + report.fallbacks > 0,
        "no session retried or fell back"
    );
}

#[test]
fn zero_rate_fault_scenario_matches_fault_free_campaign() {
    // An *enabled* scenario whose rates are all zero must generate empty
    // plans and reproduce the fault-free campaign bit for bit: arming
    // the fault machinery costs nothing when no fault fires.
    let zero = StudyParams {
        faults: rv_sim::FaultScenario {
            enabled: true,
            ..rv_sim::FaultScenario::off()
        },
        ..params(4)
    };
    let clean = run_campaign_with_records(params(4)).unwrap();
    let armed = run_campaign_with_records(zero).unwrap();
    assert_eq!(clean.aggregates, armed.aggregates);
    assert_eq!(clean.records().len(), armed.records().len());
    for (c, a) in clean.records().iter().zip(armed.records()) {
        assert_eq!(c.metrics, a.metrics);
        assert_eq!(c.rating, a.rating);
    }
}
