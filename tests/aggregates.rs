//! Streaming/retained equivalence: the aggregates folded live during a
//! campaign must be exactly what a rebuild from the retained record list
//! produces, and every figure rendered from either must match bit for
//! bit. This is the contract that lets `repro` default to the
//! constant-memory path without changing a single published number.

use realvideo_core::all_figures;
use rv_study::{
    plan_campaign, run_campaign, run_campaign_with_records, CampaignAccumulator,
    CampaignAggregates, GatewayPolicy, SessionRecord, StudyParams,
};

/// The aggregation spec: one serial pass over a retained record set, in
/// plan order, into one accumulator — no workers, no merge.
fn from_records(params: StudyParams, records: &[SessionRecord]) -> CampaignAggregates {
    let jobs = plan_campaign(params).collect_jobs();
    assert_eq!(jobs.len(), records.len());
    let mut rebuilt = CampaignAggregates::default();
    for (job, record) in jobs.iter().zip(records) {
        rebuilt.observe(job, record);
    }
    rebuilt
}

fn check_equivalence(params: StudyParams, label: &str) {
    let data = run_campaign_with_records(params).expect("campaign runs");
    // The campaign streamed `data.aggregates` as each session finished;
    // rebuilding from the retained records must land on the same bits.
    let rebuilt = from_records(params, data.records().unwrap());
    assert_eq!(
        data.aggregates, rebuilt,
        "streaming vs rebuilt aggregates differ ({label})"
    );

    // And therefore every rendered figure is byte-identical.
    let mut from_rebuilt = data.clone();
    from_rebuilt.aggregates = rebuilt;
    let a = all_figures(&data);
    let b = all_figures(&from_rebuilt);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.body, y.body, "figure {} differs ({label})", x.id);
    }

    // The failure report is also aggregate-derived on both paths.
    assert_eq!(
        format!("{}", data.failure_report()),
        format!("{}", from_rebuilt.failure_report()),
        "failure report differs ({label})"
    );
}

#[test]
fn streaming_aggregates_match_retained_records_fault_free() {
    check_equivalence(
        StudyParams {
            scale: 0.2,
            ..StudyParams::default()
        },
        "faults off",
    );
}

#[test]
fn streaming_aggregates_match_retained_records_with_faults() {
    check_equivalence(
        StudyParams {
            scale: 0.2,
            faults: rv_sim::FaultScenario::default_on(),
            ..StudyParams::default()
        },
        "faults on",
    );
}

/// `repro`'s figures come from the streaming path (`run_campaign`, no
/// records), `GOLDEN.json`'s digests from the records path: on several
/// workers, both fold the same aggregates.
#[test]
fn streaming_path_folds_what_the_records_path_folds() {
    let params = StudyParams {
        scale: 0.05,
        jobs: 4,
        faults: rv_sim::FaultScenario::default_on(),
        replicas: 2,
        gateway: GatewayPolicy::NearestHealthy,
        ..StudyParams::default()
    };
    let streamed = run_campaign(params).unwrap();
    assert!(streamed.records.is_none());
    let retained = run_campaign_with_records(params).unwrap();
    assert_eq!(streamed.aggregates, retained.aggregates);
}
