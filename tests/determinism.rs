//! Arming the fault machinery costs nothing when no fault fires: an
//! enabled scenario whose rates are all zero reproduces the fault-free
//! campaign bit for bit. (Bit-identity across worker counts and build
//! profiles, and against history, is `GOLDEN.json`'s: see
//! `tests/golden.rs`.)

use rv_study::{run_campaign_with_records, StudyParams};

fn params() -> StudyParams {
    StudyParams {
        scale: 0.04,
        jobs: 4,
        ..StudyParams::default()
    }
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
        ..params()
    };
    let clean = run_campaign_with_records(params()).unwrap();
    let armed = run_campaign_with_records(zero).unwrap();
    assert_eq!(clean.aggregates, armed.aggregates);
    assert_eq!(
        clean.records().unwrap().len(),
        armed.records().unwrap().len()
    );
    for (c, a) in clean
        .records()
        .unwrap()
        .iter()
        .zip(armed.records().unwrap())
    {
        assert_eq!(c.metrics, a.metrics);
        assert_eq!(c.rating, a.rating);
    }
}
