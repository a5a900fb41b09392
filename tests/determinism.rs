//! Arming the fault machinery costs nothing when no fault fires: in a
//! faulted campaign, every session whose fault plan came out empty
//! reproduces the fault-free campaign's session bit for bit.
//! (Bit-identity across worker counts and build profiles, and against
//! history, is `GOLDEN.json`'s: see `tests/golden.rs`.)

use rv_study::{plan_campaign, run_campaign_with_records, StudyParams};

fn params() -> StudyParams {
    StudyParams {
        scale: 0.04,
        jobs: 4,
        ..StudyParams::default()
    }
}

#[test]
fn empty_fault_plans_match_the_fault_free_campaign() {
    let faulted_params = StudyParams {
        faults: rv_sim::FaultScenario::default_on(),
        ..params()
    };
    let jobs = plan_campaign(faulted_params).collect_jobs();
    let clean = run_campaign_with_records(params()).unwrap();
    let faulted = run_campaign_with_records(faulted_params).unwrap();
    let (clean, faulted) = (clean.records().unwrap(), faulted.records().unwrap());
    assert_eq!(clean.len(), jobs.len());
    assert_eq!(faulted.len(), jobs.len());

    let mut unfaulted = 0;
    for ((job, c), f) in jobs.iter().zip(clean).zip(faulted) {
        if !job.fault_plan.is_empty() {
            continue;
        }
        unfaulted += 1;
        let at = (job.user_id, job.clip_seq);
        assert_eq!(c.metrics, f.metrics, "metrics of {at:?}");
        assert_eq!(c.rating, f.rating, "rating of {at:?}");
        assert_eq!(c.counters, f.counters, "counters of {at:?}");
    }
    assert!(unfaulted > 0, "no session drew an empty plan");
    assert!(unfaulted < jobs.len(), "no session drew a fault");
}
